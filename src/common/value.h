// Dynamically-typed scalar values stored in table cells.
//
// A Value is null, a 64-bit integer, a double, or a string. Integers and
// doubles compare numerically against each other; strings compare
// lexicographically. Nulls order before everything else and equal only null.

#ifndef DAISY_COMMON_VALUE_H_
#define DAISY_COMMON_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <variant>

#include "common/status.h"

namespace daisy {

enum class ValueType {
  kNull = 0,
  kInt,
  kDouble,
  kString,
};

const char* ValueTypeToString(ValueType type);

/// A dynamically typed scalar. Cheap to copy for numerics; strings use
/// std::string value semantics.
class Value {
 public:
  Value() : var_(std::monostate{}) {}
  /* implicit */ Value(int64_t v) : var_(v) {}
  /* implicit */ Value(int v) : var_(static_cast<int64_t>(v)) {}
  /* implicit */ Value(double v) : var_(v) {}
  /* implicit */ Value(std::string v) : var_(std::move(v)) {}
  /* implicit */ Value(const char* v) : var_(std::string(v)) {}

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (var_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_nan() const { return is_double() && std::isnan(as_double_raw()); }

  /// Requires is_int().
  int64_t as_int() const { return std::get<int64_t>(var_); }
  /// Requires is_double().
  double as_double_raw() const { return std::get<double>(var_); }
  /// Requires is_string().
  const std::string& as_string() const { return std::get<std::string>(var_); }

  /// Numeric value widened to double. Requires is_numeric().
  double AsDouble() const {
    return is_int() ? static_cast<double>(as_int()) : as_double_raw();
  }

  /// Strict equality: same type class (numerics unify) and same content.
  bool Equals(const Value& other) const;

  /// Three-way comparison: -1, 0, +1. Nulls order first; numerics compare
  /// numerically; mixed string/numeric compares by type rank.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Equals(other); }
  bool operator!=(const Value& other) const { return !Equals(other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable hash consistent with Equals (ints and equal-valued doubles that
  /// are integral hash alike).
  size_t Hash() const;

  /// Renders the value for CSV/debug output. Null renders as "".
  std::string ToString() const;

  /// Parses `text` as `type`. Empty text parses to null for any type.
  static Result<Value> Parse(const std::string& text, ValueType type);

 private:
  std::variant<std::monostate, int64_t, double, std::string> var_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace daisy

#endif  // DAISY_COMMON_VALUE_H_
