// Unit tests for the common runtime: Status/Result, Value, string utils,
// CSV, the deterministic RNG and the CRC-32 checksum.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/binary_io.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/value.h"

namespace daisy {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::TypeMismatch("x").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MacrosPropagate) {
  auto inner = []() -> Result<int> { return Status::ParseError("boom"); };
  auto outer = [&]() -> Result<int> {
    DAISY_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  Result<int> r = outer();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// ----------------------------------------------------------------- Value --

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("abc").as_string(), "abc");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_NE(Value(3), Value(3.5));
  EXPECT_NE(Value(3), Value("3"));
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value::Null(), Value(0));   // nulls order first
  EXPECT_LT(Value(999), Value("a"));    // numerics before strings
  EXPECT_EQ(Value("x").Compare(Value("x")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(5).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value("hello").Hash(), Value("hello").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("s").ToString(), "s");
  EXPECT_EQ(Value::Null().ToString(), "");
}

TEST(ValueTest, ParseRoundTrips) {
  EXPECT_EQ(Value::Parse("123", ValueType::kInt).ValueOrDie(), Value(123));
  EXPECT_EQ(Value::Parse("-5", ValueType::kInt).ValueOrDie(), Value(-5));
  EXPECT_DOUBLE_EQ(
      Value::Parse("2.75", ValueType::kDouble).ValueOrDie().AsDouble(), 2.75);
  EXPECT_EQ(Value::Parse("txt", ValueType::kString).ValueOrDie(),
            Value("txt"));
  EXPECT_TRUE(Value::Parse("", ValueType::kInt).ValueOrDie().is_null());
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("12x", ValueType::kInt).ok());
  EXPECT_FALSE(Value::Parse("abc", ValueType::kDouble).ok());
}

// ----------------------------------------------------------- string_util --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtilTest, TrimAndLowerAndJoin) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, ParseUintInRangeAcceptsPlainDecimals) {
  EXPECT_EQ(ParseUintInRange("1", 1, 1024).value(), 1u);
  EXPECT_EQ(ParseUintInRange("1024", 1, 1024).value(), 1024u);
  EXPECT_EQ(ParseUintInRange("0", 0, 65535).value(), 0u);
  EXPECT_EQ(ParseUintInRange("007", 0, 65535).value(), 7u);
  EXPECT_EQ(ParseUintInRange("18446744073709551615", 0, UINT64_MAX).value(),
            UINT64_MAX);
}

TEST(StringUtilTest, ParseUintInRangeRejectsEverythingElse) {
  const char* bad[] = {"",   "-1", "+4",   " 4",  "4 ", "4x",    "x4",
                       "0x10", "1e3", "4.0", "abc", "0",  "1025",
                       "18446744073709551616", "99999999999999999999999"};
  for (const char* text : bad) {
    Result<uint64_t> r = ParseUintInRange(text, 1, 1024);
    ASSERT_FALSE(r.ok()) << "'" << text << "' parsed as " << r.value();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(r.status().message().find("[1, 1024]"), std::string::npos)
        << r.status();
  }
  // Overflow is caught even when the range admits every uint64_t.
  EXPECT_FALSE(ParseUintInRange("18446744073709551616", 0, UINT64_MAX).ok());
  // A port range: 65536 overflows uint16 and must not wrap to 0.
  EXPECT_FALSE(ParseUintInRange("65536", 0, 65535).ok());
  EXPECT_FALSE(ParseUintInRange("70000", 0, 65535).ok());
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParsesPlainLine) {
  auto fields = ParseCsvLine("a,b,c").ValueOrDie();
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParsesQuotedFields) {
  auto fields = ParseCsvLine(R"("a,b",c,"d""e")").ValueOrDie();
  EXPECT_EQ(fields, (std::vector<std::string>{"a,b", "c", "d\"e"}));
}

TEST(CsvTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("ab\"cd").ok());
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/daisy_csv_test.csv";
  std::vector<std::vector<std::string>> rows{{"h1", "h2"},
                                             {"1", "two words"},
                                             {"3", "with,comma"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto read = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(read, rows);
}

TEST(CsvTest, MissingFileIsIOError) {
  auto r = ReadCsvFile("/nonexistent/daisy.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(2);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(3);
  size_t low = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++low;
  }
  // With s=1.2 the first 10 ranks hold well over a third of the mass.
  EXPECT_GT(low, static_cast<size_t>(kDraws / 3));
}

// ----------------------------------------------------------------- CRC32 --

// The plain one-byte-at-a-time reflected CRC-32 (polynomial 0xEDB88320),
// the reference the table-driven Crc32 must reproduce bit for bit.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(11);
  std::vector<uint8_t> buf(64 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + offset;
      EXPECT_EQ(Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
      // Continuing from a seed equals one pass over the concatenation.
      const size_t split = len / 3;
      EXPECT_EQ(Crc32(p + split, len - split, Crc32(p, split)),
                BytewiseCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace daisy
