#include "common/string_util.h"

#include <cctype>

namespace daisy {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<uint64_t> ParseUintInRange(std::string_view text, uint64_t lo,
                                  uint64_t hi) {
  auto reject = [&]() {
    return Status::InvalidArgument(
        "'" + std::string(text) + "' is not an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  };
  if (text.empty()) return reject();
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return reject();
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return reject();
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return reject();
  return value;
}

}  // namespace daisy
