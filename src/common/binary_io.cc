#include "common/binary_io.h"

#include <array>

namespace daisy {

namespace {

// Slicing-by-8 tables of the reflected CRC-32 polynomial 0xEDB88320:
// table[0] is the classic bytewise table, and table[k][i] is the CRC of byte
// i followed by k zero bytes, so eight table lookups fold in eight input
// bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

// Little-endian load independent of the host byte order and alignment.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Value type tags of the binary encoding. Distinct from ValueType on
// purpose: the on-disk numbering is frozen by the format version and must
// not drift if the in-memory enum is ever reordered.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const CrcTables t = MakeCrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (; len >= 8; len -= 8, p += 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::AppendLe(const void* v, size_t n) {
  // Little-endian byte order independent of the host: serialize byte by
  // byte from the least significant end.
  const uint8_t* src = static_cast<const uint8_t*>(v);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  buf_.append(reinterpret_cast<const char*>(src), n);
#else
  for (size_t i = 0; i < n; ++i) {
    buf_.push_back(static_cast<char>(src[i]));
  }
#endif
}

void BinaryWriter::WriteValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      WriteU8(kTagNull);
      return;
    case ValueType::kInt:
      WriteU8(kTagInt);
      WriteI64(v.as_int());
      return;
    case ValueType::kDouble:
      WriteU8(kTagDouble);
      WriteDouble(v.as_double_raw());
      return;
    case ValueType::kString:
      WriteU8(kTagString);
      WriteString(v.as_string());
      return;
  }
}

Status BinaryReader::Need(size_t n) const {
  if (len_ - pos_ < n) {
    return Status::OutOfRange("binary decode: need " + std::to_string(n) +
                              " bytes at offset " + std::to_string(pos_) +
                              ", have " + std::to_string(len_ - pos_));
  }
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  DAISY_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint32_t> BinaryReader::ReadU32() {
  DAISY_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  DAISY_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  DAISY_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  DAISY_RETURN_IF_ERROR(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Value> BinaryReader::ReadValue() {
  DAISY_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagInt: {
      DAISY_ASSIGN_OR_RETURN(int64_t v, ReadI64());
      return Value(v);
    }
    case kTagDouble: {
      DAISY_ASSIGN_OR_RETURN(double v, ReadDouble());
      return Value(v);
    }
    case kTagString: {
      DAISY_ASSIGN_OR_RETURN(std::string v, ReadString());
      return Value(std::move(v));
    }
    default:
      return Status::ParseError("binary decode: unknown Value tag " +
                                std::to_string(tag));
  }
}

Result<uint64_t> BinaryReader::ReadCount(size_t min_element_bytes) {
  DAISY_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
    return Status::ParseError(
        "binary decode: element count " + std::to_string(n) +
        " exceeds the " + std::to_string(remaining()) + " bytes left");
  }
  return n;
}

}  // namespace daisy
