#include "util/serde.h"

#include <istream>
#include <sstream>

namespace pis {

static_assert(sizeof(int) == sizeof(int32_t), "VecInt stores 4-byte ints");

void BinaryWriter::Str(const std::string& s) {
  U64(s.size());
  Raw(s.data(), s.size());
}

void BinaryWriter::VecI32(const std::vector<int32_t>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(int32_t));
}

void BinaryWriter::VecInt(const std::vector<int>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(int));
}

void BinaryWriter::VecF64(const std::vector<double>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(double));
}

BinaryReader::BinaryReader(std::istream& in) {
  std::ostringstream bytes;
  if (in.peek() != std::istream::traits_type::eof()) bytes << in.rdbuf();
  owned_ = std::move(bytes).str();
  data_ = owned_;
}

bool BinaryReader::Raw(void* data, size_t n) {
  if (failed_ || n > data_.size() - pos_) {
    failed_ = true;
    return false;
  }
  if (n > 0) std::memcpy(data, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint8_t BinaryReader::U8() {
  uint8_t v = 0;
  Raw(&v, 1);
  return v;
}

uint32_t BinaryReader::U32() {
  uint32_t v = 0;
  Raw(&v, 4);
  return v;
}

uint64_t BinaryReader::U64() {
  uint64_t v = 0;
  Raw(&v, 8);
  return v;
}

int32_t BinaryReader::I32() {
  int32_t v = 0;
  Raw(&v, 4);
  return v;
}

double BinaryReader::F64() {
  double v = 0;
  Raw(&v, 8);
  return v;
}

template <typename T>
std::vector<T> BinaryReader::Vec() {
  const uint64_t n = ReadCount(sizeof(T));
  std::vector<T> v(n);
  Raw(v.data(), n * sizeof(T));
  return v;
}

std::string BinaryReader::Str() {
  const uint64_t n = ReadCount(1);
  std::string s(n, '\0');
  Raw(s.data(), n);
  return s;
}

std::vector<int32_t> BinaryReader::VecI32() { return Vec<int32_t>(); }

std::vector<int> BinaryReader::VecInt() { return Vec<int>(); }

std::vector<double> BinaryReader::VecF64() { return Vec<double>(); }

uint64_t BinaryReader::ReadCount(uint64_t min_elem_bytes) {
  const uint64_t n = U64();
  if (failed_) return 0;
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  // Overflow-safe: n elements of min_elem_bytes must fit the bytes left.
  if (n > (data_.size() - pos_) / min_elem_bytes) {
    failed_ = true;
    return 0;
  }
  return n;
}

Status BinaryReader::Check(const std::string& what) const {
  if (ok()) return Status::OK();
  return Status::ParseError("truncated or corrupt " + what);
}

std::string UnsupportedVersionMessage(const std::string& format,
                                      uint32_t found, uint32_t oldest,
                                      uint32_t current) {
  std::string msg = "unsupported " + format + " version ";
  msg += std::to_string(found);
  if (oldest == current) {
    msg += " (this build reads only version ";
  } else {
    msg += " (this build reads versions ";
    msg += std::to_string(oldest);
    msg += " to ";
  }
  msg += std::to_string(current);
  msg += ")";
  if (found >= 1 && found < oldest) {
    msg += "; commit ";
    msg += kLastRetiredFormatReader;
    msg += " is the last that reads version ";
    msg += std::to_string(found);
  }
  return msg;
}

}  // namespace pis
