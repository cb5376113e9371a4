#include "util/serde.h"

#include <istream>
#include <ostream>

namespace pis {

void BinaryWriter::Raw(const void* data, size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void BinaryWriter::U8(uint8_t v) { Raw(&v, 1); }

void BinaryWriter::U32(uint32_t v) { Raw(&v, 4); }

void BinaryWriter::U64(uint64_t v) { Raw(&v, 8); }

void BinaryWriter::I32(int32_t v) { Raw(&v, 4); }

void BinaryWriter::F64(double v) { Raw(&v, 8); }

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
  for (int x : v) I32(x);
}

void BinaryWriter::VecF64(const std::vector<double>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(double));
}

bool BinaryWriter::ok() const { return static_cast<bool>(out_); }

bool BinaryReader::HasBytes(uint64_t bytes) {
  if (failed_) return false;
  if (stream_bytes_ == -2) {
    // Lazily probe the stream size (seekable streams only).
    std::streampos cur = in_.tellg();
    if (cur == std::streampos(-1)) {
      stream_bytes_ = -1;
    } else {
      in_.seekg(0, std::ios::end);
      std::streampos end = in_.tellg();
      in_.seekg(cur);
      stream_bytes_ = static_cast<int64_t>(end);
    }
  }
  if (stream_bytes_ < 0) return bytes <= kMaxContainer;
  std::streampos cur = in_.tellg();
  if (cur == std::streampos(-1)) return false;
  return bytes <= static_cast<uint64_t>(stream_bytes_ - static_cast<int64_t>(cur));
}

bool BinaryReader::Raw(void* data, size_t n) {
  if (failed_) return false;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (in_.gcount() != static_cast<std::streamsize>(n)) failed_ = true;
  return !failed_;
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

std::string BinaryReader::Str() {
  uint64_t n = U64();
  if (failed_ || n > (uint64_t{1} << 40) || !HasBytes(n)) {
    failed_ = true;
    return {};
  }
  std::string s(n, '\0');
  Raw(s.data(), n);
  return s;
}

std::vector<int32_t> BinaryReader::VecI32() {
  uint64_t n = U64();
  if (failed_ || n > (uint64_t{1} << 40) / sizeof(int32_t) || !HasBytes(n * sizeof(int32_t))) {
    failed_ = true;
    return {};
  }
  std::vector<int32_t> v(n);
  Raw(v.data(), n * sizeof(int32_t));
  return v;
}

std::vector<int> BinaryReader::VecInt() {
  uint64_t n = U64();
  if (failed_ || n > (uint64_t{1} << 40) / sizeof(int32_t) || !HasBytes(n * sizeof(int32_t))) {
    failed_ = true;
    return {};
  }
  std::vector<int> v(n);
  for (uint64_t i = 0; i < n && !failed_; ++i) v[i] = I32();
  return v;
}

std::vector<double> BinaryReader::VecF64() {
  uint64_t n = U64();
  if (failed_ || n > (uint64_t{1} << 40) / sizeof(double) || !HasBytes(n * sizeof(double))) {
    failed_ = true;
    return {};
  }
  std::vector<double> v(n);
  Raw(v.data(), n * sizeof(double));
  return v;
}

uint64_t BinaryReader::ReadCount(uint64_t min_elem_bytes) {
  uint64_t n = U64();
  if (failed_) return 0;
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  // Overflow-safe: n * min_elem_bytes must fit and fit the stream.
  if (n > (uint64_t{1} << 40) / min_elem_bytes || !HasBytes(n * min_elem_bytes)) {
    failed_ = true;
    return 0;
  }
  return n;
}

bool BinaryReader::ok() const { return !failed_ && static_cast<bool>(in_); }

Status BinaryReader::Check(const std::string& what) const {
  if (ok()) return Status::OK();
  return Status::ParseError("truncated or corrupt " + what);
}

std::string UnsupportedVersionMessage(const std::string& format,
                                      uint32_t found, uint32_t current) {
  std::string msg = "unsupported " + format + " version ";
  msg += std::to_string(found);
  msg += " (this build reads only version ";
  msg += std::to_string(current);
  msg += ")";
  if (found >= 1 && found < current) {
    msg += "; commit ";
    msg += kLastRetiredFormatReader;
    msg += " is the last that reads version ";
    msg += std::to_string(found);
  }
  return msg;
}

}  // namespace pis
