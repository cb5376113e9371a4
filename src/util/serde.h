// Little-endian binary serialization helpers for index persistence.
//
// Writers append to an in-memory buffer that the caller writes out in one
// block. Readers parse an in-memory buffer and latch a failure flag — callers check ok()
// at section boundaries instead of after every field. Containers move as
// whole blocks, and a count is checked against the bytes left without
// touching a stream.
#ifndef PIS_UTIL_SERDE_H_
#define PIS_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pis {

/// \brief Sequential binary writer.
class BinaryWriter {
 public:
  /// Accumulates into buffer(); the caller writes it out in one block.
  BinaryWriter() = default;

  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I32(int32_t v) { Raw(&v, 4); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s);
  void VecI32(const std::vector<int32_t>& v);
  void VecInt(const std::vector<int>& v);
  void VecF64(const std::vector<double>& v);

  /// The bytes written so far.
  const std::string& buffer() const { return buffer_; }

 private:
  void Raw(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  std::string buffer_;
};

/// \brief Sequential binary reader over an in-memory buffer, with a latched
/// failure flag.
class BinaryReader {
 public:
  /// Parses `bytes`, which must outlive the reader.
  explicit BinaryReader(std::string_view bytes) : data_(bytes) {}
  explicit BinaryReader(std::string&&) = delete;  // the view would dangle
  /// Reads the rest of `in` into an owned buffer, then parses that.
  explicit BinaryReader(std::istream& in);
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32();
  double F64();
  std::string Str();
  std::vector<int32_t> VecI32();
  std::vector<int> VecInt();
  std::vector<double> VecF64();

  /// Reads a container count and validates it against the bytes left,
  /// assuming at least `min_elem_bytes` per element (latches failure and
  /// returns 0 when implausible). Use before any reserve()/loop.
  uint64_t ReadCount(uint64_t min_elem_bytes);

  /// False once any read failed.
  bool ok() const { return !failed_; }
  /// Convenience: OK status or ParseError mentioning `what`.
  Status Check(const std::string& what) const;

 private:
  bool Raw(void* data, size_t n);
  template <typename T>
  std::vector<T> Vec();

  std::string owned_;  // the stream's bytes, for the istream constructor
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Short hash of the last commit whose loaders read the retired on-disk
/// layouts: index v1-v4 and VP-tree classes, manifest v1-v3, the
/// single-file index and WAL v1.
inline constexpr char kLastRetiredFormatReader[] = "986566c";

/// Refusal message for version `found` of an on-disk `format` ("index",
/// "manifest", "WAL") when this build reads versions `oldest` to `current`.
/// A version older than `oldest` also names kLastRetiredFormatReader.
std::string UnsupportedVersionMessage(const std::string& format,
                                      uint32_t found, uint32_t oldest,
                                      uint32_t current);
/// The same, when this build reads only `current`.
inline std::string UnsupportedVersionMessage(const std::string& format,
                                             uint32_t found, uint32_t current) {
  return UnsupportedVersionMessage(format, found, current, current);
}

}  // namespace pis

#endif  // PIS_UTIL_SERDE_H_
