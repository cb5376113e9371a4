// Little-endian binary serialization helpers for index persistence.
//
// Writers accumulate into a std::ostream; readers consume a std::istream
// and latch a failure flag — callers check ok() at section boundaries
// instead of after every field.
#ifndef PIS_UTIL_SERDE_H_
#define PIS_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/status.h"

namespace pis {

/// \brief Sequential binary writer.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v);
  void F64(double v);
  void Str(const std::string& s);
  void VecI32(const std::vector<int32_t>& v);
  void VecInt(const std::vector<int>& v);
  void VecF64(const std::vector<double>& v);

  /// Stream still healthy?
  bool ok() const;

 private:
  void Raw(const void* data, size_t n);
  std::ostream& out_;
};

/// \brief Sequential binary reader with a latched failure flag.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32();
  double F64();
  std::string Str();
  std::vector<int32_t> VecI32();
  std::vector<int> VecInt();
  std::vector<double> VecF64();

  /// Reads a container count and validates it against the remaining stream
  /// size assuming at least `min_elem_bytes` per element (latches failure
  /// and returns 0 when implausible). Use before any reserve()/loop.
  uint64_t ReadCount(uint64_t min_elem_bytes);

  /// False once any read failed or the stream went bad.
  bool ok() const;
  /// Convenience: OK status or ParseError mentioning `what`.
  Status Check(const std::string& what) const;

 private:
  bool Raw(void* data, size_t n);
  /// True when at least `bytes` more can plausibly be read: corrupt length
  /// prefixes must not trigger huge allocations. Uses the stream size when
  /// seekable, else a fixed cap.
  bool HasBytes(uint64_t bytes);
  /// Fallback length guard for non-seekable streams.
  static constexpr uint64_t kMaxContainer = 1ull << 28;

  std::istream& in_;
  bool failed_ = false;
  /// Total stream bytes if seekable, -1 otherwise (computed lazily).
  int64_t stream_bytes_ = -2;
};

/// Short hash of the last commit whose loaders read the retired on-disk
/// layouts: index v1-v4 and VP-tree classes, manifest v1-v3, the
/// single-file index and WAL v1.
inline constexpr char kLastRetiredFormatReader[] = "986566c";

/// Refusal message for version `found` of an on-disk `format` ("index",
/// "manifest", "WAL") when this build reads only `current`. An older
/// version also names kLastRetiredFormatReader.
std::string UnsupportedVersionMessage(const std::string& format,
                                      uint32_t found, uint32_t current);

}  // namespace pis

#endif  // PIS_UTIL_SERDE_H_
