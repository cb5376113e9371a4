#include "server/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "graph/io.h"
#include "util/fs_util.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"

namespace pis {

namespace {

constexpr uint32_t kWalMagic = 0x4C415750;  // 'PWAL' little-endian
constexpr uint32_t kWalVersion = 2;
constexpr size_t kHeaderBytes = 8;
constexpr size_t kFrameBytes = 12;  // u32 payload size + u64 checksum
/// Any single record larger than this is corruption, not data: a logged
/// graph is one text encoding, and checkpointing keeps the log short.
constexpr uint32_t kMaxPayloadBytes = 1u << 30;

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::string EncodePayload(const WalRecord& rec) {
  BinaryWriter w;
  w.U8(static_cast<uint8_t>(rec.op));
  w.U64(rec.epoch);
  w.I32(rec.gid);
  w.I32(rec.shard);
  w.Str(rec.graph_text);
  return w.buffer();
}

Result<WalRecord> DecodePayload(const std::string& payload, size_t index) {
  BinaryReader r(payload);
  WalRecord rec;
  const uint8_t op = r.U8();
  rec.epoch = r.U64();
  rec.gid = r.I32();
  rec.shard = r.I32();
  rec.graph_text = r.Str();
  PIS_RETURN_NOT_OK(r.Check("WAL record " + std::to_string(index)));
  if (op != static_cast<uint8_t>(WalRecord::Op::kAdd) &&
      op != static_cast<uint8_t>(WalRecord::Op::kRemove)) {
    return Status::InvalidArgument("WAL record " + std::to_string(index) +
                                   " has unknown op " + std::to_string(op));
  }
  rec.op = static_cast<WalRecord::Op>(op);
  if (rec.op == WalRecord::Op::kAdd && rec.shard < 0) {
    return Status::InvalidArgument("WAL record " + std::to_string(index) +
                                   " adds gid " + std::to_string(rec.gid) +
                                   " without a shard stamp");
  }
  return rec;
}

/// Parses the framed record stream after the header. On success fills
/// `records` and sets `*valid_end` to the offset just past the last intact
/// record — less than `data.size()` exactly when a torn tail follows.
Status ParseRecords(const std::string& data, std::vector<WalRecord>* records,
                    size_t* valid_end) {
  size_t off = kHeaderBytes;
  *valid_end = off;
  while (off < data.size()) {
    if (data.size() - off < kFrameBytes) break;  // torn frame
    const uint32_t payload_size = GetU32(data.data() + off);
    const uint64_t checksum = GetU64(data.data() + off + 4);
    if (payload_size > kMaxPayloadBytes) {
      return Status::InvalidArgument(
          "corrupt WAL: record at offset " + std::to_string(off) +
          " declares implausible payload of " + std::to_string(payload_size) +
          " bytes");
    }
    if (data.size() - off - kFrameBytes < payload_size) break;  // torn payload
    const char* payload = data.data() + off + kFrameBytes;
    if (Fnv1a64(payload, payload_size) != checksum) {
      return Status::InvalidArgument(
          "corrupt WAL: checksum mismatch in record at offset " +
          std::to_string(off));
    }
    PIS_ASSIGN_OR_RETURN(WalRecord rec,
                         DecodePayload(std::string(payload, payload_size),
                                       records->size()));
    records->push_back(std::move(rec));
    off += kFrameBytes + payload_size;
    *valid_end = off;
  }
  return Status::OK();
}

/// Atomically replaces the log at `path` with a freshly encoded
/// current-version file holding exactly `records`. Returns the new size.
Result<uint64_t> ReplaceLog(const std::string& path,
                            std::span<const WalRecord> records) {
  std::string out;
  PutU32(&out, kWalMagic);
  PutU32(&out, kWalVersion);
  for (const WalRecord& rec : records) {
    const std::string payload = EncodePayload(rec);
    PutU32(&out, static_cast<uint32_t>(payload.size()));
    PutU64(&out, Fnv1a64(payload.data(), payload.size()));
    out.append(payload);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.close();
    if (!f) return Status::IOError("cannot write " + tmp);
  }
  PIS_RETURN_NOT_OK(SyncFile(tmp));
  const std::string dir = std::filesystem::path(path).parent_path().string();
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot swap rewritten WAL into place: " +
                           ec.message());
  }
  PIS_RETURN_NOT_OK(SyncDir(dir));
  return static_cast<uint64_t>(out.size());
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("cannot read " + path);
  *out = buf.str();
  return Status::OK();
}

}  // namespace

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create WAL directory " + dir + ": " +
                           ec.message());
  }
  WriteAheadLog wal;
  wal.path_ = (std::filesystem::path(dir) / "wal.log").string();

  std::string data;
  if (std::filesystem::exists(wal.path_)) {
    PIS_RETURN_NOT_OK(ReadWholeFile(wal.path_, &data));
  }
  size_t valid_end = 0;
  if (data.size() < kHeaderBytes) {
    // Empty or torn mid-header (a crash during creation): start fresh.
    std::string header;
    PutU32(&header, kWalMagic);
    PutU32(&header, kWalVersion);
    std::ofstream out(wal.path_, std::ios::binary | std::ios::trunc);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.close();
    if (!out) return Status::IOError("cannot initialize WAL " + wal.path_);
    PIS_RETURN_NOT_OK(SyncFile(wal.path_));
    PIS_RETURN_NOT_OK(SyncDir(dir));
    valid_end = kHeaderBytes;
  } else {
    if (GetU32(data.data()) != kWalMagic) {
      return Status::InvalidArgument(wal.path_ + " is not a PIS WAL");
    }
    const uint32_t version = GetU32(data.data() + 4);
    if (version != kWalVersion) {
      return Status::InvalidArgument(
          UnsupportedVersionMessage("WAL", version, kWalVersion) + " in " +
          wal.path_);
    }
    PIS_RETURN_NOT_OK(ParseRecords(data, &wal.recovered_, &valid_end));
    if (valid_end < data.size()) {
      PIS_LOG(Warning) << "WAL " << wal.path_ << ": truncating torn tail ("
                       << (data.size() - valid_end) << " bytes after record "
                       << wal.recovered_.size() << ")";
      if (::truncate(wal.path_.c_str(),
                     static_cast<off_t>(valid_end)) != 0) {
        return Status::IOError("cannot truncate torn WAL tail in " +
                               wal.path_ + ": " + std::strerror(errno));
      }
      PIS_RETURN_NOT_OK(SyncFile(wal.path_));
    }
  }

  for (const WalRecord& rec : wal.recovered_) {
    if (rec.epoch > wal.max_recovered_epoch_) {
      wal.max_recovered_epoch_ = rec.epoch;
    }
  }
  wal.bytes_.store(valid_end, std::memory_order_relaxed);
  wal.records_.store(wal.recovered_.size(), std::memory_order_relaxed);
  wal.metrics_.log_bytes->Set(static_cast<int64_t>(valid_end));
  PIS_RETURN_NOT_OK(wal.OpenForAppend());
  return wal;
}

Status WriteAheadLog::OpenForAppend() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    return Status::IOError("cannot open WAL " + path_ +
                           " for append: " + std::strerror(errno));
  }
  return Status::OK();
}

void WriteAheadLog::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

WriteAheadLog::WriteAheadLog()
    : own_metrics_(std::make_unique<MetricsRegistry>()),
      metrics_{
          .append_seconds = own_metrics_->GetHistogram(
              "pis_wal_append_seconds", "WAL batch append + fsync latency"),
          .appended_records = own_metrics_->GetCounter(
              "pis_wal_appended_records_total", "Records appended to the WAL"),
          .fsyncs = own_metrics_->GetCounter("pis_wal_fsyncs_total",
                                             "WAL fsync calls"),
          .truncations = own_metrics_->GetCounter(
              "pis_wal_truncations_total", "Checkpoint truncations of the WAL"),
          .log_bytes = own_metrics_->GetGauge(
              "pis_wal_bytes", "Current WAL file size in bytes"),
      } {}

WriteAheadLog::WriteAheadLog(WriteAheadLog&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      recovered_(std::move(other.recovered_)),
      max_recovered_epoch_(other.max_recovered_epoch_),
      bytes_(other.bytes_.load(std::memory_order_relaxed)),
      records_(other.records_.load(std::memory_order_relaxed)),
      own_metrics_(std::move(other.own_metrics_)),
      metrics_(other.metrics_) {
  other.fd_ = -1;
}

WriteAheadLog& WriteAheadLog::operator=(WriteAheadLog&& other) noexcept {
  if (this != &other) {
    CloseFd();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    other.fd_ = -1;
    recovered_ = std::move(other.recovered_);
    max_recovered_epoch_ = other.max_recovered_epoch_;
    bytes_.store(other.bytes_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    records_.store(other.records_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    own_metrics_ = std::move(other.own_metrics_);
    metrics_ = other.metrics_;
  }
  return *this;
}

WriteAheadLog::~WriteAheadLog() { CloseFd(); }

Status WriteAheadLog::Replay(GraphDatabase* db,
                             ShardedFragmentIndex* index) const {
  for (size_t i = 0; i < recovered_.size(); ++i) {
    const WalRecord& rec = recovered_[i];
    const std::string where = "WAL record " + std::to_string(i);
    if (rec.gid < 0) {
      return Status::InvalidArgument(where + " carries negative gid " +
                                     std::to_string(rec.gid));
    }
    if (rec.op == WalRecord::Op::kAdd) {
      if (rec.shard >= index->num_shards()) {
        return Status::InvalidArgument(
            where + " places gid " + std::to_string(rec.gid) + " in shard " +
            std::to_string(rec.shard) + " but the index has only " +
            std::to_string(index->num_shards()) + " shards");
      }
      // The db and the index may independently already hold this add (a
      // crash between the checkpoint's two file swaps); reconcile each.
      const bool db_needs = rec.gid >= db->size();
      const bool index_needs = rec.gid >= index->db_size();
      if (!db_needs && !index_needs) continue;
      Result<Graph> g = ParseGraph(rec.graph_text);
      if (!g.ok()) {
        return Status::InvalidArgument(where + " holds an unparseable graph: " +
                                       g.status().message());
      }
      if (db_needs) {
        // The log legitimately skips foreign gids: align the database with
        // empty placeholder graphs for the absent slots (AddGraphAt
        // tombstones the same ids in the index).
        while (db->size() < rec.gid) db->Add(Graph());
        db->Add(g.value());
      }
      if (index_needs) {
        PIS_RETURN_NOT_OK(index->AddGraphAt(rec.gid, rec.shard, g.value()));
      }
    } else {
      if (rec.gid >= index->db_size()) {
        return Status::InvalidArgument(
            where + " removes gid " + std::to_string(rec.gid) +
            " which the index (size " + std::to_string(index->db_size()) +
            ") never held — the log does not continue this snapshot");
      }
      if (!index->IsLive(rec.gid)) continue;  // already applied
      PIS_RETURN_NOT_OK(index->RemoveGraph(rec.gid));
    }
  }
  if (db->size() != index->db_size()) {
    return Status::InvalidArgument(
        "WAL replay left the database (" + std::to_string(db->size()) +
        " graphs) and index (" + std::to_string(index->db_size()) +
        ") misaligned — snapshot pair and log do not belong together");
  }
  return Status::OK();
}

Status WriteAheadLog::Append(std::span<const WalRecord> batch) {
  if (fd_ < 0) return Status::Internal("WAL is not open for append");
  if (batch.empty()) return Status::OK();
  Timer append_timer;
  std::string buf;
  for (const WalRecord& rec : batch) {
    // Open refuses such a record, so logging it would strand every later
    // acknowledged write behind it.
    if (rec.op == WalRecord::Op::kAdd && rec.shard < 0) {
      return Status::InvalidArgument("WAL append of an add of gid " +
                                     std::to_string(rec.gid) +
                                     " without a shard stamp");
    }
    const std::string payload = EncodePayload(rec);
    PutU32(&buf, static_cast<uint32_t>(payload.size()));
    PutU64(&buf, Fnv1a64(payload.data(), payload.size()));
    buf.append(payload);
  }
  const uint64_t old_bytes = bytes_.load(std::memory_order_relaxed);
  size_t written = 0;
  while (written < buf.size()) {
    const ssize_t n =
        ::write(fd_, buf.data() + written, buf.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      // Drop any partial frame so the on-disk log stays clean even though
      // this batch is being reported lost. If even the trim fails, POISON
      // the log (close the fd so every later Append refuses): appending
      // more records after a torn frame would leave acknowledged writes
      // behind garbage that recovery rejects wholesale — an acked-but-
      // unreplayable write, the exact contract this log exists to keep.
      if (::ftruncate(fd_, static_cast<off_t>(old_bytes)) != 0) {
        PIS_LOG(Error) << "WAL " << path_
                       << ": cannot trim failed append (" << std::strerror(errno)
                       << "); closing the log — no further writes will be "
                          "acknowledged";
        CloseFd();
      }
      return Status::IOError("WAL append to " + path_ + " failed: " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError("WAL fsync of " + path_ +
                           " failed: " + std::strerror(errno));
  }
  bytes_.store(old_bytes + buf.size(), std::memory_order_relaxed);
  records_.fetch_add(batch.size(), std::memory_order_relaxed);
  metrics_.append_seconds->Observe(append_timer.Seconds());
  metrics_.appended_records->Inc(batch.size());
  metrics_.fsyncs->Inc();
  metrics_.log_bytes->Set(static_cast<int64_t>(old_bytes + buf.size()));
  return Status::OK();
}

Status WriteAheadLog::TruncateThrough(uint64_t through_epoch) {
  std::string data;
  PIS_RETURN_NOT_OK(ReadWholeFile(path_, &data));
  if (data.size() < kHeaderBytes) {
    return Status::Internal("WAL " + path_ + " lost its header");
  }
  std::vector<WalRecord> all;
  size_t valid_end = 0;
  PIS_RETURN_NOT_OK(ParseRecords(data, &all, &valid_end));

  std::vector<WalRecord> keep;
  keep.reserve(all.size());
  for (WalRecord& rec : all) {
    if (rec.epoch > through_epoch) keep.push_back(std::move(rec));
  }
  PIS_ASSIGN_OR_RETURN(uint64_t new_size, ReplaceLog(path_, keep));
  // The append fd still points at the replaced (now unlinked) file; reopen
  // on the new one before any further Append.
  CloseFd();
  PIS_RETURN_NOT_OK(OpenForAppend());
  bytes_.store(new_size, std::memory_order_relaxed);
  records_.store(keep.size(), std::memory_order_relaxed);
  metrics_.truncations->Inc();
  metrics_.log_bytes->Set(static_cast<int64_t>(new_size));
  return Status::OK();
}

}  // namespace pis
