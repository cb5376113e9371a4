// Write-ahead log for the serving layer's durable write path.
//
// EngineHost's writes are applied in memory and published as snapshots;
// without a log, everything since the last explicit Save dies with the
// process — an acknowledged add could vanish, which is a data-loss bug for
// a server. The WAL closes that window: every committed batch of mutations
// is appended here and fsync(2)ed BEFORE the callers are acknowledged, so
// "the server said ok" implies "a restart replays it".
//
// On-disk format (`wal.log` inside the log directory, little-endian):
//
//   header : u32 magic 'PWAL'  u32 version 2
//   record : u32 payload_size  u64 fnv1a64(payload)  payload bytes
//   payload: u8 op (1=add 2=remove)  u64 epoch  i32 gid  i32 shard
//            str graph_text
//
// `graph_text` is the graph's native text encoding (graph/io.h, exact
// double round-trip) for adds and empty for removes; `epoch` is the host
// epoch the batch published, which is what checkpoint truncation keys on.
// `shard` records which shard the add landed in: replay places the graph
// in exactly that shard (AddGraphAt), which is what lets a replica that
// owns a shard subset — whose log legitimately skips foreign gids —
// recover. An add without one (shard < 0) is corruption. Removes carry
// shard -1 (the routing table knows). Open reads only version 2: any other
// version is InvalidArgument, and the log is left as it is on disk.
//
// Recovery semantics, chosen so every crash point is survivable:
//   - A torn tail (the file ends before a record's declared payload
//     completes — the footprint of a crash mid-append) is silently
//     truncated: everything before it was durable and is recovered.
//   - A corrupt record (all bytes present but the checksum disagrees, or a
//     nonsensical size) is InvalidArgument — never a crash, and never a
//     silent skip that would resurrect a stale suffix.
//   - Replay is idempotent over the snapshot it lands on: an add whose gid
//     the snapshot already holds is skipped (the footprint of a crash
//     between checkpoint-save and log-truncate), as is a remove of an
//     already-dead gid. The db and index are reconciled independently, so
//     a crash between the checkpoint's two file swaps also recovers.
#ifndef PIS_SERVER_WAL_H_
#define PIS_SERVER_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "index/sharded_index.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace pis {

/// One logged mutation.
struct WalRecord {
  enum class Op : uint8_t { kAdd = 1, kRemove = 2 };

  Op op = Op::kAdd;
  /// Host epoch the containing batch published (monotone across restarts —
  /// the host seeds its epoch from max_recovered_epoch()).
  uint64_t epoch = 0;
  /// Global graph id the op assigned (add) or tombstoned (remove).
  int32_t gid = -1;
  /// Shard the add was placed in: replay uses AddGraphAt, filling any
  /// foreign-gid gap below `gid` with absent slots. Every add carries one
  /// (Append and Open refuse an add with shard < 0); removes carry -1.
  int32_t shard = -1;
  /// Native text encoding of the added graph; empty for removes.
  std::string graph_text;
};

/// \brief Append-only, checksummed, fsync-on-commit mutation log.
///
/// Concurrency contract (audited for the thread-annotation pass): the log
/// is not internally synchronized — EngineHost owns it as a field guarded
/// by its writer mutex (`wal_ PIS_GUARDED_BY(writer_mu_)`), which is what
/// makes the discipline compiler-checked even though this class carries no
/// lock of its own. Exactly two members are readable off the writer lock:
/// bytes() and records(), both std::atomic, published to stats threads
/// through EngineHost's wal_view_ pointer. Everything else (fd_, path_,
/// recovered_, max_recovered_epoch_) is either const-after-Open or touched
/// only under the external lock; the object must not be moved once any
/// other thread can see it.
class WriteAheadLog {
 public:
  /// Opens (creating the directory and an empty log as needed) and
  /// validates `dir`/wal.log. A torn tail is physically truncated away; a
  /// corrupt record, a shard-less add, a bad magic or any version but 2 is
  /// InvalidArgument. The valid records are retained for
  /// recovered()/Replay().
  static Result<WriteAheadLog> Open(const std::string& dir);

  WriteAheadLog(WriteAheadLog&& other) noexcept;
  WriteAheadLog& operator=(WriteAheadLog&& other) noexcept;
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;
  ~WriteAheadLog();

  /// The records recovered from disk at Open, in append order.
  const std::vector<WalRecord>& recovered() const { return recovered_; }
  /// Largest epoch among recovered records (0 when the log was empty).
  uint64_t max_recovered_epoch() const { return max_recovered_epoch_; }

  /// Applies recovered() over a loaded snapshot pair, idempotently (see
  /// file comment): already-applied adds/removes are skipped; a record that
  /// cannot be reconciled (a remove of a gid the index never held, an add
  /// to a shard it does not have, a parse failure) is InvalidArgument. Adds
  /// tolerate gid gaps — the missing ids are materialized as absent slots
  /// (empty placeholder graphs in `db`), which is how a shard-subset
  /// replica recovers. Leaves `db` and `index` id-aligned on success.
  Status Replay(GraphDatabase* db, ShardedFragmentIndex* index) const;

  /// Appends `batch` and fsyncs once — the group-commit durability point.
  /// On any error nothing may be considered durable (the caller must not
  /// ack the batch). An add without a shard stamp is InvalidArgument and
  /// nothing is written.
  Status Append(std::span<const WalRecord> batch);

  /// Hands the WAL's metric families (append latency histogram, appended
  /// records/fsyncs/truncations counters, log-size gauge) to `registry`
  /// (MetricsRegistry::Adopt). Until then the log records into a registry
  /// it owns. EngineHost::AttachWal calls this with the host's registry.
  void EnableMetrics(MetricsRegistry* registry) {
    registry->Adopt(own_metrics_.get());
  }

  /// Drops every record with epoch <= `through_epoch` (they are covered by
  /// a snapshot saved at that epoch) by atomically rewriting the log.
  /// Callers must exclude concurrent Append.
  Status TruncateThrough(uint64_t through_epoch);

  /// Current log file bytes / record count (safe to read concurrently).
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t records() const {
    return records_.load(std::memory_order_relaxed);
  }

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog();

  Status OpenForAppend();
  void CloseFd();

  std::string path_;
  int fd_ = -1;
  std::vector<WalRecord> recovered_;
  uint64_t max_recovered_epoch_ = 0;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> records_{0};

  /// Metric instruments, registered at construction into own_metrics_.
  /// Both move with the object: the instruments live on the heap.
  struct Metrics {
    Histogram* append_seconds;
    Counter* appended_records;
    Counter* fsyncs;
    Counter* truncations;
    Gauge* log_bytes;
  };
  std::unique_ptr<MetricsRegistry> own_metrics_;
  Metrics metrics_;
};

}  // namespace pis

#endif  // PIS_SERVER_WAL_H_
