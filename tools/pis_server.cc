// pis_server: TCP serving front end over the PIS engine.
//
//   pis_server --db db.txt --index index_dir [--port P] [--workers N]
//              [--sigma S] [--compact_dead_ratio R]
//              [--compact_interval_ms M] [--wal_dir DIR]
//              [--checkpoint_interval_ms C] [--save_on_exit]
//              [--shards_owned 0,2,5]
//              [--slow_query_ms T] [--slow_query_log PATH]
//   pis_server --db db.txt --shards 4 [--max_fragment_edges K]
//              [--min_support F] [--gamma G] [--distance mutation|linear] ...
//
// With --index, an index directory (pis_cli build) is served; the db file
// must be the id-aligned database. Without
// it, the index is mined and built in memory at startup (the pis_cli build
// pipeline) — convenient for demos and the CI smoke test.
//
// With --wal_dir, writes are durable: every acknowledged add/remove is in
// the write-ahead log (fsynced) before the reply goes out, and startup
// replays the log over the loaded snapshot — so kill -9 loses nothing that
// was acked. --checkpoint_interval_ms > 0 additionally persists a fresh
// snapshot (and truncates the log) on that cadence from the maintenance
// thread; either way a checkpoint runs on clean shutdown. If a previous
// run crashed mid-checkpoint-swap, the `<index>.stale` fallback is
// restored automatically before replay. Requires --index.
//
// The server speaks the newline-delimited JSON protocol documented in
// src/server/pis_server.h on the bound port (loopback only; --port 0 picks
// an ephemeral port). The line "pis_server listening on port <P>" goes to
// stdout once serving, so scripts can wait for readiness and learn the
// port. A {"op":"shutdown"} request — or SIGTERM/SIGINT — stops the server
// gracefully; with --save_on_exit (or --wal_dir) the mutated index and db
// are persisted before exit.
//
// When --compact_dead_ratio > 0 (or the loaded manifest carries a policy),
// the background maintenance thread scans every --compact_interval_ms and
// rewrites shards past the threshold via copy-on-write swaps — queries keep
// answering throughout.
//
// Observability (docs/observability.md): the {"op":"metrics"} request
// renders the process-global registry as Prometheus text; with
// --slow_query_ms > 0, any query slower than that dumps its span tree as
// one JSON line to --slow_query_log (stderr when the path is empty).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "pis.h"
#include "server/pis_server.h"
#include "server/wal.h"
#include "util/flags.h"

using namespace pis;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// The pis_cli build pipeline (shared via mining/pipeline.h so the two
/// binaries cannot drift), producing a sharded index in memory.
Result<ShardedFragmentIndex> BuildIndex(const GraphDatabase& db, int shards,
                                        int max_fragment_edges,
                                        double min_support, double gamma,
                                        const std::string& distance,
                                        int threads) {
  PIS_ASSIGN_OR_RETURN(
      std::vector<Graph> features,
      MineDiscriminativeFeatures(db, max_fragment_edges, min_support, gamma,
                                 threads));
  FragmentIndexOptions options;
  options.max_fragment_edges = max_fragment_edges;
  options.num_threads = threads <= 0 ? HardwareThreads() : threads;
  PIS_ASSIGN_OR_RETURN(options.spec, DistanceSpecFromName(distance));
  return ShardedFragmentIndex::Build(db, features, options, shards);
}

/// "--shards_owned 0,2,5" -> {0, 2, 5}. Empty input means all shards.
Result<std::vector<int>> ParseShardList(const std::string& text) {
  std::vector<int> shards;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    pos = comma + 1;
    char* end = nullptr;
    const long value = std::strtol(token.c_str(), &end, 10);
    if (token.empty() || end == nullptr || *end != '\0' || value < 0 ||
        value > 1 << 20) {
      return Status::InvalidArgument(
          "--shards_owned must be a comma-separated list of shard ids, got "
          "\"" +
          text + "\"");
    }
    shards.push_back(static_cast<int>(value));
  }
  return shards;
}

/// A crash between a checkpoint's two renames can leave the index as
/// `<index>.stale` (the previous generation, still fully covered by the
/// un-truncated WAL). Restore it so LoadDir + replay see a complete state.
Status RestoreStaleIndexIfNeeded(const std::string& index_path) {
  const std::string stale = index_path + ".stale";
  if (std::filesystem::exists(index_path) ||
      !std::filesystem::exists(stale)) {
    return Status::OK();
  }
  std::fprintf(stderr,
               "recovering index from %s (previous run crashed mid-"
               "checkpoint; WAL replay will catch it up)\n",
               stale.c_str());
  std::error_code ec;
  std::filesystem::rename(stale, index_path, ec);
  if (ec) {
    return Status::IOError("cannot restore " + stale + " to " + index_path +
                           ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  std::string wal_dir;
  int port = 4871;
  int workers = 4;
  double sigma = 2.0;
  int shards = 4;
  int max_fragment_edges = 4;
  double min_support = 0.05;
  double gamma = 1.0;
  std::string distance = "mutation";
  int threads = 0;
  double compact_dead_ratio = 0.0;
  int compact_interval_ms = 2000;
  int checkpoint_interval_ms = 0;
  bool save_on_exit = false;
  std::string shards_owned_flag;
  double slow_query_ms = 0;
  std::string slow_query_log_path;

  FlagSet flags;
  flags.AddString("db", &db_path, "database path (native text format)");
  flags.AddString("index", &index_path,
                  "index directory (omit to build at startup)");
  flags.AddString("wal_dir", &wal_dir,
                  "write-ahead log directory: fsync every acked write and "
                  "replay it on startup (requires --index)");
  flags.AddInt("port", &port, "TCP port (0 = ephemeral)");
  flags.AddInt("workers", &workers, "concurrent connections served");
  flags.AddDouble("sigma", &sigma, "default max superimposed distance");
  flags.AddInt("shards", &shards, "shard count when building at startup");
  flags.AddInt("max_fragment_edges", &max_fragment_edges,
               "max indexed fragment size when building at startup");
  flags.AddDouble("min_support", &min_support,
                  "relative feature min support when building at startup");
  flags.AddDouble("gamma", &gamma,
                  "gIndex discriminative ratio when building at startup");
  flags.AddString("distance", &distance, "mutation | linear");
  flags.AddInt("threads", &threads,
               "mining and index build threads (0 = all hardware)");
  flags.AddDouble("compact_dead_ratio", &compact_dead_ratio,
                  "background compaction threshold (0 = use the manifest's "
                  "persisted policy, if any)");
  flags.AddInt("compact_interval_ms", &compact_interval_ms,
               "background compaction scan interval");
  flags.AddInt("checkpoint_interval_ms", &checkpoint_interval_ms,
               "periodic snapshot-save + WAL-truncate cadence (0 = only on "
               "shutdown; requires --wal_dir)");
  flags.AddBool("save_on_exit", &save_on_exit,
                "save the mutated index (and db file) back on shutdown "
                "(requires --index; implied by --wal_dir)");
  flags.AddString("shards_owned", &shards_owned_flag,
                  "comma-separated shard ids this replica serves for the "
                  "cluster-fabric ops (empty = all; see pis_router)");
  flags.AddDouble("slow_query_ms", &slow_query_ms,
                  "log any query slower than this many milliseconds as a "
                  "single-line JSON span tree (0 = disabled)");
  flags.AddString("slow_query_log", &slow_query_log_path,
                  "slow-query log file (appended; empty = stderr)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (db_path.empty()) {
    return Fail(Status::InvalidArgument("--db is required"));
  }
  if (save_on_exit && index_path.empty()) {
    return Fail(Status::InvalidArgument("--save_on_exit requires --index"));
  }
  if (!wal_dir.empty() && index_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--wal_dir requires --index (checkpoints need a directory to land "
        "in; an index built at startup has none)"));
  }
  if (checkpoint_interval_ms > 0 && wal_dir.empty()) {
    return Fail(Status::InvalidArgument(
        "--checkpoint_interval_ms requires --wal_dir"));
  }

  // Before any thread exists (the index build may start some).
  BlockShutdownSignals();

  auto db = ReadGraphDatabaseFile(db_path);
  if (!db.ok()) return Fail(db.status());

  Result<ShardedFragmentIndex> index = Status::Internal("index not loaded");
  if (!index_path.empty()) {
    Status restored = RestoreStaleIndexIfNeeded(index_path);
    if (!restored.ok()) return Fail(restored);
    index = ShardedFragmentIndex::LoadDir(index_path);
  } else {
    index = BuildIndex(db.value(), shards, max_fragment_edges, min_support,
                       gamma, distance, threads);
  }
  if (!index.ok()) return Fail(index.status());

  std::unique_ptr<WriteAheadLog> wal;
  if (!wal_dir.empty()) {
    Result<WriteAheadLog> opened = WriteAheadLog::Open(wal_dir);
    if (!opened.ok()) return Fail(opened.status());
    wal = std::make_unique<WriteAheadLog>(opened.MoveValue());
    if (!wal->recovered().empty()) {
      Status replayed = wal->Replay(&db.value(), &index.value());
      if (!replayed.ok()) return Fail(replayed);
      std::fprintf(stderr, "replayed %zu WAL record(s) over the snapshot\n",
                   wal->recovered().size());
    }
  }
  if (index.value().db_size() != db.value().size()) {
    return Fail(Status::InvalidArgument(
        "index covers " + std::to_string(index.value().db_size()) +
        " graphs but --db holds " + std::to_string(db.value().size())));
  }

  PisOptions options;
  options.sigma = sigma;
  options.compact_dead_ratio = compact_dead_ratio;
  EngineHost host(std::move(db.value()), index.MoveValue(), options);
  // The process-global registry: the host's engine/WAL metrics and the
  // server's per-op request metrics land in one exposition.
  host.EnableMetrics(&MetricsRegistry::Global());
  if (wal != nullptr) {
    Status attached = host.AttachWal(std::move(wal));
    if (!attached.ok()) return Fail(attached);
    EngineHost::CheckpointConfig ckpt;
    ckpt.index_dir = index_path;
    ckpt.db_path = db_path;
    ckpt.interval = std::chrono::milliseconds(checkpoint_interval_ms);
    Status enabled = host.EnableCheckpoints(ckpt);
    if (!enabled.ok()) return Fail(enabled);
  }
  const bool periodic_checkpoints =
      wal != nullptr && checkpoint_interval_ms > 0;
  if (host.compact_dead_ratio() > 0 || periodic_checkpoints) {
    Status started = host.StartAutoCompaction(
        std::chrono::milliseconds(compact_interval_ms));
    if (!started.ok()) return Fail(started);
    if (host.compact_dead_ratio() > 0) {
      std::fprintf(stderr,
                   "background compaction: dead ratio %.2f every %d ms\n",
                   host.compact_dead_ratio(), compact_interval_ms);
    }
    if (periodic_checkpoints) {
      std::fprintf(stderr, "periodic checkpoints every %d ms\n",
                   checkpoint_interval_ms);
    }
  }

  SlowQueryLog slow_log(slow_query_log_path, slow_query_ms);

  PisServerOptions server_options;
  server_options.port = port;
  server_options.num_workers = workers;
  server_options.metrics = &MetricsRegistry::Global();
  server_options.slow_query_log = &slow_log;
  if (!shards_owned_flag.empty()) {
    Result<std::vector<int>> owned = ParseShardList(shards_owned_flag);
    if (!owned.ok()) return Fail(owned.status());
    for (int s : owned.value()) {
      if (s >= host.Stats().num_shards) {
        return Fail(Status::InvalidArgument(
            "--shards_owned names shard " + std::to_string(s) +
            " but the index has " + std::to_string(host.Stats().num_shards) +
            " shards"));
      }
    }
    server_options.shards_owned = owned.MoveValue();
  }
  PisServer server(&host, server_options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  EngineHost::HostStats stats = host.Stats();
  std::printf("pis_server listening on port %d\n", server.port());
  std::printf("serving %d live graphs over %d shards (sigma %.2f, %d workers)%s\n",
              stats.live, stats.num_shards, sigma, workers,
              host.wal_attached() ? ", durable writes on" : "");
  std::fflush(stdout);

  WaitForShutdown(&server);
  host.StopAutoCompaction();
  std::printf("served %llu requests over %llu connections\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(server.connections_served()));
  if (host.wal_attached()) {
    Status saved = host.Checkpoint();
    if (!saved.ok()) return Fail(saved);
    std::printf("checkpointed index to %s and db to %s\n", index_path.c_str(),
                db_path.c_str());
  } else if (save_on_exit) {
    Status saved = host.Save(index_path, db_path);
    if (!saved.ok()) return Fail(saved);
    std::printf("saved index to %s and db to %s\n", index_path.c_str(),
                db_path.c_str());
  }
  std::printf("pis_server shut down cleanly\n");
  return 0;
}
