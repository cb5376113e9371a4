#include "server/engine_host.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "graph/io.h"
#include "util/fs_util.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/timer.h"

namespace pis {

namespace {

/// Parent directory of `path` for SyncDir — "." when the path is a bare
/// relative filename.
std::string ParentDirOf(const std::string& path) {
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  return parent.empty() ? std::string(".") : parent;
}

}  // namespace

JsonValue EngineHost::HostStats::ToJsonValue() const {
  JsonValue obj = JsonValue::Object();
  obj.Set("epoch", static_cast<uint64_t>(epoch));
  obj.Set("db_slots", db_slots);
  obj.Set("live", live);
  obj.Set("removed", removed);
  obj.Set("num_shards", num_shards);
  obj.Set("compaction_epoch", compaction_epoch);
  obj.Set("compact_dead_ratio", compact_dead_ratio);
  obj.Set("background_compactions",
          static_cast<uint64_t>(background_compactions));
  obj.Set("wal_bytes", static_cast<uint64_t>(wal_bytes));
  obj.Set("wal_records", static_cast<uint64_t>(wal_records));
  obj.Set("checkpoints", static_cast<uint64_t>(checkpoints));
  obj.Set("group_commit_batches", static_cast<uint64_t>(group_commit_batches));
  obj.Set("group_commit_ops", static_cast<uint64_t>(group_commit_ops));
  obj.Set("group_commit_batch_size",
          static_cast<uint64_t>(group_commit_max_batch));
  JsonValue shard_list = JsonValue::Array();
  for (const ShardInfo& s : shards) {
    JsonValue entry = JsonValue::Object();
    entry.Set("resident", s.resident);
    entry.Set("live", s.live);
    entry.Set("dead", s.dead);
    entry.Set("dead_ratio", s.dead_ratio);
    shard_list.Push(std::move(entry));
  }
  obj.Set("shards", std::move(shard_list));
  return obj;
}

EngineHost::Metrics EngineHost::RegisterMetrics(MetricsRegistry* registry) {
  const std::string stage_help = "Per-stage query pipeline latency";
  auto stage = [&](const char* name) {
    return registry->GetHistogram("pis_query_stage_seconds", stage_help, {},
                                  {{"stage", name}});
  };
  return Metrics{
      .queries_total = registry->GetCounter("pis_queries_total",
                                            "Queries served by this host"),
      .answers_total = registry->GetCounter("pis_query_answers_total",
                                            "Verified answers returned"),
      .candidates_total = registry->GetCounter(
          "pis_query_candidates_total", "Candidates surviving the PIS filter"),
      .partition_candidates_total = registry->GetCounter(
          "pis_query_partition_candidates_total",
          "Candidates the partition bound kept, before certification (Yp)"),
      .stage_pass1 = stage("pass1"),
      .stage_selectivity = stage("selectivity"),
      .stage_partition = stage("partition"),
      .stage_pass2 = stage("pass2"),
      .stage_filter = stage("filter"),
      .stage_verify = stage("verify"),
      .group_commit_wait = registry->GetHistogram(
          "pis_group_commit_wait_seconds",
          "Writer-observed enqueue-to-commit latency"),
      .group_commit_ops = registry->GetHistogram(
          "pis_group_commit_batch_ops",
          "Writer ops coalesced per commit batch",
          {1, 2, 4, 8, 16, 32, 64, 128}),
      .group_commit_max_batch = registry->GetGauge(
          "pis_group_commit_max_batch_ops",
          "Largest writer-op batch one commit carried"),
      .write_apply = registry->GetHistogram(
          "pis_write_apply_seconds",
          "Commit-batch apply latency under the writer lock, before the WAL "
          "append: index mutation, shard detach and database append"),
      .snapshot_publish = registry->GetHistogram(
          "pis_snapshot_publish_seconds",
          "Snapshot publish latency per commit"),
      .snapshot_epoch = registry->GetGauge(
          "pis_snapshot_epoch", "Epoch of the currently published snapshot"),
      .checkpoints = registry->GetCounter(
          "pis_checkpoints_total", "Completed checkpoints (WAL truncated)"),
      .background_compactions = registry->GetCounter(
          "pis_background_compactions_total",
          "Background maintenance passes that compacted at least one shard"),
  };
}

EngineHost::EngineHost(GraphDatabase db, ShardedFragmentIndex index,
                       const PisOptions& options)
    : options_(options),
      metrics_(RegisterMetrics(&own_metrics_)),
      master_db_(std::make_shared<const GraphDatabase>(std::move(db))),
      master_(std::move(index)) {
  // No other thread can see this host yet; the lock still scopes the whole
  // body so the guarded-member accesses below are provably disciplined.
  MutexLock lock(&writer_mu_);
  PIS_CHECK(master_.db_size() == master_db_->size())
      << "sharded index was built over a different database";
  compact_dead_ratio_ = options_.compact_dead_ratio > 0
                            ? options_.compact_dead_ratio
                            : master_.compact_dead_ratio();
  // The dead-ratio policy belongs to the background compactor here; inline
  // compaction inside RemoveGraph would re-serialize it into the write
  // path. (Save() restores the ratio so the manifest keeps the policy.)
  master_.set_compact_dead_ratio(0);
  Publish();
}

EngineHost::~EngineHost() { StopAutoCompaction(); }

void EngineHost::EnableMetrics(MetricsRegistry* registry) {
  MutexLock lock(&writer_mu_);
  registry->Adopt(&own_metrics_);
  metrics_registry_ = registry;
}

void EngineHost::AccountQuery(const QueryStats& stats) const {
  metrics_.queries_total->Inc();
  metrics_.answers_total->Inc(stats.answers);
  metrics_.candidates_total->Inc(stats.candidates_final);
  metrics_.partition_candidates_total->Inc(stats.candidates_after_partition);
  metrics_.stage_pass1->Observe(stats.pass1_seconds);
  metrics_.stage_selectivity->Observe(stats.selectivity_seconds);
  metrics_.stage_partition->Observe(stats.partition_seconds);
  metrics_.stage_pass2->Observe(stats.pass2_seconds);
  metrics_.stage_filter->Observe(stats.filter_seconds);
  metrics_.stage_verify->Observe(stats.verify_seconds);
}

Status EngineHost::AttachWal(std::unique_ptr<WriteAheadLog> wal) {
  if (wal == nullptr) {
    return Status::InvalidArgument("cannot attach a null WAL");
  }
  MutexLock lock(&writer_mu_);
  if (wal_ != nullptr) {
    return Status::AlreadyExists("a WAL is already attached");
  }
  wal_ = std::move(wal);
  wal_->EnableMetrics(metrics_registry_);
  wal_view_.store(wal_.get(), std::memory_order_release);
  // Epochs in the log must keep growing across restarts, or a later
  // checkpoint's TruncateThrough would drop records it does not cover.
  if (wal_->max_recovered_epoch() > epoch_) {
    epoch_ = wal_->max_recovered_epoch();
    Publish();
  }
  return Status::OK();
}

bool EngineHost::wal_attached() const {
  return wal_view_.load(std::memory_order_acquire) != nullptr;
}

Status EngineHost::EnableCheckpoints(CheckpointConfig config) {
  if (config.index_dir.empty() || config.db_path.empty()) {
    return Status::InvalidArgument(
        "checkpointing needs an index directory and a database path");
  }
  if (!wal_attached()) {
    return Status::InvalidArgument(
        "checkpointing requires an attached WAL — without one there is "
        "nothing to truncate and Save() already covers plain persistence");
  }
  {
    MutexLock lifecycle(&compactor_lifecycle_mu_);
    if (compactor_.joinable()) {
      return Status::AlreadyExists(
          "configure checkpoints before starting the maintenance thread");
    }
  }
  MutexLock lock(&checkpoint_mu_);
  checkpoint_ = std::move(config);
  checkpoints_enabled_ = true;
  return Status::OK();
}

Status EngineHost::Checkpoint() {
  // Serializes whole checkpoints against each other (manual vs periodic)
  // but never against writers: everything below works off one pinned
  // immutable snapshot until the final WAL truncate.
  MutexLock ckpt_lock(&checkpoint_mu_);
  if (!checkpoints_enabled_) {
    return Status::InvalidArgument(
        "checkpointing is not configured (call EnableCheckpoints)");
  }
  std::shared_ptr<const Snapshot> snap = snapshot();

  // 1. Write both components under temp names, fully fsynced, so the swaps
  // below move only durable bytes.
  const std::string tmp_dir = checkpoint_.index_dir + ".ckpt";
  std::error_code ec;
  std::filesystem::remove_all(tmp_dir, ec);  // leftover of a crashed attempt
  ShardedFragmentIndex to_save = *snap->index;
  to_save.set_compact_dead_ratio(compact_dead_ratio_);
  PIS_RETURN_NOT_OK(to_save.SaveDir(tmp_dir));
  PIS_RETURN_NOT_OK(SyncTree(tmp_dir));
  const std::string tmp_db = checkpoint_.db_path + ".ckpt";
  PIS_RETURN_NOT_OK(WriteGraphDatabaseFile(*snap->db, tmp_db));
  PIS_RETURN_NOT_OK(SyncFile(tmp_db));

  // 2. Swap in the database (rename over a file is atomic)...
  std::filesystem::rename(tmp_db, checkpoint_.db_path, ec);
  if (ec) {
    return Status::IOError("cannot swap checkpointed db into " +
                           checkpoint_.db_path + ": " + ec.message());
  }
  PIS_RETURN_NOT_OK(SyncDir(ParentDirOf(checkpoint_.db_path)));

  // 3. ...then the index, via the `.stale` dance (rename cannot clobber a
  // non-empty directory). A crash inside this window leaves either the old
  // dir, or `.stale` + `.ckpt` — loaders fall back to `.stale`, and WAL
  // replay reconciles whichever generation they got.
  const std::string stale = checkpoint_.index_dir + ".stale";
  std::filesystem::remove_all(stale, ec);
  if (std::filesystem::exists(checkpoint_.index_dir)) {
    std::filesystem::rename(checkpoint_.index_dir, stale, ec);
    if (ec) {
      return Status::IOError("cannot set aside previous index " +
                             checkpoint_.index_dir + ": " + ec.message());
    }
  }
  std::filesystem::rename(tmp_dir, checkpoint_.index_dir, ec);
  if (ec) {
    return Status::IOError("cannot swap checkpointed index into " +
                           checkpoint_.index_dir + ": " + ec.message());
  }
  std::filesystem::remove_all(stale, ec);
  PIS_RETURN_NOT_OK(SyncDir(ParentDirOf(checkpoint_.index_dir)));

  // 4. The pair on disk now covers everything through snap->epoch; records
  // at or below it are dead weight. Writer lock excludes a concurrent
  // batch's Append during the log rewrite.
  {
    MutexLock lock(&writer_mu_);
    if (wal_ != nullptr) {
      PIS_RETURN_NOT_OK(wal_->TruncateThrough(snap->epoch));
    }
  }
  metrics_.checkpoints->Inc();
  return Status::OK();
}

void EngineHost::Publish() {
  // The index copy shares every shard handle with master_; the next
  // mutation of a shard detaches it first (COW), so published snapshots
  // are frozen for their whole lifetime.
  auto frozen = std::make_shared<const ShardedFragmentIndex>(master_);
  auto next = std::make_shared<const Snapshot>(master_db_, std::move(frozen),
                                               options_, epoch_);
  metrics_.snapshot_epoch->Set(static_cast<int64_t>(epoch_));
  MutexLock lock(&snapshot_mu_);
  current_ = std::move(next);
}

std::shared_ptr<const EngineHost::Snapshot> EngineHost::snapshot() const {
  MutexLock lock(&snapshot_mu_);
  return current_;
}

Result<SearchResult> EngineHost::Search(const Graph& query,
                                        std::optional<double> sigma,
                                        uint64_t* epoch_out) const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  const PisEngine* engine = &snap->engine;
  std::optional<PisEngine> per_query;
  if (sigma.has_value()) {
    if (*sigma < 0) return Status::InvalidArgument("sigma must be >= 0");
    PisOptions options = options_;
    options.sigma = *sigma;
    engine = &per_query.emplace(snap->db.get(), snap->index.get(), options);
  }
  Result<SearchResult> result = engine->Search(query);
  if (!result.ok()) return result;
  AccountQuery(result.value().stats);
  if (epoch_out != nullptr) *epoch_out = snap->epoch;
  return result;
}

Status EngineHost::Submit(PendingWrite* op, uint64_t* epoch_out) {
  Timer wait_timer;
  std::vector<PendingWrite*> batch;
  {
    MutexLock lock(&commit_mu_);
    commit_queue_.push_back(op);
    // While a leader is committing, just wait: either it drains us into
    // its batch (done flips true) or it finishes and we take over
    // leadership. Writers arriving here during a commit are exactly how
    // batches form.
    while (!op->done && commit_leader_active_) {
      commit_cv_.Wait(&commit_mu_);
    }
    if (!op->done) {
      commit_leader_active_ = true;
      batch.swap(commit_queue_);
    }
  }
  if (!batch.empty()) {
    CommitBatch(batch);  // takes writer_mu_; commit_mu_ stays free
    {
      MutexLock lock(&commit_mu_);
      // Results were written before re-taking commit_mu_, so waiters that
      // observe done==true under the lock see their gid/epoch/status too.
      for (PendingWrite* b : batch) b->done = true;
      commit_leader_active_ = false;
    }
    commit_cv_.NotifyAll();
  }
  metrics_.group_commit_wait->Observe(wait_timer.Seconds());
  if (op->status.ok() && epoch_out != nullptr) *epoch_out = op->epoch;
  return op->status;
}

void EngineHost::CommitBatch(const std::vector<PendingWrite*>& batch) {
  MutexLock lock(&writer_mu_);
  Timer apply_timer;
  const uint64_t next_epoch = epoch_ + 1;
  // One copy for the whole batch: a pointer per graph, the graphs shared.
  std::shared_ptr<GraphDatabase> appended;
  std::vector<WalRecord> wal_batch;
  std::vector<PendingWrite*> applied;
  for (PendingWrite* op : batch) {
    if (op->kind == PendingWrite::Kind::kAdd) {
      const int db_size =
          appended != nullptr ? appended->size() : master_db_->size();
      if (master_.db_size() != db_size) {
        // A previous divergent write left the pair misaligned; refuse new
        // adds instead of compounding (or crashing on) the damage.
        op->status = Status::Internal(
            "index covers " + std::to_string(master_.db_size()) +
            " graphs but the database holds " + std::to_string(db_size) +
            "; rejecting writes until the pair is rebuilt");
        continue;
      }
      if (op->gid < 0) {  // AddGraph: the next slot, least-loaded shard
        op->gid = db_size;
        op->shard = LeastLoadedShard(master_.live_per_shard());
      } else if (op->gid < db_size) {
        // Already-applied placement (a catch-up replay after a lost ack):
        // succeed iff the slot really carries this placement — resident in
        // the named shard, or added there and since removed/compacted.
        const bool applied_before = master_.shard_of(op->gid) == op->shard ||
                                    !master_.IsLive(op->gid);
        op->status = applied_before
                         ? Status::OK()
                         : Status::AlreadyExists(
                               "gid " + std::to_string(op->gid) +
                               " is resident in shard " +
                               std::to_string(master_.shard_of(op->gid)) +
                               ", not " + std::to_string(op->shard));
        continue;  // no state change, no WAL record, no epoch
      }
      op->status = master_.AddGraphAt(op->gid, op->shard, *op->graph);
      if (!op->status.ok()) continue;
      if (appended == nullptr) {
        appended = std::make_shared<GraphDatabase>(*master_db_);
      }
      // Foreign-gid holes below the placement get empty placeholder graphs
      // (the index tombstoned the same slots).
      while (appended->size() < op->gid) appended->Add(Graph());
      const int db_gid = appended->Add(*op->graph);
      if (db_gid != op->gid) {
        // Divergence here means a broken invariant, but one write must not
        // kill the serving process: tombstone the index slot and fail the
        // op with Internal — the alignment pre-check above quarantines
        // later adds.
        Status rollback = master_.RemoveGraph(op->gid);
        if (!rollback.ok()) {
          PIS_LOG(Error) << "could not roll back divergent add of gid "
                         << op->gid << ": " << rollback.ToString();
        }
        op->status = Status::Internal(
            "index assigned gid " + std::to_string(op->gid) +
            " but the database assigned " + std::to_string(db_gid) +
            "; the add was rolled back");
        continue;
      }
      if (wal_ != nullptr) {
        WalRecord rec;
        rec.op = WalRecord::Op::kAdd;
        rec.epoch = next_epoch;
        rec.gid = op->gid;
        // Stamp the placement so a shard-subset replica's replay can
        // reproduce it without the full gid sequence (wal.h, v2).
        rec.shard = op->shard;
        rec.graph_text = FormatGraph(*op->graph, op->gid);
        wal_batch.push_back(std::move(rec));
      }
      applied.push_back(op);
    } else {
      Status removed = master_.RemoveGraph(op->gid);
      op->status = removed;
      if (!removed.ok()) continue;
      if (wal_ != nullptr) {
        WalRecord rec;
        rec.op = WalRecord::Op::kRemove;
        rec.epoch = next_epoch;
        rec.gid = op->gid;
        wal_batch.push_back(std::move(rec));
      }
      applied.push_back(op);
    }
  }
  metrics_.write_apply->Observe(apply_timer.Seconds());
  if (applied.empty()) return;  // every op failed: no state change, no epoch

  if (wal_ != nullptr && !wal_batch.empty()) {
    Status logged = wal_->Append(wal_batch);
    if (!logged.ok()) {
      // The batch already mutated in-memory state and cannot be unapplied;
      // publish it for internal consistency but acknowledge NOTHING — every
      // caller sees the WAL failure, so the durability contract ("ok means
      // recoverable") holds. The ops' outcome after a restart is
      // indeterminate, exactly like any unacknowledged write.
      PIS_LOG(Error) << "WAL append failed; refusing to acknowledge "
                     << applied.size()
                     << " applied op(s): " << logged.ToString();
      for (PendingWrite* op : applied) op->status = logged;
    }
  }

  if (appended != nullptr) master_db_ = std::move(appended);
  epoch_ = next_epoch;
  Timer publish_timer;
  Publish();
  const double publish_seconds = publish_timer.Seconds();
  for (PendingWrite* op : applied) op->epoch = epoch_;

  metrics_.group_commit_ops->Observe(static_cast<double>(batch.size()));
  // Batches commit one at a time under writer_mu_, so read-then-set is exact.
  if (static_cast<int64_t>(batch.size()) >
      metrics_.group_commit_max_batch->value()) {
    metrics_.group_commit_max_batch->Set(static_cast<int64_t>(batch.size()));
  }
  metrics_.snapshot_publish->Observe(publish_seconds);
}

Result<int> EngineHost::AddGraph(const Graph& g, uint64_t* epoch_out) {
  PendingWrite op{.kind = PendingWrite::Kind::kAdd, .graph = &g};
  PIS_RETURN_NOT_OK(Submit(&op, epoch_out));
  return op.gid;
}

Status EngineHost::AddGraphAt(int gid, int shard, const Graph& g,
                              uint64_t* epoch_out) {
  if (gid < 0) {
    return Status::InvalidArgument("graph id " + std::to_string(gid) +
                                   " is negative");
  }
  PendingWrite op{.kind = PendingWrite::Kind::kAdd,
                  .graph = &g,
                  .gid = gid,
                  .shard = shard};
  return Submit(&op, epoch_out);
}

Status EngineHost::RemoveGraph(int gid, uint64_t* epoch_out) {
  PendingWrite op{.kind = PendingWrite::Kind::kRemove, .gid = gid};
  return Submit(&op, epoch_out);
}

Status EngineHost::CompactShard(int s, uint64_t* epoch_out) {
  MutexLock lock(&writer_mu_);
  PIS_RETURN_NOT_OK(master_.CompactShard(s));
  ++epoch_;
  Publish();
  if (epoch_out != nullptr) *epoch_out = epoch_;
  return Status::OK();
}

Result<int> EngineHost::Compact(double min_dead_ratio, uint64_t* epoch_out) {
  MutexLock lock(&writer_mu_);
  PIS_ASSIGN_OR_RETURN(int compacted, master_.Compact(min_dead_ratio));
  ++epoch_;
  Publish();
  if (epoch_out != nullptr) *epoch_out = epoch_;
  return compacted;
}

Status EngineHost::StartAutoCompaction(std::chrono::milliseconds interval) {
  if (compact_dead_ratio_ > 1) {
    return Status::InvalidArgument("compaction dead ratio must be <= 1");
  }
  bool periodic_checkpoints = false;
  {
    MutexLock lock(&checkpoint_mu_);
    periodic_checkpoints =
        checkpoints_enabled_ && checkpoint_.interval.count() > 0;
  }
  if (compact_dead_ratio_ <= 0 && !periodic_checkpoints) {
    return Status::InvalidArgument(
        "the maintenance thread needs work: a dead ratio in (0, 1] "
        "(PisOptions::compact_dead_ratio or the index's policy) and/or a "
        "periodic checkpoint interval (EnableCheckpoints)");
  }
  if (interval.count() <= 0) {
    return Status::InvalidArgument("auto-compaction interval must be > 0");
  }
  MutexLock lifecycle(&compactor_lifecycle_mu_);
  if (compactor_.joinable()) {
    return Status::AlreadyExists("auto-compaction is already running");
  }
  {
    MutexLock lock(&compactor_mu_);
    compactor_stop_ = false;
  }
  compactor_ = std::thread([this, interval] { MaintenanceLoop(interval); });
  return Status::OK();
}

void EngineHost::StopAutoCompaction() {
  MutexLock lifecycle(&compactor_lifecycle_mu_);
  if (!compactor_.joinable()) return;
  {
    MutexLock lock(&compactor_mu_);
    compactor_stop_ = true;
  }
  compactor_cv_.NotifyAll();
  compactor_.join();
  compactor_ = std::thread();
}

bool EngineHost::auto_compaction_running() const {
  MutexLock lifecycle(&compactor_lifecycle_mu_);
  return compactor_.joinable();
}

void EngineHost::MaintenanceLoop(std::chrono::milliseconds interval) {
  using Clock = std::chrono::steady_clock;
  std::chrono::milliseconds ckpt_interval{0};
  {
    MutexLock lock(&checkpoint_mu_);
    if (checkpoints_enabled_) ckpt_interval = checkpoint_.interval;
  }
  const bool compaction = compact_dead_ratio_ > 0;
  const bool checkpointing = ckpt_interval.count() > 0;
  // First compaction scan runs immediately (the PR 5 contract); the first
  // checkpoint waits one full interval — there is nothing to persist yet.
  Clock::time_point next_compact = Clock::now();
  Clock::time_point next_checkpoint = Clock::now() + ckpt_interval;
  while (true) {
    const Clock::time_point now = Clock::now();
    if (compaction && now >= next_compact) {
      // One pass. Readers never notice: the rewrite happens on detached
      // shard copies and lands with the snapshot publish.
      MutexLock lock(&writer_mu_);
      Result<int> compacted = master_.Compact(compact_dead_ratio_);
      // Compact on a healthy index cannot fail; a zero result just means no
      // shard crossed the threshold — skip the publish so the epoch only
      // moves when the state does.
      if (compacted.ok() && compacted.value() > 0) {
        ++epoch_;
        Publish();
        metrics_.background_compactions->Inc();
      }
      next_compact = Clock::now() + interval;
    }
    if (checkpointing && now >= next_checkpoint) {
      Status checkpointed = Checkpoint();
      if (!checkpointed.ok()) {
        // Keep serving — the WAL still covers everything; retry next tick.
        PIS_LOG(Error) << "periodic checkpoint failed: "
                       << checkpointed.ToString();
      }
      next_checkpoint = Clock::now() + ckpt_interval;
    }
    Clock::time_point deadline = Clock::time_point::max();
    if (compaction) deadline = next_compact;
    if (checkpointing) deadline = std::min(deadline, next_checkpoint);
    // Condition loop lives here (not behind a predicate lambda) so the
    // guarded read of compactor_stop_ stays visible to the thread-safety
    // analysis.
    MutexLock lock(&compactor_mu_);
    while (!compactor_stop_) {
      if (compactor_cv_.WaitUntil(&compactor_mu_, deadline)) break;
    }
    if (compactor_stop_) return;
  }
}

EngineHost::HostStats EngineHost::Stats() const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  const ShardedFragmentIndex& index = *snap->index;
  HostStats stats;
  stats.epoch = snap->epoch;
  stats.db_slots = index.db_size();
  stats.live = index.num_live();
  stats.removed = static_cast<int>(index.tombstones().size());
  stats.num_shards = index.num_shards();
  stats.compaction_epoch = index.compaction_epoch();
  stats.compact_dead_ratio = compact_dead_ratio_;
  stats.background_compactions = metrics_.background_compactions->value();
  if (const WriteAheadLog* wal =
          wal_view_.load(std::memory_order_acquire)) {
    stats.wal_bytes = wal->bytes();
    stats.wal_records = wal->records();
  }
  stats.checkpoints = metrics_.checkpoints->value();
  stats.group_commit_batches = metrics_.group_commit_ops->count();
  stats.group_commit_ops =
      static_cast<uint64_t>(metrics_.group_commit_ops->sum());
  stats.group_commit_max_batch =
      static_cast<uint64_t>(metrics_.group_commit_max_batch->value());
  stats.shards.reserve(index.num_shards());
  for (int s = 0; s < index.num_shards(); ++s) {
    ShardInfo info;
    info.resident = index.shard_size(s);
    info.live = index.shard(s).num_live();
    info.dead = static_cast<int>(index.shard(s).tombstones().size());
    info.dead_ratio = index.shard(s).dead_ratio();
    stats.shards.push_back(info);
  }
  return stats;
}

Status EngineHost::Save(const std::string& dir,
                        const std::string& db_path) const {
  // Serialize against writers so the saved pair is one published state, and
  // restore the policy ratio into the manifest (the host zeroes it on the
  // live index to keep RemoveGraph from compacting inline).
  MutexLock lock(&writer_mu_);
  ShardedFragmentIndex to_save = master_;
  to_save.set_compact_dead_ratio(compact_dead_ratio_);
  PIS_RETURN_NOT_OK(to_save.SaveDir(dir));
  return WriteGraphDatabaseFile(*master_db_, db_path);
}

}  // namespace pis
