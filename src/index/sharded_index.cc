#include "index/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/fs_util.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/timer.h"

namespace pis {

namespace {

constexpr uint32_t kManifestMagic = 0x5049534D;  // "PISM"
// v1: contiguous per-shard id ranges (offsets vector). v2: explicit
// per-graph routing table, required once incremental AddGraph breaks
// contiguity. v3: compaction epoch, routing that admits -1 (removed and
// compacted away), explicit per-graph local ids (Rebalance breaks the
// "locals ascend with globals" derivation v2 relied on), and per-shard
// live counts cross-checked against the shard files. v4: trailing
// auto-compaction dead-ratio policy, so a reloaded server keeps it. v1-v3
// manifests still load (with the policy off).
constexpr uint32_t kManifestVersion = 4;
constexpr char kManifestName[] = "MANIFEST";

std::string ShardFileName(int s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%04d.idx", s);
  return buf;
}

}  // namespace

int ShardedFragmentIndex::shard_of(int gid) const {
  PIS_DCHECK(gid >= 0 && gid < db_size());
  return shard_of_[gid];
}

void ShardedFragmentIndex::DeriveRouting() {
  local_of_.assign(shard_of_.size(), 0);
  globals_.assign(shards_.size(), {});
  for (int gid = 0; gid < static_cast<int>(shard_of_.size()); ++gid) {
    const int s = shard_of_[gid];
    local_of_[gid] = static_cast<int>(globals_[s].size());
    globals_[s].push_back(gid);
  }
}

Status ShardedFragmentIndex::DeriveGlobalsFromLocals() {
  globals_.assign(shards_.size(), {});
  std::vector<int> resident(shards_.size(), 0);
  for (int gid = 0; gid < db_size(); ++gid) {
    if (shard_of_[gid] >= 0) ++resident[shard_of_[gid]];
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    globals_[s].assign(resident[s], -1);
  }
  for (int gid = 0; gid < db_size(); ++gid) {
    const int s = shard_of_[gid];
    const int local = local_of_[gid];
    if (s < 0) {
      if (local != -1) {
        return Status::InvalidArgument(
            "manifest gives compacted-away graph " + std::to_string(gid) +
            " a local id");
      }
      continue;
    }
    if (local < 0 || local >= resident[s] || globals_[s][local] != -1) {
      return Status::InvalidArgument(
          "manifest local ids of shard " + std::to_string(s) +
          " are not a permutation of its residents");
    }
    globals_[s][local] = gid;
  }
  return Status::OK();
}

Result<ShardedFragmentIndex> ShardedFragmentIndex::Build(
    const GraphDatabase& db, const std::vector<Graph>& features,
    const FragmentIndexOptions& options, int num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  Timer timer;
  ShardedFragmentIndex sharded;
  sharded.options_ = options;

  // Balanced contiguous ranges: the first (n % S) shards get one extra.
  const int n = db.size();
  const int base = n / num_shards;
  const int rem = n % num_shards;
  std::vector<int> offsets(num_shards + 1);
  offsets[0] = 0;
  for (int s = 0; s < num_shards; ++s) {
    offsets[s + 1] = offsets[s] + base + (s < rem ? 1 : 0);
  }
  PIS_CHECK(offsets[num_shards] == n);
  sharded.shard_of_.resize(n);
  for (int s = 0; s < num_shards; ++s) {
    for (int gid = offsets[s]; gid < offsets[s + 1]; ++gid) {
      sharded.shard_of_[gid] = s;
    }
  }

  // Shards build concurrently; with S > 1 each shard's own extraction runs
  // sequentially so thread counts don't multiply.
  FragmentIndexOptions shard_options = options;
  if (num_shards > 1) shard_options.num_threads = 1;
  // No fill-construction: Result<FragmentIndex> is move-only.
  std::vector<Result<FragmentIndex>> built;
  built.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    built.emplace_back(Status::Internal("shard not built"));
  }
  ParallelFor(num_shards, options.num_threads, [&](size_t s) {
    // The shard's sub-database is a slice that shares `db`'s graphs (one
    // pointer per graph), so building the shards copies no graph.
    built[s] = FragmentIndex::Build(db.Slice(offsets[s], offsets[s + 1]),
                                    features, shard_options);
  });
  sharded.shards_.reserve(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    if (!built[s].ok()) return built[s].status();
    sharded.shards_.push_back(
        std::make_shared<FragmentIndex>(built[s].MoveValue()));
  }
  for (int s = 1; s < num_shards; ++s) {
    PIS_CHECK(sharded.shards_[s]->num_classes() ==
              sharded.shards_[0]->num_classes())
        << "shards disagree on the class catalog";
  }
  sharded.DeriveRouting();
  sharded.build_seconds_ = timer.Seconds();
  return sharded;
}

ShardedFragmentIndex ShardedFragmentIndex::FromFragmentIndex(
    FragmentIndex index) {
  ShardedFragmentIndex sharded;
  sharded.options_ = index.options();
  sharded.build_seconds_ = index.stats().build_seconds;
  sharded.compaction_epoch_ = static_cast<int>(index.compaction_epoch());
  sharded.tombstones_ = index.tombstones();
  sharded.shard_of_.assign(index.db_size(), 0);
  sharded.shards_.push_back(std::make_shared<FragmentIndex>(std::move(index)));
  sharded.DeriveRouting();
  return sharded;
}

Status ShardedFragmentIndex::MinDistances(
    int s, const PreparedFragment& fragment, double sigma,
    std::unordered_map<int, double>* min_dist) const {
  const std::vector<int>& globals = globals_[s];
  return shards_[s]->RangeQuery(fragment, sigma, [&](int local, double d) {
    auto [it, inserted] = min_dist->try_emplace(globals[local], d);
    if (!inserted && d < it->second) it->second = d;
  });
}

Result<FragmentIndex*> ShardedFragmentIndex::MutableShard(int s) {
  // use_count == 1 means nobody else can observe the shard: mutate in
  // place. Anything higher means a snapshot handle or an index copy pins
  // it, so detach a copy first (their view stays frozen, ours moves).
  //
  // Concurrency note: under EngineHost the published snapshot always
  // shares every shard of the writer's master copy, so the in-place path
  // is only ever taken by single-threaded owners (CLI, tests) — a racing
  // reader releasing the last pin concurrently with this check cannot
  // happen there by construction. The acquire fence still pairs with the
  // release decrement of a hypothetical releasing thread, so even that
  // interleaving would not reorder its reads past our writes.
  if (shards_[s].use_count() > 1) {
    PIS_ASSIGN_OR_RETURN(FragmentIndex detached, shards_[s]->Clone());
    shards_[s] = std::make_shared<FragmentIndex>(std::move(detached));
  } else {
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return shards_[s].get();
}

Result<int> ShardedFragmentIndex::AddGraph(const Graph& g) {
  // Least-loaded routing by live graph count; ties go to the lowest shard
  // id so a replayed update sequence reproduces the same routing.
  int best = 0;
  for (int s = 1; s < num_shards(); ++s) {
    if (shards_[s]->num_live() < shards_[best]->num_live()) best = s;
  }
  PIS_ASSIGN_OR_RETURN(FragmentIndex * target, MutableShard(best));
  PIS_ASSIGN_OR_RETURN(int local, target->AddGraph(g));
  PIS_DCHECK(local == static_cast<int>(globals_[best].size()));
  const int gid = db_size();
  shard_of_.push_back(best);
  local_of_.push_back(local);
  globals_[best].push_back(gid);
  return gid;
}

Status ShardedFragmentIndex::AddGraphAt(int gid, int shard, const Graph& g) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range");
  }
  if (gid < db_size()) {
    return Status::AlreadyExists("graph id " + std::to_string(gid) +
                                 " is already assigned (db spans " +
                                 std::to_string(db_size()) + " slots)");
  }
  // Foreign-shard ids this replica never received arrive as a gap below
  // `gid`: materialize them as absent slots so the id space stays aligned
  // with the cluster. Absent slots are globally dead, never resident, and
  // never revived — exactly like compacted-away tombstones.
  while (db_size() < gid) {
    tombstones_.insert(db_size());
    shard_of_.push_back(-1);
    local_of_.push_back(-1);
  }
  PIS_ASSIGN_OR_RETURN(FragmentIndex * target, MutableShard(shard));
  PIS_ASSIGN_OR_RETURN(int local, target->AddGraph(g));
  PIS_DCHECK(local == static_cast<int>(globals_[shard].size()));
  shard_of_.push_back(shard);
  local_of_.push_back(local);
  globals_[shard].push_back(gid);
  return Status::OK();
}

Status ShardedFragmentIndex::RemoveGraph(int gid) {
  if (gid < 0 || gid >= db_size()) {
    return Status::NotFound("graph id " + std::to_string(gid) +
                            " is outside the sharded database");
  }
  // Compacted-away ids are no longer resident in any shard, so the shard
  // can't reject the double remove for us.
  if (tombstones_.count(gid) > 0) {
    return Status::NotFound("graph id " + std::to_string(gid) +
                            " was already removed");
  }
  const int s = shard_of_[gid];
  PIS_ASSIGN_OR_RETURN(FragmentIndex * target, MutableShard(s));
  PIS_RETURN_NOT_OK(target->RemoveGraph(local_of_[gid]));
  tombstones_.insert(gid);
  if (compact_dead_ratio_ > 0 &&
      shards_[s]->dead_ratio() >= compact_dead_ratio_) {
    return CompactShard(s);
  }
  return Status::OK();
}

Status ShardedFragmentIndex::CompactShard(int s) {
  if (s < 0 || s >= num_shards()) {
    return Status::InvalidArgument("shard " + std::to_string(s) +
                                   " out of range");
  }
  if (shards_[s]->tombstones().empty()) return Status::OK();
  // The detached-copy-then-swap below is the serving layer's zero-downtime
  // compaction: when a snapshot pins the shard, the rewrite happens off to
  // the side and lands atomically in this index's handle slot.
  PIS_ASSIGN_OR_RETURN(FragmentIndex * target, MutableShard(s));
  const std::vector<int> remap = target->Compact();
  // The remap is monotone over survivors, so rebuilding globals_[s] in old
  // local order lands every surviving gid at exactly its new local id.
  std::vector<int> survivors;
  survivors.reserve(target->db_size());
  for (size_t local = 0; local < remap.size(); ++local) {
    const int gid = globals_[s][local];
    if (gid < 0) {
      // Mid-rebalance hole: the graph migrated out, its routing already
      // points at the recipient shard. The slot just disappears here.
      PIS_DCHECK(remap[local] < 0);
      continue;
    }
    if (remap[local] >= 0) {
      local_of_[gid] = remap[local];
      survivors.push_back(gid);
    } else {
      // The global tombstone set keeps the id dead forever; only its
      // residency (and postings) are reclaimed.
      shard_of_[gid] = -1;
      local_of_[gid] = -1;
    }
  }
  globals_[s] = std::move(survivors);
  ++compaction_epoch_;
  return Status::OK();
}

Result<int> ShardedFragmentIndex::Compact(double min_dead_ratio) {
  int compacted = 0;
  for (int s = 0; s < num_shards(); ++s) {
    if (shards_[s]->tombstones().empty()) continue;
    if (shards_[s]->dead_ratio() < min_dead_ratio) continue;
    PIS_RETURN_NOT_OK(CompactShard(s));
    ++compacted;
  }
  return compacted;
}

Result<int> ShardedFragmentIndex::Rebalance(const GraphDatabase& db) {
  if (db.size() != db_size()) {
    return Status::InvalidArgument(
        "rebalance database holds " + std::to_string(db.size()) +
        " graphs but the index spans " + std::to_string(db_size()) +
        " id slots");
  }
  auto extreme_shards = [this](int* fullest, int* emptiest) {
    *fullest = 0;
    *emptiest = 0;
    for (int s = 1; s < num_shards(); ++s) {
      if (shards_[s]->num_live() > shards_[*fullest]->num_live()) *fullest = s;
      if (shards_[s]->num_live() < shards_[*emptiest]->num_live()) {
        *emptiest = s;
      }
    }
  };
  std::vector<char> donor(num_shards(), 0);
  int migrated = 0;
  Status failed = Status::OK();
  while (failed.ok()) {
    int src, dst;
    extreme_shards(&src, &dst);
    if (shards_[src]->num_live() - shards_[dst]->num_live() <= 1) break;
    // Migrate the donor's most recently indexed live graph: its postings
    // sit at the tail of the shard, and the choice is deterministic.
    int gid = -1;
    for (int local = static_cast<int>(globals_[src].size()) - 1; local >= 0;
         --local) {
      if (shards_[src]->IsLive(local)) {
        gid = globals_[src][local];
        break;
      }
    }
    PIS_CHECK(gid >= 0) << "overloaded shard has no live graph";
    Result<FragmentIndex*> recipient = MutableShard(dst);
    if (!recipient.ok()) {
      failed = recipient.status();
      break;
    }
    Result<int> local = recipient.value()->AddGraph(db.at(gid));
    if (!local.ok()) {
      failed = local.status();
      break;
    }
    PIS_DCHECK(local.value() == static_cast<int>(globals_[dst].size()));
    // Per-shard tombstone only — the graph stays live globally; the donor
    // compaction below drains it so per-shard tombstones remain a subset of
    // the global (removed-forever) set. The donor's globals slot becomes a
    // -1 hole so that compaction doesn't clobber the rewritten routing.
    Result<FragmentIndex*> donor_shard = MutableShard(src);
    if (!donor_shard.ok()) {
      failed = donor_shard.status();
      break;
    }
    failed = donor_shard.value()->RemoveGraph(local_of_[gid]);
    if (!failed.ok()) break;
    globals_[src][local_of_[gid]] = -1;
    shard_of_[gid] = dst;
    local_of_[gid] = local.value();
    globals_[dst].push_back(gid);
    donor[src] = 1;
    ++migrated;
  }
  // Donor compaction runs even when a migration failed mid-way: completed
  // migrations stay committed, and compacting the donors removes their
  // globals holes and drains their migration tombstones — the invariants
  // SaveDir/LoadDir rely on hold again, just at a partially levelled state.
  for (int s = 0; s < num_shards(); ++s) {
    if (donor[s]) PIS_RETURN_NOT_OK(CompactShard(s));
  }
  PIS_RETURN_NOT_OK(failed);
  return migrated;
}

Status ShardedFragmentIndex::SaveDir(const std::string& dir) const {
  std::error_code ec;
  if (std::filesystem::exists(dir, ec) &&
      !std::filesystem::is_directory(dir, ec)) {
    // A legacy single-file index: write the directory beside it, then swap.
    return StageAndReplace(
        dir, [this](const std::string& staged) { return SaveDir(staged); });
  }
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  const std::filesystem::path root(dir);
  {
    std::ofstream out(root / kManifestName, std::ios::binary);
    if (!out) return Status::IOError("cannot open manifest for writing");
    BinaryWriter writer(out);
    writer.U32(kManifestMagic);
    writer.U32(kManifestVersion);
    writer.U32(static_cast<uint32_t>(num_shards()));
    writer.U32(static_cast<uint32_t>(compaction_epoch_));
    writer.VecInt(shard_of_);
    writer.VecInt(local_of_);
    std::vector<int> live(num_shards());
    for (int s = 0; s < num_shards(); ++s) live[s] = shards_[s]->num_live();
    writer.VecInt(live);
    // v4 trailing section: the auto-compaction policy.
    writer.F64(compact_dead_ratio_);
    if (!writer.ok()) return Status::IOError("manifest write failed");
  }
  for (int s = 0; s < num_shards(); ++s) {
    PIS_RETURN_NOT_OK(shards_[s]->SaveFile((root / ShardFileName(s)).string()));
  }
  // An in-place re-save with a smaller shard count must not leave stale
  // shard files behind: LoadDir treats surplus files as manifest/disk
  // disagreement.
  for (int s = num_shards();; ++s) {
    std::error_code stale_ec;
    if (!std::filesystem::remove(root / ShardFileName(s), stale_ec)) break;
  }
  return Status::OK();
}

Result<ShardedFragmentIndex> ShardedFragmentIndex::LoadDir(
    const std::string& dir) {
  std::error_code ec;
  if (std::filesystem::exists(dir, ec) &&
      !std::filesystem::is_directory(dir, ec)) {
    PIS_ASSIGN_OR_RETURN(FragmentIndex legacy, FragmentIndex::LoadFile(dir));
    return FromFragmentIndex(std::move(legacy));
  }
  const std::filesystem::path root(dir);
  std::ifstream in(root / kManifestName, std::ios::binary);
  if (!in) return Status::IOError("cannot open manifest in " + dir);
  BinaryReader reader(in);
  if (reader.U32() != kManifestMagic) {
    return Status::ParseError("not a sharded PIS index (bad manifest magic)");
  }
  const uint32_t version = reader.U32();
  if (version < 1 || version > kManifestVersion) {
    return Status::ParseError("unsupported manifest version " +
                              std::to_string(version) + " (this build reads " +
                              std::to_string(kManifestVersion) +
                              " and older)");
  }
  const uint32_t num_shards = reader.U32();
  ShardedFragmentIndex sharded;
  std::vector<int> manifest_live;  // v3 only; cross-checked after loading
  if (version == 1) {
    // Contiguous ranges: offsets[s] .. offsets[s+1]) belongs to shard s.
    std::vector<int> offsets = reader.VecInt();
    PIS_RETURN_NOT_OK(reader.Check("shard manifest"));
    if (num_shards < 1 || offsets.size() != num_shards + 1 ||
        offsets.front() != 0 ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      return Status::ParseError("corrupt shard manifest");
    }
    sharded.shard_of_.resize(offsets.back());
    for (uint32_t s = 0; s < num_shards; ++s) {
      for (int gid = offsets[s]; gid < offsets[s + 1]; ++gid) {
        sharded.shard_of_[gid] = static_cast<int>(s);
      }
    }
  } else {
    // v2 routing admits resident shards only; v3 also admits -1 (removed
    // and compacted away) plus the trailing local-id and live-count
    // sections.
    const int min_shard = version >= 3 ? -1 : 0;
    if (version >= 3) {
      sharded.compaction_epoch_ = static_cast<int>(reader.U32());
    }
    sharded.shard_of_ = reader.VecInt();
    PIS_RETURN_NOT_OK(reader.Check("shard manifest"));
    if (num_shards < 1) return Status::ParseError("corrupt shard manifest");
    for (size_t gid = 0; gid < sharded.shard_of_.size(); ++gid) {
      if (sharded.shard_of_[gid] < min_shard ||
          sharded.shard_of_[gid] >= static_cast<int>(num_shards)) {
        return Status::InvalidArgument(
            "manifest routes graph " + std::to_string(gid) +
            " to nonexistent shard " +
            std::to_string(sharded.shard_of_[gid]));
      }
    }
    if (version >= 3) {
      sharded.local_of_ = reader.VecInt();
      manifest_live = reader.VecInt();
      double dead_ratio = 0.0;
      if (version >= 4) dead_ratio = reader.F64();
      // The routing parsed but the trailing v3/v4 sections are short: the
      // manifest structurally disagrees with what it declares rather than
      // being unreadable garbage.
      if (!reader.ok()) {
        return Status::InvalidArgument("manifest truncated mid-section");
      }
      if (sharded.local_of_.size() != sharded.shard_of_.size() ||
          manifest_live.size() != num_shards) {
        return Status::InvalidArgument(
            "manifest local-id/live-count sections disagree with its "
            "routing table");
      }
      if (!(dead_ratio >= 0.0 && dead_ratio <= 1.0)) {
        return Status::InvalidArgument(
            "manifest auto-compaction dead ratio outside [0, 1]");
      }
      sharded.compact_dead_ratio_ = dead_ratio;
    }
  }

  // The manifest and the files on disk must agree exactly: every declared
  // shard present with the declared number of graphs, and nothing extra.
  for (uint32_t s = 0; s < num_shards; ++s) {
    if (!std::filesystem::exists(root / ShardFileName(static_cast<int>(s)))) {
      return Status::InvalidArgument(
          "manifest declares " + std::to_string(num_shards) +
          " shards but " + ShardFileName(static_cast<int>(s)) +
          " is missing on disk");
    }
  }
  if (std::filesystem::exists(
          root / ShardFileName(static_cast<int>(num_shards)))) {
    return Status::InvalidArgument(
        "more shard files on disk than the manifest's " +
        std::to_string(num_shards) + " shards");
  }

  sharded.shards_.reserve(num_shards);
  // globals_ sizing needs shards_ populated; derive after loading, but
  // compute expected per-shard sizes first for the consistency check.
  std::vector<int> expected_size(num_shards, 0);
  for (int s : sharded.shard_of_) {
    if (s >= 0) ++expected_size[s];
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    PIS_ASSIGN_OR_RETURN(
        FragmentIndex shard,
        FragmentIndex::LoadFile(
            (root / ShardFileName(static_cast<int>(s))).string()));
    if (shard.db_size() != expected_size[s]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(shard.db_size()) + " graphs but the manifest routes " +
          std::to_string(expected_size[s]) + " to it");
    }
    if (!manifest_live.empty() && shard.num_live() != manifest_live[s]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(shard.num_live()) +
          " live graphs but the manifest recorded " +
          std::to_string(manifest_live[s]));
    }
    if (s > 0 &&
        shard.num_classes() != sharded.shards_.front()->num_classes()) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " class catalog disagrees with shard 0");
    }
    sharded.shards_.push_back(std::make_shared<FragmentIndex>(std::move(shard)));
  }
  if (version >= 3) {
    PIS_RETURN_NOT_OK(sharded.DeriveGlobalsFromLocals());
  } else {
    sharded.DeriveRouting();
  }
  // Global tombstones: the per-shard sets (persisted inside the per-shard
  // index files) plus every compacted-away slot the routing marks -1.
  for (uint32_t s = 0; s < num_shards; ++s) {
    for (int local : sharded.shards_[s]->tombstones()) {
      if (local < 0 || local >= sharded.shard_size(static_cast<int>(s))) {
        return Status::InvalidArgument("shard " + std::to_string(s) +
                                       " tombstone out of range");
      }
      sharded.tombstones_.insert(sharded.global_id(static_cast<int>(s), local));
    }
  }
  for (int gid = 0; gid < sharded.db_size(); ++gid) {
    if (sharded.shard_of_[gid] < 0) sharded.tombstones_.insert(gid);
  }
  sharded.options_ = sharded.shards_.front()->options();
  return sharded;
}

}  // namespace pis
