// pis_cli: command-line front end for the PIS library.
//
//   pis_cli generate  --out db.txt [--count N] [--seed S]
//   pis_cli convert   --sdf file.sdf --out db.txt [--max N]
//   pis_cli build     --db db.txt --out index.bin [--max_fragment_edges K]
//                     [--min_support F] [--gamma G] [--distance mutation|linear]
//                     [--shards S] [--threads N]
//   pis_cli stats     --index index.bin [--json]
//   pis_cli query     --db db.txt --index index.bin --query query.txt
//                     [--sigma S] [--engine pis|topo|naive]
//                     [--batch] [--threads N]
//   pis_cli topk      --db db.txt --index index.bin --query query.txt [--k K]
//   pis_cli add       --db db.txt --index index.bin --graphs new.txt
//   pis_cli remove    --index index.bin --ids 3,17,42
//                     [--compact_dead_ratio R]
//   pis_cli compact   --index index.bin [--db db.txt]
//                     [--min_dead_ratio R] [--rebalance]
//
// With --shards > 1, build writes a sharded index directory (manifest plus
// one file per shard) instead of a single file; stats, query, add, remove,
// and compact detect the directory and use the sharded index transparently.
//
// `add` indexes every graph in --graphs incrementally (no rebuild), appends
// them to the --db file so ids stay aligned, and saves the index in place.
// `remove` tombstones the given ids in the index (the db file keeps its
// records; removed ids simply stop matching queries); with
// --compact_dead_ratio, any sharded shard whose dead fraction crosses the
// threshold is compacted in the same run. `compact` reclaims tombstoned
// postings: on a sharded directory it rewrites the affected shards in place
// (global ids stay stable, the db file is untouched; --rebalance
// additionally migrates graphs off overloaded shards and needs --db); on a
// single-file index it re-densifies ids, so --db is required and the db
// file is rewritten without the removed graphs.
//
// Graph files use the native text format (see src/graph/io.h); the query
// file holds a single record, or any number of records with --batch.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/topk.h"
#include "pis.h"
#include "util/flags.h"
#include "util/fs_util.h"
#include "util/string_util.h"

using namespace pis;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int FailUsage() {
  std::fprintf(
      stderr,
      "usage: pis_cli "
      "<generate|convert|build|stats|query|topk|add|remove|compact> "
      "[flags]\nRun a subcommand with --help for its flags.\n");
  return 2;
}

int CmdGenerate(int argc, char** argv) {
  std::string out;
  int count = 1000;
  int64_t seed = 42;
  FlagSet flags;
  flags.AddString("out", &out, "output database path (native text format)");
  flags.AddInt("count", &count, "number of molecules");
  flags.AddInt64("seed", &seed, "generator seed");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  MoleculeGeneratorOptions options;
  options.seed = static_cast<uint64_t>(seed);
  MoleculeGenerator gen(options);
  GraphDatabase db = gen.Generate(count);
  Status written = WriteGraphDatabaseFile(db, out);
  if (!written.ok()) return Fail(written);
  std::printf("wrote %d graphs to %s (avg %.1f vertices / %.1f edges)\n",
              db.size(), out.c_str(), db.AverageVertices(), db.AverageEdges());
  return 0;
}

int CmdConvert(int argc, char** argv) {
  std::string sdf;
  std::string out;
  int max = 0;
  FlagSet flags;
  flags.AddString("sdf", &sdf, "input SDF/MOL file");
  flags.AddString("out", &out, "output database path");
  flags.AddInt("max", &max, "max molecules (0 = all)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (sdf.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--sdf and --out are required"));
  }
  ChemicalVocabulary vocab = MakeDefaultChemicalVocabulary();
  SdfOptions options;
  options.max_molecules = max;
  options.require_connected = true;
  auto db = ReadSdfFile(sdf, &vocab, options);
  if (!db.ok()) return Fail(db.status());
  Status written = WriteGraphDatabaseFile(db.value(), out);
  if (!written.ok()) return Fail(written);
  std::printf("converted %d molecules from %s to %s\n", db.value().size(),
              sdf.c_str(), out.c_str());
  return 0;
}

Result<GraphDatabase> LoadDb(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("--db is required");
  return ReadGraphDatabaseFile(path);
}

int CmdBuild(int argc, char** argv) {
  std::string db_path;
  std::string out;
  int max_fragment_edges = 6;
  double min_support = 0.01;
  double gamma = 1.0;
  std::string distance = "mutation";
  int shards = 1;
  int threads = 1;
  FlagSet flags;
  flags.AddString("db", &db_path, "database path");
  flags.AddString("out", &out, "output index path");
  flags.AddInt("max_fragment_edges", &max_fragment_edges, "max indexed size");
  flags.AddDouble("min_support", &min_support, "relative feature min support");
  flags.AddDouble("gamma", &gamma, "gIndex discriminative ratio");
  flags.AddString("distance", &distance, "mutation | linear");
  flags.AddInt("shards", &shards,
               "shard count; > 1 writes a sharded index directory");
  flags.AddInt("threads", &threads, "index build threads (0 = all hardware)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  auto db = LoadDb(db_path);
  if (!db.ok()) return Fail(db.status());

  auto features = MineDiscriminativeFeatures(db.value(), max_fragment_edges,
                                             min_support, gamma);
  if (!features.ok()) return Fail(features.status());

  FragmentIndexOptions options;
  options.max_fragment_edges = max_fragment_edges;
  options.num_threads = threads <= 0 ? HardwareThreads() : threads;
  auto spec = DistanceSpecFromName(distance);
  if (!spec.ok()) return Fail(spec.status());
  options.spec = spec.value();
  if (shards > 1) {
    auto index =
        ShardedFragmentIndex::Build(db.value(), features.value(), options, shards);
    if (!index.ok()) return Fail(index.status());
    Status saved = index.value().SaveDir(out);
    if (!saved.ok()) return Fail(saved);
    size_t occurrences = 0;
    for (int s = 0; s < index.value().num_shards(); ++s) {
      occurrences += index.value().shard(s).stats().num_fragment_occurrences;
    }
    std::printf(
        "built sharded index: %d shards, %d classes, %zu fragments in "
        "%.2fs -> %s/\n",
        index.value().num_shards(), index.value().num_classes(), occurrences,
        index.value().build_seconds(), out.c_str());
    return 0;
  }
  auto index = FragmentIndex::Build(db.value(), features.value(), options);
  if (!index.ok()) return Fail(index.status());
  Status saved = index.value().SaveFile(out);
  if (!saved.ok()) return Fail(saved);
  std::printf("built index: %d classes over %zu fragments in %.2fs -> %s\n",
              index.value().num_classes(),
              index.value().stats().num_fragment_occurrences,
              index.value().stats().build_seconds, out.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  std::string index_path;
  bool json = false;
  FlagSet flags;
  flags.AddString("index", &index_path, "index path");
  flags.AddBool("json", &json,
                "emit one machine-readable JSON object instead of text");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (std::filesystem::is_directory(index_path)) {
    auto sharded = ShardedFragmentIndex::LoadDir(index_path);
    if (!sharded.ok()) return Fail(sharded.status());
    const ShardedFragmentIndex& idx = sharded.value();
    if (json) {
      // Same shape as the server's `stats` reply payload (minus the
      // host-only epoch/background counters), so operators and
      // bench_server scrape one format instead of text.
      JsonValue obj = JsonValue::Object();
      obj.Set("type", "sharded");
      obj.Set("db_slots", idx.db_size());
      obj.Set("live", idx.num_live());
      obj.Set("removed", static_cast<uint64_t>(idx.tombstones().size()));
      obj.Set("num_shards", idx.num_shards());
      obj.Set("classes", idx.num_classes());
      obj.Set("compaction_epoch", idx.compaction_epoch());
      obj.Set("compact_dead_ratio", idx.compact_dead_ratio());
      JsonValue shard_list = JsonValue::Array();
      for (int s = 0; s < idx.num_shards(); ++s) {
        const FragmentIndex& shard = idx.shard(s);
        JsonValue entry = JsonValue::Object();
        entry.Set("resident", idx.shard_size(s));
        entry.Set("live", shard.num_live());
        entry.Set("dead", static_cast<uint64_t>(shard.tombstones().size()));
        entry.Set("dead_ratio", shard.dead_ratio());
        entry.Set("fragment_occurrences",
                  static_cast<uint64_t>(
                      shard.stats().num_fragment_occurrences));
        shard_list.Push(std::move(entry));
      }
      obj.Set("shards", std::move(shard_list));
      std::printf("%s\n", obj.Serialize().c_str());
      return 0;
    }
    std::printf("sharded index over %d id slots (%d live, %zu removed)\n",
                idx.db_size(), idx.num_live(), idx.tombstones().size());
    std::printf("shards: %d, classes: %d, compaction epoch: %d\n",
                idx.num_shards(), idx.num_classes(), idx.compaction_epoch());
    if (idx.compact_dead_ratio() > 0) {
      std::printf("auto-compaction dead ratio: %.2f\n",
                  idx.compact_dead_ratio());
    }
    for (int s = 0; s < idx.num_shards(); ++s) {
      const FragmentIndex& shard = idx.shard(s);
      // Per-shard tombstone pressure is the signal operators compact on.
      std::printf(
          "  shard %d: %d resident (%d live, %zu dead, dead ratio %.2f), "
          "%zu fragment occurrences\n",
          s, idx.shard_size(s), shard.num_live(), shard.tombstones().size(),
          shard.dead_ratio(), shard.stats().num_fragment_occurrences);
    }
    return 0;
  }
  auto index = FragmentIndex::LoadFile(index_path);
  if (!index.ok()) return Fail(index.status());
  const FragmentIndex& idx = index.value();
  if (json) {
    JsonValue obj = JsonValue::Object();
    obj.Set("type", "flat");
    obj.Set("db_slots", idx.db_size());
    obj.Set("live", idx.num_live());
    obj.Set("removed", static_cast<uint64_t>(idx.tombstones().size()));
    obj.Set("dead_ratio", idx.dead_ratio());
    obj.Set("classes", idx.num_classes());
    obj.Set("compaction_epoch", static_cast<int>(idx.compaction_epoch()));
    obj.Set("distance", idx.options().spec.type == DistanceType::kMutation
                            ? "mutation"
                            : "linear");
    obj.Set("fragment_occurrences",
            static_cast<uint64_t>(idx.stats().num_fragment_occurrences));
    std::printf("%s\n", obj.Serialize().c_str());
    return 0;
  }
  std::printf(
      "index over a %d-graph database (%d live, %zu dead, dead ratio %.2f, "
      "compaction epoch %u)\n",
      idx.db_size(), idx.num_live(), idx.tombstones().size(), idx.dead_ratio(),
      idx.compaction_epoch());
  std::printf("distance: %s\n",
              idx.options().spec.type == DistanceType::kMutation ? "mutation"
                                                                 : "linear");
  std::printf("fragment sizes: %d..%d edges\n", idx.options().min_fragment_edges,
              idx.options().max_fragment_edges);
  std::printf("classes: %d\n", idx.num_classes());
  std::printf("fragment occurrences: %zu\n",
              idx.stats().num_fragment_occurrences);
  std::printf("sequences: %zu\n", idx.stats().num_sequences_inserted);
  size_t max_fragments = 0;
  for (int c = 0; c < idx.num_classes(); ++c) {
    max_fragments = std::max(max_fragments, idx.class_at(c).num_fragments());
  }
  std::printf("largest class: %zu fragments\n", max_fragments);
  return 0;
}

Result<Graph> LoadQuery(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("--query is required");
  PIS_ASSIGN_OR_RETURN(GraphDatabase db, ReadGraphDatabaseFile(path));
  if (db.size() != 1) {
    return Status::InvalidArgument("query file must hold exactly one graph");
  }
  return db.at(0);
}

// Runs a whole query file as one SearchBatch and prints per-query answer
// lines plus aggregate stats. Returns a process exit code. `Engine` is
// PisEngine or ShardedPisEngine (same SearchBatch contract).
template <typename Engine>
int RunBatchQuery(const Engine& engine, const std::string& query_path,
                  int threads) {
  if (query_path.empty()) {
    return Fail(Status::InvalidArgument("--query is required"));
  }
  auto queries = ReadGraphDatabaseFile(query_path);
  if (!queries.ok()) return Fail(queries.status());
  BatchSearchResult batch =
      engine.SearchBatch(queries.value().graphs(), threads);
  for (size_t qi = 0; qi < batch.results.size(); ++qi) {
    const Result<SearchResult>& r = batch.results[qi];
    if (!r.ok()) {
      std::printf("query %zu: error: %s\n", qi, r.status().ToString().c_str());
      continue;
    }
    std::printf("query %zu: candidates: %zu, answers: %zu |", qi,
                r.value().stats.candidates_final, r.value().answers.size());
    for (int gid : r.value().answers) std::printf(" %d", gid);
    std::printf("\n");
  }
  const size_t workers =
      std::min<size_t>(threads <= 0 ? HardwareThreads() : threads,
                       batch.results.size());
  std::fprintf(stderr,
               "batch: %zu queries (%zu ok, %zu failed) in %.3fs with %zu "
               "threads\naggregate: %s\n",
               batch.results.size(), batch.succeeded, batch.failed,
               batch.wall_seconds, workers,
               batch.total_stats.ToString().c_str());
  return batch.failed == 0 ? 0 : 1;
}

int CmdQuery(int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  std::string query_path;
  double sigma = 2;
  std::string engine = "pis";
  bool batch = false;
  int threads = 0;
  FlagSet flags;
  flags.AddString("db", &db_path, "database path");
  flags.AddString("index", &index_path, "index path");
  flags.AddString("query", &query_path, "query graph file (one record)");
  flags.AddDouble("sigma", &sigma, "max superimposed distance");
  flags.AddString("engine", &engine, "pis | topo | naive");
  flags.AddBool("batch", &batch, "treat --query as a multi-record batch");
  flags.AddInt("threads", &threads, "batch threads (0 = all hardware)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (engine != "pis" && engine != "topo" && engine != "naive") {
    return Fail(Status::InvalidArgument("unknown --engine " + engine));
  }
  if (batch && engine != "pis") {
    return Fail(Status::InvalidArgument("--batch requires --engine pis"));
  }
  auto db = LoadDb(db_path);
  if (!db.ok()) return Fail(db.status());
  // A directory index is a sharded index (build --shards > 1); only the
  // PIS engine understands it.
  const bool sharded =
      engine != "naive" && std::filesystem::is_directory(index_path);
  if (sharded && engine != "pis") {
    return Fail(Status::InvalidArgument(
        "sharded index directories require --engine pis"));
  }
  Result<FragmentIndex> index = Status::Internal("index not loaded");
  Result<ShardedFragmentIndex> sharded_index =
      Status::Internal("index not loaded");
  if (sharded) {
    sharded_index = ShardedFragmentIndex::LoadDir(index_path);
    if (!sharded_index.ok()) return Fail(sharded_index.status());
    if (sharded_index.value().db_size() != db.value().size()) {
      return Fail(Status::InvalidArgument(
          "index was built over a different database size"));
    }
  } else if (engine != "naive") {
    index = FragmentIndex::LoadFile(index_path);
    if (!index.ok()) return Fail(index.status());
    if (index.value().db_size() != db.value().size()) {
      return Fail(Status::InvalidArgument(
          "index was built over a different database size"));
    }
  }
  PisOptions options;
  options.sigma = sigma;
  if (batch) {
    if (sharded) {
      ShardedPisEngine pis_engine(&db.value(), &sharded_index.value(), options);
      return RunBatchQuery(pis_engine, query_path, threads);
    }
    PisEngine pis_engine(&db.value(), &index.value(), options);
    return RunBatchQuery(pis_engine, query_path, threads);
  }
  auto query = LoadQuery(query_path);
  if (!query.ok()) return Fail(query.status());

  Result<SearchResult> result = Status::Internal("no engine ran");
  if (engine == "naive") {
    result = NaiveSearch(db.value(), query.value(), DistanceSpec::EdgeMutation(),
                         sigma);
  } else if (engine == "pis" && sharded) {
    ShardedPisEngine pis_engine(&db.value(), &sharded_index.value(), options);
    result = pis_engine.Search(query.value());
  } else if (engine == "pis") {
    PisEngine pis_engine(&db.value(), &index.value(), options);
    result = pis_engine.Search(query.value());
  } else {
    TopoPruneEngine topo(&db.value(), &index.value());
    result = topo.Search(query.value(), sigma);
  }
  if (!result.ok()) return Fail(result.status());
  std::printf("candidates: %zu, answers: %zu\n",
              result.value().stats.candidates_final,
              result.value().answers.size());
  for (int gid : result.value().answers) std::printf("%d\n", gid);
  std::fprintf(stderr, "%s\n", result.value().stats.ToString().c_str());
  return 0;
}

int CmdTopK(int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  std::string query_path;
  int k = 10;
  FlagSet flags;
  flags.AddString("db", &db_path, "database path");
  flags.AddString("index", &index_path, "index path");
  flags.AddString("query", &query_path, "query graph file (one record)");
  flags.AddInt("k", &k, "number of nearest graphs");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  auto db = LoadDb(db_path);
  if (!db.ok()) return Fail(db.status());
  if (std::filesystem::is_directory(index_path)) {
    return Fail(Status::InvalidArgument(
        "topk does not support sharded index directories yet; build a "
        "single-file index (--shards 1)"));
  }
  auto index = FragmentIndex::LoadFile(index_path);
  if (!index.ok()) return Fail(index.status());
  auto query = LoadQuery(query_path);
  if (!query.ok()) return Fail(query.status());
  TopKOptions options;
  options.k = k;
  auto result = TopKSearch(db.value(), index.value(), query.value(), options);
  if (!result.ok()) return Fail(result.status());
  std::printf("top-%d (rounds=%d, final_sigma=%.2f, verifications=%zu):\n", k,
              result.value().rounds, result.value().final_sigma,
              result.value().verifications);
  for (const auto& [gid, d] : result.value().results) {
    std::printf("%d\t%.3f\n", gid, d);
  }
  return 0;
}

int CmdAdd(int argc, char** argv) {
  std::string db_path;
  std::string index_path;
  std::string graphs_path;
  FlagSet flags;
  flags.AddString("db", &db_path, "database path (rewritten with appends)");
  flags.AddString("index", &index_path, "index path (file or sharded dir)");
  flags.AddString("graphs", &graphs_path, "graphs to add (native text format)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (graphs_path.empty()) {
    return Fail(Status::InvalidArgument("--graphs is required"));
  }
  auto db = LoadDb(db_path);
  if (!db.ok()) return Fail(db.status());
  auto fresh = ReadGraphDatabaseFile(graphs_path);
  if (!fresh.ok()) return Fail(fresh.status());

  const bool sharded = std::filesystem::is_directory(index_path);
  Result<FragmentIndex> index = Status::Internal("index not loaded");
  Result<ShardedFragmentIndex> sharded_index =
      Status::Internal("index not loaded");
  int before = 0;
  if (sharded) {
    sharded_index = ShardedFragmentIndex::LoadDir(index_path);
    if (!sharded_index.ok()) return Fail(sharded_index.status());
    before = sharded_index.value().db_size();
  } else {
    index = FragmentIndex::LoadFile(index_path);
    if (!index.ok()) return Fail(index.status());
    before = index.value().db_size();
  }
  if (before != db.value().size()) {
    return Fail(Status::InvalidArgument(
        "index covers " + std::to_string(before) + " graphs but --db holds " +
        std::to_string(db.value().size())));
  }
  for (const Graph& g : fresh.value().graphs()) {
    Result<int> gid = sharded ? sharded_index.value().AddGraph(g)
                              : index.value().AddGraph(g);
    if (!gid.ok()) return Fail(gid.status());
    db.value().Add(g);
    std::printf("added graph %d\n", gid.value());
  }
  Status saved = sharded ? sharded_index.value().SaveDir(index_path)
                         : index.value().SaveFile(index_path);
  if (!saved.ok()) return Fail(saved);
  Status written = WriteGraphDatabaseFile(db.value(), db_path);
  if (!written.ok()) return Fail(written);
  std::printf("indexed %d graphs incrementally (database now %d)\n",
              fresh.value().size(), db.value().size());
  return 0;
}

int CmdRemove(int argc, char** argv) {
  std::string index_path;
  std::string ids;
  // -1 = flag not given: keep whatever policy the manifest persisted.
  // An explicit 0 clears the persisted policy; > 0 (re)arms it.
  double compact_dead_ratio = -1;
  FlagSet flags;
  flags.AddString("index", &index_path, "index path (file or sharded dir)");
  flags.AddString("ids", &ids, "comma-separated graph ids to remove");
  flags.AddDouble("compact_dead_ratio", &compact_dead_ratio,
                  "auto-compact a shard once its dead fraction reaches this "
                  "(sharded dirs only; 0 = clear the persisted policy, "
                  "-1 = keep it)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (ids.empty()) return Fail(Status::InvalidArgument("--ids is required"));
  std::vector<int> parsed;
  for (const std::string& token : Split(ids, ',')) {
    try {
      size_t used = 0;
      int id = std::stoi(token, &used);
      if (used != token.size()) throw std::invalid_argument(token);
      parsed.push_back(id);
    } catch (...) {
      return Fail(Status::InvalidArgument("bad graph id '" + token +
                                          "' in --ids"));
    }
  }

  const bool sharded = std::filesystem::is_directory(index_path);
  Result<FragmentIndex> index = Status::Internal("index not loaded");
  Result<ShardedFragmentIndex> sharded_index =
      Status::Internal("index not loaded");
  if (compact_dead_ratio > 1) {
    return Fail(
        Status::InvalidArgument("--compact_dead_ratio must be <= 1"));
  }
  if (sharded) {
    sharded_index = ShardedFragmentIndex::LoadDir(index_path);
    if (!sharded_index.ok()) return Fail(sharded_index.status());
    // Only an explicit flag overrides the policy the manifest persisted
    // (v4); the unset default must not erase a server's configured ratio
    // on the next save.
    if (compact_dead_ratio >= 0) {
      sharded_index.value().set_compact_dead_ratio(compact_dead_ratio);
    }
  } else {
    index = FragmentIndex::LoadFile(index_path);
    if (!index.ok()) return Fail(index.status());
  }
  const int epoch_before =
      sharded ? sharded_index.value().compaction_epoch() : 0;
  int removed = 0;
  for (int id : parsed) {
    Status status = sharded ? sharded_index.value().RemoveGraph(id)
                            : index.value().RemoveGraph(id);
    if (!status.ok()) {
      std::fprintf(stderr, "skip %d: %s\n", id, status.ToString().c_str());
      continue;
    }
    ++removed;
    std::printf("removed graph %d\n", id);
  }
  if (removed > 0) {
    // Nothing changed when every id was skipped; don't rewrite the index.
    Status saved = sharded ? sharded_index.value().SaveDir(index_path)
                           : index.value().SaveFile(index_path);
    if (!saved.ok()) return Fail(saved);
  }
  const int live = sharded ? sharded_index.value().num_live()
                           : index.value().num_live();
  std::printf("removed %d of %zu ids (%d live graphs remain)\n", removed,
              parsed.size(), live);
  if (sharded && sharded_index.value().compaction_epoch() > epoch_before) {
    // Epoch delta counts compaction runs, not distinct shards — one shard
    // can cross the threshold more than once in a single invocation.
    // The effective ratio may come from the flag or the persisted policy.
    std::printf("ran %d auto-compaction(s) past dead ratio %.2f\n",
                sharded_index.value().compaction_epoch() - epoch_before,
                sharded_index.value().compact_dead_ratio());
  }
  return removed == static_cast<int>(parsed.size()) ? 0 : 1;
}

int CmdCompact(int argc, char** argv) {
  std::string index_path;
  std::string db_path;
  double min_dead_ratio = 0.0;
  bool rebalance = false;
  FlagSet flags;
  flags.AddString("index", &index_path, "index path (file or sharded dir)");
  flags.AddString("db", &db_path,
                  "database path (required for single-file indexes, which "
                  "re-densify ids, and for --rebalance)");
  flags.AddDouble("min_dead_ratio", &min_dead_ratio,
                  "only compact shards at or above this dead fraction "
                  "(sharded dirs; 0 = every shard with tombstones)");
  flags.AddBool("rebalance", &rebalance,
                "also migrate graphs off overloaded shards (sharded dirs)");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kAlreadyExists) return 0;
  if (!st.ok()) return Fail(st);
  if (index_path.empty()) {
    return Fail(Status::InvalidArgument("--index is required"));
  }
  const uintmax_t bytes_before = PathBytes(index_path);

  if (std::filesystem::is_directory(index_path)) {
    auto sharded = ShardedFragmentIndex::LoadDir(index_path);
    if (!sharded.ok()) return Fail(sharded.status());
    auto compacted = sharded.value().Compact(min_dead_ratio);
    if (!compacted.ok()) return Fail(compacted.status());
    int migrated = 0;
    if (rebalance) {
      auto db = LoadDb(db_path);
      if (!db.ok()) return Fail(db.status());
      // Rebalance itself validates the db/index alignment.
      auto moved = sharded.value().Rebalance(db.value());
      if (!moved.ok()) return Fail(moved.status());
      migrated = moved.value();
    }
    if (compacted.value() == 0 && migrated == 0) {
      // Nothing changed; don't rewrite a healthy on-disk index in place.
      std::printf("nothing to compact (%d live of %d slots)\n",
                  sharded.value().num_live(), sharded.value().db_size());
      return 0;
    }
    // Stage the rewrite beside the live directory and swap via renames, so
    // a crash or full disk mid-write can't strand a manifest that
    // disagrees with its shard files (LoadDir would reject the directory).
    const std::string staged = index_path + ".compact.tmp";
    const std::string retired = index_path + ".compact.old";
    std::error_code ec;
    std::filesystem::remove_all(staged, ec);
    std::filesystem::remove_all(retired, ec);
    Status saved = sharded.value().SaveDir(staged);
    if (!saved.ok()) return Fail(saved);
    std::filesystem::rename(index_path, retired, ec);
    if (!ec) std::filesystem::rename(staged, index_path, ec);
    if (ec) {
      return Fail(Status::IOError("compaction staged but rename failed: " +
                                  ec.message()));
    }
    std::filesystem::remove_all(retired, ec);
    std::printf(
        "compacted %d shard(s), migrated %d graph(s); %d live of %d slots; "
        "%ju -> %ju bytes on disk\n",
        compacted.value(), migrated, sharded.value().num_live(),
        sharded.value().db_size(), static_cast<uintmax_t>(bytes_before),
        static_cast<uintmax_t>(PathBytes(index_path)));
    return 0;
  }

  if (rebalance) {
    return Fail(Status::InvalidArgument(
        "--rebalance requires a sharded index directory"));
  }
  auto index = FragmentIndex::LoadFile(index_path);
  if (!index.ok()) return Fail(index.status());
  if (index.value().tombstones().empty()) {
    std::printf("nothing to compact (0 dead of %d slots)\n",
                index.value().db_size());
    return 0;
  }
  // Single-file compaction re-densifies graph ids, so the aligned database
  // must shed its removed records in the same pass or every later query
  // would mis-map ids.
  auto db = LoadDb(db_path);
  if (!db.ok()) return Fail(db.status());
  if (db.value().size() != index.value().db_size()) {
    return Fail(Status::InvalidArgument(
        "index covers " + std::to_string(index.value().db_size()) +
        " graphs but --db holds " + std::to_string(db.value().size())));
  }
  const std::vector<int> remap = index.value().Compact();
  GraphDatabase compacted;
  for (int gid = 0; gid < static_cast<int>(remap.size()); ++gid) {
    if (remap[gid] >= 0) compacted.Add(db.value().at(gid));
  }
  // The index and db must move together or their ids misalign forever (the
  // remap lives only in this process). Stage both next to their targets and
  // rename at the end, so any single failure leaves the old aligned pair —
  // or at worst a fully written new db with the old index, which the next
  // run's size check rejects loudly instead of serving wrong ids.
  const std::string index_tmp = index_path + ".compact.tmp";
  const std::string db_tmp = db_path + ".compact.tmp";
  Status saved = index.value().SaveFile(index_tmp);
  if (!saved.ok()) return Fail(saved);
  Status written = WriteGraphDatabaseFile(compacted, db_tmp);
  if (!written.ok()) return Fail(written);
  std::error_code rename_ec;
  std::filesystem::rename(db_tmp, db_path, rename_ec);
  if (!rename_ec) std::filesystem::rename(index_tmp, index_path, rename_ec);
  if (rename_ec) {
    return Fail(Status::IOError("compaction staged but rename failed: " +
                                rename_ec.message()));
  }
  std::printf(
      "compacted index: %d live graphs re-densified (ids changed!), db file "
      "rewritten; %ju -> %ju bytes on disk\n",
      index.value().db_size(), static_cast<uintmax_t>(bytes_before),
      static_cast<uintmax_t>(PathBytes(index_path)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return FailUsage();
  std::string cmd = argv[1];
  // Shift argv so subcommand flags parse from index 1.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (cmd == "generate") return CmdGenerate(sub_argc, sub_argv);
  if (cmd == "convert") return CmdConvert(sub_argc, sub_argv);
  if (cmd == "build") return CmdBuild(sub_argc, sub_argv);
  if (cmd == "stats") return CmdStats(sub_argc, sub_argv);
  if (cmd == "query") return CmdQuery(sub_argc, sub_argv);
  if (cmd == "topk") return CmdTopK(sub_argc, sub_argv);
  if (cmd == "add") return CmdAdd(sub_argc, sub_argv);
  if (cmd == "remove") return CmdRemove(sub_argc, sub_argv);
  if (cmd == "compact") return CmdCompact(sub_argc, sub_argv);
  return FailUsage();
}
