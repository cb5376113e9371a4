#include "index/fragment_index.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "canonical/min_dfs.h"
#include "util/fs_util.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/timer.h"

namespace pis {

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace

uint64_t StructureSignature(const Graph& g) {
  std::vector<int> degrees(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) degrees[v] = g.Degree(v);
  std::sort(degrees.begin(), degrees.end());
  uint64_t h = HashCombine(static_cast<uint64_t>(g.NumVertices()),
                           static_cast<uint64_t>(g.NumEdges()) * 1315423911ULL);
  for (int d : degrees) h = HashCombine(h, static_cast<uint64_t>(d));
  return h;
}

template <typename VertexAt, typename EdgeAt>
void FragmentIndex::AppendVectors(const Graph& g, bool vertex_labels,
                                  size_t nv, VertexAt vertex, size_t ne,
                                  EdgeAt edge, std::vector<Label>* labels,
                                  std::vector<double>* weights) const {
  const DistanceSpec& spec = options_.spec;
  if (vertex_labels) {
    for (size_t i = 0; i < nv; ++i) labels->push_back(g.VertexLabel(vertex(i)));
  }
  for (size_t k = 0; k < ne; ++k) labels->push_back(g.GetEdge(edge(k)).label);
  if (spec.type == DistanceType::kLinear) {
    const size_t before = weights->size();
    if (spec.use_vertex_weights) {
      for (size_t i = 0; i < nv; ++i) {
        weights->push_back(g.VertexWeight(vertex(i)));
      }
    }
    if (spec.use_edge_weights) {
      for (size_t k = 0; k < ne; ++k) weights->push_back(g.GetEdge(edge(k)).weight);
    }
    // Degenerate 1-dim point.
    if (weights->size() == before) weights->push_back(0.0);
  }
}

const SkeletonClass* SkeletonCache::Find(const PatternKey& key) const {
  MutexLock lock(&mu_);
  auto it = classes_.find(key);
  return it == classes_.end() ? nullptr : &it->second;
}

const SkeletonClass* SkeletonCache::Insert(const PatternKey& key,
                                           SkeletonClass cls) {
  MutexLock lock(&mu_);
  return &classes_.try_emplace(key, std::move(cls)).first->second;
}

SkeletonMemo::SkeletonMemo(const FragmentIndex& index)
    : index_(index),
      cache_(*index.skeletons_),
      vertex_labels_(index.SequenceHasVertexLabels()) {}

Result<const SkeletonClass*> SkeletonMemo::Classify(
    const Graph& host, std::span<const EdgeId> subset) {
  // Number the subset's vertices exactly as Graph::EdgeSubgraph does (by
  // first appearance, u before v), packing the pattern as it goes.
  if (host_to_local_.size() < static_cast<size_t>(host.NumVertices())) {
    host_to_local_.resize(host.NumVertices(), kInvalidVertex);
  }
  for (VertexId v : local_to_host_) host_to_local_[v] = kInvalidVertex;
  local_to_host_.clear();
  auto local_id = [this](VertexId old) -> uint64_t {
    if (host_to_local_[old] == kInvalidVertex) {
      host_to_local_[old] = static_cast<VertexId>(local_to_host_.size());
      local_to_host_.push_back(old);
    }
    return static_cast<uint64_t>(host_to_local_[old]);
  };
  PatternKey key;
  for (size_t i = 0; i < subset.size(); ++i) {
    const Edge& edge = host.GetEdge(subset[i]);
    const uint64_t u = local_id(edge.u);
    const uint64_t pair = u | local_id(edge.v) << 4;
    if (i < 8) {
      key.lo |= pair << (8 * i);
    } else if (i < PatternKey::kMaxEdges) {
      key.hi |= pair << (8 * (i - 8));
    }
  }
  if (subset.empty() || subset.size() > PatternKey::kMaxEdges) {
    return ClassifyNew(host, subset, &uncached_);
  }
  key.hi |= static_cast<uint64_t>(subset.size()) << 56;

  auto seen = seen_.find(key);
  if (seen != seen_.end()) return seen->second;
  const SkeletonClass* cls = cache_.Find(key);
  if (cls == nullptr) {
    // New to every scan: classify outside the cache's lock, then publish
    // (a concurrent scan may have published the same result first).
    SkeletonClass fresh;
    PIS_RETURN_NOT_OK(ClassifyNew(host, subset, &fresh).status());
    cls = cache_.Insert(key, std::move(fresh));
  }
  seen_.emplace(key, cls);
  return cls;
}

Result<const SkeletonClass*> SkeletonMemo::ClassifyNew(
    const Graph& host, std::span<const EdgeId> subset,
    SkeletonClass* out) const {
  *out = SkeletonClass();
  Graph fragment =
      host.EdgeSubgraph(std::vector<EdgeId>(subset.begin(), subset.end()));
  if (index_.signatures_.count(StructureSignature(fragment)) == 0) {
    out->skipped_by_signature = true;
    return out;
  }
  CanonicalOptions all_embeddings;
  all_embeddings.use_labels = false;
  all_embeddings.first_embedding_only = false;
  PIS_ASSIGN_OR_RETURN(CanonicalForm form, MinDfsCode(fragment, all_embeddings));
  auto found = index_.class_by_key_.find(form.Key());
  if (found != index_.class_by_key_.end()) {
    out->class_id = found->second;
    out->embeddings = std::move(form.embeddings);
  }
  return out;
}

void SkeletonMemo::AppendVectors(const Graph& host,
                                 std::span<const EdgeId> subset,
                                 const CanonicalEmbedding& embedding,
                                 std::vector<Label>* labels,
                                 std::vector<double>* weights) const {
  index_.AppendVectors(
      host, vertex_labels_, embedding.vertex_order.size(),
      [&](size_t i) { return local_to_host_[embedding.vertex_order[i]]; },
      embedding.edge_order.size(),
      [&](size_t k) { return subset[embedding.edge_order[k]]; }, labels,
      weights);
}

void SkeletonMemo::Vectors(const Graph& host, std::span<const EdgeId> subset,
                           const CanonicalEmbedding& embedding,
                           std::vector<Label>* labels,
                           std::vector<double>* weights) const {
  labels->clear();
  weights->clear();
  AppendVectors(host, subset, embedding, labels, weights);
}

Result<FragmentIndex> FragmentIndex::Build(const GraphDatabase& db,
                                           const std::vector<Graph>& features,
                                           const FragmentIndexOptions& options) {
  if (options.min_fragment_edges < 1 ||
      options.max_fragment_edges < options.min_fragment_edges) {
    return Status::InvalidArgument("invalid fragment size bounds");
  }
  Timer timer;
  FragmentIndex index;
  index.options_ = options;
  index.spec_holder_ = std::make_shared<const DistanceSpec>(options.spec);
  index.skeletons_ = std::make_shared<SkeletonCache>();
  index.db_size_ = db.size();

  // Register classes from the feature set.
  CanonicalOptions skeleton_opts;
  skeleton_opts.use_labels = false;
  skeleton_opts.first_embedding_only = true;
  for (const Graph& f : features) {
    if (f.NumEdges() < options.min_fragment_edges ||
        f.NumEdges() > options.max_fragment_edges) {
      continue;
    }
    PIS_ASSIGN_OR_RETURN(CanonicalForm form, MinDfsCode(f, skeleton_opts));
    std::string key = form.Key();
    if (index.class_by_key_.count(key) > 0) continue;
    int class_id = static_cast<int>(index.classes_.size());
    index.class_by_key_.emplace(key, class_id);
    index.classes_.push_back(std::make_unique<EquivalenceClassIndex>(
        key, f.NumVertices(), f.NumEdges(), index.spec_holder_.get()));
    index.signatures_.insert(StructureSignature(f));
  }
  index.stats_.num_classes = index.classes_.size();

  // Scan the database: every connected fragment whose skeleton is a
  // registered class is inserted under all its automorphism-induced
  // sequences. The index canonicalizes a local edge pattern once and reuses
  // the result for every subset that shares it (SkeletonCache; exact
  // because the skeleton's canonical form depends only on that pattern).
  // Parallel builds scan contiguous graph-id ranges, each through its own
  // memo; insertion stays sequential in graph-id order, so posting lists
  // grow by appends.
  if (options.num_threads > 1) {
    const size_t num_graphs = db.size();
    const size_t num_ranges =
        std::min(static_cast<size_t>(options.num_threads), num_graphs);
    std::vector<PendingFragments> pending(num_graphs);
    std::vector<ExtractStats> stats(num_graphs);
    std::vector<Status> failures(num_graphs);
    ParallelFor(num_ranges, options.num_threads, [&](size_t range) {
      SkeletonMemo memo(index);
      const size_t end = num_graphs * (range + 1) / num_ranges;
      for (size_t gid = num_graphs * range / num_ranges; gid < end; ++gid) {
        failures[gid] = index.ExtractGraphFragments(
            db.at(static_cast<int>(gid)), &memo, &pending[gid], &stats[gid]);
        if (!failures[gid].ok()) return;
      }
    });
    for (int gid = 0; gid < db.size(); ++gid) {
      PIS_RETURN_NOT_OK(failures[gid]);
      index.ApplyExtraction(gid, pending[gid], stats[gid]);
    }
  } else {
    SkeletonMemo memo(index);
    PendingFragments pending;
    for (int gid = 0; gid < db.size(); ++gid) {
      pending.clear();
      ExtractStats stats;
      PIS_RETURN_NOT_OK(
          index.ExtractGraphFragments(db.at(gid), &memo, &pending, &stats));
      index.ApplyExtraction(gid, pending, stats);
    }
  }
  for (auto& cls : index.classes_) cls->Finalize();
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

Status FragmentIndex::ExtractGraphFragments(const Graph& g, SkeletonMemo* memo,
                                            PendingFragments* out,
                                            ExtractStats* stats) const {
  FragmentEnumOptions enum_opts;
  enum_opts.min_edges = options_.min_fragment_edges;
  enum_opts.max_edges = options_.max_fragment_edges;

  Status failure = Status::OK();
  ForEachConnectedEdgeSubset(g, enum_opts, [&](const std::vector<EdgeId>&
                                                   subset) {
    ++stats->subsets;
    Result<const SkeletonClass*> classified = memo->Classify(g, subset);
    if (!classified.ok()) {
      failure = classified.status();
      return false;
    }
    const SkeletonClass& cls = *classified.value();
    if (cls.skipped_by_signature) {
      ++stats->skipped_by_signature;
      return true;
    }
    if (cls.class_id < 0) return true;
    ++stats->occurrences;
    // Distinct sequences only: symmetric labels make many automorphisms
    // collide. Each sequence is written straight into the pending buffers
    // and taken back if it repeats one of this subset's earlier ones.
    const size_t first = out->entries.size();
    for (const CanonicalEmbedding& emb : cls.embeddings) {
      const size_t labels_begin = out->labels.size();
      const size_t weights_begin = out->weights.size();
      memo->AppendVectors(g, subset, emb, &out->labels, &out->weights);
      const std::span<const Label> labels(out->labels.data() + labels_begin,
                                          out->labels.size() - labels_begin);
      const std::span<const double> weights(
          out->weights.data() + weights_begin,
          out->weights.size() - weights_begin);
      bool duplicate = false;
      for (size_t i = first; i < out->entries.size() && !duplicate; ++i) {
        duplicate = std::ranges::equal(out->Labels(i), labels) &&
                    std::ranges::equal(out->Weights(i), weights);
      }
      if (duplicate) {
        out->labels.resize(labels_begin);
        out->weights.resize(weights_begin);
        continue;
      }
      out->entries.push_back({cls.class_id,
                              static_cast<uint32_t>(out->labels.size()),
                              static_cast<uint32_t>(out->weights.size())});
    }
    return true;
  });
  return failure;
}

void FragmentIndex::ApplyExtraction(int gid, const PendingFragments& pending,
                                    const ExtractStats& stats) {
  // Most of a graph's sequences repeat one it already brought to the same
  // class. A trie class keeps one posting per sequence and graph, so there
  // a repeat is only counted; a per-graph hash set of (class, labels) spots
  // it without walking the trie, which takes about a fifth off a build.
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t capacity = 16;
  while (capacity < 2 * pending.entries.size()) capacity *= 2;
  std::vector<uint32_t> seen(capacity, kEmpty);
  for (size_t i = 0; i < pending.entries.size(); ++i) {
    const int class_id = pending.entries[i].class_id;
    EquivalenceClassIndex& cls = *classes_[class_id];
    const std::span<const Label> labels = pending.Labels(i);
    if (cls.CollapsesRepeats()) {
      uint64_t h = static_cast<uint64_t>(class_id);
      for (Label l : labels) h = HashCombine(h, static_cast<uint64_t>(l));
      size_t slot = static_cast<size_t>(h) & (capacity - 1);
      bool repeat = false;
      for (; seen[slot] != kEmpty; slot = (slot + 1) & (capacity - 1)) {
        const uint32_t other = seen[slot];
        if (pending.entries[other].class_id == class_id &&
            std::ranges::equal(pending.Labels(other), labels)) {
          repeat = true;
          break;
        }
      }
      if (repeat) {
        cls.CountRepeat();
        continue;
      }
      seen[slot] = static_cast<uint32_t>(i);
    }
    cls.Insert(labels, pending.Weights(i), gid);
  }
  stats_.num_subsets_enumerated += stats.subsets;
  stats_.num_subsets_skipped_by_signature += stats.skipped_by_signature;
  stats_.num_fragment_occurrences += stats.occurrences;
  stats_.num_sequences_inserted += pending.entries.size();
}

Result<int> FragmentIndex::AddGraph(const Graph& g) {
  int gid = db_size_;
  PendingFragments pending;
  ExtractStats stats;
  SkeletonMemo memo(*this);
  PIS_RETURN_NOT_OK(ExtractGraphFragments(g, &memo, &pending, &stats));
  // The new id is above every posting, so each insert is an append and the
  // touched classes need no re-sort: the add costs what the new graph
  // brings, not what the index holds.
  ApplyExtraction(gid, pending, stats);
  ++db_size_;
  return gid;
}

Status FragmentIndex::RemoveGraph(int gid) {
  if (gid < 0 || gid >= db_size_) {
    return Status::NotFound("graph id " + std::to_string(gid) +
                            " is outside the indexed database");
  }
  if (!tombstones_.insert(gid).second) {
    return Status::NotFound("graph id " + std::to_string(gid) +
                            " was already removed");
  }
  return Status::OK();
}

std::vector<int> FragmentIndex::Compact() {
  std::vector<int> remap(db_size_);
  if (tombstones_.empty()) {
    // Strict no-op: identity remap, no epoch bump, so Save() stays
    // byte-identical (the zero-tombstone contract the tests pin down).
    for (int gid = 0; gid < db_size_; ++gid) remap[gid] = gid;
    return remap;
  }
  int next = 0;
  for (int gid = 0; gid < db_size_; ++gid) {
    remap[gid] = tombstones_.count(gid) > 0 ? -1 : next++;
  }
  size_t sequences = 0;
  for (auto& cls : classes_) {
    cls->Compact(remap);
    sequences += cls->num_fragments();
  }
  db_size_ = next;
  tombstones_.clear();
  ++compaction_epoch_;
  // Build-scan counters (subsets enumerated, occurrences) are history of
  // scans that included the dead graphs; the sequence count is the one
  // statistic the rewrite re-derives exactly.
  stats_.num_sequences_inserted = sequences;
  return remap;
}

Result<PreparedFragment> FragmentIndex::Prepare(const Graph& fragment) const {
  CanonicalOptions opts;
  opts.use_labels = false;
  opts.first_embedding_only = true;
  PIS_ASSIGN_OR_RETURN(CanonicalForm form, MinDfsCode(fragment, opts));
  auto it = class_by_key_.find(form.Key());
  if (it == class_by_key_.end()) {
    return Status::NotFound("fragment skeleton is not an indexed class");
  }
  PreparedFragment prepared;
  prepared.class_id = it->second;
  prepared.num_edges = fragment.NumEdges();
  const CanonicalEmbedding& emb = form.embeddings[0];
  AppendVectors(
      fragment, SequenceHasVertexLabels(), emb.vertex_order.size(),
      [&](size_t i) { return emb.vertex_order[i]; }, emb.edge_order.size(),
      [&](size_t k) { return emb.edge_order[k]; }, &prepared.labels,
      &prepared.weights);
  return prepared;
}

Status FragmentIndex::RangeQuery(const PreparedFragment& fragment, double sigma,
                                 const ClassMatchCallback& cb) const {
  if (fragment.class_id < 0 ||
      fragment.class_id >= static_cast<int>(classes_.size())) {
    return Status::InvalidArgument("bad prepared fragment");
  }
  if (tombstones_.empty()) {
    return classes_[fragment.class_id]->RangeQuery(fragment.labels,
                                                   fragment.weights, sigma, cb);
  }
  // Tombstoned graphs keep their postings; filter them at the emit point so
  // every caller sees exactly the live database.
  return classes_[fragment.class_id]->RangeQuery(
      fragment.labels, fragment.weights, sigma, [this, &cb](int gid, double d) {
        if (tombstones_.count(gid) == 0) cb(gid, d);
      });
}

Status FragmentIndex::RangeQuery(const Graph& fragment, double sigma,
                                 const ClassMatchCallback& cb) const {
  PIS_ASSIGN_OR_RETURN(PreparedFragment prepared, Prepare(fragment));
  return RangeQuery(prepared, sigma, cb);
}

namespace {
constexpr uint32_t kIndexMagic = 0x50495358;  // "PISX"
// The only layout this build reads or writes: header, signatures, classes,
// then the sorted tombstone list, the compaction epoch and the live count
// (cross-checked against db_size minus tombstones on load). Versions 1-4
// are refused (kLastRetiredFormatReader is the last commit that reads them).
constexpr uint32_t kIndexVersion = 5;

void SerializeSpec(const DistanceSpec& spec, BinaryWriter* writer) {
  writer->U8(static_cast<uint8_t>(spec.type));
  spec.vertex_scores.Serialize(writer);
  spec.edge_scores.Serialize(writer);
  writer->U8(spec.use_vertex_weights ? 1 : 0);
  writer->U8(spec.use_edge_weights ? 1 : 0);
}

Result<DistanceSpec> DeserializeSpec(BinaryReader* reader) {
  DistanceSpec spec;
  uint8_t type = reader->U8();
  if (type > 1) return Status::ParseError("bad distance type");
  spec.type = static_cast<DistanceType>(type);
  PIS_ASSIGN_OR_RETURN(spec.vertex_scores, ScoreMatrix::Deserialize(reader));
  PIS_ASSIGN_OR_RETURN(spec.edge_scores, ScoreMatrix::Deserialize(reader));
  spec.use_vertex_weights = reader->U8() != 0;
  spec.use_edge_weights = reader->U8() != 0;
  PIS_RETURN_NOT_OK(reader->Check("distance spec"));
  return spec;
}

}  // namespace

Status FragmentIndex::Serialize(BinaryWriter* out) const {
  BinaryWriter& writer = *out;
  writer.U32(kIndexMagic);
  writer.U32(kIndexVersion);
  writer.I32(options_.min_fragment_edges);
  writer.I32(options_.max_fragment_edges);
  SerializeSpec(options_.spec, &writer);
  // Retired backend-override flag: always 0 (Load refuses a set one).
  writer.U8(0);
  writer.I32(db_size_);
  // Build statistics (informational, preserved across load).
  writer.U64(stats_.num_fragment_occurrences);
  writer.U64(stats_.num_sequences_inserted);
  writer.U64(stats_.num_subsets_enumerated);
  writer.U64(stats_.num_subsets_skipped_by_signature);
  // Signature set for the subset prefilter, sorted so Save is a pure
  // function of the index state (the unordered_set's iteration order is
  // not — it depends on insertion history, which a Load resets).
  std::vector<uint64_t> signatures(signatures_.begin(), signatures_.end());
  std::sort(signatures.begin(), signatures.end());
  writer.U64(signatures.size());
  for (uint64_t sig : signatures) writer.U64(sig);
  writer.U64(classes_.size());
  for (const auto& cls : classes_) {
    PIS_RETURN_NOT_OK(cls->Serialize(&writer));
  }
  // Sorted tombstone ids, then the compaction epoch and the live count.
  std::vector<int> dead(tombstones_.begin(), tombstones_.end());
  std::sort(dead.begin(), dead.end());
  writer.VecInt(dead);
  writer.U32(compaction_epoch_);
  writer.I32(num_live());
  return Status::OK();
}

Status FragmentIndex::Save(std::ostream& out) const {
  BinaryWriter writer;
  PIS_RETURN_NOT_OK(Serialize(&writer));
  out.write(writer.buffer().data(),
            static_cast<std::streamsize>(writer.buffer().size()));
  if (!out) return Status::IOError("index write failed");
  return Status::OK();
}

Result<FragmentIndex> FragmentIndex::Clone() const {
  FragmentIndex copy;
  copy.options_ = options_;
  copy.spec_holder_ = spec_holder_;
  copy.db_size_ = db_size_;
  copy.class_by_key_ = class_by_key_;
  copy.classes_.reserve(classes_.size());
  for (const auto& cls : classes_) {
    copy.classes_.push_back(std::make_unique<EquivalenceClassIndex>(*cls));
  }
  copy.signatures_ = signatures_;
  copy.skeletons_ = skeletons_;
  copy.tombstones_ = tombstones_;
  copy.compaction_epoch_ = compaction_epoch_;
  copy.stats_ = stats_;
  return copy;
}

Status FragmentIndex::SaveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  return Save(out);
}

Result<FragmentIndex> FragmentIndex::Load(std::istream& in) {
  BinaryReader reader(in);
  return Parse(&reader);
}

Result<FragmentIndex> FragmentIndex::Parse(BinaryReader* in) {
  BinaryReader& reader = *in;
  if (reader.U32() != kIndexMagic) {
    return Status::ParseError("not a PIS index file (bad magic)");
  }
  const uint32_t version = reader.U32();
  if (version != kIndexVersion) {
    return Status::ParseError(
        UnsupportedVersionMessage("index", version, kIndexVersion));
  }
  FragmentIndex index;
  index.options_.min_fragment_edges = reader.I32();
  index.options_.max_fragment_edges = reader.I32();
  PIS_ASSIGN_OR_RETURN(index.options_.spec, DeserializeSpec(&reader));
  // Only builds before the VP-tree backend's removal set the override flag.
  if (reader.U8() != 0) {
    return Status::ParseError(
        std::string("index sets the retired backend-override flag; commit ") +
        kLastRetiredFormatReader + " is the last that reads such a file");
  }
  index.spec_holder_ = std::make_shared<const DistanceSpec>(index.options_.spec);
  index.skeletons_ = std::make_shared<SkeletonCache>();
  index.db_size_ = reader.I32();
  index.stats_.num_fragment_occurrences = reader.U64();
  index.stats_.num_sequences_inserted = reader.U64();
  index.stats_.num_subsets_enumerated = reader.U64();
  index.stats_.num_subsets_skipped_by_signature = reader.U64();
  uint64_t num_signatures = reader.ReadCount(8);
  PIS_RETURN_NOT_OK(reader.Check("index header"));
  for (uint64_t i = 0; i < num_signatures; ++i) {
    index.signatures_.insert(reader.U64());
  }
  uint64_t num_classes = reader.ReadCount(16);
  PIS_RETURN_NOT_OK(reader.Check("index signatures"));
  for (uint64_t i = 0; i < num_classes; ++i) {
    PIS_ASSIGN_OR_RETURN(
        std::unique_ptr<EquivalenceClassIndex> cls,
        EquivalenceClassIndex::Deserialize(&reader, index.spec_holder_.get()));
    int class_id = static_cast<int>(index.classes_.size());
    if (!index.class_by_key_.emplace(cls->key(), class_id).second) {
      return Status::ParseError("duplicate class key in index file");
    }
    index.classes_.push_back(std::move(cls));
  }
  index.stats_.num_classes = index.classes_.size();
  std::vector<int> dead = reader.VecInt();
  PIS_RETURN_NOT_OK(reader.Check("index tombstones"));
  for (int gid : dead) {
    if (gid < 0 || gid >= index.db_size_ ||
        !index.tombstones_.insert(gid).second) {
      return Status::ParseError("bad tombstone id in index file");
    }
  }
  index.compaction_epoch_ = reader.U32();
  const int32_t live = reader.I32();
  PIS_RETURN_NOT_OK(reader.Check("index compaction trailer"));
  if (live != index.num_live()) {
    return Status::ParseError(
        "index live count " + std::to_string(live) +
        " disagrees with db_size minus tombstones (" +
        std::to_string(index.num_live()) + ")");
  }
  return index;
}

Result<FragmentIndex> FragmentIndex::LoadFile(const std::string& path) {
  std::string bytes;
  PIS_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  BinaryReader reader(bytes);
  return Parse(&reader);
}

bool FragmentIndex::HasClass(const Graph& fragment) const {
  CanonicalOptions opts;
  opts.use_labels = false;
  opts.first_embedding_only = true;
  Result<CanonicalForm> form = MinDfsCode(fragment, opts);
  if (!form.ok()) return false;
  return class_by_key_.count(form.value().Key()) > 0;
}

}  // namespace pis
