#include "index/fragment_index.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "canonical/min_dfs.h"
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

void FragmentIndex::BuildVectors(const Graph& fragment,
                                 const std::vector<VertexId>& vorder,
                                 const std::vector<EdgeId>& eorder,
                                 std::vector<Label>* labels,
                                 std::vector<double>* weights) const {
  labels->clear();
  weights->clear();
  labels->reserve(vorder.size() + eorder.size());
  // Mirror EquivalenceClassIndex::NumVertexPositions(): vertex labels are
  // omitted when the vertex score matrix can never contribute cost.
  if (!options_.spec.vertex_scores.IsZero()) {
    for (VertexId v : vorder) labels->push_back(fragment.VertexLabel(v));
  }
  for (EdgeId e : eorder) labels->push_back(fragment.GetEdge(e).label);
  if (options_.spec.type == DistanceType::kLinear) {
    if (options_.spec.use_vertex_weights) {
      for (VertexId v : vorder) weights->push_back(fragment.VertexWeight(v));
    }
    if (options_.spec.use_edge_weights) {
      for (EdgeId e : eorder) weights->push_back(fragment.GetEdge(e).weight);
    }
    if (weights->empty()) weights->push_back(0.0);  // degenerate 1-dim point
  }
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
  index.db_size_ = db.size();
  ClassBackend backend =
      options.backend.value_or(DefaultBackend(options.spec.type));

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
        key, f.NumVertices(), f.NumEdges(), backend, index.spec_holder_.get()));
    index.signatures_.insert(StructureSignature(f));
  }
  index.stats_.num_classes = index.classes_.size();

  // Scan the database: every connected fragment whose skeleton is a
  // registered class is inserted under all its automorphism-induced
  // sequences. Extraction (canonicalization — the expensive part) is
  // parallel; insertion stays sequential in graph-id order so per-class
  // dedup assumptions hold.
  if (options.num_threads > 1) {
    std::vector<std::vector<PendingInsert>> pending(db.size());
    std::vector<ExtractStats> stats(db.size());
    std::vector<Status> failures(db.size());
    ParallelFor(db.size(), options.num_threads, [&](size_t gid) {
      failures[gid] =
          index.ExtractGraphFragments(db.at(static_cast<int>(gid)),
                                      &pending[gid], &stats[gid]);
    });
    for (int gid = 0; gid < db.size(); ++gid) {
      PIS_RETURN_NOT_OK(failures[gid]);
      index.ApplyExtraction(gid, pending[gid], stats[gid]);
    }
  } else {
    for (int gid = 0; gid < db.size(); ++gid) {
      PIS_RETURN_NOT_OK(index.InsertGraphFragments(gid, db.at(gid)));
    }
  }
  for (auto& cls : index.classes_) cls->Finalize();
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

Status FragmentIndex::ExtractGraphFragments(const Graph& g,
                                            std::vector<PendingInsert>* out,
                                            ExtractStats* stats) const {
  FragmentEnumOptions enum_opts;
  enum_opts.min_edges = options_.min_fragment_edges;
  enum_opts.max_edges = options_.max_fragment_edges;
  CanonicalOptions all_embeddings;
  all_embeddings.use_labels = false;
  all_embeddings.first_embedding_only = false;

  Status failure = Status::OK();
  std::vector<Label> labels;
  std::vector<double> weights;
  EnumerateConnectedEdgeSubgraphs(g, enum_opts, [&](const std::vector<EdgeId>&
                                                        subset) {
    ++stats->subsets;
    Graph fragment = g.EdgeSubgraph(subset);
    if (signatures_.count(StructureSignature(fragment)) == 0) {
      ++stats->skipped_by_signature;
      return true;
    }
    Result<CanonicalForm> form = MinDfsCode(fragment, all_embeddings);
    if (!form.ok()) {
      failure = form.status();
      return false;
    }
    auto it = class_by_key_.find(form.value().Key());
    if (it == class_by_key_.end()) return true;
    ++stats->occurrences;
    // Distinct sequences only: symmetric labels make many automorphisms
    // collide.
    size_t first = out->size();
    for (const CanonicalEmbedding& emb : form.value().embeddings) {
      BuildVectors(fragment, emb.vertex_order, emb.edge_order, &labels, &weights);
      bool duplicate = false;
      for (size_t i = first; i < out->size(); ++i) {
        if ((*out)[i].labels == labels && (*out)[i].weights == weights) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      out->push_back(PendingInsert{it->second, labels, weights});
    }
    return true;
  });
  return failure;
}

void FragmentIndex::ApplyExtraction(int gid,
                                    const std::vector<PendingInsert>& pending,
                                    const ExtractStats& stats) {
  for (const PendingInsert& p : pending) {
    classes_[p.class_id]->Insert(p.labels, p.weights, gid);
  }
  stats_.num_subsets_enumerated += stats.subsets;
  stats_.num_subsets_skipped_by_signature += stats.skipped_by_signature;
  stats_.num_fragment_occurrences += stats.occurrences;
  stats_.num_sequences_inserted += pending.size();
}

Status FragmentIndex::InsertGraphFragments(int gid, const Graph& g) {
  std::vector<PendingInsert> pending;
  ExtractStats stats;
  PIS_RETURN_NOT_OK(ExtractGraphFragments(g, &pending, &stats));
  ApplyExtraction(gid, pending, stats);
  return Status::OK();
}

Result<int> FragmentIndex::AddGraph(const Graph& g) {
  int gid = db_size_;
  std::vector<PendingInsert> pending;
  ExtractStats stats;
  PIS_RETURN_NOT_OK(ExtractGraphFragments(g, &pending, &stats));
  ApplyExtraction(gid, pending, stats);
  ++db_size_;
  // Re-finalize only the classes that received postings, so postings stay
  // sorted/deduplicated and lazily built backends (VP-tree) refresh;
  // untouched classes keep their finalized state — the amortized add cost
  // scales with the new graph, not the whole index.
  std::unordered_set<int> touched;
  for (const PendingInsert& p : pending) touched.insert(p.class_id);
  for (int class_id : touched) classes_[class_id]->Refinalize();
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
  BuildVectors(fragment, form.embeddings[0].vertex_order,
               form.embeddings[0].edge_order, &prepared.labels,
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
// v1: static index. v2 appends the tombstone list (incremental RemoveGraph)
// as a trailing section; v1 files load as tombstone-free. v3 appends the
// compaction epoch plus the live count (cross-checked against db_size minus
// tombstones on load); v2 files load with epoch 0. v4 appended a
// per-graph superimposed bit-code section, since removed: v5 is exactly the
// v3 layout, and a v4 file loads by validating and discarding that section.
// v1-v3 are strict prefixes of v5, so their fixtures stay constructible from
// a current Save().
constexpr uint32_t kIndexVersion = 5;
constexpr uint32_t kLegacySketchVersion = 4;

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

// Reads past the v4 sketch section: bits and hashes (I32 each), a word
// count, then the words, db_size blocks of bits / 64 words. The file
// promised the section, so a short or malformed one is a structural
// disagreement (InvalidArgument), like a truncated manifest.
Status SkipLegacySketchSection(BinaryReader* reader, int db_size) {
  const int32_t bits = reader->I32();
  const int32_t hashes = reader->I32();
  const uint64_t num_words = reader->ReadCount(8);
  if (!reader->ok()) {
    return Status::InvalidArgument("index v4 sketch section truncated");
  }
  if (bits < 64 || bits % 64 != 0 || bits > (1 << 20) || hashes < 1 ||
      hashes > 64) {
    return Status::InvalidArgument(
        "implausible v4 sketch parameters (" + std::to_string(bits) +
        " bits, " + std::to_string(hashes) + " hashes)");
  }
  const uint64_t expected = static_cast<uint64_t>(db_size) * (bits / 64);
  if (num_words != expected) {
    return Status::InvalidArgument(
        "v4 sketch section holds " + std::to_string(num_words) +
        " words but " + std::to_string(db_size) + " graphs need " +
        std::to_string(expected));
  }
  for (uint64_t i = 0; i < num_words; ++i) reader->U64();
  if (!reader->ok()) {
    return Status::InvalidArgument("index v4 sketch payload truncated");
  }
  return Status::OK();
}
}  // namespace

Status FragmentIndex::Save(std::ostream& out) const {
  BinaryWriter writer(out);
  writer.U32(kIndexMagic);
  writer.U32(kIndexVersion);
  writer.I32(options_.min_fragment_edges);
  writer.I32(options_.max_fragment_edges);
  SerializeSpec(options_.spec, &writer);
  writer.U8(options_.backend.has_value() ? 1 : 0);
  if (options_.backend.has_value()) {
    writer.U8(static_cast<uint8_t>(*options_.backend));
  }
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
  // v2 trailing section: sorted tombstone ids. v3 trailing section:
  // compaction epoch + live count. Each kept last so an older file is
  // exactly a newer file without its tail (the compat fixtures rely on
  // this).
  std::vector<int> dead(tombstones_.begin(), tombstones_.end());
  std::sort(dead.begin(), dead.end());
  writer.VecInt(dead);
  writer.U32(compaction_epoch_);
  writer.I32(num_live());
  if (!writer.ok()) return Status::IOError("index write failed");
  return Status::OK();
}

Result<FragmentIndex> FragmentIndex::Clone() const {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  PIS_RETURN_NOT_OK(Save(buffer));
  PIS_ASSIGN_OR_RETURN(FragmentIndex copy, Load(buffer));
  copy.options_.num_threads = options_.num_threads;
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
  if (reader.U32() != kIndexMagic) {
    return Status::ParseError("not a PIS index file (bad magic)");
  }
  uint32_t version = reader.U32();
  if (version < 1 || version > kIndexVersion) {
    return Status::ParseError("unsupported index version " +
                              std::to_string(version) + " (this build reads " +
                              std::to_string(kIndexVersion) + " and older)");
  }
  FragmentIndex index;
  index.options_.min_fragment_edges = reader.I32();
  index.options_.max_fragment_edges = reader.I32();
  PIS_ASSIGN_OR_RETURN(index.options_.spec, DeserializeSpec(&reader));
  if (reader.U8() != 0) {
    uint8_t backend = reader.U8();
    if (backend > 2) return Status::ParseError("bad backend tag");
    index.options_.backend = static_cast<ClassBackend>(backend);
  }
  index.spec_holder_ = std::make_shared<const DistanceSpec>(index.options_.spec);
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
  if (version >= 2) {
    std::vector<int> dead = reader.VecInt();
    PIS_RETURN_NOT_OK(reader.Check("index tombstones"));
    for (int gid : dead) {
      if (gid < 0 || gid >= index.db_size_ ||
          !index.tombstones_.insert(gid).second) {
        return Status::ParseError("bad tombstone id in index file");
      }
    }
  }
  if (version >= 3) {
    index.compaction_epoch_ = reader.U32();
    int32_t live = reader.I32();
    PIS_RETURN_NOT_OK(reader.Check("index compaction trailer"));
    if (live != index.num_live()) {
      return Status::ParseError(
          "index live count " + std::to_string(live) +
          " disagrees with db_size minus tombstones (" +
          std::to_string(index.num_live()) + ")");
    }
  }
  if (version == kLegacySketchVersion) {
    PIS_RETURN_NOT_OK(SkipLegacySketchSection(&reader, index.db_size_));
  }
  return index;
}

Result<FragmentIndex> FragmentIndex::LoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return Load(in);
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
