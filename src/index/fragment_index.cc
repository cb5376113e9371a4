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

IndexScan::IndexScan(const FragmentIndex& index)
    : index_(index),
      window_{index.options_.min_fragment_edges,
              index.options_.max_fragment_edges},
      scan_(index.skeletons_.get()),
      vertex_labels_(index.SequenceHasVertexLabels()) {}

int IndexScan::ClassOf(int skeleton) {
  if (static_cast<size_t>(skeleton) >= class_of_.size()) {
    class_of_.resize(skeleton + 1, kUnknown);
  }
  int& cls = class_of_[skeleton];
  if (cls == kUnknown) {
    auto found =
        index_.class_by_key_.find(scan_.table().skeleton(skeleton).key);
    cls = found == index_.class_by_key_.end() ? -1 : found->second;
  }
  return cls;
}

const std::vector<CanonicalEmbedding>& IndexScan::Automorphisms(int skeleton) {
  if (static_cast<size_t>(skeleton) >= automorphisms_.size()) {
    automorphisms_.resize(skeleton + 1, nullptr);
  }
  const std::vector<CanonicalEmbedding>*& found = automorphisms_[skeleton];
  if (found == nullptr) found = &scan_.table().Automorphisms(skeleton);
  return *found;
}

void IndexScan::AppendVectors(const Graph& host, const SkeletonSubset& subset,
                              const CanonicalEmbedding& automorphism,
                              std::vector<Label>* labels,
                              std::vector<double>* weights) const {
  auto vertex = [&](size_t i) {
    return subset.vertices[automorphism.vertex_order[i]];
  };
  auto edge = [&](size_t k) {
    return subset.code_edges[automorphism.edge_order[k]];
  };
  const size_t nv = subset.vertices.size();
  const size_t ne = subset.code_edges.size();
  if (vertex_labels_) {
    for (size_t i = 0; i < nv; ++i) {
      labels->push_back(host.VertexLabel(vertex(i)));
    }
  }
  for (size_t k = 0; k < ne; ++k) {
    labels->push_back(host.GetEdge(edge(k)).label);
  }
  const DistanceSpec& spec = index_.options_.spec;
  if (spec.type == DistanceType::kLinear) {
    const size_t before = weights->size();
    if (spec.use_vertex_weights) {
      for (size_t i = 0; i < nv; ++i) {
        weights->push_back(host.VertexWeight(vertex(i)));
      }
    }
    if (spec.use_edge_weights) {
      for (size_t k = 0; k < ne; ++k) {
        weights->push_back(host.GetEdge(edge(k)).weight);
      }
    }
    // Degenerate 1-dim point.
    if (weights->size() == before) weights->push_back(0.0);
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
  index.skeletons_ = std::make_shared<SkeletonTable>();
  index.db_size_ = db.size();

  // Register classes from the feature set.
  for (const Graph& f : features) {
    if (f.NumEdges() < options.min_fragment_edges ||
        f.NumEdges() > options.max_fragment_edges) {
      continue;
    }
    PIS_ASSIGN_OR_RETURN(CanonicalForm form,
                         MinDfsCode(f, {.first_embedding_only = true}));
    std::string key = form.Key();
    if (index.class_by_key_.count(key) > 0) continue;
    int class_id = static_cast<int>(index.classes_.size());
    index.class_by_key_.emplace(key, class_id);
    index.classes_.push_back(std::make_unique<EquivalenceClassIndex>(
        key, f.NumVertices(), f.NumEdges(), index.spec_holder_.get()));
  }
  index.stats_.num_classes = index.classes_.size();

  // Scan the database: every connected fragment whose skeleton is a
  // registered class is inserted under all its automorphism-induced
  // sequences. Parallel builds scan contiguous graph-id ranges, each through
  // its own IndexScan over the index's one SkeletonTable; insertion stays
  // sequential in graph-id order, so posting lists grow by appends.
  if (options.num_threads > 1) {
    const size_t num_graphs = db.size();
    const size_t num_ranges =
        std::min(static_cast<size_t>(options.num_threads), num_graphs);
    std::vector<PendingFragments> pending(num_graphs);
    std::vector<ExtractStats> stats(num_graphs);
    ParallelFor(num_ranges, options.num_threads, [&](size_t range) {
      IndexScan scan(index);
      const size_t end = num_graphs * (range + 1) / num_ranges;
      for (size_t gid = num_graphs * range / num_ranges; gid < end; ++gid) {
        index.ExtractGraphFragments(db.at(static_cast<int>(gid)), &scan,
                                    &pending[gid], &stats[gid]);
      }
    });
    for (int gid = 0; gid < db.size(); ++gid) {
      index.ApplyExtraction(gid, pending[gid], stats[gid]);
    }
  } else {
    IndexScan scan(index);
    PendingFragments pending;
    for (int gid = 0; gid < db.size(); ++gid) {
      pending.clear();
      ExtractStats stats;
      index.ExtractGraphFragments(db.at(gid), &scan, &pending, &stats);
      index.ApplyExtraction(gid, pending, stats);
    }
  }
  for (auto& cls : index.classes_) cls->Finalize();
  index.stats_.build_seconds = timer.Seconds();
  return index;
}

void FragmentIndex::ExtractGraphFragments(const Graph& g, IndexScan* scan,
                                          PendingFragments* out,
                                          ExtractStats* stats) const {
  scan->Run(g, [&](const SkeletonSubset& subset, int class_id) {
    ++stats->subsets;
    if (class_id < 0) return true;
    ++stats->occurrences;
    // Distinct sequences only: symmetric labels make many automorphisms
    // collide. Each sequence is written straight into the pending buffers
    // and taken back if it repeats one of this subset's earlier ones.
    const size_t first = out->entries.size();
    for (const CanonicalEmbedding& automorphism :
         scan->Automorphisms(subset.skeleton)) {
      const size_t labels_begin = out->labels.size();
      const size_t weights_begin = out->weights.size();
      scan->AppendVectors(g, subset, automorphism, &out->labels,
                          &out->weights);
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
      out->entries.push_back({class_id,
                              static_cast<uint32_t>(out->labels.size()),
                              static_cast<uint32_t>(out->weights.size())});
    }
    return true;
  });
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
  stats_.num_fragment_occurrences += stats.occurrences;
  stats_.num_sequences_inserted += pending.entries.size();
}

Result<int> FragmentIndex::AddGraph(const Graph& g) {
  int gid = db_size_;
  PendingFragments pending;
  ExtractStats stats;
  IndexScan scan(*this);
  ExtractGraphFragments(g, &scan, &pending, &stats);
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

namespace {
constexpr uint32_t kIndexMagic = 0x50495358;  // "PISX"
// The layout this build writes: header (with three build counters),
// classes, then the sorted tombstone list, the compaction epoch and the
// live count (cross-checked against db_size minus tombstones on load).
// v5 is v6 with a fourth counter and the retired subset-prefilter's
// signature section after the header; Load reads and discards both. A v5
// reader would skip every subset of a file with no signatures, hence the
// new version. Versions 1-4 are refused (kLastRetiredFormatReader is the
// last commit that reads them).
constexpr uint32_t kIndexVersion = 6;
constexpr uint32_t kIndexVersionWithSignatures = 5;

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
  if (version != kIndexVersion && version != kIndexVersionWithSignatures) {
    return Status::ParseError(UnsupportedVersionMessage(
        "index", version, kIndexVersionWithSignatures, kIndexVersion));
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
  index.skeletons_ = std::make_shared<SkeletonTable>();
  index.db_size_ = reader.I32();
  index.stats_.num_fragment_occurrences = reader.U64();
  index.stats_.num_sequences_inserted = reader.U64();
  index.stats_.num_subsets_enumerated = reader.U64();
  if (version == kIndexVersionWithSignatures) {
    reader.U64();  // subsets the signature prefilter skipped
    const uint64_t num_signatures = reader.ReadCount(8);
    PIS_RETURN_NOT_OK(reader.Check("index header"));
    for (uint64_t i = 0; i < num_signatures; ++i) reader.U64();
  }
  uint64_t num_classes = reader.ReadCount(16);
  PIS_RETURN_NOT_OK(reader.Check("index header"));
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

}  // namespace pis
