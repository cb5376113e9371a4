#include "index/class_index.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/serde.h"

namespace pis {

namespace {
// Backend tag written before each class payload: the spec's distance type
// picks it, and Deserialize reads only that one. (Tag 2, the retired
// VP-tree backend, is refused like any other.)
constexpr uint8_t kTrieTag = 0;
constexpr uint8_t kRTreeTag = 1;
}  // namespace

EquivalenceClassIndex::EquivalenceClassIndex(std::string key, int num_vertices,
                                             int num_edges,
                                             const DistanceSpec* spec)
    : key_(std::move(key)),
      num_vertices_(num_vertices),
      num_edges_(num_edges),
      spec_(spec) {
  PIS_CHECK(spec_ != nullptr);
  if (spec_->type == DistanceType::kMutation) {
    trie_ = std::make_unique<LabelTrie>(NumVertexPositions() + num_edges_);
  } else {
    rtree_ = std::make_unique<RTree>(WeightDims());
  }
}

EquivalenceClassIndex::EquivalenceClassIndex(
    const EquivalenceClassIndex& other)
    : key_(other.key_),
      num_vertices_(other.num_vertices_),
      num_edges_(other.num_edges_),
      spec_(other.spec_),
      num_fragments_(other.num_fragments_),
      finalized_(other.finalized_),
      containing_graphs_(other.containing_graphs_),
      trie_(other.trie_ != nullptr ? std::make_unique<LabelTrie>(*other.trie_)
                                   : nullptr),
      rtree_(other.rtree_ != nullptr ? std::make_unique<RTree>(*other.rtree_)
                                     : nullptr) {}

int EquivalenceClassIndex::WeightDims() const {
  int dims = 0;
  if (spec_->use_vertex_weights) dims += num_vertices_;
  if (spec_->use_edge_weights) dims += num_edges_;
  return std::max(dims, 1);
}

int EquivalenceClassIndex::NumVertexPositions() const {
  // Cost-free vertex positions would only widen the trie walk; skip them.
  return spec_->vertex_scores.IsZero() ? 0 : num_vertices_;
}

SequenceCostModel EquivalenceClassIndex::MakeSequenceModel() const {
  SequenceCostModel model;
  model.vertex_scores = &spec_->vertex_scores;
  model.edge_scores = &spec_->edge_scores;
  model.num_vertex_positions = NumVertexPositions();
  return model;
}

void EquivalenceClassIndex::Insert(std::span<const Label> labels,
                                   std::span<const double> weights,
                                   int graph_id) {
  ++num_fragments_;
  InsertSortedUnique(&containing_graphs_, graph_id);
  if (trie_ != nullptr) {
    trie_->Insert(labels, graph_id);
  } else {
    rtree_->Insert(std::vector<double>(weights.begin(), weights.end()),
                   graph_id);
  }
}

void EquivalenceClassIndex::Finalize() {
  finalized_ = true;
  PIS_DCHECK(IsStrictlyAscending(containing_graphs_));
  if (trie_ != nullptr) trie_->Finalize();
}

void EquivalenceClassIndex::Compact(const std::vector<int>& remap) {
  PIS_CHECK(finalized_) << "compact before Finalize()";
  auto remapped = [&remap](int gid) {
    return gid >= 0 && gid < static_cast<int>(remap.size()) ? remap[gid] : -1;
  };
  // The remap is monotone over survivors, so the filtered list stays sorted.
  std::vector<int> live_containing;
  live_containing.reserve(containing_graphs_.size());
  for (int gid : containing_graphs_) {
    int mapped = remapped(gid);
    if (mapped >= 0) live_containing.push_back(mapped);
  }
  containing_graphs_ = std::move(live_containing);

  size_t surviving = 0;
  if (trie_ != nullptr) {
    // Rebuild from the surviving sequences: leaves whose postings all died
    // drop out entirely, along with their now-unreachable interior nodes.
    auto fresh = std::make_unique<LabelTrie>(trie_->sequence_length());
    std::vector<int> list;
    trie_->ForEachSequence(
        [&](const std::vector<Label>& seq, const std::vector<int>& postings) {
          list.clear();
          for (int gid : postings) {
            int mapped = remapped(gid);
            if (mapped >= 0) list.push_back(mapped);
          }
          for (int gid : list) fresh->Insert(seq, gid);
          surviving += list.size();
        });
    fresh->Finalize();
    trie_ = std::move(fresh);
  } else {
    auto fresh = std::make_unique<RTree>(rtree_->dimensions(),
                                         rtree_->max_entries());
    rtree_->ForEachPoint([&](const std::vector<double>& point, int payload) {
      int mapped = remapped(payload);
      if (mapped < 0) return;
      fresh->Insert(point, mapped);
      ++surviving;
    });
    rtree_ = std::move(fresh);
  }
  num_fragments_ = surviving;
}

Status EquivalenceClassIndex::Serialize(BinaryWriter* writer) const {
  if (!finalized_) return Status::Internal("serialize before Finalize()");
  writer->Str(key_);
  writer->I32(num_vertices_);
  writer->I32(num_edges_);
  writer->U8(trie_ != nullptr ? kTrieTag : kRTreeTag);
  writer->U64(num_fragments_);
  writer->VecInt(containing_graphs_);
  if (trie_ != nullptr) {
    trie_->Serialize(writer);
  } else {
    rtree_->Serialize(writer);
  }
  return Status::OK();
}

Result<std::unique_ptr<EquivalenceClassIndex>> EquivalenceClassIndex::Deserialize(
    BinaryReader* reader, const DistanceSpec* spec) {
  std::string key = reader->Str();
  int32_t nv = reader->I32();
  int32_t ne = reader->I32();
  uint8_t tag = reader->U8();
  PIS_RETURN_NOT_OK(reader->Check("class index header"));
  // Bounded so that sequence and weight lengths (nv + ne) fit an int.
  if (nv < 1 || ne < 0 || nv > std::numeric_limits<int32_t>::max() - ne) {
    return Status::ParseError("bad class index header");
  }
  const uint8_t native_tag =
      spec->type == DistanceType::kMutation ? kTrieTag : kRTreeTag;
  if (tag != native_tag) {
    std::string msg = "class backend tag " + std::to_string(tag);
    msg += " does not fit the index's distance type (commit ";
    msg += kLastRetiredFormatReader;
    msg += " is the last that reads tag 2, the retired VP-tree backend)";
    return Status::ParseError(msg);
  }
  auto cls = std::make_unique<EquivalenceClassIndex>(key, nv, ne, spec);
  cls->num_fragments_ = reader->U64();
  cls->containing_graphs_ = reader->VecInt();
  PIS_RETURN_NOT_OK(reader->Check("class index containment list"));
  if (!IsStrictlyAscending(cls->containing_graphs_)) {
    return Status::ParseError(
        "class containment list is not strictly ascending");
  }
  if (cls->trie_ != nullptr) {
    PIS_ASSIGN_OR_RETURN(LabelTrie trie, LabelTrie::Deserialize(reader));
    if (trie.sequence_length() != cls->NumVertexPositions() + ne) {
      return Status::ParseError("trie length inconsistent with class/spec");
    }
    cls->trie_ = std::make_unique<LabelTrie>(std::move(trie));
  } else {
    PIS_ASSIGN_OR_RETURN(RTree rtree, RTree::Deserialize(reader));
    if (rtree.dimensions() != cls->WeightDims()) {
      return Status::ParseError("rtree dims inconsistent with class/spec");
    }
    cls->rtree_ = std::make_unique<RTree>(std::move(rtree));
  }
  // The payloads were stored finalized; this marks the class queryable.
  cls->Finalize();
  return cls;
}

Status EquivalenceClassIndex::RangeQuery(const std::vector<Label>& labels,
                                         const std::vector<double>& weights,
                                         double sigma,
                                         const ClassMatchCallback& cb) const {
  if (!finalized_) {
    return Status::Internal("class index queried before Finalize()");
  }
  if (trie_ != nullptr) {
    if (static_cast<int>(labels.size()) != NumVertexPositions() + num_edges_) {
      return Status::InvalidArgument("label sequence length mismatch");
    }
    trie_->RangeQuery(labels, MakeSequenceModel(), sigma, cb);
    return Status::OK();
  }
  if (static_cast<int>(weights.size()) != WeightDims()) {
    return Status::InvalidArgument("weight vector length mismatch");
  }
  rtree_->RangeQueryL1(weights, sigma, cb);
  return Status::OK();
}

}  // namespace pis
