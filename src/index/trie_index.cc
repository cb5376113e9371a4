#include "index/trie_index.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace pis {

void InsertSortedUnique(std::vector<int>* list, int id) {
  if (list->empty() || list->back() < id) {
    list->push_back(id);
    return;
  }
  auto it = std::lower_bound(list->begin(), list->end(), id);
  if (*it != id) list->insert(it, id);
}

bool IsStrictlyAscending(const std::vector<int>& list) {
  return std::adjacent_find(list.begin(), list.end(),
                            std::greater_equal<int>()) == list.end();
}

LabelTrie::LabelTrie(int sequence_length) : sequence_length_(sequence_length) {
  PIS_CHECK(sequence_length >= 1);
  nodes_.emplace_back();  // root
}

int32_t LabelTrie::ChildOrCreate(int32_t node, Label symbol) {
  auto& children = nodes_[node].children;
  auto it = std::lower_bound(
      children.begin(), children.end(), symbol,
      [](const std::pair<Label, int32_t>& c, Label s) { return c.first < s; });
  if (it != children.end() && it->first == symbol) return it->second;
  const int32_t child = static_cast<int32_t>(nodes_.size());
  children.insert(it, {symbol, child});
  nodes_.emplace_back();  // invalidates `children`, used no more
  return child;
}

void LabelTrie::Insert(std::span<const Label> seq, int graph_id) {
  PIS_DCHECK(static_cast<int>(seq.size()) == sequence_length_);
  int32_t node = 0;
  for (Label symbol : seq) {
    node = ChildOrCreate(node, symbol);
  }
  if (nodes_[node].postings < 0) {
    nodes_[node].postings = static_cast<int32_t>(postings_.size());
    postings_.emplace_back();
    ++num_leaves_;
  }
  InsertSortedUnique(&postings_[nodes_[node].postings], graph_id);
}

void LabelTrie::Finalize() const {
  PIS_DCHECK(std::all_of(postings_.begin(), postings_.end(),
                         IsStrictlyAscending));
}

void LabelTrie::ForEachSequence(const SequenceVisitor& visitor) const {
  // Iterative DFS mirroring RangeQuery. A subtree unwinds completely before
  // the next sibling at the same depth starts, so writing the edge symbol
  // into seq as each frame pops keeps seq[0..depth) equal to the current
  // path; children are pushed in reverse for ascending symbol order.
  struct Frame {
    int32_t node;
    int depth;
    Label symbol;
  };
  std::vector<Label> seq(sequence_length_);
  std::vector<Frame> stack = {{0, 0, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.depth > 0) seq[f.depth - 1] = f.symbol;
    if (f.depth == sequence_length_) {
      int32_t pid = nodes_[f.node].postings;
      if (pid >= 0 && !postings_[pid].empty()) visitor(seq, postings_[pid]);
      continue;
    }
    const auto& children = nodes_[f.node].children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({it->second, f.depth + 1, it->first});
    }
  }
}

size_t LabelTrie::NumPostings() const {
  size_t total = 0;
  for (const auto& list : postings_) total += list.size();
  return total;
}

void LabelTrie::RangeQuery(const std::vector<Label>& seq,
                           const SequenceCostModel& model, double sigma,
                           const SequenceMatchCallback& cb) const {
  PIS_DCHECK(static_cast<int>(seq.size()) == sequence_length_);
  // Iterative DFS with the residual budget; budgets never increase so the
  // walk prunes whole subtrees as soon as the accumulated cost exceeds
  // sigma.
  struct Frame {
    int32_t node;
    int depth;
    double cost;
  };
  std::vector<Frame> stack = {{0, 0, 0.0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.depth == sequence_length_) {
      int32_t pid = nodes_[f.node].postings;
      if (pid >= 0) {
        for (int gid : postings_[pid]) cb(gid, f.cost);
      }
      continue;
    }
    for (const auto& [symbol, child] : nodes_[f.node].children) {
      double c = f.cost + model.Cost(f.depth, seq[f.depth], symbol);
      if (c <= sigma) stack.push_back({child, f.depth + 1, c});
    }
  }
}

void LabelTrie::Serialize(BinaryWriter* writer) const {
  writer->I32(sequence_length_);
  writer->U64(num_leaves_);
  writer->U64(nodes_.size());
  for (const Node& node : nodes_) {
    writer->I32(node.postings);
    writer->U64(node.children.size());
    for (const auto& [symbol, child] : node.children) {
      writer->I32(symbol);
      writer->I32(child);
    }
  }
  writer->U64(postings_.size());
  for (const std::vector<int>& list : postings_) writer->VecInt(list);
}

Result<LabelTrie> LabelTrie::Deserialize(BinaryReader* reader) {
  int32_t length = reader->I32();
  PIS_RETURN_NOT_OK(reader->Check("trie header"));
  if (length < 1) return Status::ParseError("bad trie sequence length");
  LabelTrie trie(length);
  trie.num_leaves_ = reader->U64();
  uint64_t num_nodes = reader->ReadCount(12);  // postings + fanout per node
  PIS_RETURN_NOT_OK(reader->Check("trie node count"));
  trie.nodes_.clear();
  trie.nodes_.reserve(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    Node node;
    node.postings = reader->I32();
    uint64_t fanout = reader->ReadCount(8);  // (symbol, child) per entry
    PIS_RETURN_NOT_OK(reader->Check("trie node"));
    node.children.reserve(fanout);
    for (uint64_t c = 0; c < fanout; ++c) {
      Label symbol = reader->I32();
      int32_t child = reader->I32();
      node.children.emplace_back(symbol, child);
    }
    trie.nodes_.push_back(std::move(node));
  }
  uint64_t num_postings = reader->ReadCount(8);
  PIS_RETURN_NOT_OK(reader->Check("trie postings count"));
  trie.postings_.clear();
  trie.postings_.reserve(num_postings);
  for (uint64_t i = 0; i < num_postings; ++i) {
    trie.postings_.push_back(reader->VecInt());
    if (!IsStrictlyAscending(trie.postings_.back())) {
      return Status::ParseError("trie posting list is not strictly ascending");
    }
  }
  PIS_RETURN_NOT_OK(reader->Check("trie postings"));
  // Structural sanity: child and posting indices in range.
  for (const Node& node : trie.nodes_) {
    if (node.postings >= static_cast<int32_t>(trie.postings_.size())) {
      return Status::ParseError("trie postings index out of range");
    }
    for (const auto& [symbol, child] : node.children) {
      if (child < 0 || child >= static_cast<int32_t>(trie.nodes_.size())) {
        return Status::ParseError("trie child index out of range");
      }
    }
  }
  return trie;
}

}  // namespace pis
