#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace pis {

RTree::RTree(int dimensions, int max_entries)
    : dims_(dimensions),
      max_entries_(max_entries),
      min_entries_(std::max(2, max_entries / 2)) {
  PIS_CHECK(dims_ >= 1);
  PIS_CHECK(max_entries_ >= 4);
}

double RTree::Area(const Rect& r) {
  double area = 1.0;
  for (size_t d = 0; d < r.lo.size(); ++d) area *= (r.hi[d] - r.lo[d]);
  return area;
}

double RTree::Enlargement(const Rect& r, const Rect& add) {
  double enlarged = 1.0;
  for (size_t d = 0; d < r.lo.size(); ++d) {
    enlarged *= std::max(r.hi[d], add.hi[d]) - std::min(r.lo[d], add.lo[d]);
  }
  return enlarged - Area(r);
}

void RTree::Extend(Rect* r, const Rect& add) {
  for (size_t d = 0; d < r->lo.size(); ++d) {
    r->lo[d] = std::min(r->lo[d], add.lo[d]);
    r->hi[d] = std::max(r->hi[d], add.hi[d]);
  }
}

double RTree::MinDistL1(const Rect& r, const std::vector<double>& p) const {
  double dist = 0;
  for (int d = 0; d < dims_; ++d) {
    if (p[d] < r.lo[d]) {
      dist += r.lo[d] - p[d];
    } else if (p[d] > r.hi[d]) {
      dist += p[d] - r.hi[d];
    }
  }
  return dist;
}

RTree::Rect RTree::PointRect(const std::vector<double>& p) const {
  return Rect{p, p};
}

RTree::Rect RTree::NodeRect(int32_t node) const {
  const Node& n = nodes_[node];
  PIS_DCHECK(!n.entries.empty());
  Rect r = n.entries[0].rect;
  for (size_t i = 1; i < n.entries.size(); ++i) Extend(&r, n.entries[i].rect);
  return r;
}

int32_t RTree::ChooseSubtree(int32_t node, const Rect& rect) const {
  const Node& n = nodes_[node];
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  int32_t best = -1;
  for (size_t i = 0; i < n.entries.size(); ++i) {
    double enl = Enlargement(n.entries[i].rect, rect);
    double area = Area(n.entries[i].rect);
    if (enl < best_enlargement ||
        (enl == best_enlargement && area < best_area)) {
      best_enlargement = enl;
      best_area = area;
      best = static_cast<int32_t>(i);
    }
  }
  return best;
}

void RTree::QuadraticSeeds(const std::vector<Entry>& entries, size_t* a,
                           size_t* b) const {
  double worst = -1;
  *a = 0;
  *b = 1;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      Rect combined = entries[i].rect;
      Extend(&combined, entries[j].rect);
      double waste = Area(combined) - Area(entries[i].rect) - Area(entries[j].rect);
      if (waste > worst) {
        worst = waste;
        *a = i;
        *b = j;
      }
    }
  }
}

int32_t RTree::SplitNode(int32_t node) {
  // Guttman quadratic split.
  std::vector<Entry> entries = std::move(nodes_[node].entries);
  nodes_[node].entries.clear();
  int32_t sibling = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{nodes_[node].leaf, {}});

  size_t seed_a = 0;
  size_t seed_b = 1;
  QuadraticSeeds(entries, &seed_a, &seed_b);
  Rect rect_a = entries[seed_a].rect;
  Rect rect_b = entries[seed_b].rect;
  nodes_[node].entries.push_back(entries[seed_a]);
  nodes_[sibling].entries.push_back(entries[seed_b]);
  std::vector<bool> assigned(entries.size(), false);
  assigned[seed_a] = assigned[seed_b] = true;
  size_t remaining = entries.size() - 2;

  while (remaining > 0) {
    // Force assignment when one group must take everything left to reach
    // the minimum fill.
    if (nodes_[node].entries.size() + remaining == static_cast<size_t>(min_entries_)) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          nodes_[node].entries.push_back(entries[i]);
          Extend(&rect_a, entries[i].rect);
          assigned[i] = true;
        }
      }
      remaining = 0;
      break;
    }
    if (nodes_[sibling].entries.size() + remaining ==
        static_cast<size_t>(min_entries_)) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          nodes_[sibling].entries.push_back(entries[i]);
          Extend(&rect_b, entries[i].rect);
          assigned[i] = true;
        }
      }
      remaining = 0;
      break;
    }
    // Pick the unassigned entry with the strongest group preference.
    double best_diff = -1;
    size_t best_i = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (assigned[i]) continue;
      double da = Enlargement(rect_a, entries[i].rect);
      double db = Enlargement(rect_b, entries[i].rect);
      double diff = std::abs(da - db);
      if (diff > best_diff) {
        best_diff = diff;
        best_i = i;
      }
    }
    double da = Enlargement(rect_a, entries[best_i].rect);
    double db = Enlargement(rect_b, entries[best_i].rect);
    bool to_a = da < db ||
                (da == db && nodes_[node].entries.size() <=
                                 nodes_[sibling].entries.size());
    if (to_a) {
      nodes_[node].entries.push_back(entries[best_i]);
      Extend(&rect_a, entries[best_i].rect);
    } else {
      nodes_[sibling].entries.push_back(entries[best_i]);
      Extend(&rect_b, entries[best_i].rect);
    }
    assigned[best_i] = true;
    --remaining;
  }
  return sibling;
}

int32_t RTree::InsertRecursive(int32_t node, const Entry& entry, int target_level,
                               int level) {
  Node& n = nodes_[node];
  if (level == target_level) {
    n.entries.push_back(entry);
  } else {
    int32_t slot = ChooseSubtree(node, entry.rect);
    int32_t child = n.entries[slot].child;
    int32_t new_sibling = InsertRecursive(child, entry, target_level, level - 1);
    // `n` may be dangling after vector growth inside the recursion.
    Node& self = nodes_[node];
    self.entries[slot].rect = NodeRect(child);
    if (new_sibling >= 0) {
      Entry sibling_entry;
      sibling_entry.rect = NodeRect(new_sibling);
      sibling_entry.child = new_sibling;
      self.entries.push_back(sibling_entry);
    }
  }
  if (nodes_[node].entries.size() > static_cast<size_t>(max_entries_)) {
    return SplitNode(node);
  }
  return -1;
}

void RTree::Insert(std::vector<double> point, int payload) {
  PIS_CHECK(static_cast<int>(point.size()) == dims_);
  int32_t pid = static_cast<int32_t>(points_.size());
  Entry entry;
  entry.rect = PointRect(point);
  entry.point = pid;
  points_.push_back(std::move(point));
  payloads_.push_back(payload);
  ++num_points_;

  if (root_ < 0) {
    root_ = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(Node{true, {}});
    height_ = 1;
  }
  int32_t sibling = InsertRecursive(root_, entry, 0, height_ - 1);
  if (sibling >= 0) {
    // Grow a new root.
    int32_t new_root = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(Node{false, {}});
    Entry left;
    left.rect = NodeRect(root_);
    left.child = root_;
    Entry right;
    right.rect = NodeRect(sibling);
    right.child = sibling;
    nodes_[new_root].entries = {left, right};
    root_ = new_root;
    ++height_;
  }
}

void RTree::RangeQueryL1(const std::vector<double>& center, double radius,
                         const PointMatchCallback& cb) const {
  PIS_CHECK(static_cast<int>(center.size()) == dims_);
  if (root_ < 0) return;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t node = stack.back();
    stack.pop_back();
    const Node& n = nodes_[node];
    for (const Entry& e : n.entries) {
      if (MinDistL1(e.rect, center) > radius) continue;
      if (n.leaf) {
        const std::vector<double>& p = points_[e.point];
        double dist = 0;
        for (int d = 0; d < dims_; ++d) dist += std::abs(p[d] - center[d]);
        if (dist <= radius) cb(payloads_[e.point], dist);
      } else {
        stack.push_back(e.child);
      }
    }
  }
}

int RTree::Height() const { return height_; }

void RTree::ForEachPoint(
    const std::function<void(const std::vector<double>& point, int payload)>&
        visitor) const {
  for (size_t i = 0; i < points_.size(); ++i) visitor(points_[i], payloads_[i]);
}

void RTree::Serialize(BinaryWriter* writer) const {
  writer->I32(dims_);
  writer->I32(max_entries_);
  writer->U64(points_.size());
  for (size_t i = 0; i < points_.size(); ++i) {
    writer->VecF64(points_[i]);
    writer->I32(payloads_[i]);
  }
}

Result<RTree> RTree::Deserialize(BinaryReader* reader) {
  int32_t dims = reader->I32();
  int32_t max_entries = reader->I32();
  uint64_t n = reader->ReadCount(12);  // >= one point + payload each
  PIS_RETURN_NOT_OK(reader->Check("rtree header"));
  if (dims < 1 || max_entries < 4) return Status::ParseError("bad rtree params");
  RTree tree(dims, max_entries);
  for (uint64_t i = 0; i < n; ++i) {
    std::vector<double> point = reader->VecF64();
    int payload = reader->I32();
    PIS_RETURN_NOT_OK(reader->Check("rtree point"));
    if (static_cast<int>(point.size()) != dims) {
      return Status::ParseError("rtree point dimension mismatch");
    }
    tree.Insert(std::move(point), payload);
  }
  return tree;
}

bool RTree::CheckInvariants() const {
  if (root_ < 0) return true;
  bool ok = true;
  std::vector<std::pair<int32_t, int>> stack = {{root_, height_ - 1}};
  while (!stack.empty()) {
    auto [node, level] = stack.back();
    stack.pop_back();
    const Node& n = nodes_[node];
    if (n.entries.empty()) {
      PIS_LOG(Error) << "rtree: empty node " << node;
      ok = false;
      continue;
    }
    if (node != root_ && n.entries.size() < static_cast<size_t>(min_entries_)) {
      PIS_LOG(Error) << "rtree: underfull node " << node;
      ok = false;
    }
    if (n.entries.size() > static_cast<size_t>(max_entries_)) {
      PIS_LOG(Error) << "rtree: overfull node " << node;
      ok = false;
    }
    if (n.leaf != (level == 0)) {
      PIS_LOG(Error) << "rtree: leaf flag inconsistent at node " << node;
      ok = false;
    }
    if (!n.leaf) {
      for (const Entry& e : n.entries) {
        Rect child_rect = NodeRect(e.child);
        for (int d = 0; d < dims_; ++d) {
          if (child_rect.lo[d] < e.rect.lo[d] || child_rect.hi[d] > e.rect.hi[d]) {
            PIS_LOG(Error) << "rtree: MBR does not cover child at node " << node;
            ok = false;
            break;
          }
        }
        stack.push_back({e.child, level - 1});
      }
    }
  }
  return ok;
}

}  // namespace pis
