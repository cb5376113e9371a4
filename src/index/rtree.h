// R-tree (Guttman, SIGMOD'84 — reference [4] of the paper) over k-dim
// points with L1-ball range queries: the paper's index structure for the
// linear mutation distance (§4, Example 3).
#ifndef PIS_INDEX_RTREE_H_
#define PIS_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/serde.h"
#include "util/status.h"

namespace pis {

/// Receives (payload, l1_distance) for each point inside the query ball.
using PointMatchCallback = std::function<void(int payload, double distance)>;

/// \brief Dynamic R-tree with quadratic split, storing points + int payloads.
///
/// Dimensions are fixed at construction (one per fragment edge/vertex
/// weight). Duplicate points are allowed.
class RTree {
 public:
  /// `dimensions` >= 1; `max_entries` is the node capacity M (min fill is
  /// M/2 rounded down, at least 2).
  explicit RTree(int dimensions, int max_entries = 16);

  /// Inserts a point with a payload; `point` must have `dimensions()` values.
  void Insert(std::vector<double> point, int payload);

  /// Finds every point p with L1(p, center) <= radius.
  void RangeQueryL1(const std::vector<double>& center, double radius,
                    const PointMatchCallback& cb) const;

  size_t size() const { return num_points_; }
  int dimensions() const { return dims_; }
  int max_entries() const { return max_entries_; }
  /// Visits every stored point with its payload, in insertion order. Used
  /// by compaction to rebuild a tree without the dead points (same
  /// re-insertion scheme as Deserialize, so the result is deterministic).
  void ForEachPoint(
      const std::function<void(const std::vector<double>& point, int payload)>&
          visitor) const;
  /// Tree height (1 = root is a leaf); 0 when empty.
  int Height() const;

  /// Validates structural invariants (MBR containment, fill factors);
  /// returns false and logs on violation. For tests.
  bool CheckInvariants() const;

  /// Binary persistence. Serialization stores the points and payloads;
  /// deserialization rebuilds the tree by re-insertion (deterministic).
  void Serialize(BinaryWriter* writer) const;
  static Result<RTree> Deserialize(BinaryReader* reader);

 private:
  struct Rect {
    std::vector<double> lo;
    std::vector<double> hi;
  };
  struct Entry {
    Rect rect;
    int32_t child = -1;  // internal: node index
    int32_t point = -1;  // leaf: index into points_/payloads_
  };
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;
  };

  static double Area(const Rect& r);
  static double Enlargement(const Rect& r, const Rect& add);
  static void Extend(Rect* r, const Rect& add);
  static bool Intersects(const Rect& r, const std::vector<double>& lo,
                         const std::vector<double>& hi);
  double MinDistL1(const Rect& r, const std::vector<double>& p) const;

  Rect PointRect(const std::vector<double>& p) const;
  Rect NodeRect(int32_t node) const;
  // Returns the index of the new sibling if the child split, else -1.
  int32_t InsertRecursive(int32_t node, const Entry& entry, int target_level,
                          int level);
  int32_t ChooseSubtree(int32_t node, const Rect& rect) const;
  int32_t SplitNode(int32_t node);
  void QuadraticSeeds(const std::vector<Entry>& entries, size_t* a, size_t* b) const;

  int dims_;
  int max_entries_;
  int min_entries_;
  int32_t root_ = -1;
  int height_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::vector<double>> points_;
  std::vector<int> payloads_;
  size_t num_points_ = 0;
};

}  // namespace pis

#endif  // PIS_INDEX_RTREE_H_
