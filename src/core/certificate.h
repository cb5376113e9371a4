// Graph-local certificates: lower bounds on the superimposed distance
// d(Q, G) that read only the query and G itself, never the index. Pass 2
// (ShardRefine, core/shard_filter.h) applies them to every graph the
// partition bound (Eq. 3) kept, so a graph stays a candidate only while
// every lower bound stays within σ.
#ifndef PIS_CORE_CERTIFICATE_H_
#define PIS_CORE_CERTIFICATE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "distance/distance_spec.h"
#include "graph/graph.h"

namespace pis {

/// \brief Necessary conditions of an embedding of one query within σ,
/// checked against one graph at a time.
///
/// Any superposition f maps Q's vertices injectively into G and each query
/// edge onto a distinct edge of G. Four bounds follow, cheapest first:
///
///  - Label multiset (mutation specs). At most
///    m_E = Σ_l min(cnt_Q(l), cnt_G(l)) query edges can land on an edge of
///    their own label, and every other one costs at least the edge
///    matrix's MinMismatch() c_e; the same holds for vertices. So
///    d(Q, G) >= c_e · (|E(Q)| − m_E) + c_v · (|V(Q)| − m_V).
///    A zero c (the vertex matrix of EdgeMutation, a zero-cost override)
///    makes its term 0; for the linear distance both terms are 0.
///  - Degree dominance (every spec). deg_G(f(u)) >= deg_Q(u), so for every
///    d, G holds at least as many vertices of degree >= d as Q does. A
///    graph that fails cannot host the query at all.
///  - Neighbourhood domains (every spec; σ-budgeted for mutation specs).
///    Each query vertex u gets a domain D(u) of the G vertices f(u) could
///    be: degree at least deg_Q(u), u's neighbours matched to distinct
///    neighbours of at least their degree and, when c_e > 0, at most
///    ⌊σ / c_e⌋ of u's incident edges unable to keep their label at v
///    (deg_Q(u) − |L_u ∩ L_v|, L the multiset of incident edge labels;
///    each such edge is a distinct mutation costing >= c_e). The domains
///    are then refined to a fixpoint (Ullmann's refinement, the "pseudo
///    subgraph isomorphism" test of GraphQL): v stays in D(u) only while
///    u's neighbours can be matched injectively to distinct neighbours of
///    v, each inside its own domain (Hall's condition). After that all of
///    Q must match injectively into G. An empty domain or a failed
///    matching proves d(Q, G) > σ. For mutation specs the surviving
///    domains give a local label bound too: every mismatched edge is
///    counted at both endpoints, so d(Q, G) >= c_e · ⌈½ Σ_u min_{v in
///    D(u)} (deg_Q(u) − |L_u ∩ L_v|)⌉.
///  - Spanning-tree cost (every spec; graphs that pass the three above).
///    T is the breadth-first forest the domains are refined in: a vertex's
///    parent is its earliest-visited neighbour. The inside pass runs
///    children first: F(u, v, p) is the cheapest map of u's subtree with
///    f(u) = v in D(u) and u's parent on p, u's children on distinct
///    neighbours of v other than p (Matula's subtree-isomorphism DP, with
///    costs), child c onto x in D(c) paying c_e when the edge labels
///    differ, then F(c, x, v); u itself pays c_v when the vertex labels
///    differ. f restricted to T is such a map, and the edges T leaves out
///    cost >= 0, so d(Q, G) >= Σ over components of min_v F(root, v, none).
///    Every value above σ is cut to infinity; a query vertex left without
///    a finite value proves d(Q, G) > σ. Leaves are never tabulated (F is
///    their vertex cost), a vertex with one child keeps its best and
///    second-best child image only, and the subset DP over children runs
///    for two to kMaxTreeChildren children on G vertices of at most
///    kMaxTreeWidth neighbours, unless every child already has a distinct
///    cheapest neighbour (Hall over the cheapest ones); beyond those limits
///    each child takes its cheapest image on its own (no injectivity among
///    siblings; still a lower bound).
///
///    The outside pass then runs parents first. out(u, v) bounds what
///    everything but u's subtree costs when f(u) = v: for a root, the
///    other components' minima; for a child c of u on x, the least over
///    the v in D(u) adjacent to x of out(u, v) + u's vertex cost + each
///    sibling's cheapest place on v's neighbours other than x + c's edge
///    cost, counting only the v that keep the whole, F(c, x, v) included,
///    within σ (any f within σ with f(c) = x and f(u) = v costs at least
///    that whole). x leaves D(c) when no v keeps it. The bound itself does
///    not move (the cheapest tree map survives the pass), but when the
///    pass narrowed a domain, the neighbourhood refinement, Hall's
///    condition and the joint matching run once more over the narrowed
///    domains, and that second round is what removes graphs. (A second
///    inside pass removed almost nothing more and cost more certificate
///    time than it saved in verification.)
///
/// The domains are bitsets over G's vertices (any size; one 64-bit word per
/// 64 vertices). Hall's condition for the one- and two-neighbour subsets
/// runs bit-parallel over whole domains (RefineNeighbourhoods); query
/// vertices of degree three and four are then checked pair by pair on all
/// their neighbour subsets, and a removal re-checks only the pairs it can
/// affect. A query vertex of degree five or more keeps the one- and
/// two-neighbour subsets only (weaker, still sound).
///
/// CertifyCandidates (core/shard_filter.h) skips the certificate when one
/// query fragment covers the whole query: pass 1 then already bounds
/// d(Q, G) within σ for every survivor, so no lower bound can exclude one.
class GraphCertificate {
 public:
  GraphCertificate(const Graph& query, const DistanceSpec& spec);

  /// A lower bound on d(query, graph) whenever that distance is within
  /// `sigma`; a value above `sigma` (kInfiniteDistance for the degree,
  /// domain and tree conditions) proves the distance exceeds `sigma`.
  /// Reuses scratch arrays, so one certificate serves one thread.
  double LowerBound(const Graph& graph, double sigma);

 private:
  /// A query's label multiset: distinct labels, their counts and the
  /// counts' sum.
  struct LabelCounts {
    std::vector<Label> labels;
    std::vector<int> counts;
    int total = 0;
  };
  static LabelCounts CountLabels(std::vector<Label> labels);

  /// The first three bounds; leaves the refined domains behind for
  /// TreeBound.
  double LocalBound(const Graph& graph, double sigma);
  friend class GraphCertificatePeer;  ///< tests: one bound or pass alone

  /// query.total − Σ_l min(cnt_Q(l), cnt_G(l)) over G's `num_elements`
  /// vertices or edges, `label_of(i)` giving the label of element i: the
  /// query elements no element of G can match. Stops at the first G
  /// element that leaves none.
  template <typename LabelOf>
  int Unmatched(const LabelCounts& query, int num_elements, LabelOf label_of);

  /// The domain conditions over `graph` with at most `budget` label
  /// mismatches per query vertex (-1 when σ allows none at all): the local
  /// label bound's mismatch count Σ_u min_{v in D(u)}, or -1 when a domain
  /// empties or Q cannot match into G.
  int RefineDomains(const Graph& graph, int budget);
  /// Initial domains of every query vertex; false when one is empty.
  bool InitDomains(const Graph& graph, int budget);
  /// Incident edges of query vertex u that cannot keep their label at G
  /// vertex v: deg_Q(u) − |L_u ∩ L_v|.
  int Missing(int u, int v) const;
  /// Hall's condition for every one and every two neighbours of every
  /// query vertex, bit-parallel, to a fixpoint; false when a domain
  /// empties. With `first`, the first sweep reads only the neighbours
  /// earlier in order_.
  bool RefineNeighbourhoods(bool first);
  /// Hall's condition over every neighbour subset of each query vertex of
  /// degree three and four, pair by pair; false when a domain empties.
  bool HallSweep();
  /// reach(w): the G vertices adjacent to some vertex of D(w); its
  /// reach2_ row holds those adjacent to two. Recomputed only if D(w)
  /// shrank since.
  const uint64_t* Reach(int w);
  /// reach2 of pair p: the G vertices adjacent at least twice to the
  /// union of its two domains.
  const uint64_t* PairReach(int p);
  /// Whether u's neighbours match injectively into v's, each within its
  /// own domain; true unchecked for more than kMaxHall neighbours.
  bool Supported(int u, int v) const;
  static constexpr int kMaxHall = 4;
  /// Removes v from u's domain and queues the pair; false when the domain
  /// empties.
  bool Remove(int u, int v);
  /// Records that D(u) shrank: its reach rows are stale.
  void Shrunk(int u) { ++version_[u]; }
  /// Whether every query vertex matches to a distinct G vertex of its
  /// domain.
  bool MatchAll();
  bool Augment(int u);
  /// G's incidence as half-edges (and its vertex labels when they can
  /// cost), for the tree passes; sizes their tables.
  void HalfEdges(const Graph& graph);
  /// The spanning-tree bound's inside pass over the refined domains: a
  /// value within `sigma`, or kInfiniteDistance. Drops from each domain
  /// the G vertices that root no subtree within `sigma`, and leaves each
  /// root's minimum in root_best_.
  double TreeBound(double sigma);
  /// The outside pass, after a TreeBound within `sigma`: 1 when it
  /// narrowed a domain, 0 when it did not, -1 when a domain emptied.
  int OutsidePass(double sigma);
  /// Query vertex c on each of the deg neighbours (slots, half-edges from
  /// `first`) of G vertex v, its parent's place: the edge's label cost
  /// plus F(c, x, v), cut at σ, into c's place_cost_ row; sums it up in
  /// placement_ at (c, v). Returns the cheapest.
  double PlaceChild(int c, int v, int first, int deg, double sigma);
  /// u's own cost on G vertex v: c_v when their labels differ.
  double OwnCost(int u, int v) const {
    return vertex_cost_ > 0 && q_labels_[u] != g_vertex_label_[v]
               ? vertex_cost_
               : 0.0;
  }
  /// The cheapest injective map of the k children `kids` of a query vertex
  /// on G vertex v onto v's deg slots (half-edges from `first`) other than
  /// slot `skip` (-1: none), at the costs PlaceChild left; infinite when
  /// there is none.
  double AssignChildren(const int* kids, int k, int v, int first, int deg,
                        int skip) const;
  static constexpr int kMaxTreeChildren = 6;
  static constexpr int kMaxTreeWidth = 64;

  uint64_t* domain(int u) { return &domains_[static_cast<size_t>(u) * words_]; }
  const uint64_t* domain(int u) const {
    return &domains_[static_cast<size_t>(u) * words_];
  }
  uint64_t* supported(int u) {
    return &supported_[static_cast<size_t>(u) * words_];
  }

  double edge_cost_;
  double vertex_cost_;
  LabelCounts edge_labels_;
  LabelCounts vertex_labels_;
  /// at_least_[d]: query vertices of degree >= d, d = 0..max query degree.
  std::vector<int> at_least_;

  // The query's structure, for the domain conditions.
  int num_query_vertices_ = 0;
  /// Query neighbours in CSR form: u's are q_nbrs_[q_begin_[u]..q_begin_[u+1]).
  std::vector<int> q_begin_;
  std::vector<int> q_nbrs_;
  /// Query vertices breadth-first from the highest-degree vertex of each
  /// component (the most constrained first), isolated ones last.
  std::vector<int> order_;
  /// rank_[u]: u's place in order_.
  std::vector<int> rank_;
  /// Every two neighbours of every query vertex: u's pairs are
  /// pair_begin_[u]..pair_begin_[u+1], pair p joins pair_ends_[2p] and
  /// pair_ends_[2p+1].
  std::vector<int> pair_begin_;
  std::vector<int> pair_ends_;
  /// u's neighbours' degrees, descending, at the offsets of q_nbrs_.
  std::vector<int> nbr_degrees_;
  /// u's incident edge label counts over edge_labels_.labels, one row per
  /// query vertex (empty when labels cost nothing).
  std::vector<int> label_counts_;
  std::vector<Label> q_labels_;  ///< per query vertex, for the c_v term
  /// The spanning forest T: u's parent (-1 for a root) and the label of
  /// the edge to it; u's children are children_[child_begin_[u]..
  /// child_begin_[u+1]).
  std::vector<int> parent_;
  std::vector<Label> parent_label_;
  std::vector<int> child_begin_;
  std::vector<int> children_;
  int max_children_ = 0;

  // Scratch for LowerBound.
  std::vector<int> degree_count_;
  std::vector<int> seen_;
  int words_ = 0;                     ///< 64-bit words per domain
  std::vector<uint64_t> domains_;     ///< one row of words_ per query vertex
  std::vector<uint64_t> reach_;       ///< one row of words_ per query vertex
  std::vector<uint64_t> reach2_;      ///< the same, adjacent twice
  std::vector<uint64_t> pair_row_;
  /// Bumped when a domain shrinks; a cached reach row remembers the
  /// version it was computed from.
  std::vector<int> version_;
  std::vector<int> reach_version_;
  std::vector<int> g_degree_;
  /// InitDomains: neighbour-degree rows, kLevelPlanes x max query degree.
  static constexpr int kLevelPlanes = 4;
  std::vector<uint64_t> levels_;
  std::vector<uint64_t> g_adjacency_;  ///< one row of words_ per G vertex
  std::vector<int> g_labels_;         ///< per G vertex, counts over query labels
  /// Removed (query vertex, G vertex) pairs whose neighbours need a
  /// re-check.
  std::vector<std::pair<int, int>> queue_;
  std::vector<int> owner_;            ///< MatchAll: G vertex -> query vertex
  std::vector<uint64_t> used_;
  std::vector<uint64_t> visited_;
  /// The tree passes: G's incidence as half-edges. v's are g_begin_[v]..
  /// g_begin_[v+1]; each has its far end, its edge's label and its arc id
  /// 2e + (v is not e's first end), so the reverse arc is the id ^ 1.
  int g_vertices_ = 0;
  int g_halves_ = 0;
  std::vector<int> g_begin_;
  std::vector<int> g_far_;
  std::vector<Label> g_edge_label_;
  std::vector<int> g_arc_;
  std::vector<Label> g_vertex_label_;  ///< filled only when c_v > 0
  /// Per root: its minimum over its domain from the last TreeBound.
  std::vector<double> root_best_;
  /// out(u, v) per (u, v), written by u's parent's step of the outside
  /// pass under u's supported_ bit of v (one row of words_ per query
  /// vertex).
  std::vector<double> out_;
  std::vector<uint64_t> supported_;
  /// F(u, v, p) of a query vertex with two or more children, at u's row
  /// and the arc v -> p. Never cleared: an entry counts only under the
  /// domain bit of v, and every entry under a set bit is written.
  std::vector<double> table_;
  /// F of a query vertex with one child, per (u, v): the best value, the
  /// child's image there, and the best value with that image excluded.
  struct BestTwo {
    double best = 0;
    int image = -1;
    double second = 0;
  };
  std::vector<BestTwo> best_two_;
  /// A query vertex c with its parent on G vertex v, per (c, v): c's
  /// cheapest place among v's neighbours, the first slot reaching it, the
  /// cheapest value on any other slot, and (over the first 64 slots) every
  /// slot reaching it. Written for every v the parent's inside step
  /// reaches; read again by the outside pass.
  struct Placement {
    double best = 0;
    double second = 0;
    int slot = -1;
    uint64_t ties = 0;
  };
  std::vector<Placement> placement_;
  /// c's cost on each slot, at c's row and the half-edge from v.
  std::vector<double> place_cost_;
};

}  // namespace pis

#endif  // PIS_CORE_CERTIFICATE_H_
