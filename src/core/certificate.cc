#include "core/certificate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "isomorphism/cost_search.h"

namespace pis {

GraphCertificate::GraphCertificate(const Graph& query,
                                   const DistanceSpec& spec)
    : edge_cost_(spec.type == DistanceType::kMutation
                     ? spec.edge_scores.MinMismatch()
                     : 0.0),
      vertex_cost_(spec.type == DistanceType::kMutation
                       ? spec.vertex_scores.MinMismatch()
                       : 0.0) {
  std::vector<Label> labels;
  for (EdgeId e = 0; e < query.NumEdges(); ++e) {
    labels.push_back(query.GetEdge(e).label);
  }
  edge_labels_ = CountLabels(std::move(labels));
  labels.clear();
  int max_degree = 0;
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    labels.push_back(query.VertexLabel(v));
    max_degree = std::max(max_degree, query.Degree(v));
  }
  vertex_labels_ = CountLabels(std::move(labels));
  at_least_.assign(max_degree + 1, 0);
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    ++at_least_[query.Degree(v)];
  }
  for (int d = max_degree; d > 0; --d) at_least_[d - 1] += at_least_[d];
  degree_count_.resize(at_least_.size());

  num_query_vertices_ = query.NumVertices();
  q_begin_.push_back(0);
  for (VertexId u = 0; u < num_query_vertices_; ++u) {
    for (EdgeId e : query.IncidentEdges(u)) {
      q_nbrs_.push_back(query.GetEdge(e).Other(u));
    }
    q_begin_.push_back(static_cast<int>(q_nbrs_.size()));
  }
  // Breadth-first from the highest-degree vertex of each component,
  // neighbours by descending degree, isolated vertices last: every vertex
  // but a component's first has a neighbour before it.
  std::vector<int> by_degree(num_query_vertices_);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return query.Degree(a) > query.Degree(b);
  });
  rank_.assign(num_query_vertices_, -1);
  auto visit = [&](int u) {
    rank_[u] = static_cast<int>(order_.size());
    order_.push_back(u);
  };
  for (int root : by_degree) {
    if (rank_[root] >= 0 || query.Degree(root) == 0) continue;
    visit(root);
    for (size_t head = order_.size() - 1; head < order_.size(); ++head) {
      const int u = order_[head];
      std::vector<int> next(q_nbrs_.begin() + q_begin_[u],
                            q_nbrs_.begin() + q_begin_[u + 1]);
      std::stable_sort(next.begin(), next.end(), [&](int a, int b) {
        return query.Degree(a) > query.Degree(b);
      });
      for (int w : next) {
        if (rank_[w] < 0) visit(w);
      }
    }
  }
  for (int u : by_degree) {
    if (rank_[u] < 0) visit(u);
  }
  // The spanning forest T: each vertex's parent is its earliest-ranked
  // neighbour, which the breadth-first order ranks before it.
  parent_.assign(num_query_vertices_, -1);
  parent_label_.assign(num_query_vertices_, 0);
  for (VertexId u = 0; u < num_query_vertices_; ++u) {
    q_labels_.push_back(query.VertexLabel(u));
    for (EdgeId e : query.IncidentEdges(u)) {
      const int w = query.GetEdge(e).Other(u);
      if (rank_[w] < rank_[u] &&
          (parent_[u] < 0 || rank_[w] < rank_[parent_[u]])) {
        parent_[u] = w;
        parent_label_[u] = query.GetEdge(e).label;
      }
    }
  }
  child_begin_.assign(num_query_vertices_ + 1, 0);
  for (int u : order_) {
    if (parent_[u] >= 0) ++child_begin_[parent_[u] + 1];
  }
  std::partial_sum(child_begin_.begin(), child_begin_.end(),
                   child_begin_.begin());
  children_.resize(child_begin_.back());
  std::vector<int> filled(child_begin_.begin(), child_begin_.end() - 1);
  for (int u : order_) {
    if (parent_[u] >= 0) children_[filled[parent_[u]]++] = u;
  }
  for (int u = 0; u < num_query_vertices_; ++u) {
    max_children_ =
        std::max(max_children_, child_begin_[u + 1] - child_begin_[u]);
  }
  root_best_.assign(num_query_vertices_, 0);
  pair_begin_.push_back(0);
  for (VertexId u = 0; u < num_query_vertices_; ++u) {
    for (int i = q_begin_[u]; i < q_begin_[u + 1]; ++i) {
      for (int j = i + 1; j < q_begin_[u + 1]; ++j) {
        pair_ends_.push_back(q_nbrs_[i]);
        pair_ends_.push_back(q_nbrs_[j]);
      }
    }
    pair_begin_.push_back(static_cast<int>(pair_ends_.size() / 2));
  }

  // Per query vertex: its neighbours' degrees, descending, and when labels
  // can cost its incident edge label counts over edge_labels_.labels.
  const size_t num_labels = edge_cost_ > 0 ? edge_labels_.labels.size() : 0;
  for (VertexId u = 0; u < num_query_vertices_; ++u) {
    for (int qi = q_begin_[u]; qi < q_begin_[u + 1]; ++qi) {
      nbr_degrees_.push_back(query.Degree(q_nbrs_[qi]));
    }
    std::sort(nbr_degrees_.begin() + q_begin_[u], nbr_degrees_.end(),
              std::greater<>());
    for (size_t i = 0; i < num_labels; ++i) {
      int count = 0;
      for (EdgeId e : query.IncidentEdges(u)) {
        count += query.GetEdge(e).label == edge_labels_.labels[i] ? 1 : 0;
      }
      label_counts_.push_back(count);
    }
  }
}

GraphCertificate::LabelCounts GraphCertificate::CountLabels(
    std::vector<Label> labels) {
  std::sort(labels.begin(), labels.end());
  LabelCounts out;
  out.total = static_cast<int>(labels.size());
  for (Label l : labels) {
    if (out.labels.empty() || out.labels.back() != l) {
      out.labels.push_back(l);
      out.counts.push_back(0);
    }
    ++out.counts.back();
  }
  return out;
}

template <typename LabelOf>
int GraphCertificate::Unmatched(const LabelCounts& query, int num_elements,
                                LabelOf label_of) {
  seen_.assign(query.labels.size(), 0);
  int unmatched = query.total;
  for (int i = 0; i < num_elements && unmatched > 0; ++i) {
    // A query holds a handful of distinct labels: a scan beats a search.
    const auto it =
        std::find(query.labels.begin(), query.labels.end(), label_of(i));
    if (it == query.labels.end()) continue;
    const size_t slot = it - query.labels.begin();
    if (seen_[slot] < query.counts[slot]) {
      ++seen_[slot];
      --unmatched;
    }
  }
  return unmatched;
}

double GraphCertificate::LowerBound(const Graph& graph, double sigma) {
  const double local = LocalBound(graph, sigma);
  if (local > sigma) return local;
  HalfEdges(graph);
  const double tree = TreeBound(sigma);
  if (tree > sigma) return std::max(local, tree);
  // The second round, over the domains the outside pass narrowed. Its
  // refinement and matching remove graphs; a second inside pass would
  // remove almost none for more than it saves in verification.
  const int narrowed = OutsidePass(sigma);
  if (narrowed < 0 || (narrowed > 0 && (!RefineNeighbourhoods(/*first=*/false) ||
                                         !HallSweep() || !MatchAll()))) {
    return kInfiniteDistance;
  }
  return std::max(local, tree);
}

double GraphCertificate::LocalBound(const Graph& graph, double sigma) {
  // Degree dominance: count G's vertices by degree, capped at the query's
  // largest, then compare the running "degree >= d" counts from the top.
  std::fill(degree_count_.begin(), degree_count_.end(), 0);
  const int top = static_cast<int>(degree_count_.size()) - 1;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    ++degree_count_[std::min(graph.Degree(v), top)];
  }
  int at_least = 0;
  for (int d = top; d >= 0; --d) {
    at_least += degree_count_[d];
    if (at_least < at_least_[d]) return kInfiniteDistance;
  }

  double bound = 0;
  if (edge_cost_ > 0) {
    const int unmatched = Unmatched(edge_labels_, graph.NumEdges(), [&](int e) {
      return graph.GetEdge(e).label;
    });
    if (unmatched > 0) bound += edge_cost_ * unmatched;
  }
  if (vertex_cost_ > 0) {
    const int unmatched =
        Unmatched(vertex_labels_, graph.NumVertices(),
                  [&](int v) { return graph.VertexLabel(v); });
    if (unmatched > 0) bound += vertex_cost_ * unmatched;
  }
  if (bound > sigma) return bound;

  // The mismatch budget per query vertex: ⌊σ / c_e⌋, or the largest query
  // degree (never binding) when labels cost nothing or σ allows any count.
  int budget = top;
  if (edge_cost_ > 0) {
    const double allowed = std::floor(sigma / edge_cost_);
    if (allowed < budget) budget = allowed < 0 ? -1 : static_cast<int>(allowed);
  }
  const int mismatches = RefineDomains(graph, budget);
  if (mismatches < 0) return kInfiniteDistance;
  if (mismatches > 0) {
    bound = std::max(bound, edge_cost_ * ((mismatches + 1) / 2));
  }
  return bound;
}

namespace {

/// Whether the k <= 4 sets `masks` (each a subset of 64 slots) have
/// distinct representatives: Hall's condition itself, every union of j
/// sets holding at least j slots (at most 15 unions). The j <= 4 bits are
/// counted by clearing the lowest one j times: without a popcount
/// instruction in the target, std::popcount is a library call.
bool HasDistinctRepresentatives(const uint64_t* masks, int k) {
  uint64_t unions[16];
  int sizes[16];
  unions[0] = 0;
  sizes[0] = 0;
  for (unsigned t = 1; t < (1u << k); ++t) {
    unions[t] = unions[t & (t - 1)] | masks[std::countr_zero(t)];
    sizes[t] = sizes[t & (t - 1)] + 1;
    uint64_t rest = unions[t];
    for (int j = 0; j < sizes[t]; ++j) {
      if (rest == 0) return false;
      rest &= rest - 1;
    }
  }
  return true;
}

}  // namespace

int GraphCertificate::RefineDomains(const Graph& graph, int budget) {
  const int n = graph.NumVertices();
  words_ = (n + 63) / 64;
  g_adjacency_.assign(static_cast<size_t>(n) * words_, 0);
  g_degree_.assign(n, 0);
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    const Edge& edge = graph.GetEdge(e);
    g_adjacency_[static_cast<size_t>(edge.u) * words_ + (edge.v >> 6)] |=
        uint64_t{1} << (edge.v & 63);
    g_adjacency_[static_cast<size_t>(edge.v) * words_ + (edge.u >> 6)] |=
        uint64_t{1} << (edge.u & 63);
    ++g_degree_[edge.u];
    ++g_degree_[edge.v];
  }
  if (!InitDomains(graph, budget)) return -1;
  version_.assign(num_query_vertices_, 0);
  reach_version_.assign(num_query_vertices_, -1);
  if (!RefineNeighbourhoods(/*first=*/true) || !HallSweep() || !MatchAll()) {
    return -1;
  }

  if (edge_cost_ <= 0) return 0;
  int mismatches = 0;
  for (int u = 0; u < num_query_vertices_; ++u) {
    int best = std::numeric_limits<int>::max();
    for (int w = 0; w < words_ && best > 0; ++w) {
      uint64_t bits = domain(u)[w];
      while (bits != 0 && best > 0) {
        best = std::min(best, Missing(u, w * 64 + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
    mismatches += best;
  }
  return mismatches;
}

bool GraphCertificate::HallSweep() {
  // Injectivity, pair by pair: a sweep over the (u, v) pairs of every
  // query vertex with three or four neighbours (two are already settled
  // by RefineNeighbourhoods), in order_. After each vertex's sweep its
  // removals propagate at once, to the pairs they can affect: (u, x) with
  // u a neighbour of the removed pair's query vertex and x a neighbour of
  // its G vertex.
  queue_.clear();
  size_t head = 0;
  for (int u : order_) {
    const int degree = q_begin_[u + 1] - q_begin_[u];
    if (degree < 3 || degree > kMaxHall) continue;
    for (int w = 0; w < words_; ++w) {
      uint64_t bits = domain(u)[w];
      while (bits != 0) {
        const int v = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        if (!Supported(u, v) && !Remove(u, v)) return false;
      }
    }
    for (; head < queue_.size(); ++head) {
      const auto [w, v] = queue_[head];
      const uint64_t* adjacent = &g_adjacency_[static_cast<size_t>(v) * words_];
      for (int qi = q_begin_[w]; qi < q_begin_[w + 1]; ++qi) {
        const int x_owner = q_nbrs_[qi];
        for (int i = 0; i < words_; ++i) {
          for (uint64_t bits = adjacent[i] & domain(x_owner)[i]; bits != 0;
               bits &= bits - 1) {
            const int x = i * 64 + std::countr_zero(bits);
            if (!Supported(x_owner, x) && !Remove(x_owner, x)) return false;
          }
        }
      }
    }
  }
  return true;
}

int GraphCertificate::Missing(int u, int v) const {
  const size_t num_labels = edge_labels_.labels.size();
  const int* wanted = label_counts_.data() + u * num_labels;
  const int* have = g_labels_.data() + v * num_labels;
  int missing = q_begin_[u + 1] - q_begin_[u];
  for (size_t l = 0; l < num_labels; ++l) {
    missing -= std::min(wanted[l], have[l]);
  }
  return missing;
}

bool GraphCertificate::InitDomains(const Graph& graph, int budget) {
  const int n = graph.NumVertices();
  const size_t num_labels = edge_cost_ > 0 ? edge_labels_.labels.size() : 0;
  if (num_labels > 0) {
    g_labels_.assign(static_cast<size_t>(n) * num_labels, 0);
    for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
      const Edge& edge = graph.GetEdge(e);
      const auto it = std::find(edge_labels_.labels.begin(),
                                edge_labels_.labels.end(), edge.label);
      if (it == edge_labels_.labels.end()) continue;
      const size_t slot = it - edge_labels_.labels.begin();
      ++g_labels_[edge.u * num_labels + slot];
      ++g_labels_[edge.v * num_labels + slot];
    }
  }
  // u's neighbours need distinct neighbours of v of at least their degree.
  // With both degree lists descending that is a pointwise comparison, so
  // level(i, t) holds the G vertices with more than i neighbours of degree
  // >= t, and u's initial domain is the intersection of one level per
  // neighbour. Each threshold t counts, bit-sliced, the neighbours in
  // {x : deg(x) >= t}; level(i, t) is bit plane i of that count, saturated
  // at kLevelPlanes (a vertex beyond that is checked for kLevelPlanes
  // neighbours only, which can only keep more).
  const int top = static_cast<int>(at_least_.size()) - 1;
  const int planes_used = std::min(top, kLevelPlanes);
  levels_.resize(static_cast<size_t>(kLevelPlanes) * top * words_);
  auto level = [this, top](int i, int t) {
    return &levels_[(static_cast<size_t>(i) * top + (t - 1)) * words_];
  };
  for (int t = 1; t <= top; ++t) {
    for (int j = 0; j < words_; ++j) {
      uint64_t planes[kLevelPlanes] = {};
      for (VertexId x = 0; x < n; ++x) {
        if (g_degree_[x] < t) continue;
        const uint64_t adjacent =
            g_adjacency_[static_cast<size_t>(x) * words_ + j];
        for (int i = kLevelPlanes - 1; i > 0; --i) {
          planes[i] |= planes[i - 1] & adjacent;
        }
        planes[0] |= adjacent;
      }
      for (int i = 0; i < planes_used; ++i) level(i, t)[j] = planes[i];
    }
  }

  domains_.resize(static_cast<size_t>(num_query_vertices_) * words_);
  for (int u = 0; u < num_query_vertices_; ++u) {
    const int degree = q_begin_[u + 1] - q_begin_[u];
    const int* wanted = nbr_degrees_.data() + q_begin_[u];
    uint64_t* row = domain(u);
    for (int w = 0; w < words_; ++w) {
      const int bits = std::min(64, n - 64 * w);
      row[w] = bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
      for (int i = 0; i < degree; ++i) {
        row[w] &= level(std::min(i, kLevelPlanes - 1), wanted[i])[w];
      }
    }
    // The budget binds only where u has more incident edges than it allows.
    if (edge_cost_ > 0 && degree > budget) {
      for (int w = 0; w < words_; ++w) {
        uint64_t bits = row[w];
        while (bits != 0) {
          const int b = std::countr_zero(bits);
          bits &= bits - 1;
          if (Missing(u, w * 64 + b) > budget) row[w] &= ~(uint64_t{1} << b);
        }
      }
    }
    if (std::all_of(row, row + words_, [](uint64_t x) { return x == 0; })) {
      return false;
    }
  }
  return true;
}

bool GraphCertificate::RefineNeighbourhoods(bool first) {
  // reach(w): the G vertices adjacent to some vertex of D(w); reach2(w, w'):
  // those with two or more neighbours in D(w) ∪ D(w'). v stays in D(u) only
  // while it lies in reach(w) for every neighbour w of u and in
  // reach2(w, w') for every two of them: Hall's condition over the
  // neighbour subsets of size one and two, exact for u of degree <= 2. Each
  // pass intersects every domain with these sets, recomputing one only
  // after a domain it reads shrank, until a pass changes nothing.
  reach_.resize(static_cast<size_t>(num_query_vertices_) * words_);
  reach2_.resize(static_cast<size_t>(num_query_vertices_) * words_);
  // A first pass reads only the neighbours earlier in order_, whose
  // domains it has already cut down: reaches of whole initial domains
  // (every G vertex, for a query leaf) are never computed.
  for (bool changed = true; changed; first = false) {
    changed = first;
    for (int u : order_) {
      if (q_begin_[u + 1] == q_begin_[u]) break;  // isolated: no neighbours
      uint64_t* d = domain(u);
      bool shrunk = false;
      auto keep = [&](const uint64_t* r) {
        for (int i = 0; i < words_; ++i) {
          const uint64_t kept = d[i] & r[i];
          shrunk |= kept != d[i];
          d[i] = kept;
        }
      };
      for (int qi = q_begin_[u]; qi < q_begin_[u + 1]; ++qi) {
        const int w = q_nbrs_[qi];
        if (!first || rank_[w] < rank_[u]) keep(Reach(w));
      }
      for (int p = pair_begin_[u]; p < pair_begin_[u + 1]; ++p) {
        if (!first || std::max(rank_[pair_ends_[2 * p]],
                               rank_[pair_ends_[2 * p + 1]]) < rank_[u]) {
          keep(PairReach(p));
        }
      }
      if (!shrunk) continue;
      changed = true;
      Shrunk(u);
      if (std::all_of(d, d + words_, [](uint64_t x) { return x == 0; })) {
        return false;
      }
    }
  }
  return true;
}

const uint64_t* GraphCertificate::Reach(int w) {
  uint64_t* once = &reach_[static_cast<size_t>(w) * words_];
  if (reach_version_[w] == version_[w]) return once;
  reach_version_[w] = version_[w];
  // Bit-sliced counting to two, word by word so the counts stay in
  // registers: reach(w) holds the vertices adjacent to D(w) at least once,
  // reach2_ the ones adjacent at least twice.
  uint64_t* twice = &reach2_[static_cast<size_t>(w) * words_];
  const uint64_t* d = domain(w);
  for (int j = 0; j < words_; ++j) {
    uint64_t seen = 0;
    uint64_t again = 0;
    for (int i = 0; i < words_; ++i) {
      for (uint64_t bits = d[i]; bits != 0; bits &= bits - 1) {
        const int x = i * 64 + std::countr_zero(bits);
        const uint64_t adjacent =
            g_adjacency_[static_cast<size_t>(x) * words_ + j];
        again |= seen & adjacent;
        seen |= adjacent;
      }
    }
    once[j] = seen;
    twice[j] = again;
  }
  return once;
}

const uint64_t* GraphCertificate::PairReach(int p) {
  const int a = pair_ends_[2 * p];
  const int b = pair_ends_[2 * p + 1];
  const uint64_t* once_a = Reach(a);
  Reach(b);
  const uint64_t* twice_a = &reach2_[static_cast<size_t>(a) * words_];
  const uint64_t* twice_b = &reach2_[static_cast<size_t>(b) * words_];
  const uint64_t* da = domain(a);
  const uint64_t* db = domain(b);
  // Neighbouring query vertices mostly have nested domains, and then the
  // pair's reach2 is the larger one's.
  bool b_in_a = true;
  bool a_in_b = true;
  for (int i = 0; i < words_; ++i) {
    b_in_a &= (db[i] & ~da[i]) == 0;
    a_in_b &= (da[i] & ~db[i]) == 0;
  }
  if (b_in_a) return twice_a;
  if (a_in_b) return twice_b;
  // Otherwise count C = D(b) \ D(a) on its own: a vertex is adjacent
  // twice to D(a) ∪ D(b) when twice to D(a), twice to C, or once to each.
  pair_row_.resize(words_);
  for (int j = 0; j < words_; ++j) {
    uint64_t seen = 0;
    uint64_t again = 0;
    for (int i = 0; i < words_; ++i) {
      for (uint64_t bits = db[i] & ~da[i]; bits != 0; bits &= bits - 1) {
        const int x = i * 64 + std::countr_zero(bits);
        const uint64_t adjacent =
            g_adjacency_[static_cast<size_t>(x) * words_ + j];
        again |= seen & adjacent;
        seen |= adjacent;
      }
    }
    pair_row_[j] = twice_a[j] | again | (once_a[j] & seen);
  }
  return pair_row_.data();
}

bool GraphCertificate::Supported(int u, int v) const {
  // Beyond four neighbours only the one- and two-neighbour subsets, which
  // RefineNeighbourhoods checks, are enforced: keeping v is always sound.
  const int k = q_begin_[u + 1] - q_begin_[u];
  if (k == 0 || k > kMaxHall) return true;
  const int* query_nbrs = &q_nbrs_[q_begin_[u]];
  uint64_t masks[kMaxHall];
  if (words_ == 1) {
    // Slots are G's vertex ids.
    const uint64_t adjacent = g_adjacency_[v];
    for (int i = 0; i < k; ++i) {
      masks[i] = adjacent & domains_[query_nbrs[i]];
      if (masks[i] == 0) return false;
    }
  } else {
    // Slots are ranks among v's neighbours.
    if (g_degree_[v] > 64) return true;  // unchecked: keeping v is sound
    const uint64_t* adjacent = &g_adjacency_[static_cast<size_t>(v) * words_];
    for (int i = 0; i < k; ++i) {
      const uint64_t* row = domain(query_nbrs[i]);
      uint64_t mask = 0;
      int slot = 0;
      for (int c = 0; c < words_; ++c) {
        for (uint64_t bits = adjacent[c]; bits != 0; bits &= bits - 1) {
          mask |= ((row[c] >> std::countr_zero(bits)) & 1) << slot++;
        }
      }
      if (mask == 0) return false;
      masks[i] = mask;
    }
  }
  return HasDistinctRepresentatives(masks, k);
}

bool GraphCertificate::Remove(int u, int v) {
  domain(u)[v >> 6] &= ~(uint64_t{1} << (v & 63));
  Shrunk(u);
  queue_.emplace_back(u, v);
  const uint64_t* d = domain(u);
  return std::any_of(d, d + words_, [](uint64_t x) { return x != 0; });
}

bool GraphCertificate::MatchAll() {
  owner_.assign(g_degree_.size(), -1);
  used_.assign(words_, 0);
  for (int u : order_) {
    bool placed = false;
    for (int w = 0; w < words_ && !placed; ++w) {
      const uint64_t free = domain(u)[w] & ~used_[w];
      if (free == 0) continue;
      const int b = std::countr_zero(free);
      used_[w] |= uint64_t{1} << b;
      owner_[w * 64 + b] = u;
      placed = true;
    }
    if (placed) continue;
    visited_.assign(words_, 0);
    if (!Augment(u)) return false;
  }
  return true;
}

bool GraphCertificate::Augment(int u) {
  for (int w = 0; w < words_; ++w) {
    uint64_t candidates = domain(u)[w] & ~visited_[w];
    while (candidates != 0) {
      const int b = std::countr_zero(candidates);
      candidates &= candidates - 1;
      visited_[w] |= uint64_t{1} << b;
      const int x = w * 64 + b;
      if (owner_[x] < 0 || Augment(owner_[x])) {
        owner_[x] = u;
        used_[w] |= uint64_t{1} << b;
        return true;
      }
    }
  }
  return false;
}

void GraphCertificate::HalfEdges(const Graph& graph) {
  const int n = graph.NumVertices();
  g_vertices_ = n;
  g_begin_.resize(n + 1);
  g_begin_[0] = 0;
  int widest = 0;
  for (VertexId v = 0; v < n; ++v) {
    g_begin_[v + 1] = g_begin_[v] + graph.Degree(v);
    widest = std::max(widest, graph.Degree(v));
  }
  const int halves = g_begin_[n];
  g_halves_ = halves;
  g_far_.resize(halves);
  g_edge_label_.resize(halves);
  g_arc_.resize(halves);
  for (VertexId v = 0; v < n; ++v) {
    int h = g_begin_[v];
    for (EdgeId e : graph.IncidentEdges(v)) {
      const Edge& edge = graph.GetEdge(e);
      g_far_[h] = edge.Other(v);
      g_edge_label_[h] = edge.label;
      g_arc_[h++] = 2 * e + (edge.u == v ? 0 : 1);
    }
  }
  if (vertex_cost_ > 0) {
    g_vertex_label_.resize(n);
    for (VertexId v = 0; v < n; ++v) g_vertex_label_[v] = graph.VertexLabel(v);
  }
  // Grown only, never cleared: an entry counts only under a domain bit,
  // and every entry under one was written for this graph.
  auto grow = [](auto& array, size_t size) {
    if (array.size() < size) array.resize(size);
  };
  const size_t cells = static_cast<size_t>(num_query_vertices_) * n;
  const size_t arcs = static_cast<size_t>(num_query_vertices_) * halves;
  grow(table_, arcs);
  grow(place_cost_, arcs);
  grow(best_two_, cells);
  grow(placement_, cells);
  grow(out_, cells);
  supported_.resize(static_cast<size_t>(num_query_vertices_) * words_);
}

double GraphCertificate::PlaceChild(int c, int v, int first, int deg,
                                    double sigma) {
  const uint64_t* dom = domain(c);
  const Label label = parent_label_[c];
  const int grandchildren = child_begin_[c + 1] - child_begin_[c];
  const BestTwo* two = best_two_.data() + static_cast<size_t>(c) * g_vertices_;
  const double* row = table_.data() + static_cast<size_t>(c) * g_halves_;
  double* costs =
      place_cost_.data() + static_cast<size_t>(c) * g_halves_ + first;
  // Selects rather than branches: domain bits and label matches are
  // data-dependent, so the entry is read, then kept or replaced by
  // infinity.
  double best = kInfiniteDistance;
  double second = kInfiniteDistance;
  int slot = -1;
  uint64_t ties = 0;
  for (int i = 0; i < deg; ++i) {
    const int h = first + i;
    const int x = g_far_[h];
    double cost = g_edge_label_[h] == label ? 0.0 : edge_cost_;
    if (grandchildren == 0) {
      cost += OwnCost(c, x);
    } else if (grandchildren == 1) {
      cost += two[x].image == v ? two[x].second : two[x].best;
    } else {
      cost += row[g_arc_[h] ^ 1];
    }
    const bool kept = ((dom[x >> 6] >> (x & 63)) & 1) != 0 && cost <= sigma;
    cost = kept ? cost : kInfiniteDistance;
    costs[i] = cost;
    const uint64_t bit = i < 64 ? uint64_t{1} << i : 0;
    const bool better = cost < best;
    second = better ? best : std::min(second, cost);
    slot = better ? i : slot;
    ties = better ? bit : (cost == best ? ties | bit : ties);
    best = better ? cost : best;
  }
  placement_[static_cast<size_t>(c) * g_vertices_ + v] = {best, second, slot,
                                                          ties};
  return best;
}

double GraphCertificate::TreeBound(double sigma) {
  const int n = g_vertices_;
  const int halves = g_halves_;
  auto in_domain = [this](int u, int v) {
    return ((domain(u)[v >> 6] >> (v & 63)) & 1) != 0;
  };
  // Children before parents; leaves are read by their parent directly.
  double total = 0;
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const int u = *it;
    const int parent = parent_[u];
    const int k = child_begin_[u + 1] - child_begin_[u];
    if (k == 0 && parent >= 0) continue;
    const int* kids = children_.data() + child_begin_[u];
    double root_best = kInfiniteDistance;
    uint64_t* d = domain(u);
    bool shrunk = false;
    // Every place of a root is priced too: the outside pass reads them all.
    for (int w = 0; w < words_; ++w) {
      for (uint64_t bits = d[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const int v = w * 64 + b;
        const int first = g_begin_[v];
        const int deg = g_begin_[v + 1] - first;
        const double own = OwnCost(u, v);
        // The children's cheapest places, each on its own, bound every
        // F(u, v, ·) from below.
        double sum = own;
        for (int j = 0; j < k && sum <= sigma; ++j) {
          sum += PlaceChild(kids[j], v, first, deg, sigma);
        }
        bool live = sum <= sigma;
        if (live && parent < 0) {
          const double value =
              k < 2 ? sum : own + AssignChildren(kids, k, v, first, deg, -1);
          live = value <= sigma;
          if (live) root_best = std::min(root_best, value);
        } else if (live && k == 1) {
          const Placement& child =
              placement_[static_cast<size_t>(kids[0]) * n + v];
          const double second = own + child.second;
          best_two_[static_cast<size_t>(u) * n + v] = {
              sum, g_far_[first + child.slot],
              second > sigma ? kInfiniteDistance : second};
        } else if (live) {
          // One entry per place of u's parent: a neighbour of v in its
          // domain, which u's children may not take.
          live = false;
          for (int i = 0; i < deg; ++i) {
            if (!in_domain(parent, g_far_[first + i])) continue;
            double value = own + AssignChildren(kids, k, v, first, deg, i);
            if (value > sigma) value = kInfiniteDistance;
            table_[static_cast<size_t>(u) * halves + g_arc_[first + i]] = value;
            live |= value != kInfiniteDistance;
          }
        }
        if (!live) {
          d[w] &= ~(uint64_t{1} << b);
          shrunk = true;
        }
      }
    }
    if (shrunk) Shrunk(u);
    if (std::all_of(d, d + words_, [](uint64_t x) { return x == 0; })) {
      return kInfiniteDistance;
    }
    if (parent < 0) {
      root_best_[u] = root_best;
      total += root_best;
      if (total > sigma) return kInfiniteDistance;
    }
  }
  return total;
}

int GraphCertificate::OutsidePass(double sigma) {
  const int n = g_vertices_;
  const int halves = g_halves_;
  bool narrowed = false;
  // Parents before children; a leaf's domain is narrowed by its parent.
  for (int u : order_) {
    const int parent = parent_[u];
    const int k = child_begin_[u + 1] - child_begin_[u];
    if (k == 0 && parent >= 0) continue;
    const int* kids = children_.data() + child_begin_[u];
    double outside = 0;  // a root's: the other components' minima
    if (parent < 0) {
      for (int r : order_) {
        if (r != u && parent_[r] < 0) outside += root_best_[r];
      }
    }
    const double* out_u = out_.data() + static_cast<size_t>(u) * n;
    for (int j = 0; j < k; ++j) {
      uint64_t* kept = supported(kids[j]);
      std::fill(kept, kept + words_, 0);
    }
    uint64_t* d = domain(u);
    bool shrunk = false;
    for (int w = 0; w < words_; ++w) {
      for (uint64_t bits = d[w]; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        const int v = w * 64 + b;
        const int first = g_begin_[v];
        const int deg = g_begin_[v + 1] - first;
        const double own = OwnCost(u, v);
        // The inside pass placed u's children at every v left in D(u).
        auto placed = [&](int j) -> const Placement& {
          return placement_[static_cast<size_t>(kids[j]) * n + v];
        };
        if (parent < 0 && outside > 0) {
          // Every root place was kept within σ on its own; with the other
          // components' cost it must still fit.
          double value = own;
          if (k >= 2) {
            value += AssignChildren(kids, k, v, first, deg, -1);
          } else if (k == 1) {
            value += placed(0).best;
          }
          if (outside + value > sigma) {
            d[w] &= ~(uint64_t{1} << b);
            shrunk = true;
            continue;
          }
        }
        // A child's places are in D(u) only with a finite out(u, v).
        const double base = (parent < 0 ? outside : out_u[v]) + own;
        // Child j on slot i: its siblings each take their cheapest slot
        // other than i.
        for (int j = 0; j < k; ++j) {
          const int c = kids[j];
          const Label label = parent_label_[c];
          const double* costs =
              place_cost_.data() + static_cast<size_t>(c) * halves + first;
          double* out_c = out_.data() + static_cast<size_t>(c) * n;
          uint64_t* kept = supported(c);
          for (int i = 0; i < deg; ++i) {
            if (costs[i] == kInfiniteDistance) continue;
            double partial = base;
            for (int s = 0; s < k; ++s) {
              if (s != j) {
                const Placement& sibling = placed(s);
                partial += sibling.slot == i ? sibling.second : sibling.best;
              }
            }
            if (partial + costs[i] > sigma) continue;
            const int h = first + i;
            const int x = g_far_[h];
            const double edge = g_edge_label_[h] == label ? 0.0 : edge_cost_;
            const uint64_t bit = uint64_t{1} << (x & 63);
            double& out = out_c[x];
            out = (kept[x >> 6] & bit) != 0 ? std::min(out, partial + edge)
                                             : partial + edge;
            kept[x >> 6] |= bit;
          }
        }
      }
    }
    if (shrunk) {
      narrowed = true;
      Shrunk(u);
      if (std::all_of(d, d + words_, [](uint64_t x) { return x == 0; })) {
        return -1;
      }
    }
    // Each child keeps the places some v here supports.
    for (int j = 0; j < k; ++j) {
      const int c = kids[j];
      uint64_t* dc = domain(c);
      const uint64_t* kept = supported(c);
      bool cut = false;
      bool empty = true;
      for (int w = 0; w < words_; ++w) {
        cut |= (dc[w] & ~kept[w]) != 0;
        dc[w] &= kept[w];
        empty &= dc[w] == 0;
      }
      if (!cut) continue;
      narrowed = true;
      Shrunk(c);
      if (empty) return -1;
    }
  }
  return narrowed ? 1 : 0;
}

double GraphCertificate::AssignChildren(const int* kids, int k, int v,
                                        int first, int deg, int skip) const {
  // Every child on one of its cheapest slots, distinct and avoiding
  // `skip`, is optimal: Hall's condition over those slots.
  const uint64_t keep = skip < 0 ? ~uint64_t{0} : ~(uint64_t{1} << skip);
  uint64_t masks[kMaxHall];
  double sum = 0;
  for (int j = 0; j < k; ++j) {
    const Placement& child =
        placement_[static_cast<size_t>(kids[j]) * g_vertices_ + v];
    sum += child.best;
    if (j < kMaxHall) masks[j] = child.ties & keep;
  }
  if (k <= kMaxHall && deg <= 64 && HasDistinctRepresentatives(masks, k)) {
    return sum;
  }
  if (k > kMaxTreeChildren || deg > kMaxTreeWidth) {
    // Too wide for the subset DP: each child on its own, avoiding `skip`.
    sum = 0;
    for (int j = 0; j < k; ++j) {
      const Placement& child =
          placement_[static_cast<size_t>(kids[j]) * g_vertices_ + v];
      sum += child.slot == skip ? child.second : child.best;
    }
    return sum;
  }
  // subsets[m]: the cheapest placement of the children in m onto the slots
  // seen so far; each slot goes to at most one child.
  const double* costs[kMaxTreeChildren];
  for (int j = 0; j < k; ++j) {
    costs[j] =
        place_cost_.data() + static_cast<size_t>(kids[j]) * g_halves_ + first;
  }
  const int full = (1 << k) - 1;
  double subsets[1 << kMaxTreeChildren];
  std::fill(subsets, subsets + full + 1, kInfiniteDistance);
  subsets[0] = 0;
  for (int i = 0; i < deg; ++i) {
    if (i == skip) continue;
    for (int m = full - 1; m >= 0; --m) {
      const double base = subsets[m];
      if (base == kInfiniteDistance) continue;
      for (int j = 0; j < k; ++j) {
        const double c = costs[j][i];
        if ((m >> j) & 1 || c == kInfiniteDistance) continue;
        double& next = subsets[m | (1 << j)];
        next = std::min(next, base + c);
      }
    }
  }
  return subsets[full];
}

}  // namespace pis
