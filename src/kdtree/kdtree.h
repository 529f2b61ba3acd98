// k-d trees (Section 6.1): classic median-split construction (the baseline,
// Θ(n log n) reads and writes) plus range and (1+eps)-approximate
// nearest-neighbor queries shared by every construction variant.
//
// Splitting cycles through the k dimensions (the analysis of Lemma 6.1
// assumes each axis is partitioned once every k consecutive levels).
// Every node stores its subtree's slice [begin, end) of the DFS-ordered
// point array and the tight bounding box of that slice. The slice doubles
// as a live-subtree count (end - begin, free at build time from the
// pre-claimed slice sizes), and the box drives the covered-subtree fast
// path: a query box that fully covers a node's bounding box answers
// range_count in O(1) and range_report by a bulk slice copy, without
// descending further (Lemma 6.1's count bound made concrete). Leaves store
// up to `leaf_size` points.
#pragma once

#include <cstdint>
#include <vector>

#include "src/asym/counters.h"
#include "src/geom/box.h"
#include "src/geom/point.h"
#include "src/kdtree/queries.h"

namespace weg::kdtree {

struct BuildStats {
  asym::Counts cost;   // large-memory traffic of the build
  size_t height = 0;   // tree height (nodes on longest root-leaf path)
  size_t nodes = 0;    // total tree nodes
  // p-batched only: number of leaf-settle events and max buffer size seen at
  // settle time (Figure 2 / Lemma 6.3 series).
  size_t settles = 0;
  size_t max_settle_buffer = 0;
};

namespace detail {

// True iff V exposes the covered-subtree hook `covered(begin, end)` — the
// visitor-side half of the fast path. Visitors without it (liveness-filtered
// forest levels, plain lambdas) always take the per-point traversal.
template <typename V>
concept CoveredVisitor = requires(V v, size_t b, size_t e) { v.covered(b, e); };

}  // namespace detail

inline constexpr uint32_t kNullNode = UINT32_MAX;

// Exact node count of the classic median-split recursion over m points
// (count(m) = 1 for m <= leaf_size, else 1 + count(floor(m/2)) +
// count(ceil(m/2)); an empty range still makes one leaf node). Splits are at
// the exact median, so the count is a function of (m, leaf_size) alone —
// this is what lets the parallel builds pre-claim deterministic id slices
// instead of drawing from a scheduling-dependent atomic allocator. O(log m):
// subtree sizes at each recursion depth take at most two distinct values.
size_t classic_node_count(size_t m, size_t leaf_size);

template <int K>
class KdTree : public KdQueries<KdTree<K>, K> {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  struct Node {
    int dim = 0;                 // splitting dimension (interior)
    double split = 0;            // splitting coordinate (interior)
    uint32_t left = kNullNode;   // kNullNode for leaves
    uint32_t right = kNullNode;
    // Subtree slice in points_ (leaves partition points_ in DFS order, so
    // every subtree is contiguous). end - begin is the subtree's point
    // count — the count augmentation is free at build time.
    uint32_t begin = 0, end = 0;
    // Tight bounding box of points_[begin, end) (empty() for an empty
    // leaf). Derived bookkeeping maintained by every builder; the covered
    // fast path and the nn short-circuit read it with the node itself.
    Box box = Box::empty();
    bool is_leaf() const { return left == kNullNode; }
  };

  KdTree() = default;

  // Classic construction: recursive exact-median split, cycling dimensions.
  // Charges one read + one write per point per level (Θ(n log n) writes).
  static KdTree build_classic(std::vector<Point> points, size_t leaf_size = 8,
                              BuildStats* stats = nullptr);

  // --- queries ---------------------------------------------------------

  // Count / report points inside the axis-aligned box.
  size_t range_count(const Box& query, const QueryOptions& opts = {}) const;
  std::vector<Point> range_report(const Box& query,
                                  const QueryOptions& opts = {}) const;

  // (1+eps)-approximate nearest neighbor; eps = 0 gives the exact NN.
  // Returns the index into points() of the neighbor (SIZE_MAX if the tree is
  // empty or q is not finite).
  size_t ann(const Point& q, double eps = 0.0,
             const QueryOptions& opts = {}) const;

  // k nearest neighbors (exact), as indices into points() sorted by the
  // canonical (distance^2, coords) order: min(k, size()) of them, none for a
  // non-finite q.
  std::vector<size_t> knn(const Point& q, size_t k,
                          const QueryOptions& opts = {}) const;

  // The batched queries (range_count_batch, range_report_batch, knn_batch,
  // ann_batch) come from KdQueries and return points, not indices.

  // --- templated traversals (the visitor core) -------------------------
  //
  // Each query family has exactly one traversal; the public count/report/
  // batch entry points (and the dynamic structures layered on this tree)
  // instantiate them with different visitors.

  // Calls vis(i) for every point index i inside `query`, in deterministic
  // DFS order (equivalently: ascending i, since leaves partition points_
  // in order). If the visitor models detail::CoveredVisitor and the fast
  // path is enabled, a node whose box is fully inside `query` is answered
  // by one vis.covered(begin, end) call instead of descending — O(1) reads
  // for counting visitors.
  template <typename V>
  void range_visit(const Box& query, V&& vis,
                   const QueryOptions& opts = {}) const {
    if (root_ != kNullNode) range_visit_rec(root_, query, vis, opts);
  }

  // Nearest-neighbor traversal with box pruning and near-side-first order.
  // The visitor (NearestOne / NearestK, or the forest's liveness filter
  // around one) owns the candidate set — see src/kdtree/queries.h:
  //   vis.bound()      — current squared-distance pruning radius,
  //   vis.offer(p, d2) — consider p = points()[i] at squared distance d2.
  // Pruning is two-tier: the split-induced region box prunes before the
  // node is fetched (free), and the node's tight bounding box short-circuits
  // after one read — strictly tighter, so whole subtrees farther than the
  // bound cost one read instead of a descent. Both prune strictly (`>`), so
  // distance-tied candidates still reach offer() and the canonical
  // (d2, coords) order decides — results are traversal-independent.
  template <typename V>
  void nn_visit(const Point& q, V&& vis, const QueryOptions& opts = {}) const {
    if (root_ != kNullNode) nn_visit_rec(root_, Box::whole(), q, vis, opts);
  }

  // Index of a point equal to p (SIZE_MAX if absent). Descends the splits,
  // exploring both sides when p lies exactly on a splitting hyperplane.
  size_t find(const Point& p) const;
  // find() restricted to the indices `accept(i)` admits: equal points the
  // predicate rejects (say, erased copies) do not end the search.
  template <typename Accept>
  size_t find_if(const Point& p, Accept&& accept) const {
    if (root_ == kNullNode) return SIZE_MAX;
    size_t result = SIZE_MAX;
    auto rec = [&](auto&& self, uint32_t v) -> void {
      if (result != SIZE_MAX) return;
      asym::count_read();
      const Node& nd = nodes_[v];
      if (nd.is_leaf()) {
        for (uint32_t i = nd.begin; i < nd.end; ++i) {
          asym::count_read();
          if (points_[i] == p && accept(size_t{i})) {
            result = i;
            return;
          }
        }
        return;
      }
      if (p[nd.dim] < nd.split) {
        self(self, nd.left);
      } else if (p[nd.dim] > nd.split) {
        self(self, nd.right);
      } else {  // on the hyperplane: the build may have put it on either side
        self(self, nd.left);
        self(self, nd.right);
      }
    };
    rec(rec, root_);
    return result;
  }

  // --- introspection ------------------------------------------------------

  size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t height() const;

  // Structural invariants: every leaf point lies on the correct side of all
  // ancestor splits; leaf ranges partition points_; every node's [begin,
  // end) slice is the union of its children's and its box bounds the slice.
  // Returns false on any violation (test helper, uncounted).
  bool validate() const;

  // --- internals shared with the other construction algorithms ------------
  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  uint32_t& root() { return root_; }
  uint32_t root() const { return root_; }
  std::vector<Point>& mutable_points() { return points_; }

  // Builds a subtree over points_[lo, hi) (reordering in place) and returns
  // its node index. `charge` toggles asym counting (the p-batched finishing
  // step builds small subtrees inside the symmetric memory and charges only
  // the O(p) input reads / output writes itself). The subtree occupies the
  // pre-claimed slice nodes_[id_base, id_base + classic_node_count(hi - lo))
  // in pre-order (nodes_ must be pre-sized); sibling slices are disjoint, so
  // subtrees above the sequential cutoff fork on the scheduler and node ids
  // are identical at every worker count.
  uint32_t build_recursive(size_t lo, size_t hi, int depth, size_t leaf_size,
                           bool charge, uint32_t id_base);

 private:
  friend class KdQueries<KdTree, K>;

  // The reporting range traversal behind range_report_batch: writes the
  // points inside `query` at out, in range_visit order.
  void report_into(const Box& query, Point* out,
                   const QueryOptions& opts) const;

  template <typename V>
  void range_visit_rec(uint32_t node, const Box& query, V& vis,
                       const QueryOptions& opts) const {
    if (opts.stats) ++opts.stats->nodes_visited;
    asym::count_read();  // fetch the node (split, slice, and box together)
    const Node& nd = nodes_[node];
    if constexpr (detail::CoveredVisitor<V>) {
      if (opts.count_fast_path && nd.box.inside(query)) {
        // Whole subtree inside the query: one covered() call replaces the
        // descent. Counting visitors add end - begin in O(1) reads; the
        // reporting visitor bulk-copies the slice without per-point
        // containment tests.
        if (opts.stats) ++opts.stats->covered_subtrees;
        vis.covered(nd.begin, nd.end);
        return;
      }
    }
    if (nd.is_leaf()) {
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        asym::count_read();
        if (opts.stats) ++opts.stats->points_scanned;
        if (query.contains(points_[i])) vis(i);
      }
      return;
    }
    if (query.lo[nd.dim] <= nd.split) {
      range_visit_rec(nd.left, query, vis, opts);
    }
    if (query.hi[nd.dim] >= nd.split) {
      range_visit_rec(nd.right, query, vis, opts);
    }
  }

  template <typename V>
  void nn_visit_rec(uint32_t node, const Box& region, const Point& q, V& vis,
                    const QueryOptions& opts) const {
    if (region.squared_distance(q) > vis.bound()) return;
    if (opts.stats) ++opts.stats->nodes_visited;
    asym::count_read();
    const Node& nd = nodes_[node];
    // Tight-box short-circuit: the subtree's bounding box lower-bounds every
    // point distance in it, and is never looser than the split region.
    if (opts.count_fast_path && nd.box.squared_distance(q) > vis.bound()) {
      if (opts.stats) ++opts.stats->covered_subtrees;
      return;
    }
    if (nd.is_leaf()) {
      for (uint32_t i = nd.begin; i < nd.end; ++i) {
        asym::count_read();
        if (opts.stats) ++opts.stats->points_scanned;
        vis.offer(points_[i], geom::squared_distance(points_[i], q));
      }
      return;
    }
    Box left_region = region;
    left_region.hi[nd.dim] = nd.split;
    Box right_region = region;
    right_region.lo[nd.dim] = nd.split;
    if (q[nd.dim] <= nd.split) {
      nn_visit_rec(nd.left, left_region, q, vis, opts);
      nn_visit_rec(nd.right, right_region, q, vis, opts);
    } else {
      nn_visit_rec(nd.right, right_region, q, vis, opts);
      nn_visit_rec(nd.left, left_region, q, vis, opts);
    }
  }

  std::vector<Node> nodes_;
  std::vector<Point> points_;
  uint32_t root_ = kNullNode;
  size_t leaf_size_ = 8;

  template <int K2>
  friend class PBatchedBuilder;
};

using KdTree2 = KdTree<2>;
using KdTree3 = KdTree<3>;

}  // namespace weg::kdtree
