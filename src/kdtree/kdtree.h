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
#include "src/core/lane_walk.h"
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
  // It is nn_lanes below with one lane (the forest calls it per level).
  template <typename V>
  void nn_visit(const Point& q, V&& vis, const QueryOptions& opts = {}) const {
    nn_lanes<1>(&q, &vis, 1, &opts);
  }

  // The nearest-neighbour traversal for queries qs[0..m) (m <= Lanes) with
  // visitors vis[0..m) and options opts[0..m), walked together on the
  // shared lane kernel (src/core/lane_walk.h). Each lane runs the
  // depth-first search above from an explicit stack (far child pushed
  // under the near one, so the visit order, the prune checks and the
  // charges are a lone search's), one node per step: a step first scans
  // the leaf the previous one reached, then pops until it fetches a node,
  // and prefetches what the next step reads — both children of an interior
  // node, or the points of a leaf. Reads are tallied and charged once.
  template <size_t Lanes, typename V>
  void nn_lanes(const Point* qs, V* vis, size_t m,
                const QueryOptions* opts) const;

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
  // ancestor splits, and every split inside its ancestors' region (the
  // nearest-neighbour walk's region distances rely on it); leaf ranges
  // partition points_; every node's [begin, end) slice is the union of its
  // children's and its box bounds the slice.
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

  // Lane width of knn_batch's blocks (KdQueries reads it).
  static constexpr size_t kNnLanes = 8;

  // A pending subtree of the nearest-neighbour search: the node and the
  // distance from the query to the node's split-induced region, per axis
  // (gap) and squared (d2 = sum of gap[d]^2 in axis order, which is
  // Box::squared_distance of the region, bit for bit). Splits lie inside
  // their region, so the near child keeps its parent's gaps and the far
  // child's gap on the split axis is |q - split|.
  struct NnFrame {
    uint32_t node;
    double d2;
    double gap[K];
  };
  // The search stack of one lane. Its depth is at most the tree height
  // plus one, so it lives in the lane itself up to kInline frames (left
  // uninitialised until pushed) and spills to the heap only beyond that.
  class NnStack {
   public:
    static constexpr size_t kInline = 64;
    NnStack() {}  // no fill of inline_
    bool empty() const { return n_ == 0; }
    void push(const NnFrame& f) {
      if (n_ < kInline) {
        inline_[n_] = f;
      } else {
        spill_.push_back(f);
      }
      ++n_;
    }
    NnFrame pop() {
      if (--n_ < kInline) return inline_[n_];
      NnFrame f = spill_.back();
      spill_.pop_back();
      return f;
    }

   private:
    NnFrame inline_[kInline];
    size_t n_ = 0;
    std::vector<NnFrame> spill_;
  };

  std::vector<Node> nodes_;
  std::vector<Point> points_;
  uint32_t root_ = kNullNode;
  size_t leaf_size_ = 8;

  template <int K2>
  friend class PBatchedBuilder;
};

template <int K>
template <size_t Lanes, typename V>
void KdTree<K>::nn_lanes(const Point* qs, V* vis, size_t m,
                         const QueryOptions* opts) const {
  if (root_ == kNullNode) return;
  struct Lane {
    NnStack stack;
    uint32_t scan_begin = 0, scan_end = 0;  // the leaf the next step scans
  };
  Lane lanes[Lanes];
  for (size_t l = 0; l < m; ++l) {
    NnFrame root{root_, 0.0, {}};
    lanes[l].stack.push(root);
  }
  core::Tally t;
  core::walk_lanes<Lanes>(m, [&](size_t l) {
    Lane& lane = lanes[l];
    const Point& q = qs[l];
    V& v = vis[l];
    QueryStats* stats = opts[l].stats;
    for (uint32_t i = lane.scan_begin; i < lane.scan_end; ++i) {
      if (stats) ++stats->points_scanned;
      v.offer(points_[i], geom::squared_distance(points_[i], q));
    }
    t.reads += lane.scan_end - lane.scan_begin;
    lane.scan_begin = lane.scan_end = 0;
    while (!lane.stack.empty()) {
      NnFrame f = lane.stack.pop();
      if (f.d2 > v.bound()) continue;
      if (stats) ++stats->nodes_visited;
      t.reads += 1;  // the node: split, slice and box together
      const Node& nd = nodes_[f.node];
      // Tight-box short-circuit: the subtree's bounding box lower-bounds
      // every point distance in it, and is never looser than the region.
      if (opts[l].count_fast_path && nd.box.squared_distance(q) > v.bound()) {
        if (stats) ++stats->covered_subtrees;
        continue;
      }
      if (nd.is_leaf()) {
        lane.scan_begin = nd.begin;
        lane.scan_end = nd.end;
        auto* p = reinterpret_cast<const char*>(points_.data() + nd.begin);
        auto* e = reinterpret_cast<const char*>(points_.data() + nd.end);
        for (; p < e; p += 64) __builtin_prefetch(p);
        return true;
      }
      bool left_first = q[nd.dim] <= nd.split;
      NnFrame far = f;
      far.node = left_first ? nd.right : nd.left;
      far.gap[nd.dim] =
          left_first ? nd.split - q[nd.dim] : q[nd.dim] - nd.split;
      far.d2 = 0;
      for (int d = 0; d < K; ++d) far.d2 += far.gap[d] * far.gap[d];
      f.node = left_first ? nd.left : nd.right;
      lane.stack.push(far);
      lane.stack.push(f);
      __builtin_prefetch(&nodes_[nd.left]);
      __builtin_prefetch(&nodes_[nd.right]);
      return true;
    }
    return false;
  });
  t.charge();
}

using KdTree2 = KdTree<2>;
using KdTree3 = KdTree<3>;

}  // namespace weg::kdtree
