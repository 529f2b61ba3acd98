// Dynamic k-d trees (Section 6.2). k-d tree nodes represent subspaces, so
// rotations are impossible; both update strategies in the paper are
// reconstruction-based:
//
//  * LogForest — logarithmic reconstruction [46]: at most log2 n static
//    trees of sizes that are increasing powers of two. An insertion creates
//    a size-1 tree and repeatedly merges equal-sized trees (flatten +
//    rebuild). Queries search all O(log n) trees. Insertion costs
//    O(log^2 n) reads and writes; rebuilding with the p-batched constructor
//    (RebuildMode::PBatched) cuts the *writes* per insertion to O(log n)
//    while reads stay O(log^2 n), exactly the trade the paper describes.
//    Deletions mark points dead and the forest is compacted once half of
//    all points are dead (amortized O(1) writes per deletion). A nearest-
//    neighbour query is one pass: one visitor spans every level, so the
//    levels share one bound, and dead points are read but never offered.
//
//  * DynamicKdTree — single-tree version: subtree sizes are maintained and a
//    subtree is reconstructed whenever the weights of its two children
//    differ beyond the mode's tolerance. Mode::RangeOptimal keeps the
//    imbalance at O(1/log n) so the height stays log2 n + O(1) (preserving
//    the O(n^((k-1)/k)) range query bound) at O(log^3 n) amortized work per
//    insertion; Mode::AnnOnly tolerates a constant-factor imbalance (height
//    O(log n)) at O(log^2 n) amortized work.
//
// Both answer through the k-d family's shared core (src/kdtree/queries.h):
// the canonical (distance^2, coordinates) order, the NearestOne / NearestK
// visitors, and the batched entry points, instantiated over each
// structure's one nn_visit and one range_visit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/status.h"
#include "src/kdtree/kdtree.h"
#include "src/kdtree/pbatched.h"

namespace weg::kdtree {

namespace detail {

// Forest-level covered hook: vis.covered(pts, b, e) consumes the slice
// pts[b, e) of one fully-covered level subtree wholesale (only sound when
// the level has no dead points). Visitors without it always take the
// per-point path.
template <typename V, typename Point>
concept LevelCoveredVisitor =
    requires(V v, const std::vector<Point>& pts, size_t b, size_t e) {
      v.covered(pts, b, e);
    };

}  // namespace detail

template <int K>
class LogForest : public KdQueries<LogForest<K>, K> {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  enum class RebuildMode { kClassic, kPBatched };

  explicit LogForest(RebuildMode mode = RebuildMode::kClassic,
                     size_t leaf_size = 8)
      : mode_(mode), leaf_size_(leaf_size) {}

  void insert(const Point& p);
  // Batched insertion: gathers the carry chain once for the whole batch and
  // performs a single (parallel, p-batched when large) rebuild at the first
  // level that both clears the occupied prefix and is large enough for the
  // batch — one tree build instead of up to |pts| carry-chain merges.
  // prepare(pts, {}) + apply: a non-OK return leaves the forest unchanged.
  Status bulk_insert(const std::vector<Point>& pts);
  // Removes one point equal to p; returns false if absent.
  bool erase(const Point& p);
  // Batched deletion: marks every present point of the batch dead, deferring
  // the half-dead forest compaction check to the end — one compaction per
  // batch instead of up to |pts| piecemeal rebuilds. Returns the number of
  // points actually erased; a non-finite record is rejected pre-mutation.
  // prepare({}, pts) + apply.
  Expected<size_t> bulk_erase(const std::vector<Point>& pts);

  // --- two-phase bulk update (the sharded commit's protocol) -------------

  // One epoch's change to the forest, built by prepare() and consumed by
  // apply(). Opaque to callers: hold it, move it, drop it.
  struct Delta;
  // Plans "insert `ins`, then erase `ers`" without touching the forest. Runs
  // every check (finite coordinates, the "alloc" fault point) and every
  // allocation — the batch copy, the merged level, a compaction the erases
  // trigger, a longer spine — in the order bulk_insert then bulk_erase
  // would. Erases resolve against the plan's view of the forest: absorbed
  // levels are gone and the merged level is present, so a point inserted
  // and erased in one epoch is found. Charges exactly what bulk_insert +
  // bulk_erase charge.
  Expected<Delta> prepare(const std::vector<Point>& ins,
                          const std::vector<Point>& ers) const;
  // Publishes a plan prepared against the current state: swaps levels and
  // flips liveness bytes, allocates and frees nothing, cannot fail. The
  // levels it displaces stay in `d`, so they are freed where the caller
  // drops it. Returns the number of points the plan erased.
  size_t apply(Delta&& d) noexcept;

  size_t range_count(const Box& query, const QueryOptions& opts = {}) const;
  std::vector<Point> range_report(const Box& query,
                                  const QueryOptions& opts = {}) const;
  // (1+eps)-ANN over the live points of every level; nullopt when the
  // forest is empty or q is not finite.
  std::optional<Point> ann(const Point& q, double eps = 0.0,
                           const QueryOptions& opts = {}) const {
    return this->ann_point(q, eps, opts);
  }
  // Exact k nearest neighbors over the live points of all levels, returned
  // as points sorted by (squared distance, coordinates) — the canonical
  // order the sharded layer's top-k merge assumes. Returns exactly
  // min(k, size()) points; k == 0 or a non-finite query yields none. The
  // batched forms come from KdQueries.
  std::vector<Point> knn(const Point& q, size_t k,
                         const QueryOptions& opts = {}) const {
    return this->knn_points(q, k, opts);
  }

  size_t size() const { return live_; }
  size_t num_trees() const;
  // Every live point, level by level — the record extraction hook the
  // sharded layer's commit-time rebalancing uses.
  std::vector<Point> live_points() const;
  // Structural invariants: every used level's tree validates, its liveness
  // bytes match the tree and its dead count, unused levels are empty, and
  // size()/dead totals equal the sums over levels (test helper, uncounted).
  bool validate() const;

 private:
  struct Level {
    KdTree<K> tree;
    std::vector<uint8_t> alive;  // parallel to tree.points()
    size_t dead = 0;
    bool used = false;
  };
  using Kill = std::pair<uint32_t, uint32_t>;  // (level, index)
  static constexpr size_t kNoLevel = SIZE_MAX;

 public:
  struct Delta {
    // A compaction replaces the whole spine; otherwise a non-empty spine is
    // a longer one the surviving levels move into.
    std::vector<Level> spine;
    bool compacted = false;
    // The merged level lands at `dst` and every level below it is cleared
    // into `absorbed` (empty slots until apply); kNoLevel when the plan
    // inserts nothing.
    size_t dst = kNoLevel;
    Level fresh;
    std::vector<Level> absorbed;
    std::vector<Kill> kills;  // erased slots on surviving levels
    size_t live = 0, dead = 0, erased = 0;
  };

 private:
  // The single templated range traversal: calls vis(pt) for every live point
  // inside `query`, level by level (each level delegates to the static
  // tree's range_visit and filters by liveness). range_count, range_report,
  // and the batch variants all instantiate it. A level without dead points
  // keeps the static tree's covered-subtree fast path alive: when the
  // visitor exposes the level hook (detail::LevelCoveredVisitor), covered
  // slices are forwarded wholesale instead of per point. A level with dead
  // points always takes the filtered per-point path (a slice copy would
  // resurrect its dead points).
  template <typename V>
  void range_visit(const Box& query, V&& vis, const QueryOptions& opts) const {
    for (const Level& L : levels_) {
      if (!L.used) continue;
      const auto& tree_pts = L.tree.points();
      if constexpr (detail::LevelCoveredVisitor<std::remove_reference_t<V>,
                                                Point>) {
        if (L.dead == 0) {
          struct Wrap {
            const std::vector<Point>* pts;
            std::remove_reference_t<V>* vis;
            void operator()(size_t i) { (*vis)((*pts)[i]); }
            void covered(size_t b, size_t e) { vis->covered(*pts, b, e); }
          } w{&tree_pts, &vis};
          L.tree.range_visit(query, w, opts);
          continue;
        }
      }
      L.tree.range_visit(
          query,
          [&](size_t i) {
            if (L.dead == 0 || L.alive[i]) vis(tree_pts[i]);
          },
          opts);
    }
  }

  // The single nearest-neighbour traversal: one visitor runs across every
  // used level through KdTree::nn_visit, so the candidate set and its bound
  // are shared — a later level prunes against the best candidates of the
  // earlier ones. Dead slots are read (and charged) like live ones but
  // never offered.
  template <typename V>
  void nn_visit(const Point& q, V& vis, const QueryOptions& opts) const {
    for (const Level& L : levels_) {
      if (!L.used) continue;
      struct LiveOnly {
        const Level* L;
        V* vis;
        double bound() const { return vis->bound(); }
        void offer(const Point& p, double d2) {
          // p is an element of L's point array; its slot indexes `alive`.
          size_t slot = size_t(&p - L->tree.points().data());
          if (L->dead == 0 || L->alive[slot]) vis->offer(p, d2);
        }
      } live{&L, &vis};
      L.tree.nn_visit(q, live, opts);
    }
  }
  // The reporting range traversal behind range_report_batch.
  void report_into(const Box& query, Point* out,
                   const QueryOptions& opts) const;
  friend class KdQueries<LogForest, K>;

  // A plan that changes nothing, against the current state. Every mutation
  // (insert, erase, the bulk ops) plans on one of these and applies it.
  Delta empty_plan() const;
  // The plan's view of level j: nullptr when the level is unused or the
  // plan absorbed it, the merged level at dst, the live level otherwise.
  const Level* view_level(const Delta& d, size_t j) const;
  size_t view_levels(const Delta& d) const;
  // The flatten helper: appends L's live points, skipping the slots of
  // `kills`, which are sorted and all on L (one read per slot).
  static void append_live(const Level& L, std::span<const Kill> kills,
                          std::vector<Point>& out);
  // Every live point of the plan's view, level by level (kills sorted in
  // place so the flatten can skip them).
  std::vector<Point> flatten(Delta& d) const;
  // The level lookup: the first level of the view whose copy of p is still
  // live, as (level, index); (kNoLevel, 0) when p is absent. `killed` holds
  // the plan's kills on surviving levels, so none is found twice.
  std::pair<size_t, size_t> find_live(
      const Delta& d, const Point& p,
      const std::unordered_set<uint64_t>& killed) const;
  // Plans the carry chain for the points in `pts`: absorbs the occupied
  // prefix (and, with `fit_batch`, every level whose capacity is below the
  // merged size) and builds the merged level.
  void plan_insert(Delta& d, std::vector<Point> pts, bool fit_batch) const;
  // Plans the erasure of every point of `ers` present in the view, then the
  // half-dead compaction check.
  void plan_erase(Delta& d, const std::vector<Point>& ers) const;
  KdTree<K> build(std::vector<Point> pts) const;

  RebuildMode mode_;
  size_t leaf_size_;
  std::vector<Level> levels_;
  size_t live_ = 0;
  size_t dead_ = 0;
};

template <int K>
class DynamicKdTree : public KdQueries<DynamicKdTree<K>, K> {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  enum class Mode { kRangeOptimal, kAnnOnly };

  explicit DynamicKdTree(Mode mode = Mode::kRangeOptimal,
                         size_t leaf_size = 8)
      : mode_(mode), leaf_size_(leaf_size) {}

  void insert(const Point& p);
  bool erase(const Point& p);
  // Batched insertion: routes every point to its leaf buffer first (weights
  // maintained along the paths), then runs one top-down restructuring pass
  // that rebuilds every violated subtree — oversized leaf buffers, imbalance
  // beyond the mode's tolerance, dead-point majorities — through the shared
  // pre-claim slot path (parallel::claim_build_slots via rebuild_subtree),
  // instead of the per-element alloc-one-node leaf splits of insert().
  // Validates the batch up front (finite coordinates) and checks the
  // "alloc" fault point; any non-OK return happens before the first write,
  // leaving the tree unchanged.
  Status bulk_insert(const std::vector<Point>& pts);
  // Batched deletion: marks every present point of the batch dead, then runs
  // the same single restructuring pass. Returns the number erased; a
  // non-finite record is rejected pre-mutation.
  Expected<size_t> bulk_erase(const std::vector<Point>& pts);

  size_t range_count(const Box& query, const QueryOptions& opts = {}) const;
  std::vector<Point> range_report(const Box& query,
                                  const QueryOptions& opts = {}) const;
  // (1+eps)-ANN over the live points; nullopt when the tree is empty or q is
  // not finite.
  std::optional<Point> ann(const Point& q, double eps = 0.0,
                           const QueryOptions& opts = {}) const {
    return this->ann_point(q, eps, opts);
  }
  // Exact k nearest live neighbors, returned as points sorted by (squared
  // distance, coordinates) — the canonical order the sharded layer's top-k
  // merge assumes. Returns exactly min(k, size()) points; k == 0 or a
  // non-finite query yields none. The batched forms come from KdQueries.
  std::vector<Point> knn(const Point& q, size_t k,
                         const QueryOptions& opts = {}) const {
    return this->knn_points(q, k, opts);
  }

  size_t size() const { return live_; }
  // Every live point, in deterministic DFS order — the record extraction
  // hook the sharded layer's commit-time rebalancing uses.
  std::vector<Point> live_points() const;
  size_t height() const;
  // Number of subtree reconstructions triggered so far (test/bench hook).
  size_t rebuilds() const { return rebuilds_; }
  bool validate() const;

 private:
  struct Node {
    int dim = 0;
    double split = 0;
    int depth = 0;
    uint32_t left = kNullNode;
    uint32_t right = kNullNode;
    uint32_t live = 0;   // live points in subtree
    uint32_t total = 0;  // live + dead points in subtree
    // Conservative bounding box of every point routed into this subtree
    // (exact after a rebuild, extended on insertion paths, never shrunk by
    // erasure — so it always contains all live points). Drives the covered
    // count fast path (box ⊆ query ⇒ contribute `live` in O(1)) and the
    // nn bound short-circuit.
    Box box = Box::empty();
    std::vector<std::pair<Point, bool>> leaf_pts;  // (point, alive)
    bool is_leaf() const { return left == kNullNode; }
  };

  double imbalance_tolerance() const;
  uint32_t alloc_node();
  void free_subtree(uint32_t v);
  // The single templated range traversal: calls vis(pt) for every live point
  // inside `query`, in deterministic DFS order. range_count, range_report,
  // and the batch variants all instantiate it. A visitor exposing
  // `covered(size_t live)` gets the O(1) covered-subtree fast path: a node
  // whose box is inside the query contributes its live weight without a
  // descent (reporting keeps the per-point path — a slice copy would
  // resurrect dead points).
  template <typename V>
  void range_visit(const Box& query, V&& vis, const QueryOptions& opts) const;
  // The reporting range traversal behind range_report_batch.
  void report_into(const Box& query, Point* out,
                   const QueryOptions& opts) const;
  // The single nearest-neighbour traversal (ann, knn and their batches):
  // KdTree::nn_visit's two-tier pruning — split region before the node
  // read, conservative node box after it — over the live points only. Dead
  // leaf points are read (and charged) but never offered.
  template <typename V>
  void nn_visit(const Point& q, V& vis, const QueryOptions& opts) const {
    if (root_ != kNullNode) nn_visit_rec(root_, Box::whole(), q, vis, opts);
  }
  template <typename V>
  void nn_visit_rec(uint32_t v, const Box& region, const Point& q, V& vis,
                    const QueryOptions& opts) const {
    if (region.squared_distance(q) > vis.bound()) return;
    if (opts.stats) ++opts.stats->nodes_visited;
    asym::count_read();
    const Node& nd = pool_[v];
    if (opts.count_fast_path && nd.box.squared_distance(q) > vis.bound()) {
      if (opts.stats) ++opts.stats->covered_subtrees;
      return;
    }
    if (nd.is_leaf()) {
      for (const auto& [pt, alive] : nd.leaf_pts) {
        asym::count_read();
        if (opts.stats) ++opts.stats->points_scanned;
        if (alive) vis.offer(pt, geom::squared_distance(pt, q));
      }
      return;
    }
    Box lr = region, rr = region;
    lr.hi[nd.dim] = nd.split;
    rr.lo[nd.dim] = nd.split;
    if (q[nd.dim] <= nd.split) {
      nn_visit_rec(nd.left, lr, q, vis, opts);
      nn_visit_rec(nd.right, rr, q, vis, opts);
    } else {
      nn_visit_rec(nd.right, rr, q, vis, opts);
      nn_visit_rec(nd.left, lr, q, vis, opts);
    }
  }
  friend class KdQueries<DynamicKdTree, K>;
  void collect_alive(uint32_t v, std::vector<Point>& out) const;
  // Reconstruction entry point: pre-claims the exact (size-determined) node
  // count through parallel::claim_build_slots, then recurses over id slices
  // so sibling subtrees fork on the scheduler without touching the shared
  // allocator.
  uint32_t rebuild_subtree(std::vector<Point>& pts, size_t lo, size_t hi,
                           int depth);
  uint32_t rebuild_subtree_ids(std::vector<Point>& pts, size_t lo, size_t hi,
                               int depth, const uint32_t* ids);
  void maybe_rebalance(const std::vector<uint32_t>& path);
  // Marks one point dead (decrementing live weights along its path) without
  // rebalancing; erase and the bulk paths share it.
  bool erase_mark(const Point& p, std::vector<uint32_t>* path);
  // The reconstruction trigger shared by maybe_rebalance (per-element) and
  // restructure_rec (bulk): children's live weights differ beyond the
  // mode's tolerance, or dead points outnumber live ones.
  bool interior_violated(const Node& nd) const;
  // Post-bulk restructuring: descends only into subtrees the bulk pass
  // touched (touched[v] != 0 — weights elsewhere are unchanged, so no new
  // violation is possible there), rebuilds every violated subtree via
  // rebuild_subtree (stopping the descent there), and refreshes interior
  // live/total weights on the way back up. Cost: O(batch * height) plus the
  // rebuilt subtree sizes, not O(n). Returns the (possibly fresh) subtree
  // id.
  uint32_t restructure_rec(uint32_t v, const std::vector<uint8_t>& touched);

  Mode mode_;
  size_t leaf_size_;
  std::vector<Node> pool_;
  std::vector<uint32_t> free_list_;
  uint32_t root_ = kNullNode;
  size_t live_ = 0;
  size_t dead_ = 0;
  size_t rebuilds_ = 0;
};

}  // namespace weg::kdtree
