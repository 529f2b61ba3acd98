// 2D range trees (Sections 7.1, 7.3.4).
//
// StaticRangeTree — the classic baseline: a perfect outer BST over the
// x-sorted points where *every* node carries a y-sorted inner array of all
// points in its subtree. Built top-down from one y-sort by stable
// partitioning (O(n log n) reads and writes — already optimal because the
// structure itself occupies Θ(n log n) space). Queries decompose [xl, xr]
// into O(log n) canonical subtrees and binary-search / scan each inner
// array: O(log^2 n + k) reads, O(k) output writes.
//
// AlphaRangeTree — the paper's write-efficient version: inner trees (treaps)
// are kept only at *critical* nodes (α-labeling), so
//   * construction writes O((α + ω) n log_α n) instead of O(ω n log n),
//   * an update touches O(log_α n) inner treaps (O(1) expected writes each),
//   * a query may visit up to O(α log_α n) inner trees, each O(log n):
//     O(ωk + α log_α n log n) work (Table 1, last row).
// Balancing is the weight-doubling reconstruction of the shared α skeleton
// (src/augtree/alpha.h); a rebuild derives each critical node's inner list
// from its critical parent's y-sorted list by an ordered filter (Appendix
// A), giving the O((α + ω) s log_α s) rebuild bound. Erased points stay as
// dead skeleton keys until the whole-tree rebuild once half are dead.
#pragma once

#include <cstdint>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/alpha.h"
#include "src/augtree/priority_tree.h"  // PPoint
#include "src/augtree/treap.h"
#include "src/parallel/batch_query.h"

namespace weg::augtree {

// A 2D range query rectangle: xl <= x <= xr, yb <= y <= yt (batch input).
struct RangeQuery2D {
  double xl = 0, xr = 0, yb = 0, yt = 0;
};

class StaticRangeTree {
 public:
  struct Stats {
    asym::Counts cost;
    size_t inner_entries = 0;  // total augmentation size (Θ(n log n))
  };

  static StaticRangeTree build(const std::vector<PPoint>& pts,
                               Stats* stats = nullptr);

  // Points with xl <= x <= xr and yb <= y <= yt.
  std::vector<uint32_t> query(double xl, double xr, double yb,
                              double yt) const;
  // Counting variant: binary searches only, no output writes.
  size_t query_count(double xl, double xr, double yb, double yt) const;

  // Batched queries on the shared two-phase engine (count pass, scan,
  // report pass into pre-claimed slices of one flat id array).
  parallel::BatchResult<uint32_t> query_batch(
      const std::vector<RangeQuery2D>& qs) const;
  std::vector<size_t> query_count_batch(
      const std::vector<RangeQuery2D>& qs) const;

  size_t size() const { return n_; }
  bool validate() const;

 private:
  // Implicit perfect BST over m_ slots (in-order, 1-based), padded with +inf
  // keys; node p's inner array is ys_[inner_off_[p-1] .. inner_off_[p]).
  size_t root_pos() const { return (m_ + 1) / 2; }

  size_t n_ = 0, m_ = 0;
  int height_ = 0;
  std::vector<PPoint> by_x_;                      // rank -> point
  std::vector<uint32_t> inner_off_;               // size m_+1
  std::vector<std::pair<double, uint32_t>> ys_;   // (y, id) per node, sorted

  // The single templated query traversal: canonical decomposition of
  // [xl, xr] into O(log n) covered subtrees plus O(log n) individual rank
  // candidates. The visitor owns the y dimension:
  //   vis.covered(lo, hi) — ys_[lo, hi) is one covered node's y-sorted run,
  //   vis.point(rank)     — candidate point by x-rank (y untested).
  // query, query_count, and the batch variants all instantiate this.
  template <typename V>
  void visit_query(double xl, double xr, V&& vis) const;
};

namespace detail {
// Range-tree node: the key is one point, ordered by (x, id).
struct RangeNode : AlphaNode<PPoint> {
  Treap inner;  // (y, id) of all live points in this subtree (critical only)
};
}  // namespace detail

class AlphaRangeTree : private AlphaSkeleton<detail::RangeNode> {
 public:
  explicit AlphaRangeTree(uint64_t alpha = 2) : AlphaSkeleton(alpha) {}

  // Bulk construction (used for the Table 1 construction row): repeated
  // insertion is also supported but slower.
  static AlphaRangeTree build(const std::vector<PPoint>& pts, uint64_t alpha,
                              asym::Counts* cost = nullptr);

  void insert(const PPoint& p);
  bool erase(const PPoint& p);

  std::vector<uint32_t> query(double xl, double xr, double yb,
                              double yt) const;
  size_t query_count(double xl, double xr, double yb, double yt) const;

  // Batched queries on the shared two-phase engine.
  parallel::BatchResult<uint32_t> query_batch(
      const std::vector<RangeQuery2D>& qs) const;
  std::vector<size_t> query_count_batch(
      const std::vector<RangeQuery2D>& qs) const;

  size_t size() const { return live_; }
  using AlphaSkeleton::height;
  using AlphaSkeleton::rebuilds;
  size_t inner_entries() const;  // total augmentation size (n log_α n)
  bool validate() const;

 private:
  using Node = detail::RangeNode;

  static bool xless(const PPoint& a, const PPoint& b) {
    return a.x < b.x || (a.x == b.x && a.id < b.id);
  }

  // y-sorted routing entry used while deriving inner lists (Appendix A
  // ordered filter); carries x so routing needs no side lookups.
  struct YX {
    double y;
    uint32_t id;
    double x;
  };

  // Rebuilds the subtree at v (the whole tree when parent == kNull, dropping
  // dead points), then its inner trees.
  void rebuild(uint32_t v, uint32_t parent, uint64_t old_init);
  // The y-sorted routing list of the given points (one write-efficient
  // y-sort).
  static std::vector<YX> y_list(const std::vector<PPoint>& pts);
  // Builds inner treaps for c and its critical descendants from c's y-sorted
  // live-point list by ordered filtering (Appendix A).
  void fill_inners(uint32_t c, std::vector<YX>& ylist);

  template <typename F>
  void cover(uint32_t v, double yb, double yt, F&& emit) const;
  // The single templated query traversal; query, query_count, and the batch
  // variants all instantiate it with different emit sinks.
  template <typename F>
  void query_rec(uint32_t v, double lo, double hi, double xl, double xr,
                 double yb, double yt, F&& emit) const;

  size_t live_ = 0;
  size_t dead_ = 0;
};

}  // namespace weg::augtree
