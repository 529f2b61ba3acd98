// Priority search trees for 3-sided queries (Sections 7.1-7.3, Appendix A).
//
// We implement the paper's second variant: a heap on priorities (y) where
// each node also stores an x-splitter between its subtrees, enabling
// reconstruction-based updates (rotations are impossible in this variant).
//
// StaticPriorityTree:
//   * build_classic — textbook recursion: extract the max-priority point,
//     split the rest by the x-median, copy the two halves — Θ(n log n) reads
//     and writes (baseline).
//   * build_postsorted (Section 7.2 + Appendix A, Theorem 7.1) — after one
//     write-efficient sort by x, a tournament tree answers range-argmax /
//     k-th-valid queries and supports scoped deletions, so the whole tree is
//     carved out of the *in-place* sorted array with O(n) writes. Base case:
//     when a range has more holes than valid points, the valid points are
//     loaded into the symmetric memory (size Ω(log n)) and the subtree is
//     finished there.
//
// DynamicPriorityTree (Section 7.3.4): points are stored only at *critical*
// nodes (α-labeling); secondary nodes just partition x. An insertion swaps
// the new point down the critical chain (O(log_α n) writes); deletions mark
// points dead in place — a dead point still upper-bounds its subtree's
// priorities, so query pruning stays correct. Balancing is the shared α
// skeleton's (src/augtree/alpha.h; weights count points + 1, dead ones
// included): a rebuild runs the post-sorted build over the collected points,
// subtree rebuilds keep dead points, and the whole-tree rebuild once half
// are dead drops them.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/alpha.h"
#include "src/parallel/batch_query.h"

namespace weg::augtree {

struct PPoint {
  double x = 0;
  double y = 0;  // priority
  uint32_t id = 0;

  friend bool operator==(const PPoint& a, const PPoint& b) {
    return a.x == b.x && a.y == b.y && a.id == b.id;
  }
};

// A 3-sided query: xl <= x <= xr, y >= yb (batch input).
struct Query3Sided {
  double xl = 0, xr = 0, yb = 0;
};

class StaticPriorityTree {
 public:
  struct Stats {
    asym::Counts cost;
    size_t height = 0;
    size_t smallmem_base_cases = 0;  // Appendix A base-case count
  };

  static StaticPriorityTree build_classic(const std::vector<PPoint>& pts,
                                          Stats* stats = nullptr);
  static StaticPriorityTree build_postsorted(const std::vector<PPoint>& pts,
                                             Stats* stats = nullptr);

  // 3-sided query: ids of points with xL <= x <= xR and y >= yB.
  std::vector<uint32_t> query(double xl, double xr, double yb) const;
  size_t query_count(double xl, double xr, double yb) const;

  // Batched queries on the shared two-phase engine.
  parallel::BatchResult<uint32_t> query_batch(
      const std::vector<Query3Sided>& qs) const;
  std::vector<size_t> query_count_batch(
      const std::vector<Query3Sided>& qs) const;

  size_t size() const { return n_; }
  size_t height() const;
  bool validate() const;

 private:
  static constexpr uint32_t kNull = UINT32_MAX;

  struct Node {
    PPoint pt;
    double split = 0;
    uint32_t left = kNull;
    uint32_t right = kNull;
  };

  // The single templated query traversal; query, query_count, and the batch
  // variants all instantiate it with different report sinks.
  template <typename F>
  void query_rec(uint32_t v, double xlo, double xhi, double xl, double xr,
                 double yb, F&& report) const;

  std::vector<Node> pool_;
  uint32_t root_ = kNull;
  size_t n_ = 0;
};

namespace detail {
// Priority-tree node: critical nodes hold a point (the key) above an
// x-splitter; secondary nodes only split.
struct PriorityNode : AlphaNode<PPoint> {
  double split = 0;  // internal only
  bool has_point = false;
  bool holds_entry() const { return has_point; }
};
}  // namespace detail

class DynamicPriorityTree : private AlphaSkeleton<detail::PriorityNode> {
 public:
  explicit DynamicPriorityTree(uint64_t alpha = 2) : AlphaSkeleton(alpha) {}

  void insert(const PPoint& p);
  bool erase(const PPoint& p);  // marks dead; false if absent

  std::vector<uint32_t> query(double xl, double xr, double yb) const;
  size_t query_count(double xl, double xr, double yb) const;

  // Batched queries on the shared two-phase engine.
  parallel::BatchResult<uint32_t> query_batch(
      const std::vector<Query3Sided>& qs) const;
  std::vector<size_t> query_count_batch(
      const std::vector<Query3Sided>& qs) const;

  size_t size() const { return live_; }
  using AlphaSkeleton::height;
  using AlphaSkeleton::rebuilds;
  bool validate() const;

 private:
  using Node = detail::PriorityNode;

  // Rebuilds the subtree at v (the whole tree when parent == kNull, dropping
  // dead points) with the post-sorted build.
  void rebuild(uint32_t v, uint32_t parent, uint64_t old_init);
  // Post-sorted rebuild core over pts[lo, hi) (sorted by x): returns node.
  // Large rebuilds pre-grow the pool and fork sibling subtree builds.
  uint32_t build_range(std::vector<Entry>& pts, size_t lo, size_t hi,
                       uint64_t sibling_points);
  // Parallel variant over pre-claimed slots handed out by `cursor`, so
  // sibling builds never touch the shared allocator and mutate disjoint pts
  // slices / pool entries.
  uint32_t build_range_ids(std::vector<Entry>& pts, size_t lo, size_t hi,
                           uint64_t sibling_points,
                           const std::vector<uint32_t>& slots,
                           std::atomic<uint32_t>& cursor);
  // The single templated query traversal; query, query_count, and the batch
  // variants all instantiate it with different report sinks.
  template <typename F>
  void query_rec(uint32_t v, double xlo, double xhi, double xl, double xr,
                 double yb, F&& report) const;

  size_t live_ = 0;
  size_t dead_ = 0;
};

}  // namespace weg::augtree
