// Interval trees for 1D stabbing queries (Sections 7.1-7.3).
//
// StaticIntervalTree — the perfectly balanced tree over the 2n sorted
// endpoints (the de Berg et al. variant the paper uses). Two constructions:
//   * build_classic: the textbook recursion that partitions and copies the
//     interval set at every level — Θ(n log n) reads AND writes (baseline).
//   * build_postsorted (Section 7.2, Theorem 7.1): sort the endpoints once
//     with the write-efficient sorter, then assign every interval to its
//     tree node with an O(1) LCA on the implicit perfect tree, radix sort
//     intervals by (node level, endpoint rank), and carve the per-node
//     sorted lists out of the result — O(n) writes after sorting.
// Both produce identical query structure: a stabbing query walks the
// endpoint tree and scans each visited node's interval list sorted by left
// (resp. right) endpoint, O(log n + k) reads and O(k) output writes; the
// counting variant (Appendix A) binary-searches instead and writes nothing.
//
// DynamicIntervalTree — reconstruction-based rebalancing with α-labeling
// (Section 7.3): the outer endpoint tree maintains subtree weights only at
// critical nodes; updates write O(log_α n) weights and O(1) expected inner-
// treap links, and a critical node whose weight doubles is rebuilt
// (Theorem 7.4: O((ω + α) log_α n) amortized work per update, query
// O(ωk + α log_α n)). Deletions mark endpoint nodes dead; dead nodes are
// dropped on subtree rebuilds and a whole-tree rebuild triggers once half
// the endpoints are dead.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/alpha.h"
#include "src/augtree/interval.h"
#include "src/augtree/treap.h"
#include "src/core/copy_delta.h"
#include "src/core/status.h"
#include "src/parallel/batch_query.h"
#include "src/primitives/sequence.h"

namespace weg::augtree {

class StaticIntervalTree {
 public:
  struct Stats {
    asym::Counts cost;
    size_t height = 0;
  };

  static StaticIntervalTree build_classic(const std::vector<Interval>& ivs,
                                          Stats* stats = nullptr);
  static StaticIntervalTree build_postsorted(const std::vector<Interval>& ivs,
                                             Stats* stats = nullptr);

  // All intervals containing q (ids), in no particular order. O(log n + k)
  // reads, O(k) output writes.
  std::vector<uint32_t> stab(double q) const;
  // Counting variant (Appendix A): no output writes.
  size_t stab_count(double q) const;

  // Batched queries on the shared two-phase engine.
  parallel::BatchResult<uint32_t> stab_batch(
      const std::vector<double>& qs) const;
  std::vector<size_t> stab_count_batch(const std::vector<double>& qs) const;

  size_t size() const { return n_; }
  bool validate(const std::vector<Interval>& ivs) const;

 private:
  friend class IntervalTreeTestPeer;

  // The single templated stab traversal: walks the endpoint tree (forking on
  // exact key matches) and hands the visitor each visited node's CSR run:
  //   vis.left_run(lo, hi)  — by_left_[lo, hi): the prefix with l <= q,
  //   vis.right_run(lo, hi) — by_right_[lo, hi): the prefix with r >= q,
  //   vis.all_run(lo, hi)   — by_left_[lo, hi): q == key, take everything.
  // stab, stab_count, and the batch variants all instantiate this.
  template <typename V>
  void stab_visit(double q, V&& vis) const;

  // Implicit perfect BST over m_ = 2^h - 1 slots; in-order position p
  // (1-based) stores the endpoint of rank p-1 (+inf padding above 2n).
  // LCA of positions i < j: k = bit_width(i ^ j),
  //   lca = ((j >> k) << k) | (1 << (k-1)).
  size_t root_pos() const { return (m_ + 1) / 2; }
  static size_t lca(size_t i, size_t j);
  static int level_of(size_t pos);  // trailing zeros: leaf = 0

  size_t n_ = 0;       // number of intervals
  size_t m_ = 0;       // implicit tree slots (2^h - 1 >= 2n)
  int height_ = 0;     // h
  primitives::UninitVector<double> keys_;  // keys_[p-1] = endpoint of rank p-1
  // CSR inner lists per node: by left endpoint ascending / right descending.
  primitives::UninitVector<uint32_t> node_left_off_, node_right_off_;  // m_+1
  std::vector<std::pair<double, uint32_t>> by_left_;   // (l, id)
  std::vector<std::pair<double, uint32_t>> by_right_;  // (r, id)
};

class DynamicIntervalTree {
 public:
  explicit DynamicIntervalTree(uint64_t alpha = 2) : alpha_(alpha) {}

  void insert(const Interval& iv);
  // Erases by (l, r, id); returns false if absent.
  bool erase(const Interval& iv);
  // Batched deletion: erases every present interval of the batch, deferring
  // the half-dead whole-tree rebuild check to the end — one compaction per
  // batch instead of up to |ivs| piecemeal rebuilds. Returns the number of
  // intervals actually erased; a non-OK status (malformed record, injected
  // fault) is returned before the first write, leaving the tree unchanged.
  Expected<size_t> bulk_erase(const std::vector<Interval>& ivs);

  // Bulk insertion (Section 7.3.5): sorts the batch, merges the 2m endpoint
  // keys into the tree top-down — rebuilding any subtree the batch outgrows
  // in one shot instead of piecemeal — then assigns the intervals. For
  // m = Θ(n) this costs O(m) writes amortized versus O(m log_α n) for
  // one-by-one insertion. Validates the batch up front (finite endpoints,
  // l <= r, no id duplicated within the batch or against a live interval)
  // and checks the "alloc" fault point; any non-OK return happens before
  // the first write, leaving the tree unchanged.
  Status bulk_insert(const std::vector<Interval>& ivs);
  // Two-phase bulk update, by copy (src/core/copy_delta.h): the bulk ops
  // write skeleton nodes and treap pools in place, so prepare copies the
  // tree (one read + one write per live interval) and runs bulk_insert then
  // bulk_erase on the copy; apply moves the copy in. A native O(batch)
  // prepare waits on a flat arena layout (ROADMAP).
  using Delta = CopyDelta<DynamicIntervalTree>;
  Expected<Delta> prepare(const std::vector<Interval>& ins,
                          const std::vector<Interval>& ers) const {
    return prepare_by_copy(*this, ins, ers);
  }
  size_t apply(Delta&& d) noexcept { return apply_copy(*this, std::move(d)); }

  std::vector<uint32_t> stab(double q) const;
  // Counting variant: same API as the static trees; scan-based over the
  // inner treaps (no subtree sizes maintained), still no output writes.
  size_t stab_count(double q) const;

  // Batched queries on the shared two-phase engine.
  parallel::BatchResult<uint32_t> stab_batch(
      const std::vector<double>& qs) const;
  std::vector<size_t> stab_count_batch(const std::vector<double>& qs) const;

  // Every live interval, in deterministic in-order tree order — the record
  // extraction hook the sharded layer's commit-time rebalancing uses.
  std::vector<Interval> live_records() const;

  size_t size() const { return live_intervals_; }
  size_t num_nodes() const { return node_count_; }
  size_t rebuilds() const { return rebuilds_; }
  // Longest root-leaf path (bench hook for Corollary 7.2).
  size_t height() const;
  size_t critical_on_path_max() const;  // max critical nodes on any path
  bool validate() const;

 private:
  static constexpr uint32_t kNull = UINT32_MAX;

  struct Node {
    double key = 0;
    uint32_t left = kNull;
    uint32_t right = kNull;
    bool critical = false;
    bool dead = false;  // endpoint of an erased interval
    uint64_t init_weight = 0;  // critical only
    uint64_t weight = 0;       // critical only; root always maintains it
    Treap by_l;  // intervals stored here, keyed by left endpoint
    Treap by_r;  // keyed by right endpoint
  };

  uint32_t alloc();
  void free_subtree(uint32_t v);
  // Erases one interval without the trailing dead-fraction rebuild check
  // (erase and bulk_erase share it; only the compaction cadence differs).
  bool erase_one(const Interval& iv);
  // Whole-tree rebuild (dropping dead keys) once half the endpoints are dead.
  void maybe_compact();
  // BST-inserts an endpoint key; appends the path root..new leaf.
  uint32_t insert_key(double key, std::vector<uint32_t>& path);
  // Storage node for [l, r]: highest node with l <= key <= r.
  uint32_t find_storage(double l, double r) const;
  void bump_weights_and_rebalance(const std::vector<uint32_t>& path);
  // Rebuilds the subtree at v; parent == kNull rebuilds the whole tree
  // (dropping dead keys); side selects the parent's child slot.
  void rebuild(uint32_t v, uint32_t parent, int side, uint64_t old_init);
  // Builds via the shared id-slice path (src/parallel/par_build.h): forks
  // above the sequential cutoff, inline below it.
  uint32_t build_balanced(std::vector<std::pair<double, bool>>& keys,
                          size_t lo, size_t hi);
  // Post-order weight computation marking v's descendants critical per the
  // α rule; returns the subtree weight. Forks on two-child nodes while
  // par_depth > 0 (children touch disjoint nodes). set_critical applies the
  // rule to one node given its and its sibling's weight.
  uint64_t mark_rec(uint32_t v, int par_depth);
  void set_critical(uint32_t v, uint64_t w, uint64_t sibling_w);
  void mark_criticals(uint32_t v);
  void collect(uint32_t v, std::vector<std::pair<double, bool>>& keys,
               std::vector<Interval>& ivs) const;

  // The single templated stab traversal: descends the skeleton emitting the
  // id of every stored interval containing q. stab, stab_count, and the
  // batch variants all instantiate it.
  template <typename F>
  void stab_visit(double q, F&& emit) const;

  uint64_t alpha_;
  std::unordered_map<uint32_t, Interval> ivs_;  // id -> interval (for rebuilds)
  std::vector<Node> pool_;
  std::vector<uint32_t> free_;
  uint32_t root_ = kNull;
  uint64_t node_count_ = 0;   // live skeleton nodes (incl. dead-marked)
  uint64_t dead_count_ = 0;
  uint64_t root_weight_ = 1;  // virtual critical root weight (= nodes + 1)
  uint64_t root_init_ = 1;
  size_t live_intervals_ = 0;
  size_t rebuilds_ = 0;
};

}  // namespace weg::augtree
