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
// (resp. right) endpoint, O(log n + k) reads and O(k) output writes. Both
// also write a left-endpoint rank directory over the sorted endpoints, so
// the counting variant is one binary search: O(log n) reads (plus the run
// of endpoints equal to q) and no writes. Both builds abort on a malformed
// record (non-finite endpoint or l > r).
//
// DynamicIntervalTree — reconstruction-based rebalancing with α-labeling
// (Section 7.3) on the shared skeleton of src/augtree/alpha.h: the outer
// endpoint tree maintains subtree weights only at critical nodes; updates
// write O(log_α n) weights and O(1) expected inner-treap links, and a
// critical node whose weight doubles is rebuilt (Theorem 7.4:
// O((ω + α) log_α n) amortized work per update, query O(ωk + α log_α n)).
// A rebuild reassigns the collected intervals to the new nodes' treaps.
// Deletions mark endpoint nodes dead; subtree rebuilds keep dead keys, and
// the whole-tree rebuild that triggers once half the endpoints are dead
// drops them.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/alpha.h"
#include "src/augtree/interval.h"
#include "src/augtree/treap.h"
#include "src/core/copy_delta.h"
#include "src/core/lane_walk.h"
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
  // Counting variant: O(log n) reads by endpoint rank, no output writes.
  size_t stab_count(double q) const;

  // Batched queries on the shared two-phase engine.
  parallel::BatchResult<uint32_t> stab_batch(
      const std::vector<double>& qs) const;
  std::vector<size_t> stab_count_batch(const std::vector<double>& qs) const;

  size_t size() const { return n_; }
  bool validate(const std::vector<Interval>& ivs) const;

 private:
  friend class IntervalTreeTestPeer;

  // Lane width of the stabbing walk: blocks of this many probes go down the
  // tree together (on 2^20 intervals, 16 lanes ran slower and 4 no faster).
  static constexpr size_t kStabLanes = 8;

  // The single stab traversal: walks probes vis[0..m) (m <= kStabLanes)
  // from node `start` down the endpoint tree in lockstep on the shared lane
  // kernel (src/core/lane_walk.h), prefetching each lane's next node, and
  // hands vis[l] each node on lane l's path as a CSR run:
  //   vis.left_run(lo, hi, t)  — by_left_[lo, hi): the prefix with l <= q,
  //   vis.right_run(lo, hi, t) — by_right_[lo, hi): the prefix with r >= q,
  //   vis.all_run(lo, hi, t)   — by_left_[lo, hi): q == key, take everything.
  // A lane whose probe equals a node key (rare) forks into both subtrees
  // as two one-lane walks. Reads and writes are tallied in `t` for the
  // caller to charge. stab and stab_batch's report pass instantiate it.
  template <typename V>
  void stab_lanes(V* vis, size_t m, size_t start, core::Tally& t) const;
  // Counts by endpoint rank: the intervals containing q are those with
  // l <= q minus those with r < q, so
  //   count(q) = L(upper(q)) - (lower(q) - L(lower(q))),
  // where lower(q) / upper(q) are the numbers of endpoints < q / <= q and
  // L(x) is the number of left endpoints among the x smallest (ties between
  // equal endpoints cannot matter: both ranks sit on run boundaries).
  // Writes the counts of probes qs[0..m) (m <= kStabLanes) to counts[0..m):
  // one branchless binary search per probe, the m searches in lockstep, plus
  // the run of keys equal to the probe and two directory words. A NaN probe
  // counts 0. stab_count, stab_count_batch and stab_batch's count pass all
  // run it.
  void rank_counts(const double* qs, size_t m, size_t* counts) const;
  size_t lefts_below(size_t x) const;  // L(x), for x <= 2n
  // Fills keys_ (with its +inf padding) and rank_dir_ in one parallel pass
  // over 64-slot words: put(i), for each rank i < 2n, stores keys_[i] and
  // returns whether that endpoint is a left one. Charges the directory's
  // traffic (the masks, then the prefix scan); the caller charges its own.
  template <typename Put>
  void fill_keys(Put&& put);

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
  // Left-endpoint rank directory, 2n/64 + 1 words: bit b of word w's mask
  // is set iff the endpoint of rank 64w + b is a left endpoint, and
  // lefts_before counts the left endpoints of ranks below 64w.
  struct RankWord {
    uint64_t left_mask;
    uint64_t lefts_before;
  };
  primitives::UninitVector<RankWord> rank_dir_;
};

namespace detail {
// Endpoint-tree node: the key is one interval endpoint.
struct IntervalNode : AlphaNode<double> {
  Treap by_l;  // intervals stored here, keyed by left endpoint
  Treap by_r;  // keyed by right endpoint
};
}  // namespace detail

class DynamicIntervalTree : private AlphaSkeleton<detail::IntervalNode> {
 public:
  explicit DynamicIntervalTree(uint64_t alpha = 2) : AlphaSkeleton(alpha) {}

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
  using AlphaSkeleton::critical_on_path_max;
  using AlphaSkeleton::height;
  using AlphaSkeleton::rebuilds;
  bool validate() const;

 private:
  using Node = detail::IntervalNode;

  // Erases one interval without the trailing dead-fraction rebuild check
  // (erase and bulk_erase share it; only the compaction cadence differs).
  bool erase_one(const Interval& iv);
  // Whole-tree rebuild (dropping dead keys) once half the endpoints are dead.
  void maybe_compact();
  // Storage node for [l, r] in v's subtree: the highest node with
  // l <= key <= r.
  uint32_t find_storage(uint32_t v, double l, double r) const;
  // Stores iv at its storage node in v's subtree, which must exist.
  void store(uint32_t v, const Interval& iv);
  // Inserts one endpoint key as a fresh leaf and rebalances.
  void insert_key(double key);
  // Rebuilds the subtree at v (the whole tree when parent == kNull, dropping
  // dead keys), then reassigns its intervals.
  void rebuild(uint32_t v, uint32_t parent, uint64_t old_init);
  // In-order endpoint keys of v's subtree plus the intervals stored there.
  void collect_intervals(uint32_t v, std::vector<Entry>& keys,
                         std::vector<Interval>& ivs) const;

  // The single templated stab traversal: descends the skeleton emitting the
  // id of every stored interval containing q. stab, stab_count, and the
  // batch variants all instantiate it.
  template <typename F>
  void stab_visit(double q, F&& emit) const;

  std::unordered_map<uint32_t, Interval> ivs_;  // id -> interval (for rebuilds)
  uint64_t node_count_ = 0;  // skeleton nodes (incl. dead-marked)
  uint64_t dead_count_ = 0;
  size_t live_intervals_ = 0;
};

}  // namespace weg::augtree
