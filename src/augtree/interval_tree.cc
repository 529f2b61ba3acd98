#include "src/augtree/interval_tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/parallel/fault.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/semisort.h"
#include "src/primitives/sort.h"
#include "src/sort/incremental_sort.h"

namespace weg::augtree {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// StaticIntervalTree
// ---------------------------------------------------------------------------

size_t StaticIntervalTree::lca(size_t i, size_t j) {
  if (i == j) return i;
  if (i > j) std::swap(i, j);
  int k = std::bit_width(i ^ j);
  return ((j >> k) << k) | (size_t{1} << (k - 1));
}

int StaticIntervalTree::level_of(size_t pos) {
  return std::countr_zero(pos);
}

namespace {

// Shared skeleton setup: m_ = 2^h - 1 >= max(2n, 1).
void setup_shape(size_t num_endpoints, size_t& m, int& h) {
  h = 1;
  m = 1;
  while (m < num_endpoints) {
    m = 2 * m + 1;
    ++h;
  }
}

}  // namespace

StaticIntervalTree StaticIntervalTree::build_postsorted(
    const std::vector<Interval>& ivs, Stats* stats) {
  asym::Region region;
  StaticIntervalTree t;
  t.n_ = ivs.size();
  size_t ne = 2 * t.n_;  // endpoints
  setup_shape(std::max<size_t>(ne, 1), t.m_, t.height_);

  // 1) Write-efficient sort of the endpoint values (Theorem 4.1 sorter).
  // The monotone double->uint64 mapping happens in registers while reading
  // the input, so it costs reads only.
  std::vector<uint64_t> keys(ne);
  parallel::parallel_for(0, t.n_, [&](size_t i) {
    keys[2 * i] = sort::double_to_sortable(ivs[i].l);
    keys[2 * i + 1] = sort::double_to_sortable(ivs[i].r);
  });
  asym::count_read(ne);
  auto order = sort::incremental_sort_we_order(keys);

  // 2) Ranks and sorted key array (O(n) reads/writes), +inf padding
  // included. `order` is a permutation, so every iteration writes distinct
  // slots.
  primitives::UninitVector<uint32_t> rank(ne);
  t.keys_.resize(t.m_);
  asym::count_read(ne);
  asym::count_write(2 * ne);
  parallel::parallel_for(0, t.m_, [&](size_t i) {
    if (i >= ne) {
      t.keys_[i] = kInf;
      return;
    }
    rank[order[i]] = static_cast<uint32_t>(i);
    t.keys_[i] = (order[i] & 1) ? ivs[order[i] / 2].r : ivs[order[i] / 2].l;
  });

  // 3) Assign each interval to its node with the O(1) implicit-tree LCA and
  //    sort by (level, endpoint rank) per Section 7.2. Intervals in
  //    endpoint-rank order are this side's endpoints packed out of `order`
  //    (endpoint i has rank i and value keys_[i]; only its partner's rank is
  //    looked up), so one *stable* counting sort by level (O(log n) buckets)
  //    replaces the general radix sort — the same O(n log n)-key-range
  //    bound, with one pass.
  //
  //    Within one level the nodes own disjoint in-order ranges, and an
  //    interval's node range holds both its endpoints, so a level's records
  //    in endpoint-rank order are monotone in pos: every node's records form
  //    one contiguous run of the sorted array. A node's count is its run's
  //    length, and its CSR slice is that run, copied in order.
  struct Rec {
    uint32_t pos;    // node (in-order, 1-based)
    uint32_t depth;  // level from the root (counting-sort key)
    uint32_t id;
    double coord;
  };
  int h = t.height_;
  auto build_csr = [&](bool left_side,
                       primitives::UninitVector<uint32_t>& offsets,
                       std::vector<std::pair<double, uint32_t>>& out) {
    // Left endpoints by ascending rank, right endpoints by descending rank.
    auto at = [&](size_t j) { return left_side ? j : ne - 1 - j; };
    std::vector<Rec> rs = primitives::pack_index(
        ne, [&](size_t j) { return ((order[at(j)] & 1) == 0) == left_side; },
        [&](size_t j) {
          size_t i = at(j);
          size_t pos = lca(i + 1, rank[order[i] ^ 1] + 1);
          return Rec{static_cast<uint32_t>(pos),
                     static_cast<uint32_t>((h - 1) - level_of(pos)),
                     order[i] / 2, t.keys_[i]};
        });
    primitives::counting_sort(rs, static_cast<size_t>(h),
                              [](const Rec& r) { return r.depth; });

    // Fixed blocks of rs; run_start[b] is the start of the run holding
    // block b's first record, so a block is walked with every record's run
    // start in hand.
    constexpr size_t kNone = SIZE_MAX;
    size_t nr = rs.size(), nb = primitives::num_blocks(nr);
    auto starts_run = [&](size_t k) {
      return k == 0 || rs[k].pos != rs[k - 1].pos;
    };
    std::vector<size_t> run_start(nb, kNone);
    parallel::parallel_for(
        0, nb,
        [&](size_t b) {
          size_t lo = b * primitives::kBlockSize;
          for (size_t k = std::min(nr, lo + primitives::kBlockSize); k > lo;) {
            if (starts_run(--k)) {
              run_start[b] = k;  // the block's last start
              break;
            }
          }
        },
        1);
    for (size_t b = 0, carry = 0; b < nb; ++b) {
      size_t last = run_start[b];
      run_start[b] = carry;
      if (last != kNone) carry = last;
    }
    auto for_each_record = [&](auto&& visit) {
      parallel::parallel_for(
          0, nb,
          [&](size_t b) {
            size_t lo = b * primitives::kBlockSize;
            size_t hi = std::min(nr, lo + primitives::kBlockSize);
            for (size_t k = lo, start = run_start[b]; k < hi; ++k) {
              if (starts_run(k)) start = k;
              visit(k, start);
            }
          },
          1);
    };

    // Offsets: each run's last record stores the run's length at its node,
    // and an exclusive scan over all m_ + 1 entries turns the counts into
    // offsets. Convention: node pos's run is [offsets[pos-1], offsets[pos]).
    offsets.resize(t.m_ + 1);
    parallel::parallel_for(0, t.m_ + 1, [&](size_t p) { offsets[p] = 0; });
    for_each_record([&](size_t k, size_t start) {
      if (k + 1 == nr || starts_run(k + 1)) {
        offsets[rs[k].pos - 1] = static_cast<uint32_t>(k + 1 - start);
      }
    });
    primitives::detail::scan_exclusive_raw(offsets.data(), offsets.size());

    // Scatter each run to its node's slice, in run order.
    out.resize(nr);
    asym::count_read(nr);
    asym::count_write(nr);
    for_each_record([&](size_t k, size_t start) {
      const Rec& r = rs[k];
      out[offsets[r.pos - 1] + (k - start)] = {r.coord, r.id};
    });
  };

  // The two CSRs are independent (disjoint outputs, shared read-only
  // inputs), so build them as one fork-join pair.
  parallel::par_do([&] { build_csr(true, t.node_left_off_, t.by_left_); },
                   [&] { build_csr(false, t.node_right_off_, t.by_right_); });

  if (stats) {
    stats->cost = region.delta();
    stats->height = static_cast<size_t>(t.height_);
  }
  return t;
}

StaticIntervalTree StaticIntervalTree::build_classic(
    const std::vector<Interval>& ivs, Stats* stats) {
  asym::Region region;
  StaticIntervalTree t;
  t.n_ = ivs.size();
  size_t ne = 2 * t.n_;
  setup_shape(std::max<size_t>(ne, 1), t.m_, t.height_);

  // Classic: sort the endpoints with the Θ(n log n)-write mergesort.
  std::vector<double> endpoints(ne);
  for (size_t i = 0; i < t.n_; ++i) {
    endpoints[2 * i] = ivs[i].l;
    endpoints[2 * i + 1] = ivs[i].r;
  }
  primitives::sort_inplace(endpoints);
  t.keys_.assign(t.m_, kInf);
  asym::count_write(ne);
  std::copy(endpoints.begin(), endpoints.end(), t.keys_.begin());

  // Recursive partition, copying the interval set at every level (this is
  // the Θ(n log n)-write baseline). The two child partitions touch disjoint
  // per_node slots, so they fork as independent subtree builds down to a
  // sequential cutoff.
  std::vector<std::vector<std::pair<double, uint32_t>>> per_node_l(t.m_ + 1);
  std::vector<std::vector<std::pair<double, uint32_t>>> per_node_r(t.m_ + 1);
  std::vector<uint32_t> all(t.n_);
  for (size_t i = 0; i < t.n_; ++i) all[i] = static_cast<uint32_t>(i);
  auto rec = [&](auto&& self, size_t pos, std::vector<uint32_t> set) -> void {
    if (set.empty()) return;
    double key = t.keys_[pos - 1];
    std::vector<uint32_t> left, right, here;
    asym::count_read(set.size());
    asym::count_write(set.size());  // the copy at this level
    for (uint32_t id : set) {
      if (ivs[id].r < key) {
        left.push_back(id);
      } else if (ivs[id].l > key) {
        right.push_back(id);
      } else {
        here.push_back(id);
      }
    }
    if (!here.empty()) {
      auto& bl = per_node_l[pos];
      auto& br = per_node_r[pos];
      for (uint32_t id : here) {
        bl.emplace_back(ivs[id].l, id);
        br.emplace_back(ivs[id].r, id);
      }
      primitives::sort_inplace(bl);
      primitives::sort_inplace(br);
      std::reverse(br.begin(), br.end());
      asym::count_write(2 * here.size());
    }
    int lvl = level_of(pos);
    if (lvl > 0) {
      size_t step = size_t{1} << (lvl - 1);
      parallel::par_do_if(left.size() + right.size() > parallel::kSeqCutoff,
                          [&] { self(self, pos - step, std::move(left)); },
                          [&] { self(self, pos + step, std::move(right)); });
    }
  };
  rec(rec, t.root_pos(), std::move(all));

  // Flatten into CSR (counted as part of the construction's writes).
  t.node_left_off_.assign(t.m_ + 1, 0);
  t.node_right_off_.assign(t.m_ + 1, 0);
  t.by_left_.reserve(t.n_);
  t.by_right_.reserve(t.n_);
  for (size_t p = 1; p <= t.m_; ++p) {
    t.node_left_off_[p - 1] = static_cast<uint32_t>(t.by_left_.size());
    t.node_right_off_[p - 1] = static_cast<uint32_t>(t.by_right_.size());
    t.by_left_.insert(t.by_left_.end(), per_node_l[p].begin(),
                      per_node_l[p].end());
    t.by_right_.insert(t.by_right_.end(), per_node_r[p].begin(),
                       per_node_r[p].end());
  }
  // Shift offsets: node_left_off_[p] is the start of node (p+1)'s run — fix
  // to the usual CSR convention below.
  t.node_left_off_.back() = static_cast<uint32_t>(t.by_left_.size());
  t.node_right_off_.back() = static_cast<uint32_t>(t.by_right_.size());
  asym::count_write(2 * t.n_);

  if (stats) {
    stats->cost = region.delta();
    stats->height = static_cast<size_t>(t.height_);
  }
  return t;
}

namespace {

using CsrEntry = std::pair<double, uint32_t>;

// Reporting visitor: scans each run with early exit, one read per scanned
// entry and one output write per reported id, written through `out` (a
// pointer into a batch slice, or a back inserter).
template <typename Out>
struct StaticStabReport {
  const CsrEntry* by_left = nullptr;
  const CsrEntry* by_right = nullptr;
  double q = 0;
  Out out{};

  // Reads: every entry up to and including the one that stops the scan.
  static void tally_scan(core::Tally& t, size_t lo, size_t hi, size_t stop) {
    t.reads += stop < hi ? stop - lo + 1 : hi - lo;
    t.writes += stop - lo;
  }
  void left_run(size_t lo, size_t hi, core::Tally& t) {
    size_t i = lo;
    for (; i < hi && !(by_left[i].first > q); ++i) *out++ = by_left[i].second;
    tally_scan(t, lo, hi, i);
  }
  void right_run(size_t lo, size_t hi, core::Tally& t) {
    size_t i = lo;
    for (; i < hi && !(by_right[i].first < q); ++i) {
      *out++ = by_right[i].second;
    }
    tally_scan(t, lo, hi, i);
  }
  void all_run(size_t lo, size_t hi, core::Tally& t) {
    for (size_t i = lo; i < hi; ++i) *out++ = by_left[i].second;
    t.reads += hi - lo;
    t.writes += hi - lo;
  }
};

// Counting visitor (Appendix A): binary search in each visited node's sorted
// run — O(log^2 n + duplicate fringe) reads, zero writes.
struct StaticStabCount {
  const CsrEntry* by_left = nullptr;
  const CsrEntry* by_right = nullptr;
  double q = 0;
  size_t total = 0;

  void left_run(size_t lo, size_t hi, core::Tally& t) {
    const CsrEntry* it = std::upper_bound(by_left + lo, by_left + hi,
                                          std::make_pair(q, UINT32_MAX));
    t.reads += static_cast<uint64_t>(std::bit_width(hi - lo + 1));
    total += static_cast<size_t>(it - (by_left + lo));
  }
  void right_run(size_t lo, size_t hi, core::Tally& t) {
    // by_right is sorted descending by r.
    const CsrEntry* it = std::lower_bound(
        by_right + lo, by_right + hi, q,
        [](const CsrEntry& e, double v) { return e.first >= v; });
    t.reads += static_cast<uint64_t>(std::bit_width(hi - lo + 1));
    total += static_cast<size_t>(it - (by_right + lo));
  }
  void all_run(size_t lo, size_t hi, core::Tally&) { total += hi - lo; }
};

}  // namespace

template <typename V>
void StaticIntervalTree::stab_lanes(V* vis, size_t m, size_t start,
                                    core::Tally& t) const {
  if (n_ == 0) return;
  size_t at[kStabLanes];
  for (size_t l = 0; l < m; ++l) at[l] = start;
  core::walk_lanes<kStabLanes>(m, [&](size_t l) {
    V& v = vis[l];
    size_t pos = at[l];
    double key = keys_[pos - 1];
    int lvl = level_of(pos);
    size_t step = lvl > 0 ? (size_t{1} << (lvl - 1)) : 0;
    if (v.q < key) {
      t.reads += 1;
      v.left_run(node_left_off_[pos - 1], node_left_off_[pos], t);
      pos -= step;
    } else if (v.q > key) {
      t.reads += 1;
      v.right_run(node_right_off_[pos - 1], node_right_off_[pos], t);
      pos += step;
    } else {
      // A NaN stab point is inside no interval: every comparison is false,
      // which must not be read as an exact key match.
      if (v.q != key) return false;
      // q == key: everything stored here contains q, and duplicate endpoint
      // values can place storage nodes on either side, so the lane forks
      // into both subtrees, left first, as one-lane walks. The fork is
      // output-sensitive: every node whose key equals q is an endpoint of a
      // *reported* interval, so visits stay O(log n + k).
      t.reads += 1;
      v.all_run(node_left_off_[pos - 1], node_left_off_[pos], t);
      if (lvl > 0) {
        stab_lanes(&v, 1, pos - step, t);
        stab_lanes(&v, 1, pos + step, t);
      }
      return false;
    }
    if (lvl == 0) return false;
    at[l] = pos;
    __builtin_prefetch(&keys_[pos - 1]);
    __builtin_prefetch(&node_left_off_[pos - 1]);
    __builtin_prefetch(&node_right_off_[pos - 1]);
    return true;
  });
}

std::vector<uint32_t> StaticIntervalTree::stab(double q) const {
  std::vector<uint32_t> out;
  StaticStabReport<std::back_insert_iterator<std::vector<uint32_t>>> vis{
      by_left_.data(), by_right_.data(), q, std::back_inserter(out)};
  core::Tally t;
  stab_lanes(&vis, 1, root_pos(), t);
  t.charge();
  return out;
}

size_t StaticIntervalTree::stab_count(double q) const {
  StaticStabCount vis{by_left_.data(), by_right_.data(), q};
  core::Tally t;
  stab_lanes(&vis, 1, root_pos(), t);
  t.charge();
  return vis.total;
}

// The batch variants walk fixed blocks of kStabLanes probes: count_block
// sets counts[i] for every probe i of [lo, hi), in one lane walk.
void StaticIntervalTree::count_block(const std::vector<double>& qs, size_t lo,
                                     size_t hi, size_t* counts) const {
  StaticStabCount vis[kStabLanes];
  for (size_t i = lo; i < hi; ++i) {
    vis[i - lo] = {by_left_.data(), by_right_.data(), qs[i]};
  }
  core::Tally t;
  stab_lanes(vis, hi - lo, root_pos(), t);
  t.charge();
  for (size_t i = lo; i < hi; ++i) counts[i] = vis[i - lo].total;
}

parallel::BatchResult<uint32_t> StaticIntervalTree::stab_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_two_phase_blocks<uint32_t, kStabLanes>(
      qs.size(),
      [&](size_t lo, size_t hi, size_t* sizes) {
        count_block(qs, lo, hi, sizes);
      },
      [&](size_t lo, size_t hi, uint32_t* items, const size_t* offsets) {
        StaticStabReport<uint32_t*> vis[kStabLanes];
        for (size_t i = lo; i < hi; ++i) {
          vis[i - lo] = {by_left_.data(), by_right_.data(), qs[i],
                         items + offsets[i]};
        }
        core::Tally t;
        stab_lanes(vis, hi - lo, root_pos(), t);
        t.charge();
      });
}

std::vector<size_t> StaticIntervalTree::stab_count_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_map_blocks<size_t, kStabLanes>(
      qs.size(), [&](size_t lo, size_t hi, size_t* out) {
        count_block(qs, lo, hi, out);
      });
}

bool StaticIntervalTree::validate(const std::vector<Interval>& ivs) const {
  if (by_left_.size() != n_ || by_right_.size() != n_) return false;
  // Every interval appears exactly once in each CSR and contains its node key;
  // runs are sorted.
  std::vector<int> seen(n_, 0);
  for (size_t p = 1; p <= m_; ++p) {
    size_t l0 = node_left_off_[p - 1], l1 = node_left_off_[p];
    double key = keys_[p - 1];
    for (size_t i = l0; i < l1; ++i) {
      uint32_t id = by_left_[i].second;
      ++seen[id];
      if (!(ivs[id].l <= key && key <= ivs[id].r)) return false;
      if (by_left_[i].first != ivs[id].l) return false;
      if (i > l0 && by_left_[i - 1].first > by_left_[i].first) return false;
    }
    size_t r0 = node_right_off_[p - 1], r1 = node_right_off_[p];
    for (size_t i = r0; i < r1; ++i) {
      if (i > r0 && by_right_[i - 1].first < by_right_[i].first) return false;
    }
    if (l1 - l0 != r1 - r0) return false;
  }
  for (int s : seen) {
    if (s != 1) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// DynamicIntervalTree (Section 7.3)
// ---------------------------------------------------------------------------
//
// The skeleton (alpha.h) keeps dead endpoint keys in subtree rebuilds and
// drops them only at whole-tree rebuilds, so every live interval can always
// find a storage node: its own endpoints are keys somewhere in the tree.

void DynamicIntervalTree::insert_key(double key) {
  std::vector<uint32_t> path;
  insert_leaf(key, std::less<double>(), path);
  ++node_count_;
  bump_and_rebalance(path, node_count_,
                     [this](uint32_t v, uint32_t parent, uint64_t old_init) {
                       rebuild(v, parent, old_init);
                     });
}

uint32_t DynamicIntervalTree::find_storage(uint32_t v, double l,
                                           double r) const {
  while (v != kNull) {
    asym::count_read();
    const Node& nd = pool_[v];
    if (r < nd.key) {
      v = nd.left;
    } else if (l > nd.key) {
      v = nd.right;
    } else {
      return v;  // highest node with key in [l, r]
    }
  }
  return kNull;
}

std::vector<Interval> DynamicIntervalTree::live_records() const {
  std::vector<Entry> keys;
  std::vector<Interval> out;
  keys.reserve(node_count_);
  out.reserve(live_intervals_);
  collect_intervals(root_, keys, out);
  asym::count_write(out.size());
  return out;
}

void DynamicIntervalTree::collect_intervals(uint32_t v,
                                            std::vector<Entry>& keys,
                                            std::vector<Interval>& ivs) const {
  // Each stored id is looked up in ivs_, a large-memory table: one read.
  collect(v, keys, [&](const Node& nd) {
    nd.by_l.for_each([&](double, uint32_t id) {
      asym::count_read();
      ivs.push_back(ivs_.at(id));
    });
  });
}

void DynamicIntervalTree::rebuild(uint32_t v, uint32_t parent,
                                  uint64_t old_init) {
  std::vector<Entry> keys;
  std::vector<Interval> moved;
  collect_intervals(v, keys, moved);
  uint32_t fresh = replace(v, parent, old_init, keys,
                           [this](const std::vector<Entry>& es) {
                             return build_marked(es);
                           });
  if (parent == kNull) {
    dead_count_ = 0;
    node_count_ = keys.size();
  }
  // A subtree rebuild keeps its key set, so every collected interval finds
  // its storage node below `fresh`.
  for (const Interval& iv : moved) store(fresh, iv);
}

void DynamicIntervalTree::store(uint32_t v, const Interval& iv) {
  uint32_t u = find_storage(v, iv.l, iv.r);
  assert(u != kNull);
  pool_[u].by_l.insert(iv.l, iv.id);
  pool_[u].by_r.insert(iv.r, iv.id);
}

namespace {

// Shared record validation for the bulk mutation paths: a malformed record
// (non-finite endpoint or l > r) would poison BST key comparisons, so it is
// rejected before the first write. The scan is charged as bulk reads — an
// input-only function, so asym totals stay deterministic.
Status check_interval(const Interval& iv, const char* op) {
  if (!std::isfinite(iv.l) || !std::isfinite(iv.r)) {
    return Status::InvalidArgument(std::string(op) + ": non-finite endpoint" +
                                   " on interval id " + std::to_string(iv.id));
  }
  if (iv.l > iv.r) {
    return Status::InvalidArgument(std::string(op) + ": inverted interval [" +
                                   std::to_string(iv.l) + ", " +
                                   std::to_string(iv.r) + "] id " +
                                   std::to_string(iv.id));
  }
  return Status::Ok();
}

}  // namespace

Status DynamicIntervalTree::bulk_insert(const std::vector<Interval>& batch) {
  if (batch.empty()) return Status::Ok();
  // Validation pass: malformed records and id collisions (within the batch
  // or against a live interval — ivs_[id] would silently clobber the live
  // record and orphan its treap entries) are rejected pre-mutation.
  asym::count_read(batch.size());
  std::unordered_set<uint32_t> seen;
  seen.reserve(batch.size());
  for (const Interval& iv : batch) {
    Status s = check_interval(iv, "bulk_insert");
    if (!s.ok()) return s;
    if (!seen.insert(iv.id).second) {
      return Status::InvalidArgument(
          "bulk_insert: duplicate id " + std::to_string(iv.id) +
          " within batch");
    }
    if (ivs_.find(iv.id) != ivs_.end()) {
      return Status::InvalidArgument(
          "bulk_insert: id " + std::to_string(iv.id) +
          " already live (erase it first)");
    }
  }
  // Allocation fault point: index = endpoint-node demand of this batch.
  if (fault::should_fail("alloc", 2 * batch.size())) {
    return fault::injected("alloc", 2 * batch.size());
  }
  // Register intervals and sort the 2m endpoint keys write-efficiently.
  std::vector<double> keys;
  keys.reserve(2 * batch.size());
  for (const Interval& iv : batch) {
    ivs_[iv.id] = iv;
    asym::count_write();
    keys.push_back(iv.l);
    keys.push_back(iv.r);
  }
  {
    std::vector<uint64_t> skeys(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      skeys[i] = sort::double_to_sortable(keys[i]);
    }
    asym::count_read(keys.size());
    auto order = sort::incremental_sort_we_order_anyorder(skeys);
    std::vector<double> sorted(keys.size());
    asym::count_write(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) sorted[i] = keys[order[i]];
    keys.swap(sorted);
  }
  node_count_ += keys.size();
  root_weight_ += keys.size();

  // Top-down merge (Section 7.3.5): at each critical node, if the incoming
  // keys would overflow its doubling budget, flatten + merge + rebuild the
  // union in one shot; otherwise bump its weight, split the key range at the
  // node key (binary search; equal keys go right, matching single
  // insertion), and recurse. Secondary nodes split without weight checks.
  std::vector<Interval> displaced;
  auto run = [&](auto&& self, uint32_t v, size_t lo, size_t hi) -> uint32_t {
    if (lo >= hi) return v;
    if (v == kNull) {
      std::vector<Entry> ks;
      ks.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) ks.push_back(Entry{keys[i], false});
      return build_marked(ks);
    }
    asym::count_read();
    Node& nd0 = pool_[v];
    if (nd0.critical && nd0.weight + (hi - lo) >= 2 * nd0.init_weight) {
      std::vector<Entry> old_keys;
      collect_intervals(v, old_keys, displaced);
      free_subtree(v);
      std::vector<Entry> merged;
      merged.reserve(old_keys.size() + (hi - lo));
      size_t i = 0, j = lo;
      asym::count_read(old_keys.size() + (hi - lo));
      asym::count_write(old_keys.size() + (hi - lo));
      while (i < old_keys.size() || j < hi) {
        if (j >= hi || (i < old_keys.size() && old_keys[i].key <= keys[j])) {
          merged.push_back(old_keys[i++]);
        } else {
          merged.push_back(Entry{keys[j++], false});
        }
      }
      ++rebuilds_;
      return build_marked(merged);
    }
    size_t mid = static_cast<size_t>(
        std::lower_bound(keys.begin() + static_cast<long>(lo),
                         keys.begin() + static_cast<long>(hi), nd0.key) -
        keys.begin());
    asym::count_read(static_cast<uint64_t>(std::bit_width(hi - lo + 1)));
    if (nd0.critical) {
      asym::count_write();
      nd0.weight += (hi - lo);
    }
    uint32_t l = self(self, pool_[v].left, lo, mid);
    uint32_t r = self(self, pool_[v].right, mid, hi);
    pool_[v].left = l;
    pool_[v].right = r;
    return v;
  };
  root_ = run(run, root_, 0, keys.size());

  // Assign the batch intervals plus any displaced by rebuilds.
  for (const Interval& iv : batch) store(root_, iv);
  for (const Interval& iv : displaced) store(root_, iv);
  live_intervals_ += batch.size();
  if (root_weight_ >= 2 * root_init_) rebuild(root_, kNull, root_init_);
  return Status::Ok();
}

void DynamicIntervalTree::insert(const Interval& iv) {
  ivs_[iv.id] = iv;
  asym::count_write();
  insert_key(iv.l);
  insert_key(iv.r);
  store(root_, iv);
  ++live_intervals_;
}

bool DynamicIntervalTree::erase(const Interval& iv) {
  if (!erase_one(iv)) return false;
  maybe_compact();
  return true;
}

Expected<size_t> DynamicIntervalTree::bulk_erase(
    const std::vector<Interval>& batch) {
  // A malformed erase record cannot match a live interval (inserts reject
  // them), so it signals a corrupted batch: reject pre-mutation rather than
  // walking the skeleton with NaN keys. Absent-but-well-formed records stay
  // a soft miss (count 0), preserving the idempotent-erase contract.
  asym::count_read(batch.size());
  for (const Interval& iv : batch) {
    Status s = check_interval(iv, "bulk_erase");
    if (!s.ok()) return s;
  }
  size_t erased = 0;
  for (const Interval& iv : batch) {
    if (erase_one(iv)) ++erased;
  }
  if (erased > 0) maybe_compact();
  return erased;
}

void DynamicIntervalTree::maybe_compact() {
  if (dead_count_ * 2 >= node_count_ && node_count_ > 16) {
    rebuild(root_, kNull, root_init_);
  }
}

bool DynamicIntervalTree::erase_one(const Interval& iv) {
  asym::count_read();  // the ivs_ lookup
  auto it = ivs_.find(iv.id);
  if (it == ivs_.end() || !(it->second == iv)) return false;
  uint32_t v = find_storage(root_, iv.l, iv.r);
  if (v == kNull) return false;
  if (!pool_[v].by_l.erase(iv.l, iv.id)) return false;
  pool_[v].by_r.erase(iv.r, iv.id);
  ivs_.erase(it);
  --live_intervals_;
  // Mark one endpoint node per endpoint dead (duplicates descend right).
  auto mark_dead = [&](double key) {
    uint32_t u = root_;
    while (u != kNull) {
      asym::count_read();
      Node& nd = pool_[u];
      if (key < nd.key) {
        u = nd.left;
      } else if (key > nd.key) {
        u = nd.right;
      } else if (nd.dead) {
        u = nd.right;  // an equal, not-yet-dead key lies further right
      } else {
        asym::count_write();
        nd.dead = true;
        ++dead_count_;
        return;
      }
    }
  };
  mark_dead(iv.l);
  mark_dead(iv.r);
  return true;
}

template <typename F>
void DynamicIntervalTree::stab_visit(double q, F&& emit) const {
  // A NaN stab point is inside no interval (see the static tree's guard).
  if (std::isnan(q)) return;
  uint32_t v = root_;
  while (v != kNull) {
    asym::count_read();
    const Node& nd = pool_[v];
    if (q < nd.key) {
      nd.by_l.report_leq(q, [&](double, uint32_t id) { emit(id); });
      v = nd.left;
    } else if (q > nd.key) {
      nd.by_r.report_geq(q, [&](double, uint32_t id) { emit(id); });
      v = nd.right;
    } else {
      nd.by_l.for_each([&](double, uint32_t id) { emit(id); });
      v = nd.right;  // equal keys (with their own intervals) lie right
    }
  }
}

std::vector<uint32_t> DynamicIntervalTree::stab(double q) const {
  std::vector<uint32_t> out;
  stab_visit(q, [&](uint32_t id) {
    asym::count_write();
    out.push_back(id);
  });
  return out;
}

size_t DynamicIntervalTree::stab_count(double q) const {
  size_t total = 0;
  stab_visit(q, [&](uint32_t) { ++total; });
  return total;
}

parallel::BatchResult<uint32_t> DynamicIntervalTree::stab_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(), [&](size_t i) { return stab_count(qs[i]); },
      [&](size_t i, uint32_t* out) {
        stab_visit(qs[i], [&](uint32_t id) {
          asym::count_write();
          *out++ = id;
        });
      });
}

std::vector<size_t> DynamicIntervalTree::stab_count_batch(
    const std::vector<double>& qs) const {
  return parallel::batch_map<size_t>(
      qs.size(), [&](size_t i) { return stab_count(qs[i]); });
}

bool DynamicIntervalTree::validate() const {
  if (root_ == kNull) return live_intervals_ == 0;
  bool ok = weights_valid();
  size_t stored = 0;
  // BST order, treap invariants, intervals contain their node key.
  auto rec = [&](auto&& self, uint32_t v, double lo, double hi) -> void {
    if (v == kNull) return;
    const Node& nd = pool_[v];
    if (!(nd.key >= lo && nd.key <= hi)) ok = false;
    ok = ok && nd.by_l.validate() && nd.by_r.validate();
    nd.by_l.for_each([&](double, uint32_t id) {
      auto it = ivs_.find(id);
      if (it == ivs_.end() || !it->second.contains(nd.key)) ok = false;
      ++stored;
    });
    self(self, nd.left, lo, nd.key);
    self(self, nd.right, nd.key, hi);
  };
  rec(rec, root_, -kInf, kInf);
  return ok && stored == live_intervals_;
}

}  // namespace weg::augtree
