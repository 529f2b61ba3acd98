#include "src/augtree/priority_tree.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

#include "src/parallel/par_build.h"
#include "src/augtree/tournament.h"
#include "src/parallel/parallel_for.h"
#include "src/primitives/sort.h"
#include "src/sort/incremental_sort.h"

namespace weg::augtree {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool px_less(const PPoint& a, const PPoint& b) {
  return a.x < b.x || (a.x == b.x && a.id < b.id);
}

// Sorts rebuild entries by x. Small subtrees (the frequent leaf-level
// reconstructions) fit in the symmetric memory (size Omega(log n)) and sort
// there for the cost of reading them in and writing them out; larger
// subtrees use the write-efficient sorter (linear writes).
void sort_by_x(std::vector<AlphaEntry<PPoint>>& pts) {
  using Entry = AlphaEntry<PPoint>;
  if (pts.size() <= 64) {
    asym::count_read(pts.size());
    asym::count_write(pts.size());
    std::sort(pts.begin(), pts.end(), [](const Entry& a, const Entry& b) {
      return px_less(a.key, b.key);
    });
    return;
  }
  std::vector<uint64_t> keys(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    keys[i] = sort::double_to_sortable(pts[i].key.x);
  }
  asym::count_read(pts.size());
  auto order = sort::incremental_sort_we_order_anyorder(keys);
  std::vector<Entry> sorted(pts.size());
  asym::count_write(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) sorted[i] = pts[order[i]];
  pts.swap(sorted);
}
}  // namespace

// ---------------------------------------------------------------------------
// StaticPriorityTree
// ---------------------------------------------------------------------------

StaticPriorityTree StaticPriorityTree::build_classic(
    const std::vector<PPoint>& pts, Stats* stats) {
  asym::Region region;
  StaticPriorityTree t;
  t.n_ = pts.size();
  // One node per point; a subtree over a set of size s occupies the
  // contiguous slot slice [base, base + s) with its root at `base`, so
  // sibling builds write disjoint slots, the layout is DFS-contiguous, and
  // ids are identical at every worker count.
  t.pool_.resize(t.n_);
  std::vector<PPoint> sorted = pts;
  asym::count_read(pts.size());
  primitives::sort_inplace(sorted, px_less);
  // Recursive extract-max + median split, copying each half (the Θ(n log n)
  // write baseline). The halves are independent, so they fork down to a
  // sequential cutoff.
  auto rec = [&](auto&& self, std::vector<PPoint> set,
                 uint32_t base) -> uint32_t {
    if (set.empty()) return kNull;
    asym::count_read(set.size());
    size_t best = 0;
    for (size_t i = 1; i < set.size(); ++i) {
      if (set[i].y > set[best].y) best = i;
    }
    uint32_t id = base;
    t.pool_[id].pt = set[best];
    asym::count_write();
    set.erase(set.begin() + static_cast<long>(best));
    if (set.empty()) {
      t.pool_[id].split = t.pool_[id].pt.x;
      return id;
    }
    size_t mid = (set.size() - 1) / 2;  // left gets positions [0, mid]
    asym::count_read(set.size());
    asym::count_write(set.size());  // the two copies
    std::vector<PPoint> left(set.begin(),
                             set.begin() + static_cast<long>(mid) + 1);
    std::vector<PPoint> right(set.begin() + static_cast<long>(mid) + 1,
                              set.end());
    t.pool_[id].split = set[mid].x;
    uint32_t lbase = base + 1;
    uint32_t rbase = lbase + static_cast<uint32_t>(left.size());
    uint32_t l = kNull, r = kNull;
    parallel::par_do_if(left.size() + right.size() > parallel::kSeqCutoff,
                        [&] { l = self(self, std::move(left), lbase); },
                        [&] { r = self(self, std::move(right), rbase); });
    t.pool_[id].left = l;
    t.pool_[id].right = r;
    return id;
  };
  t.root_ = rec(rec, std::move(sorted), 0);
  if (stats) {
    stats->cost = region.delta();
    stats->height = t.height();
    stats->smallmem_base_cases = 0;
  }
  return t;
}

StaticPriorityTree StaticPriorityTree::build_postsorted(
    const std::vector<PPoint>& pts, Stats* stats) {
  asym::Region region;
  StaticPriorityTree t;
  t.n_ = pts.size();
  if (t.n_ == 0) {
    if (stats) *stats = Stats{asym::Counts{}, 0, 0};
    return t;
  }
  // One node per point; a carve over nv valid points occupies the contiguous
  // slot slice [base, base + nv) with its root at `base`, so sibling carves
  // write disjoint slots and ids are identical at every worker count.
  t.pool_.resize(t.n_);

  // Write-efficient sort by x (Theorem 4.1 sorter on the mapped doubles).
  std::vector<uint64_t> keys(t.n_);
  parallel::parallel_for(0, t.n_, [&](size_t i) {
    keys[i] = sort::double_to_sortable(pts[i].x);
  });
  asym::count_read(t.n_);  // the monotone mapping happens in registers
  auto order = sort::incremental_sort_we_order(keys);
  std::vector<PPoint> sorted(t.n_);
  asym::count_read(t.n_);
  asym::count_write(t.n_);
  parallel::parallel_for(0, t.n_, [&](size_t i) { sorted[i] = pts[order[i]]; });
  // Stabilize equal x by id (the WE sorter breaks key ties by input index).
  // (Equal doubles map to equal keys; tie order does not matter here.)

  std::vector<double> ys(t.n_);
  parallel::parallel_for(0, t.n_, [&](size_t i) { ys[i] = sorted[i].y; });
  TournamentTree tt(ys);

  std::atomic<size_t> base_cases{0};

  // Appendix A construction: carve the tree out of the sorted array using
  // range-argmax / k-th-valid / scoped deletions on the tournament tree.
  // Sibling carves fork: a scoped deletion in [a, b) only rewrites
  // tournament nodes whose segment lies inside [a, b), and queries read
  // summaries only at fully-covered nodes, so recursions over disjoint
  // ranges touch disjoint tournament state.
  auto rec = [&](auto&& self, size_t lo, size_t hi, size_t nv,
                 uint32_t base) -> uint32_t {
    if (nv == 0) return kNull;
    size_t holes = (hi - lo) - nv;
    if (nv == 1 || holes > nv) {
      // Base case: load the valid points into the symmetric memory and
      // finish the subtree there; only the reads of the range and the writes
      // of the produced nodes touch the large memory.
      base_cases.fetch_add(1, std::memory_order_relaxed);
      asym::count_read(hi - lo);
      std::vector<PPoint> local;
      local.reserve(nv);
      for (size_t i = lo; i < hi; ++i) {
        if (tt.count_valid(i, i + 1)) local.push_back(sorted[i]);
      }
      for (size_t i = lo; i < hi; ++i) tt.erase_scoped(i, lo, hi);
      // In-memory classic build into slots [bbase, bbase + (bhi - blo));
      // charge one write per created node.
      auto build = [&](auto&& bself, size_t blo, size_t bhi,
                       uint32_t bbase) -> uint32_t {
        if (blo >= bhi) return kNull;
        size_t best = blo;
        for (size_t i = blo + 1; i < bhi; ++i) {
          if (local[i].y > local[best].y) best = i;
        }
        std::swap(local[blo], local[best]);
        PPoint top = local[blo];
        // Keep the rest sorted by x for the median split.
        std::sort(local.begin() + static_cast<long>(blo) + 1,
                  local.begin() + static_cast<long>(bhi), px_less);
        uint32_t id = bbase;
        asym::count_write();
        t.pool_[id].pt = top;
        size_t rest = bhi - (blo + 1);
        if (rest == 0) {
          t.pool_[id].split = top.x;
          return id;
        }
        size_t mid = blo + 1 + (rest - 1) / 2;
        t.pool_[id].split = local[mid].x;
        uint32_t l = bself(bself, blo + 1, mid + 1, bbase + 1);
        uint32_t r = bself(bself, mid + 1, bhi,
                           bbase + 1 + static_cast<uint32_t>(mid - blo));
        t.pool_[id].left = l;
        t.pool_[id].right = r;
        return id;
      };
      return build(build, 0, local.size(), base);
    }
    uint32_t top_idx = tt.range_argmax(lo, hi);
    assert(top_idx != TournamentTree::kNone);
    uint32_t id = base;
    asym::count_write();
    t.pool_[id].pt = sorted[top_idx];
    tt.erase_scoped(top_idx, lo, hi);
    size_t rest = nv - 1;
    if (rest == 0) {
      t.pool_[id].split = t.pool_[id].pt.x;
      return id;
    }
    size_t k = (rest - 1) / 2;  // left keeps k+1 valid points
    uint32_t med = tt.kth_valid(lo, hi, k);
    assert(med != TournamentTree::kNone);
    t.pool_[id].split = sorted[med].x;
    uint32_t lbase = base + 1;
    uint32_t rbase = lbase + static_cast<uint32_t>(k + 1);
    uint32_t l = kNull, r = kNull;
    parallel::par_do_if(
        rest > parallel::kSeqCutoff,
        [&] { l = self(self, lo, med + 1, k + 1, lbase); },
        [&] { r = self(self, med + 1, hi, rest - (k + 1), rbase); });
    t.pool_[id].left = l;
    t.pool_[id].right = r;
    return id;
  };
  t.root_ = rec(rec, 0, t.n_, t.n_, 0);

  if (stats) {
    stats->cost = region.delta();
    stats->height = t.height();
    stats->smallmem_base_cases = base_cases.load(std::memory_order_relaxed);
  }
  return t;
}

template <typename F>
void StaticPriorityTree::query_rec(uint32_t v, double xlo, double xhi,
                                   double xl, double xr, double yb,
                                   F&& report) const {
  if (v == kNull) return;
  if (xhi < xl || xlo > xr) return;  // x-range disjoint
  asym::count_read();
  const Node& nd = pool_[v];
  if (nd.pt.y < yb) return;  // heap prune
  if (nd.pt.x >= xl && nd.pt.x <= xr) report(nd.pt);
  query_rec(nd.left, xlo, nd.split, xl, xr, yb, report);
  query_rec(nd.right, nd.split, xhi, xl, xr, yb, report);
}

std::vector<uint32_t> StaticPriorityTree::query(double xl, double xr,
                                                double yb) const {
  std::vector<uint32_t> out;
  query_rec(root_, -kInf, kInf, xl, xr, yb, [&](const PPoint& p) {
    asym::count_write();
    out.push_back(p.id);
  });
  return out;
}

size_t StaticPriorityTree::query_count(double xl, double xr, double yb) const {
  size_t c = 0;
  query_rec(root_, -kInf, kInf, xl, xr, yb, [&](const PPoint&) { ++c; });
  return c;
}

parallel::BatchResult<uint32_t> StaticPriorityTree::query_batch(
    const std::vector<Query3Sided>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(),
      [&](size_t i) { return query_count(qs[i].xl, qs[i].xr, qs[i].yb); },
      [&](size_t i, uint32_t* out) {
        query_rec(root_, -kInf, kInf, qs[i].xl, qs[i].xr, qs[i].yb,
                  [&](const PPoint& p) {
                    asym::count_write();
                    *out++ = p.id;
                  });
      });
}

std::vector<size_t> StaticPriorityTree::query_count_batch(
    const std::vector<Query3Sided>& qs) const {
  return parallel::batch_map<size_t>(qs.size(), [&](size_t i) {
    return query_count(qs[i].xl, qs[i].xr, qs[i].yb);
  });
}

size_t StaticPriorityTree::height() const {
  auto rec = [&](auto&& self, uint32_t v) -> size_t {
    if (v == kNull) return 0;
    return 1 + std::max(self(self, pool_[v].left), self(self, pool_[v].right));
  };
  return rec(rec, root_);
}

bool StaticPriorityTree::validate() const {
  size_t count = 0;
  bool ok = true;
  auto rec = [&](auto&& self, uint32_t v, double xlo, double xhi,
                 double ymax) -> void {
    if (v == kNull) return;
    ++count;
    const Node& nd = pool_[v];
    if (nd.pt.y > ymax) ok = false;                    // heap order
    if (nd.pt.x < xlo || nd.pt.x > xhi) ok = false;    // x partition
    self(self, nd.left, xlo, nd.split, nd.pt.y);
    self(self, nd.right, nd.split, xhi, nd.pt.y);
  };
  rec(rec, root_, -kInf, kInf, kInf);
  return ok && count == n_;
}

// ---------------------------------------------------------------------------
// DynamicPriorityTree
// ---------------------------------------------------------------------------

void DynamicPriorityTree::insert(const PPoint& p) {
  ++live_;
  if (root_ == kNull) {
    root_ = alloc_leaf();
    pool_[root_].has_point = true;
    pool_[root_].key = p;
    pool_[root_].weight = 2;
    ++root_weight_;
    asym::count_write(2);  // the root and the virtual-root weight
    return;
  }
  std::vector<uint32_t> path;
  PPoint carried = p;
  bool carried_dead = false;  // dead points can be displaced downward too
  uint32_t v = root_;
  while (true) {
    path.push_back(v);
    asym::count_read();
    Node& nd = pool_[v];
    // Swap down the chain of stored points: the node keeps the higher
    // priority (dead points participate — they still bound the subtree).
    if (nd.has_point && carried.y > nd.key.y) {
      std::swap(carried, nd.key);
      std::swap(carried_dead, nd.dead);
      asym::count_write();
    }
    if (nd.left == kNull && nd.right == kNull) break;  // leaf
    v = carried.x <= nd.split ? nd.left : nd.right;
  }
  // At the leaf: place or split.
  Node& leaf = pool_[v];
  if (!leaf.has_point) {
    leaf.has_point = true;
    leaf.key = carried;
    leaf.dead = carried_dead;
    asym::count_write();
  } else {
    // Leaf keeps its (higher-y, post-swap) point and becomes internal; the
    // carried point descends into a fresh child leaf, its sibling empty.
    // Fresh leaves start at weight 1 (no point); bump_and_rebalance below
    // accounts for the newly inserted point on the whole path.
    double split = carried.x;
    uint32_t cl = alloc_leaf();  // carried.x <= split
    uint32_t cr = alloc_leaf();
    Node& nd = pool_[v];  // re-fetch (alloc may reallocate)
    nd.split = split;
    nd.left = cl;
    nd.right = cr;
    pool_[cl].has_point = true;
    pool_[cl].key = carried;
    pool_[cl].dead = carried_dead;
    asym::count_write(2);
    path.push_back(cl);
  }
  bump_and_rebalance(path, live_ + dead_,
                     [this](uint32_t v, uint32_t parent, uint64_t old_init) {
                       rebuild(v, parent, old_init);
                     });
}

uint32_t DynamicPriorityTree::build_range(std::vector<Entry>& pts, size_t lo,
                                          size_t hi, uint64_t sibling_points) {
  if (lo >= hi) return kNull;
  size_t n = hi - lo;
  // Claim the worst-case node count up front (free-list slots first, so
  // repeated rebuilds recycle instead of growing the pool) and hand slots
  // out through an atomic cursor; build_range_ids forks sibling subtree
  // builds above the sequential cutoff and runs inline below it, so this
  // single path serves serial and parallel rebuilds alike. Bound: every
  // call creates one node; a size-1 range or a critical node consumes a
  // point, a secondary node splits size s >= 2 into two strictly smaller
  // ranges, so N(s) <= 2s - 1 by induction.
  std::vector<uint32_t> slots =
      parallel::claim_build_slots(pool_, free_, 2 * n);
  std::atomic<uint32_t> cursor{0};
  uint32_t root = build_range_ids(pts, lo, hi, sibling_points, slots, cursor);
  // Return the unused slack to the free list.
  for (size_t k = cursor.load(std::memory_order_relaxed); k < slots.size();
       ++k) {
    free_.push_back(slots[k]);
  }
  return root;
}

uint32_t DynamicPriorityTree::build_range_ids(
    std::vector<Entry>& pts, size_t lo, size_t hi, uint64_t sibling_points,
    const std::vector<uint32_t>& slots, std::atomic<uint32_t>& cursor) {
  if (lo >= hi) return kNull;
  uint64_t w = (hi - lo) + 1;
  uint32_t id = slots[cursor.fetch_add(1, std::memory_order_relaxed)];
  asym::count_write();
  // Claimed slots all hold Node{} and the pool never resizes during the
  // build, so holding the reference across child calls is safe.
  Node& nd = pool_[id];
  nd.critical = is_critical_weight(w, sibling_points + 1, alpha_);
  nd.init_weight = w;
  nd.weight = w;
  size_t begin = lo;
  if (nd.critical || hi - lo == 1) {
    size_t best = lo;
    for (size_t i = lo + 1; i < hi; ++i) {
      if (pts[i].key.y > pts[best].key.y) best = i;
    }
    asym::count_read(hi - lo);
    nd.has_point = true;
    nd.key = pts[best].key;
    nd.dead = pts[best].dead;
    // Remove by swapping toward the front, preserving x order of the rest
    // via rotation.
    std::rotate(pts.begin() + static_cast<long>(lo),
                pts.begin() + static_cast<long>(best),
                pts.begin() + static_cast<long>(best) + 1);
    begin = lo + 1;
  }
  if (begin >= hi) {
    nd.split = nd.has_point ? nd.key.x : 0;
    if (!nd.critical) {
      // A childless secondary node would be pointless; make it critical so
      // every leaf holds its point.
      nd.critical = true;
    }
    return id;
  }
  size_t rest = hi - begin;
  size_t mid = begin + (rest - 1) / 2;  // left keeps [begin, mid]
  nd.split = pts[mid].key.x;
  uint64_t wl = (mid + 1 - begin) + 1, wr = (hi - (mid + 1)) + 1;
  uint32_t l = kNull, r = kNull;
  // Children mutate disjoint pts slices and allocate through the shared
  // cursor only.
  parallel::par_do_if(
      rest > parallel::kSeqCutoff,
      [&] { l = build_range_ids(pts, begin, mid + 1, wr - 1, slots, cursor); },
      [&] { r = build_range_ids(pts, mid + 1, hi, wl - 1, slots, cursor); });
  nd.left = l;
  nd.right = r;
  return id;
}

void DynamicPriorityTree::rebuild(uint32_t v, uint32_t parent,
                                  uint64_t old_init) {
  std::vector<Entry> pts;
  collect(v, pts);
  replace(
      v, parent, old_init, pts,
      [this](std::vector<Entry>& es) {
        sort_by_x(es);
        return build_range(es, 0, es.size(), 0);
      },
      // Points live only at critical nodes, so the §7.3.2 exception
      // unmarks a fresh root only when it holds none.
      [](const Node& nd) { return nd.has_point; });
  if (parent == kNull) dead_ = 0;
}

bool DynamicPriorityTree::erase(const PPoint& p) {
  bool found = false;
  auto rec = [&](auto&& self, uint32_t v) -> void {
    if (v == kNull || found) return;
    asym::count_read();
    Node& nd = pool_[v];
    if (nd.has_point && nd.key.y < p.y) return;  // heap prune
    if (nd.has_point && !nd.dead && nd.key == p) {
      asym::count_write();
      nd.dead = true;
      found = true;
      return;
    }
    if (nd.left == kNull && nd.right == kNull) return;
    // Ties on the splitter search both sides.
    if (p.x <= nd.split) self(self, nd.left);
    if (!found && p.x >= nd.split) self(self, nd.right);
  };
  rec(rec, root_);
  if (!found) return false;
  --live_;
  ++dead_;
  if (dead_ * 2 >= live_ + dead_ && live_ + dead_ > 8) {
    rebuild(root_, kNull, root_init_);
  }
  return true;
}

template <typename F>
void DynamicPriorityTree::query_rec(uint32_t v, double xlo, double xhi,
                                    double xl, double xr, double yb,
                                    F&& report) const {
  if (v == kNull) return;
  if (xhi < xl || xlo > xr) return;  // x-range disjoint
  asym::count_read();
  const Node& nd = pool_[v];
  if (nd.has_point) {
    if (nd.key.y < yb) return;  // heap prune (dead points prune too)
    if (!nd.dead && nd.key.x >= xl && nd.key.x <= xr) report(nd.key);
  }
  query_rec(nd.left, xlo, nd.split, xl, xr, yb, report);
  query_rec(nd.right, nd.split, xhi, xl, xr, yb, report);
}

std::vector<uint32_t> DynamicPriorityTree::query(double xl, double xr,
                                                 double yb) const {
  std::vector<uint32_t> out;
  query_rec(root_, -kInf, kInf, xl, xr, yb, [&](const PPoint& p) {
    asym::count_write();
    out.push_back(p.id);
  });
  return out;
}

size_t DynamicPriorityTree::query_count(double xl, double xr,
                                        double yb) const {
  size_t c = 0;
  query_rec(root_, -kInf, kInf, xl, xr, yb, [&](const PPoint&) { ++c; });
  return c;
}

parallel::BatchResult<uint32_t> DynamicPriorityTree::query_batch(
    const std::vector<Query3Sided>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(),
      [&](size_t i) { return query_count(qs[i].xl, qs[i].xr, qs[i].yb); },
      [&](size_t i, uint32_t* out) {
        query_rec(root_, -kInf, kInf, qs[i].xl, qs[i].xr, qs[i].yb,
                  [&](const PPoint& p) {
                    asym::count_write();
                    *out++ = p.id;
                  });
      });
}

std::vector<size_t> DynamicPriorityTree::query_count_batch(
    const std::vector<Query3Sided>& qs) const {
  return parallel::batch_map<size_t>(qs.size(), [&](size_t i) {
    return query_count(qs[i].xl, qs[i].xr, qs[i].yb);
  });
}

bool DynamicPriorityTree::validate() const {
  bool ok = weights_valid();
  size_t live_seen = 0;
  auto rec = [&](auto&& self, uint32_t v, double xlo, double xhi,
                 double ymax) -> void {
    if (v == kNull) return;
    const Node& nd = pool_[v];
    double next_ymax = ymax;
    if (nd.has_point) {
      if (nd.key.y > ymax) ok = false;
      if (nd.key.x < xlo || nd.key.x > xhi) ok = false;
      if (!nd.dead) ++live_seen;
      next_ymax = nd.key.y;
    }
    self(self, nd.left, xlo, nd.split, next_ymax);
    self(self, nd.right, nd.split, xhi, next_ymax);
  };
  rec(rec, root_, -kInf, kInf, kInf);
  return ok && live_seen == live_;
}

}  // namespace weg::augtree
