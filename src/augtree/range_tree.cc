#include "src/augtree/range_tree.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/parallel/parallel_for.h"
#include "src/primitives/sort.h"
#include "src/sort/incremental_sort.h"

namespace weg::augtree {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Sorted order of points by (x, id) with write-efficient counting: the WE
// sorter orders by x (ties by input index); equal-x runs are then locally
// reordered by id (runs are short for generic inputs).
std::vector<uint32_t> we_order_by_x(const std::vector<PPoint>& pts) {
  std::vector<uint64_t> keys(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    keys[i] = sort::double_to_sortable(pts[i].x);
  }
  asym::count_read(pts.size());
  auto order = sort::incremental_sort_we_order(keys);
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i + 1;
    asym::count_read();
    while (j < order.size() && pts[order[j]].x == pts[order[i]].x) ++j;
    if (j - i > 1) {
      std::sort(order.begin() + static_cast<long>(i),
                order.begin() + static_cast<long>(j),
                [&](uint32_t a, uint32_t b) { return pts[a].id < pts[b].id; });
      asym::count_write(j - i);
    }
    i = j;
  }
  return order;
}

}  // namespace

// ---------------------------------------------------------------------------
// StaticRangeTree
// ---------------------------------------------------------------------------

StaticRangeTree StaticRangeTree::build(const std::vector<PPoint>& pts,
                                       Stats* stats) {
  asym::Region region;
  StaticRangeTree t;
  t.n_ = pts.size();
  t.m_ = 1;
  t.height_ = 1;
  while (t.m_ < std::max<size_t>(t.n_, 1)) {
    t.m_ = 2 * t.m_ + 1;
    ++t.height_;
  }
  t.by_x_ = pts;
  asym::count_read(t.n_);
  primitives::sort_inplace(t.by_x_, [](const PPoint& a, const PPoint& b) {
    return a.x < b.x || (a.x == b.x && a.id < b.id);
  });

  // One y-sort, then top-down stable partition by rank range: node at
  // position p (level l) covers ranks [p - 2^l, p + 2^l - 2].
  std::vector<std::pair<double, uint32_t>> all(t.n_);  // (y, rank)
  for (size_t r = 0; r < t.n_; ++r) all[r] = {t.by_x_[r].y, (uint32_t)r};
  primitives::sort_inplace(all);

  // Sibling subtrees write disjoint per_node slots, so the stable partition
  // forks on independent subtree builds down to a sequential cutoff.
  std::vector<std::vector<std::pair<double, uint32_t>>> per_node(t.m_ + 1);
  auto rec = [&](auto&& self, size_t pos,
                 std::vector<std::pair<double, uint32_t>> list) -> void {
    if (list.empty()) return;
    asym::count_read(list.size());
    asym::count_write(list.size());  // this level's copy
    int lvl = std::countr_zero(pos);
    per_node[pos] = list;
    if (lvl == 0) return;
    size_t step = size_t{1} << (lvl - 1);
    std::vector<std::pair<double, uint32_t>> left, right;
    uint32_t own_rank = static_cast<uint32_t>(pos - 1);
    for (auto& e : list) {
      if (e.second < own_rank) {
        left.push_back(e);
      } else if (e.second > own_rank) {
        right.push_back(e);
      }
    }
    parallel::par_do_if(left.size() + right.size() > parallel::kSeqCutoff,
                        [&] { self(self, pos - step, std::move(left)); },
                        [&] { self(self, pos + step, std::move(right)); });
  };
  rec(rec, t.root_pos(), std::move(all));

  // Flatten into CSR, converting ranks to ids: serial prefix sum over the
  // node sizes, then a parallel scatter into disjoint output ranges.
  t.inner_off_.assign(t.m_ + 1, 0);
  size_t total = 0;
  for (size_t p = 1; p <= t.m_; ++p) {
    t.inner_off_[p - 1] = static_cast<uint32_t>(total);
    total += per_node[p].size();
  }
  t.inner_off_[t.m_] = static_cast<uint32_t>(total);
  t.ys_.resize(total);
  parallel::parallel_for(1, t.m_ + 1, [&](size_t p) {
    size_t off = t.inner_off_[p - 1];
    for (auto& [y, r] : per_node[p]) t.ys_[off++] = {y, t.by_x_[r].id};
  });
  asym::count_write(total);

  if (stats) {
    stats->cost = region.delta();
    stats->inner_entries = total;
  }
  return t;
}

namespace {

// Shared canonical decomposition over the implicit tree: visits node `pos`
// whose subtree covers ranks [a, b); query rank range [rl, rr).
template <typename Covered, typename Own>
void decompose(size_t pos, size_t a, size_t b, size_t rl, size_t rr, size_t n,
               const Covered& covered_fn, const Own& own_fn) {
  if (rr <= a || b <= rl || a >= n) return;
  asym::count_read();
  if (rl <= a && b <= rr) {
    covered_fn(pos);
    return;
  }
  size_t own_rank = pos - 1;
  if (own_rank < n && own_rank >= rl && own_rank < rr) own_fn(own_rank);
  int lvl = std::countr_zero(pos);
  if (lvl == 0) return;
  size_t step = size_t{1} << (lvl - 1);
  decompose(pos - step, a, own_rank, rl, rr, n, covered_fn, own_fn);
  decompose(pos + step, own_rank + 1, b, rl, rr, n, covered_fn, own_fn);
}

// Reporting visitor: scans each covered node's y-run from lower_bound(yb)
// while y <= yt, one read per scanned entry.
template <typename Emit>
struct StaticRangeReport {
  const std::vector<std::pair<double, uint32_t>>& ys;
  const std::vector<PPoint>& by_x;
  double yb, yt;
  Emit emit;

  void covered(size_t lo, size_t hi) {
    auto first = std::lower_bound(
        ys.begin() + lo, ys.begin() + hi, yb,
        [](const std::pair<double, uint32_t>& e, double v) {
          return e.first < v;
        });
    asym::count_read(static_cast<uint64_t>(std::bit_width(hi - lo + 1)));
    for (auto it = first; it != ys.begin() + hi && it->first <= yt; ++it) {
      asym::count_read();
      emit(it->second);
    }
  }
  void point(size_t rank) {
    asym::count_read();
    if (by_x[rank].y >= yb && by_x[rank].y <= yt) emit(by_x[rank].id);
  }
};

// Counting visitor (Appendix A): binary searches only, no per-result reads
// and no output writes.
struct StaticRangeCount {
  const std::vector<std::pair<double, uint32_t>>& ys;
  const std::vector<PPoint>& by_x;
  double yb, yt;
  size_t c = 0;

  void covered(size_t lo, size_t hi) {
    auto first = std::lower_bound(
        ys.begin() + lo, ys.begin() + hi, yb,
        [](const std::pair<double, uint32_t>& e, double v) {
          return e.first < v;
        });
    auto last = std::upper_bound(
        ys.begin() + lo, ys.begin() + hi, yt,
        [](double v, const std::pair<double, uint32_t>& e) {
          return v < e.first;
        });
    asym::count_read(static_cast<uint64_t>(2 * std::bit_width(hi - lo + 1)));
    c += static_cast<size_t>(last - first);
  }
  void point(size_t rank) {
    asym::count_read();
    if (by_x[rank].y >= yb && by_x[rank].y <= yt) ++c;
  }
};

}  // namespace

template <typename V>
void StaticRangeTree::visit_query(double xl, double xr, V&& vis) const {
  if (n_ == 0) return;
  auto rl = static_cast<size_t>(
      std::lower_bound(by_x_.begin(), by_x_.end(), xl,
                       [](const PPoint& p, double v) { return p.x < v; }) -
      by_x_.begin());
  auto rr = static_cast<size_t>(
      std::upper_bound(by_x_.begin(), by_x_.end(), xr,
                       [](double v, const PPoint& p) { return v < p.x; }) -
      by_x_.begin());
  asym::count_read(static_cast<uint64_t>(2 * std::bit_width(n_)));
  size_t root = root_pos();
  size_t span = root - 1;  // ranks [root-1-span, root-1+span]
  decompose(
      root, root - 1 - span, root + span, rl, rr, n_,
      [&](size_t pos) { vis.covered(inner_off_[pos - 1], inner_off_[pos]); },
      [&](size_t rank) { vis.point(rank); });
}

std::vector<uint32_t> StaticRangeTree::query(double xl, double xr, double yb,
                                             double yt) const {
  std::vector<uint32_t> out;
  auto emit = [&](uint32_t id) {
    asym::count_write();
    out.push_back(id);
  };
  StaticRangeReport<decltype(emit)> vis{ys_, by_x_, yb, yt, emit};
  visit_query(xl, xr, vis);
  return out;
}

size_t StaticRangeTree::query_count(double xl, double xr, double yb,
                                    double yt) const {
  StaticRangeCount vis{ys_, by_x_, yb, yt};
  visit_query(xl, xr, vis);
  return vis.c;
}

parallel::BatchResult<uint32_t> StaticRangeTree::query_batch(
    const std::vector<RangeQuery2D>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(),
      [&](size_t i) {
        const RangeQuery2D& q = qs[i];
        return query_count(q.xl, q.xr, q.yb, q.yt);
      },
      [&](size_t i, uint32_t* out) {
        const RangeQuery2D& q = qs[i];
        auto emit = [&](uint32_t id) {
          asym::count_write();
          *out++ = id;
        };
        StaticRangeReport<decltype(emit)> vis{ys_, by_x_, q.yb, q.yt, emit};
        visit_query(q.xl, q.xr, vis);
      });
}

std::vector<size_t> StaticRangeTree::query_count_batch(
    const std::vector<RangeQuery2D>& qs) const {
  return parallel::batch_map<size_t>(qs.size(), [&](size_t i) {
    const RangeQuery2D& q = qs[i];
    return query_count(q.xl, q.xr, q.yb, q.yt);
  });
}

bool StaticRangeTree::validate() const {
  // Every point appears in the inner list of each of its ancestors
  // (including its own node): total entries per point = depth of its node.
  if (ys_.size() < n_) return false;
  // Inner lists sorted by y.
  for (size_t p = 1; p <= m_; ++p) {
    for (size_t i = inner_off_[p - 1] + 1; i < inner_off_[p]; ++i) {
      if (ys_[i - 1].first > ys_[i].first) return false;
    }
  }
  // by_x_ sorted.
  for (size_t r = 1; r < n_; ++r) {
    if (by_x_[r - 1].x > by_x_[r].x) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// AlphaRangeTree
// ---------------------------------------------------------------------------

std::vector<AlphaRangeTree::YX> AlphaRangeTree::y_list(
    const std::vector<PPoint>& pts) {
  // Rebuilds pass x-ordered points, so the random-order precondition does
  // not hold; use the shuffling variant.
  std::vector<uint64_t> keys(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    keys[i] = sort::double_to_sortable(pts[i].y);
  }
  asym::count_read(pts.size());
  auto yorder = sort::incremental_sort_we_order_anyorder(keys);
  std::vector<YX> ylist(pts.size());
  asym::count_read(pts.size());
  asym::count_write(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    const PPoint& p = pts[yorder[i]];
    ylist[i] = YX{p.y, p.id, p.x};
  }
  return ylist;
}

void AlphaRangeTree::fill_inners(uint32_t c, std::vector<YX>& ylist) {
  // ylist: y-sorted live points of c's subtree (including c's own point if
  // live). Critical nodes materialize it as their inner treap.
  if (pool_[c].critical && !ylist.empty()) {
    std::vector<std::pair<double, uint32_t>> es;
    es.reserve(ylist.size());
    for (const YX& e : ylist) es.emplace_back(e.y, e.id);
    pool_[c].inner = Treap::from_sorted(es);
  } else {
    pool_[c].inner = Treap{};
  }
  if (pool_[c].left == kNull && pool_[c].right == kNull) return;
  // Ordered filter (Appendix A): route each entry down the skeleton to its
  // next critical node (<= O(alpha) secondary steps, Corollary 7.1). An
  // entry that *is* a node on the way stays at that node (it appears in no
  // deeper inner list). Stability preserves the y order in every bucket.
  std::vector<std::pair<uint32_t, std::vector<YX>>> buckets;
  auto bucket_of = [&](uint32_t cc) -> std::vector<YX>& {
    for (auto& [k, list] : buckets) {
      if (k == cc) return list;
    }
    buckets.emplace_back(cc, std::vector<YX>{});
    return buckets.back().second;
  };
  for (const YX& e : ylist) {
    uint32_t u = c;
    while (true) {
      asym::count_read();
      const Node& nd = pool_[u];
      if (u != c && nd.critical) {
        asym::count_write();
        bucket_of(u).push_back(e);
        break;
      }
      if (nd.key.id == e.id && nd.key.x == e.x) break;  // the entry is node u
      uint32_t next =
          xless(PPoint{e.x, e.y, e.id}, nd.key) ? nd.left : nd.right;
      assert(next != kNull);
      u = next;
    }
  }
  // Buckets route into distinct critical subtrees (disjoint node sets), so
  // large lists recurse in parallel, one fork per bucket.
  if (ylist.size() > parallel::kSeqCutoff && buckets.size() > 1) {
    parallel::parallel_for(
        0, buckets.size(),
        [&](size_t b) { fill_inners(buckets[b].first, buckets[b].second); },
        1);
  } else {
    for (auto& [cc, list] : buckets) fill_inners(cc, list);
  }
}

void AlphaRangeTree::rebuild(uint32_t v, uint32_t parent, uint64_t old_init) {
  std::vector<Entry> entries;
  collect(v, entries);
  uint32_t fresh = replace(v, parent, old_init, entries,
                           [this](const std::vector<Entry>& es) {
                             return build_marked(es);
                           });
  if (parent == kNull) dead_ = 0;
  if (fresh == kNull) return;
  // Rebuild the inner trees: one write-efficient y-sort of the live points,
  // then the Appendix A ordered filter down the critical hierarchy.
  std::vector<PPoint> live;
  live.reserve(entries.size());
  for (const Entry& e : entries) {
    if (!e.dead) live.push_back(e.key);
  }
  auto ylist = y_list(live);
  fill_inners(fresh, ylist);
}

AlphaRangeTree AlphaRangeTree::build(const std::vector<PPoint>& pts,
                                     uint64_t alpha, asym::Counts* cost) {
  asym::Region region;
  AlphaRangeTree t(alpha);
  if (!pts.empty()) {
    auto order = we_order_by_x(pts);
    std::vector<Entry> entries(pts.size());
    asym::count_read(pts.size());
    asym::count_write(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      entries[i] = Entry{pts[order[i]], false};
    }
    t.root_ = t.build_marked(entries);
    t.root_weight_ = entries.size() + 1;
    t.root_init_ = t.root_weight_;
    t.live_ = pts.size();
    auto ylist = y_list(pts);
    t.fill_inners(t.root_, ylist);
  }
  if (cost) *cost = region.delta();
  return t;
}

void AlphaRangeTree::insert(const PPoint& p) {
  ++live_;
  std::vector<uint32_t> path;
  insert_leaf(p, xless, path);
  // The new point joins the inner tree of every critical node on its path
  // (O(log_alpha n) treaps, O(1) expected writes each).
  for (uint32_t v : path) {
    if (pool_[v].critical) pool_[v].inner.insert(p.y, p.id);
  }
  bump_and_rebalance(path, live_ + dead_,
                     [this](uint32_t v, uint32_t parent, uint64_t old_init) {
                       rebuild(v, parent, old_init);
                     });
}

bool AlphaRangeTree::erase(const PPoint& p) {
  // Locate the node holding exactly p.
  std::vector<uint32_t> path;
  uint32_t v = root_;
  uint32_t target = kNull;
  while (v != kNull) {
    path.push_back(v);
    asym::count_read();
    const Node& nd = pool_[v];
    if (nd.key == p) {
      target = v;
      break;
    }
    v = xless(p, nd.key) ? nd.left : nd.right;
  }
  if (target == kNull || pool_[target].dead) return false;
  asym::count_write();
  pool_[target].dead = true;
  --live_;
  ++dead_;
  for (uint32_t u : path) {
    if (pool_[u].critical) pool_[u].inner.erase(p.y, p.id);
  }
  if (dead_ * 2 >= live_ + dead_ && live_ + dead_ > 8) {
    rebuild(root_, kNull, root_init_);
  }
  return true;
}

template <typename F>
void AlphaRangeTree::cover(uint32_t v, double yb, double yt, F&& emit) const {
  if (v == kNull) return;
  asym::count_read();
  const Node& nd = pool_[v];
  if (nd.critical) {
    nd.inner.report_range(yb, yt, [&](double, uint32_t id) { emit(id); });
    return;
  }
  if (!nd.dead && nd.key.y >= yb && nd.key.y <= yt) emit(nd.key.id);
  cover(nd.left, yb, yt, emit);
  cover(nd.right, yb, yt, emit);
}

template <typename F>
void AlphaRangeTree::query_rec(uint32_t v, double lo, double hi, double xl,
                               double xr, double yb, double yt,
                               F&& emit) const {
  if (v == kNull) return;
  if (hi < xl || lo > xr) return;  // disjoint (conservative value bounds)
  asym::count_read();
  const Node& nd = pool_[v];
  if (lo >= xl && hi <= xr) {
    cover(v, yb, yt, emit);
    return;
  }
  if (!nd.dead && nd.key.x >= xl && nd.key.x <= xr && nd.key.y >= yb &&
      nd.key.y <= yt) {
    emit(nd.key.id);
  }
  query_rec(nd.left, lo, nd.key.x, xl, xr, yb, yt, emit);
  query_rec(nd.right, nd.key.x, hi, xl, xr, yb, yt, emit);
}

std::vector<uint32_t> AlphaRangeTree::query(double xl, double xr, double yb,
                                            double yt) const {
  std::vector<uint32_t> out;
  query_rec(root_, -kInf, kInf, xl, xr, yb, yt, [&](uint32_t id) {
    asym::count_write();
    out.push_back(id);
  });
  return out;
}

size_t AlphaRangeTree::query_count(double xl, double xr, double yb,
                                   double yt) const {
  size_t c = 0;
  query_rec(root_, -kInf, kInf, xl, xr, yb, yt, [&](uint32_t) { ++c; });
  return c;
}

parallel::BatchResult<uint32_t> AlphaRangeTree::query_batch(
    const std::vector<RangeQuery2D>& qs) const {
  return parallel::batch_two_phase<uint32_t>(
      qs.size(),
      [&](size_t i) {
        const RangeQuery2D& q = qs[i];
        return query_count(q.xl, q.xr, q.yb, q.yt);
      },
      [&](size_t i, uint32_t* out) {
        const RangeQuery2D& q = qs[i];
        query_rec(root_, -kInf, kInf, q.xl, q.xr, q.yb, q.yt,
                  [&](uint32_t id) {
                    asym::count_write();
                    *out++ = id;
                  });
      });
}

std::vector<size_t> AlphaRangeTree::query_count_batch(
    const std::vector<RangeQuery2D>& qs) const {
  return parallel::batch_map<size_t>(qs.size(), [&](size_t i) {
    const RangeQuery2D& q = qs[i];
    return query_count(q.xl, q.xr, q.yb, q.yt);
  });
}

size_t AlphaRangeTree::inner_entries() const {
  size_t total = 0;
  auto rec = [&](auto&& self, uint32_t v) -> void {
    if (v == kNull) return;
    total += pool_[v].inner.size();
    self(self, pool_[v].left);
    self(self, pool_[v].right);
  };
  rec(rec, root_);
  return total;
}

bool AlphaRangeTree::validate() const {
  if (root_ == kNull) return live_ == 0;
  bool ok = weights_valid() && rebuilt_roots_valid();
  size_t live_seen = 0;
  // Returns the live count; checks BST order and inner-tree sizes.
  auto rec = [&](auto&& self, uint32_t v) -> size_t {
    if (v == kNull) return 0;
    const Node& nd = pool_[v];
    if (nd.left != kNull && !xless(pool_[nd.left].key, nd.key)) ok = false;
    if (nd.right != kNull && xless(pool_[nd.right].key, nd.key)) ok = false;
    size_t live =
        self(self, nd.left) + self(self, nd.right) + (nd.dead ? 0 : 1);
    if (!nd.dead) ++live_seen;
    if (nd.critical && (nd.inner.size() != live || !nd.inner.validate())) {
      ok = false;
    }
    return live;
  };
  rec(rec, root_);
  return ok && live_seen == live_;
}

}  // namespace weg::augtree

