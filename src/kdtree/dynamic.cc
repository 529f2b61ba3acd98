#include "src/kdtree/dynamic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <utility>

#include "src/parallel/fault.h"
#include "src/parallel/par_build.h"
#include "src/primitives/random.h"

namespace weg::kdtree {

namespace {

// Shared pre-mutation validation of a bulk batch: one charged scan.
template <int K>
Status check_points(const std::vector<geom::PointK<K>>& pts, const char* op) {
  asym::count_read(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    if (!finite_point<K>(pts[i])) {
      return Status::InvalidArgument(std::string(op) +
                                     ": non-finite coordinate at record " +
                                     std::to_string(i));
    }
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// LogForest
// ---------------------------------------------------------------------------

template <int K>
KdTree<K> LogForest<K>::build(std::vector<Point> pts) const {
  // Below this size the classic builder is cheaper (few levels, and the
  // p-batched machinery has per-batch overheads); the write savings of the
  // p-batched builder only materialize on the large levels, which dominate
  // the forest's total cost anyway.
  constexpr size_t kPBatchedThreshold = 512;
  if (mode_ == RebuildMode::kPBatched && pts.size() >= kPBatchedThreshold) {
    // The p-batched constructor expects a random insertion order; shuffle in
    // one linear pass (counted).
    asym::count_read(pts.size());
    asym::count_write(pts.size());
    primitives::Rng rng(0x5eedULL + pts.size());
    primitives::shuffle(pts, rng);
    return PBatchedBuilder<K>::build(pts, /*p=*/0, leaf_size_);
  }
  return KdTree<K>::build_classic(std::move(pts), leaf_size_);
}

template <int K>
typename LogForest<K>::Delta LogForest<K>::empty_plan() const {
  Delta d;
  d.live = live_;
  d.dead = dead_;
  return d;
}

template <int K>
size_t LogForest<K>::view_levels(const Delta& d) const {
  return d.dst == kNoLevel ? levels_.size()
                           : std::max(levels_.size(), d.dst + 1);
}

template <int K>
const typename LogForest<K>::Level* LogForest<K>::view_level(const Delta& d,
                                                             size_t j) const {
  if (d.dst != kNoLevel && j <= d.dst) return j == d.dst ? &d.fresh : nullptr;
  if (j >= levels_.size() || !levels_[j].used) return nullptr;
  return &levels_[j];
}

template <int K>
void LogForest<K>::append_live(const Level& L, std::span<const Kill> kills,
                               std::vector<Point>& out) {
  asym::count_read(L.tree.size());
  size_t k = 0;
  for (size_t i = 0; i < L.tree.size(); ++i) {
    if (!L.alive[i]) continue;
    if (k < kills.size() && kills[k].second == i) {
      ++k;
      continue;
    }
    out.push_back(L.tree.points()[i]);
  }
}

template <int K>
std::vector<typename LogForest<K>::Point> LogForest<K>::flatten(
    Delta& d) const {
  std::sort(d.kills.begin(), d.kills.end());
  std::vector<Point> out;
  out.reserve(d.live);
  size_t k = 0;
  for (size_t j = 0; j < view_levels(d); ++j) {
    const Level* L = view_level(d, j);
    if (L == nullptr) continue;
    size_t level_end = k;
    while (level_end < d.kills.size() && d.kills[level_end].first == j) {
      ++level_end;
    }
    append_live(*L, std::span(d.kills).subspan(k, level_end - k), out);
    k = level_end;
  }
  asym::count_write(out.size());
  return out;
}

template <int K>
std::pair<size_t, size_t> LogForest<K>::find_live(
    const Delta& d, const Point& p,
    const std::unordered_set<uint64_t>& killed) const {
  for (size_t j = 0; j < view_levels(d); ++j) {
    const Level* L = view_level(d, j);
    if (L == nullptr) continue;
    // O(log n) descent; erased copies of p do not end it.
    size_t i = L->tree.find_if(p, [&](size_t slot) {
      return L->alive[slot] &&
             (j == d.dst || killed.count(uint64_t{j} << 32 | slot) == 0);
    });
    if (i != SIZE_MAX) return {j, i};
  }
  return {kNoLevel, 0};
}

template <int K>
void LogForest<K>::plan_insert(Delta& d, std::vector<Point> pts,
                               bool fit_batch) const {
  d.live += pts.size();
  // Absorb the occupied prefix (the carry chain) plus, for a batch, any
  // occupied level whose nominal capacity 2^lvl is below the merged size, so
  // the merged tree lands at a level that can hold it.
  size_t lvl = 0;
  while ((lvl < levels_.size() && levels_[lvl].used) ||
         (fit_batch && (size_t{1} << lvl) < pts.size())) {
    if (lvl < levels_.size() && levels_[lvl].used) {
      append_live(levels_[lvl], {}, pts);
      d.dead -= levels_[lvl].dead;
    }
    ++lvl;
  }
  if (lvl >= levels_.size()) d.spine.resize(lvl + 1);
  d.absorbed.resize(lvl);
  d.dst = lvl;
  d.fresh.tree = build(std::move(pts));
  d.fresh.alive.assign(d.fresh.tree.size(), 1);
  d.fresh.used = true;
}

template <int K>
void LogForest<K>::plan_erase(Delta& d, const std::vector<Point>& ers) const {
  std::unordered_set<uint64_t> killed;
  for (const Point& p : ers) {
    auto [j, i] = find_live(d, p, killed);
    if (j == kNoLevel) continue;
    asym::count_write();
    if (j == d.dst) {
      d.fresh.alive[i] = 0;
      ++d.fresh.dead;
    } else {
      d.kills.emplace_back(uint32_t(j), uint32_t(i));
      killed.insert(uint64_t{j} << 32 | i);
    }
    ++d.dead;
    --d.live;
    ++d.erased;
  }
  // Compact once half of all points are dead: the whole forest becomes one
  // level at floor(log2 live).
  if (d.erased == 0 || d.dead * 2 < d.live + d.dead || d.live + d.dead <= 8) {
    return;
  }
  std::vector<Point> pts = flatten(d);
  d.spine.clear();
  d.compacted = true;
  d.live = pts.size();
  d.dead = 0;
  if (pts.empty()) return;
  size_t lvl = 0;
  while ((size_t{1} << (lvl + 1)) <= pts.size()) ++lvl;
  d.spine.resize(lvl + 1);
  Level& dst = d.spine[lvl];
  dst.tree = build(std::move(pts));
  dst.alive.assign(dst.tree.size(), 1);
  dst.used = true;
}

template <int K>
Expected<typename LogForest<K>::Delta> LogForest<K>::prepare(
    const std::vector<Point>& ins, const std::vector<Point>& ers) const {
  Delta d = empty_plan();
  if (!ins.empty()) {
    Status s = check_points<K>(ins, "bulk_insert");
    if (!s.ok()) return s;
    // Allocation fault point: index = the batch's node demand.
    if (fault::should_fail("alloc", ins.size())) {
      return fault::injected("alloc", ins.size());
    }
    asym::count_write(ins.size());
    plan_insert(d, ins, /*fit_batch=*/true);
  }
  Status s = check_points<K>(ers, "bulk_erase");
  if (!s.ok()) return s;
  plan_erase(d, ers);
  return d;
}

template <int K>
size_t LogForest<K>::apply(Delta&& d) noexcept {
  // apply() only swaps levels and flips bytes: it allocates and frees
  // nothing. What it displaces (the absorbed levels, the old spine) stays in
  // `d` and is freed wherever the caller drops the spent plan.
  static_assert(std::is_nothrow_swappable_v<Level> &&
                std::is_nothrow_move_assignable_v<Delta>);
  if (d.compacted) {
    levels_.swap(d.spine);
  } else {
    if (!d.spine.empty()) {
      for (size_t j = 0; j < levels_.size(); ++j) {
        std::swap(d.spine[j], levels_[j]);
      }
      levels_.swap(d.spine);
    }
    if (d.dst != kNoLevel) {
      for (size_t j = 0; j < d.dst; ++j) std::swap(levels_[j], d.absorbed[j]);
      std::swap(levels_[d.dst], d.fresh);
    }
    for (const auto& [j, i] : d.kills) {
      levels_[j].alive[i] = 0;
      ++levels_[j].dead;
    }
  }
  live_ = d.live;
  dead_ = d.dead;
  return d.erased;
}

template <int K>
void LogForest<K>::insert(const Point& p) {
  Delta d = empty_plan();
  asym::count_write();
  plan_insert(d, {p}, /*fit_batch=*/false);
  apply(std::move(d));
}

template <int K>
Status LogForest<K>::bulk_insert(const std::vector<Point>& points) {
  Expected<Delta> d = prepare(points, {});
  if (!d.ok()) return d.status();
  apply(std::move(d).value());
  return Status::Ok();
}

template <int K>
bool LogForest<K>::erase(const Point& p) {
  Delta d = empty_plan();
  plan_erase(d, {p});
  return apply(std::move(d)) != 0;
}

template <int K>
Expected<size_t> LogForest<K>::bulk_erase(const std::vector<Point>& pts) {
  Expected<Delta> d = prepare({}, pts);
  if (!d.ok()) return d.status();
  return apply(std::move(d).value());
}

template <int K>
std::vector<typename LogForest<K>::Point> LogForest<K>::live_points() const {
  Delta d = empty_plan();
  return flatten(d);
}

template <int K>
bool LogForest<K>::validate() const {
  size_t live = 0, dead = 0;
  for (const Level& L : levels_) {
    if (!L.used) {
      if (!L.alive.empty() || L.dead != 0 || L.tree.size() != 0) return false;
      continue;
    }
    if (!L.tree.validate() || L.alive.size() != L.tree.size()) return false;
    size_t zeros = size_t(std::count(L.alive.begin(), L.alive.end(), 0));
    if (zeros != L.dead) return false;
    live += L.tree.size() - L.dead;
    dead += L.dead;
  }
  return live == live_ && dead == dead_;
}

namespace {

// Forest range visitors with the level-covered hook: a dead-free level whose
// subtree box is inside the query hands its slice over wholesale (see
// LogForest::range_visit). The counting hook is O(1); the reporting hooks
// bulk-copy the slice (one read + one write per reported point, no
// containment tests).
template <typename Point>
struct ForestCountVisitor {
  size_t count = 0;
  void operator()(const Point&) { ++count; }
  void covered(const std::vector<Point>&, size_t b, size_t e) {
    count += e - b;
  }
};

template <typename Point>
struct ForestReportAppendVisitor {
  std::vector<Point>* out;
  void operator()(const Point& p) {
    asym::count_write();
    out->push_back(p);
  }
  void covered(const std::vector<Point>& pts, size_t b, size_t e) {
    asym::count_read(e - b);
    asym::count_write(e - b);
    out->insert(out->end(), pts.begin() + static_cast<long>(b),
                pts.begin() + static_cast<long>(e));
  }
};

template <typename Point>
struct ForestReportIntoVisitor {
  Point* out;
  void operator()(const Point& p) {
    asym::count_write();
    *out++ = p;
  }
  void covered(const std::vector<Point>& pts, size_t b, size_t e) {
    asym::count_read(e - b);
    asym::count_write(e - b);
    out = std::copy(pts.begin() + static_cast<long>(b),
                    pts.begin() + static_cast<long>(e), out);
  }
};

}  // namespace

template <int K>
size_t LogForest<K>::range_count(const Box& query,
                                 const QueryOptions& opts) const {
  ForestCountVisitor<Point> vis;
  range_visit(query, vis, opts);
  return vis.count;
}

template <int K>
std::vector<typename LogForest<K>::Point> LogForest<K>::range_report(
    const Box& query, const QueryOptions& opts) const {
  std::vector<Point> out;
  ForestReportAppendVisitor<Point> vis{&out};
  range_visit(query, vis, opts);
  return out;
}

template <int K>
void LogForest<K>::report_into(const Box& query, Point* out,
                               const QueryOptions& opts) const {
  ForestReportIntoVisitor<Point> vis{out};
  range_visit(query, vis, opts);
}

template <int K>
size_t LogForest<K>::num_trees() const {
  size_t c = 0;
  for (const Level& L : levels_) c += L.used ? 1 : 0;
  return c;
}

// ---------------------------------------------------------------------------
// DynamicKdTree (single-tree version)
// ---------------------------------------------------------------------------

template <int K>
double DynamicKdTree<K>::imbalance_tolerance() const {
  if (mode_ == Mode::kAnnOnly) return 0.40;  // constant-factor imbalance
  // O(1/log n) imbalance keeps the height at log2 n + O(1) (Lemma 6.2's
  // regime applied to rebalancing).
  double lg = std::log2(static_cast<double>(std::max<size_t>(live_, 4)));
  return std::min(0.40, 1.0 / lg);
}

template <int K>
uint32_t DynamicKdTree<K>::alloc_node() {
  if (!free_list_.empty()) {
    uint32_t v = free_list_.back();
    free_list_.pop_back();
    pool_[v] = Node{};
    return v;
  }
  pool_.push_back(Node{});
  return static_cast<uint32_t>(pool_.size() - 1);
}

template <int K>
void DynamicKdTree<K>::free_subtree(uint32_t v) {
  if (v == kNullNode) return;
  free_subtree(pool_[v].left);
  free_subtree(pool_[v].right);
  pool_[v] = Node{};
  free_list_.push_back(v);
}

template <int K>
std::vector<typename DynamicKdTree<K>::Point> DynamicKdTree<K>::live_points()
    const {
  std::vector<Point> out;
  out.reserve(live_);
  collect_alive(root_, out);
  asym::count_write(out.size());
  return out;
}

template <int K>
void DynamicKdTree<K>::collect_alive(uint32_t v,
                                     std::vector<Point>& out) const {
  if (v == kNullNode) return;
  const Node& nd = pool_[v];
  asym::count_read();
  if (nd.is_leaf()) {
    asym::count_read(nd.leaf_pts.size());
    for (const auto& [pt, alive] : nd.leaf_pts) {
      if (alive) out.push_back(pt);
    }
    return;
  }
  collect_alive(nd.left, out);
  collect_alive(nd.right, out);
}

template <int K>
uint32_t DynamicKdTree<K>::rebuild_subtree(std::vector<Point>& pts, size_t lo,
                                           size_t hi, int depth) {
  // Pre-claim every slot of the reconstruction (exact: the median-split
  // recursion's node count is a function of the point count alone), so the
  // recursion below never touches pool_'s allocator and sibling subtrees can
  // fork. Slot assignment is deterministic at every worker count.
  std::vector<uint32_t> ids = parallel::claim_build_slots(
      pool_, free_list_, classic_node_count(hi - lo, leaf_size_));
  return rebuild_subtree_ids(pts, lo, hi, depth, ids.data());
}

template <int K>
uint32_t DynamicKdTree<K>::rebuild_subtree_ids(std::vector<Point>& pts,
                                               size_t lo, size_t hi, int depth,
                                               const uint32_t* ids) {
  // Pre-order slice: ids[0] is this node, the left subtree's slice follows,
  // then the right's (offset by the left's size-determined node count).
  uint32_t id = ids[0];
  Node& nd_init = pool_[id];
  nd_init.depth = depth;
  size_t m = hi - lo;
  nd_init.live = nd_init.total = static_cast<uint32_t>(m);
  if (m <= leaf_size_) {
    asym::count_write(m);
    auto& nd = pool_[id];
    nd.leaf_pts.reserve(m);
    // Exact box of the just-written leaf contents (derived bookkeeping over
    // data already charged above, uncounted).
    Box bx = Box::empty();
    for (size_t i = lo; i < hi; ++i) {
      nd.leaf_pts.emplace_back(pts[i], true);
      bx.extend(pts[i]);
    }
    nd.box = bx;
    return id;
  }
  int dim = depth % K;
  size_t mid = lo + m / 2;
  asym::count_read(m);
  asym::count_write(m);
  std::nth_element(
      pts.begin() + static_cast<long>(lo), pts.begin() + static_cast<long>(mid),
      pts.begin() + static_cast<long>(hi),
      [dim](const Point& a, const Point& b) { return a[dim] < b[dim]; });
  pool_[id].dim = dim;
  pool_[id].split = pts[mid][dim];
  const uint32_t* lids = ids + 1;
  const uint32_t* rids = lids + classic_node_count(m / 2, leaf_size_);
  uint32_t l = kNullNode, r = kNullNode;
  parallel::par_do_if(
      m > parallel::kSeqCutoff,
      [&] { l = rebuild_subtree_ids(pts, lo, mid, depth + 1, lids); },
      [&] { r = rebuild_subtree_ids(pts, mid, hi, depth + 1, rids); });
  pool_[id].left = l;
  pool_[id].right = r;
  // Exact box: union of the freshly built children's (uncounted
  // bookkeeping, like the slice boxes of the static builders).
  Box bx = pool_[l].box;
  bx.extend(pool_[r].box);
  pool_[id].box = bx;
  return id;
}

template <int K>
void DynamicKdTree<K>::maybe_rebalance(const std::vector<uint32_t>& path) {
  // Find the highest node on the path whose children's live weights differ
  // beyond the tolerance (or with too many dead points), and reconstruct it.
  for (uint32_t v : path) {
    const Node& nd = pool_[v];
    if (nd.is_leaf()) break;
    if (interior_violated(nd)) {
      ++rebuilds_;
      std::vector<Point> pts;
      pts.reserve(nd.live);
      collect_alive(v, pts);
      int depth = nd.depth;
      // Find parent link.
      uint32_t parent = kNullNode;
      int side = -1;
      for (uint32_t u : path) {
        if (u == v) break;
        parent = u;
      }
      if (parent != kNullNode) {
        side = (pool_[parent].left == v) ? 0 : 1;
      }
      free_subtree(v);
      uint32_t fresh =
          pts.empty()
              ? alloc_node()  // empty leaf placeholder
              : rebuild_subtree(pts, 0, pts.size(), depth);
      if (pts.empty()) pool_[fresh].depth = depth;
      if (parent == kNullNode) {
        root_ = fresh;
      } else if (side == 0) {
        pool_[parent].left = fresh;
      } else {
        pool_[parent].right = fresh;
      }
      return;  // only the topmost violated node is reconstructed
    }
  }
}

template <int K>
void DynamicKdTree<K>::insert(const Point& p) {
  ++live_;
  if (root_ == kNullNode) {
    root_ = alloc_node();
    pool_[root_].leaf_pts.emplace_back(p, true);
    pool_[root_].live = pool_[root_].total = 1;
    pool_[root_].box.extend(p);
    asym::count_write();
    return;
  }
  std::vector<uint32_t> path;
  uint32_t cur = root_;
  while (true) {
    path.push_back(cur);
    Node& nd = pool_[cur];
    asym::count_read();
    asym::count_write();  // subtree weight update (box rides the same write)
    ++nd.live;
    ++nd.total;
    nd.box.extend(p);
    if (nd.is_leaf()) break;
    cur = p[nd.dim] < nd.split ? nd.left : nd.right;
  }
  Node& leaf = pool_[cur];
  asym::count_write();
  leaf.leaf_pts.emplace_back(p, true);
  if (leaf.leaf_pts.size() > leaf_size_) {
    // Split the leaf by the median of its (live and dead) points.
    std::vector<std::pair<Point, bool>> pts;
    pts.swap(leaf.leaf_pts);
    int dim = leaf.depth % K;
    size_t mid = pts.size() / 2;
    asym::count_read(pts.size());
    asym::count_write(pts.size());
    std::nth_element(pts.begin(), pts.begin() + static_cast<long>(mid),
                     pts.end(), [dim](const auto& a, const auto& b) {
                       return a.first[dim] < b.first[dim];
                     });
    uint32_t l = alloc_node();
    uint32_t r = alloc_node();
    Node& nd = pool_[cur];  // re-fetch (alloc_node may reallocate the pool)
    nd.dim = dim;
    nd.split = pts[mid].first[dim];
    nd.left = l;
    nd.right = r;
    pool_[l].depth = nd.depth + 1;
    pool_[r].depth = nd.depth + 1;
    auto fill = [&](uint32_t child, size_t lo, size_t hi) {
      Node& c = pool_[child];
      c.leaf_pts.assign(pts.begin() + static_cast<long>(lo),
                        pts.begin() + static_cast<long>(hi));
      c.total = static_cast<uint32_t>(hi - lo);
      c.live = 0;
      Box bx = Box::empty();
      for (size_t i = lo; i < hi; ++i) {
        c.live += pts[i].second ? 1 : 0;
        bx.extend(pts[i].first);  // dead points included: conservative
      }
      c.box = bx;
    };
    fill(l, 0, mid);
    fill(r, mid, pts.size());
  }
  maybe_rebalance(path);
}

template <int K>
bool DynamicKdTree<K>::erase_mark(const Point& p,
                                  std::vector<uint32_t>* path_out) {
  if (root_ == kNullNode) return false;
  // Recursive locate that explores both sides when p lies exactly on a
  // splitting hyperplane (partitioning does not fix the side of ties).
  std::vector<uint32_t> path;
  auto rec = [&](auto&& self, uint32_t v) -> bool {
    path.push_back(v);
    Node& nd = pool_[v];
    asym::count_read();
    if (nd.is_leaf()) {
      for (auto& [pt, alive] : nd.leaf_pts) {
        asym::count_read();
        if (alive && pt == p) {
          asym::count_write();
          alive = false;
          return true;
        }
      }
      path.pop_back();
      return false;
    }
    bool found;
    if (p[nd.dim] < nd.split) {
      found = self(self, nd.left);
    } else if (p[nd.dim] > nd.split) {
      found = self(self, nd.right);
    } else {
      found = self(self, nd.left);
      if (!found) found = self(self, nd.right);
    }
    if (!found) path.pop_back();
    return found;
  };
  if (!rec(rec, root_)) return false;
  --live_;
  ++dead_;
  for (uint32_t v : path) {
    asym::count_write();
    --pool_[v].live;
  }
  if (path_out != nullptr) *path_out = std::move(path);
  return true;
}

template <int K>
bool DynamicKdTree<K>::erase(const Point& p) {
  std::vector<uint32_t> path;
  if (!erase_mark(p, &path)) return false;
  maybe_rebalance(path);
  return true;
}

template <int K>
Status DynamicKdTree<K>::bulk_insert(const std::vector<Point>& pts) {
  if (pts.empty()) return Status::Ok();
  Status s = check_points<K>(pts, "bulk_insert");
  if (!s.ok()) return s;
  // Allocation fault point: index = the batch's node demand.
  if (fault::should_fail("alloc", pts.size())) {
    return fault::injected("alloc", pts.size());
  }
  asym::count_read(pts.size());
  if (root_ == kNullNode) {
    live_ += pts.size();
    std::vector<Point> copy = pts;
    root_ = rebuild_subtree(copy, 0, copy.size(), 0);
    return Status::Ok();
  }
  live_ += pts.size();
  // Route every point to its leaf buffer, maintaining the live/total weights
  // along the path exactly as insert() does — but with no per-element leaf
  // split or rebalance; the single restructuring pass below repairs every
  // violated subtree through the shared pre-claim slot path. Routing cannot
  // allocate, so pool ids are stable and the touched flags index the pool.
  std::vector<uint8_t> touched(pool_.size(), 0);
  for (const Point& p : pts) {
    uint32_t cur = root_;
    while (true) {
      Node& nd = pool_[cur];
      touched[cur] = 1;
      asym::count_read();
      asym::count_write();  // subtree weight update (box rides the same write)
      ++nd.live;
      ++nd.total;
      nd.box.extend(p);
      if (nd.is_leaf()) break;
      cur = p[nd.dim] < nd.split ? nd.left : nd.right;
    }
    asym::count_write();
    pool_[cur].leaf_pts.emplace_back(p, true);
  }
  root_ = restructure_rec(root_, touched);
  return Status::Ok();
}

template <int K>
Expected<size_t> DynamicKdTree<K>::bulk_erase(const std::vector<Point>& pts) {
  Status s = check_points<K>(pts, "bulk_erase");
  if (!s.ok()) return s;
  if (root_ == kNullNode) return size_t{0};
  std::vector<uint8_t> touched(pool_.size(), 0);
  size_t erased = 0;
  std::vector<uint32_t> path;
  for (const Point& p : pts) {
    path.clear();
    if (!erase_mark(p, &path)) continue;
    ++erased;
    for (uint32_t v : path) touched[v] = 1;
  }
  if (erased > 0) root_ = restructure_rec(root_, touched);
  return erased;
}

template <int K>
bool DynamicKdTree<K>::interior_violated(const Node& nd) const {
  uint32_t l = pool_[nd.left].live, r = pool_[nd.right].live;
  uint32_t total_live = l + r;
  double tol = imbalance_tolerance();
  bool unbalanced =
      total_live > 2 * leaf_size_ &&
      (std::max(l, r) >
       static_cast<uint32_t>((0.5 + tol) * static_cast<double>(total_live)));
  bool too_dead = nd.total > 2 * nd.live && nd.total > 2 * leaf_size_;
  return unbalanced || too_dead;
}

template <int K>
uint32_t DynamicKdTree<K>::restructure_rec(
    uint32_t v, const std::vector<uint8_t>& touched) {
  // Untouched subtree: no weight changed below it, so no check can newly
  // fire — leave it (and its exact weights) alone.
  if (!touched[v]) return v;
  asym::count_read();
  bool violated;
  int depth = pool_[v].depth;
  if (pool_[v].is_leaf()) {
    violated = pool_[v].leaf_pts.size() > leaf_size_;
  } else {
    violated = interior_violated(pool_[v]);
  }
  if (violated) {
    std::vector<Point> pts;
    pts.reserve(pool_[v].live);
    collect_alive(v, pts);
    free_subtree(v);
    ++rebuilds_;
    if (pts.empty()) {
      uint32_t fresh = alloc_node();  // empty leaf placeholder
      pool_[fresh].depth = depth;
      return fresh;
    }
    return rebuild_subtree(pts, 0, pts.size(), depth);
  }
  if (!pool_[v].is_leaf()) {
    uint32_t l = pool_[v].left, r = pool_[v].right;
    uint32_t nl = restructure_rec(l, touched);
    uint32_t nr = restructure_rec(r, touched);
    // Re-fetch through pool_ (the child rebuilds may reallocate it) and
    // refresh the weights from the children: a descendant rebuild drops its
    // dead points, and keeping ancestor totals exact stops the too_dead
    // check from re-firing forever on stale counts.
    Node& nd = pool_[v];
    nd.left = nl;
    nd.right = nr;
    asym::count_write();
    nd.live = pool_[nl].live + pool_[nr].live;
    nd.total = pool_[nl].total + pool_[nr].total;
    // Box refresh rides the same weight write: rebuilt children carry exact
    // boxes, so the union tightens ancestors instead of growing forever.
    Box bx = pool_[nl].box;
    bx.extend(pool_[nr].box);
    nd.box = bx;
  }
  return v;
}

template <int K>
template <typename V>
void DynamicKdTree<K>::range_visit(const Box& query, V&& vis,
                                   const QueryOptions& opts) const {
  if (root_ == kNullNode) return;
  auto rec = [&](auto&& self, uint32_t v) -> void {
    const Node& nd = pool_[v];
    if (opts.stats) ++opts.stats->nodes_visited;
    asym::count_read();
    if constexpr (requires { vis.covered(size_t{}); }) {
      // The node box bounds every live point of the subtree, so full
      // coverage answers the subtree with its live weight in O(1) —
      // counting only (a reporting slice copy would resurrect dead points).
      if (opts.count_fast_path && nd.box.inside(query)) {
        if (opts.stats) ++opts.stats->covered_subtrees;
        vis.covered(static_cast<size_t>(nd.live));
        return;
      }
    }
    if (nd.is_leaf()) {
      for (const auto& [pt, alive] : nd.leaf_pts) {
        asym::count_read();
        if (opts.stats) ++opts.stats->points_scanned;
        if (alive && query.contains(pt)) vis(pt);
      }
      return;
    }
    if (query.lo[nd.dim] <= nd.split) self(self, nd.left);
    if (query.hi[nd.dim] >= nd.split) self(self, nd.right);
  };
  rec(rec, root_);
}

namespace {

// Counting visitor for DynamicKdTree::range_visit: covered subtrees
// contribute their live weight without a descent.
template <typename Point>
struct DynCountVisitor {
  size_t count = 0;
  void operator()(const Point&) { ++count; }
  void covered(size_t live) { count += live; }
};

}  // namespace

template <int K>
size_t DynamicKdTree<K>::range_count(const Box& query,
                                     const QueryOptions& opts) const {
  DynCountVisitor<Point> vis;
  range_visit(query, vis, opts);
  return vis.count;
}

template <int K>
std::vector<typename DynamicKdTree<K>::Point> DynamicKdTree<K>::range_report(
    const Box& query, const QueryOptions& opts) const {
  std::vector<Point> out;
  range_visit(
      query,
      [&](const Point& pt) {
        asym::count_write();
        out.push_back(pt);
      },
      opts);
  return out;
}

template <int K>
void DynamicKdTree<K>::report_into(const Box& query, Point* out,
                                   const QueryOptions& opts) const {
  range_visit(
      query,
      [&](const Point& pt) {
        asym::count_write();
        *out++ = pt;
      },
      opts);
}

template <int K>
size_t DynamicKdTree<K>::height() const {
  if (root_ == kNullNode) return 0;
  auto rec = [&](auto&& self, uint32_t v) -> size_t {
    const Node& nd = pool_[v];
    if (nd.is_leaf()) return 1;
    return 1 + std::max(self(self, nd.left), self(self, nd.right));
  };
  return rec(rec, root_);
}

template <int K>
bool DynamicKdTree<K>::validate() const {
  if (root_ == kNullNode) return live_ == 0;
  bool ok = true;
  size_t live_seen = 0;
  auto rec = [&](auto&& self, uint32_t v, Box region) -> uint32_t {
    const Node& nd = pool_[v];
    if (nd.is_leaf()) {
      uint32_t live = 0;
      for (const auto& [pt, alive] : nd.leaf_pts) {
        if (!region.contains(pt)) ok = false;
        if (alive) {
          // The covered fast path relies on the (conservative) node box
          // containing every live point of the subtree.
          if (!nd.box.contains(pt)) ok = false;
          ++live;
          ++live_seen;
        }
      }
      if (live != nd.live) ok = false;
      return live;
    }
    if (!pool_[nd.left].box.inside(nd.box) ||
        !pool_[nd.right].box.inside(nd.box))
      ok = false;
    Box lr = region, rr = region;
    lr.hi[nd.dim] = nd.split;
    rr.lo[nd.dim] = nd.split;
    uint32_t l = self(self, nd.left, lr);
    uint32_t r = self(self, nd.right, rr);
    if (l + r != nd.live) ok = false;
    return l + r;
  };
  rec(rec, root_, Box::whole());
  return ok && live_seen == live_;
}

template class LogForest<2>;
template class LogForest<3>;
template class DynamicKdTree<2>;
template class DynamicKdTree<3>;

}  // namespace weg::kdtree
