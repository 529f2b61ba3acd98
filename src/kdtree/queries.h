// The query surface the k-d family (KdTree, LogForest, DynamicKdTree)
// shares: the options bag, the one canonical nearest-neighbour order with
// its ANN and k-NN visitors, and the batched entry points, written once over
// each structure's own traversals.
//
// Every structure exposes one nearest-neighbour traversal,
// nn_visit(q, vis, opts), that calls
//   vis.bound()       — the current squared-distance pruning radius,
//   vis.offer(p, d2)  — consider (live) point p at squared distance d2,
// pruning strictly (`>`) against bound(), so distance-tied candidates still
// reach offer() and the canonical order decides. NearestOne and NearestK
// are the only two visitors; p must stay addressable for the query's
// lifetime (it is a reference into the structure's own storage).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "src/asym/counters.h"
#include "src/geom/box.h"
#include "src/geom/point.h"
#include "src/parallel/batch_query.h"

namespace weg::kdtree {

struct QueryStats {
  size_t nodes_visited = 0;
  size_t points_scanned = 0;
  // Subtrees answered by the covered fast path (query box ⊇ node box): the
  // whole subtree contributed without visiting its nodes.
  size_t covered_subtrees = 0;
};

// The one options bag threaded through every query entry point (serial and
// batch) of the k-d family; its `stats` member collects QueryStats.
struct QueryOptions {
  QueryStats* stats = nullptr;
  // Kill-switch for the covered-subtree fast path (A/B benching: off
  // reproduces the plain leaf-scan traversal and its asym charges). Results
  // are identical either way.
  bool count_fast_path = true;
};

// The canonical candidate order of every nearest-neighbour answer:
// (squared distance, coordinates lexicographic). Distance ties between
// distinct points are resolved by the points themselves, not by traversal
// order, so the kept candidates are a function of the point set alone
// (bitwise-identical points are interchangeable). The sharded layer's top-k
// and top-1 merges use the same order, so merged answers are
// fanout-independent.
template <typename Point>
bool nearer(double da, const Point& a, double db, const Point& b) {
  return da < db || (da == db && a.coords < b.coords);
}

// A query or record with a NaN/inf coordinate breaks every comparison the
// traversals rely on: bulk mutation paths reject such records before the
// first write, and nearest-neighbour queries answer empty / nullopt.
template <int K>
bool finite_point(const geom::PointK<K>& p) {
  for (int d = 0; d < K; ++d) {
    if (!std::isfinite(p[d])) return false;
  }
  return true;
}

// (1+eps)-approximate nearest neighbour: prunes at best / (1+eps)^2, so the
// answer is within (1+eps) of the true distance; eps = 0 is exact.
template <typename Point>
class NearestOne {
 public:
  explicit NearestOne(double eps)
      : prune_(1.0 / ((1.0 + eps) * (1.0 + eps))) {}
  double bound() const { return best_sq_ * prune_; }
  void offer(const Point& p, double d2) {
    if (best_ == nullptr ? d2 < best_sq_ : nearer(d2, p, best_sq_, *best_)) {
      best_sq_ = d2;
      best_ = &p;
    }
  }
  const Point* best() const { return best_; }

 private:
  double prune_;
  double best_sq_ = std::numeric_limits<double>::infinity();
  const Point* best_ = nullptr;
};

// Exact k nearest neighbours: a max-heap of the k best under the canonical
// order; the bound is the k-th candidate's distance once k are held. The
// heap runs std::push_heap / std::pop_heap over its slots, as
// std::priority_queue does, so which of several identical points it keeps
// and the order it drains them in are the same; for k <= kInline the slots
// live in the object itself, so a query allocates nothing.
template <typename Point>
class NearestK {
 public:
  static constexpr size_t kInline = 16;

  explicit NearestK(size_t k = 0) { reset(k); }
  NearestK(const NearestK&) = delete;
  NearestK& operator=(const NearestK&) = delete;

  // Empties the candidate set and sets k.
  void reset(size_t k) {
    k_ = k;
    size_ = 0;
    if (k_ > kInline) spill_.resize(k_ + 1);
  }

  double bound() const {
    return size_ < k_ ? std::numeric_limits<double>::infinity()
                      : slots()[0].d2;
  }
  void offer(const Point& p, double d2) {
    Entry e{d2, &p};
    Entry* h = slots();
    if (size_ < k_) {
      h[size_++] = e;
      std::push_heap(h, h + size_, Order{});
    } else if (size_ > 0 && Order{}(e, h[0])) {
      h[size_++] = e;  // the transient (k+1)-th slot
      std::push_heap(h, h + size_, Order{});
      std::pop_heap(h, h + size_, Order{});
      --size_;
    }
  }
  size_t size() const { return size_; }
  // Drains the heap, calling emit(i, p) for the candidates in ascending
  // canonical order (i = 0 is the nearest).
  template <typename Emit>
  void drain_sorted(Emit&& emit) {
    Entry* h = slots();
    for (size_t i = size_; i-- > 0;) {
      emit(i, *h[0].p);
      std::pop_heap(h, h + size_, Order{});
      --size_;
    }
  }
  std::vector<const Point*> take_sorted() {
    std::vector<const Point*> out(size_);
    drain_sorted([&](size_t i, const Point& p) { out[i] = &p; });
    return out;
  }

 private:
  struct Entry {
    double d2;
    const Point* p;
  };
  struct Order {
    bool operator()(const Entry& a, const Entry& b) const {
      return nearer(a.d2, *a.p, b.d2, *b.p);
    }
  };
  Entry* slots() { return k_ > kInline ? spill_.data() : inline_; }
  const Entry* slots() const { return k_ > kInline ? spill_.data() : inline_; }

  size_t k_ = 0;
  size_t size_ = 0;
  Entry inline_[kInline + 1];  // + 1: the transient slot of offer()
  std::vector<Entry> spill_;
};

namespace detail {

// Deterministic stats aggregation for batch entry points: each query writes
// a private QueryStats slot during the parallel batch, and the slots sum
// serially afterwards — the totals are a function of the batch alone, not
// of the work-stealing schedule. When no sink is set, at() hands out
// stat-free options and the scope is free.
class BatchStatsScope {
 public:
  BatchStatsScope(size_t nq, const QueryOptions& opts) : opts_(opts) {
    if (opts_.stats != nullptr) per_.resize(nq);
  }
  BatchStatsScope(const BatchStatsScope&) = delete;
  BatchStatsScope& operator=(const BatchStatsScope&) = delete;
  QueryOptions at(size_t i) {
    QueryOptions o = opts_;
    o.stats = per_.empty() ? nullptr : &per_[i];
    return o;
  }
  ~BatchStatsScope() {
    if (opts_.stats == nullptr) return;
    for (const QueryStats& s : per_) {
      opts_.stats->nodes_visited += s.nodes_visited;
      opts_.stats->points_scanned += s.points_scanned;
      opts_.stats->covered_subtrees += s.covered_subtrees;
    }
  }

 private:
  const QueryOptions opts_;
  std::vector<QueryStats> per_;
};

}  // namespace detail

// The batched entry points and the nearest-neighbour answers of one k-d
// structure, written once (CRTP). Derived provides
//   size()                       — the live point count,
//   range_count(box, opts)       — the counting range traversal,
//   report_into(box, out, opts)  — the reporting range traversal, writing
//                                  range_count(box) points at out,
//   nn_visit(q, vis, opts)       — the nearest-neighbour traversal,
// and optionally
//   kNnLanes, nn_lanes<kNnLanes>(qs, vis, m, opts)
//                                — the same traversal for m <= kNnLanes
//                                  queries walked together (KdTree), which
//                                  knn_batch then runs in blocks.
//
// Unified batch contract (see docs/ARCHITECTURE.md "Count augmentation &
// pruning"): every batch runs on the shared two-phase engine and returns,
// per query, exactly what the serial query returns:
//   range_count_batch  -> std::vector<size_t>
//   range_report_batch -> parallel::BatchResult<Point>
//   knn_batch          -> parallel::BatchResult<Point>
//   ann_batch          -> std::vector<std::optional<Point>>
template <typename Derived, int K>
class KdQueries {
 public:
  using Point = geom::PointK<K>;
  using Box = geom::BoxK<K>;

  std::vector<size_t> range_count_batch(const std::vector<Box>& qs,
                                        const QueryOptions& opts = {}) const {
    detail::BatchStatsScope bs(qs.size(), opts);
    return parallel::batch_map<size_t>(qs.size(), [&](size_t i) {
      return self().range_count(qs[i], bs.at(i));
    });
  }

  parallel::BatchResult<Point> range_report_batch(
      const std::vector<Box>& qs, const QueryOptions& opts = {}) const {
    detail::BatchStatsScope bs(qs.size(), opts);
    // Stats from the count pass are not double-counted: only the report
    // pass feeds the per-query slots.
    QueryOptions count_opts = opts;
    count_opts.stats = nullptr;
    return parallel::batch_two_phase<Point>(
        qs.size(),
        [&](size_t i) { return self().range_count(qs[i], count_opts); },
        [&](size_t i, Point* out) {
          self().report_into(qs[i], out, bs.at(i));
        });
  }

  // Flat k-NN over all queries: query i's neighbours, in canonical order,
  // occupy slice i. A finite query yields exactly min(k, size()) points and
  // a non-finite one none, so the count pass reads nothing.
  parallel::BatchResult<Point> knn_batch(const std::vector<Point>& qs,
                                         size_t k,
                                         const QueryOptions& opts = {}) const {
    size_t per = std::min(k, self().size());
    detail::BatchStatsScope bs(qs.size(), opts);
    auto count = [&](size_t i) {
      return finite_point<K>(qs[i]) ? per : size_t{0};
    };
    // Blocks of L queries: the ones with an answer search together (KdTree
    // walks them in lanes; the other structures search one at a time), and
    // each drains its candidates straight into its slice.
    constexpr size_t L = lanes();
    return parallel::batch_two_phase_blocks<Point, L>(
        qs.size(),
        [&](size_t lo, size_t hi, size_t* sizes) {
          for (size_t i = lo; i < hi; ++i) sizes[i] = count(i);
        },
        [&](size_t lo, size_t hi, Point* items, const size_t* offsets) {
          NearestK<Point> vis[L];
          Point lane_q[L];
          QueryOptions lane_opts[L];
          Point* out[L] = {};
          size_t m = 0;
          for (size_t i = lo; i < hi; ++i) {
            if (count(i) == 0) continue;
            vis[m].reset(per);
            lane_q[m] = qs[i];
            lane_opts[m] = bs.at(i);
            out[m++] = items + offsets[i];
          }
          if constexpr (L > 1) {
            self().template nn_lanes<L>(lane_q, vis, m, lane_opts);
          } else if (m == 1) {
            self().nn_visit(lane_q[0], vis[0], lane_opts[0]);
          }
          uint64_t written = 0;
          for (size_t j = 0; j < m; ++j) {
            written += vis[j].size();
            vis[j].drain_sorted(
                [&](size_t r, const Point& p) { out[j][r] = p; });
          }
          asym::count_write(written);
        });
  }

  std::vector<std::optional<Point>> ann_batch(
      const std::vector<Point>& qs, double eps = 0.0,
      const QueryOptions& opts = {}) const {
    detail::BatchStatsScope bs(qs.size(), opts);
    return parallel::batch_map<std::optional<Point>>(
        qs.size(), [&](size_t i) { return ann_point(qs[i], eps, bs.at(i)); });
  }

 protected:
  // knn_batch's block width: Derived::kNnLanes when it walks that many
  // nearest-neighbour searches together (nn_lanes), else 1.
  static constexpr size_t lanes() {
    if constexpr (requires { Derived::kNnLanes; }) {
      return Derived::kNnLanes;
    } else {
      return 1;
    }
  }
  // The (1+eps)-ANN; nullptr when the structure is empty or q is not
  // finite.
  const Point* nearest(const Point& q, double eps,
                       const QueryOptions& opts) const {
    if (self().size() == 0 || !finite_point<K>(q)) return nullptr;
    NearestOne<Point> vis(eps);
    self().nn_visit(q, vis, opts);
    return vis.best();
  }
  // The min(k, size()) nearest in canonical order; none when q is not
  // finite.
  std::vector<const Point*> k_nearest(const Point& q, size_t k,
                                      const QueryOptions& opts) const {
    size_t want = std::min(k, self().size());
    if (want == 0 || !finite_point<K>(q)) return {};
    NearestK<Point> vis(want);
    self().nn_visit(q, vis, opts);
    return vis.take_sorted();
  }
  // Point-returning forms for the dynamic structures; knn charges one
  // output write per neighbour.
  std::optional<Point> ann_point(const Point& q, double eps,
                                 const QueryOptions& opts) const {
    const Point* p = nearest(q, eps, opts);
    if (p == nullptr) return std::nullopt;
    return *p;
  }
  std::vector<Point> knn_points(const Point& q, size_t k,
                                const QueryOptions& opts) const {
    std::vector<const Point*> nn = k_nearest(q, k, opts);
    asym::count_write(nn.size());
    std::vector<Point> out;
    out.reserve(nn.size());
    for (const Point* p : nn) out.push_back(*p);
    return out;
  }

 private:
  const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace weg::kdtree
