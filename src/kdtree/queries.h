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
#include <queue>
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
// order; the bound is the k-th candidate's distance once k are held.
template <typename Point>
class NearestK {
 public:
  explicit NearestK(size_t k) : k_(k) {}
  double bound() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.top().first;
  }
  void offer(const Point& p, double d2) {
    Entry e{d2, &p};
    if (heap_.size() < k_) {
      heap_.push(e);
    } else if (Order{}(e, heap_.top())) {
      heap_.push(e);
      heap_.pop();
    }
  }
  // Drains the heap into the candidates sorted ascending in canonical order.
  std::vector<const Point*> take_sorted() {
    std::vector<const Point*> out(heap_.size());
    for (size_t i = out.size(); i-- > 0;) {
      out[i] = heap_.top().second;
      heap_.pop();
    }
    return out;
  }

 private:
  using Entry = std::pair<double, const Point*>;
  struct Order {
    bool operator()(const Entry& a, const Entry& b) const {
      return nearer(a.first, *a.second, b.first, *b.second);
    }
  };
  size_t k_;
  std::priority_queue<Entry, std::vector<Entry>, Order> heap_;
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
//   nn_visit(q, vis, opts)       — the nearest-neighbour traversal.
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
    return parallel::batch_two_phase<Point>(
        qs.size(),
        [&](size_t i) { return finite_point<K>(qs[i]) ? per : size_t{0}; },
        [&](size_t i, Point* out) {
          std::vector<const Point*> nn = k_nearest(qs[i], k, bs.at(i));
          asym::count_write(nn.size());
          for (const Point* p : nn) *out++ = *p;
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
