// Axis-aligned boxes over k-dimensional double points.
#pragma once

#include <algorithm>
#include <limits>

#include "src/geom/point.h"

namespace weg::geom {

template <int K>
struct BoxK {
  PointK<K> lo;
  PointK<K> hi;

  static BoxK empty() {
    BoxK b;
    for (int d = 0; d < K; ++d) {
      b.lo[d] = std::numeric_limits<double>::infinity();
      b.hi[d] = -std::numeric_limits<double>::infinity();
    }
    return b;
  }

  // All of space: the root region of the k-d traversals.
  static BoxK whole() {
    BoxK b;
    for (int d = 0; d < K; ++d) {
      b.lo[d] = -std::numeric_limits<double>::infinity();
      b.hi[d] = std::numeric_limits<double>::infinity();
    }
    return b;
  }

  void extend(const PointK<K>& p) {
    for (int d = 0; d < K; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }

  void extend(const BoxK& o) {
    for (int d = 0; d < K; ++d) {
      lo[d] = std::min(lo[d], o.lo[d]);
      hi[d] = std::max(hi[d], o.hi[d]);
    }
  }

  bool contains(const PointK<K>& p) const {
    for (int d = 0; d < K; ++d) {
      if (p[d] < lo[d] || p[d] > hi[d]) return false;
    }
    return true;
  }

  bool intersects(const BoxK& o) const {
    for (int d = 0; d < K; ++d) {
      if (o.hi[d] < lo[d] || o.lo[d] > hi[d]) return false;
    }
    return true;
  }

  // True iff this box is fully inside `o`. Positive formulation so NaN
  // bounds in `o` never satisfy containment — the covered-subtree fast
  // paths must agree with the (NaN-rejecting) split-plane traversal.
  bool inside(const BoxK& o) const {
    for (int d = 0; d < K; ++d) {
      if (!(o.lo[d] <= lo[d] && hi[d] <= o.hi[d])) return false;
    }
    return true;
  }

  // Squared distance from p to the box (0 if inside).
  double squared_distance(const PointK<K>& p) const {
    double s = 0;
    for (int d = 0; d < K; ++d) {
      double diff = std::max({lo[d] - p[d], 0.0, p[d] - hi[d]});
      s += diff * diff;
    }
    return s;
  }

  double extent(int d) const { return hi[d] - lo[d]; }

  int longest_dimension() const {
    int best = 0;
    for (int d = 1; d < K; ++d) {
      if (extent(d) > extent(best)) best = d;
    }
    return best;
  }
};

using Box2 = BoxK<2>;

}  // namespace weg::geom
