// Shared deterministic input generators for the test suites. Every helper
// takes an explicit seed — tests must never seed from the wall clock, so the
// same binary always sees the same inputs.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/priority_tree.h"
#include "src/delaunay/mesh.h"
#include "src/geom/point.h"
#include "src/primitives/random.h"

namespace weg::testing {

// Uniform uint64 keys; range == 0 draws from the full 64-bit width.
inline std::vector<uint64_t> random_vec(size_t n, uint64_t seed,
                                        uint64_t range = 0) {
  primitives::Rng rng(seed);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = range ? rng.next() % range : rng.next();
  return v;
}

// Uniform points in [0,1)^K.
template <int K = 2>
std::vector<geom::PointK<K>> random_points(size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<geom::PointK<K>> pts(n);
  for (auto& p : pts) {
    for (int d = 0; d < K; ++d) p[d] = rng.next_double();
  }
  return pts;
}

// Short random intervals: left end uniform in [0,1), length uniform in
// [0, 0.05), ids id0, id0+1, ...
inline std::vector<augtree::Interval> fixed_intervals(size_t n, uint64_t seed,
                                                      uint32_t id0 = 0) {
  primitives::Rng rng(seed);
  std::vector<augtree::Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.next_double();
    ivs[i] = augtree::Interval{a, a + rng.next_double() * 0.05,
                               id0 + uint32_t(i)};
  }
  return ivs;
}

// Uniform stabbing probes in [0,1).
inline std::vector<double> stab_points(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<double> qs(q);
  for (double& x : qs) x = rng.next_double();
  return qs;
}

// Priority-search/range-tree points with ids 0..n-1. grid_cells > 0 snaps
// both coordinates to a grid_cells x grid_cells lattice (many duplicate
// coordinates, the degenerate case the augmented trees must survive).
inline std::vector<augtree::PPoint> random_ppoints(size_t n, uint64_t seed,
                                                   uint32_t grid_cells = 0) {
  primitives::Rng rng(seed);
  std::vector<augtree::PPoint> pts(n);
  for (size_t i = 0; i < n; ++i) {
    if (grid_cells > 0) {
      pts[i] =
          augtree::PPoint{double(rng.next_bounded(grid_cells)) / grid_cells,
                          double(rng.next_bounded(grid_cells)) / grid_cells,
                          uint32_t(i)};
    } else {
      pts[i] =
          augtree::PPoint{rng.next_double(), rng.next_double(), uint32_t(i)};
    }
  }
  return pts;
}

// FNV-1a fingerprint of a mesh's canonical alive-triangle set: each triple
// rotated smallest vertex first (orientation kept), the triples sorted, then
// every vertex id hashed byte by byte. Under symbolic perturbation the
// Delaunay triangulation is unique, so the fingerprint pins the output
// independently of the history, the schedule and the insertion rounds.
inline uint64_t alive_triangle_fingerprint(const delaunay::Mesh& mesh) {
  std::vector<std::array<uint32_t, 3>> tris;
  for (uint32_t t : mesh.alive_triangles()) {
    const auto& v = mesh.tri(t).v;
    size_t k = size_t(std::min_element(v, v + 3) - v);
    tris.push_back({v[k], v[(k + 1) % 3], v[(k + 2) % 3]});
  }
  std::sort(tris.begin(), tris.end());
  uint64_t h = 1469598103934665603ULL;
  for (const auto& tri : tris) {
    for (uint32_t w : tri) {
      for (int b = 0; b < 4; ++b) {
        h = (h ^ ((w >> (8 * b)) & 0xFF)) * 1099511628211ULL;
      }
    }
  }
  return h;
}

}  // namespace weg::testing
