// Triangle mesh substrate for the Delaunay algorithms (Section 5).
//
// Triangles are records in a pre-sized pool (each cavity's fan takes one
// contiguous block from an atomic counter). Each triangle stores its three
// vertices (CCW), the three neighbors across its edges, an aliveness flag, a
// reservation word for the deterministic-reservation parallel rounds, and
// its *history children*: when a cavity is retriangulated, every dead cavity
// triangle records all new triangles of that cavity as children — the fan's
// block, so the record is one (first, count) range. This yields
// the tracing structure of Section 5 / Figure 1 (a superset of its edges):
//   * traceable property: p encroaches a new triangle (u,w,v) only if it
//     encroached one of the two old triangles sharing (u,w) — the classical
//     disk lemma;
//   * descent property: if p encroaches a dead triangle it encroaches some
//     new triangle of the cavity that killed it (walk the segment towards p
//     through the cavity and apply the disk lemma at the crossed boundary
//     edge), so a root-to-leaf search by encroachment always succeeds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/asym/counters.h"
#include "src/geom/predicates.h"

namespace weg::delaunay {

inline constexpr uint32_t kNoTri = UINT32_MAX;

struct Triangle {
  uint32_t v[3] = {0, 0, 0};        // CCW vertex ids
  // nbr[i] across edge (v[i], v[i+1])
  uint32_t nbr[3] = {kNoTri, kNoTri, kNoTri};
  std::atomic<uint32_t> reserve{UINT32_MAX};   // priority-write reservation
  std::atomic<bool> alive{false};
  // History successors, set at death: the fan of the cavity that killed
  // this triangle, triangles [child_lo, child_lo + child_n) in boundary
  // order. child_n == 0 while alive.
  uint32_t child_lo = kNoTri;
  uint32_t child_n = 0;

  Triangle() = default;
};

class Mesh {
 public:
  // `capacity` bounds the total number of triangles ever created; running
  // past it aborts with a message in every build type.
  Mesh(std::vector<geom::GridPoint> vertices, size_t capacity);

  const std::vector<geom::GridPoint>& vertices() const { return verts_; }
  size_t num_created() const { return next_.load(std::memory_order_relaxed); }
  uint32_t root() const { return root_; }

  Triangle& tri(uint32_t t) { return pool_.get()[t]; }
  const Triangle& tri(uint32_t t) const { return pool_.get()[t]; }

  // True iff vertex p encroaches triangle t (p strictly inside t's
  // circumcircle under symbolic perturbation). Charges one read.
  bool encroaches(uint32_t p, uint32_t t) const;

  // Creates the initial bounding triangle over the last three vertices
  // (which must be the bounding vertices) and returns its id.
  uint32_t init_bounding(uint32_t a, uint32_t b, uint32_t c);

  // Walks the history from `from` down to an alive triangle encroached by p.
  // Calls step(t) for every history node visited (for per-mode read/write
  // accounting). Returns kNoTri only if `from` itself is not encroached.
  template <typename Step>
  uint32_t descend(uint32_t p, uint32_t from, Step&& step) const {
    uint32_t t = from;
    if (!encroaches(p, t)) return kNoTri;
    while (!tri(t).alive.load(std::memory_order_acquire)) {
      step(t);
      uint32_t next = kNoTri;
      const Triangle& tr = tri(t);
      for (uint32_t c = tr.child_lo; c < tr.child_lo + tr.child_n; ++c) {
        if (encroaches(p, c)) {
          next = c;
          break;
        }
      }
      // Descent property guarantees progress (see file comment).
      if (next == kNoTri) return kNoTri;  // defensive: treat as retry
      t = next;
    }
    step(t);
    return t;
  }

  // Computes the cavity of vertex p seeded at alive encroached triangle
  // `seed`: BFS over alive neighbors by encroachment, then star-shape repair
  // (boundary edges must be CCW-visible from p; offending outside triangles
  // are absorbed). Outputs dead-triangle set and the boundary loop as
  // directed edges (u, w) with their outside triangle and its edge index.
  struct Boundary {
    uint32_t u, w;        // directed edge, cavity on the left
    uint32_t outside;     // triangle beyond (u, w); kNoTri at the hull
    int outside_edge;     // index of (w, u) in `outside`
  };
  void cavity(uint32_t p, uint32_t seed, std::vector<uint32_t>& dead,
              std::vector<Boundary>& boundary) const;

  // Replaces the cavity by the fan around p: one new triangle per boundary
  // edge, allocated as one contiguous block. Thread-safe for disjoint
  // cavities (reservation protocol guarantees exclusivity). Records the
  // block as every dead triangle's history children. Aborts with a message
  // if the pool is exhausted.
  void retriangulate(uint32_t p, const std::vector<uint32_t>& dead,
                     const std::vector<Boundary>& boundary);

  // All alive triangles (test/bench helper, uncounted).
  std::vector<uint32_t> alive_triangles() const;

  // Checks mesh consistency: neighbor symmetry, CCW orientation (under SoS),
  // and (expensive, optional) the empty-circle property of every alive
  // triangle not touching the last three (bounding) vertices against all
  // non-bounding vertices in `check_points`.
  bool validate(bool check_delaunay, const std::vector<uint32_t>* check_points
                                         = nullptr) const;

 private:
  // Claims k consecutive pool slots, constructs them, and returns the
  // first. The capacity passed to the constructor is checked in every build
  // type.
  uint32_t alloc(uint32_t k);

  // The pool is allocated but not constructed up front: alloc() constructs
  // the slots it hands out, so creating a mesh costs no serial pass over
  // `capacity` triangles and each page is first touched by the worker that
  // fills it. Triangle is trivially destructible, so freeing needs no pass
  // either.
  struct PoolFree {
    void operator()(Triangle* p) const { ::operator delete(p); }
  };

  std::vector<geom::GridPoint> verts_;
  size_t capacity_;
  std::unique_ptr<Triangle, PoolFree> pool_;
  std::atomic<uint32_t> next_{0};
  uint32_t root_ = kNoTri;
};

}  // namespace weg::delaunay
