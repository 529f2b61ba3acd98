#include "src/delaunay/mesh.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <type_traits>

namespace weg::delaunay {

Mesh::Mesh(std::vector<geom::GridPoint> vertices, size_t capacity)
    : verts_(std::move(vertices)),
      capacity_(capacity),
      pool_(static_cast<Triangle*>(
          ::operator new(capacity * sizeof(Triangle)))) {
  static_assert(std::is_trivially_destructible_v<Triangle>);
}

bool Mesh::encroaches(uint32_t p, uint32_t t) const {
  asym::count_read();
  const Triangle& tr = tri(t);
  return geom::in_circle_sos(verts_[tr.v[0]], verts_[tr.v[1]],
                             verts_[tr.v[2]], verts_[p]);
}

uint32_t Mesh::alloc(uint32_t k) {
  uint32_t first = next_.fetch_add(k, std::memory_order_relaxed);
  if (static_cast<size_t>(first) + k > capacity_) {
    std::fprintf(stderr,
                 "weg::delaunay: triangle pool exhausted (capacity %zu, "
                 "requested [%u, %zu))\n",
                 capacity_, first, static_cast<size_t>(first) + k);
    std::abort();
  }
  for (uint32_t i = 0; i < k; ++i) std::construct_at(pool_.get() + first + i);
  return first;
}

uint32_t Mesh::init_bounding(uint32_t a, uint32_t b, uint32_t c) {
  if (geom::orient2d_sos(verts_[a], verts_[b], verts_[c]) < 0) std::swap(b, c);
  uint32_t t = alloc(1);
  Triangle& tr = tri(t);
  tr.v[0] = a;
  tr.v[1] = b;
  tr.v[2] = c;
  tr.alive.store(true, std::memory_order_release);
  asym::count_write();
  root_ = t;
  return t;
}

void Mesh::cavity(uint32_t p, uint32_t seed, std::vector<uint32_t>& dead,
                  std::vector<Boundary>& boundary) const {
  dead.clear();
  boundary.clear();
  auto in_dead = [&](uint32_t t) {
    return std::find(dead.begin(), dead.end(), t) != dead.end();
  };
  // BFS over alive encroached neighbors.
  dead.push_back(seed);
  for (size_t i = 0; i < dead.size(); ++i) {
    const Triangle& tr = tri(dead[i]);
    for (int e = 0; e < 3; ++e) {
      uint32_t nb = tr.nbr[e];
      if (nb == kNoTri || in_dead(nb)) continue;
      if (encroaches(p, nb)) dead.push_back(nb);
    }
  }
  // Star-shape repair: every boundary edge (u, w) must be CCW-visible from
  // p; absorb offending outside triangles (rare, only under degeneracy).
  while (true) {
    boundary.clear();
    bool repaired = false;
    for (uint32_t t : dead) {
      const Triangle& tr = tri(t);
      for (int e = 0; e < 3 && !repaired; ++e) {
        uint32_t nb = tr.nbr[e];
        if (nb != kNoTri && in_dead(nb)) continue;
        uint32_t u = tr.v[e], w = tr.v[(e + 1) % 3];
        if (geom::orient2d_sos(verts_[u], verts_[w], verts_[p]) <= 0) {
          // p not strictly left of u->w: absorb the outside triangle.
          assert(nb != kNoTri && "point escaped the bounding triangle");
          dead.push_back(nb);
          repaired = true;
          break;
        }
        int oe = -1;
        if (nb != kNoTri) {
          const Triangle& ot = tri(nb);
          for (int k = 0; k < 3; ++k) {
            if (ot.v[k] == w && ot.v[(k + 1) % 3] == u) oe = k;
          }
          assert(oe >= 0);
        }
        boundary.push_back(Boundary{u, w, nb, oe});
      }
      if (repaired) break;
    }
    if (!repaired) break;
  }
  // Order the boundary into a cycle (w of one edge == u of the next), in
  // place: the edge following position i - 1 is swapped into position i.
  // On a simple cycle every u is distinct, so the order is fully determined.
  for (size_t i = 1; i < boundary.size(); ++i) {
    uint32_t want = boundary[i - 1].w;
    size_t j = i;
    while (j < boundary.size() && boundary[j].u != want) ++j;
    assert(j < boundary.size() && "cavity boundary is not a simple cycle");
    if (j == boundary.size()) break;
    std::swap(boundary[i], boundary[j]);
  }
}

void Mesh::retriangulate(uint32_t p, const std::vector<uint32_t>& dead,
                         const std::vector<Boundary>& boundary) {
  uint32_t k = static_cast<uint32_t>(boundary.size());
  uint32_t first = alloc(k);
  for (uint32_t i = 0; i < k; ++i) {
    const Boundary& b = boundary[i];
    Triangle& nt = tri(first + i);
    nt.v[0] = b.u;
    nt.v[1] = b.w;
    nt.v[2] = p;
    nt.nbr[0] = b.outside;
    nt.nbr[1] = first + (i + 1) % k;      // edge (w, p)
    nt.nbr[2] = first + (i + k - 1) % k;  // edge (p, u)
    asym::count_write(2);  // vertex + neighbor records
    if (b.outside != kNoTri) {
      tri(b.outside).nbr[b.outside_edge] = first + i;
      asym::count_write();
    }
    nt.alive.store(true, std::memory_order_release);
  }
  for (uint32_t t : dead) {
    Triangle& tr = tri(t);
    tr.child_lo = first;  // all-to-all history linking (see header)
    tr.child_n = k;
    tr.alive.store(false, std::memory_order_release);
    asym::count_write();
  }
}

std::vector<uint32_t> Mesh::alive_triangles() const {
  std::vector<uint32_t> out;
  uint32_t n = next_.load(std::memory_order_acquire);
  for (uint32_t t = 0; t < n; ++t) {
    if (tri(t).alive.load(std::memory_order_relaxed)) out.push_back(t);
  }
  return out;
}

bool Mesh::validate(bool check_delaunay,
                    const std::vector<uint32_t>* check_points) const {
  auto alive = alive_triangles();
  size_t nb_verts = 3;  // bounding vertices are the last three
  uint32_t bound_lo = static_cast<uint32_t>(verts_.size() - nb_verts);
  for (uint32_t t : alive) {
    const Triangle& tr = tri(t);
    // Orientation.
    if (geom::orient2d_sos(verts_[tr.v[0]], verts_[tr.v[1]],
                           verts_[tr.v[2]]) <= 0) {
      return false;
    }
    // Neighbor symmetry.
    for (int e = 0; e < 3; ++e) {
      uint32_t nb = tr.nbr[e];
      if (nb == kNoTri) continue;
      if (!tri(nb).alive.load(std::memory_order_relaxed)) return false;
      uint32_t u = tr.v[e], w = tr.v[(e + 1) % 3];
      bool ok = false;
      for (int k = 0; k < 3; ++k) {
        if (tri(nb).v[k] == w && tri(nb).v[(k + 1) % 3] == u &&
            tri(nb).nbr[k] == t) {
          ok = true;
        }
      }
      if (!ok) return false;
    }
  }
  if (check_delaunay && check_points) {
    for (uint32_t t : alive) {
      const Triangle& tr = tri(t);
      bool touches_bounding = tr.v[0] >= bound_lo || tr.v[1] >= bound_lo ||
                              tr.v[2] >= bound_lo;
      if (touches_bounding) continue;
      for (uint32_t p : *check_points) {
        if (p == tr.v[0] || p == tr.v[1] || p == tr.v[2]) continue;
        if (geom::in_circle_sos(verts_[tr.v[0]], verts_[tr.v[1]],
                                verts_[tr.v[2]], verts_[p])) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace weg::delaunay
