// Geometry predicate tests: exact signs, symbolic-perturbation properties
// (never-zero, antisymmetry, permutation parity, consistency on degenerate
// inputs), and box utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include "src/geom/box.h"
#include "src/geom/predicates.h"
#include "src/primitives/random.h"

namespace weg::geom {
namespace {

GridPoint gp(int64_t x, int64_t y, uint32_t id) { return GridPoint{x, y, id}; }

TEST(Orient2D, ExactBasicSigns) {
  EXPECT_GT(orient2d_exact(gp(0, 0, 0), gp(1, 0, 1), gp(0, 1, 2)), 0);  // CCW
  EXPECT_LT(orient2d_exact(gp(0, 0, 0), gp(0, 1, 1), gp(1, 0, 2)), 0);  // CW
  EXPECT_EQ(orient2d_exact(gp(0, 0, 0), gp(1, 1, 1), gp(2, 2, 2)), 0);
}

TEST(Orient2D, ExactLargeCoordinatesNoOverflow) {
  int64_t big = int64_t{1} << 28;
  EXPECT_GT(orient2d_exact(gp(-big, -big, 0), gp(big, -big, 1), gp(0, big, 2)),
            0);
}

TEST(Orient2D, SosNeverZero) {
  primitives::Rng rng(1);
  for (int t = 0; t < 2000; ++t) {
    // Many collinear triples (small grid).
    GridPoint a = gp((int64_t)rng.next_bounded(4),
                     (int64_t)rng.next_bounded(4), 0);
    GridPoint b = gp((int64_t)rng.next_bounded(4),
                     (int64_t)rng.next_bounded(4), 1);
    GridPoint c = gp((int64_t)rng.next_bounded(4),
                     (int64_t)rng.next_bounded(4), 2);
    if ((a.x == b.x && a.y == b.y) || (a.x == c.x && a.y == c.y) ||
        (b.x == c.x && b.y == c.y)) {
      continue;  // coincident points are excluded by dedup upstream
    }
    EXPECT_NE(orient2d_sos(a, b, c), 0);
  }
}

TEST(Orient2D, SosAgreesWithExactWhenNondegenerate) {
  primitives::Rng rng(2);
  for (int t = 0; t < 2000; ++t) {
    GridPoint a = gp((int64_t)rng.next_bounded(1000),
                     (int64_t)rng.next_bounded(1000), 0);
    GridPoint b = gp((int64_t)rng.next_bounded(1000),
                     (int64_t)rng.next_bounded(1000), 1);
    GridPoint c = gp((int64_t)rng.next_bounded(1000),
                     (int64_t)rng.next_bounded(1000), 2);
    int ex = orient2d_exact(a, b, c);
    if (ex != 0) {
      EXPECT_EQ(orient2d_sos(a, b, c), ex);
    }
  }
}

TEST(Orient2D, SosPermutationParity) {
  // Swapping two arguments flips the sign — even for degenerate triples.
  primitives::Rng rng(3);
  for (int t = 0; t < 2000; ++t) {
    GridPoint a = gp((int64_t)rng.next_bounded(5),
                     (int64_t)rng.next_bounded(5), 7);
    GridPoint b = gp((int64_t)rng.next_bounded(5),
                     (int64_t)rng.next_bounded(5), 13);
    GridPoint c = gp((int64_t)rng.next_bounded(5),
                     (int64_t)rng.next_bounded(5), 29);
    if ((a.x == b.x && a.y == b.y) || (a.x == c.x && a.y == c.y) ||
        (b.x == c.x && b.y == c.y)) {
      continue;
    }
    int s = orient2d_sos(a, b, c);
    EXPECT_EQ(orient2d_sos(b, a, c), -s);
    EXPECT_EQ(orient2d_sos(a, c, b), -s);
    EXPECT_EQ(orient2d_sos(b, c, a), s);  // cyclic
    EXPECT_EQ(orient2d_sos(c, a, b), s);
  }
}

TEST(InCircle, ExactBasic) {
  // Unit-ish circle through (0,0),(4,0),(0,4); (1,1) inside, (5,5) outside.
  GridPoint a = gp(0, 0, 0), b = gp(4, 0, 1), c = gp(0, 4, 2);
  ASSERT_GT(orient2d_exact(a, b, c), 0);
  EXPECT_GT(in_circle_exact(a, b, c, gp(1, 1, 3)), 0);
  EXPECT_LT(in_circle_exact(a, b, c, gp(5, 5, 3)), 0);
  EXPECT_EQ(in_circle_exact(a, b, c, gp(4, 4, 3)), 0);  // cocircular
}

TEST(InCircle, SosDecidesCocircular) {
  GridPoint a = gp(0, 0, 0), b = gp(4, 0, 1), c = gp(0, 4, 2);
  GridPoint d = gp(4, 4, 3);  // exactly on the circle
  // The perturbed predicate must be decisive and consistent: d inside abc
  // iff NOT (a inside bcd-reversed orientation) etc. We check decisiveness
  // and rotation invariance here.
  bool in1 = in_circle_sos(a, b, c, d);
  bool in2 = in_circle_sos(b, c, a, d);
  bool in3 = in_circle_sos(c, a, b, d);
  EXPECT_EQ(in1, in2);
  EXPECT_EQ(in1, in3);
}

TEST(InCircle, SosSymmetryAcrossTheCircle) {
  // For four cocircular points, "d in circle(a,b,c)" and "a in circle(d,c,b)"
  // (both CCW) must be consistent under the same perturbation: exactly one
  // of each opposite pair of diagonals flips. We verify via Delaunay-flip
  // consistency: in the square, exactly one diagonal is chosen.
  GridPoint a = gp(0, 0, 0), b = gp(2, 0, 1), c = gp(2, 2, 2), d = gp(0, 2, 3);
  // Triangles (a,b,c) + (a,c,d) vs (a,b,d) + (b,c,d).
  bool flip1 = in_circle_sos(a, b, c, d);  // d encroaches abc?
  bool flip2 = in_circle_sos(a, c, d, b);  // b encroaches acd?
  // Both triangulations of the square cannot be simultaneously "illegal".
  EXPECT_EQ(flip1, flip2);
  bool alt1 = in_circle_sos(a, b, d, c);
  bool alt2 = in_circle_sos(b, c, d, a);
  EXPECT_EQ(alt1, alt2);
  EXPECT_NE(flip1, alt1);  // exactly one diagonal is Delaunay
}

TEST(InCircle, StrictInsideUnaffectedByPerturbation) {
  primitives::Rng rng(4);
  for (int t = 0; t < 1000; ++t) {
    GridPoint a = gp(0, 0, 0), b = gp(100, 0, 1), c = gp(0, 100, 2);
    int64_t x = (int64_t)rng.next_bounded(60) + 10;
    int64_t y = (int64_t)rng.next_bounded(60) + 10;
    GridPoint d = gp(x, y, 3);
    if (in_circle_exact(a, b, c, d) > 0) {
      EXPECT_TRUE(in_circle_sos(a, b, c, d));
    } else if (in_circle_exact(a, b, c, d) < 0) {
      EXPECT_FALSE(in_circle_sos(a, b, c, d));
    }
  }
}

// --- Filtered predicates vs the unfiltered int128 determinants --------------
//
// in_circle_sos answers from a floating-point filter when its error bound
// allows and orient2d_sos from the plain determinant when it is nonzero.
// Wherever the exact sign is nonzero, both must agree with the int128
// in_circle_exact / orient2d_exact. The inputs below are built so that the
// determinant is tiny next to its terms, which is where a filter with a
// wrong bound would answer wrongly instead of falling back.

// The bounding vertices of the Delaunay module sit at 7 * 2^24, and
// predicates.h documents |coords| < 2^29 as the limit.
constexpr int64_t kBoundingMag = 7 * (int64_t{1} << 24);
constexpr int64_t kCoordLimit = (int64_t{1} << 29) - 1;

// Checks all four choices of the query point among {a, b, c, d} and, for
// orient2d, all four triples. Returns how many checks had a nonzero exact
// sign (the ones that constrain the filter).
int expect_filters_agree(const GridPoint& a, const GridPoint& b,
                         const GridPoint& c, const GridPoint& d) {
  const GridPoint q[4] = {a, b, c, d};
  int decided = 0;
  for (int k = 0; k < 4; ++k) {
    const GridPoint& p0 = q[(k + 1) % 4];
    const GridPoint& p1 = q[(k + 2) % 4];
    const GridPoint& p2 = q[(k + 3) % 4];
    const GridPoint& pd = q[k];
    int ic = in_circle_exact(p0, p1, p2, pd);
    if (ic != 0) {
      ++decided;
      EXPECT_EQ(in_circle_sos(p0, p1, p2, pd), ic > 0)
          << "(" << p0.x << "," << p0.y << ") (" << p1.x << "," << p1.y
          << ") (" << p2.x << "," << p2.y << ") query (" << pd.x << ","
          << pd.y << ")";
    }
    int o = orient2d_exact(p0, p1, p2);
    if (o != 0) {
      ++decided;
      EXPECT_EQ(orient2d_sos(p0, p1, p2), o);
    } else {
      EXPECT_NE(orient2d_sos(p0, p1, p2), 0);
    }
  }
  return decided;
}

// Lattice points of the circle x^2 + y^2 = 1105^2 (1105 = 5 * 13 * 17, so
// the circle carries 108 of them).
std::vector<std::pair<int64_t, int64_t>> lattice_circle() {
  constexpr int64_t r = 1105;
  std::vector<std::pair<int64_t, int64_t>> pts;
  for (int64_t x = -r; x <= r; ++x) {
    int64_t y2 = r * r - x * x;
    int64_t y = static_cast<int64_t>(std::llround(std::sqrt(double(y2))));
    if (y * y != y2) continue;
    pts.emplace_back(x, y);
    if (y != 0) pts.emplace_back(x, -y);
  }
  return pts;
}

TEST(PredicateFilter, PerturbedCocircularLatticeQuadruples) {
  auto circle = lattice_circle();
  ASSERT_EQ(circle.size(), 108u);
  struct Frame {
    int64_t scale, cx, cy;
  };
  // Small; centred at the bounding-vertex magnitude; radius right at the
  // documented coordinate limit.
  const Frame frames[] = {{1, 0, 0},
                          {int64_t{1} << 16, kBoundingMag, kBoundingMag},
                          {kCoordLimit / 1105 - 1, 0, 0}};
  primitives::Rng rng(31);
  int decided = 0;
  for (const Frame& f : frames) {
    auto at = [&](size_t i, uint32_t id) {
      return gp(f.cx + f.scale * circle[i].first,
                f.cy + f.scale * circle[i].second, id);
    };
    for (int t = 0; t < 3000; ++t) {
      size_t i[4];
      for (int k = 0; k < 4; ++k) {
        bool fresh;
        do {
          i[k] = rng.next_bounded(circle.size());
          fresh = true;
          for (int j = 0; j < k; ++j) fresh = fresh && i[j] != i[k];
        } while (!fresh);
      }
      GridPoint q[4] = {at(i[0], 0), at(i[1], 1), at(i[2], 2), at(i[3], 3)};
      // Nudge one point by a unit step: the quadruple stops being
      // cocircular by the smallest amount the lattice allows.
      GridPoint& moved = q[rng.next_bounded(4)];
      moved.x += static_cast<int64_t>(rng.next_bounded(3)) - 1;
      moved.y += static_cast<int64_t>(rng.next_bounded(3)) - 1;
      for (const GridPoint& p : q) {
        ASSERT_LE(std::max(std::abs(p.x), std::abs(p.y)), kCoordLimit);
      }
      decided += expect_filters_agree(q[0], q[1], q[2], q[3]);
    }
  }
  EXPECT_GT(decided, 20000);
}

TEST(PredicateFilter, NearCollinearTriples) {
  // a, b = a + (p, q) with gcd(p, q) = 1, and c = a + (r, s) with
  // p*s - q*r = +-1 (extended Euclid): the triple has the smallest nonzero
  // orientation a lattice allows, while in the large frames the products
  // in the determinants exceed 2^53 and round, so an in-circle filter with
  // too small a bound misjudges them. d is a second such point every other
  // time, else anywhere.
  primitives::Rng rng(32);
  auto coord = [&](int64_t lim) {
    return static_cast<int64_t>(rng.next_bounded(uint64_t(2 * lim + 1))) - lim;
  };
  // Returns (r, s) with p*s - q*r == gcd(p, q).
  auto bezout = [](int64_t p, int64_t q) {
    int64_t r0 = p, r1 = q, s0 = 1, s1 = 0, t0 = 0, t1 = 1;
    while (r1 != 0) {
      int64_t k = r0 / r1;
      r0 = std::exchange(r1, r0 - k * r1);
      s0 = std::exchange(s1, s0 - k * s1);
      t0 = std::exchange(t1, t0 - k * t1);
    }
    // p*s0 + q*t0 == r0 == +-1: take (r, s) = (-t0, s0), flipped if r0 < 0.
    return r0 > 0 ? std::pair{-t0, s0} : std::pair{t0, -s0};
  };
  int decided = 0, unit = 0;
  for (int64_t mag : {int64_t{1} << 10, kBoundingMag, kCoordLimit}) {
    for (int t = 0; t < 3000; ++t) {
      GridPoint a = gp(coord(mag / 2), coord(mag / 2), 0);
      int64_t p = coord(mag / 2), q = coord(mag / 2);
      if (std::gcd(p, q) != 1) continue;
      auto near_line = [&](uint32_t id) {
        auto [r, s] = bezout(p, q);
        int64_t sign = rng.next_bounded(2) ? 1 : -1;
        return gp(a.x + sign * r, a.y + sign * s, id);
      };
      GridPoint b = gp(a.x + p, a.y + q, 1);
      GridPoint c = near_line(2);
      GridPoint d = t % 2 ? gp(coord(mag), coord(mag), 3) : near_line(3);
      if (b == a || c == a || c == b || d == a || d == b || d == c) continue;
      int128 det = int128{p} * (c.y - a.y) - int128{q} * (c.x - a.x);
      unit += det == 1 || det == -1;
      decided += expect_filters_agree(a, b, c, d);
    }
  }
  EXPECT_GT(unit, 3000);
  EXPECT_GT(decided, 10000);
}

TEST(PredicateFilter, ExtremeCoordinates) {
  // Points drawn from the corners and edges of the bounding triangle and of
  // the documented coordinate box, mixed with random points in that box.
  const int64_t b = int64_t{1} << 24, m = kCoordLimit;
  const int64_t picks[] = {-3 * b, 7 * b, 7 * b - 1, 0, m, -m, m - 1, 1 - m};
  primitives::Rng rng(33);
  int decided = 0;
  for (int t = 0; t < 20000; ++t) {
    GridPoint q[4];
    for (uint32_t k = 0; k < 4; ++k) {
      auto coord = [&] {
        if (rng.next_bounded(2)) {
          return picks[rng.next_bounded(std::size(picks))];
        }
        return static_cast<int64_t>(
                   rng.next_bounded(uint64_t(2 * kCoordLimit + 1))) -
               kCoordLimit;
      };
      q[k] = gp(coord(), coord(), k);
    }
    if (q[0] == q[1] || q[0] == q[2] || q[0] == q[3] || q[1] == q[2] ||
        q[1] == q[3] || q[2] == q[3]) {
      continue;
    }
    decided += expect_filters_agree(q[0], q[1], q[2], q[3]);
  }
  EXPECT_GT(decided, 50000);
}

TEST(InTriangle, SosBasic) {
  GridPoint a = gp(0, 0, 0), b = gp(10, 0, 1), c = gp(0, 10, 2);
  EXPECT_TRUE(in_triangle_sos(a, b, c, gp(2, 2, 3)));
  EXPECT_FALSE(in_triangle_sos(a, b, c, gp(20, 20, 3)));
}

TEST(Box, ExtendAndContains) {
  auto b = BoxK<2>::empty();
  Point2 p1, p2;
  p1[0] = 0;
  p1[1] = 0;
  p2[0] = 2;
  p2[1] = 3;
  b.extend(p1);
  b.extend(p2);
  Point2 mid;
  mid[0] = 1;
  mid[1] = 1.5;
  EXPECT_TRUE(b.contains(mid));
  EXPECT_TRUE(b.contains(p1));
  Point2 out;
  out[0] = -1;
  out[1] = 0;
  EXPECT_FALSE(b.contains(out));
}

TEST(Box, IntersectsAndInside) {
  Box2 a, b;
  a.lo[0] = 0; a.lo[1] = 0; a.hi[0] = 2; a.hi[1] = 2;
  b.lo[0] = 1; b.lo[1] = 1; b.hi[0] = 3; b.hi[1] = 3;
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.inside(b));
  Box2 c;
  c.lo[0] = 0.5; c.lo[1] = 0.5; c.hi[0] = 1.5; c.hi[1] = 1.5;
  EXPECT_TRUE(c.inside(a));
  Box2 d;
  d.lo[0] = 5; d.lo[1] = 5; d.hi[0] = 6; d.hi[1] = 6;
  EXPECT_FALSE(a.intersects(d));
}

TEST(Box, SquaredDistance) {
  Box2 a;
  a.lo[0] = 0; a.lo[1] = 0; a.hi[0] = 1; a.hi[1] = 1;
  Point2 in;
  in[0] = 0.5;
  in[1] = 0.5;
  EXPECT_DOUBLE_EQ(a.squared_distance(in), 0.0);
  Point2 right;
  right[0] = 3;
  right[1] = 0.5;
  EXPECT_DOUBLE_EQ(a.squared_distance(right), 4.0);
  Point2 corner;
  corner[0] = 2;
  corner[1] = 2;
  EXPECT_DOUBLE_EQ(a.squared_distance(corner), 2.0);
}

TEST(Box, LongestDimension) {
  Box2 a;
  a.lo[0] = 0; a.lo[1] = 0; a.hi[0] = 1; a.hi[1] = 5;
  EXPECT_EQ(a.longest_dimension(), 1);
}

TEST(Point, Distances) {
  Point2 a, b;
  a[0] = 0; a[1] = 0; b[0] = 3; b[1] = 4;
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
}

}  // namespace
}  // namespace weg::geom
