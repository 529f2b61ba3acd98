#include "src/geom/predicates.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace weg::geom {

namespace {

int sign_of(int128 v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }

int128 orient_det(const GridPoint& a, const GridPoint& b, const GridPoint& c) {
  int128 abx = b.x - a.x, aby = b.y - a.y;
  int128 acx = c.x - a.x, acy = c.y - a.y;
  return abx * acy - aby * acx;
}

// --- SoS machinery for orient2d ---------------------------------------------
//
// Infinitesimal a_i (x-perturbation of point id i) has exponent 2*i, b_i
// (y-perturbation) exponent 2*i + 1, under a super-exponential weight scale
// (think eps^{4^e}), so a monomial's magnitude is compared by its sorted
// exponent list, descending, lexicographically: fewer/lower exponents =
// larger magnitude. The multilinear expansion of the orientation determinant
// in the perturbations has these 13 terms (derived in predicates.h header
// comment's scheme; D = exact determinant):
//   1                     : D
//   a1 : y2-y3   a2 : y3-y1   a3 : y1-y2
//   b1 : x3-x2   b2 : x1-x3   b3 : x2-x1
//   a1b2:+1  a1b3:-1  a2b1:-1  a2b3:+1  a3b1:+1  a3b2:-1
// Terms are evaluated from largest magnitude down; the first nonzero
// coefficient decides. The +-1 coefficients guarantee termination.

struct SosTerm {
  // Exponents of the (at most two) infinitesimals in this monomial, sorted
  // descending; kNone for unused slots. Smaller-exponent monomials are larger.
  int64_t e0, e1;
  int128 coeff;
};

constexpr int64_t kNone = -1;

// Magnitude order: m1 "larger" than m2 if its sorted-descending exponent list
// is lexicographically smaller (comparing missing entries as -inf, i.e., a
// shorter list is larger when prefixes agree).
bool larger_magnitude(const SosTerm& t1, const SosTerm& t2) {
  if (t1.e0 != t2.e0) return t1.e0 < t2.e0;
  return t1.e1 < t2.e1;
}

int orient2d_sos_impl(const GridPoint& p1, const GridPoint& p2,
                      const GridPoint& p3) {
  auto ax = [](const GridPoint& p) { return 2 * static_cast<int64_t>(p.id); };
  auto by = [](const GridPoint& p) {
    return 2 * static_cast<int64_t>(p.id) + 1;
  };
  std::array<SosTerm, 13> terms = {{
      {kNone, kNone, orient_det(p1, p2, p3)},
      {ax(p1), kNone, static_cast<int128>(p2.y) - p3.y},
      {ax(p2), kNone, static_cast<int128>(p3.y) - p1.y},
      {ax(p3), kNone, static_cast<int128>(p1.y) - p2.y},
      {by(p1), kNone, static_cast<int128>(p3.x) - p2.x},
      {by(p2), kNone, static_cast<int128>(p1.x) - p3.x},
      {by(p3), kNone, static_cast<int128>(p2.x) - p1.x},
      {std::max(ax(p1), by(p2)), std::min(ax(p1), by(p2)), 1},
      {std::max(ax(p1), by(p3)), std::min(ax(p1), by(p3)), -1},
      {std::max(ax(p2), by(p1)), std::min(ax(p2), by(p1)), -1},
      {std::max(ax(p2), by(p3)), std::min(ax(p2), by(p3)), 1},
      {std::max(ax(p3), by(p1)), std::min(ax(p3), by(p1)), 1},
      {std::max(ax(p3), by(p2)), std::min(ax(p3), by(p2)), -1},
  }};
  std::sort(terms.begin() + 1, terms.end(),
            [](const SosTerm& x, const SosTerm& y) {
              return larger_magnitude(x, y);
            });
  for (const SosTerm& t : terms) {
    if (t.coeff != 0) return sign_of(t.coeff);
  }
  return 0;  // unreachable for distinct ids
}

// Floating-point in-circle filter: the sign of the determinant in double
// arithmetic when its rounding error provably cannot flip it, else 0
// ("undecided"). The differences p - d are exact (|coords| < 2^29, so they
// are integers below 2^53), and every later operation rounds once with
// relative error at most eps = 2^-53 (this file is compiled with
// -ffp-contract=off, so nothing is fused into a multiply-add). Under those
// conditions Shewchuk's first-stage bound applies ("Adaptive
// Precision Floating-Point Arithmetic and Fast Robust Geometric
// Predicates", 1997, iccerrboundA): |det_fl - det| <= (10 + 96 eps) eps *
// permanent, where the permanent is the determinant with every product
// replaced by its absolute value. Integer operands leave no room for
// underflow, and the largest product (< 2^122) is far from overflow.
int in_circle_filter(const GridPoint& a, const GridPoint& b,
                     const GridPoint& c, const GridPoint& d) {
  constexpr double kEps = 0x1p-53;
  constexpr double kErrBound = (10.0 + 96.0 * kEps) * kEps;
  double adx = static_cast<double>(a.x - d.x);
  double ady = static_cast<double>(a.y - d.y);
  double bdx = static_cast<double>(b.x - d.x);
  double bdy = static_cast<double>(b.y - d.y);
  double cdx = static_cast<double>(c.x - d.x);
  double cdy = static_cast<double>(c.y - d.y);
  double bdxcdy = bdx * cdy, cdxbdy = cdx * bdy;
  double cdxady = cdx * ady, adxcdy = adx * cdy;
  double adxbdy = adx * bdy, bdxady = bdx * ady;
  double alift = adx * adx + ady * ady;
  double blift = bdx * bdx + bdy * bdy;
  double clift = cdx * cdx + cdy * cdy;
  double det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) +
               clift * (adxbdy - bdxady);
  double permanent = (std::fabs(bdxcdy) + std::fabs(cdxbdy)) * alift +
                     (std::fabs(cdxady) + std::fabs(adxcdy)) * blift +
                     (std::fabs(adxbdy) + std::fabs(bdxady)) * clift;
  double err = kErrBound * permanent;
  if (det > err) return 1;
  if (-det > err) return -1;
  return 0;
}

}  // namespace

int orient2d_exact(const GridPoint& a, const GridPoint& b, const GridPoint& c) {
  return sign_of(orient_det(a, b, c));
}

int orient2d_sos(const GridPoint& a, const GridPoint& b, const GridPoint& c) {
  assert(!(a.id == b.id || b.id == c.id || a.id == c.id));
  // Term 0 of the expansion (the plain determinant) always sorts first, so a
  // nonzero determinant decides without building the perturbation table.
  int s = sign_of(orient_det(a, b, c));
  if (s != 0) return s;
  return orient2d_sos_impl(a, b, c);
}

int in_circle_exact(const GridPoint& a, const GridPoint& b, const GridPoint& c,
                    const GridPoint& d) {
  // 3x3 determinant of rows (p - d, |p - d|^2) for p in {a, b, c}.
  // With |coords| < 2^29, diffs < 2^30, lifts < 2^61, each of the six
  // products < 2^121, so the sum fits comfortably in 128 bits.
  int128 adx = a.x - d.x, ady = a.y - d.y;
  int128 bdx = b.x - d.x, bdy = b.y - d.y;
  int128 cdx = c.x - d.x, cdy = c.y - d.y;
  int128 alift = adx * adx + ady * ady;
  int128 blift = bdx * bdx + bdy * bdy;
  int128 clift = cdx * cdx + cdy * cdy;
  int128 det = alift * (bdx * cdy - bdy * cdx) -
               blift * (adx * cdy - ady * cdx) +
               clift * (adx * bdy - ady * bdx);
  return sign_of(det);
}

bool in_circle_sos(const GridPoint& a, const GridPoint& b, const GridPoint& c,
                   const GridPoint& d) {
  int s = in_circle_filter(a, b, c, d);
  if (s == 0) s = in_circle_exact(a, b, c, d);
  if (s != 0) return s > 0;
  // Cocircular: perturb lifts by eps_id, larger for smaller id. The first
  // point in increasing id order whose orientation coefficient is nonzero
  // decides (see header). Coefficients:
  //   a: +orient(d,b,c)  b: +orient(d,c,a)  c: +orient(d,a,b)
  //   d: -orient(a,b,c)
  struct Cand {
    uint32_t id;
    int coeff;
  };
  std::array<Cand, 4> cands = {{
      {a.id, orient2d_exact(d, b, c)},
      {b.id, orient2d_exact(d, c, a)},
      {c.id, orient2d_exact(d, a, b)},
      {d.id, -orient2d_exact(a, b, c)},
  }};
  std::sort(cands.begin(), cands.end(),
            [](const Cand& x, const Cand& y) { return x.id < y.id; });
  for (const Cand& cd : cands) {
    if (cd.coeff != 0) return cd.coeff > 0;
  }
  // All four points collinear: no circle even symbolically; treat as outside.
  return false;
}

bool in_triangle_sos(const GridPoint& a, const GridPoint& b,
                     const GridPoint& c, const GridPoint& d) {
  return orient2d_sos(a, b, d) > 0 && orient2d_sos(b, c, d) > 0 &&
         orient2d_sos(c, a, d) > 0;
}

}  // namespace weg::geom
