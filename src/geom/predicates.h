// Exact geometric predicates on integer grid points, with symbolic
// perturbation so every predicate is decided (general position is simulated,
// matching the paper's "points in general position" assumption in Section 5).
//
//  * orient2d: exact sign via 128-bit integers, which decides whenever the
//    determinant is nonzero; only a zero determinant is broken by
//    Simulation-of-Simplicity on the (x, y) coordinates — point with id i is
//    conceptually displaced by infinitesimals (a_i, b_i) whose magnitudes
//    decrease super-exponentially in id, and the first nonzero coefficient of
//    the multilinear expansion decides the sign. The expansion's final terms
//    have coefficient ±1, so the perturbed predicate is never zero for
//    distinct points.
//  * in_circle: a double-precision filter with Shewchuk's proven error
//    bound decides most calls; when the bound cannot rule out a sign flip,
//    the exact sign comes from 128-bit integers (valid for |coords| < 2^29).
//    The filter never changes a sign, only how it is computed. Ties are
//    broken by perturbing the *lift* coordinate x^2+y^2 of point id i by
//    eps_i with eps decreasing in id. This is exactly a regular triangulation
//    with infinitesimal weights; the perturbed determinant expands linearly:
//       D' = D + eps_a*orient(d,b,c) + eps_b*orient(d,c,a)
//              + eps_c*orient(d,a,b) - eps_d*orient(a,b,c),
//    so the first point (in increasing id) with a nonzero orientation
//    coefficient decides.
#pragma once

#include "src/geom/point.h"

namespace weg::geom {

using int128 = __int128;

// Exact orientation sign: >0 if a,b,c counterclockwise, <0 clockwise,
// 0 collinear. Requires |coords| < 2^31 (products fit in 128 bits).
int orient2d_exact(const GridPoint& a, const GridPoint& b, const GridPoint& c);

// Perturbed orientation: never returns 0 for points with distinct ids.
int orient2d_sos(const GridPoint& a, const GridPoint& b, const GridPoint& c);

// Exact in-circle sign relative to the CCW triangle (a,b,c): >0 if d strictly
// inside the circumcircle, <0 outside, 0 cocircular. Always the full 128-bit
// determinant (the unfiltered reference for in_circle_sos).
// Requires |coords| < 2^29 so the determinant fits in 128 bits.
int in_circle_exact(const GridPoint& a, const GridPoint& b, const GridPoint& c,
                    const GridPoint& d);

// Perturbed in-circle: true iff d is inside the circumcircle of CCW triangle
// (a,b,c) after symbolic perturbation. If a,b,c,d are all collinear (so no
// circle exists even symbolically under lift perturbation) returns false.
bool in_circle_sos(const GridPoint& a, const GridPoint& b, const GridPoint& c,
                   const GridPoint& d);

// Point-in-triangle test under the SoS orientation (true if d is inside or on
// the perturbed-open triangle abc, which must be CCW under SoS).
bool in_triangle_sos(const GridPoint& a, const GridPoint& b,
                     const GridPoint& c, const GridPoint& d);

}  // namespace weg::geom
