"""The float engine: every numpy call of corrdyn.  ``FloatGrid`` holds a
polynomial's complex128 grid with what its certified fibers need, and
``FloatGrid.certified_points`` takes a base point's chart value to the
sorted fiber points in one pass, or to undecided.  ``companion_roots``
solves the exact squarefree factors that ``polyalg.roots`` splits off.
Both run on ``_companion_eigenvalues``, the bits of ``np.roots`` from the
LAPACK gufunc that ``np.linalg.eigvals`` wraps.

No other module imports this one at its top: ``Correspondence`` imports it
when it builds its first ``FloatGrid``, and ``polyalg`` on its first root
solve, so a command that solves no float (kgroups, expansive and free
without --sample) never loads numpy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .correspondence import SpherePoint, _point_sort_key
from .errors import RootFindingError

__all__ = ["FloatGrid", "companion_roots"]

_U = 2.0**-53  # unit roundoff of IEEE double precision
# absolute error allowed per coefficient for gradual underflow: far above the
# few units of 2^-1074 that underflow can cost, and still negligible
_UNDERFLOW = 2.0**-1000


class FloatGrid:
    """The coefficient grid c[i][j] of a bivariate polynomial in complex128
    and all a certified float fiber (``certified_points``) needs of it at
    any base point, computed once.  Each part of c[i][j] is one correctly
    rounded int/int division of its Gaussian-integer grid by its least
    denominator: the bits of ``float`` of the exact rational.  At v the
    fiber polynomial in the first variable has the ascending coefficients
    c = grid @ powers, powers = (1, v, ..., v^n) (reversed in the inverted
    chart, for v^n p(., 1/v)), with the bound e = gamma (abs_grid @
    |powers|) + floor >= |c - c^exact| (floor a list), c^exact the exact
    specialisation at v, read as x / q with x a Gaussian integer and q a
    power of 2 (``univariate_in_z`` or ``univariate_in_z_inverted``, divided
    by its scale).  The bound counts the rounding of the grid, of the
    powers, of the products and of the sums (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 3.6), about twice over, which also
    covers the rounding of the bound itself; horner is that count for
    Horner's rule on c, of degree m in the first variable, and lift and
    shrink are 1 +- horner.  ``companion``, the shift matrix of size m, is
    the one companion buffer of every fiber on the grid.  A coefficient
    beyond float range raises OverflowError; a modulus or a row sum that
    overflows is inf, silently, and leaves every certificate undecided."""

    __slots__ = ("grid", "abs_grid", "n", "gamma", "floor", "horner", "lift", "shrink",
                 "companion")

    @np.errstate(over="ignore")
    def __init__(self, poly):
        d = poly.denominator
        self.grid = np.array([[complex(x / d, y / d) for x, y in row] for row in poly.rows])
        self.abs_grid = np.abs(self.grid)
        self.n = poly.deg_w
        self.gamma = 8 * (self.n + 2) * _U
        self.floor = (8 * (self.n + 2) * _UNDERFLOW * (1.0 + self.abs_grid.sum(axis=1))).tolist()
        self.horner = 8 * (poly.deg_z + 2) * _U
        self.lift, self.shrink = 1 + self.horner, 1 - self.horner
        self.companion = np.eye(poly.deg_z, k=-1, dtype=complex)

    @np.errstate(all="ignore")
    def certified_points(self, v: complex, inverted: bool, separation: float):
        """The fiber over the chart value v as a tuple of (SpherePoint, 1)
        in ``_point_sort_key`` order, in one pass: what ``_chordal_merge`` at
        separation / 2 makes of the roots when they are certified simple and
        pairwise more than chordal separation apart; None otherwise.

        c = grid @ powers and its bound e, the powers being the Python
        products ``np.cumprod`` makes; zeta, the roots ``np.roots`` gives
        for c, bit for bit (``_companion_eigenvalues`` on the grid's buffer).
        Two zero low-order coefficients (a double root 0), a NaN root, a
        leading coefficient beyond float range, OverflowError and
        ZeroDivisionError (where numpy gives inf) mean undecided; numpy's
        warnings are off, and every overflow or NaN is tested for.  The
        roots are kept when every F with |F_k - c_k| <= e_k has degree d =
        len(c) - 1 and one root in each of the disjoint discs D(zeta_i,
        r_i), so that F is squarefree and the exact path would find d simple
        roots too: with W_i = F(zeta_i) / (lc(F) prod_{j != i} (zeta_i -
        zeta_j)), F / lc(F) is the characteristic polynomial of diag(zeta) -
        W 1^T, whose Gerschgorin discs lie in D(zeta_i, d|W_i|) (Braess &
        Hadeler, Numer. Math. 21, 1973; Carstensen, Numer. Math. 59, 1991),
        and r_i bounds d|W_i|: |F(zeta_i)| is at most |c(zeta_i)| plus e and
        the Horner rounding (Higham, ch. 5), and |lc(F)| at least |c_d| -
        e_d.  The test runs on Python scalars, cheaper than numpy at d <= 5:
        each r_i, once its Horner loop has given it, is tested against the
        r_j before it on the distances the chordal test stored.  Adding 0j
        to a root turns a -0.0 part into 0.0, as the merge's mean does, and
        the points are sorted, by one sort on (key, index), on the raw real
        parts of their values, z or 1 / (1.0 / z), which is
        ``_point_sort_key``'s order unless two adjacent ones lie within
        2e-12 and could round alike; only then does that key sort them.
        """
        powers, t = [1.0 + 0j], 1.0 + 0j
        for _ in range(self.n):
            t *= v
            powers.append(t)
        powers = np.array(powers)
        if inverted:
            powers = powers[::-1]  # a reversed view: a reversed copy gives other bits
        c = self.grid @ powers
        cs, d = c.tolist(), len(c) - 1
        # e_k = eps sums_k + floor_k bounds |c_k - c_k^exact|
        sums, floor, eps = (self.abs_grid @ np.abs(powers)).tolist(), self.floor, self.gamma
        gamma, inf = self.horner, math.inf
        try:
            lead = abs(cs[d]) - (eps * sums[d] + floor[d])
            k0 = 0 if cs[0] else 1 if cs[1] else 2
            if k0 == 2 or not inf > lead > 0:
                return None  # k0 = 2: 0 is a root twice over, and its discs meet
            zeta = _companion_eigenvalues(c, k0, self.companion)
            # the distances of the pairs (i, j), j < i, chordally tested, and
            # their products
            dists, spread, size, chordal, hypot = [], [1.0] * d, [], [], math.hypot
            for i, z in enumerate(zeta):
                zs = abs(z)
                size.append(zs)
                chordal.append(hypot(1.0, zs))
                limit = separation * chordal[i]
                for j in range(i):
                    dist = abs(z - zeta[j])
                    if not dist > limit * chordal[j]:
                        return None
                    spread[i] *= dist
                    spread[j] *= dist
                    dists.append(dist)
            # e_k plus the Horner rounding, and the coefficients below the top
            slack = [eps * sk + fk + gamma * abs(ck) for ck, sk, fk in zip(cs, sums, floor)]
            below, lift, shrink = list(zip(cs[d - 1::-1], slack[d - 1::-1])), self.lift, self.shrink
            r, points, top, top_slack, new = [], [], cs[d], slack[d], tuple.__new__
            stored = iter(dists).__next__
            for i, (z, zs, zp) in enumerate(zip(zeta, size, spread)):
                value, error = top, top_slack
                for ck, sk in below:
                    value, error = value * z + ck, error * zs + sk
                ri = d * (abs(value) + error) / (lead * zp) * lift
                if not (zs < inf and zp < inf and ri < inf):
                    return None  # not finite
                for rj in r:
                    if not stored() * shrink > ri + rj:
                        return None  # the discs of i and j meet
                r.append(ri)
                z += 0j
                if zs <= 1:
                    points.append((z.real, i, new(SpherePoint, (z, 1.0 + 0j))))
                else:
                    w = 1.0 / z
                    points.append(((1 / w).real, i, new(SpherePoint, (1.0 + 0j, w))))
        except (OverflowError, ZeroDivisionError):
            return None
        points.sort()
        last = -inf
        for key, _, _ in points:
            if key - last <= 2e-12:
                points.sort(key=lambda kip: (_point_sort_key(kip[2]), kip[1]))
                break
            last = key
        return tuple([(p, 1) for _, _, p in points])


def _companion_eigenvalues(c: np.ndarray, k0: int, companion: np.ndarray) -> list:
    """``np.roots`` of the ascending complex128 c, top c_d finite and nonzero
    and k0 lowest 0, bit for bit: the eigenvalues of the leading s x s block
    of companion, a shift matrix of size s = d - k0 or more, by the gufunc
    ``np.linalg.eigvals`` wraps, ``numpy.linalg._umath_linalg.eigvals``
    ("D->D"), then k0 zeros (only those when s = 0).  Row 0 of the block is
    the companion row, written in place by np.roots' two operations, -c then
    / c_d (/ -c_d would flip the signs of zero parts); the gufunc copies its
    input, so one buffer serves every call.  NaN where that wrapper raised
    LinAlgError (a row not finite, LAPACK not converging); numpy's
    floating-point warnings are left to the caller."""
    d, s = len(c) - 1, len(c) - 1 - k0
    if not s:
        return [0j] * k0
    block = companion if len(companion) == s else companion[:s, :s]
    row = block[0]
    np.negative(c[d - 1:k0 - 1:-1] if k0 else c[d - 1::-1], out=row)
    np.divide(row, c[d], out=row)
    if not all(map(cmath.isfinite, row.tolist())):
        return [complex(math.nan, 0)] * d
    z = _umath_linalg.eigvals(block, signature="D->D").tolist()
    return z + [0j] * k0 if k0 else z


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def companion_roots(monic: list) -> list:
    """All roots of the polynomial with the ascending, monic, complex128
    coefficients monic: the eigenvalues of its companion matrix, which are
    backward stable (Edelman & Murakami, Math. Comp. 64, 1995), from the
    gufunc ``numpy.linalg._umath_linalg.eigvals`` through
    ``_companion_eigenvalues``.  Raises RootFindingError when a root is not
    a finite float; a NaN root is LAPACK not converging."""
    k0 = next(k for k, x in enumerate(monic) if x)
    shift = np.eye(len(monic) - 1 - k0, k=-1, dtype=complex)
    z = _companion_eigenvalues(np.array(monic, dtype=complex), k0, shift)
    if not all(map(cmath.isfinite, z)):
        raise RootFindingError(f"non-finite root for coefficients {monic}")
    return z
