"""Algebraic correspondences p(z,w)=0 on the Riemann sphere: projective
points, fibers in both directions with multiplicities, and branched sets.

Fibers are computed in the affine chart where the base point lives.  The
coefficient polynomial is evaluated first in complex128, with a rigorous
bound on its distance to the exact one, and the float roots are kept when
disjoint inclusion discs prove each of them simple and no two lie within
chordal 2 tol; both tests run in one loop over the root pairs, under one
``np.errstate`` per fiber, and the kept roots are sorted on their raw real
parts unless two could round alike.  The roots come from the gufunc
``numpy.linalg._umath_linalg.eigvals``, NaN where LAPACK does not converge.
Otherwise (a multiple point, a root near another, a NaN root, a vanishing
leading coefficient, a non-finite base) the float chart value is read
exactly as x / q, x a Gaussian integer and q a power of 2, the polynomial
is specialised there on Gaussian integers, and the fiber comes out of the
exact squarefree machinery on those integers, so multiplicities never rest
on float luck.  One single-linkage
merge in the chordal metric, ``_chordal_merge``, decides which fiber roots
are one point; points of large modulus and the point at infinity merge
naturally.  The branched sets solve no fiber: each is decided exactly from
resultants and leading coefficients, with each gcd test at infinity decided
modulo a prime first, and its finite points are the distinct roots of an
exact polynomial, each refined by ``polish_roots``.  All of it runs on the
one Gaussian-integer grid of p over its least denominator
(``BivariatePolynomial.rows``) and its transpose, with no Fraction
arithmetic from the parsed input to the printed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import InvalidInputError, RootFindingError
from .polyalg import (
    BivariatePolynomial,
    FloatGrid,
    _xcoprime,
    _zi_quotient,
    _zi_strip,
    certified_roots,
    linked_groups,
    polish_roots,
    resultant_w,
    resultant_z,
    roots,
    squarefree_check,
)

__all__ = [
    "SpherePoint",
    "chordal_distance",
    "Correspondence",
    "WeightedFiber",
    "BranchedSets",
    "unit_circle_points",
]

DEFAULT_FIBER_TOL = 1e-6


class SpherePoint(tuple):
    """Point [z1 : z2] of the complex projective line.

    Normalized so that max(|z1|, |z2|) = 1 and the larger-modulus coordinate
    is exactly 1 (real positive); ties go to z2, so finite points with
    |z| <= 1 are stored as (z, 1) and the rest as (1, 1/z).  A tuple, equal
    and hashed as (z1, z2), at a third of a frozen dataclass's cost.
    """

    __slots__ = ()
    z1 = property(itemgetter(0))
    z2 = property(itemgetter(1))

    def __new__(cls, z1: complex, z2: complex):
        return tuple.__new__(cls, (z1, z2))

    def __getnewargs__(self):
        return tuple(self)

    @staticmethod
    def from_complex(z: complex) -> "SpherePoint":
        z = complex(z)
        return tuple.__new__(SpherePoint, (z, 1.0 + 0j) if abs(z) <= 1 else (1.0 + 0j, 1.0 / z))

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(1.0 + 0j, 0j)

    @property
    def is_infinity(self) -> bool:
        return self.z2 == 0

    def to_complex(self) -> complex:
        if self.is_infinity:
            raise InvalidInputError("the point at infinity has no affine value")
        return self.z1 / self.z2

    def chart_value(self):
        """(value, inverted): the stored affine coordinate of the chart this
        point lives in.  inverted means the coordinate is 1/z."""
        if self.z2 == 1:
            return self.z1, False
        return self.z2, True

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.to_complex()!r})"


def chordal_distance(a: SpherePoint, b: SpherePoint) -> float:
    num = abs(a.z1 * b.z2 - a.z2 * b.z1)
    den = math.sqrt((abs(a.z1) ** 2 + abs(a.z2) ** 2) * (abs(b.z1) ** 2 + abs(b.z2) ** 2))
    return num / den


@dataclass(frozen=True)
class WeightedFiber:
    """Fiber points with branch indices; base is the point solved over."""

    base: SpherePoint
    points: tuple  # of (SpherePoint, int)

    @property
    def total_multiplicity(self) -> int:
        return sum(e for _, e in self.points)

    def multiplicity_at(self, p: SpherePoint, tol: float) -> int:
        for q, e in self.points:
            if chordal_distance(p, q) <= tol:
                return e
        return 0


@dataclass(frozen=True)
class BranchedSets:
    """The four finite exceptional sets of a correspondence.

    branch_points:   z with a multiple z-root over some w      (bound 2m(m-1)n)
    branch_values:   w over which the z-fiber is branched      (bound 2(m-1)n)
    cobranch_values: w that is a multiple w-root over some z   (bound 2n(n-1)m)
    cobranch_points: z over which the w-fiber is branched      (bound 2(n-1)m)
    """

    branch_points: tuple
    branch_values: tuple
    cobranch_values: tuple
    cobranch_points: tuple


class Correspondence:
    """The zero set of a reduced polynomial p(z,w) viewed as the graph of
    the multivalued map z -> w."""

    def __init__(self, p: BivariatePolynomial, check_squarefree: bool = True):
        if p.deg_z < 1 or p.deg_w < 1:
            raise InvalidInputError(
                "the defining polynomial must have positive degree in z and in w"
            )
        if check_squarefree:
            ok, witness = squarefree_check(p)
            if not ok:
                raise InvalidInputError(
                    f"defining polynomial is not reduced; repeated factor {witness!r}"
                )
        self.p = p
        self.deg_z = p.deg_z
        self.deg_w = p.deg_w
        self._fiber_cache: dict = {}
        # direction -> FloatGrid, or None when a coefficient is beyond float
        # range; built on the first fiber request in that direction
        self._float_grids: dict = {}

    @cached_property
    def _transposed(self) -> BivariatePolynomial:
        """p with z and w exchanged, which forward fibers solve."""
        return self.p.transpose()

    # -- fibers --------------------------------------------------------------

    def backward_fiber(
        self, w: SpherePoint, tol: float = DEFAULT_FIBER_TOL
    ) -> WeightedFiber:
        """All z with p(z, w) = 0, each with its branch index (multiplicity
        of z as a root of p(., w)); indices sum to deg_z."""
        return self._cached_fiber("b", self.p, w, self.deg_z, tol)

    def forward_fiber(
        self, z: SpherePoint, tol: float = DEFAULT_FIBER_TOL
    ) -> WeightedFiber:
        """All w with p(z, w) = 0, with multiplicities in w summing to deg_w."""
        return self._cached_fiber("f", self._transposed, z, self.deg_w, tol)

    def _cached_fiber(self, direction, poly, base, expected, tol):
        key = (direction, base, tol)
        fiber = self._fiber_cache.get(key)
        if fiber is None:
            if len(self._fiber_cache) > 20000:
                self._fiber_cache.clear()
            if direction not in self._float_grids:
                try:
                    self._float_grids[direction] = FloatGrid(poly)
                except OverflowError:
                    self._float_grids[direction] = None
            fiber = self._fiber_cache[key] = self._fiber(
                self._float_grids[direction], poly, base, expected, tol
            )
        return fiber

    @staticmethod
    @np.errstate(all="ignore")
    def _fiber(
        grid: Optional[FloatGrid],
        poly: BivariatePolynomial,
        base: SpherePoint,
        expected: int,
        tol: float,
    ) -> WeightedFiber:
        """The fiber of poly over base, float first, under one
        ``np.errstate``: every overflow or NaN is tested for explicitly.

        poly is specialised at the base point in complex128 (``grid``); its
        companion eigenvalues, with the bits of ``np.roots``, are kept when
        ``certified_roots``, run on Python scalars, proves them simple (so
        the exact polynomial has degree ``expected``, no point at infinity
        and no repeated root) and no two lie within chordal 2 tol,
        so that which roots merge never depends on the path.  Otherwise poly
        is specialised exactly at the chart value, read as x / q with x a
        Gaussian integer and q a power of 2, and ``roots`` solves the
        Gaussian-integer coefficients that come out.  Either way the fiber
        is what ``_chordal_merge`` at tol makes of the roots and the point at
        infinity: two simple roots closer than tol count as one double point.
        """
        v, inverted = base.chart_value()
        found = None if grid is None else certified_roots(
            *grid.specialise(v, inverted), 2 * tol)
        if found is not None:
            # each root is a group of its own; _chordal_merge would say so too,
            # but calling it here cost 14 % of `orbit` ops/s (2 CPUs)
            return WeightedFiber(base=base, points=tuple(_separated_points(found[0])))
        if inverted:
            _, f = poly.univariate_in_z_inverted(v)
        else:
            _, f = poly.univariate_in_z(v)
        if not f:
            raise InvalidInputError(
                "the fiber polynomial vanishes identically; the defining "
                "polynomial has a factor free of one variable"
            )
        pairs, degree = roots(f), len(f) - 1
        if expected > degree:
            pairs.append((None, expected - degree))
        fiber = WeightedFiber(base=base, points=tuple(_chordal_merge(pairs, tol)))
        if fiber.total_multiplicity != expected:
            raise RootFindingError(
                f"fiber multiplicities sum to {fiber.total_multiplicity}, "
                f"expected {expected}"
            )
        return fiber

    def branch_index(self, z: SpherePoint, w: SpherePoint) -> int:
        """Multiplicity of z in the fiber over w, the fiber point within
        chordal 1e-5 of z; (z, w) must lie on the correspondence."""
        e = self.backward_fiber(w).multiplicity_at(z, 1e-5)
        if e == 0:
            raise InvalidInputError(f"({z}, {w}) is not on the correspondence")
        return e

    # -- branched sets -------------------------------------------------------

    def branched_sets(self, restrict_to=None) -> BranchedSets:
        """The four branched sets, decided exactly from resultants; no fiber
        is solved.  ``_branching`` of p's Gaussian-integer grid gives the
        branch points and values, and of its transpose the cobranch values
        and points.

        restrict_to may be "circle" (intersect with the unit circle) or a
        finite list of SpherePoint, each matched within 1e-7.
        """
        grid = self.p.rows
        bp, bv = _branching(grid)
        cv, cp = _branching(list(zip(*grid)))
        sets = (bp, bv, cv, cp)  # in the field order of BranchedSets
        if restrict_to is not None:
            sets = [_restrict(s, restrict_to) for s in sets]
        return BranchedSets(*(tuple(s) for s in sets))

    def branch_points(self, restrict_to=None) -> tuple:
        """``branched_sets(restrict_to).branch_points`` from one
        ``_branching``, of p alone: the cobranch half is never solved."""
        points, _ = _branching(self.p.rows)
        return tuple(points if restrict_to is None else _restrict(points, restrict_to))


def _branching(F):
    """(branch points, branch values) of p = sum c[i][j] z^i w^j, m = deg_z,
    n = deg_w, from F, the grid of p times a positive integer as Gaussian-
    integer (re, im) pairs, rows in z and columns in w
    (``BivariatePolynomial.rows``; ``zip(*F)`` is the transpose):
    the z that are a multiple root of p(., w) for some w on the sphere, and
    the w over which p(., w), a form of degree m, has a multiple root on the
    sphere.  Resultants commute with specialisation (von zur Gathen &
    Gerhard, Modern Computer Algebra, 6.3), so each set is read off exact
    polynomials, and every step runs on Gaussian integers.

    Finite branch points are the roots of Res_w(p, p_z): a common root of
    p(z0, .) and p_z(z0, .) at w = infinity is a multiple root z0 of lc_w(p),
    which is one too (p_z has w-degree n unless lc_w(p) is constant).  Finite
    branch values are the roots of Res_z(p, p_z) / lc_z(p), the discriminant
    of p(., w) as a form of degree m, which drops exactly the spurious roots
    of lc_z(p); the division runs on Gaussian integers (``_zi_quotient``).
    No root depends on the scale of F, of p_z or of the quotient: the
    monic images ``roots`` solves and each exact Newton step are rational
    numbers free of it, each rounded once.  Infinity is a branch point when
    rows m and m - 1 of c, as forms of degree n, share a root on the sphere,
    and a branch value when column n has degree at most m - 2 or a repeated
    root.  Every finite point is its resultant root after
    ``polish_roots``."""
    m, n = len(F) - 1, len(F[0]) - 1
    # p_z as the rows i c[i], i >= 1, without the zero columns at the end
    width = 1 + max(j for row in F[1:] for j, c in enumerate(row) if c != (0, 0))
    F_z = [[(i * x, i * y) for x, y in F[i][:width]] for i in range(1, m + 1)]
    lc, below = _zi_strip(F[m]), _zi_strip(F[m - 1])
    disc = _zi_quotient(resultant_z(F, F_z), lc)
    if disc is None:
        raise RootFindingError("Res_z(p, p_z) is not divisible by lc_z(p)")
    points = _polished_roots(resultant_w(F, F_z))
    values = _polished_roots(disc)
    if max(len(lc), len(below)) <= n or not _xcoprime(lc, below):
        points.append(SpherePoint.infinity())
    top = _zi_strip(row[n] for row in F)
    d_top = [(j * x, j * y) for j, (x, y) in enumerate(top)][1:]
    if len(top) <= m - 1 or not _xcoprime(top, d_top):
        values.append(SpherePoint.infinity())
    return points, values


def _polished_roots(f: list) -> list:
    """The distinct roots of the polynomial with the ascending Gaussian-
    integer coefficients f, each after ``polish_roots``, in
    ``_point_sort_key`` order.  Distinct roots are distinct points however
    close, so the merge runs at tol 0 and joins only coinciding floats."""
    if not f:
        raise InvalidInputError(
            "resultant vanished identically; the polynomial is not reduced"
        )
    estimates = [(c.to_complex(), e) for c, e in _chordal_merge(roots(f), 0.0)]
    found = [SpherePoint.from_complex(z) for z in polish_roots(f, estimates)]
    return sorted(dict.fromkeys(found), key=_point_sort_key)


def _point_sort_key(p: SpherePoint):
    if p.is_infinity:
        return (1, 0.0, 0.0)
    v = p.to_complex()
    return (0, round(v.real, 12), round(v.imag, 12))


def _separated_points(simple) -> list:
    """(SpherePoint, 1) for each of the finite roots simple, pairwise more
    than 2 tol apart, in ``_point_sort_key`` order: what ``_chordal_merge``
    at tol gives for them.

    Adding 0j turns a -0.0 part into 0.0, as the merge's mean does.  The
    sort runs on the real part of the value ``to_complex`` returns, z or
    1 / (1.0 / z), without rounding: rounding to 12 digits is monotone, so
    this is ``_point_sort_key``'s order unless two adjacent real parts lie
    within 2e-12 and could round alike.  Only then are the points sorted
    by ``_point_sort_key`` itself, from the order they came in."""
    pairs, keys = [], []
    for z in simple:
        z += 0j
        p = tuple.__new__(SpherePoint, (z, 1.0 + 0j) if abs(z) <= 1 else (1.0 + 0j, 1.0 / z))
        pairs.append((p, 1))
        keys.append(p.z1.real if p.z2 == 1 else (1 / p.z2).real)
    order = sorted(range(len(pairs)), key=keys.__getitem__)
    if any(keys[j] - keys[i] <= 2e-12 for i, j in zip(order, order[1:])):
        return sorted(pairs, key=lambda pe: _point_sort_key(pe[0]))
    return [pairs[i] for i in order]


def _chordal_merge(pairs, tol: float):
    """Single-linkage merge at chordal tol of (z, multiplicity) pairs, z
    complex or None for infinity, into (SpherePoint, multiplicity) sorted by
    ``_point_sort_key``.  Members go in (real, imag) order, infinity last.  A
    group holding infinity is infinity; any other is its weighted mean in
    the chart of its first member: 1/z when |z| > 2, so that points near
    infinity of opposite sign do not average to 0, else z, which keeps the
    bytes of the plain mean (z*m/m for one point) near the unit circle.
    """
    pairs = sorted(pairs, key=lambda zm: (1, 0.0, 0.0) if zm[0] is None
                   else (0, zm[0].real, zm[0].imag))
    points = [SpherePoint.infinity() if z is None else SpherePoint.from_complex(z)
              for z, _ in pairs]
    n = len(pairs)
    edges = ((i, j) for i in range(n) for j in range(i + 1, n)
             if chordal_distance(points[i], points[j]) <= tol)
    merged = []
    for group in linked_groups(n, edges):
        members = [pairs[i] for i in group]
        total = sum(m for _, m in members)
        if members[-1][0] is None:
            rep = SpherePoint.infinity()
        elif len(members) > 1 and abs(members[0][0]) > 2:
            mean = sum(m / z for z, m in members) / total
            rep = SpherePoint.from_complex(1 / mean) if mean else SpherePoint.infinity()
        else:
            rep = SpherePoint.from_complex(sum(z * m for z, m in members) / total)
        merged.append((rep, total))
    merged.sort(key=lambda pe: _point_sort_key(pe[0]))
    return merged


def _restrict(points, restrict_to):
    if restrict_to == "circle":
        return [p for p in points if not p.is_infinity
                and abs(abs(p.to_complex()) - 1.0) < 1e-7]
    return [q for q in restrict_to if any(chordal_distance(p, q) <= 1e-7 for p in points)]


def unit_circle_points(count: int):
    """Deterministic equispaced sample grid on the unit circle."""
    thetas = (2.0 * math.pi * k / count for k in range(count))
    return [SpherePoint.from_complex(complex(math.cos(t), math.sin(t))) for t in thetas]
