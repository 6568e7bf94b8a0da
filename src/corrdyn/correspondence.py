"""Algebraic correspondences p(z,w)=0 on the Riemann sphere: projective
points, fibers in both directions with multiplicities, and branched sets.

Every fiber request is one solve in the affine chart where the base point
lives; nothing is kept per base point.  The float path is one pass of the
float engine, ``floats.FloatGrid.certified_points``, from the chart value
to the sorted fiber points or to undecided: the companion eigenvalues of
the complex128 coefficients, kept when disjoint inclusion discs prove each
root simple and no two lie within chordal 2 tol.  Otherwise (a multiple point, a root near another, a
NaN root, a vanishing leading coefficient, a non-finite base) the chart
value is read exactly as x / q, x a Gaussian integer and q a power of 2,
and the fiber comes out of the exact squarefree machinery on the integers
of p specialised there, so multiplicities never rest on float luck.  One
single-linkage merge in the chordal metric, ``_chordal_merge``, decides
which fiber roots are one point; points of large modulus and the point at
infinity merge naturally.  The branched sets solve no fiber: each is
decided exactly from resultants and leading coefficients, with each gcd
test at infinity decided modulo a prime first, and its finite points are
the distinct roots of an exact polynomial, each refined by
``polish_roots``.  All of it runs on the one Gaussian-integer grid of p
over its least denominator (``BivariatePolynomial.rows``) and its
transpose, with no Fraction arithmetic from the parsed input to the
printed points.  This module imports no numpy: a ``Correspondence``
imports the float engine, ``corrdyn.floats``, when it builds its first
``FloatGrid``, so building one and reading its degrees loads none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .errors import InvalidInputError, RootFindingError
from .polyalg import (
    BivariatePolynomial,
    _xcoprime,
    _zi_quotient,
    _zi_strip,
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


class WeightedFiber(tuple):
    """The fiber over base, the point solved over: points is a tuple of
    (SpherePoint, branch index).  A tuple (base, points), as SpherePoint is
    one, at less cost than a frozen dataclass."""

    __slots__ = ()
    base = property(itemgetter(0))
    points = property(itemgetter(1))

    def __new__(cls, base: SpherePoint, points: tuple):
        return tuple.__new__(cls, (base, points))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def total_multiplicity(self) -> int:
        return sum(e for _, e in self.points)


class BranchedSets(namedtuple(
        "BranchedSets", "branch_points branch_values cobranch_values cobranch_points")):
    """The four finite exceptional sets of a correspondence, each a tuple.

    branch_points:   z with a multiple z-root over some w      (bound 2m(m-1)n)
    branch_values:   w over which the z-fiber is branched      (bound 2(m-1)n)
    cobranch_values: w that is a multiple w-root over some z   (bound 2n(n-1)m)
    cobranch_points: z over which the w-fiber is branched      (bound 2(n-1)m)

    A named tuple, as SpherePoint is a tuple: a frozen dataclass costs about
    a millisecond to define, which every process that imports this module
    pays.
    """

    __slots__ = ()


class Correspondence:
    """The zero set of a reduced polynomial p(z,w) viewed as the graph of
    the multivalued map z -> w.  Every fiber request is one ``_fiber`` solve
    on the direction's ``FloatGrid``, made on its first request."""

    def __init__(self, p: BivariatePolynomial, check_squarefree: bool = True):
        if p.deg_z < 1 or p.deg_w < 1:
            raise InvalidInputError(
                "the defining polynomial must have positive degree in z and in w"
            )
        if check_squarefree:
            ok, witness, what = squarefree_check(p)
            if not ok:
                raise InvalidInputError(
                    f"defining polynomial is not reduced; {what} {witness!r}"
                )
        self.p = p
        self.deg_z = p.deg_z
        self.deg_w = p.deg_w
        # direction -> FloatGrid, or None when a coefficient is beyond float range
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
        return self._fiber(self._grid("b", self.p), self.p, w, self.deg_z, tol)

    def forward_fiber(
        self, z: SpherePoint, tol: float = DEFAULT_FIBER_TOL
    ) -> WeightedFiber:
        """All w with p(z, w) = 0, with multiplicities in w summing to deg_w."""
        poly = self._transposed
        return self._fiber(self._grid("f", poly), poly, z, self.deg_w, tol)

    def _grid(self, direction: str, poly: BivariatePolynomial):
        """The direction's ``floats.FloatGrid``, built on its first fiber,
        which imports the float engine, or None when a coefficient is beyond
        float range."""
        if direction not in self._float_grids:
            from .floats import FloatGrid

            try:
                self._float_grids[direction] = FloatGrid(poly)
            except OverflowError:
                self._float_grids[direction] = None
        return self._float_grids[direction]

    @staticmethod
    def _fiber(
        grid,
        poly: BivariatePolynomial,
        base: SpherePoint,
        expected: int,
        tol: float,
    ) -> WeightedFiber:
        """The fiber of poly over base, float first, solved afresh each call.

        ``grid.certified_points`` takes the base point's chart value through
        poly's complex128 grid to the sorted fiber points in one pass: the
        companion eigenvalues, with the bits of ``np.roots``, are kept when
        inclusion discs, run on Python scalars, prove them simple (so the
        exact polynomial has degree ``expected``, no point at infinity and
        no repeated root) and no two lie within chordal 2 tol, so that
        which roots merge never depends on the path.  Otherwise poly
        is specialised exactly at the chart value, read as x / q with x a
        Gaussian integer and q a power of 2, and ``roots`` solves the
        Gaussian-integer coefficients that come out; infinity is read off their
        degree drop and 0 off their zero low-order terms.  Either way the fiber
        is what ``_chordal_merge`` at tol makes of the roots and the point at
        infinity: two simple roots closer than tol count as one double point.
        """
        v, inverted = base.chart_value()
        if grid is not None:
            points = grid.certified_points(v, inverted, 2 * tol)
            if points is not None:
                return WeightedFiber(base, points)
        _, f = (poly.univariate_in_z_inverted if inverted else poly.univariate_in_z)(v)
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
