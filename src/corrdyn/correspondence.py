"""Algebraic correspondences p(z,w)=0 on the Riemann sphere: projective
points, fibers in both directions with multiplicities, and branched sets.

Fibers are computed in the affine chart where the base point lives; the
coefficient polynomial is evaluated exactly (floats lift exactly to
rationals), so multiplicities at exactly representable points come out of
the exact squarefree machinery rather than float luck.  Points of large
modulus and the point at infinity are handled through the chordal metric,
which merges them naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidInputError, RootFindingError
from .polyalg import (
    BivariatePolynomial,
    GaussianRational,
    UnivariatePolynomial,
    linked_groups,
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
DEFAULT_ONCURVE_TOL = 1e-9
DEFAULT_RESTRICT_TOL = 1e-7


@dataclass(frozen=True)
class SpherePoint:
    """Point [z1 : z2] of the complex projective line.

    Normalized so that max(|z1|, |z2|) = 1 and the larger-modulus coordinate
    is exactly 1 (real positive); ties go to z2, so finite points with
    |z| <= 1 are stored as (z, 1) and the rest as (1, 1/z).
    """

    z1: complex
    z2: complex

    @staticmethod
    def from_complex(z: complex) -> "SpherePoint":
        z = complex(z)
        if abs(z) <= 1:
            return SpherePoint(z, 1.0 + 0j)
        return SpherePoint(1.0 + 0j, 1.0 / z)

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

    def exact_chart_value(self):
        v, inverted = self.chart_value()
        return (
            GaussianRational(Fraction(v.real), Fraction(v.imag)),
            inverted,
        )

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(inf)"
        return f"SpherePoint({self.to_complex()!r})"


def chordal_distance(a: SpherePoint, b: SpherePoint) -> float:
    num = abs(a.z1 * b.z2 - a.z2 * b.z1)
    den = math.sqrt(
        (abs(a.z1) ** 2 + abs(a.z2) ** 2) * (abs(b.z1) ** 2 + abs(b.z2) ** 2)
    )
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

    def __init__(
        self,
        p: BivariatePolynomial,
        factors: Optional[Sequence[BivariatePolynomial]] = None,
        check_squarefree: bool = True,
    ):
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
        self.factors = tuple(factors) if factors else None
        if self.factors:
            prod = BivariatePolynomial.product(self.factors)
            if prod.scalar_ratio_to(p) is None:
                raise InvalidInputError(
                    "supplied factors do not multiply to the defining polynomial"
                )
        self._transposed = p.transpose()
        self._fiber_cache: dict = {}

    # -- membership ---------------------------------------------------------

    def on_correspondence(
        self, z: SpherePoint, w: SpherePoint, tol: float = DEFAULT_ONCURVE_TOL
    ) -> bool:
        # p in separately homogeneous coordinates, so that points at infinity
        # count too: sum c[i][j] z1^i z2^(m-i) w1^j w2^(n-j)
        m, n = self.deg_z, self.deg_w
        val = 0j
        for i, row in enumerate(self.p.coeffs):
            zterm = z.z1**i * z.z2 ** (m - i)
            for j, c in enumerate(row):
                if c:
                    val += complex(c) * zterm * w.z1**j * w.z2 ** (n - j)
        return abs(val) < tol * max(1.0, self.p.coeff_abs_sum())

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
        if key not in self._fiber_cache:
            if len(self._fiber_cache) > 20000:
                self._fiber_cache.clear()
            self._fiber_cache[key] = self._fiber(poly, base, expected, tol)
        return self._fiber_cache[key]

    @staticmethod
    def _fiber(
        poly: BivariatePolynomial, base: SpherePoint, expected: int, tol: float
    ) -> WeightedFiber:
        v, inverted = base.exact_chart_value()
        if inverted:
            f = poly.univariate_in_z_inverted(v)
        else:
            f = poly.univariate_in_z(v)
        if f.is_zero:
            raise InvalidInputError(
                "the fiber polynomial vanishes identically; the defining "
                "polynomial has a factor free of one variable"
            )
        inf_mult = expected - f.degree
        pairs = []
        if inf_mult > 0:
            pairs.append((SpherePoint.infinity(), inf_mult))
        for cluster in roots(f, tol):
            pairs.append(
                (SpherePoint.from_complex(cluster.center), cluster.multiplicity)
            )
        merged = _chordal_merge(pairs, tol)
        fiber = WeightedFiber(base=base, points=tuple(merged))
        if fiber.total_multiplicity != expected:
            raise RootFindingError(
                f"fiber multiplicities sum to {fiber.total_multiplicity}, "
                f"expected {expected}"
            )
        return fiber

    def branch_index(
        self, z: SpherePoint, w: SpherePoint, tol: float = DEFAULT_FIBER_TOL
    ) -> int:
        """Multiplicity of z in the fiber over w; (z, w) must lie on the
        correspondence."""
        e = self.backward_fiber(w, tol).multiplicity_at(z, max(tol, 1e-5))
        if e == 0:
            raise InvalidInputError(f"({z}, {w}) is not on the correspondence")
        return e

    # -- branched sets -------------------------------------------------------

    def branched_sets(
        self,
        restrict_to=None,
        tol: float = DEFAULT_FIBER_TOL,
        restrict_tol: float = DEFAULT_RESTRICT_TOL,
    ) -> BranchedSets:
        """Compute the four branched sets from resultant candidates, each
        verified by direct fiber recomputation (spurious resultant roots at
        vanishing leading coefficients are dropped unless a genuine multiple
        point exists there).

        restrict_to may be "circle" (intersect with the unit circle) or a
        finite list of SpherePoint.
        """
        p = self.p
        p_z = p.partial_z() if p.deg_z >= 1 else None
        p_w = p.partial_w() if p.deg_w >= 1 else None

        def verify_branch_value(w):
            return any(e >= 2 for _, e in self.backward_fiber(w, tol).points)

        def verify_branch_point(z):
            for w, _ in self.forward_fiber(z, tol).points:
                if self.backward_fiber(w, tol).multiplicity_at(z, max(tol, 1e-5)) >= 2:
                    return True
            return False

        def verify_cobranch_value(w):
            for z, _ in self.backward_fiber(w, tol).points:
                if self.forward_fiber(z, tol).multiplicity_at(w, max(tol, 1e-5)) >= 2:
                    return True
            return False

        def verify_cobranch_point(z):
            return any(e >= 2 for _, e in self.forward_fiber(z, tol).points)

        bv = self._verified_candidates(
            resultant_z(p, p_z), verify_branch_value, tol
        )
        bp = self._verified_candidates(
            resultant_w(p, p_z), verify_branch_point, tol
        )
        cv = self._verified_candidates(
            resultant_z(p, p_w), verify_cobranch_value, tol
        )
        cp = self._verified_candidates(
            resultant_w(p, p_w), verify_cobranch_point, tol
        )
        if restrict_to is not None:
            bp = _restrict(bp, restrict_to, restrict_tol)
            bv = _restrict(bv, restrict_to, restrict_tol)
            cv = _restrict(cv, restrict_to, restrict_tol)
            cp = _restrict(cp, restrict_to, restrict_tol)
        return BranchedSets(
            branch_points=tuple(bp),
            branch_values=tuple(bv),
            cobranch_values=tuple(cv),
            cobranch_points=tuple(cp),
        )

    @staticmethod
    def _verified_candidates(res: UnivariatePolynomial, verify, tol: float):
        candidates = [SpherePoint.infinity()]
        if res.is_zero:
            raise InvalidInputError(
                "resultant vanished identically; the polynomial is not reduced"
            )
        if res.degree > 0:
            for cluster in roots(res, tol):
                candidates.append(SpherePoint.from_complex(cluster.center))
        deduped = []
        for c in candidates:
            if all(chordal_distance(c, d) > 1e-9 for d in deduped):
                deduped.append(c)
        out = [c for c in deduped if verify(c)]
        out.sort(key=_point_sort_key)
        return out


def _point_sort_key(p: SpherePoint):
    if p.is_infinity:
        return (1, 0.0, 0.0)
    v = p.to_complex()
    return (0, round(v.real, 12), round(v.imag, 12))


def _chordal_merge(pairs, tol: float):
    """Single-linkage merge of (SpherePoint, multiplicity) at chordal tol."""
    pairs = list(pairs)
    n = len(pairs)
    edges = (
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if chordal_distance(pairs[i][0], pairs[j][0]) <= tol
    )
    merged = []
    for group in linked_groups(n, edges):
        members = [pairs[i] for i in group]
        total = sum(e for _, e in members)
        rep = max(members, key=lambda pe: pe[1])[0]
        merged.append((rep, total))
    merged.sort(key=lambda pe: _point_sort_key(pe[0]))
    return merged


def _restrict(points, restrict_to, restrict_tol: float):
    if restrict_to == "circle":
        kept = []
        for p in points:
            if p.is_infinity:
                continue
            if abs(abs(p.to_complex()) - 1.0) < restrict_tol:
                kept.append(p)
        return kept
    kept = []
    for q in restrict_to:
        if any(chordal_distance(p, q) <= restrict_tol for p in points):
            kept.append(q)
    return kept


def unit_circle_points(count: int):
    """Deterministic equispaced sample grid on the unit circle."""
    out = []
    for k in range(count):
        theta = 2.0 * math.pi * k / count
        out.append(SpherePoint.from_complex(complex(math.cos(theta), math.sin(theta))))
    return out
