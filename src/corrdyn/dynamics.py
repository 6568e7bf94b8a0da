"""Dynamics of a correspondence: forward path spaces, invariant sets,
expansiveness and freeness machinery, and chaos-game sampling.

The circle families (z^m = w^n and products of power graphs, the
``families.CircleCorrespondence`` that this module re-exports) get exact
treatment: subsets of the circle are finite unions of half-open arcs with
rational endpoints, so "the propagated set equals the whole circle" is a
decidable statement.  Everything else is numerical sampling over fibers.
Backward path spaces, reachable-set propagation of finite sets and of arc
sets are oracles in tests/support.py.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .correspondence import (
    DEFAULT_FIBER_TOL,
    Correspondence,
    SpherePoint,
    chordal_distance,
)
from .errors import InvalidInputError, ResourceLimitError
from .families import SAMPLE_CAP, CircleCorrespondence

__all__ = [
    "PathSample",
    "ArcSet",
    "CircleCorrespondence",
    "GPReport",
    "GPSampleReport",
    "path_space",
    "invariant_check",
    "expansive_oracle",
    "gp_enumerate",
    "gp_sample",
    "circle_sampler",
    "sphere_sampler",
    "limit_set_sample",
]

# most paths a path space or a Fock level may hold
PATH_CAP = 200_000
# most base points an inner-product grid may hold; SAMPLE_CAP (families)
# bounds the points one chaos-game run may sample
GRID_CAP = 100_000
# most line crossings (plus one per line) one GP enumeration may visit
GP_WORK_CAP = 500_000
# most arc-steps one expansiveness oracle may run: seed arcs x (max_steps +
# 16, the cost of bringing the seed to one denominator q), each weighted by
# 1 + b // 2048 for the b bits of q, the size of its integers.  Sized so
# that the largest admitted run ends within 2 s: an arc-step took 0.3-0.4 us
# at small b and 2.3 us at b = 16 384
ORACLE_WORK_CAP = 3_000_000
# chaos-game steps discarded before sampling starts
BURN_IN = 100


# ---------------------------------------------------------------------------
# path spaces over a general correspondence


@dataclass(frozen=True)
class PathSample:
    """A chain (z_1, ..., z_{n+1}) with consecutive pairs on the
    correspondence; weight is the product of the branch indices."""

    points: tuple  # of SpherePoint
    weight: int

    @property
    def end(self) -> SpherePoint:
        return self.points[-1]


def _check_path_count(starts: int, deg: int, n: int) -> None:
    """Refuse when starts * deg^n, the most length-n paths there can be,
    exceeds PATH_CAP; deg^n > PATH_CAP once n reaches PATH_CAP.bit_length(),
    so the exponent stops there."""
    if starts * deg ** min(n, PATH_CAP.bit_length()) > PATH_CAP:
        raise ResourceLimitError(f"{starts} * {deg}^{n} paths may exceed {PATH_CAP}; lower n")


def path_space(
    corr: Correspondence,
    start_set: Sequence[SpherePoint],
    n: int,
    tol: float = 1e-6,
):
    """All length-n forward paths starting in start_set."""
    if n < 1:
        raise InvalidInputError("path length must be >= 1")
    _check_path_count(len(start_set), corr.deg_w, n)
    paths = [PathSample(points=(p,), weight=1) for p in start_set]
    for _ in range(n):
        nxt = []
        for path in paths:
            for w, e in corr.forward_fiber(path.end, tol):
                nxt.append(PathSample(points=path.points + (w,), weight=path.weight * e))
        paths = nxt
    return paths


def invariant_check(
    corr: Correspondence, points: Sequence[SpherePoint], tol: float = 1e-7,
    edges: Optional[list] = None,
):
    """Whether the finite set is invariant under fibers in both directions,
    each fiber point matched to the first point of the set within tol, the
    only one when no two lie within 2 tol.  Returns (True, None) or (False,
    (base, escaping_point)); each backward fiber point appends (its match's
    index, the base's index, its branch index) to edges, if that is a list."""
    pts, edges = list(points), [] if edges is None else edges

    def match(q):
        return next((i for i, p in enumerate(pts) if chordal_distance(q, p) <= tol), None)

    for wi, p in enumerate(pts):
        for w, _ in corr.forward_fiber(p):
            if match(w) is None:
                return False, (p, w)
        for z, e in corr.backward_fiber(p):
            zi = match(z)
            if zi is None:
                return False, (p, z)
            edges.append((zi, wi, e))
    return True, None


# ---------------------------------------------------------------------------
# exact arc arithmetic on the circle R/Z


@dataclass(frozen=True)
class ArcSet:
    """Finite union of half-open arcs [a, b) on R/Z with rational endpoints,
    normalized: 0 <= a < b <= 1, sorted, pairwise disjoint, adjacent arcs
    merged."""

    arcs: tuple  # of (Fraction, Fraction)

    @staticmethod
    def from_arcs(raw) -> "ArcSet":
        """Normalize a list of (a, b) with b > a; arcs of length >= 1 mean
        the full circle; endpoints are reduced mod 1."""
        segments = []
        for a, b in raw:
            a, b = Fraction(a), Fraction(b)
            length = b - a
            if length <= 0:
                raise InvalidInputError(f"empty or reversed arc [{a}, {b})")
            if length >= 1:
                return ArcSet(arcs=((Fraction(0), Fraction(1)),))
            a -= math.floor(a)
            b = a + length
            if b <= 1:
                segments.append((a, b))
            else:
                segments.append((a, Fraction(1)))
                segments.append((Fraction(0), b - 1))
        segments.sort()
        merged = []
        for a, b in segments:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return ArcSet(arcs=tuple(merged))

    @property
    def is_full(self) -> bool:
        # normalized arcs cover the circle only as the one arc [0, 1); the
        # measure would sum over every denominator
        return self.arcs == ((0, 1),)

    @staticmethod
    def from_json(data) -> "ArcSet":
        return ArcSet.from_arcs(
            [(Fraction(na, da), Fraction(nb, db)) for na, da, nb, db in data]
        )


# ---------------------------------------------------------------------------
# the expansiveness oracle of the monomial family


def _integer_arcs(seed: ArcSet, q: int):
    """[(A, L), ...]: the seed arcs as [A/q, (A + L)/q) over q, a common
    multiple of their endpoints' denominators."""
    out = []
    for a, b in seed.arcs:
        start = a.numerator * (q // a.denominator)
        out.append((start, b.numerator * (q // b.denominator) - start))
    return out


def _covers(arcs, q: int) -> bool:
    """Whether the integer arcs [y, y + l), 0 <= y < q, cover R/qZ."""
    pieces = []
    for y, length in arcs:
        if length >= q:
            return True
        end = y + length
        if end <= q:
            pieces.append((y, end))
        else:
            pieces.append((y, q))
            pieces.append((0, end - q))
    pieces.sort()
    reach = 0
    for a, b in pieces:
        if a > reach:
            return False
        reach = max(reach, b)
    return reach >= q


def expansive_oracle(
    cc: CircleCorrespondence, seed: ArcSet, max_steps: int = 64
):
    """(covered, steps): whether some iterate of the arc propagation reaches
    the full circle within max_steps, by an exact covering test per step.

    With d = gcd(m, n), the r-step image of a seed U is the union over k
    of (m^r U + d^(r-1) k) / n^r, i.e. translates of m^r U / n^r by the
    lattice of spacing d^(r-1) / n^r.  It covers the circle iff the arcs
    m^r U, reduced modulo d^(r-1), cover a full period.  With the seed arcs
    [A/q, (A + L)/q) over one denominator q and e = m/d, that is a test on
    integers: m^r U mod d^(r-1) is d^(r-1)/q times the arcs
    [A s mod q, A s mod q + L s) with s = m e^(r-1), which must cover
    [0, q).  These integer arcs go from step r to r + 1 by one
    multiplication by e, the start reduced mod q; a length stays below q
    until its step covers, so every step costs about the same.  Refused
    before the first step when the weighted arc-steps exceed
    ORACLE_WORK_CAP."""
    cc._require_monomial()
    if not seed.arcs:
        raise InvalidInputError("the seed arc set must be nonempty")
    if seed.is_full:
        return True, 0
    # q, the lcm of the denominators, is built arc by arc and refused as soon
    # as the weight 1 + b // 2048 of its b bits passes what the budget leaves
    words, q = ORACLE_WORK_CAP // (len(seed.arcs) * (max_steps + 16)), 1
    for arc in seed.arcs:
        q = math.lcm(q, *(x.denominator for x in arc))
        if q.bit_length() >= 2048 * words:
            raise ResourceLimitError(
                f"{len(seed.arcs)} seed arcs over {max_steps} steps pass "
                f"{ORACLE_WORK_CAP} weighted arc-steps; lower the steps or the arcs"
            )
    m, e = cc.m, cc.m // cc.d
    arcs = _integer_arcs(seed, q)
    arcs = [(a * m % q, length * m) for a, length in arcs]
    for r in range(1, max_steps + 1):
        if _covers(arcs, q):
            return True, r
        arcs = [(a * e % q, length * e) for a, length in arcs]
    return False, max_steps


# ---------------------------------------------------------------------------
# generalized periodic points


@dataclass(frozen=True)
class GPReport:
    """Exact enumeration result for generalized periodic points."""

    N: int
    finite: bool
    angles: tuple  # of Fraction, the points' circle angles; empty when infinite
    certificate: str


def gp_enumerate(cc: CircleCorrespondence, N: int) -> GPReport:
    """Exact generalized periodic points of the monomial family up to path
    length N: intersections of the torus line families of two different
    iteration lengths, computed on integers.

    The length-r endpoint relation is the family of lines beta = (m^r alpha
    + k d^(r-1)) / n^r (mod 1), 0 <= k < n^r / d^(r-1), and length 0 is beta
    = alpha.  For lengths s < r everything is scaled by n^r: the length-r
    lines have offsets C1 = 0, D, 2D, ... below n^r with D = d^(r-1); the
    length-s offsets with their integer translates are the multiples of G =
    d^(s-1) n^(r-s) (G = n^r for s = 0); and delta = m^r - m^s n^(r-s) is the
    difference of the scaled slopes.  The line at C1 meets the length-s
    lines at alpha = u / |delta| for the integers 0 <= u < |delta| with u =
    -sign(delta) C1 mod G, each at the angle beta = (m^r u + C1 |delta|) /
    (n^r |delta|) mod 1.  The angles are collected as integers over one
    common denominator and only the distinct ones become Fractions.  Refused
    before any work when N > 6 or when the crossings visited, plus one per
    length-r line, exceed GP_WORK_CAP."""
    cc._require_monomial()
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    if N > 6:
        raise ResourceLimitError(
            "generalized-periodic enumeration refused for N > 6 "
            "(quadratic blowup in line pairs)"
        )
    m, n, d = cc.m, cc.n, cc.d
    if m == n:
        return GPReport(
            N=N,
            finite=False,
            angles=(),
            certificate="diagonal paths (z, z, ..., z) make every circle point "
            "generalized periodic",
        )
    pairs = [
        (r, d ** (r - 1), d ** (s - 1) * n ** (r - s) if s else n**r, m**r - m**s * n ** (r - s))
        for r in range(1, N + 1)
        for s in range(r)
    ]
    work = sum(n**r // D * (-(-abs(delta) // G) + 1) for r, D, G, delta in pairs)
    if work > GP_WORK_CAP:
        raise ResourceLimitError(
            f"GP({N}) of monomial ({m},{n}) visits {work} line crossings, "
            f"more than {GP_WORK_CAP}; lower N"
        )
    # every angle over one common denominator L, the lcm of the pairs' n^r |delta|
    L = math.lcm(*(n**r * abs(delta) for r, _, _, delta in pairs))
    betas = set()
    for r, D, G, delta in pairs:
        sign, width = (1, delta) if delta > 0 else (-1, -delta)
        lift = L // (n**r * width)
        slope = m**r * lift
        for c1 in range(0, n**r, D):
            start = c1 * width * lift
            betas.update((slope * u + start) % L for u in range(-sign * c1 % G, width, G))
    return GPReport(
        N=N,
        finite=True,
        angles=tuple(Fraction(x, L) for x in sorted(betas)),
        certificate=f"exact intersection of torus line families for lengths 0..{N}",
    )


@dataclass(frozen=True)
class GPSampleReport:
    """Heuristic sampled estimate of the generalized periodic set; density
    is the fraction of sampled start points witnessing a length coincidence."""

    N: int
    samples: int
    density: float


def gp_sample(
    corr: Correspondence,
    sampler: Callable[[random.Random], SpherePoint],
    N: int,
    samples: int,
    seed: int = 0,
):
    """Sample start points, grow all forward paths to each length <= N and
    flag endpoints reached at two different lengths, within the chordal
    fiber tolerance.  Heuristic only."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        z = sampler(rng)
        by_length = [[z]]
        for _ in range(N):
            by_length.append([w for p in by_length[-1] for w, _ in corr.forward_fiber(p)])
        hits += any(
            chordal_distance(a, b) <= DEFAULT_FIBER_TOL
            for r in range(N + 1)
            for s in range(r + 1, N + 1)
            for a in by_length[r]
            for b in by_length[s]
        )
    return GPSampleReport(N=N, samples=samples, density=hits / samples if samples else 0.0)


def circle_sampler(rng: random.Random) -> SpherePoint:
    theta = 2 * math.pi * rng.random()
    return SpherePoint.from_complex(complex(math.cos(theta), math.sin(theta)))


def sphere_sampler(rng: random.Random) -> SpherePoint:
    # uniform on the sphere via the chordal-symmetric construction
    u = rng.random()
    theta = 2 * math.pi * rng.random()
    r = math.sqrt(u / max(1e-12, 1 - u))
    return SpherePoint.from_complex(complex(r * math.cos(theta), r * math.sin(theta)))


# ---------------------------------------------------------------------------
# chaos-game orbit sampling


def limit_set_sample(
    corr: Correspondence,
    iterations: int,
    seed: int,
    direction: str = "backward",
    start: Optional[SpherePoint] = None,
    workers: int = 1,
):
    """Chaos-game orbit: repeatedly jump to a fiber point chosen with
    probability proportional to its branch index, keeping the points after
    the first BURN_IN.  Deterministic for a fixed (seed, workers) pair; the
    merged output is worker-ordered."""
    if iterations < 1 or workers < 1:
        raise InvalidInputError("iterations and workers must be >= 1")
    if iterations * workers > SAMPLE_CAP:
        raise ResourceLimitError(
            f"{iterations} iterations x {workers} workers exceed {SAMPLE_CAP} points"
        )
    if direction not in ("forward", "backward", "mixed"):
        raise InvalidInputError(f"unknown direction {direction!r}")
    out = []
    for widx in range(workers):
        rng = random.Random(seed * 1000003 + widx)
        p = start if start is not None else sphere_sampler(rng)
        for i in range(iterations + BURN_IN):
            step_dir = direction
            if direction == "mixed":
                step_dir = "forward" if rng.random() < 0.5 else "backward"
            if step_dir == "backward":
                pts, degree = corr.backward_fiber(p), corr.deg_z
            else:
                pts, degree = corr.forward_fiber(p), corr.deg_w
            if len(pts) == degree:  # all simple: rng.choices' pick and draw at unit weights
                p = pts[math.floor(rng.random() * degree)][0]
            else:
                p = rng.choices([q for q, _ in pts], weights=[e for _, e in pts], k=1)[0]
            if i >= BURN_IN:
                out.append(p)
    return out
