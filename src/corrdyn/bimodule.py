"""The branch-index-weighted inner product, norms, bases, the tensor/path
isometry, and a truncated Fock representation over finite invariant sets.

Continuous functions are represented by evaluable closed forms sampled on
deterministic grids; everything over a finite invariant set J is exact:
branch indices are integers, and each Fock creation operator is a map from
the path basis of one level to that of the next, so the Fock relations are
checked by composing these maps in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .correspondence import Correspondence, SpherePoint, chordal_distance
from .dynamics import PATH_CAP, invariant_check, paths_ending_at
from .errors import InvalidInputError, ResourceLimitError

__all__ = [
    "SampledFunction",
    "FiniteBimodule",
    "FockTruncation",
    "inner_product",
    "norm2",
    "norm_inf",
    "monomial_basis",
    "monomial_basis_element",
    "tensor_isometry_check",
    "ideal_membership",
    "fock_build",
    "fock_relation_check",
    "vanishing_lemma_check",
    "fock_report",
]


@dataclass(frozen=True)
class SampledFunction:
    """An evaluable function on one of the three domains.

    domain "correspondence": fn(z, w) with z, w SpherePoint, (z, w) on C_p.
    domain "path":           fn(points) with a tuple of n+1 SpherePoints.
    domain "base":           fn(z) with z a SpherePoint of J.
    """

    domain: str
    fn: Callable
    path_length: int = 1

    def __post_init__(self):
        if self.domain not in ("correspondence", "path", "base"):
            raise InvalidInputError(f"unknown domain {self.domain!r}")

    def __call__(self, *args):
        return self.fn(*args)


def inner_product(
    corr: Correspondence,
    f: SampledFunction,
    g: SampledFunction,
    w: SpherePoint,
    tol: float = 1e-6,
) -> complex:
    """(f|g)_A(w) = sum over the fiber (or path space) ending at w, weighted
    by branch indices."""
    if f.domain != g.domain:
        raise InvalidInputError(
            f"domain mismatch: {f.domain} vs {g.domain}"
        )
    if f.domain == "correspondence":
        total = 0j
        for z, e in corr.backward_fiber(w, tol).points:
            total += e * complex(f(z, w)).conjugate() * complex(g(z, w))
        return total
    if f.domain == "path":
        n = f.path_length
        if g.path_length != n:
            raise InvalidInputError("path lengths differ")
        total = 0j
        for path in paths_ending_at(corr, w, n, tol):
            total += (
                path.weight
                * complex(f(path.points)).conjugate()
                * complex(g(path.points))
            )
        return total
    raise InvalidInputError("inner_product needs correspondence or path domain")


def norm2(
    corr: Correspondence, f: SampledFunction, w_samples: Sequence[SpherePoint]
) -> float:
    """||f||_2 = sup_w (f|f)_A(w)^(1/2) over the sample grid."""
    best = 0.0
    for w in w_samples:
        best = max(best, inner_product(corr, f, f, w).real)
    return math.sqrt(max(0.0, best))


def norm_inf(
    corr: Correspondence, f: SampledFunction, w_samples: Sequence[SpherePoint]
) -> float:
    """Sup norm of f over fiber points above the sample grid."""
    best = 0.0
    for w in w_samples:
        for z, _ in corr.backward_fiber(w).points:
            best = max(best, abs(complex(f(z, w))))
    return best


def monomial_basis_element(m: int, i: int) -> SampledFunction:
    """u_i(z, w) = z^i / sqrt(m), the i-th element of ``monomial_basis(m)``."""
    if not 0 <= i < m or m > 2**1000:
        raise InvalidInputError(f"basis element needs 0 <= i < m <= 2^1000, got {i}, {m}")
    root = math.sqrt(m)
    return SampledFunction("correspondence", lambda z, w: z.to_complex() ** i / root)


def monomial_basis(m: int):
    """u_i(z, w) = z^i / sqrt(m) for i = 0..m-1: an orthonormal module basis
    for the family z^m = w^n restricted to the circle."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    return [monomial_basis_element(m, i) for i in range(m)]


def tensor_isometry_check(
    corr: Correspondence,
    f_list: Sequence[SampledFunction],
    g_list: Sequence[SampledFunction],
    w_samples: Sequence[SpherePoint],
) -> float:
    """Max deviation over the sample grid between the recursive tensor inner
    product and the direct weighted path-space sum for
    (f_1 (x) ... (x) f_n | g_1 (x) ... (x) g_n)_A."""
    n = len(f_list)
    if n != len(g_list):
        raise InvalidInputError("lists must have equal length")
    if not 1 <= n <= 3:
        raise InvalidInputError("tensor length must be between 1 and 3")

    def recursive(k: int, w: SpherePoint) -> complex:
        # inner product of the first k factors, evaluated at w
        total = 0j
        for z, e in corr.backward_fiber(w).points:
            middle = recursive(k - 1, z) if k > 1 else 1.0
            total += (
                e
                * complex(f_list[k - 1](z, w)).conjugate()
                * middle
                * complex(g_list[k - 1](z, w))
            )
        return total

    def direct(w: SpherePoint) -> complex:
        total = 0j
        for path in paths_ending_at(corr, w, n):
            prod = complex(path.weight)
            for k in range(n):
                zk, zk1 = path.points[k], path.points[k + 1]
                prod *= complex(f_list[k](zk, zk1)).conjugate() * complex(
                    g_list[k](zk, zk1)
                )
            total += prod
        return total

    return max(abs(recursive(n, w) - direct(w)) for w in w_samples)


def ideal_membership(corr: Correspondence, a: SampledFunction) -> bool:
    """Whether a lies in the ideal of the module: |a| < 1e-9 on every branch
    point of the correspondence on the unit circle."""
    if a.domain != "base":
        raise InvalidInputError("ideal membership applies to base functions")
    return all(abs(complex(a(z))) < 1e-9 for z in corr.branch_points(restrict_to="circle"))


# ---------------------------------------------------------------------------
# finite invariant sets, exactly


@dataclass(frozen=True)
class FiniteBimodule:
    """The module over a finite invariant set J: vertices and weighted
    edges (z_index, w_index, branch_index)."""

    J: tuple  # of SpherePoint
    edges: tuple  # of (int, int, int)

    @staticmethod
    def build(corr: Correspondence, points: Sequence) -> "FiniteBimodule":
        """The module over J = points, with an edge (z index, w index, branch
        index) for each point z within 1e-7 of J over each w in J, from the
        backward fibers ``invariant_check`` solved: two solves per point."""
        J = tuple(
            p if isinstance(p, SpherePoint) else SpherePoint.from_complex(complex(p))
            for p in points
        )
        fibers = []
        ok, witness = invariant_check(corr, J, backward=fibers)
        if not ok:
            raise InvalidInputError(f"set is not invariant: escapes via {witness}")
        edges = []
        m = corr.p.deg_z
        for wi, fiber in enumerate(fibers):
            total = 0
            for z, e in fiber.points:
                zi = min(range(len(J)), key=lambda i: chordal_distance(J[i], z))
                if chordal_distance(J[zi], z) > 1e-7:
                    raise InvalidInputError(f"fiber point {z} not within 1e-7 of the given set")
                edges.append((zi, wi, e))
                total += e
            if fiber.points and total != m:
                raise InvalidInputError(
                    f"fiber over index {wi} has total weight {total}, expected {m}"
                )
        return FiniteBimodule(J=J, edges=tuple(sorted(edges)))


@dataclass(frozen=True)
class FockTruncation:
    """Truncated Fock module over a FiniteBimodule: level-k basis is the set
    of paths with k edges through J (level 0 = the points of J themselves).
    Creation from level K maps to zero by convention."""

    base: FiniteBimodule
    K: int
    blocks: tuple  # blocks[k] = tuple of vertex-index tuples of length k+1

    @property
    def block_dims(self):
        return tuple(len(b) for b in self.blocks)

    @cached_property
    def _levels(self):
        # per level: the row of each path (its last one, should a path
        # repeat) and the columns grouped by their first vertex
        levels = []
        for paths in self.blocks:
            starts = {}
            for c, q in enumerate(paths):
                starts.setdefault(q[0], []).append(c)
            levels.append(({q: r for r, q in enumerate(paths)}, starts))
        return tuple(levels)

    def creation_map(self, x: tuple, k: int) -> dict:
        """T_{delta_x} for a basis path x with i edges, level k -> k+i, as a
        column -> row map of its 1 entries; a column it sends to 0 is absent,
        and so is every column when k + i > K."""
        i = len(x) - 1
        if k + i > self.K:
            return {}
        src, row = self.blocks[k], self._levels[k + i][0]
        return {c: row[x[:-1] + src[c]] for c in self._levels[k][1].get(x[-1], ())}


def fock_build(fb: FiniteBimodule, K: int) -> FockTruncation:
    """Enumerate the path bases of the first K+1 Fock levels."""
    if K < 0:
        raise InvalidInputError(f"Fock truncation level must be >= 0, got {K}")
    if K > 8:
        raise ResourceLimitError("Fock truncation level must be between 0 and 8")
    out_edges = {}
    for z, w, _ in fb.edges:
        out_edges.setdefault(z, []).append(w)
    blocks = [tuple((v,) for v in range(len(fb.J)))]
    for _ in range(K):
        nxt = []
        for q in blocks[-1]:
            for w in out_edges.get(q[-1], ()):
                nxt.append(q + (w,))
        if len(nxt) > PATH_CAP:
            raise ResourceLimitError(f"path basis exceeded {PATH_CAP} elements; lower K")
        blocks.append(tuple(sorted(nxt)))
    return FockTruncation(base=fb, K=K, blocks=tuple(blocks))


def fock_relation_check(ft: FockTruncation) -> float:
    """Max deviation of T_xi^* T_eta from the left action of (xi|eta)_A over
    all pairs of edge indicators, on levels strictly below the truncation.
    Exact arithmetic: the result should be exactly 0.

    T_eta is the creation map of eta and T_xi^* is e_xi times the transpose
    of xi's, so column c of T_xi^* T_eta holds e_xi at each column that xi's
    map sends to the row T_eta(c).  (delta_xi|delta_eta)_A is e_eta at the
    range vertex of eta when xi = eta and 0 otherwise, so both sides vanish
    on the columns that T_eta sends to 0, and only the others are visited.
    Each map is a function c -> r, so one pass per level suffices: for the
    (edge, column) pairs L reaching a row r, column c of T_xi^* T_eta holds
    e_xi at each (xi, c') in L where the right side holds e_eta at (eta, c)
    alone, which agree as eta's map takes only columns starting at its
    range vertex.  So r deviates by max |e_xi| over L if |L| >= 2, else 0."""
    dev = 0.0
    for k in range(ft.K):
        first = {}  # row of level k+1 -> |e| of the first edge mapping to it
        for z, w, e in ft.base.edges:
            for r in ft.creation_map((z, w), k).values():
                if r in first:
                    dev = max(dev, first[r], abs(e))
                else:
                    first[r] = abs(e)
    return dev


def vanishing_lemma_check(
    ft: FockTruncation, a: dict, x: tuple, y: tuple
) -> bool:
    """Check a T_x T_y^* a^* = 0 for basis paths x (level i) and y (level j),
    i != j, after verifying the hypothesis a(z_1) conj(a(u_1)) = 0 over all
    pairs of level-i and level-j paths sharing an endpoint.

    The hypothesis decides it: the operator is 0 unless x and y share their
    endpoint, and then each of its entries is a(x[0]) conj(a(y[0])) times an
    integer, which the hypothesis makes 0.  The level-j paths are grouped by
    endpoint, so the scan is linear and names the first failing pair."""
    i, j = len(x) - 1, len(y) - 1
    if i == j:
        raise InvalidInputError("the lemma requires i != j")
    if x not in ft.blocks[i] or y not in ft.blocks[j]:
        raise InvalidInputError("x and y must be basis paths of their levels")
    first = {}
    for q in ft.blocks[j]:
        if a.get(q[0], 0):
            first.setdefault(q[-1], q)
    for p in ft.blocks[i]:
        q = first.get(p[-1])
        if q is not None and a.get(p[0], 0) * a.get(q[0], 0).conjugate() != 0:
            raise InvalidInputError(
                f"hypothesis fails: a({p[0]})a({q[0]}) != 0 for the "
                f"path pair {p} / {q}"
            )
    return True


def fock_report(ft: FockTruncation) -> dict:
    """JSON-ready summary: block dimensions and the relation deviation."""
    return {
        "levels": ft.K,
        "block_dims": list(ft.block_dims),
        "edges": [[z, w, e] for z, w, e in ft.base.edges],
        "relation_max_deviation": float(fock_relation_check(ft)),
    }
