"""The branch-index-weighted inner product, norms, bases, the tensor/path
isometry, and a truncated Fock representation over finite invariant sets.

Continuous functions are represented by evaluable closed forms sampled on
deterministic grids; everything over a finite invariant set J is exact
(integer branch indices, Gaussian-rational matrix entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .correspondence import (
    Correspondence,
    SpherePoint,
    chordal_distance,
    unit_circle_points,
)
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

DEFAULT_GRID = 512


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
    label: str = ""

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


def _default_w_samples(count: int = DEFAULT_GRID):
    return unit_circle_points(count)


def norm2(
    corr: Correspondence,
    f: SampledFunction,
    w_samples: Optional[Sequence[SpherePoint]] = None,
    tol: float = 1e-6,
) -> float:
    """||f||_2 = sup_w (f|f)_A(w)^(1/2) over the sample grid."""
    ws = list(w_samples) if w_samples is not None else _default_w_samples()
    best = 0.0
    for w in ws:
        val = inner_product(corr, f, f, w, tol).real
        best = max(best, val)
    return math.sqrt(max(0.0, best))


def norm_inf(
    corr: Correspondence,
    f: SampledFunction,
    w_samples: Optional[Sequence[SpherePoint]] = None,
    tol: float = 1e-6,
) -> float:
    """Sup norm of f over fiber points above the sample grid."""
    ws = list(w_samples) if w_samples is not None else _default_w_samples()
    best = 0.0
    for w in ws:
        for z, _ in corr.backward_fiber(w, tol).points:
            best = max(best, abs(complex(f(z, w))))
    return best


def monomial_basis_element(m: int, i: int) -> SampledFunction:
    """u_i(z, w) = z^i / sqrt(m), the i-th element of ``monomial_basis(m)``."""
    if not 0 <= i < m or m > 2**1000:
        raise InvalidInputError(f"basis element needs 0 <= i < m <= 2^1000, got {i}, {m}")
    root = math.sqrt(m)
    return SampledFunction("correspondence", lambda z, w: z.to_complex() ** i / root,
                           label=f"u_{i}")


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
    w_samples: Optional[Sequence[SpherePoint]] = None,
    tol: float = 1e-6,
) -> float:
    """Max deviation over the sample grid between the recursive tensor inner
    product and the direct weighted path-space sum for
    (f_1 (x) ... (x) f_n | g_1 (x) ... (x) g_n)_A."""
    n = len(f_list)
    if n != len(g_list):
        raise InvalidInputError("lists must have equal length")
    if not 1 <= n <= 3:
        raise InvalidInputError("tensor length must be between 1 and 3")
    ws = list(w_samples) if w_samples is not None else _default_w_samples(64)

    def recursive(k: int, w: SpherePoint) -> complex:
        # inner product of the first k factors, evaluated at w
        total = 0j
        for z, e in corr.backward_fiber(w, tol).points:
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
        for path in paths_ending_at(corr, w, n, tol):
            prod = complex(path.weight)
            for k in range(n):
                zk, zk1 = path.points[k], path.points[k + 1]
                prod *= complex(f_list[k](zk, zk1)).conjugate() * complex(
                    g_list[k](zk, zk1)
                )
            total += prod
        return total

    return max(abs(recursive(n, w) - direct(w)) for w in ws)


def ideal_membership(
    corr: Correspondence,
    a: SampledFunction,
    restrict_to="circle",
    tol: float = 1e-9,
) -> bool:
    """Whether a lies in the ideal of the module: |a| < tol on every branch
    point of the correspondence inside J."""
    if a.domain != "base":
        raise InvalidInputError("ideal membership applies to base functions")
    sets = corr.branched_sets(restrict_to=restrict_to)
    return all(abs(complex(a(z))) < tol for z in sets.branch_points)


# ---------------------------------------------------------------------------
# finite invariant sets, exactly


@dataclass(frozen=True)
class FiniteBimodule:
    """The module over a finite invariant set J: vertices and weighted
    edges (z_index, w_index, branch_index)."""

    J: tuple  # of SpherePoint
    edges: tuple  # of (int, int, int)

    @staticmethod
    def build(
        corr: Correspondence, points: Sequence, tol: float = 1e-7
    ) -> "FiniteBimodule":
        J = tuple(
            p if isinstance(p, SpherePoint) else SpherePoint.from_complex(complex(p))
            for p in points
        )
        ok, witness = invariant_check(corr, J, tol)
        if not ok:
            raise InvalidInputError(f"set is not invariant: escapes via {witness}")
        edges = []
        m = corr.p.deg_z
        for wi, w in enumerate(J):
            fiber = corr.backward_fiber(w)
            total = 0
            for z, e in fiber.points:
                zi = min(range(len(J)), key=lambda i: chordal_distance(J[i], z))
                if chordal_distance(J[zi], z) > tol:
                    raise InvalidInputError(
                        f"fiber point {z} not within {tol} of the given set"
                    )
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

    def creation_matrix(self, edge_index: int, k: int):
        """T_{delta_edge}: level k -> level k+1 (zero matrix when k = K)."""
        return _path_creation(self, self.base.edges[edge_index][:2], k)

    def annihilation_matrix(self, edge_index: int, k: int):
        """T_{delta_edge}^*: level k -> level k-1, scaled by the branch
        index of the edge."""
        _, _, e = self.base.edges[edge_index]
        return _scaled_transpose(self.creation_matrix(edge_index, k - 1), e)

    def left_action_matrix(self, a: dict, k: int):
        """Diagonal action of a in C(J) on level k: multiply by a at the
        first vertex of the path."""
        paths = self.blocks[k]
        M = _zeros(len(paths), len(paths))
        for i, q in enumerate(paths):
            M[i][i] = a.get(q[0], 0)
        return M


def _zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def _matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(cols):
                    row[j] += a * Bt[j]
    return out


def _scaled_transpose(M, s):
    """s times the transpose of the matrix M."""
    return [[s * M[r][c] for r in range(len(M))] for c in range(len(M[0]) if M else 0)]


def _matsub_maxabs(A, B) -> float:
    dev = 0.0
    for ra, rb in zip(A, B):
        for x, y in zip(ra, rb):
            dev = max(dev, abs(x - y))
    return dev


def fock_build(fb: FiniteBimodule, K: int, path_cap: int = PATH_CAP) -> FockTruncation:
    """Enumerate the path bases of the first K+1 Fock levels."""
    if K < 0 or K > 8:
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
        if len(nxt) > path_cap:
            raise ResourceLimitError(
                f"path basis exceeded {path_cap} elements; lower K"
            )
        blocks.append(tuple(sorted(nxt)))
    return FockTruncation(base=fb, K=K, blocks=tuple(blocks))


def fock_relation_check(ft: FockTruncation) -> float:
    """Max deviation of T_xi^* T_eta from the left action of (xi|eta)_A over
    all pairs of edge indicators, on levels strictly below the truncation.
    Exact arithmetic: the result should be exactly 0."""
    fb = ft.base
    dev = 0.0
    for ei in range(len(fb.edges)):
        for ej in range(len(fb.edges)):
            zi, wi, e_i = fb.edges[ei]
            zj, wj, _ = fb.edges[ej]
            ip = {}  # (delta_ei | delta_ej)_A as a function on J
            if ei == ej:
                ip[wi] = Fraction(e_i)
            for k in range(ft.K):
                lhs = _matmul(
                    ft.annihilation_matrix(ei, k + 1), ft.creation_matrix(ej, k)
                )
                rhs = ft.left_action_matrix(ip, k)
                dev = max(dev, _matsub_maxabs(lhs, rhs))
    return dev


def _path_creation(ft: FockTruncation, x: tuple, k: int):
    """Matrix of T_{delta_x} for a path basis vector x, level k -> k+i."""
    i = len(x) - 1
    if k + i > ft.K:
        return _zeros(0, len(ft.blocks[k]))
    src, dst = ft.blocks[k], ft.blocks[k + i]
    index = {path: r for r, path in enumerate(dst)}
    M = _zeros(len(dst), len(src))
    for c, q in enumerate(src):
        if q[0] == x[-1]:
            M[index[x[:-1] + q]][c] = Fraction(1)
    return M


def _path_weight(fb: FiniteBimodule, x: tuple) -> int:
    weight = 1
    lookup = {(z, w): e for z, w, e in fb.edges}
    for a, b in zip(x, x[1:]):
        weight *= lookup[(a, b)]
    return weight


def vanishing_lemma_check(
    ft: FockTruncation, a: dict, x: tuple, y: tuple
) -> bool:
    """Check a T_x T_y^* a^* = 0 for basis paths x (level i) and y (level j),
    i != j, after verifying the hypothesis a(z_1) conj(a(u_1)) = 0 over all
    pairs of level-i and level-j paths sharing an endpoint."""
    i, j = len(x) - 1, len(y) - 1
    if i == j:
        raise InvalidInputError("the lemma requires i != j")
    if x not in ft.blocks[i] or y not in ft.blocks[j]:
        raise InvalidInputError("x and y must be basis paths of their levels")
    for p in ft.blocks[i]:
        for q in ft.blocks[j]:
            if p[-1] == q[-1]:
                prod = a.get(p[0], 0) * a.get(q[0], 0).conjugate()
                if prod != 0:
                    raise InvalidInputError(
                        f"hypothesis fails: a({p[0]})a({q[0]}) != 0 for the "
                        f"path pair {p} / {q}"
                    )
    w_y = _path_weight(ft.base, y)
    a_conj = {v: val.conjugate() for v, val in a.items()}
    for k in range(0, ft.K - max(i, j) + 1):
        # T_y^*: level k+j -> level k is w_y times the transpose of creation
        ann_y = _scaled_transpose(_path_creation(ft, y, k), w_y)
        # operator on level k+j: La . T_x . T_y^* . La*
        M = _matmul(ann_y, ft.left_action_matrix(a_conj, k + j))
        M = _matmul(_path_creation(ft, x, k), M)
        M = _matmul(ft.left_action_matrix(a, k + i), M)
        for row in M:
            for entry in row:
                if entry != 0:
                    return False
    return True


def fock_report(ft: FockTruncation) -> dict:
    """JSON-ready summary: block dimensions and the relation deviation."""
    return {
        "levels": ft.K,
        "block_dims": list(ft.block_dims),
        "edges": [[z, w, e] for z, w, e in ft.base.edges],
        "relation_max_deviation": float(fock_relation_check(ft)),
    }
