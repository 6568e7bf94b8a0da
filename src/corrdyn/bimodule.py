"""The branch-index-weighted inner product of functions on the
correspondence, an orthonormal module basis of the monomial family, and a
truncated Fock representation over finite invariant sets.

Functions on the correspondence are plain callables f(z, w) of two
SpherePoints, evaluated on deterministic grids; everything over a finite
invariant set J is exact: branch indices are integers, and each Fock
creation operator is a map from the path basis of one level to that of the
next, so the Fock relations are checked by composing these maps in exact
arithmetic.  The checks of the paper's other lemmas (norms, the
tensor/path isometry, the vanishing lemma) are oracles in tests/support.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .correspondence import Correspondence, SpherePoint, chordal_distance
from .dynamics import PATH_CAP, invariant_check
from .errors import InvalidInputError, ResourceLimitError

__all__ = [
    "FiniteBimodule",
    "FockTruncation",
    "inner_product",
    "monomial_basis_element",
    "fock_build",
    "fock_relation_check",
    "fock_report",
]


def inner_product(
    corr: Correspondence,
    f: Callable,
    g: Callable,
    w: SpherePoint,
    tol: float = 1e-6,
) -> complex:
    """(f|g)_A(w) = sum over the backward fiber over w of e(z) conj(f(z, w))
    g(z, w), weighted by the branch indices e; f and g are callables of two
    SpherePoints (z, w) on the correspondence."""
    total = 0j
    for z, e in corr.backward_fiber(w, tol):
        total += e * complex(f(z, w)).conjugate() * complex(g(z, w))
    return total


def monomial_basis_element(m: int, i: int) -> Callable:
    """u_i(z, w) = z^i / sqrt(m); for i = 0..m-1 these form an orthonormal
    module basis for the family z^m = w^n restricted to the circle."""
    if not 0 <= i < m or m > 2**1000:
        raise InvalidInputError(f"basis element needs 0 <= i < m <= 2^1000, got {i}, {m}")
    root = math.sqrt(m)
    return lambda z, w: z.to_complex() ** i / root


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
        index) for each point z over each w in J, z matched within 1e-7 by
        ``invariant_check``: two solves per point.  Refused before any solve
        when two points of J lie within chordal 2e-7, where a fiber point
        could match either; otherwise its match is its nearest point of J."""
        J = tuple(
            p if isinstance(p, SpherePoint) else SpherePoint.from_complex(complex(p))
            for p in points
        )
        for j, q in enumerate(J):
            for i in range(j):
                if chordal_distance(J[i], q) <= 2e-7:
                    raise InvalidInputError(
                        f"points {i} and {j} of the set lie within chordal 2e-7 of each other"
                    )
        edges = []
        ok, witness = invariant_check(corr, J, edges=edges)
        if not ok:
            raise InvalidInputError(f"set is not invariant: escapes via {witness}")
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


def fock_report(ft: FockTruncation) -> dict:
    """JSON-ready summary: block dimensions and the relation deviation."""
    return {
        "levels": ft.K,
        "block_dims": list(ft.block_dims),
        "edges": [[z, w, e] for z, w, e in ft.base.edges],
        "relation_max_deviation": float(fock_relation_check(ft)),
    }
