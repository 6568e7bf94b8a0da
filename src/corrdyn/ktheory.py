"""K-theory bookkeeping: Smith normal form over the integers, finitely
generated abelian groups in invariant-factor form, a solver for the
six-term sequence of a Cuntz-Pimsner algebra with torsion-free input data,
and builders for the circle families.  The sequence splits by degree, so
`kgroup_table` reduces each degree's map of the monomial family once.
Its three record types are named tuples, which a one-shot kgroups defines
in a fraction of what three frozen dataclasses and their module cost."""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .errors import InvalidInputError, ResourceLimitError, UndecidedError

__all__ = [
    "IntegerMatrix",
    "AbelianGroupPresentation",
    "PimsnerInput",
    "smith_normal_form",
    "cokernel_and_kernel",
    "pimsner_solve",
    "monomial_family_input",
    "product_family_input",
    "kgroup_table",
]


class IntegerMatrix(namedtuple("IntegerMatrix", "entries")):
    """Dense integer matrix; rows x cols, viewed as a map Z^cols -> Z^rows
    acting on column vectors; entries is a tuple of row tuples."""

    __slots__ = ()

    @staticmethod
    def of(rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data and len({len(r) for r in data}) != 1:
            raise InvalidInputError("ragged matrix")
        return IntegerMatrix(entries=data)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(entries=tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def smith_normal_form(M: IntegerMatrix) -> list:
    """Invariant factors of M: the diagonal d_1 | d_2 | ... >= 0 of its Smith
    normal form, min(rows, cols) entries with the zeros last."""
    rows, cols = M.rows, M.cols
    size = min(rows, cols)
    D = [list(r) for r in M.entries]
    for k in range(size):
        while True:
            nonzero = [
                (abs(D[i][j]), i, j)
                for i in range(k, rows)
                for j in range(k, cols)
                if D[i][j]
            ]
            if not nonzero:
                # the rest of the block is zero, so is the rest of the diagonal
                break
            # move the smallest entry to (k, k) and reduce column k and row k
            # by it; any remainder is smaller and is the next round's pivot
            _, i, j = min(nonzero)
            D[k], D[i] = D[i], D[k]
            for row in D:
                row[k], row[j] = row[j], row[k]
            pivot = D[k][k]
            for i in range(k + 1, rows):
                q = D[i][k] // pivot
                if q:
                    D[i] = [a - q * b for a, b in zip(D[i], D[k])]
            for j in range(k + 1, cols):
                q = D[k][j] // pivot
                if q:
                    for row in D:
                        row[j] -= q * row[k]
            if any(D[i][k] for i in range(k + 1, rows)) or any(D[k][k + 1 :]):
                continue
            # row and column k are clear; the pivot must also divide the
            # rest of the block, else add a row it fails on into row k
            rest = next(
                (i for i in range(k + 1, rows) if any(x % pivot for x in D[i][k + 1 :])),
                None,
            )
            if rest is None:
                break
            D[k] = [a + b for a, b in zip(D[k], D[rest])]
    return [abs(D[i][i]) for i in range(size)]


class AbelianGroupPresentation(namedtuple("AbelianGroupPresentation", "rank torsion")):
    """Z^rank (+) Z/d_1 (+) ... with d_1 | d_2 | ..., each d_i >= 2."""

    __slots__ = ()

    def __new__(cls, rank: int, torsion: tuple = ()):
        if rank < 0 or any(d < 2 for d in torsion):
            raise InvalidInputError("bad group presentation")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise InvalidInputError("torsion must form a divisibility chain")
        return super().__new__(cls, rank, torsion)

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def render(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def cokernel_and_kernel(M: IntegerMatrix):
    """(Z^rows / im(M), ker(M) <= Z^cols) for M : Z^cols -> Z^rows, both
    read off one Smith normal form; the kernel is always free."""
    nonzero = [d for d in smith_normal_form(M) if d]
    return (
        AbelianGroupPresentation(
            rank=M.rows - len(nonzero),
            torsion=tuple(d for d in nonzero if d >= 2),
        ),
        AbelianGroupPresentation(rank=M.cols - len(nonzero)),
    )


class PimsnerInput(namedtuple("PimsnerInput", "K0_IX K1_IX K0_A K1_A map0 map1 label")):
    """Data of the six-term sequence: the groups of the ideal and the base
    algebra in both degrees (AbelianGroupPresentation), the maps j^* - phi^*
    on each degree (IntegerMatrix) and a label.  Torsion-free inputs only."""

    __slots__ = ()

    def __new__(cls, K0_IX, K1_IX, K0_A, K1_A, map0, map1, label: str = ""):
        for g in (K0_IX, K1_IX, K0_A, K1_A):
            if g.torsion:
                raise InvalidInputError("solver accepts torsion-free input groups only")
        if map0.rows != K0_A.rank or map0.cols != K0_IX.rank:
            raise InvalidInputError("map0 shape must be rank K0(A) x rank K0(I_X)")
        if map1.rows != K1_A.rank or map1.cols != K1_IX.rank:
            raise InvalidInputError("map1 shape must be rank K1(A) x rank K1(I_X)")
        return super().__new__(cls, K0_IX, K1_IX, K0_A, K1_A, map0, map1, label)


def pimsner_solve(inp: PimsnerInput):
    """(K_0, K_1) of the quotient algebra from the six-term sequence (Pimsner
    1997; Katsura 2004), which splits by degree, one map's pieces in each:

        K_0 fits in 0 -> coker(map0) -> K_0 -> ker(map1) -> 0
        K_1 fits in 0 -> coker(map1) -> K_1 -> ker(map0) -> 0

    Kernels of integer matrices are free, so both extensions split; the
    solver checks that and raises UndecidedError otherwise."""
    coker0, ker0 = cokernel_and_kernel(inp.map0)
    coker1, ker1 = cokernel_and_kernel(inp.map1)
    return _solve_extension(coker0, ker1), _solve_extension(coker1, ker0)


def _solve_extension(sub, quot):
    if not quot.is_free:
        raise UndecidedError(
            "extension ambiguous: quotient piece has torsion, cannot split"
        )
    return AbelianGroupPresentation(sub.rank + quot.rank, sub.torsion)


def monomial_family_input(m: int, n: int) -> PimsnerInput:
    """Six-term data for z^m = w^n on the circle: the ideal is the whole
    base algebra (no branched points on the circle), both K-groups are Z,
    and the maps are 1 - m in degree 0 and 1 - n in degree 1."""
    if m < 1 or n < 1:
        raise InvalidInputError("exponents must be >= 1")
    Z = AbelianGroupPresentation(rank=1)
    return PimsnerInput(
        K0_IX=Z,
        K1_IX=Z,
        K0_A=Z,
        K1_A=Z,
        map0=IntegerMatrix.of([[1 - m]]),
        map1=IntegerMatrix.of([[1 - n]]),
        label=f"monomial({m},{n})",
    )


def product_family_input(exponents: Sequence[int]) -> PimsnerInput:
    """Six-term data for prod_i (w - z^{m_i}) on the circle with r >= 2
    distinct exponents.  The ideal sits over the b branched points on the
    circle: K_0(I_X) = 0, K_1(I_X) = Z^b.  In degree 1 the inclusion sums
    the coordinates and the left action multiplies by r (each branched point
    is an r-fold coincidence), so the map is the row (1-r, ..., 1-r).
    ``CircleCorrespondence.power_product`` checks the exponents and builds
    the correspondence."""
    from .families import CircleCorrespondence

    cc = CircleCorrespondence.power_product(exponents)
    b = len(cc.to_correspondence().branch_points(restrict_to="circle"))
    r = len(cc.params)
    Z = AbelianGroupPresentation(rank=1)
    return PimsnerInput(
        K0_IX=AbelianGroupPresentation(rank=0),
        K1_IX=AbelianGroupPresentation(rank=b),
        K0_A=Z,
        K1_A=Z,
        map0=IntegerMatrix.zero(1, 0),
        map1=IntegerMatrix.of([[1 - r] * b]),
        label=f"product({','.join(map(str, cc.params))})",
    )


def kgroup_table(max_m: int, max_n: int):
    """Rows (m, n, K_0, K_1) for the monomial family over the full grid.
    By the degree split of `pimsner_solve` (both extensions split, as kernels
    are free), each entry pairs the pieces of map0 = [1 - m], which depends
    on m alone, with those of map1 = [1 - n], the maps of
    ``monomial_family_input`` built directly: max_m + max_n Smith normal
    forms in all, and one group per cokernel and kernel rank (kernels are free).
    A bound above 20 is refused as a resource limit."""
    if max_m < 1 or max_n < 1:
        raise InvalidInputError("table bounds must be >= 1")
    if max_m > 20 or max_n > 20:
        raise ResourceLimitError("table bounds capped at 20")
    maps = [IntegerMatrix.of([[1 - k]]) for k in range(1, max(max_m, max_n) + 1)]
    degree0 = [cokernel_and_kernel(a) for a in maps[:max_m]]
    degree1 = [cokernel_and_kernel(a) for a in maps[:max_n]]
    ranks0, ranks1 = ({ker.rank: ker for _, ker in d}.items() for d in (degree0, degree1))
    K0 = [{r: _solve_extension(coker, ker) for r, ker in ranks1} for coker, _ in degree0]
    K1 = [{r: _solve_extension(coker, ker) for r, ker in ranks0} for coker, _ in degree1]
    return [(m, n, K0[m - 1][ker1.rank], K1[n - 1][ker0.rank])
            for m, (_, ker0) in enumerate(degree0, 1)
            for n, (_, ker1) in enumerate(degree1, 1)]
