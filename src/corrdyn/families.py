"""The circle families: correspondences invariant on the unit circle, named
by their exponents alone, and the closed forms that read nothing else:
expansiveness, the component count and freeness.  With ktheory's builders
they answer kgroups, expansive and free, so this module imports neither
numpy nor the polynomial machinery; ``to_correspondence`` loads that on
first use.  ``dynamics`` re-exports the class."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional, Sequence

from .errors import InvalidInputError

__all__ = [
    "CircleCorrespondence",
    "expansive_decide",
    "component_count",
    "free_decide",
]

# most bits of m^r, the arc scale at the expansiveness oracle's last step r
# (r * m.bit_length() bounds it): 10 000 steps for m = 2; the CLI also
# holds the bits of m^r and of the seed arcs' denominators together to it.
# The oracle's integer steps no longer grow with r, so this over-bounds them
STEP_BITS_CAP = 20_000
# most points one chaos-game run may sample (iterations x workers), and most
# paths free --sample may draw (samples x deg_w^N), which the CLI checks
# before it builds a grid
SAMPLE_CAP = 1_000_000


class CircleCorrespondence(namedtuple("CircleCorrespondence", "kind params")):
    """Correspondence family invariant on the unit circle.

    kind "monomial":        z^m - w^n, params (m, n)
    kind "power_product":   prod_i (w - z^{m_i}), params = exponents
    kind "mixed_product":   prod_k (z^{i_k} - w^{j_k}), params = pairs

    A named tuple rather than a frozen dataclass, whose definition alone
    costs about a millisecond of every one-shot command.
    """

    __slots__ = ()

    @staticmethod
    def monomial(m: int, n: int) -> "CircleCorrespondence":
        if m < 1 or n < 1:
            raise InvalidInputError("monomial exponents must be >= 1")
        return CircleCorrespondence(kind="monomial", params=(m, n))

    @staticmethod
    def power_product(exponents: Sequence[int]) -> "CircleCorrespondence":
        exps = tuple(int(e) for e in exponents)
        if len(exps) < 2 or len(set(exps)) != len(exps) or min(exps) < 1:
            raise InvalidInputError(
                "power product needs at least two distinct exponents >= 1"
            )
        return CircleCorrespondence(kind="power_product", params=exps)

    @staticmethod
    def mixed_product(pairs) -> "CircleCorrespondence":
        ps = tuple((int(i), int(j)) for i, j in pairs)
        if not ps or min(min(p) for p in ps) < 1:
            raise InvalidInputError("mixed product needs pairs of exponents >= 1")
        return CircleCorrespondence(kind="mixed_product", params=ps)

    @property
    def m(self) -> int:
        self._require_monomial()
        return self.params[0]

    @property
    def n(self) -> int:
        self._require_monomial()
        return self.params[1]

    @property
    def d(self) -> int:
        return math.gcd(self.m, self.n)

    @property
    def deg_w(self) -> int:
        """deg_w of the family's polynomial, read off its exponents."""
        if self.kind == "monomial":
            return self.params[1]
        if self.kind == "power_product":
            return len(self.params)  # one w per factor w - z^e
        return sum(j for _, j in self.params)

    def _require_monomial(self):
        if self.kind != "monomial":
            raise InvalidInputError(f"operation requires the monomial family, got {self.kind}")

    def to_correspondence(self):
        """The family's ``Correspondence``: its coefficient grid, checked for
        squarefreeness by the constructor only for the mixed family."""
        from .correspondence import Correspondence
        from .polyalg import BivariatePolynomial as BP

        if self.kind == "monomial":
            # squarefree: z^m - w^n is coprime to its z-derivative m z^(m-1)
            return Correspondence(
                BP.monomial_relation(self.m, self.n), check_squarefree=False
            )
        if self.kind == "power_product":
            # squarefree: the factors w - z^e are distinct and irreducible
            return Correspondence(
                BP.product([BP.graph_of_power(e) for e in self.params]),
                check_squarefree=False,
            )
        return Correspondence(BP.product([BP.monomial_relation(i, j) for i, j in self.params]))


def expansive_decide(cc: CircleCorrespondence) -> bool:
    """Criterion for the monomial family: expansive on the circle iff
    m does not divide n."""
    return cc.n % cc.m != 0


def component_count(cc: CircleCorrespondence) -> int:
    """Number of connected components of the circle correspondence:
    gcd(m, n)."""
    return cc.d


def free_decide(cc: CircleCorrespondence) -> Optional[bool]:
    """Apply the family criteria for freeness on the circle.

    True/False where a criterion decides, None (undecided) otherwise:
    the single-factor relation z^m = w^n is free iff m != n; a product of
    factors z^{i_k} = w^{j_k} is free when every factor has an exponent
    other than 1 and the exponents other than 1 are pairwise coprime; the
    pair (w - z^m)(w^m - z), m >= 2, is not free (the 4-periodic and
    2-periodic paths through z^m coincide everywhere)."""
    if cc.kind == "monomial":
        return cc.params[0] != cc.params[1]
    if cc.kind == "power_product":
        pairs = tuple((e, 1) for e in cc.params)
    else:
        pairs = cc.params
    if len(pairs) == 1:
        return pairs[0][0] != pairs[0][1]
    if len(pairs) == 2:
        # (z^m - w)(z - w^m), m >= 2: explicit non-free pair
        (i1, j1), (i2, j2) = pairs
        if i1 == j2 and j1 == i2 == 1 and i1 >= 2:
            return False
        if i2 == j1 and j2 == i1 == 1 and i2 >= 2:
            return False
    specials = []
    for i, j in pairs:
        if i == 1 and j == 1:
            return None
        specials.extend(e for e in (i, j) if e != 1)
    for a in range(len(specials)):
        for b in range(a + 1, len(specials)):
            if math.gcd(specials[a], specials[b]) != 1:
                return None
    return True
