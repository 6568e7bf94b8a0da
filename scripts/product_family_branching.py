#!/usr/bin/env python3
"""Branched points and K-groups for the product family
p(z, w) = (w - z^m)(w - z^n) with m < n.

The two sheets coincide exactly where z^m = z^n; on the unit circle these
are the (n - m)-th roots of unity, and that count b = n - m feeds the
six-term computation: K_0 = Z^b, K_1 = 0.

Usage: python3 scripts/product_family_branching.py [M] [N]
"""

import cmath
import sys

from corrdyn.correspondence import Correspondence, SpherePoint, chordal_distance
from corrdyn.ktheory import pimsner_solve, product_family_input
from corrdyn.polyalg import BivariatePolynomial as BP


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    assert 1 <= m < n

    corr = Correspondence(BP.product([BP.graph_of_power(m), BP.graph_of_power(n)]))
    pts = corr.branched_sets(restrict_to="circle").branch_points
    print(f"(w - z^{m})(w - z^{n}): {len(pts)} branched points on the circle")
    for p in sorted(pts, key=lambda q: cmath.phase(q.to_complex()) % (2 * cmath.pi)):
        print(f"  {p.to_complex():.6f}")
    assert len(pts) == n - m
    for k in range(n - m):
        root = SpherePoint.from_complex(cmath.exp(2j * cmath.pi * k / (n - m)))
        assert any(chordal_distance(p, root) < 1e-7 for p in pts)
    print(f"they are exactly the {n - m}-th roots of unity")

    k0, k1 = pimsner_solve(product_family_input([m, n]))
    print(f"K_0 = {k0.render()}, K_1 = {k1.render()}")


if __name__ == "__main__":
    main()
