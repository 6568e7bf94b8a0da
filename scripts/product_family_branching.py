#!/usr/bin/env python3
"""Branched points and K-groups for the product family
p(z, w) = (w - z^m)(w - z^n) with m < n.

The two sheets coincide exactly where z^m = z^n; on the unit circle these
are the (n - m)-th roots of unity, and that count b = n - m feeds the
six-term computation: K_0 = Z^b, K_1 = 0.  Exits 1 at the first check that
fails, 1 <= M < N among them.

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
    if not 1 <= m < n:
        print(f"need 1 <= M < N, got M = {m}, N = {n}", file=sys.stderr)
        return 1

    corr = Correspondence(BP.product([BP.graph_of_power(m), BP.graph_of_power(n)]))
    pts = corr.branched_sets(restrict_to="circle").branch_points
    print(f"(w - z^{m})(w - z^{n}): {len(pts)} branched points on the circle")
    for p in sorted(pts, key=lambda q: cmath.phase(q.to_complex()) % (2 * cmath.pi)):
        print(f"  {p.to_complex():.6f}")
    if len(pts) != n - m:
        print(f"{len(pts)} branched points on the circle, expected {n - m}", file=sys.stderr)
        return 1
    for k in range(n - m):
        root = SpherePoint.from_complex(cmath.exp(2j * cmath.pi * k / (n - m)))
        if not any(chordal_distance(p, root) < 1e-7 for p in pts):
            print(f"no branched point within 1e-7 of {root.to_complex():.6f}",
                  file=sys.stderr)
            return 1
    print(f"they are exactly the {n - m}-th roots of unity")

    k0, k1 = pimsner_solve(product_family_input([m, n]))
    print(f"K_0 = {k0.render()}, K_1 = {k1.render()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
