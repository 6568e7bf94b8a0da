#!/usr/bin/env python3
"""The correspondence z^2 + w^2 = 1 restricted to the invariant finite set
J = {0, 1, -1}: build the branch-index-weighted bimodule, the truncated
Fock representation, and verify the inner-product relation exactly; exit 1
at the first check that fails.
"""

import sys

from corrdyn.bimodule import (
    FiniteBimodule,
    fock_build,
    fock_relation_check,
    fock_report,
    vanishing_lemma_check,
)
from corrdyn.correspondence import Correspondence, SpherePoint
from corrdyn.dynamics import invariant_check
from corrdyn.polyalg import BivariatePolynomial


def failed(message):
    print(message, file=sys.stderr)
    return 1


def main():
    # z^2 + w^2 - 1, coefficient grid indexed by (z power, w power)
    p = BivariatePolynomial([[-1, 0, 1], [0], [1]])
    corr = Correspondence(p)

    J = [SpherePoint.from_complex(complex(v)) for v in (0, 1, -1)]
    ok, witness = invariant_check(corr, J)
    if not ok or witness is not None:
        return failed(f"J = {{0, 1, -1}} is not invariant: escapes via {witness}")
    print("J = {0, 1, -1} is invariant")

    fb = FiniteBimodule.build(corr, [0, 1, -1])
    print(f"weighted edges (z_idx, w_idx, branch index): {fb.edges}")

    ft = fock_build(fb, 3)
    rep = fock_report(ft)
    print(f"Fock levels 0..3, block dims {rep['block_dims']}")
    if rep["block_dims"] != [3, 4, 6, 8]:
        return failed(f"block dims {rep['block_dims']}, expected [3, 4, 6, 8]")

    dev = fock_relation_check(ft)
    print(f"max deviation in T_xi^* T_eta = phi((xi|eta)): {dev}")
    if dev != 0:
        return failed(f"the Fock relations deviate by {dev}")

    # the transition graph is bipartite (0 <-> {1,-1}); a function supported
    # on one side satisfies the vanishing hypothesis across parity classes
    a = {1: 1}
    if not vanishing_lemma_check(ft, a, ft.blocks[1][0], ft.blocks[2][0]):
        return failed("the vanishing lemma fails for a = indicator of {1} at levels (1, 2)")
    print("vanishing lemma verified for a = indicator of {1} at levels (1, 2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
