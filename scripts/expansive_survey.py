#!/usr/bin/env python3
"""Survey expansiveness of the circle restriction of z^m = w^n and confirm
each decision with the arc-propagation covering oracle; exit 1 at the first
pair where they disagree.

The decision rule is: expansive iff m does not divide n.  For each pair the
oracle starts from a short seed arc and iterates the multivalued map until
the arcs cover the circle (expansive) or stabilize without covering.

Usage: python3 scripts/expansive_survey.py [MAX]
"""

import sys
from fractions import Fraction

from corrdyn.dynamics import ArcSet, expansive_oracle
from corrdyn.families import CircleCorrespondence, component_count, expansive_decide


def main():
    top = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    seed = ArcSet.from_arcs([(Fraction(0), Fraction(1, 64))])
    print(f"{'m':>3} {'n':>3} {'expansive':>10} {'oracle':>7} {'steps':>6} "
          f"{'components':>11}")
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            cc = CircleCorrespondence.monomial(m, n)
            decision = expansive_decide(cc)
            covered, steps = expansive_oracle(cc, seed, max_steps=64)
            if covered != decision:
                print(f"(m, n) = ({m}, {n}): the rule says expansive={decision}, "
                      f"the oracle covered={covered}", file=sys.stderr)
                return 1
            print(f"{m:>3} {n:>3} {str(decision):>10} {str(covered):>7} "
                  f"{steps if covered else '-':>6} {component_count(cc):>11}")
    print("oracle agrees with the divisibility rule on every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
