#!/usr/bin/env python3
"""Print the K-group table for the monomial family z^m = w^n and check it
against the closed-form answer; exit 1 at the first (m, n) that differs.

Usage: python3 scripts/monomial_kgroup_table.py [MAX_M] [MAX_N]
"""

import sys

from corrdyn.ktheory import AbelianGroupPresentation, kgroup_table


def closed_form(m, n):
    Z = AbelianGroupPresentation
    if m == 1 and n == 1:
        return Z(2), Z(2)
    if n == 1:
        return (Z(1, (m - 1,)) if m > 2 else Z(1)), Z(1)
    if m == 1:
        return Z(1), (Z(1, (n - 1,)) if n > 2 else Z(1))
    return (
        Z(0, (m - 1,)) if m > 2 else Z(0),
        Z(0, (n - 1,)) if n > 2 else Z(0),
    )


def main():
    max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    max_n = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    rows = kgroup_table(max_m, max_n)
    print(f"{'m':>3} {'n':>3}  {'K_0':<14} {'K_1':<14}")
    for m, n, k0, k1 in rows:
        print(f"{m:>3} {n:>3}  {k0.render():<14} {k1.render():<14}")
        if (k0, k1) != closed_form(m, n):
            want = " / ".join(g.render() for g in closed_form(m, n))
            print(f"(m, n) = ({m}, {n}) differs from the closed form {want}", file=sys.stderr)
            return 1
    print(f"all {len(rows)} entries match the closed form")
    return 0


if __name__ == "__main__":
    sys.exit(main())
