"""The three workloads, one round at a time.

A round is a generator that yields ``Op`` objects and receives each op's
parsed JSON report back (``None`` when the op failed), so an op can be
derived from the output of the one before it (``fibers`` at reported
branch values).  Round k of seed s draws its inputs from
``random.Random(f"{workload}:{s}:{k}")``: the same seed gives the same ops,
and every round has the same make-up, so only the drawn inputs differ.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import checks


@dataclass
class Op:
    kind: str
    argv: List[str]
    # parsed JSON report -> problems; render checks also read their CSV file
    check: Callable[[dict], List[str]]


def _poly(spec) -> str:
    return json.dumps(spec, separators=(",", ":"))


def _circle_point(rng) -> str:
    theta = 2 * math.pi * rng.random()
    return json.dumps([math.cos(theta), math.sin(theta)])


# ---------------------------------------------------------------------------
# orbit: chaos-game renders and inner-product grids, all fresh fiber solves

# The three circle families whose chains stay on the circle today (see the
# FOUND lines in CHANGES.md for the ones that escape to infinity), with the
# number of renders per round.  The monomial renders sit between the two
# inner ops and the two slower renders, so op_p50_s is the median of the
# monomial renders, three per round.
ORBIT_FAMILIES = (
    ("product", {"family": "product", "exponents": [2, 3]}, "backward", 1),
    ("mixed", {"family": "mixed", "pairs": [[2, 1], [1, 3]]}, "mixed", 1),
    ("monomial", {"family": "monomial", "m": 5, "n": 2}, "backward", 3),
)
RENDER_ITERS = 24
INNER_GRID = 48


def orbit_round(rng, tmpdir):
    for kind, spec, direction, count in ORBIT_FAMILIES:
        out = os.path.join(tmpdir, f"{kind}.csv")

        def check(report, spec=spec, direction=direction, out=out):
            with open(out, encoding="utf-8") as fh:
                return checks.check_render(spec, direction, fh.read(), RENDER_ITERS)

        for _ in range(count):
            yield Op(f"render.{kind}", [
                "render", "--poly", _poly(spec), "--direction", direction,
                "--iters", str(RENDER_ITERS), "--seed", str(rng.randrange(10**6)),
                "--start", _circle_point(rng), "--out", out,
            ], check)

    # (1|1)_A = m: the backward fiber of z^m = w^n has weight m everywhere
    m, n = 3, rng.choice((1, 2, 4, 5))
    yield Op("inner.unit", [
        "inner", "--poly", _poly({"family": "monomial", "m": m, "n": n}),
        "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}',
        "--grid", str(INNER_GRID),
    ], lambda r, m=m: checks.check_inner(r, INNER_GRID, lambda w: m))

    # (u_i|u_j)_A = delta_ij for the basis u_i = z^i / sqrt(m)
    m, n = 4, rng.choice((1, 3, 5))
    i, j = rng.randrange(m), rng.randrange(m)
    yield Op("inner.basis", [
        "inner", "--poly", _poly({"family": "monomial", "m": m, "n": n}),
        "--f", json.dumps({"basis": {"m": m, "i": i}}),
        "--g", json.dumps({"basis": {"m": m, "i": j}}),
        "--grid", str(INNER_GRID),
    ], lambda r, d=float(i == j): checks.check_inner(r, INNER_GRID, lambda w: d))


# ---------------------------------------------------------------------------
# survey: branched sets, K-groups and fibers at branch values

# Two-exponent products only (see CHANGES.md on r >= 3).  b is fixed: the
# cost of every product op grows with b, and with b = 5 all of them sit
# above op_p50_s whichever pair a round draws.
PRODUCT_PAIRS = ((2, 5), (3, 5), (4, 5))
CIRCLE = {"coeffs": [[[-1, 0], [0, 0], [1, 0]], [[0, 0]], [[1, 0]]]}  # z^2 + w^2 - 1
MIXED = {"family": "mixed", "pairs": [[2, 1], [1, 3]]}
# (deg_z, deg_w) of the raw polynomials in one round; deg_z >= 2 gives
# them branch values for the fibers ops
RAW_DEGREES = ((2, 1), (2, 2), (3, 2), (2, 3), (3, 3))


def _squarefree(grid, rng) -> bool:
    """No repeated factor: a repeated factor shows as a double root in the
    fiber over every base point, so two random bases in each direction
    with well separated roots rule it out."""
    for g in (grid, grid.T):
        for _ in range(2):
            base = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            roots = checks.fiber_roots(g, base)
            if checks.has_multiple_root(roots):
                return False
    return True


def _has_factor_in_one_variable(grid) -> bool:
    """A factor of p free of z is a common root of p's coefficients in z,
    each a polynomial in w; likewise with z and w swapped."""
    for g in (grid, grid.T):
        coeffs = [np.trim_zeros(row, "b") for row in g]
        coeffs = [c for c in coeffs if len(c)]
        if any(len(c) == 1 for c in coeffs):
            continue  # a nonzero constant coefficient has no root
        for root in np.roots(min(coeffs, key=len)[::-1]):
            scale = max(1.0, abs(root))
            if all(abs(np.polynomial.polynomial.polyval(root, c))
                   <= 1e-9 * np.abs(c).sum() * scale ** (len(c) - 1) for c in coeffs):
                return True
    return False


def raw_polynomial(rng, dz, dw):
    """The generator of acceptance criterion 11: Gaussian-integer
    coefficients in [-3, 3] with nonzero z^dz and w^dw terms, redrawn until
    squarefree and free of factors in one variable, which corrdyn rejects."""
    while True:
        rows = [
            [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(dw + 1)]
            for _ in range(dz + 1)
        ]
        rows[dz][0] = [rng.choice((1, 2, -1)), 0]
        rows[0][dw] = [rng.choice((1, 2, -1)), 0]
        spec = {"coeffs": rows}
        grid = checks.spec_grid(spec)
        if _squarefree(grid, rng) and not _has_factor_in_one_variable(grid):
            return spec


def _branch_then_fibers(spec, extra_argv=(), extra_check=None):
    """branch on spec, then fibers at its first and last branch value."""
    def check(report):
        problems = checks.check_branch(spec, report)
        if extra_check is not None:
            problems += extra_check(report)
        return problems

    report = yield Op("branch", ["branch", "--poly", _poly(spec), *extra_argv], check)
    values = report["branch_values"] if report else []
    for obj in values[:1] + values[-1:]:
        yield Op("fibers", [
            "fibers", "--poly", _poly(spec), "--point", json.dumps(obj),
        ], lambda r, base=checks.parse_point(obj): checks.check_branch_fiber(spec, base, r))


def survey_round(rng, tmpdir):
    a, b = rng.choice(PRODUCT_PAIRS)
    product = {"family": "product", "exponents": [a, b]}
    yield from _branch_then_fibers(
        product, ("--restrict", "circle"),
        lambda r: checks.check_product_circle_branch(a, b, r),
    )
    yield Op("kgroups.product", ["kgroups", "--poly", _poly(product)],
             lambda r: checks.check_product_kgroups(a, b, r))
    yield from _branch_then_fibers(CIRCLE)
    yield from _branch_then_fibers(MIXED)
    for dz, dw in RAW_DEGREES:
        yield from _branch_then_fibers(raw_polynomial(rng, dz, dw))


# ---------------------------------------------------------------------------
# exact: Fock matrices, K-group tables, arc oracle, GP enumeration

FOCK_J = ([0, 0], [1, 0], [-1, 0])  # invariant for z^2 + w^2 - 1
FOCK_LEVELS = (5, 6, 7)
ORACLE_GRID = tuple((m, n) for m in (2, 3) for n in (2, 3, 4))
# m != n pairs whose GP(3) enumerations cost about the same
GP_UNEQUAL = ((2, 3), (4, 3), (5, 2))
GP_N = 3
# Four K-group tables (the fastest ops) balance the four slowest (three Fock
# ops and one finite GP enumeration), so op_p50_s falls in the middle of
# the oracle ops.
TABLES = 4


def _seed_arc(rng):
    """One arc [p/q, p/q + 1/L) with L in [7, 60]: shorter than 1/m for every
    m in the oracle grid, so only an expansive relation can cover."""
    q = rng.randint(2, 50)
    p = rng.randrange(q // 2 + 1)
    length = rng.randint(7, 60)
    return [[p, q, p * length + q, q * length]]


def exact_round(rng, tmpdir):
    J = rng.sample(FOCK_J, len(FOCK_J))
    for K in FOCK_LEVELS:
        yield Op("fock", [
            "fock", "--poly", _poly(CIRCLE), "--set", json.dumps(J), "--K", str(K),
        ], lambda r, K=K: checks.check_fock(
            CIRCLE, [complex(*p) for p in J], K, r))

    for _ in range(TABLES):
        M, N = rng.randint(3, 6), rng.randint(3, 6)
        yield Op("kgroups.table", ["kgroups", "--table", str(M), str(N)],
                 lambda r, M=M, N=N: checks.check_kgroup_table(M, N, r))

    for m, n in ORACLE_GRID:
        yield Op("expansive.oracle", [
            "expansive", "--poly", _poly({"family": "monomial", "m": m, "n": n}),
            "--oracle", json.dumps(_seed_arc(rng)),
        ], lambda r, m=m, n=n: checks.check_expansive(m, n, r))

    k = rng.randint(2, 5)
    for m, n in (rng.choice(GP_UNEQUAL), (k, k)):
        yield Op("free.gp", [
            "free", "--poly", _poly({"family": "monomial", "m": m, "n": n}),
            "--gp", str(GP_N),
        ], lambda r, m=m, n=n: checks.check_free_gp(m, n, GP_N, r))


WORKLOADS = {"orbit": orbit_round, "survey": survey_round, "exact": exact_round}
