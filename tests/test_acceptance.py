"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (run with -s or look at captured output)."""

import cmath
import math
import random
import time
from fractions import Fraction as F

from corrdyn.bimodule import (
    FiniteBimodule,
    fock_build,
    fock_relation_check,
    inner_product,
)
from corrdyn.correspondence import (
    Correspondence,
    SpherePoint,
    chordal_distance,
    unit_circle_points,
)
from corrdyn.dynamics import ArcSet, expansive_oracle, gp_enumerate
from corrdyn.errors import CorrdynError, InvalidInputError
from corrdyn.families import (
    CircleCorrespondence,
    component_count,
    expansive_decide,
    free_decide,
)
from corrdyn.ktheory import (
    AbelianGroupPresentation,
    monomial_family_input,
    pimsner_solve,
    product_family_input,
)
from corrdyn.polyalg import BivariatePolynomial as BP
from corrdyn.polyalg import squarefree_check

from support import (
    constant_function,
    dense_vanishing_lemma_check,
    monomial_basis,
    norm2,
    norm_inf,
    propagate_finite,
    reference_component_count,
    tensor_isometry_check,
)


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def circle_rel():
    return Correspondence(BP([[-1, 0, 1], [0], [1]]))


def expected_monomial_kgroups(m, n):
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


def test_criterion_1_monomial_kgroup_table():
    t0 = time.monotonic()
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            got = pimsner_solve(monomial_family_input(m, n))
            if got != expected_monomial_kgroups(m, n):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"monomial K-group table (m,n) in [1,6]^2 exact "
                  f"({elapsed:.3f}s)")


def test_criterion_2_product_family():
    ok = True
    for m in range(2, 7):
        for n in range(m + 1, 7):
            inp = product_family_input([m, n])
            k0, k1 = pimsner_solve(inp)
            ok &= k0 == AbelianGroupPresentation(n - m) and k1 == AbelianGroupPresentation(0)
            # recompute b from the branched set against exact roots of unity
            factors = [BP.graph_of_power(m), BP.graph_of_power(n)]
            corr = Correspondence(BP.product(factors))
            pts = corr.branched_sets(restrict_to="circle").branch_points
            ok &= len(pts) == n - m
            for k in range(n - m):
                target = SpherePoint.from_complex(
                    cmath.exp(2j * cmath.pi * k / (n - m))
                )
                ok &= any(chordal_distance(p, target) < 1e-7 for p in pts)
    for exps in ([2, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]):
        inp = product_family_input(exps)
        k0, k1 = pimsner_solve(inp)
        ok &= k1 == AbelianGroupPresentation(0, (2,))
        ok &= k0.rank == inp.K1_IX.rank and not k0.torsion
    report(2, ok, "product family K-groups with b recomputed from B(p) on T")


def test_criterion_3_expansiveness_oracle():
    t0 = time.monotonic()
    rng = random.Random(20260823)
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            cc = CircleCorrespondence.monomial(m, n)
            decision = expansive_decide(cc)
            for _ in range(5):
                a = F(rng.randrange(0, 1024), 1024)
                length = F(1, 64) + F(rng.randrange(0, 16), 1024)
                seed = ArcSet.from_arcs([(a, a + length)])
                covered, _ = expansive_oracle(cc, seed, max_steps=64)
                if covered != decision:
                    ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(3, ok, f"(m does not divide n) == arc-covering oracle on [1,6]^2 "
                  f"({elapsed:.1f}s)")


def test_criterion_4_component_count():
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            cc = CircleCorrespondence.monomial(m, n)
            if component_count(cc) != math.gcd(m, n):
                ok = False
            if reference_component_count(cc, samples=800) != math.gcd(m, n):
                ok = False
    report(4, ok, "gcd component count == sampled union-find oracle on [1,6]^2")


def test_criterion_5_freeness():
    ok = True
    for m in range(2, 6):
        for n in range(2, 6):
            cc = CircleCorrespondence.monomial(m, n)
            if m == n:
                rep = gp_enumerate(cc, 3)
                ok &= (not rep.finite) and "diagonal" in rep.certificate
                ok &= free_decide(cc) is False
            else:
                for N in (1, 2, 3):
                    rep = gp_enumerate(cc, N)
                    ok &= rep.finite == free_decide(cc) is True
    report(5, ok, "gp_enumerate finiteness matches free_decide; diagonal "
                  "witness at m = n")


def test_criterion_6_inner_product_constants():
    ok = True
    grid = unit_circle_points(512)
    for m, n in [(2, 1), (3, 1), (2, 3), (4, 3), (5, 2)]:
        corr = Correspondence(BP.monomial_relation(m, n))
        one = constant_function(1.0)
        for w in grid:
            if abs(inner_product(corr, one, one, w) - m) > 1e-9:
                ok = False
                break
    report(6, ok, "(1|1)_A == m within 1e-9 at 512 grid points, 5 families")


def _random_trig(rng, degree=4):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)]

    def fn(z, w):
        zz = z.to_complex()
        return sum(c * zz**k for k, c in enumerate(coeffs))

    return fn


def test_criterion_7_norm_sandwich():
    rng = random.Random(7)
    ok = True
    grid = unit_circle_points(32)
    for m, n in [(2, 1), (3, 1), (2, 3), (4, 3), (5, 2)]:
        corr = Correspondence(BP.monomial_relation(m, n))
        for _ in range(100):
            f = _random_trig(rng)
            ninf = norm_inf(corr, f, grid)
            n2 = norm2(corr, f, grid)
            if not (ninf <= n2 + 1e-9 and n2 <= math.sqrt(m) * ninf + 1e-9):
                ok = False
    report(7, ok, "norm sandwich for 100 random functions on 5 families")


def test_criterion_8_basis_reconstruction():
    ok = True
    for m in range(2, 6):
        corr = Correspondence(BP.monomial_relation(m, 1))
        us = monomial_basis(m)
        for w in unit_circle_points(50):
            for i in range(m):
                for j in range(m):
                    v = inner_product(corr, us[i], us[j], w)
                    if abs(v - (1.0 if i == j else 0.0)) > 1e-9:
                        ok = False
        rng = random.Random(m)
        f = _random_trig(rng, degree=m + 1)
        for w in unit_circle_points(16):
            for z, _ in corr.backward_fiber(w):
                total = sum(
                    complex(u(z, w)) * inner_product(corr, u, f, w) for u in us
                )
                if abs(total - complex(f(z, w))) > 1e-8:
                    ok = False
    report(8, ok, "orthonormal basis delta_ij within 1e-9, reconstruction "
                  "below 1e-8, m <= 5")


def test_criterion_9_tensor_isometry():
    rng = random.Random(9)
    corr = Correspondence(BP.monomial_relation(2, 1))
    fs = [_random_trig(rng, 3) for _ in range(2)]
    gs = [_random_trig(rng, 3) for _ in range(2)]
    dev_float = tensor_isometry_check(corr, fs, gs, unit_circle_points(32))
    J = [SpherePoint.from_complex(v) for v in (0j, 1 + 0j, -1 + 0j)]
    one = constant_function(1.0)
    dev_exact = tensor_isometry_check(circle_rel(), [one, one], [one, one], J)
    ok = dev_float < 1e-9 and dev_exact == 0
    report(9, ok, f"tensor isometry: float dev {dev_float:.2e}, finite-J dev "
                  f"{dev_exact}")


def test_criterion_10_fock_verification():
    corr = circle_rel()
    fb = FiniteBimodule.build(corr, [0, 1, -1])
    ft = fock_build(fb, 3)
    ok = ft.block_dims == (3, 4, 6, 8)
    ok &= fock_relation_check(ft) == 0
    # U = {0} alternates {0} / {1,-1} under propagation
    zero = [SpherePoint.from_complex(0j)]
    for steps, expect in [(2, {0}), (4, {0}), (3, {-1, 1}), (5, {-1, 1})]:
        got = {round(p.to_complex().real) for p in propagate_finite(corr, zero, steps)}
        ok &= got == expect
    # enumerate hypothesis-satisfying 0/1-valued a and check the lemma
    passed = 0
    for i, j in [(1, 2), (2, 1), (0, 1), (2, 3)]:
        for mask in range(1, 8):
            a = {v: 1 for v in range(3) if mask >> v & 1}
            try:
                ok &= dense_vanishing_lemma_check(ft, a, ft.blocks[i][0], ft.blocks[j][0])
                passed += 1
            except InvalidInputError:
                pass
    ok &= passed >= 4
    report(10, ok, f"Fock on J={{0,1,-1}}: dims (3,4,6,8), exact relations, "
                   f"{passed} vanishing-lemma instances")


def test_criterion_11_branched_set_bounds():
    rng = random.Random(1105)
    checked = 0
    attempts = 0
    ok = True
    while checked < 50 and attempts < 400:
        attempts += 1
        dz = rng.randint(1, 3)
        dw = rng.randint(1, 3)
        grid = [
            [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(dw + 1)]
            for _ in range(dz + 1)
        ]
        grid[dz][0] = rng.choice([1, 2, -1])
        grid[0][dw] = rng.choice([1, 2, -1])
        try:
            p = BP(grid)
            if p.deg_z < 1 or p.deg_w < 1 or not squarefree_check(p)[0]:
                continue
            corr = Correspondence(p, check_squarefree=False)
            sets = corr.branched_sets()
        except CorrdynError:
            continue
        m, n = p.deg_z, p.deg_w
        if len(sets.branch_points) > 2 * m * (m - 1) * n:
            ok = False
        if len(sets.branch_values) > 2 * (m - 1) * n:
            ok = False
        if len(sets.cobranch_values) > 2 * n * (n - 1) * m:
            ok = False
        if len(sets.cobranch_points) > 2 * (n - 1) * m:
            ok = False
        checked += 1
    ok = ok and checked == 50
    report(11, ok, f"branched-set cardinality bounds on {checked} random "
                   f"squarefree polynomials")
