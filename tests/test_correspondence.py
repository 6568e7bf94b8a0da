import copy
import math
import pickle
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrdyn import floats
from corrdyn.correspondence import (
    Correspondence,
    SpherePoint,
    WeightedFiber,
    _branching,
    _chordal_merge,
    chordal_distance,
    unit_circle_points,
)
from corrdyn.dynamics import BURN_IN, limit_set_sample
from corrdyn.errors import InvalidInputError, RootFindingError
from corrdyn.polyalg import BivariatePolynomial as BP
from corrdyn.floats import FloatGrid, companion_roots
from corrdyn.polyalg import roots

from support import (
    GaussianRational,
    branch_index,
    chordally_separated,
    exact_polynomial,
    float_specialise,
    integer_coeffs,
    on_correspondence,
    reference_branching,
    reference_certified_points,
    reference_certified_roots,
    reference_float_specialise,
    reference_univariate_in_z,
    reference_univariate_in_z_inverted,
    scalar_certified_roots,
    separated_points,
)

GR = GaussianRational.of


def circle_poly():
    # z^2 + w^2 - 1
    return BP([[-1, 0, 1], [0], [1]])


class TestSpherePoint:
    def test_normalization(self):
        p = SpherePoint.from_complex(5 + 0j)
        assert p.z1 == 1 and abs(p.z2 - 0.2) < 1e-15

    def test_infinity(self):
        inf = SpherePoint.infinity()
        assert inf.is_infinity
        with pytest.raises(InvalidInputError):
            inf.to_complex()

    def test_chordal_symmetry_and_range(self):
        a = SpherePoint.from_complex(1 + 2j)
        b = SpherePoint.infinity()
        assert chordal_distance(a, b) == chordal_distance(b, a)
        assert 0 <= chordal_distance(a, b) <= 1.0 + 1e-12

    @given(
        st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100)
    def test_triangle_inequality(self, a, b, c):
        pa, pb, pc = map(SpherePoint.from_complex, (a, b, c))
        assert chordal_distance(pa, pc) <= (
            chordal_distance(pa, pb) + chordal_distance(pb, pc) + 1e-9
        )

    def test_value_semantics(self):
        # an immutable pair, equal and hashed as the tuple (z1, z2)
        p, q = SpherePoint.from_complex(0.6 + 0.8j), SpherePoint(0.6 + 0.8j, 1 + 0j)
        assert p == q and p != SpherePoint.from_complex(0.6 - 0.8j)
        assert hash(p) == hash((p.z1, p.z2)) == hash(q)
        with pytest.raises(AttributeError):
            p.z1 = 0j
        assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p

    def test_repr(self):
        assert repr(SpherePoint.from_complex(0.5 - 0.25j)) == "SpherePoint((0.5-0.25j))"
        assert repr(SpherePoint.from_complex(4 + 0j)) == "SpherePoint((4+0j))"
        assert repr(SpherePoint.infinity()) == "SpherePoint(inf)"

    def test_dict_fromkeys_keeps_the_first_of_equal_points(self):
        points = [SpherePoint.from_complex(z) for z in (2 + 0j, 0.5j, 2 + 0j, -3 + 0j, 0.5j)]
        points.append(SpherePoint.infinity())
        points.append(SpherePoint.infinity())
        kept = list(dict.fromkeys(points))
        assert kept == points[:2] + points[3:4] + points[5:6]
        assert all(k is points[i] for k, i in zip(kept, (0, 1, 3, 5)))


class TestFibers:
    def test_circle_fiber_double_point(self):
        corr = Correspondence(circle_poly())
        fiber = corr.backward_fiber(SpherePoint.from_complex(1 + 0j))
        assert len(fiber.points) == 1
        z, e = fiber.points[0]
        assert z.to_complex() == pytest.approx(0j) and e == 2

    def test_circle_fiber_simple(self):
        corr = Correspondence(circle_poly())
        fiber = corr.backward_fiber(SpherePoint.from_complex(0j))
        got = sorted(round(z.to_complex().real) for z, _ in fiber.points)
        assert got == [-1, 1]
        assert all(e == 1 for _, e in fiber.points)

    def test_forward_fiber_at_infinity(self):
        corr = Correspondence(BP.graph_of_power(2))  # w = z^2
        fiber = corr.forward_fiber(SpherePoint.infinity())
        assert len(fiber.points) == 1
        assert fiber.points[0][0].is_infinity
        assert fiber.points[0][1] == 1

    def test_total_multiplicity_is_degree(self):
        corr = Correspondence(BP.monomial_relation(3, 2))
        for w in unit_circle_points(7):
            assert corr.backward_fiber(w).total_multiplicity == 3
        for z in unit_circle_points(7):
            assert corr.forward_fiber(z).total_multiplicity == 2

    def test_keeps_no_state_per_base_point(self):
        # every request is solved afresh: after 1000 requests the object holds
        # its polynomial, its degrees and the grids of its two directions, and
        # a repeated request gives the same fiber
        corr, rng = Correspondence(BP.monomial_relation(3, 2)), random.Random(29)
        for _ in range(250):
            base = SpherePoint.from_complex(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            first = corr.backward_fiber(base), corr.forward_fiber(base)
            assert repr((corr.backward_fiber(base), corr.forward_fiber(base))) == repr(first)
        assert set(vars(corr)) == {"p", "deg_z", "deg_w", "_float_grids", "_transposed"}
        assert set(corr._float_grids) == {"b", "f"}

    def test_branch_index(self):
        corr = Correspondence(BP.monomial_relation(3, 2))
        origin = SpherePoint.from_complex(0j)
        assert branch_index(corr, origin, origin) == 3

    def test_branch_index_absent_point(self):
        corr = Correspondence(BP.graph_of_power(2))
        with pytest.raises(InvalidInputError):
            branch_index(
                corr, SpherePoint.from_complex(1 + 0j), SpherePoint.from_complex(5 + 0j)
            )

    def test_on_correspondence(self):
        corr = Correspondence(BP.graph_of_power(2))
        assert on_correspondence(corr, 
            SpherePoint.from_complex(2 + 0j), SpherePoint.from_complex(4 + 0j)
        )
        assert on_correspondence(corr, SpherePoint.infinity(), SpherePoint.infinity())
        assert not on_correspondence(corr, 
            SpherePoint.from_complex(2 + 0j), SpherePoint.from_complex(5 + 0j)
        )


class TestChordalMerge:
    def test_opposite_points_near_infinity_merge_at_infinity(self):
        # averaged in z they would give 0; in 1/z they give infinity
        merged = _chordal_merge([(1e20 + 0j, 1), (-1e20 + 0j, 1)], 1e-6)
        assert merged == [(SpherePoint.infinity(), 2)]

    def test_infinity_absorbs_a_point_within_tol(self):
        merged = _chordal_merge([(None, 2), (1e7 + 0j, 1)], 1e-6)
        assert merged == [(SpherePoint.infinity(), 3)]

    def test_large_points_average_in_the_inverted_chart(self):
        [(q, e)] = _chordal_merge([(1e5 + 1 + 0j, 1), (1e5 + 0j, 1)], 1e-6)
        assert e == 2
        assert q.z1 == 1 and q.z2 == pytest.approx((1 / 1e5 + 1 / (1e5 + 1)) / 2, rel=1e-15)

    def test_points_just_off_the_circle_average_in_z(self):
        # the plain mean, to the last bit, as the Euclidean clustering gave
        a, b = 1.000000001 + 7e-8j, 1.00000016 - 7.7e-8j
        [(q, e)] = _chordal_merge([(b, 1), (a, 1)], 1e-6)
        p = SpherePoint.from_complex((0 + a * 1 + b * 1) / 2)
        assert e == 2
        assert (repr(q.z1), repr(q.z2)) == (repr(p.z1), repr(p.z2))

    @pytest.mark.parametrize("z,m", [
        (0.1 + 0.7j, 1), (-0.3 - 0.2j, 2), (1234.5 - 6.7j, 1), (-1 + 0j, 4),
        (1 / 3 + 1e-300j, 1),
    ])
    def test_singleton_keeps_its_bytes(self, z, m):
        [(q, e)] = _chordal_merge([(z, m)], 1e-6)
        p = SpherePoint.from_complex(z)
        assert e == m
        assert (repr(q.z1), repr(q.z2)) == (repr(p.z1), repr(p.z2))

    @pytest.mark.parametrize("im", [1.0003e-6, 0.9997e-6])
    def test_double_point_is_the_mean_on_both_sides_of_tol(self, im):
        # w = z^2 and w = z^3 lie just over tol apart in the Euclidean metric
        # at the first base point and just under it at the second; both
        # are within tol chordally, so both report their mean
        z = complex(1, im)
        corr = Correspondence(_power_product(2, 3), check_squarefree=False)
        [(q, e)] = corr.forward_fiber(SpherePoint.from_complex(z)).points
        assert e == 2
        assert abs(q.to_complex() - (z**2 + z**3) / 2) < 1e-9


class TestRationalMapBranchIndex:
    def test_matches_vanishing_order(self):
        # for w = z^m the branch index at (0, 0) is m, elsewhere on C 1
        for m in (2, 3, 4):
            corr = Correspondence(BP.graph_of_power(m))
            origin = SpherePoint.from_complex(0j)
            assert branch_index(corr, origin, origin) == m
            z = SpherePoint.from_complex(1.3 + 0.2j)
            w = SpherePoint.from_complex(z.to_complex() ** m)
            assert branch_index(corr, z, w) == 1


@st.composite
def lc_vanishing_polynomials(draw):
    """(p, w0): a Gaussian-integer p(z, w) with deg_z = m in 1..3 whose
    leading z-coefficient vanishes at the dyadic w0 = a / 2^s to order 1 or
    2.  Row i of p is t_i + (2^s w - a) u_i(w), so p(., w0) has the drawn
    coefficients t: at times with t_(m-1) = 0 too (infinity is a double root
    over w0) or, for m = 3, a finite double root."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a, s = draw(st.integers(-4, 4)), draw(st.integers(0, 2))
    entry = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    nonzero = st.builds(complex, st.integers(1, 2), st.integers(-2, 2))
    t = [draw(entry) for _ in range(m)]
    kind = draw(st.sampled_from(["any", "infinity", "double"]))
    if kind == "infinity":
        t[m - 1] = 0
    elif kind == "double" and m == 3:
        c, z0 = draw(nonzero), draw(st.sampled_from([1, -1, 1j]))
        t = [c * z0 * z0, -2 * c * z0, c]

    def times_factor(u):  # (2^s w - a) u(w), ascending coefficients
        return [2**s * (u[j - 1] if j else 0) - a * (u[j] if j < len(u) else 0)
                for j in range(len(u) + 1)]

    rows = []
    for ti in t:
        u = times_factor([draw(entry) for _ in range(n)])
        rows.append([ti + u[0]] + u[1:])
    lead = [draw(nonzero)]
    for _ in range(draw(st.integers(1, 2))):
        lead = times_factor(lead)
    grid = [[(int(c.real), int(c.imag)) for c in row] for row in rows + [lead]]
    return BP(grid), Fraction(a, 2**s)


class TestBranchedSets:
    def test_graph_of_square(self):
        corr = Correspondence(BP.graph_of_power(2))
        sets = corr.branched_sets()
        vals = {("inf" if p.is_infinity else round(p.to_complex().real)) for p in sets.branch_points}
        assert vals == {0, "inf"}

    def test_product_family_global(self):
        factors = [BP.graph_of_power(2), BP.graph_of_power(3)]
        corr = Correspondence(BP.product(factors))
        sets = corr.branched_sets()
        vals = {("inf" if p.is_infinity else round(p.to_complex().real)) for p in sets.branch_points}
        assert vals == {0, 1, "inf"}

    def test_product_family_on_circle(self):
        factors = [BP.graph_of_power(2), BP.graph_of_power(3)]
        corr = Correspondence(BP.product(factors))
        sets = corr.branched_sets(restrict_to="circle")
        assert len(sets.branch_points) == 1
        assert sets.branch_points[0].to_complex() == pytest.approx(1 + 0j)

    def test_monomial_has_no_branching_on_circle(self):
        corr = Correspondence(BP.monomial_relation(2, 3))
        sets = corr.branched_sets(restrict_to="circle")
        assert sets.branch_points == ()

    def test_close_branch_points_far_from_zero_are_both_kept(self):
        # w^2 = (z - 2000)(z - 2001): 2000 and 2001 are 2.5e-7 apart
        # chordally, less than tol, yet distinct branch points; their float
        # roots are off by 1.4e-9 until they are polished.  w = 0 is a
        # double root over both, so 0 is a cobranch value
        corr = Correspondence(BP([[-2000 * 2001, 0, 1], [4001], [-1]]))
        sets = corr.branched_sets()
        assert [p.to_complex() for p in sets.cobranch_points[:-1]] == [2000, 2001]
        assert sets.cobranch_points[-1].is_infinity
        assert SpherePoint.from_complex(0j) in sets.cobranch_values

    @pytest.mark.parametrize("spec,want", [
        ([[0, 0, 1], [2 * 10**6], [-1]], [0, 2e6]),
        ([[-30000 * 30001, 0, 1], [60001], [-1]], [30000, 30001]),
    ])
    def test_cobranch_points_far_from_zero(self, spec, want):
        # w^2 = z(z - 2e6) and w^2 = (z - 30000)(z - 30001): a base point
        # stored as 1/z splits the double point w = 0 by more than tol, so
        # only an exact decision keeps them
        corr = Correspondence(BP(spec))
        sets = corr.branched_sets()
        got = sets.cobranch_points
        assert [p.to_complex() for p in got[:-1]] == pytest.approx(want, rel=1e-15)
        assert len(got) == len(want) + 1 and got[-1].is_infinity
        assert SpherePoint.from_complex(0j) in sets.cobranch_values

    @pytest.mark.parametrize("res,want", [
        ([2000 * 2001, -4001, 1], [2000, 2001]),
        ([0, -2 * 10**6, 1], [0, 2e6]),
        ([0, -2 * 10**9, 1], [0, 2e9]),
    ])
    def test_candidates_are_every_root_and_infinity(self, res, want):
        # the branch values of z^2 - res(w) are the roots of res and
        # infinity: distinct roots stay distinct points, at any distance
        # from 0 and from infinity
        q = BP([[-c for c in res], [0], [1]])
        points, values = _branching(q.rows)
        assert [c.to_complex() for c in values[:-1]] == pytest.approx(want, rel=1e-12)
        assert len(values) == len(want) + 1 and values[-1].is_infinity
        assert points == [SpherePoint.from_complex(0j), SpherePoint.infinity()]

    def test_branch_value_found_after_polishing(self):
        # a pair of branch values 5.8e-3 apart whose unpolished float roots
        # miss the double point by more than the fiber tol; at 50 digits the
        # exact resultant roots lie within an ulp of these values, and the
        # two z-roots over each of them agree to 1e-24
        grid = [[(-2, 3), (3, -3), (2, 0)], [(0, 2), (-1, -3), (-1, -2)],
                [(0, 0), (-2, -1), (0, -1)], [(1, 0), (2, -3), (0, 1)]]
        values = Correspondence(BP(grid)).branched_sets().branch_values
        got = [p.to_complex() for p in values]
        for want in (-0.15449765791347173 - 0.1973676491038844j,
                     -0.15351662635514438 - 0.20300831757837598j):
            assert min(abs(z - want) for z in got) < 1e-15

    def test_every_branch_point_verified(self):
        factors = [BP.graph_of_power(2), BP.graph_of_power(4)]
        corr = Correspondence(BP.product(factors))
        sets = corr.branched_sets()
        for b in sets.branch_points:
            found = False
            for w, _ in corr.forward_fiber(b).points:
                if branch_index(corr, b, w) >= 2:
                    found = True
            assert found

    @pytest.mark.parametrize("p", [
        circle_poly(),
        BP.product([BP.graph_of_power(2), BP.graph_of_power(3), BP.graph_of_power(4)]),
        BP([[(-2, 3), (3, -3), (2, 0)], [(0, 2), (-1, -3), (-1, -2)],
            [(0, 0), (-2, -1), (0, -1)], [(1, 0), (2, -3), (0, 1)]]),
    ])
    def test_solves_no_fiber(self, monkeypatch, p):
        want = Correspondence(p).branched_sets()

        def refuse(*args):
            raise AssertionError("branched_sets solved a fiber")

        monkeypatch.setattr(Correspondence, "_fiber", staticmethod(refuse))
        assert Correspondence(p).branched_sets() == want

    @settings(max_examples=60, deadline=None)
    @given(lc_vanishing_polynomials(), st.booleans())
    def test_spurious_leading_coefficient_roots_match_exact_fibers(self, drawn, transpose):
        # w0 is a root of lc_z(p), so of Res_z(p, p_z); it is a branch value
        # exactly when the exact roots of p(., w0) repeat or the degree drops
        # by 2 or more (infinity is a multiple root).  On the transpose the
        # same w0 is tested as a cobranch point through the forward fiber.
        p, w0 = drawn
        try:
            corr = Correspondence(p.transpose() if transpose else p)
        except InvalidInputError:
            assume(False)  # not squarefree
        sets = corr.branched_sets()
        found = sets.cobranch_points if transpose else sets.branch_values
        f = reference_univariate_in_z(corr._transposed if transpose else corr.p, GR(w0))
        branched = any(e >= 2 for _, e in roots(integer_coeffs(f))) or p.deg_z - f.degree >= 2
        hit = [q for q in found if not q.is_infinity
               and abs(q.to_complex() - float(w0)) <= 1e-12 * max(1, abs(w0))]
        assert bool(hit) == branched
        if p.deg_z - f.degree >= 2:  # so infinity is a multiple root over w0
            assert (sets.cobranch_values if transpose else sets.branch_points)[-1].is_infinity

    @pytest.mark.parametrize("grid,field,base", [
        # (w - 1) z^2 + 2 (w - 1) z + w + 1: rows 2 and 1 share the root
        # w = 1, over which infinity is a double root
        ([[1, 1], [-2, 2], [-1, 1]], "branch_points", SpherePoint.from_complex(1)),
        # w (z - 1)^2 + z^2: over w = infinity, z = 1 is a double root
        ([[0, 1], [0, -2], [1, 1]], "branch_values", SpherePoint.infinity()),
    ])
    def test_infinity_from_a_common_or_repeated_root(self, grid, field, base):
        corr = Correspondence(BP(grid))
        assert getattr(corr.branched_sets(), field)[-1].is_infinity
        assert max(e for _, e in corr.backward_fiber(base).points) == 2


@st.composite
def small_polynomials(draw):
    """p(z, w) with deg_z, deg_w in 1..2 and sparse Gaussian-rational
    coefficients over denominators up to 4."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    part, den = st.sampled_from([0, 0, 1, -1, 2, -3]), st.sampled_from([1, 1, 2, 3, 4])
    entry = st.builds(lambda a, b, d: GR((Fraction(a, d), Fraction(b, d))), part, part, den)
    grid = [[draw(entry) for _ in range(n + 1)] for _ in range(m + 1)]
    grid[m][0] = grid[m][0] or GR(1)
    grid[0][n] = grid[0][n] or GR((1, 1))
    return exact_polynomial(grid)


def _branching_bits(branching, arg):
    """The reprs of both parts of every point branching(arg) gives, or the
    name of the error it raises."""
    try:
        sets = branching(arg)
    except (InvalidInputError, RootFindingError) as exc:
        return type(exc).__name__
    return [[(repr(p.z1), repr(p.z2)) for p in found] for found in sets]


# the survey rounds' raw polynomials of each (deg_z, deg_w), the product
# families and a branch value that needs polishing
REFERENCE_SPECS = [
    [[(2, 2), (1, 0)], [(-2, -1), (2, 2)], [(-1, 0), (3, -1)]],
    [[(3, 3), (-2, 1), (1, 0)], [(-3, 3), (2, 1), (-1, -1)], [(-2, 2), (2, -1), (1, 2)],
     [(2, 0), (2, -1), (1, 3)]],
    [[(2, -3), (2, 3), (-1, 2), (1, 0)], [(-3, -2), (-2, 1), (1, 2), (-3, -2)],
     [(-3, 2), (2, 1), (-2, -1), (3, -2)], [(1, 0), (-3, 0), (-3, -2), (-2, -2)]],
    [[(-2, 3), (3, -3), (2, 0)], [(0, 2), (-1, -3), (-1, -2)],
     [(0, 0), (-2, -1), (0, -1)], [(1, 0), (2, -3), (0, 1)]],
]


class TestIntegerBranching:
    """_branching on the Gaussian-integer grid gives, bit for bit, what the
    Gaussian-rational route gives (support.reference_branching)."""

    @pytest.mark.parametrize("p", [BP(spec) for spec in REFERENCE_SPECS] + [
        circle_poly(),
        BP.product([BP.graph_of_power(2), BP.graph_of_power(3), BP.graph_of_power(4)]),
        BP.product([BP.graph_of_power(4), BP.graph_of_power(5)]),
    ])
    def test_specs(self, p):
        grid = p.rows
        assert _branching_bits(_branching, grid) == _branching_bits(reference_branching, p)
        assert (_branching_bits(_branching, list(zip(*grid)))
                == _branching_bits(reference_branching, p.transpose()))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_polynomials(), lc_vanishing_polynomials().map(lambda d: d[0])))
    def test_drawn(self, p):
        grid = p.rows
        assert _branching_bits(_branching, grid) == _branching_bits(reference_branching, p)
        assert (_branching_bits(_branching, list(zip(*grid)))
                == _branching_bits(reference_branching, p.transpose()))

    def test_four_traced_resultants(self, monkeypatch):
        # the benchmark's tracer counts the resultants of a branch command at
        # the names corrdyn.correspondence.resultant_z and resultant_w: two
        # of each per branched_sets, the resultant fallback of _xcoprime
        # apart
        from corrdyn import correspondence

        calls = []
        for name in ("resultant_z", "resultant_w"):
            fn = getattr(correspondence, name)
            monkeypatch.setattr(correspondence, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        for p in (circle_poly(), BP.product([BP.graph_of_power(2), BP.graph_of_power(5)])):
            calls.clear()
            Correspondence(p).branched_sets()
            assert sorted(calls) == ["resultant_w"] * 2 + ["resultant_z"] * 2


def test_transpose_built_on_the_first_forward_fiber(monkeypatch):
    # backward fibers and the branched sets never read the transpose; the
    # first forward fiber builds it, once
    calls, transpose = [], BP.transpose
    monkeypatch.setattr(BP, "transpose", lambda p: calls.append(p) or transpose(p))
    corr = Correspondence(circle_poly())
    corr.backward_fiber(SpherePoint.from_complex(0.5))
    corr.branched_sets()
    assert calls == []
    for z in (0.5, 0.25):
        corr.forward_fiber(SpherePoint.from_complex(z))
    assert calls == [corr.p]


class TestValidation:
    def test_rejects_non_squarefree(self):
        bad = BP.product([BP.graph_of_power(2), BP.graph_of_power(2)])
        with pytest.raises(InvalidInputError):
            Correspondence(bad)

    def test_rejects_degenerate_degree(self):
        with pytest.raises(InvalidInputError):
            Correspondence(BP([[0, 1]]))  # p = w, no z dependence


# ---------------------------------------------------------------------------
# the float-first fiber path


def _power_product(*exps):
    return BP.product([BP.graph_of_power(m) for m in exps])


def _mixed(*pairs):
    # prod (z^i - w^j)
    return BP.product([BP.monomial_relation(i, j) for i, j in pairs])


# the three families the chaos-game renders of the benchmark use
ORBIT_FAMILIES = [_power_product(2, 3), _mixed((2, 1), (1, 3)), BP.monomial_relation(5, 2)]


@st.composite
def raw_polynomials(draw):
    # the generator of acceptance criterion 11: Gaussian-integer coefficients
    # in [-3, 3] with nonzero z^dz and w^dw terms
    dz = draw(st.integers(1, 3))
    dw = draw(st.integers(1, 3))
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    grid = [[draw(entry) for _ in range(dw + 1)] for _ in range(dz + 1)]
    grid[dz][0] = draw(st.sampled_from([1, 2, -1]))
    grid[0][dw] = draw(st.sampled_from([1, 2, -1]))
    return BP(grid)


polynomials = st.one_of(raw_polynomials(), st.sampled_from(ORBIT_FAMILIES))

base_points = st.one_of(
    st.floats(0, 2 * math.pi).map(
        lambda t: SpherePoint.from_complex(complex(math.cos(t), math.sin(t)))
    ),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False).map(
        SpherePoint.from_complex
    ),
    st.just(SpherePoint.infinity()),
)


def _fiber_problem(p, direction):
    """(poly, expected degree) that Correspondence solves in that direction."""
    return (p, p.deg_z) if direction == "backward" else (p.transpose(), p.deg_w)


def _exact_coeffs(poly, base):
    v, inverted = base.chart_value()
    specialise = reference_univariate_in_z_inverted if inverted else reference_univariate_in_z
    f = specialise(poly, GR(v))
    return list(f.coeffs) + [GR(0)] * (poly.deg_z + 1 - len(f.coeffs))


def _roots_60_digits(coeffs):
    """Roots of the exact polynomial with ascending Gaussian-rational
    coefficients (leading one nonzero), by mpmath to 60 digits.

    polyroots' error is relative to the largest coefficient, so the working
    precision grows with the spread of the coefficients' magnitudes: at a
    base point near 0 the fiber can hold roots of size 1e-424 next to 1."""
    bits = [
        abs(x).numerator.bit_length() - abs(x).denominator.bit_length()
        for c in coeffs
        for x in (c.re, c.im)
        if x
    ]
    dps = 60 + (max(bits) - min(bits)) * 3 // 10
    with mpmath.workdps(dps):
        cs = [
            mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                       mpmath.mpf(c.im.numerator) / c.im.denominator)
            for c in coeffs
        ]
        return mpmath.polyroots(cs[::-1], maxsteps=400 + 4 * dps, extraprec=200)


def _reference_fiber(poly, base, expected):
    coeffs = _exact_coeffs(poly, base)
    while not coeffs[-1]:
        coeffs.pop()
    pairs = [(None, expected - len(coeffs) + 1)] if len(coeffs) <= expected else []
    pairs += [(complex(r), 1) for r in _roots_60_digits(coeffs)]
    return WeightedFiber(base=base, points=tuple(_chordal_merge(pairs, 1e-6)))


def _same_fiber(a, b, dist=1e-9):
    rest = list(b.points)
    for p, e in a.points:
        match = [i for i, (q, f) in enumerate(rest) if f == e and chordal_distance(p, q) <= dist]
        assert match, f"{p} (multiplicity {e}) missing from {b.points}"
        rest.pop(match[0])
    assert rest == []


class TestFloatFirstFiber:
    @given(polynomials, st.sampled_from(["backward", "forward"]), base_points)
    @example(  # w^4 - zw - z^2 w^3 + z^3: roots near 315 beside one near 1e15
        BP([[0, 0, 0, 0, 1], [0, -1], [0, 0, 0, -1], [1]]),
        "backward",
        SpherePoint.from_complex(99140 + 0j),
    )
    @example(  # two certified roots about tol apart, one on each side of tol
        ORBIT_FAMILIES[0], "forward", SpherePoint.from_complex(0.9999999999995 + 9.999999999998333e-07j)
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_only_fiber(self, p, direction, base):
        poly, expected = _fiber_problem(p, direction)
        try:
            exact = Correspondence._fiber(None, poly, base, expected, 1e-6)
        except RootFindingError:
            return  # the exact path gives up; the float path may do better
        except InvalidInputError:
            with pytest.raises(InvalidInputError):
                Correspondence._fiber(FloatGrid(poly), poly, base, expected, 1e-6)
            return
        fast = Correspondence._fiber(FloatGrid(poly), poly, base, expected, 1e-6)
        _same_fiber(fast, exact)

    def test_exact_path_small_roots_beside_a_huge_one(self):
        # the forward fiber of the survey-seed-29 raw polynomial here has a
        # leading coefficient below its float error bound, so it takes the
        # exact path; its two roots of modulus about 1 sit beside one near
        # 4.5e15 and must still match the roots at 60 digits
        p = BP([
            [(1, -1), (-1, -3), (-1, -2), (1, 0)],
            [(0, 2), (-1, -2), (3, -2), (-2, 0)],
            [(2, 0), (0, 0), (-2, 1), (-3, 0)],
        ])
        poly, expected = _fiber_problem(p, "forward")
        base = SpherePoint.from_complex(-0.9999999999999997 + 0j)
        assert FloatGrid(poly).certified_points(*base.chart_value(), 0) is None
        fiber = Correspondence(p, check_squarefree=False).forward_fiber(base)
        _same_fiber(fiber, _reference_fiber(poly, base, expected))

    @given(polynomials, st.sampled_from(["backward", "forward"]), base_points)
    @example(  # w - z + z^2 over w = 0: the root 0 of the zero constant term comes last
        BP([[0, 1], [-1], [1]]), "backward", SpherePoint.from_complex(0j)
    )
    @settings(max_examples=300, deadline=None)
    def test_certificate_matches_numpy_reference(self, p, direction, base):
        # same decision, and the same roots to the bit, as the numpy route;
        # the one pass decides alike and gives the numpy roots' points
        poly, _ = _fiber_problem(p, direction)
        grid = FloatGrid(poly)
        c, e = float_specialise(grid, *base.chart_value())
        got, want = scalar_certified_roots(c, e, 0), reference_certified_roots(c, e)
        assert (got is None) == (want is None)
        if got is not None:
            assert [repr(z) for z in got[0]] == [repr(complex(z)) for z in want[0]]
        points = grid.certified_points(*base.chart_value(), 0)
        assert (points is None) == (want is None)
        if points is not None:
            assert _stored(points) == _stored(separated_points([complex(z) for z in want[0]]))

    @given(polynomials, st.lists(base_points, min_size=1, max_size=3),
           st.sampled_from([0.0, 2e-6]),
           st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    @example(  # w - z + z^2 over w = 0: the root 0 of the zero constant term comes last
        BP([[0, 1], [-1], [1]]), [SpherePoint.from_complex(0j)], 0.0, [1, 0, 0, 2]
    )
    @example(  # roots near 315 beside one near 1e15
        BP([[0, 0, 0, 0, 1], [0, -1], [0, 0, 0, -1], [1]]),
        [SpherePoint.from_complex(99140 + 0j)], 2e-6, [0, 1],
    )
    @example(  # degrees 3 and 4, fibers certified both ways on and off the circle
        ORBIT_FAMILIES[1],
        [SpherePoint.from_complex(complex(0.6, 0.8)), SpherePoint.from_complex(2.5 - 1j),
         SpherePoint.from_complex(complex(0.6, -0.8))], 2e-6, [1, 0, 1],
    )
    @settings(max_examples=200, deadline=None)
    def test_one_pass_matches_the_two_step_route(self, p, bases, separation, exact):
        # the same decision and the same points, to the bit, as the route
        # through (c, e), the scalar certificate and the sort, on fresh grids;
        # the grids of both directions (of different degrees unless
        # deg_z = deg_w) keep their companion buffers from fiber to fiber,
        # between exact-path companion eigenvalues of another size
        monic = [complex(x) for x in exact] + [1 + 0j]
        problems = [(p, FloatGrid(p)), (p.transpose(), FloatGrid(p.transpose()))]
        for base in bases:
            v, inverted = base.chart_value()
            for poly, grid in problems:
                got = grid.certified_points(v, inverted, separation)
                want = reference_certified_points(FloatGrid(poly), v, inverted, separation)
                assert (got is None) == (want is None)
                if got is not None:
                    assert _stored(got) == _stored(want) and repr(got) == repr(want)
                if any(monic[:-1]):
                    assert repr(companion_roots(monic)) == repr(
                        [complex(z) for z in np.roots(monic[::-1])])
                shift = np.eye(len(grid.companion), k=-1, dtype=complex)
                assert (grid.companion[1:] == shift[1:]).all()

    @pytest.mark.parametrize("family,direction", [
        (0, "backward"), (1, "mixed"), (2, "backward"), (2, "forward"),
    ], ids=["product-backward", "mixed-mixed", "monomial-backward", "monomial-forward"])
    def test_chaos_chain_matches_the_two_step_route(self, monkeypatch, family, direction):
        # at every base point a 300-step chaos-game chain reaches, the one
        # pass on the correspondence's own grids (their companion buffers
        # reused from step to step) decides alike and stores the bits of the
        # two-step route
        one_pass, decided = FloatGrid.certified_points, []

        def checked(grid, v, inverted, separation):
            got = one_pass(grid, v, inverted, separation)
            want = reference_certified_points(grid, v, inverted, separation)
            assert (got is None) == (want is None)
            if got is not None:
                assert _stored(got) == _stored(want)
            decided.append(got is not None)
            return got

        monkeypatch.setattr(FloatGrid, "certified_points", checked)
        corr = Correspondence(ORBIT_FAMILIES[family])
        try:
            limit_set_sample(corr, 300, 29, direction, SpherePoint.from_complex(complex(0.6, 0.8)))
        except RootFindingError:
            # the known escape of forward chains: the float orbit leaves the
            # circle until an exact fiber is beyond float range; every base
            # point reached before has been checked
            assert direction == "forward"
        else:
            assert len(decided) == 300 + BURN_IN
        assert any(decided)

    @given(polynomials, st.sampled_from(["backward", "forward"]), base_points)
    @settings(max_examples=150, deadline=None)
    def test_coefficient_error_bound(self, p, direction, base):
        poly, _ = _fiber_problem(p, direction)
        c, e = float_specialise(FloatGrid(poly), *base.chart_value())
        for ck, ek, exact in zip(c, e, _exact_coeffs(poly, base)):
            dre = Fraction(ck.real) - exact.re
            dim = Fraction(ck.imag) - exact.im
            assert dre * dre + dim * dim <= Fraction(ek) ** 2

    @given(polynomials, st.sampled_from(["backward", "forward"]), base_points)
    @settings(max_examples=200, deadline=None)
    def test_inclusion_discs_hold_one_exact_root_each(self, p, direction, base):
        poly, _ = _fiber_problem(p, direction)
        found = scalar_certified_roots(*float_specialise(FloatGrid(poly), *base.chart_value()), 0)
        if found is None:
            return
        exact_roots = _roots_60_digits(_exact_coeffs(poly, base))
        with mpmath.workdps(60):
            for zeta, r in zip(*found):
                assert sum(abs(x - mpmath.mpc(zeta)) <= r for x in exact_roots) == 1

    @pytest.mark.parametrize("p,direction,base,points", [
        (circle_poly(), "backward", 1 + 0j, [(0j, 2)]),
        (circle_poly(), "backward", -1 + 0j, [(0j, 2)]),
        (_power_product(2, 3, 4), "forward", -1 + 0j, [(-1 + 0j, 1), (1 + 0j, 2)]),
        (BP.monomial_relation(3, 3), "backward", 0j, [(0j, 3)]),
        (BP.monomial_relation(3, 3), "forward", 0j, [(0j, 3)]),
        (BP.monomial_relation(2, 3), "backward", None, [(None, 2)]),
        (BP.monomial_relation(2, 3), "forward", None, [(None, 3)]),
    ], ids=["circle-at-1", "circle-at-minus-1", "product-234-forward", "monomial-33-backward",
            "monomial-33-forward", "monomial-23-backward-inf", "monomial-23-forward-inf"])
    def test_multiple_points_take_the_exact_path(self, p, direction, base, points):
        poly, _ = _fiber_problem(p, direction)
        base = SpherePoint.infinity() if base is None else SpherePoint.from_complex(base)
        assert FloatGrid(poly).certified_points(*base.chart_value(), 0) is None
        corr = Correspondence(p, check_squarefree=False)
        fiber = corr.backward_fiber(base) if direction == "backward" else corr.forward_fiber(base)
        want = [(SpherePoint.infinity() if z is None else SpherePoint.from_complex(z), e)
                for z, e in points]
        assert list(fiber.points) == want

    def test_certified_roots_within_tol_still_merge(self):
        # z^2 = w at w = 1e-16: two simple roots 2e-8 apart, proved simple by
        # the float test, still make one double point at tol 1e-6
        poly = BP.monomial_relation(2, 1)
        base = SpherePoint.from_complex(1e-16 + 0j)
        assert FloatGrid(poly).certified_points(*base.chart_value(), 0) is not None
        fiber = Correspondence(poly, check_squarefree=False).backward_fiber(base)
        assert [e for _, e in fiber.points] == [2]
        assert abs(fiber.points[0][0].to_complex()) < 1e-7

    @pytest.mark.parametrize("p,direction,base", [
        (circle_poly(), "backward", 1 + 0j),
        (BP([[(-5, 6), (-2, -4), (1, 0)], [(-1, 0)]]),
         "forward", -2 + 2j),
    ], ids=["circle-at-1", "non-real-double-root-inverted-chart"])
    def test_exact_path_does_no_fraction_arithmetic(self, monkeypatch, p, direction, base):
        # when the modular test decides, the exact path runs on Gaussian
        # integers from the specialisation to the float images
        poly, expected = _fiber_problem(p, direction)
        grid, base = FloatGrid(poly), SpherePoint.from_complex(base)
        assert grid.certified_points(*base.chart_value(), 0) is None
        want = Correspondence._fiber(grid, poly, base, expected, 1e-6)
        assert max(e for _, e in want.points) == 2

        def refuse(*args):
            raise AssertionError("Fraction arithmetic on the exact path")

        for op in ("add", "sub", "mul", "truediv", "pow"):
            monkeypatch.setattr(Fraction, f"__{op}__", refuse)
            monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
        assert Correspondence._fiber(grid, poly, base, expected, 1e-6) == want

    def test_eigenvalues_not_converging_is_a_decision(self, monkeypatch):
        # LAPACK's non-convergence comes back from the gufunc as NaN: the
        # float path is then undecided and the exact path gives the fiber;
        # where the exact path's eigenvalues fail too, RootFindingError
        poly, expected = _fiber_problem(ORBIT_FAMILIES[2], "backward")
        grid, base = FloatGrid(poly), SpherePoint.from_complex(complex(0.6, 0.8))
        assert grid.certified_points(*base.chart_value(), 0) is not None
        want = Correspondence._fiber(None, poly, base, expected, 1e-6)
        gufunc, calls = floats._umath_linalg.eigvals, []

        class Failing:
            @staticmethod
            def eigvals(a, signature):
                calls.append(len(a))
                if len(calls) > failures:
                    return gufunc(a, signature=signature)
                return np.full(len(a), complex(math.nan, 0))

        monkeypatch.setattr(floats, "_umath_linalg", Failing)
        failures = 1
        assert Correspondence._fiber(grid, poly, base, expected, 1e-6) == want
        assert calls == [5, 5]  # the float companion, then the exact squarefree one's
        failures = math.inf
        with pytest.raises(RootFindingError, match="non-finite root"):
            Correspondence._fiber(grid, poly, base, expected, 1e-6)
        with pytest.raises(RootFindingError, match="non-finite root"):
            roots([(-1, 0), (0, 0), (1, 0)])

    def test_nan_base_takes_the_exact_path(self):
        poly = BP.monomial_relation(2, 3)
        base = SpherePoint(complex(math.nan, 0.0), 1 + 0j)
        assert FloatGrid(poly).certified_points(*base.chart_value(), 0) is None
        with pytest.raises(ValueError, match="NaN"):
            Correspondence(poly, check_squarefree=False).backward_fiber(base)

    @given(polynomials, st.sampled_from(["backward", "forward"]), base_points)
    @settings(max_examples=100, deadline=None)
    def test_separated_roots_skip_clustering_unchanged(self, p, direction, base):
        # the shortcut for roots more than 2 tol apart gives exactly, signed
        # zeros included, what the chordal merge gives
        poly, expected = _fiber_problem(p, direction)
        grid = FloatGrid(poly)
        found = scalar_certified_roots(*float_specialise(grid, *base.chart_value()), 0)
        if found is None or not chordally_separated([complex(z) for z in found[0]], 2e-6):
            return
        want = _chordal_merge([(complex(z), 1) for z in found[0]], 1e-6)
        got = Correspondence._fiber(grid, poly, base, expected, 1e-6).points

        def stored(pairs):
            return [(repr(q.z1), repr(q.z2), e) for q, e in pairs]

        assert stored(got) == stored(want)

    def test_real_parts_that_round_alike_sort_as_the_merge_does(self):
        # p(., 0) = (z - 2 - 3i)(z - 2 - 2^-42 + 3i): the real parts of the two
        # roots round alike at 12 digits, so _point_sort_key orders them by
        # their imaginary parts, against the order of the raw real parts
        d = Fraction(1, 2**42)
        poly = BP([[(13 + 2 * d, 3 * d), -1], [-4 - d], [1]])
        grid, base = FloatGrid(poly), SpherePoint.from_complex(0j)
        found = scalar_certified_roots(*float_specialise(grid, *base.chart_value()), 2e-6)
        assert found is not None
        low, high = sorted(found[0], key=lambda z: z.real)
        assert low.real < high.real and round(low.real, 12) == round(high.real, 12)
        assert low.imag > 0 > high.imag
        got = Correspondence._fiber(grid, poly, base, 2, 1e-6).points
        want = _chordal_merge([(complex(z), 1) for z in found[0]], 1e-6)
        assert _stored(got) == _stored(want)
        assert [q.to_complex().imag < 0 for q, _ in got] == [True, False]

    @pytest.mark.parametrize("base,error", [
        (SpherePoint.from_complex(0.9 + 0j), None),
        (SpherePoint(complex(math.nan, 0.0), 1 + 0j), ValueError),
        (SpherePoint(complex(math.inf, 0.0), 1 + 0j), OverflowError),
    ], ids=["finite-base", "nan-base", "infinite-base"])
    def test_no_runtime_warning_escapes_the_float_path(self, base, error):
        # K (z^2 + (1 + w) z + w - 1) with K = 10^308: the grid's row sums
        # and a coefficient of the float specialisation at w = 0.9 overflow
        k = 10**308
        poly = BP([[-k, k], [k, k], [k]])
        if error is None:
            with pytest.warns(RuntimeWarning):
                FloatGrid(poly).grid @ np.array([1, base.to_complex()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corr = Correspondence(poly, check_squarefree=False)
            if error is not None:
                with pytest.raises(error):
                    corr.backward_fiber(base)
                return
            fiber = corr.backward_fiber(base)
        _same_fiber(fiber, _reference_fiber(poly, base, 2))

    @given(polynomials, st.sampled_from(["backward", "forward"]), base_points)
    @settings(max_examples=150, deadline=None)
    def test_float_specialisation_has_the_cumprod_bits(self, p, direction, base):
        poly, _ = _fiber_problem(p, direction)
        grid = FloatGrid(poly)
        got = float_specialise(grid, *base.chart_value())
        want = reference_float_specialise(grid, *base.chart_value())
        for a, b in zip(got, want):
            assert [repr(x) for x in a.tolist()] == [repr(x) for x in b.tolist()]


def _stored(pairs):
    return [(repr(q.z1), repr(q.z2), e) for q, e in pairs]
