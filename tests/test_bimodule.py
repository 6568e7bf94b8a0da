import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdyn import cli
from corrdyn.bimodule import (
    FiniteBimodule,
    FockTruncation,
    SampledFunction,
    fock_build,
    fock_relation_check,
    fock_report,
    ideal_membership,
    inner_product,
    monomial_basis,
    monomial_basis_element,
    norm2,
    norm_inf,
    tensor_isometry_check,
    vanishing_lemma_check,
)
from corrdyn.correspondence import Correspondence, SpherePoint, unit_circle_points
from corrdyn.errors import InvalidInputError, ResourceLimitError
from corrdyn.polyalg import BivariatePolynomial as BP

from support import (
    constant_function,
    creation_matrix,
    dense_relation_check,
    dense_vanishing_lemma_check,
    left_action_matrix,
)


def circle_rel():
    return Correspondence(BP([[-1, 0, 1], [0], [1]]))


def random_trig(rng, degree=4):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree)]

    def fn(z, w):
        zz = z.to_complex()
        return sum(c * zz**k for k, c in enumerate(coeffs))

    return SampledFunction("correspondence", fn)


class TestInnerProduct:
    def test_constants_give_degree(self):
        for m, n in [(2, 1), (3, 1), (2, 3), (4, 2), (5, 5)]:
            corr = Correspondence(BP.monomial_relation(m, n))
            one = constant_function(1.0)
            for w in unit_circle_points(17):
                assert inner_product(corr, one, one, w) == pytest.approx(m, abs=1e-9)

    def test_double_point_weight(self):
        corr = circle_rel()
        one = constant_function(1.0)
        v = inner_product(corr, one, one, SpherePoint.from_complex(1 + 0j))
        assert v == pytest.approx(2)

    def test_disjoint_supports(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        f = SampledFunction(
            "correspondence", lambda z, w: 1.0 if z.to_complex().real > 0 else 0.0
        )
        g = SampledFunction(
            "correspondence", lambda z, w: 1.0 if z.to_complex().real <= 0 else 0.0
        )
        w = SpherePoint.from_complex(1j)
        assert inner_product(corr, f, g, w) == 0

    def test_positivity(self):
        corr = Correspondence(BP.monomial_relation(3, 2))
        rng = random.Random(5)
        f = random_trig(rng)
        for w in unit_circle_points(20):
            assert inner_product(corr, f, f, w).real >= -1e-12

    def test_right_linearity(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        rng = random.Random(7)
        f, g = random_trig(rng), random_trig(rng)
        b = complex(0.3, -1.2)
        gb = SampledFunction("correspondence", lambda z, w: g(z, w) * b)
        for w in unit_circle_points(11):
            lhs = inner_product(corr, f, gb, w)
            rhs = inner_product(corr, f, g, w) * b
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_path_domain(self):
        corr = circle_rel()
        one = SampledFunction("path", lambda pts: 1.0, path_length=2)
        w = SpherePoint.from_complex(1 + 0j)
        # paths (z1, 0, 1): weights 1*2 each over z1 in {1, -1}
        assert inner_product(corr, one, one, w) == pytest.approx(4)

    def test_domain_mismatch(self):
        corr = circle_rel()
        with pytest.raises(InvalidInputError):
            inner_product(
                corr,
                constant_function(1.0),
                constant_function(1.0, "base"),
                SpherePoint.from_complex(1 + 0j),
            )


class TestNorms:
    def test_constant(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        one = constant_function(1.0)
        grid = unit_circle_points(64)
        assert norm2(corr, one, grid) == pytest.approx(math.sqrt(2))
        assert norm_inf(corr, one, grid) == pytest.approx(1.0)

    def test_zero(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        zero = constant_function(0.0)
        grid = unit_circle_points(16)
        assert norm2(corr, zero, grid) == 0
        assert norm_inf(corr, zero, grid) == 0

    def test_sandwich(self):
        rng = random.Random(11)
        for m, n in [(2, 1), (3, 2), (4, 3)]:
            corr = Correspondence(BP.monomial_relation(m, n))
            grid = unit_circle_points(40)
            for _ in range(20):
                f = random_trig(rng)
                ninf = norm_inf(corr, f, grid)
                n2 = norm2(corr, f, grid)
                assert ninf <= n2 + 1e-9
                assert n2 <= math.sqrt(m) * ninf + 1e-9


class TestBasis:
    def test_element_matches_the_basis(self):
        z, w = SpherePoint.from_complex(0.6 + 0.8j), SpherePoint.from_complex(1 + 0j)
        for i, u in enumerate(monomial_basis(4)):
            assert monomial_basis_element(4, i)(z, w) == u(z, w)
        # one element of a huge basis is built alone
        assert monomial_basis_element(10**12, 2)(z, w) == (0.6 + 0.8j) ** 2 / 10**6

    @pytest.mark.parametrize("m,i", [(2, 2), (2, -1), (0, 0), (10**400, 0)])
    def test_element_refuses_bad_indices(self, m, i):
        with pytest.raises(InvalidInputError):
            monomial_basis_element(m, i)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_orthonormal(self, m):
        corr = Correspondence(BP.monomial_relation(m, 1))
        us = monomial_basis(m)
        for w in unit_circle_points(50):
            for i in range(m):
                for j in range(m):
                    v = inner_product(corr, us[i], us[j], w)
                    assert v == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_reconstruction(self, m):
        corr = Correspondence(BP.monomial_relation(m, 1))
        us = monomial_basis(m)
        rng = random.Random(m)
        f = random_trig(rng, degree=m + 2)
        for w in unit_circle_points(12):
            for z, _ in corr.backward_fiber(w).points:
                total = sum(
                    complex(u(z, w)) * inner_product(corr, u, f, w) for u in us
                )
                assert abs(total - complex(f(z, w))) < 1e-8


class TestTensorIsometry:
    def test_basis_tensors(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        us = monomial_basis(2)
        dev = tensor_isometry_check(
            corr, [us[0], us[1]], [us[0], us[1]], unit_circle_points(32)
        )
        assert dev < 1e-9

    def test_single_factor_trivial(self):
        corr = Correspondence(BP.monomial_relation(2, 3))
        one = constant_function(1.0)
        assert tensor_isometry_check(corr, [one], [one], unit_circle_points(8)) == 0

    def test_triple(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        rng = random.Random(3)
        fs = [random_trig(rng, 2) for _ in range(3)]
        gs = [random_trig(rng, 2) for _ in range(3)]
        assert tensor_isometry_check(corr, fs, gs, unit_circle_points(16)) < 1e-9

    def test_finite_set_exact(self):
        corr = circle_rel()
        J = [SpherePoint.from_complex(v) for v in (0j, 1 + 0j, -1 + 0j)]
        one = constant_function(1.0)
        assert tensor_isometry_check(corr, [one, one], [one, one], J) == 0

    def test_length_cap(self):
        corr = Correspondence(BP.monomial_relation(2, 1))
        one = constant_function(1.0)
        with pytest.raises(InvalidInputError):
            tensor_isometry_check(corr, [one] * 4, [one] * 4, unit_circle_points(8))


class TestIdeal:
    def test_product_family(self):
        factors = [BP.graph_of_power(2), BP.graph_of_power(3)]
        corr = Correspondence(BP.product(factors))
        vanishing = SampledFunction("base", lambda z: z.to_complex() - 1)
        assert ideal_membership(corr, vanishing)
        assert not ideal_membership(corr, constant_function(1.0, "base"))

    def test_monomial_everything_in_ideal(self):
        corr = Correspondence(BP.graph_of_power(2))
        assert ideal_membership(corr, constant_function(1.0, "base"))


class TestFiniteBimodule:
    def test_edges(self):
        fb = FiniteBimodule.build(circle_rel(), [0, 1, -1])
        assert fb.edges == ((0, 1, 2), (0, 2, 2), (1, 0, 1), (2, 0, 1))
        # every backward fiber of z^2 + w^2 - 1 has total weight deg_z = 2
        weights = {}
        for _, wi, e in fb.edges:
            weights[wi] = weights.get(wi, 0) + e
        assert weights == {0: 2, 1: 2, 2: 2}

    def test_rejects_non_invariant(self):
        with pytest.raises(InvalidInputError):
            FiniteBimodule.build(circle_rel(), [0, 1])

    def test_fock_solves_two_fibers_per_point(self, monkeypatch, capsys):
        # one forward and one backward solve per point of J: the module is
        # built on the backward fibers invariant_check solved
        solve, bases = Correspondence._fiber, []

        def counting(grid, poly, base, expected, tol):
            bases.append(base)
            return solve(grid, poly, base, expected, tol)

        monkeypatch.setattr(Correspondence, "_fiber", staticmethod(counting))
        spec = '{"coeffs":[[[-1,0],[0,0],[1,0]],[[0,0]],[[1,0]]]}'
        assert cli.main(["fock", "--poly", spec, "--set", "[[0,0],[1,0],[-1,0]]",
                         "--K", "5"]) == 0
        assert len(bases) == 6
        assert sorted(b.z1.real for b in bases) == [-1, -1, 0, 0, 1, 1]
        assert capsys.readouterr().out.startswith("{")


class TestFock:
    @pytest.fixture
    def ft(self):
        return fock_build(FiniteBimodule.build(circle_rel(), [0, 1, -1]), 3)

    def test_block_dims(self, ft):
        assert ft.block_dims == (3, 4, 6, 8)

    def test_relations_exact(self, ft):
        assert fock_relation_check(ft) == 0

    def test_creation_truncates(self, ft):
        assert ft.creation_map(ft.base.edges[0][:2], 3) == {}
        assert creation_matrix(ft, 0, 3) == []

    def test_creation_map_is_the_dense_matrix(self, ft):
        for ei, edge in enumerate(ft.base.edges):
            for k in range(ft.K + 1):
                M = creation_matrix(ft, ei, k)
                ones = {c: r for r, row in enumerate(M) for c, v in enumerate(row) if v}
                assert ft.creation_map(edge[:2], k) == ones
                assert all(v in (0, 1) for row in M for v in row)

    def test_left_action_level0_diagonal(self, ft):
        M = left_action_matrix(ft, {0: 5, 1: 7}, 0)
        assert [M[i][i] for i in range(3)] == [5, 7, 0]

    def test_level_cap(self):
        fb = FiniteBimodule.build(circle_rel(), [0, 1, -1])
        with pytest.raises(ResourceLimitError):
            fock_build(fb, 9)
        with pytest.raises(InvalidInputError):
            fock_build(fb, -1)

    def test_report(self, ft):
        rep = fock_report(ft)
        assert rep["block_dims"] == [3, 4, 6, 8]
        assert rep["relation_max_deviation"] == 0.0


class TestVanishingLemma:
    @pytest.fixture
    def ft(self):
        return fock_build(FiniteBimodule.build(circle_rel(), [0, 1, -1]), 4)

    def test_passes_for_parity_separated_a(self, ft):
        # vertex indices: 0 -> 0, 1 -> 1, 2 -> -1; the graph alternates
        # between {0} and {1, -1}, so for levels of different parity the
        # hypothesis holds for a supported on one side
        a = {1: 1}
        x = ft.blocks[1][0]
        y = ft.blocks[2][0]
        assert vanishing_lemma_check(ft, a, x, y)

    def test_zero_a_trivial(self, ft):
        assert vanishing_lemma_check(ft, {}, ft.blocks[1][0], ft.blocks[2][0])

    def test_hypothesis_violation_names_witness(self, ft):
        with pytest.raises(InvalidInputError, match="hypothesis"):
            vanishing_lemma_check(
                ft, {0: 1, 1: 1, 2: 1}, ft.blocks[1][0], ft.blocks[2][0]
            )

    def test_equal_levels_rejected(self, ft):
        with pytest.raises(InvalidInputError):
            vanishing_lemma_check(ft, {}, ft.blocks[1][0], ft.blocks[1][1])

    def test_all_hypothesis_satisfying_a_pass(self, ft):
        # enumerate 0/1-valued a over the vertex set for several (i, j)
        checked = 0
        for i, j in [(1, 2), (2, 1), (0, 1), (1, 0), (2, 3)]:
            for mask in range(8):
                a = {v: 1 for v in range(3) if mask >> v & 1}
                x, y = ft.blocks[i][0], ft.blocks[j][0]
                try:
                    assert vanishing_lemma_check(ft, a, x, y)
                    checked += 1
                except InvalidInputError:
                    pass
        assert checked > 5


@st.composite
def finite_bimodules(draw):
    """A FiniteBimodule with 1-4 vertices and weights 1-3, at times with one
    (z, w) edge listed twice, so that the Fock relations fail."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n, unique=True))
    edges = [(z, w, draw(st.integers(1, 3))) for z, w in pairs]
    if edges and draw(st.booleans()):
        z, w, _ = draw(st.sampled_from(edges))
        edges.append((z, w, draw(st.integers(1, 3))))
    J = tuple(SpherePoint.from_complex(complex(v)) for v in range(n))
    return FiniteBimodule(J=J, edges=tuple(sorted(edges)))


@st.composite
def fock_truncations(draw):
    """A FockTruncation over any edge list on 1-4 vertices: edges repeated
    at will, weights in -3..3, K up to 7 where the path bases stay small,
    and at times a basis path listed twice or a level out of order, so that
    the relations fail in every way the structure allows."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n + 2))
    edges = tuple(sorted((z, w, draw(st.integers(-3, 3))) for z, w in pairs))
    fb = FiniteBimodule(J=tuple(SpherePoint.from_complex(complex(v)) for v in range(n)),
                        edges=edges)
    sizes = fock_build(fb, 7).block_dims
    K = min(draw(st.integers(0, 7)),
            max(k for k in range(8) if sum(sizes[:k + 1]) <= 40))
    blocks = list(fock_build(fb, K).blocks)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, K))
        if draw(st.booleans()):
            blocks[k] = blocks[k][::-1]
        elif blocks[k]:
            blocks[k] += (draw(st.sampled_from(blocks[k])),)
    return FockTruncation(base=fb, K=K, blocks=tuple(blocks))


class TestFockAgainstDenseMatrices:
    # the dense Fraction-matrix route in tests/support.py is the reference

    @settings(max_examples=300, deadline=None)
    @given(finite_bimodules(), st.integers(0, 3))
    def test_relation_check(self, fb, K):
        ft = fock_build(fb, K)
        assert fock_relation_check(ft) == dense_relation_check(ft)

    @settings(max_examples=200, deadline=None)
    @given(fock_truncations())
    def test_relation_check_on_any_structure(self, ft):
        assert fock_relation_check(ft) == dense_relation_check(ft)

    @settings(max_examples=300, deadline=None)
    @given(finite_bimodules(), st.integers(0, 3), st.data())
    def test_vanishing_lemma(self, fb, K, data):
        ft = fock_build(fb, K)
        a = data.draw(st.dictionaries(
            st.integers(0, len(fb.J) - 1), st.sampled_from([0, 1, -2, 1j, 1 - 1j])))
        i, j = (data.draw(st.integers(0, K)) for _ in range(2))
        if not ft.blocks[i] or not ft.blocks[j]:
            return
        x = data.draw(st.sampled_from(ft.blocks[i]))
        y = data.draw(st.sampled_from(ft.blocks[j]))
        try:
            expected = dense_vanishing_lemma_check(ft, a, x, y)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as raised:
                vanishing_lemma_check(ft, a, x, y)
            assert str(raised.value) == str(exc)
        else:
            assert vanishing_lemma_check(ft, a, x, y) == expected

    def test_duplicated_edge_deviates(self):
        # two indicators of the same (z, w) edge are not orthogonal
        fb = FiniteBimodule(J=(SpherePoint.from_complex(0j),), edges=((0, 0, 1), (0, 0, 2)))
        ft = fock_build(fb, 2)
        assert fock_relation_check(ft) == dense_relation_check(ft) == 2
