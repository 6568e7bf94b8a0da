import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrdyn.correspondence import Correspondence, SpherePoint
from corrdyn.dynamics import (
    BURN_IN,
    ArcSet,
    CircleCorrespondence,
    circle_sampler,
    expansive_oracle,
    gp_enumerate,
    gp_sample,
    invariant_check,
    limit_set_sample,
    path_space,
)
from corrdyn.errors import InvalidInputError, ResourceLimitError
from corrdyn.families import component_count, expansive_decide, free_decide
from corrdyn.polyalg import BivariatePolynomial as BP

from support import (
    arc_measure,
    paths_ending_at,
    propagate_arcs,
    propagate_finite,
    reference_component_count,
    reference_covering_step,
    reference_gp_angles,
)


def circle_rel():
    return Correspondence(BP([[-1, 0, 1], [0], [1]]))


rational = st.fractions(
    min_value=F(0), max_value=F(1), max_denominator=64
)


@st.composite
def seed_arcs(draw):
    """One to three arcs with endpoint denominators up to about 2^64; about
    half of them straddle 1, so that they wrap.  Length denominators of every
    bit size make some images of a step nest inside others."""
    arcs = []
    for _ in range(draw(st.integers(1, 3))):
        length = F(draw(st.integers(1, 9)), draw(st.integers(10, 2 ** draw(st.integers(4, 64)))))
        if draw(st.booleans()):
            a = 1 - length * F(draw(st.integers(1, 9)), 10)
        else:
            q = draw(st.integers(1, 2**64))
            a = F(draw(st.integers(0, 2 * q)), q)
        arcs.append((a, a + length))
    return ArcSet.from_arcs(arcs)


class TestArcSet:
    def test_merge_adjacent(self):
        a = ArcSet.from_arcs([(F(0), F(1, 4)), (F(1, 4), F(1, 2))])
        assert a.arcs == ((F(0), F(1, 2)),)

    def test_wraparound_split(self):
        a = ArcSet.from_arcs([(F(7, 8), F(9, 8))])
        assert a.arcs == ((F(0), F(1, 8)), (F(7, 8), F(1)))
        assert arc_measure(a) == F(1, 4)

    def test_full_detection(self):
        assert ArcSet.from_arcs([(F(-1), F(3))]).is_full

    def test_reject_empty_arc(self):
        with pytest.raises(InvalidInputError):
            ArcSet.from_arcs([(F(1, 2), F(1, 2))])

    def test_json_roundtrip(self):
        a = ArcSet.from_arcs([(F(1, 3), F(5, 7))])
        assert a.arcs == ((F(1, 3), F(5, 7)),)
        assert ArcSet.from_json([[1, 3, 5, 7]]) == a

    @given(st.lists(st.tuples(rational, rational), min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_union_measure_subadditive(self, raw):
        arcs = [(a, a + b + F(1, 128)) for a, b in raw]
        s = ArcSet.from_arcs(arcs)
        assert arc_measure(s) <= min(
            F(1), sum((b - a for a, b in arcs), F(0))
        )
        # normalization is idempotent
        assert ArcSet.from_arcs(s.arcs) == s


class TestPropagation:
    def test_single_step_images(self):
        cc = CircleCorrespondence.monomial(2, 3)
        seed = ArcSet.from_arcs([(F(0), F(1, 12))])
        out = propagate_arcs(cc, seed)
        # three arcs of length (2/3) * (1/12)
        assert len(out.arcs) == 3
        assert arc_measure(out) == 3 * F(2, 3) * F(1, 12)

    def test_matches_covering_oracle(self):
        cc = CircleCorrespondence.monomial(2, 3)
        seed = ArcSet.from_arcs([(F(0), F(1, 100))])
        cur = seed
        for r in range(1, 9):
            cur = propagate_arcs(cc, cur)
            assert cur.is_full == reference_covering_step(2, 3, seed.arcs, r)

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (2, 3), (4, 3), (3, 5), (5, 2)])
    def test_first_full_image_is_the_oracle_step(self, m, n):
        # the arc-set images for r = 1..40 are full where the Fraction
        # covering test says so, and expansive_oracle reports the first of
        # them; on expanding families (m does not divide n) the images cover
        # before their arc count grows large
        cc = CircleCorrespondence.monomial(m, n)
        seed = ArcSet.from_arcs([(F(1, 7), F(1, 7) + F(1, 100))])
        cur, full = seed, []
        for _ in range(40):
            cur = propagate_arcs(cc, cur)
            full.append(cur.is_full)
        assert full == [reference_covering_step(m, n, seed.arcs, r) for r in range(1, 41)]
        assert expansive_oracle(cc, seed, max_steps=40) == (True, full.index(True) + 1)

    def test_finite_sets(self):
        corr = circle_rel()
        zero = [SpherePoint.from_complex(0j)]
        # U = {0}: even steps {0}, odd steps {1, -1}
        odd = propagate_finite(corr, zero, 1)
        assert sorted(round(p.to_complex().real) for p in odd) == [-1, 1]
        even = propagate_finite(corr, zero, 2)
        assert [p.to_complex() for p in even] == [pytest.approx(0j)]
        assert len(propagate_finite(corr, zero, 6)) == 1


class TestExpansiveness:
    def test_criterion(self):
        assert expansive_decide(CircleCorrespondence.monomial(2, 3))
        assert not expansive_decide(CircleCorrespondence.monomial(2, 4))
        assert not expansive_decide(CircleCorrespondence.monomial(1, 5))
        assert expansive_decide(CircleCorrespondence.monomial(3, 1))

    def test_oracle_agrees_on_grid(self):
        rng = random.Random(42)
        for m in range(1, 5):
            for n in range(1, 5):
                cc = CircleCorrespondence.monomial(m, n)
                a = F(rng.randrange(0, 64), 64)
                seed = ArcSet.from_arcs([(a, a + F(1, 48))])
                covered, _ = expansive_oracle(cc, seed, max_steps=64)
                assert covered == expansive_decide(cc), (m, n)

    def test_oracle_rejects_empty_seed(self):
        with pytest.raises(InvalidInputError):
            expansive_oracle(CircleCorrespondence.monomial(2, 3), ArcSet(arcs=()))

    @given(st.integers(1, 7), st.integers(1, 7), seed_arcs())
    # step 1 doubles these to [0, 3/5), [1/10, 1/5) and [1/2, 1): the nested
    # middle arc must not pull back the reach of the first
    @example(2, 3, ArcSet.from_arcs([(F(0), F(3, 10)), (F(11, 20), F(3, 5)), (F(3, 4), F(1))]))
    @settings(max_examples=150, deadline=None)
    def test_integer_covering_matches_fraction_oracle(self, m, n, seed):
        # the integer arcs over one denominator, updated from step to step,
        # first cover where the Fraction arcs first do
        cc = CircleCorrespondence.monomial(m, n)
        decisions = [reference_covering_step(m, n, seed.arcs, r) for r in range(1, 41)]
        if seed.is_full:
            expected = (True, 0)
        else:
            expected = next(((True, r) for r, hit in enumerate(decisions, 1) if hit),
                            (False, 40))
        assert expansive_oracle(cc, seed, max_steps=40) == expected


class TestComponents:
    @pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (4, 6), (3, 3), (1, 5)])
    def test_gcd_vs_oracle(self, m, n):
        cc = CircleCorrespondence.monomial(m, n)
        assert component_count(cc) == math.gcd(m, n)
        assert reference_component_count(cc, samples=600) == math.gcd(m, n)

    def test_oracle_refuses_tiny_sample(self):
        with pytest.raises(InvalidInputError):
            reference_component_count(CircleCorrespondence.monomial(5, 5), samples=10)


class TestFreeness:
    def test_monomial(self):
        assert free_decide(CircleCorrespondence.monomial(2, 3)) is True
        assert free_decide(CircleCorrespondence.monomial(4, 4)) is False

    def test_power_products(self):
        assert free_decide(CircleCorrespondence.power_product([2, 3])) is True
        assert free_decide(CircleCorrespondence.power_product([2, 4])) is None
        assert free_decide(CircleCorrespondence.power_product([2, 3, 5])) is True

    def test_mixed(self):
        assert free_decide(CircleCorrespondence.mixed_product([(2, 1), (1, 3)])) is True
        # (w - z^2)(w^2 - z): the explicit non-free pair
        assert free_decide(CircleCorrespondence.mixed_product([(2, 1), (1, 2)])) is False
        assert free_decide(CircleCorrespondence.mixed_product([(3, 1), (1, 3)])) is False
        # non-1 exponents share a factor: no criterion applies
        assert free_decide(CircleCorrespondence.mixed_product([(2, 1), (1, 4)])) is None
        assert free_decide(CircleCorrespondence.mixed_product([(1, 1), (2, 1)])) is None


class TestGP:
    def test_fixed_point_only(self):
        rep = gp_enumerate(CircleCorrespondence.monomial(2, 3), 1)
        assert rep.finite
        assert F(0) in rep.angles  # z = 1 is the unique circle fixed point

    def test_finite_counts_grow(self):
        cc = CircleCorrespondence.monomial(2, 3)
        sizes = [len(gp_enumerate(cc, N).angles) for N in (1, 2, 3)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_equal_exponents_infinite(self):
        rep = gp_enumerate(CircleCorrespondence.monomial(3, 3), 2)
        assert not rep.finite
        assert "diagonal" in rep.certificate

    def test_resource_refusal(self):
        with pytest.raises(ResourceLimitError):
            gp_enumerate(CircleCorrespondence.monomial(2, 3), 7)

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_integer_angles_match_fraction_oracle(self, m, n, N):
        assume(m != n)
        rep = gp_enumerate(CircleCorrespondence.monomial(m, n), N)
        assert rep.angles == reference_gp_angles(m, n, N)

    def test_gp_points_really_are_generalized_periodic(self):
        m, n = 2, 3
        cc = CircleCorrespondence.monomial(m, n)
        rep = gp_enumerate(cc, 2)
        d = math.gcd(m, n)

        def reachable(alpha, beta, r):
            if r == 0:
                return (alpha - beta) % 1 == 0
            count = n**r // d ** (r - 1)
            return any(
                ((F(m**r) * alpha + d ** (r - 1) * k) / n**r) % 1 == beta
                for k in range(count)
            )

        def starts_hitting(beta, r):
            # all alpha with beta reachable from alpha in exactly r steps
            if r == 0:
                return {beta}
            out = set()
            count = n**r // d ** (r - 1)
            for k in range(count):
                for t in range(m**r):
                    alpha = (F(n**r) * beta - F(d ** (r - 1) * k) + t) / F(m**r)
                    out.add(alpha % 1)
            return out

        for beta in rep.angles:
            witnessed = False
            for s in range(1, 3):
                for r in range(s):
                    commons = starts_hitting(beta, r) & starts_hitting(beta, s)
                    if any(
                        reachable(a, beta, r) and reachable(a, beta, s)
                        for a in commons
                    ):
                        witnessed = True
            assert witnessed, beta

    def test_gp_sample_heuristic(self):
        corr = Correspondence(BP.monomial_relation(2, 3))
        rep = gp_sample(corr, circle_sampler, N=2, samples=5, seed=1)
        assert 0.0 <= rep.density <= 1.0


class TestPaths:
    def test_forward_counts(self):
        corr = Correspondence(BP.monomial_relation(2, 3))
        start = [SpherePoint.from_complex(1 + 0j)]
        assert len(path_space(corr, start, 2)) == 3 * 3
        assert len(paths_ending_at(corr, start[0], 2)) == 2 * 2

    def test_path_cap(self, monkeypatch):
        corr = Correspondence(BP.monomial_relation(2, 3))
        start = [SpherePoint.from_complex(1 + 0j)]

        def refuse(*args, **kwargs):
            raise AssertionError("fiber solved before the path count was checked")

        monkeypatch.setattr(corr, "forward_fiber", refuse)
        monkeypatch.setattr(corr, "backward_fiber", refuse)
        with pytest.raises(ResourceLimitError):
            path_space(corr, start, 12)  # 3^12 > 200000
        with pytest.raises(ResourceLimitError):
            paths_ending_at(corr, start[0], 18)  # 2^18 > 200000
        with pytest.raises(ResourceLimitError):
            path_space(corr, start * 2, 10**12)

    def test_weights(self):
        corr = circle_rel()
        paths = paths_ending_at(corr, SpherePoint.from_complex(1 + 0j), 2)
        # (z1, 0, 1) with fiber over 0 simple and over 1 double
        assert sorted(p.weight for p in paths) == [2, 2]

    def test_invariance(self):
        corr = circle_rel()
        J = [SpherePoint.from_complex(v) for v in (0j, 1 + 0j, -1 + 0j)]
        ok, witness = invariant_check(corr, J)
        assert ok and witness is None
        bad, witness = invariant_check(corr, J[:2])
        assert not bad and witness is not None


class TestLimitSet:
    def test_deterministic(self):
        corr = Correspondence(BP.graph_of_power(2))
        a = limit_set_sample(corr, 40, seed=9)
        b = limit_set_sample(corr, 40, seed=9)
        assert [p.to_complex() for p in a] == [p.to_complex() for p in b]

    def test_backward_orbit_approaches_circle(self):
        corr = Correspondence(BP.graph_of_power(2))
        pts = limit_set_sample(corr, 60, seed=2, direction="backward")
        tail = pts[-30:]
        assert all(abs(abs(p.to_complex()) - 1) < 1e-6 for p in tail)

    def test_worker_fanout_changes_count(self):
        corr = Correspondence(BP.graph_of_power(2))
        pts = limit_set_sample(corr, 10, seed=2, workers=3)
        assert len(pts) == 30

    def test_bad_direction(self):
        corr = Correspondence(BP.graph_of_power(2))
        with pytest.raises(InvalidInputError):
            limit_set_sample(corr, 5, seed=0, direction="sideways")

    @given(st.integers(0, 2**64), st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_plain_draw_is_choices_with_unit_weights(self, seed, n, draws):
        # rng.choices bisects cum_weights [1..n] at random() * n: the floor
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            assert math.floor(a.random() * n) == b.choices(range(n), weights=[1] * n, k=1)[0]
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("direction", ["backward", "forward", "mixed"])
    def test_orbit_of_weighted_choices(self, direction):
        # the orbit that rng.choices by branch index gives at every step; the
        # forward orbit leaves the circle for 0 and infinity, double points
        corr = Correspondence(BP.product([BP.graph_of_power(2), BP.graph_of_power(3)]))
        start = SpherePoint.from_complex(0.6 + 0.8j)
        rng, p, want = random.Random(5 * 1000003), start, []
        for i in range(300 + BURN_IN):
            step = direction if direction != "mixed" else (
                "forward" if rng.random() < 0.5 else "backward")
            pts = corr.forward_fiber(p) if step == "forward" else corr.backward_fiber(p)
            p = rng.choices([q for q, _ in pts], weights=[e for _, e in pts], k=1)[0]
            want += [p] if i >= BURN_IN else []
        assert limit_set_sample(corr, 300, seed=5, direction=direction, start=start) == want
        if direction == "forward":
            assert max(e for _, e in corr.forward_fiber(want[-1])) > 1
