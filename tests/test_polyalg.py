import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdyn import polyalg
from corrdyn.errors import InvalidInputError, RootFindingError
from corrdyn.polyalg import (
    BivariatePolynomial,
    GaussianRational,
    UnivariatePolynomial,
    _aberth,
    _certified_squarefree,
    _cluster,
    _xmonic,
    resultant_w,
    resultant_z,
    roots,
    squarefree_check,
    squarefree_factors,
)

GR = GaussianRational.of


def from_roots(lead, root_mults):
    """lead * prod (z - r)^m as an exact polynomial."""
    coeffs = [lead]
    for r, m in root_mults:
        for _ in range(m):
            # multiply by (z - r): new[i] = old[i - 1] - r * old[i]
            coeffs = [
                (coeffs[i - 1] if i else GR(0)) - (r * coeffs[i] if i < len(coeffs) else GR(0))
                for i in range(len(coeffs) + 1)
            ]
    return UnivariatePolynomial(coeffs)


def reference_roots(f, tol=1e-6):
    """roots(f) for exact f, always through Yun's squarefree decomposition."""
    pairs = []
    for factor, mult in squarefree_factors(f.coeffs):
        for r in _aberth(UnivariatePolynomial(factor).as_complex(), tol):
            pairs.append((complex(r), mult))
    return _cluster(pairs, tol)


small_gaussian_rationals = st.builds(
    lambda a, b, d: GR((Fraction(a, d), Fraction(b, d))),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9),
)
root_multisets = st.lists(
    st.tuples(small_gaussian_rationals, st.integers(1, 3)),
    min_size=1, max_size=4, unique_by=lambda rm: rm[0],
)


class TestGaussianRational:
    def test_field_ops(self):
        a = GR((Fraction(1, 2), Fraction(3)))
        b = GR((2, -1))
        assert complex(a + b) == complex(a) + complex(b)
        assert complex(a * b) == complex(a) * complex(b)
        assert complex(a - b) == complex(a) - complex(b)
        assert complex(a / b) * complex(b) == pytest.approx(complex(a))

    def test_float_lift_is_exact(self):
        a = GR(0.1)
        assert a.re == Fraction(0.1)  # binary float lifted exactly
        assert float(a.re) == 0.1

    def test_conjugate_and_abs2(self):
        a = GR((3, 4))
        assert complex(a * a.conjugate()) == 25

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_mul_matches_complex(self, ar, ai, br, bi):
        a, b = GR((ar, ai)), GR((br, bi))
        assert complex(a * b) == complex(ar, ai) * complex(br, bi)


class TestRoots:
    def test_multiplicity_exact(self):
        # (z - 1)^2 (z + 2): exact path must recover multiplicities
        f = UnivariatePolynomial([GR(-2), GR(3), GR(0), GR(1)])
        # coefficients of (z-1)^2 (z+2) = z^3 - 3z + 2
        f = UnivariatePolynomial([GR(2), GR(-3), GR(0), GR(1)])
        rs = roots(f)
        got = sorted((round(c.center.real), c.multiplicity) for c in rs)
        assert got == [(-2, 1), (1, 2)]

    def test_roots_of_unity(self):
        f = UnivariatePolynomial([GR(-1)] + [GR(0)] * 6 + [GR(1)])
        rs = roots(f)
        assert len(rs) == 7
        for c in rs:
            assert abs(abs(c.center) - 1) < 1e-9
            assert c.multiplicity == 1

    def test_float_coefficients(self):
        f = UnivariatePolynomial([-1.0, 0.0, 1.0])
        centers = sorted(c.center.real for c in roots(f))
        assert centers == pytest.approx([-1.0, 1.0])

    def test_high_multiplicity(self):
        # (z - i)^3
        f = UnivariatePolynomial([GR((0, 1)), GR(-3), GR((0, -3)), GR(1)])
        # coefficients of (z - i)^3 = z^3 - 3iz^2 - 3z + i
        f = UnivariatePolynomial([GR((0, 1)), GR(-3), GR((0, -3)), GR(1)])
        rs = roots(f)
        assert len(rs) == 1
        assert rs[0].multiplicity == 3
        assert rs[0].center == pytest.approx(1j)

    def test_coefficient_too_large_for_float(self):
        with pytest.raises(RootFindingError):
            roots(UnivariatePolynomial([GR(10**400), GR(1)]))

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_root_count_matches_degree(self, coeffs):
        f = UnivariatePolynomial([GR(c) for c in coeffs] + [GR(1)])
        rs = roots(f)
        assert sum(c.multiplicity for c in rs) == len(coeffs)


class TestSquarefreeFactors:
    def test_yun(self):
        # (z-1)^2 (z+2)
        f = [GR(2), GR(-3), GR(0), GR(1)]
        factors = squarefree_factors(f)
        mults = sorted(m for _, m in factors)
        assert mults == [1, 2]


class TestSquarefreeCertificate:
    def test_prime_and_square_root_of_minus_one(self):
        import sympy

        assert sympy.isprime(polyalg._P)
        assert polyalg._P % 4 == 1
        assert (polyalg._I ** 2 + 1) % polyalg._P == 0

    @given(small_gaussian_rationals.filter(bool), root_multisets)
    @settings(max_examples=80, deadline=None)
    def test_accepts_exactly_the_squarefree(self, lead, root_mults):
        # differences of these roots are (a + bi)/d with a^2 + b^2 far below p,
        # so p never divides the discriminant of a squarefree draw
        f = from_roots(lead, root_mults)
        squarefree = all(m == 1 for _, m in root_mults)
        assert _certified_squarefree(_xmonic(f.coeffs)) == squarefree

    @given(small_gaussian_rationals.filter(bool), root_multisets)
    @settings(max_examples=40, deadline=None)
    def test_roots_match_yun_reference(self, lead, root_mults):
        f = from_roots(lead, root_mults)
        rs = roots(f)
        assert rs == reference_roots(f)
        assert sorted(c.multiplicity for c in rs) == sorted(m for _, m in root_mults)

    @pytest.mark.parametrize("mults", [(2, 1), (1, 1)])
    def test_denominator_divisible_by_p_takes_yun(self, monkeypatch, mults):
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return squarefree_factors(coeffs)

        monkeypatch.setattr(polyalg, "squarefree_factors", counting)
        tiny = GR(Fraction(1, polyalg._P))
        f = from_roots(GR(1), [(tiny, mults[0]), (GR(2), mults[1])])
        rs = roots(f)
        assert len(calls) == 1
        assert [c.multiplicity for c in rs] == list(mults)
        assert rs[0].center == pytest.approx(1 / polyalg._P)
        assert rs[1].center == pytest.approx(2)


class TestBivariate:
    def test_degrees(self):
        p = BivariatePolynomial.monomial_relation(3, 2)
        assert (p.deg_z, p.deg_w) == (3, 2)

    def test_product_and_transpose(self):
        f = BivariatePolynomial.graph_of_power(2)
        g = BivariatePolynomial.graph_of_power(3)
        prod = BivariatePolynomial.product([f, g])
        assert (prod.deg_z, prod.deg_w) == (5, 2)
        t = prod.transpose()
        assert (t.deg_z, t.deg_w) == (2, 5)

    def test_resultant_example(self):
        # res_z(z^2 - w, 2z) = -4w
        p = BivariatePolynomial.monomial_relation(2, 1)
        r = resultant_z(p, p.partial_z())
        vals = [complex(r(w)) for w in (1.0, 2.0, -1.5)]
        assert vals == pytest.approx([-4, -8, 6])

    def test_resultant_w(self):
        p = BivariatePolynomial.monomial_relation(1, 2)
        r = resultant_w(p, p.partial_w())
        assert complex(r(3.0)) == pytest.approx(12)

    def test_squarefree_check(self):
        good = BivariatePolynomial.monomial_relation(2, 3)
        ok, witness = squarefree_check(good)
        assert ok and witness is None
        bad = BivariatePolynomial.product(
            [BivariatePolynomial.graph_of_power(2), BivariatePolynomial.graph_of_power(2)]
        )
        ok, witness = squarefree_check(bad)
        assert not ok and witness is not None

