import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdyn.errors import InvalidInputError, RootFindingError
from corrdyn.polyalg import (
    BivariatePolynomial,
    GaussianRational,
    UnivariatePolynomial,
    resultant_w,
    resultant_z,
    roots,
    squarefree_check,
    squarefree_factors,
)

GR = GaussianRational.of


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

