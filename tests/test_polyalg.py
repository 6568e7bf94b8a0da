import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdyn import polyalg
from corrdyn.errors import InvalidInputError, RootFindingError
from corrdyn.polyalg import (
    BivariatePolynomial,
    GaussianRational,
    UnivariatePolynomial,
    _companion_roots,
    _P,
    _modular_squarefree,
    _xcoprime,
    _xdeg,
    _xdivmod,
    _xgcd,
    _xmonic,
    _zi_mul,
    _zi_quotient,
    certified_roots,
    polish_roots,
    resultant_w,
    resultant_z,
    roots,
    squarefree_check,
    squarefree_factors,
)

from support import (
    chordally_separated,
    integer_coeffs,
    reference_certified_roots,
    reference_resultant_z,
    reference_squarefree_check,
    reference_univariate_in_z,
    reference_univariate_in_z_inverted,
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


def reference_roots(f):
    """roots of exact f, always through Yun's squarefree decomposition."""
    return [
        (complex(r), mult)
        for factor, mult in squarefree_factors(f.coeffs)
        for r in _companion_roots([complex(c) for c in factor])
    ]


def modular_split(f):
    """_modular_squarefree on f's Gaussian-integer coefficients, with each
    factor made a monic tuple of Gaussian rationals, as squarefree_factors
    gives it."""
    split = _modular_squarefree(integer_coeffs(f))
    if split is None:
        return None
    return [(_xmonic(tuple(GR(c) for c in a)), k) for a, k in split]


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
        rs = roots(integer_coeffs(f))
        got = sorted((round(z.real), m) for z, m in rs)
        assert got == [(-2, 1), (1, 2)]

    def test_roots_of_unity(self):
        f = UnivariatePolynomial([GR(-1)] + [GR(0)] * 6 + [GR(1)])
        rs = roots(integer_coeffs(f))
        assert len(rs) == 7
        for z, m in rs:
            assert abs(abs(z) - 1) < 1e-9
            assert m == 1

    def test_float_coefficients(self):
        f = UnivariatePolynomial([-1.0, 0.0, 1.0])
        centers = sorted(z.real for z, _ in roots(integer_coeffs(f)))
        assert centers == pytest.approx([-1.0, 1.0])

    def test_high_multiplicity(self):
        # (z - i)^3
        f = UnivariatePolynomial([GR((0, 1)), GR(-3), GR((0, -3)), GR(1)])
        # coefficients of (z - i)^3 = z^3 - 3iz^2 - 3z + i
        f = UnivariatePolynomial([GR((0, 1)), GR(-3), GR((0, -3)), GR(1)])
        rs = roots(integer_coeffs(f))
        assert len(rs) == 1
        assert rs[0][1] == 3
        assert rs[0][0] == pytest.approx(1j)

    def test_coefficient_too_large_for_float(self):
        with pytest.raises(RootFindingError):
            roots(integer_coeffs(UnivariatePolynomial([GR(10**400), GR(1)])))

    @pytest.mark.parametrize("outcome", [np.linalg.LinAlgError("no convergence"),
                                         np.array([np.inf + 0j])],
                             ids=["eigenvalues-fail", "non-finite-root"])
    def test_companion_failure_is_a_root_finding_error(self, monkeypatch, outcome):
        def fake_roots(_):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(polyalg.np, "roots", fake_roots)
        with pytest.raises(RootFindingError):
            roots(integer_coeffs(UnivariatePolynomial([GR(1), GR(1)])))

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_root_count_matches_degree(self, coeffs):
        f = UnivariatePolynomial([GR(c) for c in coeffs] + [GR(1)])
        rs = roots(integer_coeffs(f))
        assert sum(m for _, m in rs) == len(coeffs)


class TestPolishRoot:
    def test_reaches_the_exact_roots(self):
        # the companion roots of (z - 2000)(z - 2001) are off by 1.4e-9
        f = UnivariatePolynomial([GR(2000 * 2001), GR(-4001), GR(1)])
        rough = sorted(z.real for z, _ in roots(integer_coeffs(f)))
        assert rough != [2000, 2001]
        assert polish_roots(integer_coeffs(f), [(complex(z), 1) for z in rough]) == [2000, 2001]

    def test_rational_coefficients(self):
        # (z - 1/3)(z - (1 + 2i)/7), from 1e-7 off: within rounding of both
        # roots (an imaginary part that should be 0 shrinks like its square)
        r, s = GR(Fraction(1, 3)), GR((Fraction(1, 7), Fraction(2, 7)))
        f = from_roots(GR(Fraction(5, 2)), [(r, 1), (s, 1)])
        cs = integer_coeffs(f)
        got = sorted(polish_roots(cs, [(z * (1 + 1e-7), 1) for z, _ in roots(cs)]), key=abs)
        for z, want in zip(got, (complex(s), complex(r))):
            assert abs(z - want) <= 1e-30 + 2**-53 * abs(want)

    def test_multiple_root_converges_with_its_multiplicity(self):
        # (z - i)^3 from 1e-6 off: a plain Newton step would only take a third
        f = UnivariatePolynomial([GR((0, 1)), GR(-3), GR((0, -3)), GR(1)])
        assert abs(polish_roots(integer_coeffs(f), [(1e-6 + 1.000001j, 3)])[0] - 1j) < 1e-15

    def test_stops_at_a_critical_point(self):
        f = UnivariatePolynomial([GR(-1), GR(0), GR(1)])
        assert polish_roots(integer_coeffs(f), [(0j, 1)]) == [0j]

    def test_stops_before_leaving_float_range(self):
        # from z = 1e-310 the step to z^2 - 1 = 0 lands near 5e309
        f = UnivariatePolynomial([GR(-1), GR(0), GR(1)])
        assert polish_roots(integer_coeffs(f), [(1e-310 + 0j, 1)]) == [1e-310]


def _certify(c, e):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return certified_roots(np.array(c, dtype=complex), np.array(e, dtype=float), 0)


class TestCertifiedRoots:
    # _certify makes every warning an error; where numpy gave inf or nan,
    # Python raises instead, and that must mean undecided

    def test_zero_constant_term_gives_root_zero_last(self):
        # z (z - 1)(z - 2)(z + 3), in the order and bits of np.roots
        c = [0, 6, -7, 0, 1]
        zeta, r = _certify(c, [1e-15] * 5)
        want = np.roots(np.array(c, dtype=complex)[::-1])
        assert [repr(z) for z in zeta] == [repr(complex(z)) for z in want]
        assert zeta[-1] == 0
        assert sorted(round(z.real) for z in zeta) == [-3, 0, 1, 2]
        assert all(0 < x < 1e-6 for x in r)

    def test_coincident_roots_are_undecided(self):
        # z^2 (z - 1): two roots at exactly 0, so a spread is 0
        assert _certify([0, 0, -1, 1], [1e-16] * 4) is None

    @pytest.mark.parametrize("c", [[1.5e308 + 1.5e308j, 0, 1], [1, 1, 1.5e308 + 1.5e308j]],
                             ids=["constant", "leading"])
    def test_modulus_beyond_float_range_is_undecided(self, c):
        assert _certify(c, [1e-16] * 3) is None

    def test_spread_beyond_float_range_is_undecided(self):
        # 1e-225 z^3 + 1e-65 z^2 + 1e77 z + 1e-10 has a root near -1e160
        # whose spread overflows, which would give its disc radius 0
        c = [1e-10, 1e77, 1e-65, 1e-225]
        assert _certify(c, [abs(x) * 1e-12 for x in c]) is None

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nan_coefficient_is_undecided(self, k):
        c = [1, 2, 1j]
        c[k] = complex(math.nan, 0)
        assert _certify(c, [1e-16] * 3) is None

    @given(st.integers(2, 5), st.lists(st.complex_numbers(max_magnitude=1e6), max_size=4),
           st.floats(0, 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_two_zero_low_order_coefficients_are_undecided_before_eigenvalues(
            self, k0, rest, err):
        # 0 is then a root k0 >= 2 times: no two of its discs are disjoint,
        # which the numpy route finds from the eigenvalues
        c = np.array([0j] * k0 + rest + [1 + 0j])
        e = np.full(len(c), err)
        assert reference_certified_roots(c, e) is None

        def refuse(_):
            raise AssertionError("companion eigenvalues computed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyalg.np.linalg, "eigvals", refuse)
            assert certified_roots(c, e, 0) is None


    @given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(0, 4), st.floats(-9, -3),
                              st.floats(0, 2 * math.pi)), max_size=3),
           st.floats(-16, -8))
    @settings(max_examples=200, deadline=None)
    def test_separation_rejects_exactly_what_the_separate_check_rejects(
            self, zeros, near, log_err):
        # roots moved next to others by 1e-9 to 1e-3, around the chordal
        # separation 2e-6 a fiber at tol 1e-6 asks for
        zeros = list(zeros)
        for k, log_gap, angle in near:
            zeros.append(zeros[k % len(zeros)] + 10**log_gap * complex(math.cos(angle),
                                                                        math.sin(angle)))
        c = np.poly(np.array(zeros))[::-1].astype(complex)
        e = np.abs(c) * 10**log_err
        with np.errstate(all="ignore"):
            got, first = certified_roots(c, e, 2e-6), certified_roots(c, e, 0)
        rejected = first is None or not chordally_separated([z + 0j for z in first[0]], 2e-6)
        assert (got is None) == rejected
        if got is not None:
            assert [repr(z) for z in got[0]] == [repr(z) for z in first[0]]
            assert got[1] == first[1]


class TestSquarefreeFactors:
    def test_yun(self):
        # (z-1)^2 (z+2)
        f = [GR(2), GR(-3), GR(0), GR(1)]
        factors = squarefree_factors(f)
        mults = sorted(m for _, m in factors)
        assert mults == [1, 2]


class TestSquarefreeCertificate:
    def test_prime_and_square_root_of_minus_one(self):
        # _P and _I, and the primes made on demand after them
        import sympy

        pairs = [polyalg._prime(k) for k in range(6)]
        assert pairs[0] == (polyalg._P, polyalg._I)
        assert len({p for p, _ in pairs}) == len(pairs)
        for p, unit in pairs:
            assert p < 2**61 and p % 4 == 1 and sympy.isprime(p)
            assert (unit * unit + 1) % p == 0

    def test_miller_rabin_against_sympy(self):
        import sympy

        # small cases, Carmichael numbers, a strong pseudoprime to the bases
        # 2, 3, 5 and 7, and the 200 numbers below 2^61
        for n in [1, 2, 3, 4, 561, 1105, 3215031751, 2**61 - 1, *range(2**61 - 200, 2**61)]:
            assert polyalg._is_prime(n) == sympy.isprime(n), n

    @given(small_gaussian_rationals.filter(bool), root_multisets)
    @settings(max_examples=80, deadline=None)
    def test_accepts_exactly_the_squarefree(self, lead, root_mults):
        # differences of these roots are (a + bi)/d with a^2 + b^2 far below p,
        # so p never divides the discriminant of a squarefree draw
        f = from_roots(lead, root_mults)
        squarefree = all(m == 1 for _, m in root_mults)
        monic = _xmonic(f.coeffs)
        assert (modular_split(f) == [(monic, 1)]) == squarefree

    @given(small_gaussian_rationals.filter(bool), root_multisets)
    @settings(max_examples=40, deadline=None)
    def test_roots_match_yun_reference(self, lead, root_mults):
        f = from_roots(lead, root_mults)
        rs = roots(integer_coeffs(f))
        assert rs == reference_roots(f)
        assert sorted(m for _, m in rs) == sorted(m for _, m in root_mults)

    @pytest.mark.parametrize("mults", [(2, 1), (1, 1)])
    def test_denominator_divisible_by_p_takes_yun(self, monkeypatch, mults):
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return squarefree_factors(coeffs)

        monkeypatch.setattr(polyalg, "squarefree_factors", counting)
        tiny = GR(Fraction(1, polyalg._P))
        f = from_roots(GR(1), [(tiny, mults[0]), (GR(2), mults[1])])
        rs = sorted(roots(integer_coeffs(f)), key=lambda zm: zm[0].real)
        assert len(calls) == 1
        assert [m for _, m in rs] == list(mults)
        assert rs[0][0] == pytest.approx(1 / polyalg._P)
        assert rs[1][0] == pytest.approx(2)

    def test_denominator_above_reconstruction_bound_takes_yun(self, monkeypatch):
        # the factor z - 1/q, q = 2^30 + 3, has a coefficient beyond rational
        # reconstruction modulo p, whose bound is sqrt(p / 2) < 2^30 + 3
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return squarefree_factors(coeffs)

        monkeypatch.setattr(polyalg, "squarefree_factors", counting)
        f = from_roots(GR(1), [(GR(Fraction(1, 2**30 + 3)), 2), (GR(2), 1)])
        assert modular_split(f) is None
        rs = sorted(roots(integer_coeffs(f)), key=lambda zm: zm[0].real)
        assert len(calls) == 1
        assert [m for _, m in rs] == [2, 1]


def _coefficients(kind):
    """Roots and leading coefficients in Z, Q or Z[i]."""
    small = st.integers(-6, 6)
    return {
        "ZZ": small.map(GR),
        "QQ": st.builds(Fraction, small, st.integers(1, 6)).map(GR),
        "ZZ_I": st.tuples(small, small).map(GR),
    }[kind]


@st.composite
def repeated_products(draw):
    """lead * prod (z - r)^m with at least one m >= 2, over Z, Q or Z[i]."""
    kind = draw(st.sampled_from(["ZZ", "QQ", "ZZ_I"]))
    lead = draw(_coefficients(kind).filter(bool))
    root_mults = draw(st.lists(st.tuples(_coefficients(kind), st.integers(1, 4)),
                               min_size=1, max_size=4, unique_by=lambda rm: rm[0]))
    if all(m == 1 for _, m in root_mults):
        root_mults[0] = (root_mults[0][0], 2)
    return from_roots(lead, root_mults)


class TestModularSplit:
    @given(repeated_products())
    @settings(max_examples=80, deadline=None)
    def test_equals_yun(self, f):
        assert modular_split(f) == squarefree_factors(f.coeffs)

    def test_conjugate_ideals_rebuild_gaussian_factors(self):
        # (z - (1 + 2i)/3)^2 (z - i)^3 (z + 5): the imaginary parts come from
        # the two images, under i -> I and i -> -I
        f = from_roots(GR((2, -1)), [(GR((Fraction(1, 3), Fraction(2, 3))), 2),
                                     (GR((0, 1)), 3), (GR(-5), 1)])
        split = modular_split(f)
        assert split == squarefree_factors(f.coeffs)
        assert [(len(a) - 1, m) for a, m in split] == [(1, 1), (1, 2), (1, 3)]

    @given(st.lists(st.tuples(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                                        st.integers(1, 6)), st.integers(1, 3)),
                    min_size=1, max_size=3, unique_by=lambda rm: rm[0][:2]),
           st.tuples(st.integers(-6, 6), st.integers(1, 6)))
    @settings(max_examples=60, deadline=None)
    def test_non_real_split_uses_both_ideals_and_equals_yun(self, drawn, lead):
        # a non-real root of multiplicity >= 2 and a non-real leading
        # coefficient: Yun runs modulo p under i -> I and under i -> -I
        root_mults = [(GR((Fraction(a, d), Fraction(b, d))), m) for (a, b, d), m in drawn]
        (a, b, d), m = drawn[0]
        root_mults[0] = (GR((Fraction(a, d), Fraction(abs(b), d) + 1)), max(2, m))
        f = from_roots(GR(lead), root_mults)
        images = []

        def recording(g, p):
            images.append(list(g))
            return fp_yun(g, p)

        fp_yun = polyalg._fp_yun
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyalg, "_fp_yun", recording)
            split = modular_split(f)
        assert len(images) == 2 and images[0] != images[1]
        assert split == squarefree_factors(f.coeffs)

    @pytest.mark.parametrize("repeated", [False, True], ids=["squarefree", "repeated"])
    def test_leading_coefficient_in_the_conjugate_ideal_only(self, monkeypatch, repeated):
        # lc = I + i vanishes under i -> -I and not under i -> I: the
        # squarefree test needs only the first, Yun's split needs both
        calls = []

        def counting(coeffs):
            calls.append(coeffs)
            return squarefree_factors(coeffs)

        monkeypatch.setattr(polyalg, "squarefree_factors", counting)
        lc = GR((polyalg._I, 1))
        f = from_roots(lc, [(GR((0, 1)), 2 if repeated else 1), (GR(-1), 1)])
        coeffs = integer_coeffs(f)
        assert (coeffs[-1][0] - polyalg._I * coeffs[-1][1]) % polyalg._P == 0
        assert (coeffs[-1][0] + polyalg._I * coeffs[-1][1]) % polyalg._P != 0
        assert _modular_squarefree(coeffs) == (None if repeated else [(coeffs, 1)])
        rs = roots(coeffs)
        assert len(calls) == int(repeated)
        assert rs == reference_roots(f)
        assert sorted(m for _, m in rs) == ([1, 2] if repeated else [1, 1])

    def test_leading_coefficient_in_the_first_ideal_is_undecided(self):
        # lc = I - i vanishes under i -> I, so not even the squarefree test
        # is sound there
        f = from_roots(GR((polyalg._I, -1)), [(GR(1), 1), (GR(2), 1)])
        assert _modular_squarefree(integer_coeffs(f)) is None
        assert roots(integer_coeffs(f)) == reference_roots(f)


rational_grids = st.lists(
    st.lists(small_gaussian_rationals, min_size=1, max_size=4), min_size=1, max_size=4,
).filter(lambda grid: any(c for row in grid for c in row))
# parts of base points: any finite float, and the subnormal, huge and signed
# zero extremes, for which the reading x / q has the most bits
float_parts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -3 * 2.0**-1074, 2.0**-1022, 1.7976931348623157e308,
                     -1e300, 0.1]),
)


def _specialise(p, v: complex, inverted: bool):
    return p.univariate_in_z_inverted(v) if inverted else p.univariate_in_z(v)


def _oracle(p, v: complex, inverted: bool):
    specialise = reference_univariate_in_z_inverted if inverted else reference_univariate_in_z
    return specialise(p, GR(v))


class TestIntegerSpecialisation:
    @given(rational_grids, float_parts, float_parts, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_fraction_oracle_times_its_scale(self, grid, re, im, inverted):
        p = BivariatePolynomial(grid)
        v = complex(re, im)
        scale, coeffs = _specialise(p, v, inverted)
        assert isinstance(scale, int) and scale > 0
        assert coeffs == [(c.re * scale, c.im * scale) for c in _oracle(p, v, inverted).coeffs]

    @pytest.mark.parametrize("v,error,match", [
        (complex(math.nan, 0.0), ValueError, "NaN"),
        (complex(0.5, math.nan), ValueError, "NaN"),
        (complex(math.inf, 0.0), OverflowError, "Infinity"),
    ], ids=["nan-real", "nan-imag", "inf-real"])
    @pytest.mark.parametrize("inverted", [False, True])
    def test_non_finite_base_raises_as_the_fraction_lift(self, v, error, match, inverted):
        p = BivariatePolynomial.monomial_relation(2, 3)
        for specialise in (_specialise, _oracle):
            with pytest.raises(error, match=match):
                specialise(p, v, inverted)

    def test_integer_grid_is_computed_once(self):
        p = BivariatePolynomial.monomial_relation(2, 3)
        assert p.gaussian_grid() is p.gaussian_grid()
        assert p.gaussian_grid() == (1, [[(0, 0), (0, 0), (0, 0), (-1, 0)],
                                         [(0, 0)] * 4, [(1, 0), (0, 0), (0, 0), (0, 0)]])


gaussian_integer_polys = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5,
).filter(lambda a: a[-1] != (0, 0))


class TestGaussianIntegerQuotient:
    @given(gaussian_integer_polys, gaussian_integer_polys, st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_fraction_division(self, q, b, r):
        # a = q b + r, r often zero; the Fraction route is _xdivmod
        a = _zi_mul(q, b)
        a = [(x + (r[i][0] if i < len(r) else 0), y + (r[i][1] if i < len(r) else 0))
             for i, (x, y) in enumerate(a)]
        exact = [GR(c) for c in a]
        fq, rem = _xdivmod(exact, [GR(c) for c in b])
        got = _zi_quotient(a, b)
        assert (got is None) == bool(rem)
        if got is not None:
            # the same quotient up to a positive integer factor
            scale = Fraction(got[-1][0], 1) / fq[-1].re if fq[-1].re else (
                Fraction(got[-1][1], 1) / fq[-1].im)
            assert scale > 0 and scale.denominator == 1
            assert [GR(c) for c in got] == [c * GR(scale) for c in fq]

    def test_zero_dividend_and_short_remainder(self):
        assert _zi_quotient([], [(2, 1)]) == []
        assert _zi_quotient([(1, 0)], [(0, 1), (1, 0)]) is None



class TestCoprime:
    @given(gaussian_integer_polys, st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                                            max_size=5),
           gaussian_integer_polys, st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_euclid(self, f, g, h, den):
        # a = f h and b = g h share the factor h, which is often a constant
        a = [GR((Fraction(x, den), Fraction(y, den))) for x, y in _zi_mul(f, h)]
        b = [GR(c) for c in _zi_mul(g, h)] if g else []
        assert _xcoprime(a, b) == (_xdeg(_xgcd(a, b)) == 0)

    @pytest.mark.parametrize("a,b,coprime", [
        ([1, _P], [2, 1], True),  # lc(a) = p vanishes modulo p
        ([0, 1], [_P, 1], True),  # w and w + p share the root 0 modulo p only
        ([0, 1, 1], [0, 1], False),  # w (w + 1) and w share w
        ([3], [], True),  # gcd(3, 0) is the constant 1
        ([1, 1], [], False),  # gcd(w + 1, 0) = w + 1
    ])
    def test_undecided_modulo_p_falls_back_to_euclid(self, monkeypatch, a, b, coprime):
        calls, xgcd = [], polyalg._xgcd
        monkeypatch.setattr(polyalg, "_xgcd", lambda *args: calls.append(args) or xgcd(*args))
        assert _xcoprime([GR(x) for x in a], [GR(x) for x in b]) is coprime
        assert len(calls) == 1

    def test_decided_modulo_p_runs_no_euclid(self, monkeypatch):
        # the infinity tests of the branched sets of these two polynomials are
        # all decided modulo p
        from corrdyn.correspondence import _branching

        def refuse(*args):
            raise AssertionError("Euclid's algorithm over the Gaussian rationals")

        monkeypatch.setattr(polyalg, "_xgcd", refuse)
        seed29 = BivariatePolynomial([
            [GR((1, -1)), GR((-1, -3)), GR((-1, -2)), GR((1, 0))],
            [GR((0, 2)), GR((-1, -2)), GR((3, -2)), GR((-2, 0))],
            [GR((2, 0)), GR((0, 0)), GR((-2, 1)), GR((-3, 0))],
        ])
        product = BivariatePolynomial.product(
            [BivariatePolynomial.graph_of_power(4), BivariatePolynomial.graph_of_power(5)])
        for p in (seed29, product):
            _branching(p)
            _branching(p.transpose())


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
        r = resultant_w(p, p.transpose().partial_z().transpose())
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

    @pytest.mark.parametrize("factor,cofactor", [
        ([[0, -1], [1]], [[0, 0, -1], [0], [1]]),  # (z - w)(z^2 - w^2)
        ([[0, 1], [0], [-1]], [[0, 1], [0], [-1]]),  # (w - z^2)^2
    ], ids=["mixed-1-1-2-2", "graph-squared"])
    def test_witness_is_the_repeated_factor(self, factor, cofactor):
        factor = BivariatePolynomial([[GR(c) for c in row] for row in factor])
        cofactor = BivariatePolynomial([[GR(c) for c in row] for row in cofactor])
        ok, witness = squarefree_check(BivariatePolynomial.product([factor, cofactor]))
        assert not ok
        # proportional: the witness is the factor times a nonzero scalar
        a = next(c for row in factor.coeffs for c in row if c)
        b = next(c for row in witness.coeffs for c in row if c)
        assert witness == BivariatePolynomial([[c * (b / a) for c in row] for row in factor.coeffs])


def _coefficient(kind):
    """Coefficients whose smallest exact domain is ZZ, ZZ_I, QQ or QQ_I; the
    rational ones are dyadic floats, which lift exactly."""
    small = st.integers(-3, 3)
    dyadic = st.builds(lambda k, e: k / 2**e, st.integers(-12, 12), st.integers(0, 3))
    return {
        "ZZ": small.map(GR),
        "ZZ_I": st.tuples(small, small).map(GR),
        "QQ": dyadic.map(GR),
        "QQ_I": st.tuples(dyadic, dyadic).map(GR),
    }[kind]


@st.composite
def bivariate(draw, max_dz=2, max_dw=2, min_dz=1, kinds=("ZZ", "ZZ_I", "QQ", "QQ_I")):
    kind = draw(st.sampled_from(kinds))
    dz = draw(st.integers(min_dz, max_dz))
    dw = draw(st.integers(1, max_dw))
    grid = draw(st.lists(
        st.lists(_coefficient(kind), min_size=dw + 1, max_size=dw + 1),
        min_size=dz + 1, max_size=dz + 1,
    ))
    # nonzero z^dz and w^dw terms keep both degrees
    grid[dz][0] = grid[dz][0] or GR(1)
    grid[0][dw] = grid[0][dw] or GR(1)
    return BivariatePolynomial(grid)


with_repeated_factor = st.builds(
    lambda q, r: BivariatePolynomial.product([q, r, r]),
    bivariate(max_dz=1, max_dw=1), bivariate(max_dz=1, max_dw=1, min_dz=0),
)

# inputs whose norm p p-bar has a repeated factor or a factor free of one
# variable, so that squarefree_check falls back to the gcds over Q(i)
REAL, GAUSSIAN = ("ZZ", "QQ"), ("ZZ_I", "QQ_I")
real_times_gaussian = st.builds(
    lambda q, r: BivariatePolynomial.product([q, r]),
    bivariate(max_dz=1, max_dw=1, kinds=REAL), bivariate(max_dz=1, max_dw=2, kinds=GAUSSIAN),
)
i_times_real = bivariate(kinds=REAL).map(
    lambda p: BivariatePolynomial([[c * GR(1j) for c in row] for row in p.coeffs]))
# bivariate(max_dz=0) is a polynomial in w alone; transposed, in z alone
with_factor_free_of_one_variable = st.builds(
    lambda q, r, flip: BivariatePolynomial.product([q.transpose() if flip else q, r]),
    bivariate(min_dz=0, max_dz=0, max_dw=1), bivariate(max_dz=1, max_dw=1), st.booleans(),
)


class TestAgainstExpressionRoute:
    """The modular resultants equal the Sylvester determinants, and the Poly
    route of the squarefree check over the smallest exact domain gives
    exactly what sympy gives from expressions over QQ_I."""

    def test_resultant_sign_for_odd_degrees(self):
        # Res_z(w + z, w + z^3) = (-w)^3 + w; sympy 1.14's resultant gives
        # w^3 - w here
        f = BivariatePolynomial([[0, 1], [1]])
        g = BivariatePolynomial([[0, 1], [0], [0], [1]])
        want = UnivariatePolynomial([0, 1, 0, -1])
        assert resultant_z(f, g) == want == reference_resultant_z(f, g)

    @given(bivariate(max_dz=3), bivariate(min_dz=0))
    @settings(max_examples=40, deadline=None)
    def test_resultants(self, p, q):
        for g in (p.partial_z(), p.transpose().partial_z().transpose(), q):
            assert resultant_z(p, g) == reference_resultant_z(p, g)
            assert resultant_w(p, g) == reference_resultant_z(p.transpose(), g.transpose())
        # q may be constant in z, so Res_z(q, p) = q^(deg_z p)
        assert resultant_z(q, p) == reference_resultant_z(q, p)

    @given(st.one_of(bivariate(), with_repeated_factor, real_times_gaussian, i_times_real,
                     with_factor_free_of_one_variable))
    @settings(max_examples=80, deadline=None)
    def test_squarefree_check(self, p):
        ok, witness = squarefree_check(p)
        assert (ok, witness) == reference_squarefree_check(p)


# one polynomial of each (deg_z, deg_w) the benchmark's survey rounds draw,
# from its generator of raw polynomials (bench/workloads.raw_polynomial)
RAW_SPECS = [
    [[[2, 2], [1, 0]], [[-2, -1], [2, 2]], [[-1, 0], [3, -1]]],
    [[[2, 2], [-1, -1], [1, 0]], [[2, 1], [3, 3], [0, 0]], [[1, 0], [1, -2], [-3, -2]]],
    [[[3, 3], [-2, 1], [1, 0]], [[-3, 3], [2, 1], [-1, -1]], [[-2, 2], [2, -1], [1, 2]],
     [[2, 0], [2, -1], [1, 3]]],
    [[[1, -3], [1, -2], [0, -2], [1, 0]], [[-3, -3], [3, -1], [-3, 3], [2, 3]],
     [[-1, 0], [2, 0], [0, 1], [3, 3]]],
    [[[2, -3], [2, 3], [-1, 2], [1, 0]], [[-3, -2], [-2, 1], [1, 2], [-3, -2]],
     [[-3, 2], [2, 1], [-2, -1], [3, -2]], [[1, 0], [-3, 0], [-3, -2], [-2, -2]]],
]


class TestNormRoute:
    """squarefree_check decides on the norm p p-bar over ZZ first, and runs
    the gcds over the Gaussian domain only when the norm is inconclusive."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        sympy_poly = polyalg._sympy_poly
        monkeypatch.setattr(polyalg, "_sympy_poly", lambda p: calls.append(p) or sympy_poly(p))
        return calls

    @pytest.mark.parametrize("rows", RAW_SPECS, ids=[f"raw-{i}" for i in range(len(RAW_SPECS))])
    def test_raw_polynomials_never_fall_back(self, fallbacks, rows):
        assert squarefree_check(BivariatePolynomial(rows)) == (True, None)
        assert fallbacks == []

    def test_shared_factor_with_the_conjugate_falls_back(self, fallbacks):
        # (z + w)(z + i w + 1): the norm holds (z + w)^2, so only the gcds
        # over Z[i] can accept
        p = BivariatePolynomial.product([
            BivariatePolynomial([[[0, 0], [1, 0]], [[1, 0]]]),
            BivariatePolynomial([[[1, 0], [0, 1]], [[1, 0]]]),
        ])
        assert squarefree_check(p) == (True, None) == reference_squarefree_check(p)
        assert fallbacks == [p]

    def test_dense_gaussian_within_a_second(self):
        # the gcds over Z[i] alone took 2.6 s on this (8, 8) polynomial
        rng = random.Random(8)
        rows = [[[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(9)] for _ in range(9)]
        rows[8][0] = rows[0][8] = [1, 0]
        p = BivariatePolynomial(rows)
        start = time.perf_counter()
        assert squarefree_check(p) == (True, None)
        assert time.perf_counter() - start < 1.0
