import cmath
import json
import math
import random
import time
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corrdyn import cli, floats, polyalg
from corrdyn.errors import InvalidInputError, RootFindingError
from corrdyn.floats import FloatGrid, companion_roots
from corrdyn.polyalg import (
    BivariatePolynomial,
    _newton_steps,
    _P,
    _xcoprime,
    _zi_mul,
    _zi_quotient,
    _zi_strip,
    polish_roots,
    resultant_w,
    resultant_z,
    roots,
    squarefree_check,
    squarefree_factors,
)

from support import (
    GaussianRational,
    ReferencePolynomial,
    UnivariatePolynomial,
    _xdeg,
    chordally_separated,
    coefficient_grid,
    coefficients,
    exact_polynomial,
    integer_coeffs,
    norm_parts,
    norm_squarefree,
    partial_z,
    reference_certified_roots,
    reference_float_grid,
    reference_newton_steps,
    reference_resultant_z,
    reference_roots,
    reference_squarefree_check,
    reference_squarefree_factors,
    reference_univariate_in_z,
    reference_univariate_in_z_inverted,
    scalar_certified_roots,
    separated_points,
    sylvester_resultant_z,
    xdivmod,
    xgcd,
    xmonic,
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


def yun_roots(f):
    """roots of exact f, always through Yun's squarefree decomposition over
    the Gaussian rationals."""
    return [
        (complex(r), mult)
        for factor, mult in reference_squarefree_factors(f.coeffs)
        for r in companion_roots([complex(c) for c in factor])
    ]


def modular_split(f):
    """squarefree_factors on f's Gaussian-integer coefficients, with each
    factor made a monic tuple of Gaussian rationals, as the Yun oracle
    gives it."""
    return [(xmonic(tuple(GR(c) for c in a)), k)
            for a, k in squarefree_factors(integer_coeffs(f))]


@pytest.fixture
def primes_used(monkeypatch):
    """The indices k of the primes _prime(k) hands out during a test, in
    order."""
    used, prime = [], polyalg._prime
    monkeypatch.setattr(polyalg, "_prime", lambda k: used.append(k) or prime(k))
    return used


small_gaussian_rationals = st.builds(
    lambda a, b, d: GR((Fraction(a, d), Fraction(b, d))),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9),
)
gaussian_integer_polys = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=5,
).filter(lambda a: a[-1] != (0, 0))
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

    @pytest.mark.parametrize("root", [complex(math.nan, 0), complex(math.inf, 0)],
                             ids=["eigenvalues-fail", "non-finite-root"])
    def test_companion_failure_is_a_root_finding_error(self, monkeypatch, root):
        # LAPACK not converging comes back as NaN eigenvalues
        def fake_eigenvalues(c, k0, companion):
            return [root] * (len(c) - 1)

        monkeypatch.setattr(floats, "_companion_eigenvalues", fake_eigenvalues)
        with pytest.raises(RootFindingError, match="non-finite root"):
            roots(integer_coeffs(UnivariatePolynomial([GR(1), GR(1)])))

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_root_count_matches_degree(self, coeffs):
        f = UnivariatePolynomial([GR(c) for c in coeffs] + [GR(1)])
        rs = roots(integer_coeffs(f))
        assert sum(m for _, m in rs) == len(coeffs)


def _bits(pairs) -> list:
    return [(z.real.hex(), z.imag.hex(), m) for z, m in pairs]


# Gaussian-integer parts of up to 70 bits, and the real case
gaussian_parts = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70))


@st.composite
def nonzero_at_zero(draw):
    """A Gaussian-integer polynomial g with g(0) != 0: a lead times up to
    three powers of nonconstant factors with nonzero constant terms, so
    constant g, repeated factors and non-real g all occur."""
    real = draw(st.booleans())

    def gaussian():
        return draw(gaussian_parts), 0 if real else draw(gaussian_parts)

    def nonzero():
        return draw(st.tuples(gaussian_parts, st.just(0) if real else gaussian_parts)
                    .filter(lambda c: c != (0, 0)))

    g = [nonzero()]
    for _ in range(draw(st.integers(0, 3))):
        factor = [nonzero()] + [gaussian() for _ in range(draw(st.integers(0, 1)))] + [nonzero()]
        for _ in range(draw(st.integers(1, 3))):
            g = _zi_mul(g, factor)
    return g


class TestRootAtZero:
    # roots reads the root at 0 off the zero low-order coefficients;
    # support.reference_roots splits z^k g whole

    @given(nonzero_at_zero(), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_same_pairs_as_the_whole_split(self, g, k):
        f = [(0, 0)] * k + g
        try:
            want = reference_roots(f)
        except RootFindingError as exc:
            with pytest.raises(RootFindingError) as raised:
                roots(f)
            assert str(raised.value) == str(exc)
            return
        got = roots(f)
        assert _bits(got) == _bits(want)
        assert sum(m for _, m in got) == len(f) - 1
        assert not k or (0j, k) in got

    @pytest.mark.parametrize("k", [1, 3])
    def test_constant_rest_is_not_split(self, monkeypatch, k):
        monkeypatch.setattr(polyalg, "squarefree_factors", None)
        assert roots([(0, 0)] * k + [(5, -2)]) == [(0j, k)]
        assert roots([(7, 0)]) == []

    def test_split_never_sees_a_zero_constant_term(self, monkeypatch, capsys):
        # neither from roots on z^k g nor from the fibers of a Fock report,
        # whose branched fibers over w = +-1 of z^2 + w^2 - 1 are z^2
        f = [(0, 0), (0, 0), (-1, 0), (0, 0), (1, 0)]  # z^2 (z^2 - 1)
        want = reference_roots(f)
        seen, split = [], polyalg.squarefree_factors
        monkeypatch.setattr(polyalg, "squarefree_factors",
                            lambda coeffs: seen.append(coeffs[0]) or split(coeffs))
        assert roots(f) == want
        assert cli.main(["fock", "--poly", '{"coeffs":[[[-1,0],[0,0],[1,0]],[[0,0]],[[1,0]]]}',
                         "--set", "[[0,0],[1,0],[-1,0]]", "--K", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["relation_max_deviation"] == 0
        assert seen and (0, 0) not in seen


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

    @given(gaussian_integer_polys.filter(lambda a: len(a) >= 2),
           st.builds(complex, st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
                     st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])),
           st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    @example([(1, 0), (0, 0), (1, 0)], complex(0.5, 0.0), 1)  # z^2 + 1 from a real start
    @example([(-1, 0), (0, 0), (1, 0)], complex(-0.0, -0.0), 1)  # f'(z) = 0 at once
    @example([(-1, 0), (1, 0)], complex(1.0, -0.0), 1)  # on the root, -0.0 imaginary part
    @example([(2, 0), (-3, 0), (1, 0)], complex(-0.0, 1e-300), 2)  # a tiny part, m = 2
    def test_early_stop_gives_the_bits_of_three_steps(self, coeffs, z, m):
        # a step that gives back its start returns at once; three Newton
        # steps in Fraction arithmetic, with no early stop, give the same
        # bits, -0.0 parts included, also where the steps do not converge
        got = _newton_steps(coeffs[::-1], z, m)
        assert repr(got) == repr(reference_newton_steps(coeffs, z, m))


def _stored(pairs):
    return [(repr(q.z1), repr(q.z2), e) for q, e in pairs]


def _certify(c, e, separation=0):
    # the certificate on (c, e): the scalar route, which also gives the disc
    # radii, and the one-pass fiber on a grid that specialises to (c, e),
    # which must decide alike and give the route's points
    grid = coefficient_grid(c, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = grid.grid @ np.ones(1, dtype=complex)  # c, up to the signs of zero parts
        found = scalar_certified_roots(c, np.array(e, dtype=float), separation)
        points = grid.certified_points(1 + 0j, False, separation)
    assert (points is None) == (found is None)
    if found is not None:
        assert _stored(points) == _stored(separated_points(found[0]))
    return found


class TestCertifiedRoots:
    # _certify makes every warning an error; where numpy gave inf or nan,
    # Python raises instead, and that must mean undecided; the one-pass
    # fiber must agree with the scalar route on every input

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

        def refuse(*_):
            raise AssertionError("companion eigenvalues computed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(floats, "_companion_eigenvalues", refuse)
            assert _certify(c, e) is None

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
            got, first = _certify(c, e, 2e-6), _certify(c, e)
        rejected = first is None or not chordally_separated([z + 0j for z in first[0]], 2e-6)
        assert (got is None) == rejected
        if got is not None:
            assert [repr(z) for z in got[0]] == [repr(z) for z in first[0]]
            assert got[1] == first[1]


# which part of a coefficient is set to exactly 0.0 or -0.0, if any
_ZERO_PART = st.sampled_from(["", "re", "-re", "im", "-im"])


def _with_zero_part(z: complex, part: str) -> complex:
    # the part kept is +-|z|, so that z keeps its magnitude: a lead drawn
    # with |z| >= 1e-3 must not shrink to a subnormal part, which would send
    # the reference row -p[1:] / p[0] past the float range
    zero = -0.0 if part.startswith("-") else 0.0
    if part.endswith("re"):
        return complex(zero, math.copysign(abs(z), z.imag))
    if part.endswith("im"):
        return complex(math.copysign(abs(z), z.real), zero)
    return z


class TestCompanionEigenvalues:
    @given(st.integers(1, 8), st.integers(0, 1),
           st.lists(st.tuples(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                                 allow_infinity=False), _ZERO_PART),
                    min_size=8, max_size=8),
           st.tuples(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                        allow_nan=False, allow_infinity=False), _ZERO_PART))
    @example(1, 1, [(1j, "")] * 8, (2 + 0j, ""))  # a block of size 0: z = 0 alone
    @example(3, 1, [(1 + 2j, "re"), (-3 + 1j, "-im"), (1j, "")] + [(1j, "")] * 5,
             (-2 + 5j, "-re"))
    @example(4, 0, [(-1 - 2j, "-re"), (2 + 1j, "im"), (0.5 - 1j, "-im"), (3j, "re")]
             + [(1j, "")] * 4, (1 + 1j, "im"))
    @settings(max_examples=200, deadline=None)
    def test_bits_of_numpy(self, d, k0, rest, lead):
        # the gufunc called directly gives what np.linalg.eigvals and
        # np.roots give, to the bit, coefficients with a zero or -0.0 part
        # and the empty block of z^d included: a numpy whose private gufunc
        # drifts fails here, and so does a row made as c / (-c_d), which
        # flips the signs of zero parts
        rest, lead = [_with_zero_part(*x) for x in rest], _with_zero_part(*lead)
        c = np.array([0j] * k0 + rest[:d - k0] + [lead], dtype=complex)
        c[k0] = c[k0] or 1  # exactly k0 zero low-order coefficients
        eigvals = []
        if d > k0:
            p = c[::-1][:d + 1 - k0]
            companion = np.diag(np.ones(d - k0 - 1, dtype=complex), -1)
            companion[0, :] = -p[1:] / p[0]
            eigvals = np.linalg.eigvals(companion).tolist()
        # one shift matrix of size d serves k0 = 0 and, through its leading
        # block, k0 = 1; only its row 0 changes
        buffer = np.eye(d, k=-1, dtype=complex)
        got = [repr(z) for z in floats._companion_eigenvalues(c, k0, buffer)]
        assert got == [repr(complex(z)) for z in eigvals + [0j] * k0]
        assert got == [repr(complex(z)) for z in np.roots(c[::-1])]
        assert (buffer[1:] == np.eye(d, k=-1)[1:]).all()

    def test_row_beyond_float_range_is_nan(self):
        # where np.linalg.eigvals would raise LinAlgError on an inf entry
        with np.errstate(all="ignore"):
            got = floats._companion_eigenvalues(np.array([1e308, 0, 1e-10j]), 0, np.eye(2, dtype=complex))
        assert len(got) == 2 and all(map(cmath.isnan, got))


class TestSquarefreeFactors:
    def test_yun(self):
        # (z-1)^2 (z+2)
        f = UnivariatePolynomial([GR(2), GR(-3), GR(0), GR(1)])
        factors = squarefree_factors(integer_coeffs(f))
        mults = sorted(m for _, m in factors)
        assert mults == [1, 2]
        assert modular_split(f) == reference_squarefree_factors(f.coeffs)


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
        monic = xmonic(f.coeffs)
        assert (modular_split(f) == [(monic, 1)]) == squarefree

    @given(small_gaussian_rationals.filter(bool), root_multisets)
    @settings(max_examples=40, deadline=None)
    def test_roots_match_yun_reference(self, lead, root_mults):
        f = from_roots(lead, root_mults)
        rs = roots(integer_coeffs(f))
        assert rs == yun_roots(f)
        assert sorted(m for _, m in rs) == sorted(m for _, m in root_mults)

    @pytest.mark.parametrize("mults", [(2, 1), (1, 1)])
    def test_denominator_divisible_by_p_takes_yun(self, primes_used, mults):
        # lc(f) = p^m vanishes modulo p = _prime(0), so that prime is
        # skipped; the squarefree f is decided at _prime(1), and the split of
        # the repeated one, whose monic factor z - 1/p needs a modulus above
        # 2 p^2 for its reconstruction, at _prime(3)
        tiny = GR(Fraction(1, polyalg._P))
        f = from_roots(GR(1), [(tiny, mults[0]), (GR(2), mults[1])])
        rs = sorted(roots(integer_coeffs(f)), key=lambda zm: zm[0].real)
        assert primes_used == ([0, 1, 2, 3] if mults[0] == 2 else [0, 1])
        assert [m for _, m in rs] == list(mults)
        assert rs[0][0] == pytest.approx(1 / polyalg._P)
        assert rs[1][0] == pytest.approx(2)
        assert modular_split(f) == reference_squarefree_factors(f.coeffs)

    def test_denominator_above_reconstruction_bound_takes_yun(self, primes_used):
        # the factor z - 1/q, q = 2^30 + 3, has a coefficient beyond rational
        # reconstruction modulo one prime, whose bound is sqrt(p / 2) < q, and
        # within it modulo the product of two
        f = from_roots(GR(1), [(GR(Fraction(1, 2**30 + 3)), 2), (GR(2), 1)])
        rs = sorted(roots(integer_coeffs(f)), key=lambda zm: zm[0].real)
        assert primes_used == [0, 1]
        assert [m for _, m in rs] == [2, 1]
        assert modular_split(f) == reference_squarefree_factors(f.coeffs)

    @pytest.mark.parametrize("repeated", [False, True], ids=["squarefree", "repeated"])
    def test_prime_bound_raises_root_finding_error(self, monkeypatch, repeated):
        # _prime patched to hand out only p = _P, which kills lc(f) = p (and,
        # for the repeated f, would leave 1/p beyond reconstruction): the
        # loop stops at the bound in primes derived from f
        used = []
        monkeypatch.setattr(polyalg, "_prime", lambda k: used.append(k) or (_P, polyalg._I))
        f = from_roots(GR(_P), [(GR(1), 2 if repeated else 1), (GR(2), 1)])
        coeffs = integer_coeffs(f)
        with pytest.raises(RootFindingError, match="undecided after"):
            squarefree_factors(coeffs)
        assert used == list(range(polyalg._prime_limit(coeffs)))
        assert len(used) > 1


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


@st.composite
def wide_products(draw):
    """lead * prod (z - r)^m with at least one m >= 2, real or not, with
    root parts of up to 41 bits over denominators of up to 40, so that the
    monic factors often pass the reconstruction bound of one prime, about
    2^30, and a leading coefficient that often vanishes modulo _P under
    i -> I."""
    real = draw(st.booleans())
    part = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40))
    root = part.map(GR) if real else st.tuples(part, part).map(GR)
    root_mults = draw(st.lists(st.tuples(root, st.integers(1, 3)), min_size=1, max_size=3,
                               unique_by=lambda rm: rm[0]))
    if all(m == 1 for _, m in root_mults):
        root_mults[0] = (root_mults[0][0], 2)
    scales = [GR(1), GR(_P)] + ([] if real else [GR((polyalg._I, -1)), GR((polyalg._I, 1))])
    lead = draw(_coefficients("ZZ" if real else "ZZ_I").filter(bool)) * draw(st.sampled_from(scales))
    return from_roots(lead, root_mults)


class TestModularSplit:
    @given(repeated_products() | wide_products())
    @settings(max_examples=160, deadline=None)
    def test_equals_yun(self, f):
        used, prime = [], polyalg._prime
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyalg, "_prime", lambda k: used.append(k) or prime(k))
            split = modular_split(f)
        reference = reference_squarefree_factors(f.coeffs)
        assert split == reference
        # a part past sqrt(p / 2) cannot be rebuilt modulo one prime
        widest = max(max(abs(x.numerator), x.denominator)
                     for a, _ in reference for c in a for x in (c.re, c.im))
        if widest > math.isqrt(_P // 2):
            assert len(used) >= 2

    def test_conjugate_ideals_rebuild_gaussian_factors(self):
        # (z - (1 + 2i)/3)^2 (z - i)^3 (z + 5): the imaginary parts come from
        # the two images, under i -> I and i -> -I
        f = from_roots(GR((2, -1)), [(GR((Fraction(1, 3), Fraction(2, 3))), 2),
                                     (GR((0, 1)), 3), (GR(-5), 1)])
        split = modular_split(f)
        assert split == reference_squarefree_factors(f.coeffs)
        assert [(len(a) - 1, m) for a, m in split] == [(1, 1), (1, 2), (1, 3)]

    @given(st.lists(st.tuples(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                                        st.integers(1, 6)), st.integers(1, 3)),
                    min_size=1, max_size=3, unique_by=lambda rm: rm[0][:2]),
           st.tuples(st.integers(-6, 6), st.integers(1, 6)))
    @settings(max_examples=60, deadline=None)
    @example([((0, 1, 1), 1), ((0, -2, 1), 2)], (0, 1))  # i (z^2 + 4)^2: a real monic image
    def test_non_real_split_uses_both_ideals_and_equals_yun(self, drawn, lead):
        # a non-real root of multiplicity >= 2 and a non-real leading
        # coefficient: Yun runs modulo p under i -> I and under i -> -I, on
        # images that differ unless f / lc(f) is real (conjugate roots of
        # equal multiplicities)
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
        real = all(c.im == 0 for c in xmonic(f.coeffs))
        assert len(images) == 2 and (images[0] != images[1]) is not real
        assert split == reference_squarefree_factors(f.coeffs)

    @pytest.mark.parametrize("repeated", [False, True], ids=["squarefree", "repeated"])
    def test_leading_coefficient_in_the_conjugate_ideal_only(self, primes_used, repeated):
        # lc = I + i vanishes under i -> -I and not under i -> I: the
        # squarefree test needs only the first, Yun's split needs both, so
        # it waits for the next prime
        lc = GR((polyalg._I, 1))
        f = from_roots(lc, [(GR((0, 1)), 2 if repeated else 1), (GR(-1), 1)])
        coeffs = integer_coeffs(f)
        assert (coeffs[-1][0] - polyalg._I * coeffs[-1][1]) % polyalg._P == 0
        assert (coeffs[-1][0] + polyalg._I * coeffs[-1][1]) % polyalg._P != 0
        split = squarefree_factors(coeffs)
        assert primes_used == ([0, 1] if repeated else [0])
        assert (split == [(coeffs, 1)]) is not repeated
        rs = roots(coeffs)
        assert rs == yun_roots(f)
        assert sorted(m for _, m in rs) == ([1, 2] if repeated else [1, 1])

    def test_leading_coefficient_in_the_first_ideal_is_undecided(self, primes_used):
        # lc = I - i vanishes under i -> I, so not even the squarefree test
        # is sound modulo _prime(0); the next prime decides
        f = from_roots(GR((polyalg._I, -1)), [(GR(1), 1), (GR(2), 1)])
        assert squarefree_factors(integer_coeffs(f)) == [(integer_coeffs(f), 1)]
        assert primes_used == [0, 1]
        assert roots(integer_coeffs(f)) == yun_roots(f)


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
        p = exact_polynomial(grid)
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


# grid entries: ints, Fractions as "p/q" parses them (and "p/q" strings in
# pairs), floats with the subnormal and near-overflow extremes, non-real
# Gaussian rationals, complex floats, zeros, and a few parts beyond float
# range
grid_values = st.one_of(
    st.sampled_from([0, (0, 0), 0.0, -0.0]),
    st.integers(-9, 9),
    st.integers(-2**70, 2**70),
    st.fractions(max_denominator=12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -3 * 2.0**-1074, 2.0**-1022, 1.7976931348623157e308, -1e308,
                     0.1, 10**400, Fraction(-(10**400), 3), (0, Fraction(7 * 10**320, 3))]),
    st.tuples(st.fractions(max_denominator=12), st.fractions(max_denominator=12)),
    st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9)).map(
        lambda t: (f"{t[0]}/{t[1]}", f"{-t[1]}/{t[2]}")),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@st.composite
def value_grids(draw, max_rows=3, max_cols=3):
    """Ragged grids of grid_values, with zero columns and zero rows, some
    empty, appended at the end."""
    rows = draw(st.lists(st.lists(grid_values, max_size=max_cols), min_size=1,
                         max_size=max_rows))
    columns = draw(st.integers(0, 2))
    zero_rows = draw(st.lists(st.integers(0, 3), max_size=2))
    return [row + [(0, 0)] * columns for row in rows] + [[0] * k for k in zero_rows]


def _outcome(build, *args):
    """(build(*args), None), or (None, the type of the error it raised)."""
    try:
        return build(*args), None
    except (InvalidInputError, OverflowError) as exc:
        return None, type(exc)


def _assert_same(p: BivariatePolynomial, ref: ReferencePolynomial):
    assert (p.denominator, p.rows) == ref.gaussian_grid()
    assert (p.deg_z, p.deg_w) == (ref.deg_z, ref.deg_w)
    assert repr(p) == repr(ref)
    grid, error = _outcome(FloatGrid, p)
    want, want_error = _outcome(reference_float_grid, ref)
    assert error == want_error
    if grid is not None:
        got = (grid.grid, grid.abs_grid, np.array(grid.floor))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        horner = 8 * (ref.deg_z + 2) * floats._U
        assert (grid.horner, grid.lift, grid.shrink) == (horner, 1 + horner, 1 - horner)
    # the same values written as (Fraction, Fraction) pairs, with a zero row
    rewritten = BivariatePolynomial(
        [[astuple(c) for c in row] for row in ref.coeffs] + [[(0, 0)] * (ref.deg_w + 2)])
    assert p == rewritten


class TestGaussianIntegerGrid:
    """BivariatePolynomial, stored as its Gaussian-integer grid over a least
    denominator, against the Gaussian-rational grid it replaced
    (support.ReferencePolynomial): the same integer grid, degrees, repr,
    equality and complex128 grid, bit for bit."""

    @given(value_grids(), value_grids())
    @settings(max_examples=300, deadline=None)
    @example([[0], [(0, 0), 0.0]], [[1]])  # the zero polynomial
    @example([[10**400, 1]], [[1]])  # beyond float range
    @example([[Fraction(1, 2), (0, Fraction(-3, 4))], [0.1]], [[2, 0], [1]])
    # a part of 70 bits over d = 3, whose float is not float(x) / 3.0
    @example([[Fraction(-871354560599849615824, 3)]], [[1]])
    def test_grid(self, grid, other):
        p, error = _outcome(BivariatePolynomial, grid)
        ref, want_error = _outcome(ReferencePolynomial, grid)
        assert error == want_error
        if p is None:
            return
        _assert_same(p, ref)
        _assert_same(p.transpose(), ref.transpose())
        q, ref_q = _outcome(BivariatePolynomial, other)[0], _outcome(ReferencePolynomial, other)[0]
        if q is not None:
            assert (p == q) == (ref == ref_q)

    @given(st.lists(value_grids(max_rows=2, max_cols=2).filter(
        lambda g: _outcome(BivariatePolynomial, g)[0] is not None), min_size=2, max_size=3))
    @settings(max_examples=200, deadline=None)
    @example([[[Fraction(1, 2)]], [[2]]])  # (1/2) 2 = 1
    @example([[[Fraction(1, 2), (0, Fraction(1, 2))]], [[2], [(0, Fraction(4, 3))]],
              [[3, Fraction(3, 5)]]])
    def test_product(self, grids):
        factors = [BivariatePolynomial(g) for g in grids]
        ref = ReferencePolynomial.product([ReferencePolynomial(g) for g in grids])
        _assert_same(BivariatePolynomial.product(factors), ref)
        _assert_same(BivariatePolynomial.product(factors).transpose(), ref.transpose())

    def test_families(self):
        p = BivariatePolynomial.monomial_relation(2, 3)
        assert (p.denominator, p.rows) == (1, (((0, 0), (0, 0), (0, 0), (-1, 0)),
                                               ((0, 0),) * 4, ((1, 0), (0, 0), (0, 0), (0, 0))))
        assert p == BivariatePolynomial([[0, 0, 0, -1], [], [1]])
        assert BivariatePolynomial.graph_of_power(2) == BivariatePolynomial([[0, 1], [0], [-1]])

    def test_uninterpretable_value(self):
        with pytest.raises(InvalidInputError, match="cannot interpret"):
            BivariatePolynomial([[1, "1/2"]])


class TestGaussianIntegerQuotient:
    @given(gaussian_integer_polys, gaussian_integer_polys, st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4))
    @settings(max_examples=150, deadline=None)
    @example([(-1, 0)], [(-1, 0)], [(-1, 0)])  # a = 0
    @example([(1, 0), (1, 0)], [(1, 0)], [(0, 0), (-1, 0)])  # a = 1 + 0 z
    def test_agrees_with_fraction_division(self, q, b, r):
        # a = q b + r, r often zero; the Fraction route is xdivmod
        a = _zi_mul(q, b)
        a = [(x + (r[i][0] if i < len(r) else 0), y + (r[i][1] if i < len(r) else 0))
             for i, (x, y) in enumerate(a)]
        exact = [GR(c) for c in a]
        fq, rem = xdivmod(exact, [GR(c) for c in b])
        got = _zi_quotient(a, b)
        assert (got is None) == bool(rem)
        if got is not None:
            # the same quotient up to a positive integer factor; q b + r = 0
            # has the quotient 0, and a zero leading pair of a lowers its degree
            assert len(got) == len(fq)
        if got:
            scale = Fraction(got[-1][0], 1) / fq[-1].re if fq[-1].re else (
                Fraction(got[-1][1], 1) / fq[-1].im)
            assert scale > 0 and scale.denominator == 1
            assert [GR(c) for c in got] == [c * GR(scale) for c in fq]

    def test_zero_dividend_and_short_remainder(self):
        assert _zi_quotient([], [(2, 1)]) == []
        assert _zi_quotient([(1, 0)], [(0, 1), (1, 0)]) is None



def _fp_polys(p):
    return st.lists(st.integers(0, p - 1), max_size=5).map(polyalg._fp_strip)


class TestFpGcd:
    @given(st.sampled_from([31, _P]).flatmap(
        lambda p: st.tuples(st.just(p), _fp_polys(p), _fp_polys(p), _fp_polys(p))))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_euclid_by_divmod(self, drawn):
        # a = f h and b = g h share h; the monic gcd is unique, so the
        # in-place reduction gives what Euclid with _fp_divmod gives
        p, f, g, h = drawn
        a, b = polyalg._fp_mul(f, h, p), polyalg._fp_mul(g, h, p)
        assume(a or b)
        copies = (list(a), list(b))
        want = [a, b]
        while want[1]:
            want = [want[1], polyalg._fp_divmod(*want, p)[1]]
        inv = pow(want[0][-1], -1, p)
        assert polyalg._fp_gcd(a, b, p) == [x * inv % p for x in want[0]]
        assert (a, b) == copies  # the inputs are left as they were


class TestCoprime:
    @given(gaussian_integer_polys, st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                                            max_size=5),
           gaussian_integer_polys, st.none() | st.integers(-9, 9))
    @settings(max_examples=200, deadline=None)
    @example([(1, 0)], [(1, 0), (1, 0)], [(0, 0), (1, 0)], 1)  # w (p w + 1) and w (w + 1)
    @example([(1, 0)], [(2, 0), (1, 0)], [(1, 0)], 3)  # p w + 3 and w + 2
    def test_agrees_with_euclid(self, f, g, h, low):
        # a = f h and b = g h share the factor h, which is often a constant;
        # with low drawn, f is first multiplied by p w + low, whose leading
        # coefficient vanishes modulo p, so that the exact resultant gives
        # both verdicts.  b, drawn with zero pairs at the end or as 0, is
        # stripped, as _xcoprime takes it
        if low is not None:
            f = _zi_mul([(low, 0), (_P, 0)], f)
        a, b = _zi_mul(f, h), _zi_strip(_zi_mul(g, h) if g else [])
        assert _xcoprime(a, b) == (_xdeg(xgcd([GR(c) for c in a], [GR(c) for c in b])) == 0)

    @pytest.mark.parametrize("a,b,coprime", [
        ([1, _P], [2, 1], True),  # lc(a) = p vanishes modulo p
        ([0, 1], [_P, 1], True),  # w and w + p share the root 0 modulo p only
        ([0, 1, 1], [0, 1], False),  # w (w + 1) and w share w
        ([3], [], True),  # gcd(3, 0) is the constant 1
        ([1, 1], [], False),  # gcd(w + 1, 0) = w + 1
    ])
    def test_undecided_modulo_p_falls_back_to_euclid(self, monkeypatch, primes_used, a, b,
                                                      coprime):
        # the fallback is the exact resultant, one subresultant sequence over
        # Z[i] that takes no prime, even where lc(a) vanishes modulo p or a
        # and b share a root modulo p only.  With b = 0 the degrees decide.
        calls, resultant = [], polyalg.resultant_z
        monkeypatch.setattr(polyalg, "resultant_z", lambda F, G: calls.append(F) or resultant(F, G))
        assert _xcoprime([(x, 0) for x in a], [(x, 0) for x in b]) is coprime
        assert len(calls) == bool(b)
        assert primes_used == []

    def test_decided_modulo_p_runs_no_euclid(self, monkeypatch):
        # the infinity tests of the branched sets of these two polynomials are
        # all decided modulo p: each _xcoprime call runs with its resultant
        # fallback refused, and the branched sets' own resultants untouched
        from corrdyn import correspondence
        from corrdyn.correspondence import _branching

        def refuse(*args):
            raise AssertionError("the resultant fallback of _xcoprime")

        calls = []

        def decided_modulo_p(a, b):
            calls.append((a, b))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyalg, "resultant_z", refuse)
                return _xcoprime(a, b)

        monkeypatch.setattr(correspondence, "_xcoprime", decided_modulo_p)
        seed29 = BivariatePolynomial([
            [(1, -1), (-1, -3), (-1, -2), (1, 0)],
            [(0, 2), (-1, -2), (3, -2), (-2, 0)],
            [(2, 0), (0, 0), (-2, 1), (-3, 0)],
        ])
        product = BivariatePolynomial.product(
            [BivariatePolynomial.graph_of_power(4), BivariatePolynomial.graph_of_power(5)])
        for p in (seed29, product):
            grid = p.rows
            _branching(grid)
            _branching(list(zip(*grid)))
        assert calls


def _padded(rows) -> list:
    """rows with zero pairs appended to the width of the longest."""
    width = max(map(len, rows))
    return [list(row) + [(0, 0)] * (width - len(row)) for row in rows]


@st.composite
def resultant_grids(draw):
    """(F, G): rectangular grids of Gaussian-integer pairs with nonzero last
    rows, real or Gaussian, of z-degrees up to 3 with m = 0 or n = 0 among
    them, parts small or near 2^62 and 3^40, and lc_z(F) often a multiple of
    w - k for a small k, so that it vanishes at the first evaluation
    points of the modular route."""
    real = draw(st.booleans())
    part = st.integers(-4, 4) | st.sampled_from((2**62 - 1, -(2**62), 3**40, -(3**40)))
    entry = st.tuples(part, st.just(0) if real else part)

    def grid(dz):
        dw = draw(st.integers(0, 3))
        rows = draw(st.lists(st.lists(entry, min_size=dw + 1, max_size=dw + 1),
                             min_size=dz + 1, max_size=dz + 1))
        if not any(x or y for x, y in rows[-1]):
            rows[-1][-1] = (1, 0)
        if draw(st.booleans()):
            rows[-1] = _zi_mul([(-draw(st.integers(0, 3)), 0), (1, 0)], rows[-1])
        return _padded(rows)

    m = draw(st.integers(0, 3))
    return grid(m), grid(draw(st.integers(0 if m else 1, 3)))


class TestKroneckerResultant:
    """resultant_z and resultant_w, one subresultant sequence at w = 2^K,
    equal the modular route of evaluation, Euclid in F_p, interpolation and
    the Chinese remainder theorem."""

    @given(resultant_grids())
    @settings(max_examples=150, deadline=None)
    @example(([[(-(2**62), 0)]], [[(0, 0)], [(0, 0)], [(0, 0)], [(1, 0)]]))  # (-2^62)^3 = -B
    @example((  # w + z and w + w z^2, whose lc_z = w vanishes at w = 0
        [[(0, 0), (1, 0)], [(1, 0), (0, 0)]],
        [[(0, 0), (1, 0)], [(0, 0), (0, 0)], [(0, 0), (1, 0)]]))
    @example(([[(3**40, 3**40), (0, 0)], [(-1, 2), (0, 1)]], [[(0, -4)], [(2, 2)], [(1, 0)]]))
    def test_agrees_with_the_modular_route(self, grids):
        F, G = grids
        expected = reference_resultant_z(F, G)
        assert resultant_z(F, G) == expected
        assert resultant_w(list(zip(*F)), list(zip(*G))) == expected

    def test_constant_in_z_is_a_power(self):
        # Res_z(2 + w, z^2 + 1) = (2 + w)^2, Res_z(z^2 + 1, i) = i^2, and two
        # constants in z have the empty Sylvester matrix, of determinant 1
        assert resultant_z([[(2, 0), (1, 0)]], [[(1, 0)], [(0, 0)], [(1, 0)]]) == [
            (4, 0), (4, 0), (1, 0)]
        assert resultant_z([[(1, 0)], [(0, 0)], [(1, 0)]], [[(0, 1)]]) == [(-1, 0)]
        assert resultant_z([[(3, 0), (1, 0)]], [[(0, 1)]]) == [(1, 0)]

    def test_inexact_division_raises(self):
        # the subresultant sequence divides only where the quotient is a
        # Gaussian integer; a remainder is an error, not an assert
        assert polyalg._gi_div((6, 8), (0, 2)) == (4, -3)
        assert polyalg._gi_div((-9, 3), (3, 0)) == (-3, 1)
        assert polyalg._gi_div((5, 0), (1, 2)) == (1, -2)
        for a, b in (((1, 0), (2, 0)), ((1, 0), (1, 1)), ((5, 1), (1, 2))):
            with pytest.raises(RootFindingError, match="inexact division"):
                polyalg._gi_div(a, b)


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
        # Res_z(z^2 - w, 2z) = -4w
        p = BivariatePolynomial.monomial_relation(2, 1)
        assert resultant_z(p.rows, [[(0, 0)], [(2, 0)]]) == [(0, 0), (-4, 0)]

    def test_resultant_w(self):
        # Res_w(z - w^2, -2w) = 4z
        p = BivariatePolynomial.monomial_relation(1, 2)
        assert resultant_w(p.rows, [[(0, 0), (-2, 0)]]) == [(0, 0), (4, 0)]

    def test_squarefree_check(self):
        good = BivariatePolynomial.monomial_relation(2, 3)
        assert squarefree_check(good) == (True, None, None)
        bad = BivariatePolynomial.product(
            [BivariatePolynomial.graph_of_power(2), BivariatePolynomial.graph_of_power(2)]
        )
        ok, witness, what = squarefree_check(bad)
        assert not ok and witness is not None and what == "repeated factor"

    @pytest.mark.parametrize("factor,cofactor", [
        ([[0, -1], [1]], [[0, 0, -1], [0], [1]]),  # (z - w)(z^2 - w^2)
        ([[0, 1], [0], [-1]], [[0, 1], [0], [-1]]),  # (w - z^2)^2
    ], ids=["mixed-1-1-2-2", "graph-squared"])
    def test_witness_is_the_repeated_factor(self, factor, cofactor):
        factor = BivariatePolynomial(factor)
        cofactor = BivariatePolynomial(cofactor)
        ok, witness, what = squarefree_check(BivariatePolynomial.product([factor, cofactor]))
        assert not ok and what == "repeated factor"
        # proportional: the witness is the factor times a nonzero scalar
        a = next(c for row in coefficients(factor) for c in row if c)
        b = next(c for row in coefficients(witness) for c in row if c)
        assert witness == exact_polynomial(
            [[c * (b / a) for c in row] for row in coefficients(factor)])


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
    return exact_polynomial(grid)


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
    lambda p: exact_polynomial([[c * GR(1j) for c in row] for row in coefficients(p)]))
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
        assert sylvester_resultant_z(f, g) == UnivariatePolynomial([0, 1, 0, -1])
        assert resultant_z(f.rows, g.rows) == [
            (0, 0), (1, 0), (0, 0), (-1, 0)]

    @given(bivariate(max_dz=3), bivariate(min_dz=0))
    @settings(max_examples=40, deadline=None)
    @example(  # Gaussian rationals, q constant in z
        BivariatePolynomial([[(Fraction(1, 2), 1), 0], [(0, Fraction(-3, 4)), 2]]),
        BivariatePolynomial([[(1, Fraction(1, 3)), 0, (Fraction(-2, 3), 0)]]))
    def test_resultants(self, p, q):
        # the resultant of the Gaussian-integer grids c p and d g is
        # c^(deg_z g) d^(deg_z p) Res(p, g), in w and likewise in z
        P = p.rows
        for g in (partial_z(p), partial_z(p.transpose()).transpose(), q):
            G = g.rows
            assert resultant_z(P, G) == _scaled(sylvester_resultant_z(p, g), p, g, False)
            assert resultant_w(P, G) == _scaled(
                sylvester_resultant_z(p.transpose(), g.transpose()), p, g, True)
        # q may be constant in z, so Res_z(q, p) = q^(deg_z p)
        assert resultant_z(q.rows, P) == _scaled(
            sylvester_resultant_z(q, p), q, p, False)

    @given(st.one_of(bivariate(), with_repeated_factor, real_times_gaussian, i_times_real,
                     with_factor_free_of_one_variable))
    @settings(max_examples=80, deadline=None)
    def test_squarefree_check(self, p):
        assert squarefree_check(p) == reference_squarefree_check(p)


def _scaled(r, f, g, in_w: bool) -> list:
    """The Gaussian-rational resultant r of f and g in z (in w when in_w)
    times c^n d^m, as (re, im) pairs: c f and d g are the Gaussian-integer
    grids, of degrees m and n in the eliminated variable."""
    c, d = f.denominator, g.denominator
    m, n = (f.deg_w, g.deg_w) if in_w else (f.deg_z, g.deg_z)
    scale = c**n * d**m
    return [(x.re * scale, x.im * scale) for x in r.coeffs]


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
    """squarefree_check accepts from univariate images of the norm p p-bar
    over ZZ first, and runs the bivariate gcds over the Gaussian domain only
    when the images are inconclusive or p is refused."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        sympy_poly = polyalg._sympy_poly
        monkeypatch.setattr(polyalg, "_sympy_poly", lambda p: calls.append(p) or sympy_poly(p))
        return calls

    @pytest.mark.parametrize("rows", RAW_SPECS, ids=[f"raw-{i}" for i in range(len(RAW_SPECS))])
    def test_raw_polynomials_never_fall_back(self, fallbacks, rows):
        assert squarefree_check(BivariatePolynomial(rows)) == (True, None, None)
        assert fallbacks == []

    def test_shared_factor_with_the_conjugate_falls_back(self, fallbacks):
        # (z + w)(z + i w + 1): the norm holds (z + w)^2, so only the gcds
        # over Z[i] can accept
        p = BivariatePolynomial.product([
            BivariatePolynomial([[[0, 0], [1, 0]], [[1, 0]]]),
            BivariatePolynomial([[[1, 0], [0, 1]], [[1, 0]]]),
        ])
        assert squarefree_check(p) == (True, None, None) == reference_squarefree_check(p)
        assert fallbacks == [p]

    def test_unlucky_images_fall_back(self, fallbacks):
        # z^2 - w^3 + w is squarefree, but its images at w0 = 0, 1, -1 are
        # all z^2, so only the gcds over the smallest domain can accept
        p = BivariatePolynomial([[0, 1, 0, -1], [0], [1]])
        assert not polyalg._image_squarefree(p)
        assert squarefree_check(p) == (True, None, None) == reference_squarefree_check(p)
        assert fallbacks == [p]

    @given(st.one_of(with_repeated_factor, with_factor_free_of_one_variable,
                     real_times_gaussian, i_times_real))
    @settings(max_examples=60, deadline=None)
    def test_images_accept_only_what_the_gcds_accept(self, p):
        # the image route is sound: it never accepts a refused polynomial,
        # and what it accepts the bivariate norm route accepts too
        if polyalg._image_squarefree(p):
            assert reference_squarefree_check(p)[0]
            assert norm_squarefree(p)

    @given(bivariate(kinds=("ZZ", "QQ")), bivariate(kinds=("ZZ_I", "QQ_I")))
    @settings(max_examples=40, deadline=None)
    def test_norm_grid_is_sympy_norm(self, real, gaussian):
        # N = A^2 + B^2 for d p = A + B i, and N = A when B = 0
        for p in (real, gaussian):
            A, B = (norm_parts(p, k) for k in (0, 1))
            N = A if B.is_zero else A**2 + B**2
            grid = polyalg._norm_grid(p)
            assert {(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row)
                    if c} == N.as_dict()

    def test_dense_gaussian_within_a_second(self):
        # the gcds over Z[i] alone took 2.6 s on this (8, 8) polynomial
        rng = random.Random(8)
        rows = [[[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(9)] for _ in range(9)]
        rows[8][0] = rows[0][8] = [1, 0]
        p = BivariatePolynomial(rows)
        start = time.perf_counter()
        assert squarefree_check(p) == (True, None, None)
        assert time.perf_counter() - start < 1.0
