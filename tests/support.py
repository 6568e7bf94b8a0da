"""Helpers shared by the test modules."""

import math
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from corrdyn import floats, polyalg
from corrdyn.bimodule import FockTruncation, inner_product, monomial_basis_element
from corrdyn.correspondence import SpherePoint, _point_sort_key, chordal_distance
from corrdyn.dynamics import ArcSet, CircleCorrespondence, PathSample, _check_path_count
from corrdyn.errors import InvalidInputError, ResourceLimitError
from corrdyn.floats import _U, _UNDERFLOW, FloatGrid
from corrdyn.polyalg import (
    BivariatePolynomial,
    _crt,
    _fp_divmod,
    _prime,
    _zi_quotient,
    _zi_strip,
    linked_groups,
)


def constant_function(value):
    """The constant function f(z, w) = value on the correspondence."""
    return lambda z, w: value


# Exact complex numbers and the Gaussian-rational coefficient grid.
# corrdyn.polyalg stores a bivariate polynomial as one Gaussian-integer grid
# over a least denominator; ReferencePolynomial is the route it replaced, a
# grid of GaussianRational values multiplied, transposed and printed in
# Fraction arithmetic, and the oracle it is compared against.


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction, float)):
            return GaussianRational(Fraction(x), Fraction(0))
        if isinstance(x, complex):
            return GaussianRational(Fraction(x.real), Fraction(x.imag))
        if isinstance(x, (tuple, list)) and len(x) == 2:
            return GaussianRational(Fraction(x[0]), Fraction(x[1]))
        raise InvalidInputError(f"cannot interpret {x!r} as a Gaussian rational")

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


QQI_ZERO = GaussianRational(Fraction(0), Fraction(0))


def _gaussian_integers(cs):
    """(d, pairs): d the least common denominator of the Gaussian rationals
    cs, and pairs the (re, im) integer parts of d c for each c."""
    d = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
    return d, [(c.re.numerator * (d // c.re.denominator),
                c.im.numerator * (d // c.im.denominator)) for c in cs]


class ReferencePolynomial:
    """p(z, w) as a grid c[i][j] of GaussianRational values for z^i w^j,
    trimmed of zero rows and columns at the end: what
    ``BivariatePolynomial`` stored before it became its Gaussian-integer
    grid, with its product, transpose, integer grid and repr."""

    def __init__(self, grid):
        rows = [[GaussianRational.of(c) for c in row] for row in grid]
        if not rows or not any(any(c for c in row) for row in rows):
            raise InvalidInputError("zero bivariate polynomial")
        width = max(len(r) for r in rows)
        for r in rows:
            r.extend([QQI_ZERO] * (width - len(r)))
        while rows and not any(rows[-1]):
            rows.pop()
        width = max(
            (j for row in rows for j, c in enumerate(row) if c), default=0
        ) + 1
        rows = [row[:width] for row in rows]
        self.coeffs = tuple(tuple(row) for row in rows)
        self.deg_z = len(rows) - 1
        self.deg_w = width - 1

    @staticmethod
    def product(factors) -> "ReferencePolynomial":
        acc = factors[0]
        for f in factors[1:]:
            acc = acc._mul(f)
        return acc

    def _mul(self, other: "ReferencePolynomial") -> "ReferencePolynomial":
        out = [
            [QQI_ZERO] * (self.deg_w + other.deg_w + 1)
            for _ in range(self.deg_z + other.deg_z + 1)
        ]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if not c:
                    continue
                for k, orow in enumerate(other.coeffs):
                    for l, d in enumerate(orow):
                        if d:
                            out[i + k][j + l] = out[i + k][j + l] + c * d
        return ReferencePolynomial(out)

    def transpose(self) -> "ReferencePolynomial":
        return ReferencePolynomial([
            [self.coeffs[i][j] for i in range(self.deg_z + 1)]
            for j in range(self.deg_w + 1)
        ])

    def gaussian_grid(self):
        """(d, rows): d the least common denominator of the coefficients, and
        rows the grid of d p as (re, im) integer pairs."""
        d, flat = _gaussian_integers([c for row in self.coeffs for c in row])
        k = self.deg_w + 1
        return d, tuple(tuple(flat[i:i + k]) for i in range(0, len(flat), k))

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    terms.append(f"{c!r}*z^{i}*w^{j}")
        return " + ".join(terms)


@np.errstate(over="ignore")
def reference_float_grid(ref: ReferencePolynomial):
    """(grid, abs_grid, floor) of floats.FloatGrid, floor as an array, with
    grid made of complex(c) for each Gaussian-rational coefficient c of ref."""
    grid = np.array([[complex(c) for c in row] for row in ref.coeffs])
    abs_grid = np.abs(grid)
    return grid, abs_grid, 8 * (ref.deg_w + 2) * _UNDERFLOW * (1.0 + abs_grid.sum(axis=1))


def coefficients(p: BivariatePolynomial) -> tuple:
    """The coefficient grid of p as GaussianRational values."""
    d = p.denominator
    return tuple(tuple(GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in row)
                 for row in p.rows)


def exact_polynomial(grid) -> BivariatePolynomial:
    """The BivariatePolynomial of a grid that may hold GaussianRational
    values."""
    return BivariatePolynomial(
        [[astuple(c) if isinstance(c, GaussianRational) else c for c in row] for row in grid])


# Exact univariate polynomials over the Gaussian rationals, on ascending
# coefficient tuples.  corrdyn.polyalg works on Gaussian-integer (re, im)
# pairs throughout; these are what its oracles and test inputs are written in.


def _xstrip(c) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _xdeg(c) -> int:
    return len(c) - 1


def _xderiv(a):
    return _xstrip([a[i] * GaussianRational.of(i) for i in range(1, len(a))])


class UnivariatePolynomial:
    """Dense univariate polynomial, ascending exact coefficients.

    Coefficients are lifted exactly by ``GaussianRational.of`` (a float keeps
    its binary value), and trailing zeros are stripped so the leading
    coefficient is nonzero unless this is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _xstrip([GaussianRational.of(c) for c in coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs


def partial_z(p: BivariatePolynomial) -> BivariatePolynomial:
    """dp/dz, for p of positive degree in z."""
    return exact_polynomial(
        [[c * GaussianRational.of(i) for c in coefficients(p)[i]] for i in range(1, p.deg_z + 1)])


def integer_coeffs(f: UnivariatePolynomial) -> list:
    """f's ascending coefficients times their least common denominator, as
    the Gaussian-integer (re, im) pairs that polyalg.roots takes."""
    return _gaussian_integers(f.coeffs)[1]


# Euclid's and Yun's algorithms over the Gaussian rationals, on ascending
# coefficient tuples.  corrdyn.polyalg decides gcds and squarefree
# decompositions modulo primes, with exact verification; these are the
# oracles it is compared against.

QQI_ONE = GaussianRational(Fraction(1), Fraction(0))


def xadd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else QQI_ZERO
        y = b[i] if i < len(b) else QQI_ZERO
        out.append(x + y)
    return _xstrip(out)


def xscale(a, s: GaussianRational):
    return _xstrip([x * s for x in a])


def xdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [QQI_ZERO] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    while len(a) >= len(b) and _xstrip(a):
        a = list(_xstrip(a))
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        factor = a[-1] / lb
        q[k] = factor
        for i, y in enumerate(b):
            a[k + i] = a[k + i] - factor * y
        a.pop()
    return _xstrip(q), _xstrip(a)


def xmonic(a):
    if not a:
        return a
    return xscale(a, QQI_ONE / a[-1])


def xgcd(a, b):
    a, b = _xstrip(a), _xstrip(b)
    while b:
        _, r = xdivmod(a, b)
        a, b = b, r
    return xmonic(a)


def reference_squarefree_factors(coeffs):
    """Yun's algorithm: [(factor, multiplicity), ...] with each factor monic,
    squarefree and nonconstant, in increasing multiplicity, whose product
    of factor^multiplicity is coeffs up to a scalar."""
    f = xmonic(_xstrip(coeffs))
    if not f:
        raise InvalidInputError("squarefree decomposition of the zero polynomial")
    if len(f) == 1:
        return []
    df = _xderiv(f)
    g = xgcd(f, df)
    c, _ = xdivmod(f, g)
    d = xadd(xdivmod(df, g)[0], xscale(_xderiv(c), GaussianRational.of(-1)))
    out = []
    i = 1
    while len(c) > 1:
        a = xgcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c = xdivmod(c, a)[0]
        d = xadd(xdivmod(d, a)[0], xscale(_xderiv(c), GaussianRational.of(-1)))
        i += 1
    return out


def reference_roots(coeffs) -> list:
    """polyalg.roots without reading the root at 0 off the coefficients: a
    zero constant term goes to the squarefree split with the rest, and the
    companion eigenvalues of the factor z h append its 0j."""
    if not coeffs:
        raise InvalidInputError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    return [
        (complex(r), mult)
        for factor, mult in polyalg.squarefree_factors(coeffs)
        for r in floats.companion_roots(polyalg._monic_image(factor))
    ]


# The Fraction route to the exact specialisation of a bivariate polynomial
# in its second variable, by Horner's rule over the Gaussian rationals.
# BivariatePolynomial.univariate_in_z and its inverted form compute the same
# coefficients times a scale, on Gaussian integers; this is the oracle.


def _horner(cs, x: GaussianRational) -> GaussianRational:
    """cs[0] x^k + cs[1] x^(k-1) + ... + cs[k], exactly, by Horner's rule."""
    acc = QQI_ZERO
    for c in cs:
        acc = acc * x + c
    return acc


def reference_univariate_in_z(p: BivariatePolynomial, w0: GaussianRational):
    """Exact coefficients of z -> p(z, w0)."""
    return UnivariatePolynomial(_horner(reversed(row), w0) for row in coefficients(p))


def reference_univariate_in_z_inverted(p: BivariatePolynomial, v0: GaussianRational):
    """Exact coefficients of z -> v0^n p(z, 1/v0), n = deg_w (chart near
    infinity): row i gives the sum over j of c[i][j] v0^(n - j)."""
    return UnivariatePolynomial(_horner(row, v0) for row in coefficients(p))


# Independent routes to the resultants and the squarefree check: sympy
# expressions in z, w with I, over the Gaussian rationals QQ_I whatever the
# coefficients are.

Z, W = sp.symbols("z w")


def _in_w(row):
    """sum c_j w^j over the Gaussian rationals c_j of row."""
    return sum(
        (
            (sp.Rational(c.re.numerator, c.re.denominator)
             + sp.Rational(c.im.numerator, c.im.denominator) * sp.I) * W**j
            for j, c in enumerate(row)
            if c
        ),
        sp.Integer(0),
    )


def _expr(p: BivariatePolynomial):
    return sum((_in_w(row) * Z**i for i, row in enumerate(coefficients(p))), sp.Integer(0))


def _qqi(x) -> GaussianRational:
    re, im = (sp.Rational(t) for t in x.as_real_imag())
    return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))


def sylvester_resultant_z(f: BivariatePolynomial, g: BivariatePolynomial):
    """Res_z(f, g) as a polynomial in w: the determinant of the Sylvester
    matrix, deg_z g rows of f's coefficients in descending powers of z above
    deg_z f rows of g's, by fraction-free elimination over QQ_I[w].
    (sp.resultant is no oracle: sympy 1.14 returns -Res(f, g) when
    deg f < deg g and both are odd, e.g. 6 for Res(z + 2, z^3 + 2) = -6.)"""
    m, n = f.deg_z, g.deg_z
    size = m + n
    rows = []
    for poly, shifts in ((f, n), (g, m)):
        column = [_in_w(row) for row in reversed(coefficients(poly))]
        for s in range(shifts):
            rows.append([0] * s + column + [0] * (size - s - len(column)))
    ring = sp.QQ_I[W]
    r = ring.to_sympy(DomainMatrix.from_list_sympy(size, size, rows).convert_to(ring).det())
    if r == 0:
        return UnivariatePolynomial([])
    poly = sp.Poly(r, W, domain="QQ_I")
    return UnivariatePolynomial([_qqi(c) for c in reversed(poly.all_coeffs())])


# The modular route to the resultants: Euclid's algorithm in F_p at
# evaluation points, interpolation and the Chinese remainder theorem, on the
# Gaussian-integer grids polyalg takes.


def reference_resultant_z(F, G) -> list:
    """polyalg.resultant_z(F, G) by the modular route (Collins, J. ACM 18,
    1971; von zur Gathen & Gerhard, Modern Computer Algebra, 6.4-6.11), on
    the same grids of Gaussian-integer (re, im) pairs.  With m = deg_z F,
    n = deg_z G, Res(F, G) has w-degree at most D = n deg_w F + m deg_w G and
    parts at most B = |F|_1^n |G|_1^m in size.  For each prime p = 1 (mod 4)
    of ``polyalg._prime`` in turn, under each ideal over it that is needed,
    Res(F, G) is taken by Euclid's algorithm in F_p at D + 1 points w where
    neither lc_z vanishes, and interpolated; a prime that kills lc_z(F) or
    lc_z(G) is skipped.  The images are combined by the Chinese remainder
    theorem until the modulus exceeds 2B, and lifted to the symmetric
    range."""
    m, n = len(F) - 1, len(G) - 1
    if m == 0 and n == 0:
        raise InvalidInputError("resultant in z of two z-constant polynomials")
    bound = 2 * sum(abs(x) + abs(y) for row in F for x, y in row) ** n
    bound *= sum(abs(x) + abs(y) for row in G for x, y in row) ** m
    real = not any(y for grid in (F, G) for row in grid for _, y in row)
    D = n * (max(map(len, F)) - 1) + m * (max(map(len, G)) - 1)
    modulus, acc, k = 1, ([0] * (D + 1), [0] * (D + 1)), 0
    while modulus <= bound:
        p, unit = _prime(k)
        k += 1
        units = (unit,) if real else (unit, p - unit)
        images = [_fp_resultant_z(F, G, p, u, D) for u in units]
        if None not in images:
            modulus = _crt(acc, modulus, images, p, unit)
    return _zi_strip((x - modulus if 2 * x > modulus else x, y - modulus if 2 * y > modulus else y)
                     for x, y in zip(*acc))


def _fp_resultant_z(F, G, p: int, unit: int, D: int):
    """Res_z(F, G) under i -> unit in F_p as its D + 1 ascending
    w-coefficients; None when lc_z(F) or lc_z(G) vanishes there."""
    Fp = [[(x + unit * y) % p for x, y in row] for row in F]
    Gp = [[(x + unit * y) % p for x, y in row] for row in G]
    if not any(Fp[-1]) or not any(Gp[-1]):
        return None
    xs, ys, w = [], [], 0
    while len(xs) <= D:
        a = [_fp_horner(row, w, p) for row in Fp]
        b = [_fp_horner(row, w, p) for row in Gp]
        if a[-1] and b[-1]:
            xs.append(w)
            ys.append(_fp_resultant(a, b, p))
        w += 1
    return _fp_interpolate(xs, ys, p)


def _fp_horner(row: list, w: int, p: int) -> int:
    acc = 0
    for x in reversed(row):
        acc = (acc * w + x) % p
    return acc


def _fp_resultant(a: list, b: list, p: int) -> int:
    """Res(a, b) in F_p of nonzero a and b, by Euclid's algorithm with
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for r the
    remainder of a by b."""
    res = 1
    while len(b) > 1:
        r = _fp_divmod(a, b, p)[1]
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _fp_interpolate(xs: list, ys: list, p: int) -> list:
    """The ascending coefficients of the polynomial of degree < len(xs)
    through the points (xs, ys) in F_p, by Newton's divided differences."""
    c, inverse = list(ys), {}
    for j in range(1, len(xs)):
        for k in range(len(xs) - 1, j - 1, -1):
            gap = xs[k] - xs[k - j]
            if gap not in inverse:
                inverse[gap] = pow(gap, -1, p)
            c[k] = (c[k] - c[k - 1]) * inverse[gap] % p
    out = [c[-1]]
    for k in range(len(xs) - 2, -1, -1):
        x = xs[k]
        out = [(lo - x * hi) % p for lo, hi in zip([c[k]] + out, out + [0])]
    return out


def reference_newton_steps(coeffs, z: complex, m: int) -> complex:
    """Three Newton steps z - m f(z)/f'(z) in Fraction arithmetic for the
    ascending Gaussian-integer pairs coeffs, each rounded to the nearest
    complex128, stopping where f'(z) = 0 or a part leaves float range: the
    steps of polyalg.polish_roots with no early stop at a fixed point."""
    f = [GaussianRational.of(c) for c in coeffs]
    df = _xderiv(f)
    for _ in range(3):
        x = GaussianRational.of(z)
        try:
            z = complex(x - _horner(f[::-1], x) * GaussianRational.of(m)
                        / _horner(df[::-1], x))
        except (ZeroDivisionError, OverflowError):
            break
    return z


def reference_branching(p: BivariatePolynomial):
    """correspondence._branching(p.rows) by the Gaussian-
    rational route: the resultants are Sylvester determinants over QQ_I
    (``sylvester_resultant_z``) of p and its z-derivative, scaled to
    Gaussian integers after the fact, the tests at infinity run Euclid's
    algorithm over the Gaussian rationals, and every root takes three
    Newton steps (``reference_newton_steps``)."""
    from corrdyn.correspondence import _chordal_merge
    from corrdyn.polyalg import roots

    def polished(f):
        if not f:
            raise InvalidInputError("resultant vanished identically")
        estimates = [(c.to_complex(), e) for c, e in _chordal_merge(roots(f), 0.0)]
        found = [SpherePoint.from_complex(reference_newton_steps(f, z, e)) for z, e in estimates]
        return sorted(dict.fromkeys(found), key=_point_sort_key)

    m, n = p.deg_z, p.deg_w
    p_z = partial_z(p)
    c = coefficients(p)
    lc, below = _xstrip(c[m]), _xstrip(c[m - 1])
    disc = _zi_quotient(integer_coeffs(sylvester_resultant_z(p, p_z)),
                        _gaussian_integers(lc)[1])
    points = polished(integer_coeffs(sylvester_resultant_z(p.transpose(), p_z.transpose())))
    values = polished(disc)
    if max(_xdeg(lc), _xdeg(below)) < n or _xdeg(xgcd(lc, below)) > 0:
        points.append(SpherePoint.infinity())
    top = _xstrip(row[n] for row in c)
    if _xdeg(top) <= m - 2 or _xdeg(xgcd(top, _xderiv(top))) > 0:
        values.append(SpherePoint.infinity())
    return points, values


def reference_squarefree_check(p: BivariatePolynomial):
    """(verdict, witness) as polyalg.squarefree_check, by sp.gcd over QQ_I;
    the witness is the monic gcd sympy returns over that field."""
    pe = _expr(p)
    for var in (Z, W):
        de = sp.diff(pe, var)
        if de == 0:
            continue
        g = sp.gcd(sp.Poly(pe, Z, W, domain="QQ_I"), sp.Poly(de, Z, W, domain="QQ_I"))
        if g.total_degree() > 0:
            grid = [[0] * (g.degree(W) + 1) for _ in range(g.degree(Z) + 1)]
            for (i, j), c in g.terms():
                grid[i][j] = astuple(_qqi(c))
            return False, BivariatePolynomial(grid)
    return True, None


def on_correspondence(corr, z, w) -> bool:
    """Whether (z, w) lies on corr: p in separately homogeneous coordinates,
    so that points at infinity count too, sum c[i][j] z1^i z2^(m-i) w1^j
    w2^(n-j), against 1e-9 times the coefficient sum."""
    m, n = corr.deg_z, corr.deg_w
    val = 0j
    grid = coefficients(corr.p)
    for i, row in enumerate(grid):
        zterm = z.z1**i * z.z2 ** (m - i)
        for j, c in enumerate(row):
            if c:
                val += complex(c) * zterm * w.z1**j * w.z2 ** (n - j)
    return abs(val) < 1e-9 * max(1.0, sum(abs(c) for row in grid for c in row))


# The checks of the bimodule's lemmas that no command runs: the norms, the
# orthonormal basis, the tensor/path isometry and the ideal of the module.
# Functions on the correspondence are callables f(z, w), as
# corrdyn.bimodule.inner_product takes them.


def norm2(corr, f, w_samples) -> float:
    """||f||_2 = sup_w (f|f)_A(w)^(1/2) over the sample grid."""
    best = 0.0
    for w in w_samples:
        best = max(best, inner_product(corr, f, f, w).real)
    return math.sqrt(max(0.0, best))


def norm_inf(corr, f, w_samples) -> float:
    """Sup norm of f over fiber points above the sample grid."""
    best = 0.0
    for w in w_samples:
        for z, _ in corr.backward_fiber(w).points:
            best = max(best, abs(complex(f(z, w))))
    return best


def monomial_basis(m: int) -> list:
    """u_i(z, w) = z^i / sqrt(m) for i = 0..m-1: an orthonormal module basis
    for the family z^m = w^n restricted to the circle."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    return [monomial_basis_element(m, i) for i in range(m)]


def path_inner_product(corr, f, g, w, n: int, tol: float = 1e-6) -> complex:
    """(f|g)_A(w) over the length-n paths ending at w, weighted by the
    product of their branch indices; f and g are callables of the tuple of
    the n + 1 path points."""
    total = 0j
    for path in paths_ending_at(corr, w, n, tol):
        total += path.weight * complex(f(path.points)).conjugate() * complex(g(path.points))
    return total


def tensor_isometry_check(corr, f_list, g_list, w_samples) -> float:
    """Max deviation over the sample grid between the recursive tensor inner
    product and the direct weighted path-space sum for
    (f_1 (x) ... (x) f_n | g_1 (x) ... (x) g_n)_A."""
    n = len(f_list)
    if n != len(g_list):
        raise InvalidInputError("lists must have equal length")
    if not 1 <= n <= 3:
        raise InvalidInputError("tensor length must be between 1 and 3")

    def recursive(k: int, w: SpherePoint) -> complex:
        # inner product of the first k factors, evaluated at w
        total = 0j
        for z, e in corr.backward_fiber(w).points:
            middle = recursive(k - 1, z) if k > 1 else 1.0
            total += (
                e
                * complex(f_list[k - 1](z, w)).conjugate()
                * middle
                * complex(g_list[k - 1](z, w))
            )
        return total

    def direct(w: SpherePoint) -> complex:
        total = 0j
        for path in paths_ending_at(corr, w, n):
            prod = complex(path.weight)
            for k in range(n):
                zk, zk1 = path.points[k], path.points[k + 1]
                prod *= complex(f_list[k](zk, zk1)).conjugate() * complex(
                    g_list[k](zk, zk1)
                )
            total += prod
        return total

    return max(abs(recursive(n, w) - direct(w)) for w in w_samples)


def ideal_membership(corr, a) -> bool:
    """Whether a, a callable of one SpherePoint, lies in the ideal of the
    module: |a| < 1e-9 on every branch point of the correspondence on the
    unit circle."""
    return all(abs(complex(a(z))) < 1e-9 for z in corr.branch_points(restrict_to="circle"))


# The dense route to the Fock relations: Fraction matrices over the path
# bases, multiplied out in full.  corrdyn.bimodule composes index maps
# instead, and dense_relation_check is the oracle it is compared against;
# the vanishing lemma is checked by the dense route alone.


def _zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def _matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(cols):
                    row[j] += a * Bt[j]
    return out


def _scaled_transpose(M, s):
    """s times the transpose of the matrix M."""
    return [[s * M[r][c] for r in range(len(M))] for c in range(len(M[0]) if M else 0)]


def _matsub_maxabs(A, B) -> float:
    dev = 0.0
    for ra, rb in zip(A, B):
        for x, y in zip(ra, rb):
            dev = max(dev, abs(x - y))
    return dev


def _path_creation(ft: FockTruncation, x: tuple, k: int):
    """Matrix of T_{delta_x} for a path basis vector x, level k -> k+i."""
    i = len(x) - 1
    if k + i > ft.K:
        return _zeros(0, len(ft.blocks[k]))
    src, dst = ft.blocks[k], ft.blocks[k + i]
    index = {path: r for r, path in enumerate(dst)}
    M = _zeros(len(dst), len(src))
    for c, q in enumerate(src):
        if q[0] == x[-1]:
            M[index[x[:-1] + q]][c] = Fraction(1)
    return M


def creation_matrix(ft: FockTruncation, edge_index: int, k: int):
    """T_{delta_edge}: level k -> level k+1 (zero matrix when k = K)."""
    return _path_creation(ft, ft.base.edges[edge_index][:2], k)


def annihilation_matrix(ft: FockTruncation, edge_index: int, k: int):
    """T_{delta_edge}^*: level k -> level k-1, scaled by the branch index of
    the edge."""
    _, _, e = ft.base.edges[edge_index]
    return _scaled_transpose(creation_matrix(ft, edge_index, k - 1), e)


def left_action_matrix(ft: FockTruncation, a: dict, k: int):
    """Diagonal action of a in C(J) on level k: multiply by a at the first
    vertex of the path."""
    paths = ft.blocks[k]
    M = _zeros(len(paths), len(paths))
    for i, q in enumerate(paths):
        M[i][i] = a.get(q[0], 0)
    return M


def dense_relation_check(ft: FockTruncation) -> float:
    """fock_relation_check by dense matrix products."""
    fb = ft.base
    dev = 0.0
    for ei in range(len(fb.edges)):
        for ej in range(len(fb.edges)):
            _, wi, e_i = fb.edges[ei]
            ip = {}  # (delta_ei | delta_ej)_A as a function on J
            if ei == ej:
                ip[wi] = Fraction(e_i)
            for k in range(ft.K):
                lhs = _matmul(annihilation_matrix(ft, ei, k + 1), creation_matrix(ft, ej, k))
                rhs = left_action_matrix(ft, ip, k)
                dev = max(dev, _matsub_maxabs(lhs, rhs))
    return dev


def dense_vanishing_lemma_check(ft: FockTruncation, a: dict, x: tuple, y: tuple) -> bool:
    """Check a T_x T_y^* a^* = 0 for basis paths x (level i) and y (level j),
    i != j, by dense matrix products on every level where both act, after
    verifying the hypothesis a(z_1) conj(a(u_1)) = 0 over all pairs of
    level-i and level-j paths sharing an endpoint; a failing hypothesis
    raises InvalidInputError naming the first failing pair."""
    i, j = len(x) - 1, len(y) - 1
    if i == j:
        raise InvalidInputError("the lemma requires i != j")
    if x not in ft.blocks[i] or y not in ft.blocks[j]:
        raise InvalidInputError("x and y must be basis paths of their levels")
    for p in ft.blocks[i]:
        for q in ft.blocks[j]:
            if p[-1] == q[-1]:
                prod = a.get(p[0], 0) * a.get(q[0], 0).conjugate()
                if prod != 0:
                    raise InvalidInputError(
                        f"hypothesis fails: a({p[0]})a({q[0]}) != 0 for the "
                        f"path pair {p} / {q}"
                    )
    w_y = 1
    lookup = {(z, w): e for z, w, e in ft.base.edges}
    for u, v in zip(y, y[1:]):
        w_y *= lookup[(u, v)]
    a_conj = {v: val.conjugate() for v, val in a.items()}
    for k in range(0, ft.K - max(i, j) + 1):
        # T_y^*: level k+j -> level k is w_y times the transpose of creation
        ann_y = _scaled_transpose(_path_creation(ft, y, k), w_y)
        # operator on level k+j: La . T_x . T_y^* . La*
        M = _matmul(ann_y, left_action_matrix(ft, a_conj, k + j))
        M = _matmul(_path_creation(ft, x, k), M)
        M = _matmul(left_action_matrix(ft, a, k + i), M)
        if any(entry != 0 for row in M for entry in row):
            return False
    return True


# The numpy route to the float-fiber certificate: np.roots and array
# arithmetic throughout.  corrdyn.floats.FloatGrid.certified_points computes
# the same eigenvalues and runs the certificate on Python scalars; this is
# the oracle it is compared against.


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def reference_certified_roots(c: np.ndarray, e: np.ndarray):
    """(zeta, r) when every polynomial F with |F_k - c_k| <= e_k has degree
    d = len(c) - 1 and exactly one root in each of the pairwise disjoint
    discs D(zeta_i, r_i); None when this test is undecided.

    zeta are the ``np.roots`` approximations of c.  With the Weierstrass
    corrections W_i = F(zeta_i) / (lc(F) prod_{j != i} (zeta_i - zeta_j)),
    F / lc(F) is the characteristic polynomial of diag(zeta) - W 1^T, whose
    Gerschgorin discs D(zeta_i - W_i, (d - 1)|W_i|) lie in D(zeta_i, d|W_i|)
    (Braess & Hadeler, Numer. Math. 21, 1973; Carstensen, Numer. Math. 59,
    1991).  r_i bounds d|W_i| from above: |F(zeta_i)| is at most the computed
    |c(zeta_i)| plus the coefficient error and the Horner rounding (Higham,
    ch. 5), and |lc(F)| is at least |c_d| - e_d.  Disjoint discs make F
    squarefree of degree d, so the exact path would also find d simple roots.
    """
    d = len(c) - 1
    lead = abs(c[-1]) - e[-1]
    if not lead > 0 or not np.all(np.isfinite(c / c[-1])):
        return None
    zeta = np.roots(c[::-1])
    if not np.all(np.isfinite(zeta)):
        return None
    gamma = 8 * (d + 2) * _U
    size = np.abs(zeta)
    value = np.full(d, c[-1])
    error = np.full(d, e[-1] + gamma * abs(c[-1]))
    for k in range(d - 1, -1, -1):
        value = value * zeta + c[k]
        error = error * size + (e[k] + gamma * abs(c[k]))
    dist = np.abs(zeta[:, None] - zeta[None, :])
    np.fill_diagonal(dist, 1.0)
    spread = np.prod(dist, axis=1)
    r = d * (np.abs(value) + error) / (lead * spread) * (1 + gamma)
    np.fill_diagonal(dist, np.inf)
    if not (
        np.all(np.isfinite(spread))
        and np.all(np.isfinite(r))
        and np.all(dist * (1 - gamma) > r[:, None] + r[None, :])
    ):
        return None
    return zeta, r


@np.errstate(over="ignore", invalid="ignore", under="ignore")
def reference_float_specialise(grid, v: complex, inverted: bool):
    """(c, e) as ``float_specialise`` gives them, with the power vector
    built by np.cumprod; the oracle for its Python products."""
    powers = np.full(grid.n + 1, v, dtype=complex)
    powers[0] = 1.0
    powers = np.cumprod(powers)
    if inverted:
        powers = powers[::-1]
    c = grid.grid @ powers
    e = grid.gamma * (grid.abs_grid @ np.abs(powers)) + grid.floor
    return c, e


# The two-step route to the certified float fiber that
# corrdyn.floats.FloatGrid.certified_points runs as one pass: the
# specialisation (c, e), then the certificate on Python scalars, which also
# returns the disc radii, then the points in sort order.  Each step performs
# the float operations of the one pass in the same order, so the route is
# the oracle the pass must match to the bit.


def float_specialise(grid: FloatGrid, v: complex, inverted: bool):
    """(c, e): the ascending coefficients of grid's polynomial at the chart
    value v, and their componentwise error bound (see ``FloatGrid``); the
    powers of v are Python products, the dot products numpy's."""
    powers, t = [1.0 + 0j], 1.0 + 0j
    for _ in range(grid.n):
        t *= v
        powers.append(t)
    powers = np.array(powers)
    if inverted:
        powers = powers[::-1]
    with np.errstate(all="ignore"):
        c = grid.grid @ powers
        e = grid.gamma * (grid.abs_grid @ np.abs(powers)) + grid.floor
    return c, e


def scalar_certified_roots(c: np.ndarray, e: np.ndarray, separation: float):
    """(zeta, r), two lists, when every polynomial F with |F_k - c_k| <= e_k
    has degree d = len(c) - 1 and exactly one root in each of the pairwise
    disjoint discs D(zeta_i, r_i), and every two zeta lie more than
    separation apart in the chordal metric; None when the test is undecided
    or a pair is closer.  zeta come from
    ``corrdyn.floats._companion_eigenvalues`` on a fresh shift matrix.
    numpy's floating-point warnings are left to the caller."""
    d = len(c) - 1
    cs, es = c.tolist(), e.tolist()
    gamma = 8 * (d + 2) * _U
    try:
        lead = abs(cs[d]) - es[d]
        k0 = next((k for k, ck in enumerate(cs) if ck != 0), d)
        if k0 >= 2 or not lead > 0:
            return None
        zeta = floats._companion_eigenvalues(c, k0, np.eye(d, k=-1, dtype=complex))
        size = [abs(z) for z in zeta]
        slack = [ek + gamma * abs(ck) for ck, ek in zip(cs, es)]
        pairs = [(abs(z - zeta[j]), i, j) for i, z in enumerate(zeta) for j in range(i)]
        spread = [1.0] * d
        for dist, i, j in pairs:
            spread[i] *= dist
            spread[j] *= dist
        r = []
        for z, zs, zp in zip(zeta, size, spread):
            value, error = cs[d], slack[d]
            for k in range(d - 1, -1, -1):
                value, error = value * z + cs[k], error * zs + slack[k]
            r.append(d * (abs(value) + error) / (lead * zp) * (1 + gamma))
    except (OverflowError, ZeroDivisionError):
        return None
    if not all(map(math.isfinite, size + spread + r)):
        return None
    shrink = 1 - gamma
    scale = [math.hypot(1.0, zs) for zs in size]
    for dist, i, j in pairs:
        if not (dist * shrink > r[i] + r[j] and dist > separation * scale[i] * scale[j]):
            return None
    return zeta, r


def separated_points(simple) -> tuple:
    """(SpherePoint, 1) for each of the finite roots simple, pairwise more
    than 2 tol apart, in ``_point_sort_key`` order: what ``_chordal_merge``
    at tol gives for them, sorted on the raw real parts of the points'
    values unless two adjacent ones lie within 2e-12."""
    pairs, keys = [], []
    for z in simple:
        z += 0j
        p = tuple.__new__(SpherePoint, (z, 1.0 + 0j) if abs(z) <= 1 else (1.0 + 0j, 1.0 / z))
        pairs.append((p, 1))
        keys.append(p.z1.real if p.z2 == 1 else (1 / p.z2).real)
    order = sorted(range(len(pairs)), key=keys.__getitem__)
    if any(keys[j] - keys[i] <= 2e-12 for i, j in zip(order, order[1:])):
        return tuple(sorted(pairs, key=lambda pe: _point_sort_key(pe[0])))
    return tuple(pairs[i] for i in order)


@np.errstate(all="ignore")
def reference_certified_points(grid: FloatGrid, v: complex, inverted: bool, separation: float):
    """What ``grid.certified_points(v, inverted, separation)`` returns,
    by the two-step route."""
    found = scalar_certified_roots(*float_specialise(grid, v, inverted), separation)
    return None if found is None else separated_points(found[0])


def coefficient_grid(c, e) -> FloatGrid:
    """A FloatGrid constant in its second variable whose specialisation at
    every v is (grid[:, 0] * (1 + 0j), e), so a certified fiber on it runs
    on the given coefficients c, up to the signs of zero parts, and on
    exactly the bounds e."""
    grid = FloatGrid.__new__(FloatGrid)
    grid.grid = np.array(c, dtype=complex)[:, None]
    grid.abs_grid = np.zeros((len(grid.grid), 1))
    grid.n, grid.gamma = 0, 0.0
    grid.floor = [float(ek) for ek in e]
    grid.horner = 8 * (len(grid.grid) + 1) * _U
    grid.lift, grid.shrink = 1 + grid.horner, 1 - grid.horner
    grid.companion = np.eye(len(grid.grid) - 1, k=-1, dtype=complex)
    return grid


def multiplicity_at(fiber, p: SpherePoint, tol: float) -> int:
    """The multiplicity of the first point of fiber within chordal tol of
    p, or 0."""
    for q, e in fiber.points:
        if chordal_distance(p, q) <= tol:
            return e
    return 0


def branch_index(corr, z: SpherePoint, w: SpherePoint) -> int:
    """Multiplicity of z in the fiber over w, the fiber point within
    chordal 1e-5 of z; (z, w) must lie on the correspondence."""
    e = multiplicity_at(corr.backward_fiber(w), z, 1e-5)
    if e == 0:
        raise InvalidInputError(f"({z}, {w}) is not on the correspondence")
    return e


def chordally_separated(zs, limit: float) -> bool:
    """Whether every two of the finite points zs are more than limit apart
    in the chordal metric |a - b| / (sqrt(1 + |a|^2) sqrt(1 + |b|^2)); the
    oracle for the separation test of the certified float fiber."""
    scale = [math.hypot(1.0, abs(z)) for z in zs]
    return all(
        abs(zs[i] - zs[j]) > limit * scale[i] * scale[j]
        for i in range(len(zs))
        for j in range(i)
    )


# Backward path spaces and the propagation of finite sets and of arc sets:
# dynamics that no command runs, kept as oracles of the path-space and
# covering computations.

# most arcs one arc-set propagation step may produce
ARC_CAP = 10**6


def paths_ending_at(corr, w: SpherePoint, n: int, tol: float = 1e-6) -> list:
    """All length-n paths (z_1, ..., z_n, w), built by iterated backward
    fibers from the endpoint; refused before any fiber is solved when the
    count may exceed dynamics.PATH_CAP, as path_space refuses."""
    if n < 0:
        raise InvalidInputError("path length must be >= 0")
    _check_path_count(1, corr.deg_z, n)
    paths = [PathSample(points=(w,), weight=1)]
    for _ in range(n):
        paths = [PathSample(points=(z,) + path.points, weight=path.weight * e)
                 for path in paths
                 for z, e in corr.backward_fiber(path.points[0], tol).points]
    return paths


def propagate_finite(corr, start, n: int) -> list:
    """The set reachable from start in exactly n forward steps; points within
    chordal 1e-7 count as one."""
    current = list(start)
    for _ in range(n):
        nxt = []
        for p in current:
            for w, _ in corr.forward_fiber(p).points:
                if all(chordal_distance(w, q) > 1e-7 for q in nxt):
                    nxt.append(w)
        current = nxt
    return current


def arc_measure(arcs: ArcSet) -> Fraction:
    """The total length of a normalized arc set."""
    return sum((b - a for a, b in arcs.arcs), Fraction(0))


def propagate_arcs(cc: CircleCorrespondence, arcs: ArcSet) -> ArcSet:
    """Exact one-step image of an arc set under the angle relation
    m*alpha = n*beta (mod 1): each [a, b) maps to the n arcs
    [(m a + k)/n, (m b + k)/n)."""
    cc._require_monomial()
    m, n = cc.m, cc.n
    images = []
    for a, b in arcs.arcs:
        if m * (b - a) >= 1:
            return ArcSet.from_arcs([(0, 1)])
        images.extend((Fraction(m * a + k, n), Fraction(m * b + k, n)) for k in range(n))
    if len(images) > ARC_CAP:
        raise ResourceLimitError(f"arc count exploded past {ARC_CAP} during propagation")
    return ArcSet.from_arcs(images)


# The Fraction forms of the circle-family computations that corrdyn.dynamics
# runs on integers over one common denominator; each is the oracle its
# integer form is compared against.


def reference_gp_angles(m: int, n: int, N: int) -> tuple:
    """The sorted angles of dynamics.gp_enumerate for m != n and 1 <= N <= 6:
    every pair of a length-r and a length-s line, s < r <= N, and every
    integer translate t between them, in Fraction arithmetic."""
    d = math.gcd(m, n)

    def lines(r):
        # slope and offsets of the length-r endpoint relation on the torus
        if r == 0:
            return Fraction(1), [Fraction(0)]
        slope = Fraction(m**r, n**r)
        step = Fraction(d ** (r - 1), n**r)
        count = n**r // d ** (r - 1)
        return slope, [step * k for k in range(count)]

    betas = set()
    for r in range(1, N + 1):
        slope_r, offs_r = lines(r)
        for s in range(0, r):
            slope_s, offs_s = lines(s)
            delta = slope_r - slope_s
            for c1 in offs_r:
                for c2 in offs_s:
                    # slope_r * alpha + c1 = slope_s * alpha + c2 + t,
                    # so alpha = (c2 - c1 + t) / delta must land in [0, 1)
                    lo = min(c1 - c2, c1 - c2 + delta)
                    hi = max(c1 - c2, c1 - c2 + delta)
                    for t in range(math.floor(lo), math.ceil(hi) + 1):
                        alpha = (c2 - c1 + t) / delta
                        if 0 <= alpha < 1:
                            betas.add((slope_r * alpha + c1) % 1)
    return tuple(sorted(betas))


def reference_covering_step(m: int, n: int, arcs, r: int) -> bool:
    """Whether the r-step image of an arc set covers the circle, for the
    monomial family (m, n) and r >= 1, on the normalized (a, b) Fraction
    pairs of a nonempty ArcSet: whether the arcs m^r [a, b), reduced modulo
    d^(r-1), cover a period, in Fraction arithmetic.  The first r where it
    holds is the step dynamics.expansive_oracle reports."""
    spacing = Fraction(math.gcd(m, n) ** (r - 1))
    scale = m**r
    pieces = []
    for a, b in arcs:
        length = scale * (b - a)
        if length >= spacing:
            return True
        a2 = (scale * a) % spacing
        b2 = a2 + length
        if b2 <= spacing:
            pieces.append((a2, b2))
        else:
            pieces.append((a2, spacing))
            pieces.append((Fraction(0), b2 - spacing))
    pieces.sort()
    reach = Fraction(0)
    for a, b in pieces:
        if a > reach:
            return False
        reach = max(reach, b)
    return bool(pieces) and reach >= spacing


def reference_component_count(cc: CircleCorrespondence, samples: int = 10**4) -> int:
    """The connected components of the monomial circle correspondence cc, by
    union-find on a sampled graph of the torus curve m alpha = n beta (mod
    1): nodes are exact rational samples along the n offset lines,
    consecutive samples along a line are joined, and coinciding sample
    points (including the wrap-around) are identified; the oracle for
    families.component_count."""
    cc._require_monomial()
    m, n = cc.m, cc.n
    if samples < 4 * n * (m + 1):
        raise InvalidInputError(f"need at least {4 * n * (m + 1)} samples for m={m}, n={n}")
    per_line = samples // n
    nodes, edges = {}, []
    for k in range(n):
        prev = None
        for i in range(per_line + 1):
            alpha = Fraction(i, per_line)
            beta = (Fraction(m, n) * alpha + Fraction(k, n)) % 1
            idx = nodes.setdefault((alpha % 1, beta % 1), len(nodes))
            if prev is not None:
                edges.append((prev, idx))
            prev = idx
    return len(linked_groups(len(nodes), edges))
