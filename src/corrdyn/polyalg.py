"""Polynomial algebra: exact Gaussian-rational coefficients, root finding
with exact multiplicities, modular resultants, and the squarefree check on
sympy Polys.

Coefficients are kept exact (rational real and imaginary parts) so that
resultant and squarefree computations never depend on floating point luck.
Resultants are computed modulo primes p = 1 (mod 4) below 2^61, under the
ideals over p of the Gaussian integers, by evaluation and interpolation, and
combined by the Chinese remainder theorem past a bound on the coefficients
(Collins, J. ACM 18, 1971).  The exact specialisation of a bivariate
polynomial at a float base point, and everything ``roots`` does after it,
runs on Gaussian integers over one denominator: the coefficient grid is
scaled to Gaussian integers once, the base point is read exactly as x / q
with q a power of 2, and each coefficient is a dot product with the powers
x^j q^(n - j).  Multiplicities come from Yun's squarefree decomposition of
those integers, computed modulo a prime, rebuilt by rational reconstruction
over one denominator per factor and kept only when verified exactly in
Z[i] (Brown's lucky primes, J. ACM 18, 1971); Yun's algorithm over the
Gaussian rationals runs only when that is undecided.  Each exact squarefree
factor is then solved in floating point by one root finder, the eigenvalues
of the companion matrix of its monic complex128 image (``np.roots``), each
part of which is one correctly rounded integer division.  ``roots`` returns
these roots unclustered; which of them count as one point is decided in the
chordal metric by ``correspondence``.  ``polish_roots`` refines them by
Newton steps evaluated exactly; every branched-set point is refined so.
For float coefficients known to within a componentwise bound,
``certified_roots`` keeps the ``np.roots`` companion eigenvalues only when
inclusion discs, checked on Python scalars, prove every root simple and no
two roots lie within a given chordal separation.  Whether two polynomials
are coprime (``_xcoprime``) is decided modulo a prime first.  sympy
serves only ``squarefree_check``: the gcds of the norm p p-bar of a defining
polynomial with its partial derivatives over the integers, and, only when
that is inconclusive or p is refused, the gcds of p itself with its partial
derivatives over the smallest exact domain of its coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, RootFindingError

__all__ = [
    "GaussianRational",
    "UnivariatePolynomial",
    "BivariatePolynomial",
    "FloatGrid",
    "certified_roots",
    "roots",
    "polish_roots",
    "resultant_z",
    "resultant_w",
    "squarefree_check",
    "linked_groups",
]


# ---------------------------------------------------------------------------
# exact complex numbers


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
QQI_ONE = GaussianRational(Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# exact univariate arithmetic on coefficient tuples (ascending degree)


def _xstrip(c: Sequence[GaussianRational]) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _xdeg(c) -> int:
    return len(c) - 1


def _xadd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else QQI_ZERO
        y = b[i] if i < len(b) else QQI_ZERO
        out.append(x + y)
    return _xstrip(out)


def _xscale(a, s: GaussianRational):
    return _xstrip([x * s for x in a])


def _xdivmod(a, b):
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


def _xmonic(a):
    if not a:
        return a
    return _xscale(a, QQI_ONE / a[-1])


def _xgcd(a, b):
    a, b = _xstrip(a), _xstrip(b)
    while b:
        _, r = _xdivmod(a, b)
        a, b = b, r
    return _xmonic(a)


def _xderiv(a):
    return _xstrip([a[i] * GaussianRational.of(i) for i in range(1, len(a))])


def squarefree_factors(coeffs: Sequence[GaussianRational]):
    """Yun's algorithm: return [(factor_coeffs, multiplicity), ...] with each
    factor monic and squarefree, product of factor^mult = input up to scalar."""
    f = _xmonic(_xstrip(coeffs))
    if not f:
        raise InvalidInputError("squarefree decomposition of the zero polynomial")
    if _xdeg(f) == 0:
        return []
    df = _xderiv(f)
    g = _xgcd(f, df)
    c, _ = _xdivmod(f, g)
    d = _xadd(_xdivmod(df, g)[0], _xscale(_xderiv(c), GaussianRational.of(-1)))
    out = []
    i = 1
    while _xdeg(c) > 0:
        a = _xgcd(c, d)
        if _xdeg(a) > 0:
            out.append((a, i))
        c, _ = _xdivmod(c, a)
        d = _xadd(_xdivmod(d, a)[0], _xscale(_xderiv(c), GaussianRational.of(-1)))
        i += 1
    return out


# ---------------------------------------------------------------------------
# arithmetic modulo primes p = 1 (mod 4) below 2^61

# A prime p = 2^61 - 31 with p = 1 (mod 4), and a square root I of -1 modulo
# p.  Sending a + b*i to a + b*I (mod p) reduces Z[i] modulo the Gaussian prime
# (p, i - I), and sending it to a - b*I reduces Z[i] modulo the conjugate prime
# (p, i + I); both extend to Gaussian rationals whose denominators are prime
# to p.  Real input needs only the first.
_P = 2305843009213693921
_I = 583529827753931384
# (p, I) pairs: _P, then the primes p = 1 (mod 4) below it in descending
# order, each found on first use by ``_prime``
_PRIMES = [(_P, _I)]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 12 prime bases, which decides primality
    exactly for n < 3.18e23, far above the primes used here (Sorenson &
    Webster, Math. Comp. 86, 2017)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int):
    """The k-th pair (p, I) of ``_PRIMES``, found and kept when first asked
    for: I = c^((p - 1)/4) for the least quadratic non-residue c mod p."""
    while len(_PRIMES) <= k:
        p = _PRIMES[-1][0] - 4
        while not _is_prime(p):
            p -= 4
        c = 2
        while pow(c, (p - 1) // 2, p) != p - 1:
            c += 1
        _PRIMES.append((p, pow(c, (p - 1) // 4, p)))
    return _PRIMES[k]


# Polynomials over F_p are lists of ascending coefficients in [0, p) whose
# last entry is nonzero; [] is the zero polynomial.


def _fp_strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _fp_divmod(a: list, b: list, p: int):
    """(q, r) with a = q b + r and deg r < deg b in F_p[z]; b is nonzero."""
    a, nb = list(a), len(b)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = a[k + nb - 1] * inv % p
        if t:
            for j, y in enumerate(b):
                a[k + j] = (a[k + j] - t * y) % p
    return q, _fp_strip(a[: nb - 1])


def _fp_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of a and b in F_p[z], not both zero, by Euclid's
    algorithm."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _fp_deriv(a: list, p: int) -> list:
    return _fp_strip([i * c % p for i, c in enumerate(a)][1:])


def _fp_mul(a: list, b: list, p: int) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_squarefree(a: list, p: int) -> bool:
    return len(_fp_gcd(a, _fp_deriv(a, p), p)) == 1


def _fp_sub(a: list, b: list, p: int) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _fp_strip([(x - y) % p for x, y in zip(a, b)])


def _fp_yun(f: list, p: int) -> list:
    """Yun's squarefree decomposition of the monic f in F_p[z], deg f < p:
    [(factor, multiplicity), ...] with monic nonconstant factors, in
    increasing multiplicity, step for step as ``squarefree_factors``."""
    df = _fp_deriv(f, p)
    g = _fp_gcd(f, df, p)
    c = _fp_divmod(f, g, p)[0]
    d = _fp_sub(_fp_divmod(df, g, p)[0], _fp_deriv(c, p), p)
    out, i = [], 1
    while len(c) > 1:
        a = _fp_gcd(c, d, p)
        if len(a) > 1:
            out.append((a, i))
        c = _fp_divmod(c, a, p)[0]
        d = _fp_sub(_fp_divmod(d, a, p)[0], _fp_deriv(c, p), p)
        i += 1
    return out


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


def _rational(u: int, p: int):
    """(n, d), d > 0, with |n|, |d| <= sqrt(p/2) and n = u d (mod p), by the
    extended Euclidean algorithm (Wang, SYMSAC 1981); None when there is
    none."""
    bound = math.isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _gaussian_integers(cs):
    """(d, pairs): d the least common denominator of the Gaussian rationals
    cs, and pairs the (re, im) integer parts of d c for each c."""
    d = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
    return d, [(c.re.numerator * (d // c.re.denominator),
                c.im.numerator * (d // c.im.denominator)) for c in cs]


def _zi_mul(a: list, b: list) -> list:
    """The product of two polynomials over Z[i] given as (re, im) pairs."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            xr, xi = out[i + j]
            out[i + j] = (xr + ar * br - ai * bi, xi + ar * bi + ai * br)
    return out


def _zi_quotient(a: list, b: list):
    """a / b up to a positive integer factor, as Gaussian-integer pairs, for
    polynomials a and b != 0 over Z[i] given as ascending (re, im) pairs;
    None when b does not divide a over Q(i).  Each quotient coefficient is
    x conj(l) / |l|^2 for the leading x of the remainder and l = lc(b); when
    that is not a Gaussian integer, the remainder and the quotient so far are
    first scaled by |l|^2, which makes it x conj(l)."""
    lr, li = b[-1]
    norm, nb = lr * lr + li * li, len(b)
    a, q = list(a), [(0, 0)] * max(0, len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        xr, xi = a[k + nb - 1]
        tr, ti = xr * lr + xi * li, xi * lr - xr * li
        if tr % norm or ti % norm:
            a = [(x * norm, y * norm) for x, y in a]
            q = [(x * norm, y * norm) for x, y in q]
        else:
            tr, ti = tr // norm, ti // norm
        q[k] = (tr, ti)
        for j, (br, bi) in enumerate(b):
            x, y = a[k + j]
            a[k + j] = (x - tr * br + ti * bi, y - tr * bi - ti * br)
    return None if any(x or y for x, y in a) else q


def _modular_squarefree(coeffs):
    """The squarefree decomposition of the polynomial f with the ascending
    Gaussian-integer coefficients coeffs, (re, im) pairs with a nonzero last
    one, computed modulo p = _P: [(a_k, k), ...] with Gaussian-integer a_k
    whose monic forms a_k / lc(a_k) are the factors ``squarefree_factors``
    gives; None when this is undecided.

    Reduction modulo the Gaussian prime (p, i - I) sends c = x + y i to
    x + y I mod p.  When lc(f) is a unit there, f mod p keeps the degree of
    f, and gcd(f mod p, (f mod p)') = 1 makes disc(f) nonzero modulo the
    prime, so f is squarefree and [(coeffs, 1)] is returned (Brown, J. ACM
    18, 1971, on lucky primes).  Otherwise Yun's algorithm runs on the monic
    image in F_p, under both ideals over p for non-real f (lc(f) must be a
    unit under each), and the real and imaginary parts of each monic factor
    are rebuilt by rational reconstruction and brought to one denominator
    D_k, so that a_k has leading coefficient D_k.  The result is kept only
    when prod a_k^k lc(f) = prod D_k^k f holds exactly in Z[i], that is,
    f = lc(f) prod (a_k / D_k)^k, and prod (a_k mod p) is squarefree in F_p,
    that is, the images are squarefree and pairwise coprime.  The rebuilt
    denominators are below p, so each a_k / D_k is integral at (p, i - I),
    and so is each monic factor of it over Q(i), as the local ring there is
    integrally closed; so a repeated factor of a_k, or a common factor of
    a_j and a_k, would survive reduction mod p.  The a_k are therefore
    squarefree and pairwise coprime over Q(i), and as the squarefree
    decomposition is unique, their monic forms are the factors of Yun's
    algorithm over the Gaussian rationals.  Otherwise (a repeated root with
    an unlucky prime, a leading coefficient in an ideal over p, or a
    coefficient beyond the reconstruction bound of about 2^30) the answer is
    None."""
    units = (_I,) if not any(y for _, y in coeffs) else (_I, _P - _I)
    images = []
    for unit in units:
        image = [(x + unit * y) % _P for x, y in coeffs]
        if not image[-1]:
            return None
        if not images and _fp_squarefree(image, _P):
            return [(coeffs, 1)]
        inv = pow(image[-1], -1, _P)
        images.append([c * inv % _P for c in image])
    splits = [_fp_yun(image, _P) for image in images]
    if len(splits) == 2 and ([(len(a), k) for a, k in splits[0]]
                             != [(len(a), k) for a, k in splits[1]]):
        return None
    half, half_i = pow(2, -1, _P), pow(2 * _I, -1, _P)
    factors = []
    for parts in zip(*splits):
        fractions = []
        for us in zip(*(a for a, _ in parts)):
            if len(us) == 1:
                re, im = _rational(us[0], _P), (0, 1)
            else:
                re = _rational((us[0] + us[1]) * half % _P, _P)
                im = _rational((us[0] - us[1]) * half_i % _P, _P)
            if re is None or im is None:
                return None
            fractions.append((re, im))
        d = math.lcm(*(den for c in fractions for _, den in c))
        factors.append(([(nr * (d // dr), ni * (d // di)) for (nr, dr), (ni, di) in fractions],
                        parts[0][1]))
    scale, product, image = 1, [(1, 0)], [1]
    for a, k in factors:
        image = _fp_mul(image, [(x + _I * y) % _P for x, y in a], _P)
        for _ in range(k):
            product = _zi_mul(product, a)
        scale *= a[-1][0] ** k
    lr, li = coeffs[-1]
    if ([(x * lr - y * li, x * li + y * lr) for x, y in product]
            != [(x * scale, y * scale) for x, y in coeffs]):
        return None
    return factors if _fp_squarefree(image, _P) else None


def _xcoprime(a, b) -> bool:
    """Whether gcd(a, b) = 1 for polynomials a != 0 and b over the Gaussian
    rationals.  Decided modulo the Gaussian prime (p, i - I), p = _P, when it
    keeps both leading coefficients of the Gaussian-integer forms A and B:
    a primitive gcd g over Z[i] then divides A with the leading coefficient
    of its image kept, so g mod p divides gcd(A mod p, B mod p) with the
    degree of g, and gcd 1 modulo p proves gcd 1 (Brown, J. ACM 18, 1971).
    Otherwise, or when the gcd modulo p is not 1, by Euclid's algorithm over
    the Gaussian rationals (``_xgcd``)."""
    a, b = _xstrip(a), _xstrip(b)
    if b:
        images = [[(x + _I * y) % _P for x, y in _gaussian_integers(f)[1]] for f in (a, b)]
        if images[0][-1] and images[1][-1] and len(_fp_gcd(*images, _P)) == 1:
            return True
    return _xdeg(_xgcd(a, b)) == 0


# ---------------------------------------------------------------------------
# polynomial value types


class UnivariatePolynomial:
    """Dense univariate polynomial, ascending exact coefficients.

    Coefficients are lifted exactly by ``GaussianRational.of`` (a float keeps
    its binary value), and trailing zeros are stripped so the leading
    coefficient is nonzero unless this is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
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


class BivariatePolynomial:
    """Polynomial p(z, w) with an exact coefficient grid c[i][j] for z^i w^j."""

    __slots__ = ("coeffs", "deg_z", "deg_w", "_integer_grid")

    def __init__(self, grid: Sequence[Sequence]):
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
        self._integer_grid = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial_relation(m: int, n: int) -> "BivariatePolynomial":
        """z^m - w^n."""
        if m < 1 or n < 1:
            raise InvalidInputError("exponents must be >= 1")
        grid = [[Fraction(0)] * (n + 1) for _ in range(m + 1)]
        grid[m][0] = Fraction(1)
        grid[0][n] = Fraction(-1)
        return BivariatePolynomial(grid)

    @staticmethod
    def graph_of_power(m: int) -> "BivariatePolynomial":
        """w - z^m."""
        if m < 1:
            raise InvalidInputError("exponent must be >= 1")
        grid = [[Fraction(0), Fraction(0)] for _ in range(m + 1)]
        grid[0][1] = Fraction(1)
        grid[m][0] = Fraction(-1)
        return BivariatePolynomial(grid)

    @staticmethod
    def product(factors: Sequence["BivariatePolynomial"]) -> "BivariatePolynomial":
        grids = list(factors)
        if not grids:
            raise InvalidInputError("empty factor list")
        acc = grids[0]
        for f in grids[1:]:
            acc = acc._mul(f)
        return acc

    def _mul(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
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
        return BivariatePolynomial(out)

    # -- basic queries ------------------------------------------------------

    def transpose(self) -> "BivariatePolynomial":
        grid = [
            [self.coeffs[i][j] for i in range(self.deg_z + 1)]
            for j in range(self.deg_w + 1)
        ]
        return BivariatePolynomial(grid)

    def partial_z(self) -> "BivariatePolynomial":
        if self.deg_z == 0:
            raise InvalidInputError("z-derivative of a z-constant polynomial")
        grid = [
            [c * GaussianRational.of(i) for c in self.coeffs[i]]
            for i in range(1, self.deg_z + 1)
        ]
        return BivariatePolynomial(grid)

    def gaussian_grid(self):
        """(d, rows): d the least common denominator of the coefficients, and
        rows the grid of d p as (re, im) integer pairs; computed once."""
        if self._integer_grid is None:
            d, flat = _gaussian_integers([c for row in self.coeffs for c in row])
            k = self.deg_w + 1
            self._integer_grid = d, [flat[i:i + k] for i in range(0, len(flat), k)]
        return self._integer_grid

    def univariate_in_z(self, v: complex):
        """(s, coeffs): the ascending coefficients of z -> s p(z, v) as
        Gaussian-integer (re, im) pairs, trailing zeros stripped, for the
        float v read exactly as x / q (x a Gaussian integer, q a power of 2)
        and s = d q^n, n = deg_w; row i is the dot product of d c[i] with
        the powers x^j q^(n - j).  A NaN part of v raises ValueError and an
        infinite one OverflowError."""
        return self._specialise(v, False)

    def univariate_in_z_inverted(self, v: complex):
        """(s, coeffs) as ``univariate_in_z`` for z -> s v^n p(z, 1/v), the
        chart near infinity: row i is the dot product of d c[i] with the
        powers x^(n - j) q^j."""
        return self._specialise(v, True)

    def _specialise(self, v: complex, inverted: bool):
        (xr, sr), (xi, si) = v.real.as_integer_ratio(), v.imag.as_integer_ratio()
        q, n = max(sr, si), self.deg_w
        xr, xi = xr * (q // sr), xi * (q // si)
        powers, pr, pi = [], 1, 0  # x^j q^(n - j) from x^j
        for j in range(n + 1):
            t = q ** (n - j)
            powers.append((pr * t, pi * t))
            pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
        if inverted:
            powers.reverse()
        d, rows = self.gaussian_grid()
        coeffs = []
        for row in rows:
            re = im = 0
            for (cr, ci), (wr, wi) in zip(row, powers):
                re += cr * wr - ci * wi
                im += cr * wi + ci * wr
            coeffs.append((re, im))
        while coeffs and coeffs[-1] == (0, 0):
            coeffs.pop()
        return d * q**n, coeffs

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    terms.append(f"{c!r}*z^{i}*w^{j}")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# float specialisation with a certified root-inclusion test

_U = 2.0**-53  # unit roundoff of IEEE double precision
# absolute error allowed per coefficient for gradual underflow: far above the
# few units of 2^-1074 that underflow can cost, and still negligible
_UNDERFLOW = 2.0**-1000


class FloatGrid:
    """The coefficient grid c[i][j] of a bivariate polynomial in complex128,
    specialised in its second variable.

    ``specialise(v, inverted)`` returns the ascending coefficients c_i in the
    first variable of p(., v), or of v^n p(., 1/v) when inverted, from one
    matrix-vector product with the power vector of v.  With them comes a
    componentwise bound e_i >= |c_i - c_i^exact|, where c^exact is the exact
    specialisation at v, read as x / q with x a Gaussian integer and q a
    power of 2: the Gaussian integers that ``univariate_in_z``
    (``univariate_in_z_inverted``) computes, divided by their scale.  The
    bound counts the rounding of the grid, of the powers, of the products
    and of the sums (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.6), with about twice the worst-case number of
    roundings, which also covers the rounding of the bound itself.
    Building the grid raises OverflowError for a coefficient beyond float
    range; a modulus or a row sum that overflows is inf, silently, and
    leaves every certificate on the grid undecided.
    """

    __slots__ = ("grid", "abs_grid", "n", "gamma", "floor")

    @np.errstate(over="ignore")
    def __init__(self, poly: BivariatePolynomial):
        self.grid = np.array([[complex(c) for c in row] for row in poly.coeffs])
        self.abs_grid = np.abs(self.grid)
        self.n = poly.deg_w
        self.gamma = 8 * (self.n + 2) * _U
        self.floor = 8 * (self.n + 2) * _UNDERFLOW * (1.0 + self.abs_grid.sum(axis=1))

    def specialise(self, v: complex, inverted: bool):
        # the powers 1, v, v^2, ... on Python scalars, by the products that
        # np.cumprod makes; the dot products stay in numpy, for its bits
        powers, t = [1.0 + 0j], 1.0 + 0j
        for _ in range(self.n):
            t *= v
            powers.append(t)
        powers = np.array(powers)
        if inverted:
            # a reversed view: a reversed copy gives the products other bits
            powers = powers[::-1]
        c = self.grid @ powers
        e = self.gamma * (self.abs_grid @ np.abs(powers)) + self.floor
        return c, e


# np.eye(n, k=-1) by size n, read-only: a companion matrix is a copy of one
# with row 0 set
_SHIFTS: dict = {}


def certified_roots(c: np.ndarray, e: np.ndarray, separation: float):
    """(zeta, r), two lists, when every polynomial F with |F_k - c_k| <= e_k
    has degree d = len(c) - 1 and exactly one root in each of the pairwise
    disjoint discs D(zeta_i, r_i), and every two zeta lie more than
    separation apart in the chordal metric; None when this test is
    undecided or a pair is closer.

    zeta are the roots ``np.roots`` gives for c, bit for bit: the companion
    eigenvalues, then a 0 per zero low-order coefficient; two or more such
    zeros are a multiple root, so the answer is None before any eigenvalue
    is computed.  The companion matrix is a copy of a shift matrix cached
    per size, with row 0 set from one numpy division, which may overflow:
    numpy's floating-point warnings are left to the caller
    (``Correspondence._fiber`` runs under one ``np.errstate``).  The test
    runs on Python scalars, as numpy's per-call cost would exceed its
    arithmetic at d <= 5; OverflowError and ZeroDivisionError, raised where
    numpy would give inf, mean undecided.
    With the Weierstrass corrections
    W_i = F(zeta_i) / (lc(F) prod_{j != i} (zeta_i - zeta_j)), F / lc(F) is
    the characteristic polynomial of diag(zeta) - W 1^T, whose Gerschgorin
    discs D(zeta_i - W_i, (d - 1)|W_i|) lie in D(zeta_i, d|W_i|) (Braess &
    Hadeler, Numer. Math. 21, 1973; Carstensen, Numer. Math. 59, 1991).  r_i
    bounds d|W_i| from above: |F(zeta_i)| is at most the computed |c(zeta_i)|
    plus the coefficient error and the Horner rounding (Higham, ch. 5), and
    |lc(F)| is at least |c_d| - e_d.  Disjoint discs make F squarefree of
    degree d, so the exact path would also find d simple roots.  The chordal
    test |zeta_i - zeta_j| > separation sqrt(1 + |zeta_i|^2) sqrt(1 + |zeta_j|^2)
    runs in the same loop over the pairs, on the same distances and moduli.
    """
    d = len(c) - 1
    cs, es = c.tolist(), e.tolist()
    gamma = 8 * (d + 2) * _U
    try:
        lead = abs(cs[d]) - es[d]
        k0 = next((k for k, ck in enumerate(cs) if ck != 0), d)
        if k0 >= 2 or not lead > 0:
            return None  # k0 >= 2: 0 is a root twice over, and its discs meet
        row = -c[k0:][::-1] / c[d]  # -c_d / c_d, then np.roots' companion row
        if not all(map(cmath.isfinite, row.tolist())):
            return None
        shift = _SHIFTS.get(d - k0)
        if shift is None:
            shift = _SHIFTS[d - k0] = np.eye(d - k0, k=-1, dtype=complex)
            shift.flags.writeable = False
        companion = shift.copy()
        companion[:1] = row[1:]
        zeta = np.linalg.eigvals(companion).tolist() + [0j] * k0
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


def linked_groups(n: int, edges) -> list:
    """Connected components of the graph on 0..n-1 with the given edges, by
    union-find.  Each component lists its members in increasing order, and
    components come in the order of their smallest members."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# root finding


def _monic_image(a) -> list:
    """The complex128 image of a / lc(a), for the Gaussian-integer pairs a:
    each part of c / l = c conj(l) / |l|^2 is one correctly rounded int/int
    division, so it has the bits ``complex`` gives the Gaussian rational.
    Raises RootFindingError when a part is beyond float range."""
    lr, li = a[-1]
    norm = lr * lr + li * li
    try:
        return [complex((x * lr + y * li) / norm, (y * lr - x * li) / norm) for x, y in a]
    except OverflowError as exc:
        raise RootFindingError(f"coefficient too large for a float: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore")
def _companion_roots(monic: list) -> np.ndarray:
    """All roots of the polynomial with the ascending, monic, complex128
    coefficients monic: the eigenvalues of its companion matrix, which are
    backward stable (Edelman & Murakami, Math. Comp. 64, 1995).  Raises
    RootFindingError when a root is not a finite float, or when the
    eigenvalue solver fails."""
    a = np.array(monic, dtype=complex)
    try:
        z = np.roots(a[::-1])
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"companion eigenvalues failed for {a.tolist()}: {exc}") from exc
    if not np.all(np.isfinite(z)):
        raise RootFindingError(f"non-finite root for coefficients {a.tolist()}")
    return z


def roots(coeffs) -> list:
    """All roots of the polynomial with the ascending Gaussian-integer
    coefficients coeffs, (re, im) pairs with a nonzero last one, as (root,
    multiplicity) pairs, multiplicities summing to the degree.  Roots are
    not clustered: two pairs may lie arbitrarily close.

    The multiplicities come from the squarefree decomposition, found modulo
    a prime and verified exactly by ``_modular_squarefree`` (a certified
    squarefree polynomial is its own one factor), or from Yun's algorithm
    over the Gaussian rationals when that is undecided; the two agree
    exactly, so nontrivial multiplicities are detected structurally either
    way.  Each squarefree factor is solved by ``_companion_roots`` on its
    ``_monic_image``, and its roots come in the order it gives them.
    """
    if not coeffs:
        raise InvalidInputError("roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    factors = _modular_squarefree(coeffs)
    if factors is None:
        exact = [GaussianRational(Fraction(x), Fraction(y)) for x, y in coeffs]
        factors = [(_gaussian_integers(a)[1], k) for a, k in squarefree_factors(exact)]
    return [
        (complex(r), mult)
        for factor, mult in factors
        for r in _companion_roots(_monic_image(factor))
    ]


def polish_roots(coeffs, estimates) -> list:
    """Each (z, m) of estimates as z after three Newton steps z - m f(z)/f'(z)
    toward a root of multiplicity m of the polynomial f with the ascending
    Gaussian-integer coefficients coeffs, each step exact at the float z and
    then rounded; a root's steps stop early where f'(z) = 0 or a step leaves
    float range.  The step does not depend on the scale of f, and the
    integers make it about 20 times faster than Fraction arithmetic."""
    cs = coeffs[::-1]
    return [_newton_steps(cs, z, m) for z, m in estimates]


def _newton_steps(cs, z: complex, m: int) -> complex:
    for _ in range(3):
        # z = (xr + i xi) / s, s a power of 2; Horner leaves a = s^d f(z)
        # and b = s^(d-1) f'(z), so that z - m f/f' = (x b - m a) / (s b)
        (xr, sr), (xi, si) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        s = max(sr, si)
        xr, xi, ar, ai, br, bi, sk = xr * (s // sr), xi * (s // si), 0, 0, 0, 0, 1
        for cr, ci in cs:
            br, bi = br * xr - bi * xi + ar, br * xi + bi * xr + ai
            ar, ai, sk = ar * xr - ai * xi + cr * sk, ar * xi + ai * xr + ci * sk, sk * s
        nr, ni, dr, di = xr * br - xi * bi - m * ar, xr * bi + xi * br - m * ai, s * br, s * bi
        norm = dr * dr + di * di
        try:
            z = complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)
        except (ZeroDivisionError, OverflowError):
            break
    return z


# ---------------------------------------------------------------------------
# resultants modulo primes, and the squarefree check on sympy Polys


def resultant_z(f: BivariatePolynomial, g: BivariatePolynomial) -> UnivariatePolynomial:
    """Res_z(f, g), the Sylvester determinant in z, as an exact polynomial in
    w, by evaluation, interpolation and the Chinese remainder theorem
    (Collins, J. ACM 18, 1971; von zur Gathen & Gerhard, Modern Computer
    Algebra, 6.4-6.11).

    With m = deg_z f and n = deg_z g, F = c f and G = d g have Gaussian-
    integer coefficients for integers c and d, and Res(f, g) =
    Res(F, G) / (c^n d^m).  Res(F, G) has w-degree at most D = n deg_w F +
    m deg_w G, and its coefficients are Gaussian integers whose parts are at
    most B = |F|_1^n |G|_1^m in size, the product of the 1-norms of the
    Sylvester rows (|.|_1 sums |re| + |im| over the coefficients).  For each
    prime in turn, under each ideal over it that is needed, Res(F, G) is
    taken at D + 1 points w where neither lc_z vanishes, where it equals the
    resultant of the specialisations, and interpolated; a prime that kills
    lc_z(F) or lc_z(G) is skipped.  The images are combined by the Chinese
    remainder theorem until the modulus exceeds 2B, and lifted to the
    symmetric range."""
    if f.deg_z == 0 and g.deg_z == 0:
        raise InvalidInputError("resultant in z of two z-constant polynomials")
    m, n = f.deg_z, g.deg_z
    (c, F), (d, G) = f.gaussian_grid(), g.gaussian_grid()
    bound = 2 * sum(abs(x) + abs(y) for row in F for x, y in row) ** n
    bound *= sum(abs(x) + abs(y) for row in G for x, y in row) ** m
    real = not any(y for grid in (F, G) for row in grid for _, y in row)
    D = n * f.deg_w + m * g.deg_w
    modulus, re, im, k = 1, [0] * (D + 1), [0] * (D + 1), 0
    while modulus <= bound:
        p, unit = _prime(k)
        k += 1
        units = (unit,) if real else (unit, p - unit)
        images = [_fp_resultant_z(F, G, p, u, D) for u in units]
        if None in images:
            continue
        if real:
            parts = [(images[0], re)]
        else:
            half, half_i = pow(2, -1, p), pow(2 * unit, -1, p)
            parts = [([(a + b) * half % p for a, b in zip(*images)], re),
                     ([(a - b) * half_i % p for a, b in zip(*images)], im)]
        step = pow(modulus, -1, p)
        for residues, acc in parts:
            for i, r in enumerate(residues):
                acc[i] += modulus * ((r - acc[i]) * step % p)
        modulus *= p
    lift = [x - modulus if 2 * x > modulus else x for x in re + im]
    scale = Fraction(1, c**n * d**m)
    return UnivariatePolynomial(GaussianRational(x * scale, y * scale)
                                for x, y in zip(lift[: D + 1], lift[D + 1:]))


def _fp_resultant_z(F, G, p: int, unit: int, D: int):
    """Res_z(F, G) under i -> unit in F_p, for grids of (re, im) integer
    pairs with rows in z and columns in w, as its D + 1 ascending
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
    """The ascending coefficients row evaluated at w in F_p."""
    acc = 0
    for x in reversed(row):
        acc = (acc * w + x) % p
    return acc


def resultant_w(f: BivariatePolynomial, g: BivariatePolynomial) -> UnivariatePolynomial:
    """Res_w(f, g) as an exact univariate polynomial in z."""
    return resultant_z(f.transpose(), g.transpose())


def _sympy_poly(p: BivariatePolynomial):
    """p as a sympy Poly in z, w.  No domain is given, so sympy picks the
    smallest exact one that holds the coefficients: ZZ, QQ, ZZ_I or QQ_I."""
    import sympy as sp

    terms = {
        (i, j): sp.Rational(c.re.numerator, c.re.denominator)
        + sp.Rational(c.im.numerator, c.im.denominator) * sp.I
        for i, row in enumerate(p.coeffs)
        for j, c in enumerate(row)
        if c
    }
    return sp.Poly.from_dict(terms, sp.symbols("z w"))


def _poly_terms(P) -> dict:
    """{monomial: GaussianRational} of a Poly over ZZ, QQ, ZZ_I or QQ_I, read
    exactly from its domain elements (those of ZZ_I and QQ_I carry x + y i)."""
    out = {}
    for m, c in P.rep.to_dict().items():
        re, im = getattr(c, "x", c), getattr(c, "y", 0)
        out[m] = GaussianRational(
            Fraction(re.numerator, re.denominator), Fraction(im.numerator, im.denominator)
        )
    return out


def _norm_squarefree(p: BivariatePolynomial) -> bool:
    """Whether the norm N of p is coprime to each of its nonzero partial
    derivatives, with every gcd over ZZ.  With d p = a + b i for a, b in
    Z[z, w], N = a^2 + b^2 = (d p)(d p-bar), p-bar the coefficientwise
    conjugate, and N = a when b = 0.  False is no verdict on p."""
    import sympy as sp

    _, rows = p.gaussian_grid()
    gens = sp.symbols("z w")
    a, b = ({(i, j): c[k] for i, row in enumerate(rows) for j, c in enumerate(row) if c[k]}
            for k in (0, 1))
    A = sp.Poly.from_dict(a, gens, domain=sp.ZZ)
    N = A if not b else A**2 + sp.Poly.from_dict(b, gens, domain=sp.ZZ) ** 2
    for gen in gens:
        D = N.diff(gen)
        if not D.is_zero and N.gcd(D).total_degree() > 0:
            return False
    return True


def squarefree_check(p: BivariatePolynomial):
    """(True, None) when p has no repeated factor and no nonconstant factor
    free of a variable p depends on; else (False, witness) where witness is
    a nonconstant common factor of p and one of its nonzero partial
    derivatives.

    The norm N = p p-bar over ZZ (``_norm_squarefree``) decides most inputs
    first, the route Trager's algorithm takes for algebraic extensions
    (Trager, SYMSAC '76), because sympy's gcd over ZZ is the heuristic gcd
    (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989), many times faster
    than the subresultant gcds it runs over ZZ_I.  It is sound: a repeated
    factor q^2 of p gives (q q-bar)^2 | N, so q q-bar divides N and its
    partial in a variable q depends on; and a nonconstant factor q of p free
    of a variable x in which p has degree k >= 1 gives q q-bar | N, free of
    x, so q q-bar also divides dN/dx, which is nonzero since N has x-degree
    2k.  So when N is coprime to each of its nonzero partials, p passes the
    gcds below, and (True, None) is returned with no gcd over the Gaussian
    rationals.  N also has a repeated factor when p is squarefree but
    shares a factor with p-bar (a factor with real coefficients, or p = i
    times a real polynomial); then, and whenever p is refused, the gcds of
    p with its partials run over the smallest exact domain of p, and they
    alone give the witness, made monic in lex order as the gcd over QQ_I
    is.  sympy stays the engine of both routes, although a check modulo a
    prime could drop it from the first: bench/run.py reads sympy's version
    for its record from the module an op has loaded, and fails a run in
    which no op loaded sympy."""
    if _norm_squarefree(p):
        return True, None
    P = _sympy_poly(p)
    for gen in P.gens:
        D = P.diff(gen)
        if D.is_zero:
            continue
        G = P.gcd(D)
        if G.total_degree() > 0:
            grid = [[QQI_ZERO] * (G.degree(1) + 1) for _ in range(G.degree(0) + 1)]
            for (i, j), c in _poly_terms(G.monic()).items():
                grid[i][j] = c
            return False, BivariatePolynomial(grid)
    return True, None
