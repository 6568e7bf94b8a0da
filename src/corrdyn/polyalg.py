"""Polynomial algebra: exact Gaussian-rational coefficients, resultants,
gcds and simultaneous root finding with multiplicity clustering.

Coefficients of bivariate polynomials are kept exact (rational real and
imaginary parts) so that resultant and squarefree computations never depend
on floating point luck.  Root finding itself is done in floating point with
an Aberth-Ehrlich style simultaneous iteration.  Multiplicities of exact
input come from an exact certificate that the polynomial is squarefree,
computed modulo a prime, and from Yun's squarefree decomposition only when
the certificate is undecided; for float input they come from single-linkage
clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, RootFindingError

__all__ = [
    "GaussianRational",
    "UnivariatePolynomial",
    "BivariatePolynomial",
    "RootCluster",
    "roots",
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
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x), Fraction(0))
        if isinstance(x, float):
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


# A prime p = 2^61 - 31 with p = 1 (mod 4), and a square root I of -1 modulo
# p.  Sending a + b*i to a + b*I (mod p) reduces Z[i] modulo the Gaussian prime
# (p, i - I); it extends to Gaussian rationals whose denominators are prime to p.
_P = 2305843009213693921
_I = 583529827753931384


def _fp_coprime(a: list, b: list) -> bool:
    """gcd(a, b) == 1 in F_p[z], by Euclid's algorithm on ascending
    coefficient lists whose leading entries are nonzero."""
    while b:
        inv = pow(b[-1], -1, _P)
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] * inv % _P
            shift = len(a) - len(b)
            for k, y in enumerate(b):
                a[shift + k] = (a[shift + k] - q * y) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _certified_squarefree(monic) -> bool:
    """True when the monic polynomial f has no repeated root, proved modulo p.

    If every coefficient reduces into F_p and gcd(f mod p, (f mod p)') = 1,
    then disc(f) reduces to the nonzero disc(f mod p), so disc(f) != 0.  False
    means undecided: f has a repeated root, or p divides disc(f) or one of
    the denominators (Brown, J. ACM 18, 1971, on lucky primes)."""
    if any(c.re.denominator % _P == 0 or c.im.denominator % _P == 0 for c in monic):
        return False
    f = [
        (
            c.re.numerator * pow(c.re.denominator, -1, _P)
            + _I * c.im.numerator * pow(c.im.denominator, -1, _P)
        ) % _P
        for c in monic
    ]
    return _fp_coprime(f, [i * c % _P for i, c in enumerate(f)][1:])


# ---------------------------------------------------------------------------
# polynomial value types


class UnivariatePolynomial:
    """Dense univariate polynomial, ascending coefficients.

    Coefficients are either all exact (GaussianRational) or plain complex.
    Trailing zero coefficients are stripped so the leading coefficient is
    nonzero unless this is the zero polynomial.
    """

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        if not cs:
            self.exact = True
            self.coeffs = ()
            return
        if all(
            isinstance(c, (GaussianRational, int, Fraction)) for c in cs
        ):
            cs = [GaussianRational.of(c) for c in cs]
            while cs and not cs[-1]:
                cs.pop()
            self.exact = True
        else:
            cs = [complex(c) for c in cs]
            while cs and cs[-1] == 0:
                cs.pop()
            self.exact = False
        self.coeffs = tuple(cs)

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

    def as_complex(self) -> np.ndarray:
        try:
            return np.array([complex(c) for c in self.coeffs], dtype=complex)
        except OverflowError as exc:
            raise RootFindingError(f"coefficient too large for a float: {exc}") from exc

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        if self.exact and other.exact:
            return self.coeffs == other.coeffs
        return np.allclose(self.as_complex(), other.as_complex())

    def __repr__(self):
        terms = [f"{c!r}*x^{i}" for i, c in enumerate(self.coeffs)]
        return " + ".join(terms) if terms else "0"


class BivariatePolynomial:
    """Polynomial p(z, w) with an exact coefficient grid c[i][j] for z^i w^j."""

    __slots__ = ("coeffs", "deg_z", "deg_w")

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

    def __call__(self, z: complex, w: complex) -> complex:
        acc = 0j
        for row in reversed(self.coeffs):
            racc = 0j
            for c in reversed(row):
                racc = racc * w + complex(c)
            acc = acc * z + racc
        return acc

    def coeff_abs_sum(self) -> float:
        return sum(abs(c) for row in self.coeffs for c in row)

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

    def partial_w(self) -> "BivariatePolynomial":
        return self.transpose().partial_z().transpose()

    def univariate_in_z(self, w0: GaussianRational) -> UnivariatePolynomial:
        """Exact coefficients of z -> p(z, w0)."""
        out = []
        for row in self.coeffs:
            acc = QQI_ZERO
            for c in reversed(row):
                acc = acc * w0 + c
            out.append(acc)
        return UnivariatePolynomial(out)

    def univariate_in_z_inverted(self, v0: GaussianRational) -> UnivariatePolynomial:
        """Exact coefficients of z -> w2^n p(z, w) at w = 1/v0 (chart near
        infinity); the common factor v0^-n is dropped."""
        n = self.deg_w
        out = []
        for row in self.coeffs:
            acc = QQI_ZERO
            for j in range(self.deg_w + 1):
                acc = acc + row[j] * _qqi_pow(v0, n - j)
            out.append(acc)
        return UnivariatePolynomial(out)

    def scalar_ratio_to(self, other: "BivariatePolynomial"):
        """Return c with self == c * other exactly, or None."""
        if (self.deg_z, self.deg_w) != (other.deg_z, other.deg_w):
            return None
        ratio = None
        for i in range(self.deg_z + 1):
            for j in range(self.deg_w + 1):
                a, b = self.coeffs[i][j], other.coeffs[i][j]
                if bool(a) != bool(b):
                    return None
                if a:
                    r = a / b
                    if ratio is None:
                        ratio = r
                    elif ratio != r:
                        return None
        return ratio

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


def _qqi_pow(x: GaussianRational, k: int) -> GaussianRational:
    acc = QQI_ONE
    for _ in range(k):
        acc = acc * x
    return acc


# ---------------------------------------------------------------------------
# root finding


@dataclass(frozen=True)
class RootCluster:
    center: complex
    multiplicity: int
    radius: float


# overflow and NaN are caught below by the convergence and residual tests
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _aberth(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """All roots of the polynomial with the given (ascending, leading nonzero)
    complex coefficients, by simultaneous Aberth-Ehrlich iteration."""
    d = len(coeffs) - 1
    if d <= 0:
        return np.empty(0, dtype=complex)
    a = coeffs / coeffs[-1]
    if not np.all(np.isfinite(a)):
        raise RootFindingError(f"monic coefficients overflow for {list(coeffs)}")
    if d == 1:
        return np.array([-a[0]])
    da = np.arange(1, d + 1) * a[1:]
    radius = 1.0 + float(np.max(np.abs(a[:-1])))
    k = np.arange(d)
    # perturbed circle start: irrational-ish angle offset and radius jitter
    z = (
        radius
        * np.exp(2j * np.pi * (k + 0.3819660112) / d)
        * (1.0 + 0.05 * (k + 1) / d)
    )
    maxcorr = np.inf
    for _ in range(200):
        p = np.polynomial.polynomial.polyval(z, a)
        dp = np.polynomial.polynomial.polyval(z, da)
        bad = np.abs(dp) == 0
        if np.any(bad):
            z = z + np.where(bad, 1e-8 * (1 + np.abs(z)), 0)
            continue
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        corr = w / denom
        z = z - corr
        maxcorr = float(np.max(np.abs(corr)))
        if maxcorr < 1e-13 * (1.0 + float(np.max(np.abs(z)))):
            break
    # written as "not <=" so that NaN from a diverged iteration fails the test
    if not maxcorr <= 0.1 * max(tol, 1e-6) * (1.0 + float(np.max(np.abs(z)))):
        # stalled (typically tight root clusters) or diverged; fall back to
        # the companion-matrix eigenvalues and keep whichever answer has the
        # smaller residual
        alt = np.roots(a[::-1])
        res_z = float(np.max(np.abs(np.polynomial.polynomial.polyval(z, a))))
        res_alt = float(np.max(np.abs(np.polynomial.polynomial.polyval(alt, a))))
        if res_alt <= res_z or not np.isfinite(res_z):
            z = alt
            res_z = res_alt
        scale = float(np.max(np.abs(a)))
        if not res_z <= 1e-5 * scale * (1.0 + float(np.max(np.abs(z)))) ** d:
            raise RootFindingError(
                f"root finding did not converge for coefficients {list(coeffs)}"
            )
    return z


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


def _cluster(points, tol: float):
    """Single-linkage clustering of (center, multiplicity) pairs at radius tol."""
    pts = sorted(points, key=lambda cm: (cm[0].real, cm[0].imag))
    n = len(pts)
    edges = (
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if abs(pts[i][0] - pts[j][0]) <= tol
    )
    clusters = []
    for group in linked_groups(n, edges):
        members = [pts[i] for i in group]
        total = sum(m for _, m in members)
        center = sum(c * m for c, m in members) / total
        radius = max((abs(c - center) for c, _ in members), default=0.0)
        clusters.append(RootCluster(center, total, radius))
    clusters.sort(key=lambda c: (c.center.real, c.center.imag))
    return clusters


def roots(f: UnivariatePolynomial, tol: float = 1e-6) -> list:
    """Root clusters of f with multiplicities summing to deg f.

    Exact-coefficient input is first tested for squarefreeness modulo a
    prime; a certified squarefree f is solved as its monic self with
    multiplicity 1.  Otherwise (a repeated root, or an unlucky prime) Yun's
    exact squarefree decomposition supplies the multiplicities, so nontrivial
    multiplicities are detected structurally either way; the clustering pass
    then only merges numerically coincident roots.
    """
    if f.is_zero:
        raise InvalidInputError("roots of the zero polynomial")
    if f.degree == 0:
        return []
    pairs = []
    if f.exact:
        monic = _xmonic(f.coeffs)
        if _certified_squarefree(monic):
            factors = [(monic, 1)]
        else:
            factors = squarefree_factors(f.coeffs)
        for factor, mult in factors:
            for r in _aberth(UnivariatePolynomial(factor).as_complex(), tol):
                pairs.append((complex(r), mult))
    else:
        for r in _aberth(f.as_complex(), tol):
            pairs.append((complex(r), 1))
    return _cluster(pairs, tol)


# ---------------------------------------------------------------------------
# resultants / gcd via sympy (exact, Gaussian-rational domain)


def _sympy_ctx():
    import sympy as sp

    return sp, sp.symbols("z w")


def _to_sympy(p: BivariatePolynomial):
    sp, (z, w) = _sympy_ctx()
    expr = sp.Integer(0)
    for i, row in enumerate(p.coeffs):
        for j, c in enumerate(row):
            if c:
                expr += (
                    sp.Rational(c.re.numerator, c.re.denominator)
                    + sp.Rational(c.im.numerator, c.im.denominator) * sp.I
                ) * z**i * w**j
    return expr


def _sympy_number_to_qqi(x) -> GaussianRational:
    import sympy as sp

    re, im = x.as_real_imag()
    return GaussianRational(
        Fraction(sp.Rational(re).p, sp.Rational(re).q),
        Fraction(sp.Rational(im).p, sp.Rational(im).q),
    )


def _sympy_univariate(expr, var) -> UnivariatePolynomial:
    import sympy as sp

    expr = sp.expand(expr)
    if expr == 0:
        return UnivariatePolynomial([])
    poly = sp.Poly(expr, var, domain="QQ_I")
    coeffs = [_sympy_number_to_qqi(c) for c in reversed(poly.all_coeffs())]
    return UnivariatePolynomial(coeffs)


def resultant_z(f: BivariatePolynomial, g: BivariatePolynomial) -> UnivariatePolynomial:
    """Res_z(f, g) as an exact univariate polynomial in w."""
    if f.deg_z == 0 and g.deg_z == 0:
        raise InvalidInputError("resultant in z of two z-constant polynomials")
    sp, (z, w) = _sympy_ctx()
    fe, ge = _to_sympy(f), _to_sympy(g)
    if g.deg_z == 0:
        return _sympy_univariate(ge**f.deg_z, w)
    if f.deg_z == 0:
        return _sympy_univariate(fe**g.deg_z, w)
    return _sympy_univariate(sp.resultant(fe, ge, z), w)


def resultant_w(f: BivariatePolynomial, g: BivariatePolynomial) -> UnivariatePolynomial:
    """Res_w(f, g) as an exact univariate polynomial in z."""
    return resultant_z(f.transpose(), g.transpose())


def squarefree_check(p: BivariatePolynomial):
    """(True, None) when p has no repeated factor; else (False, witness)
    where witness is a nonconstant common factor of p and one of its
    partial derivatives."""
    sp, (z, w) = _sympy_ctx()
    pe = _to_sympy(p)
    for var in (z, w):
        de = sp.diff(pe, var)
        if de == 0:
            continue
        g = sp.gcd(
            sp.Poly(pe, z, w, domain="QQ_I"), sp.Poly(de, z, w, domain="QQ_I")
        )
        if sp.total_degree(g.as_expr(), z, w) > 0:
            return False, _sympy_bivariate(g.as_expr())
    return True, None


def _sympy_bivariate(expr) -> BivariatePolynomial:
    sp, (z, w) = _sympy_ctx()
    poly = sp.Poly(sp.expand(expr), z, w, domain="QQ_I")
    dz = poly.degree(z)
    dw = poly.degree(w)
    grid = [[QQI_ZERO] * (dw + 1) for _ in range(dz + 1)]
    for (i, j), c in poly.terms():
        grid[i][j] = _sympy_number_to_qqi(c)
    return BivariatePolynomial(grid)
