"""Polynomial algebra: bivariate polynomials as one Gaussian-integer grid
over a least denominator, root finding with exact multiplicities, exact
resultants, and the squarefree check of a defining polynomial.

A ``BivariatePolynomial`` is its grid of d p, (re, im) pairs of Python
ints, for d the least positive integer that makes every part an integer;
each input value is read exactly as a Fraction once, and products,
transposes, float images and norms are made from the integers.  So
resultant and squarefree computations never depend on floating point luck.
Resultants take and return Gaussian integers: those grids
(``BivariatePolynomial.rows``) and the ascending coefficients of the
resultant.  Each is one exact computation on Python integers: the rows,
polynomials in w, are packed into their values at w = 2^K for K above a
bound on the coefficients (Kronecker substitution), the resultant of the
two univariate polynomials over Z[i] is taken by the subresultant
polynomial remainder sequence, whose divisions are exact (Collins, J. ACM
14, 1967; Brown & Traub, J. ACM 18, 1971), and its coefficients are read
back as balanced base-2^K digits.  The exact specialisation of a bivariate
polynomial at a float base point, and everything ``roots`` does after it,
runs on the same integers: the base point is read exactly as x / q with q a
power of 2, and each coefficient is a dot product with the powers x^j
q^(n - j).  Multiplicities come from one engine, ``squarefree_factors``:
Yun's squarefree decomposition of those integers modulo primes, combined by
the Chinese remainder theorem, rebuilt by rational reconstruction over one
denominator per factor and kept only when verified exactly in Z[i] (Brown's
lucky primes, J. ACM 18, 1971), within a bound in primes derived from the
input; neither Yun's nor Euclid's algorithm runs over the Gaussian
rationals.  Each exact squarefree factor is then solved in floating point by
one root finder, the eigenvalues of the companion matrix of its monic
complex128 image (``floats.companion_roots``, the bits of ``np.roots``),
each part of which is one correctly rounded integer division.  ``roots``
returns these roots unclustered; which of them count as one point is
decided in the chordal metric by ``correspondence``.  ``polish_roots``
refines them by Newton steps evaluated exactly, at most three and none past
a fixed point; every branched-set point is refined so.  This module does
not import numpy: the float engine, ``corrdyn.floats``, is imported by the
first root solve, and it also holds ``FloatGrid``, from which
``correspondence`` certifies a float fiber in one pass.  Whether two
Gaussian-integer polynomials are coprime (``_xcoprime``) is decided modulo
a prime first, and by their exact resultant otherwise.  sympy serves only
``squarefree_check``: univariate gcds over the integers, on sympy's dense
lists, of the norm p p-bar of a defining polynomial at w = 0, 1 or -1 and
of its coefficients, which accept almost every input, and, only when they
are inconclusive or p is refused, the gcds of p itself with its partial
derivatives over the smallest exact domain of its coefficients.  A check
modulo primes could accept without sympy, but sympy stays until
bench/run.py reads sympy's version without the import an op makes
(ROADMAP.md, item 1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInputError, RootFindingError

__all__ = [
    "BivariatePolynomial",
    "roots",
    "polish_roots",
    "resultant_z",
    "resultant_w",
    "squarefree_check",
    "linked_groups",
]


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
    algorithm; each remainder is reduced in a copy of a, and no quotient is
    built."""
    while b:
        a, nb, inv = list(a), len(b), pow(b[-1], -1, p)
        for k in range(len(a) - nb, -1, -1):
            t = a[k + nb - 1] * inv % p
            if t:
                for j, y in enumerate(b):
                    a[k + j] = (a[k + j] - t * y) % p
        a, b = b, _fp_strip(a[: nb - 1])
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
    increasing multiplicity."""
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


def _rational(u: int, m: int):
    """(n, d), d > 0, with |n|, |d| <= sqrt(m/2) and n = u d (mod m), by the
    extended Euclidean algorithm (Wang, SYMSAC 1981); None when there is
    none."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _zi_strip(pairs) -> list:
    """The (re, im) pairs without the zero pairs at the end, as a list."""
    out = list(pairs)
    while out and out[-1] == (0, 0):
        out.pop()
    return out


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
    first scaled by |l|^2, which makes it x conj(l).  Zero leading pairs of
    a are dropped first, so a quotient has a nonzero leading pair, and a = 0
    gives []."""
    lr, li = b[-1]
    norm, nb = lr * lr + li * li, len(b)
    a = _zi_strip(a)
    q = [(0, 0)] * max(0, len(a) - nb + 1)
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


def _crt(acc, modulus: int, images, p: int, unit: int) -> int:
    """Fold one prime's images into the Chinese-remainder accumulators acc =
    (re, im), lists of residues modulo modulus, in place, and return the
    new modulus, modulus p.  images are the residues of Gaussian integers
    x + y i under i -> unit and, for non-real input, under i -> p - unit:
    x is their half-sum and y their half-difference over unit.  Real input
    gives one list, of the x, and leaves im as it is."""
    if len(images) == 1:
        parts = [(images[0], acc[0])]
    else:
        half, half_i = pow(2, -1, p), pow(2 * unit, -1, p)
        parts = [([(a + b) * half % p for a, b in zip(*images)], acc[0]),
                 ([(a - b) * half_i % p for a, b in zip(*images)], acc[1])]
    step = pow(modulus, -1, p)
    for residues, out in parts:
        for i, r in enumerate(residues):
            out[i] += modulus * ((r - out[i]) * step % p)
    return modulus * p


def _fp_splits(coeffs, p: int, units):
    """Yun's splits of the monic images modulo p of the Gaussian-integer
    polynomial coeffs, one per i -> u of units; [] when the image under the
    first keeps its degree and is squarefree; None when the leading
    coefficient vanishes under some unit."""
    images = []
    for unit in units:
        image = [(x + unit * y) % p for x, y in coeffs]
        if not image[-1]:
            return None
        if not images and _fp_squarefree(image, p):
            return []
        inv = pow(image[-1], -1, p)
        images.append([c * inv % p for c in image])
    return [_fp_yun(image, p) for image in images]


def _prime_limit(coeffs) -> int:
    """(U + 1) R of ``squarefree_factors``, from the bit lengths of
    L = |lc(f)|^2 and S = sum |f_j|^2, each at least the log2 it stands
    for."""
    n, (lr, li) = len(coeffs) - 1, coeffs[-1]
    lead = (lr * lr + li * li).bit_length()
    size = sum(x * x + y * y for x, y in coeffs).bit_length()
    rounds = (1 + 2 * n + size + lead) // 60 + 1
    unlucky = (lead + 2 * n * n.bit_length() + (2 * n - 1) * (2 * n + size)) // 60
    return (unlucky + 1) * rounds


def _rebuilt(coeffs, acc, modulus: int, shape, p: int, unit: int):
    """The factors [(a_k, k), ...] of shape whose coefficients' parts are
    rebuilt from acc modulo modulus, each factor over one denominator D_k,
    its leading coefficient; kept only when prod a_k^k lc(f) = prod D_k^k f
    holds exactly in Z[i] for f = coeffs and, under i -> unit in F_p, every
    D_k survives and prod (a_k mod p) is squarefree; else None."""
    factors, start, scale, product, image = [], 0, 1, [(1, 0)], [1]
    for size, k in shape:
        parts = []
        for j in range(start, start + size):
            re = _rational(acc[0][j], modulus)
            im = _rational(acc[1][j], modulus) if acc[1][j] else (0, 1)
            if re is None or im is None:
                return None
            parts.append((re, im))
        start += size
        d = math.lcm(*(den for c in parts for _, den in c))
        a = [(nr * (d // dr), ni * (d // di)) for (nr, dr), (ni, di) in parts]
        factor = [(x + unit * y) % p for x, y in a]
        if not factor[-1]:
            return None
        factors.append((a, k))
        image = _fp_mul(image, factor, p)
        for _ in range(k):
            product = _zi_mul(product, a)
        scale *= d**k
    lr, li = coeffs[-1]
    if ([(x * lr - y * li, x * li + y * lr) for x, y in product]
            != [(x * scale, y * scale) for x, y in coeffs]):
        return None
    return factors if _fp_squarefree(image, p) else None


def squarefree_factors(coeffs):
    """The squarefree decomposition of the polynomial f with the ascending
    Gaussian-integer coefficients coeffs, (re, im) pairs with a nonzero last
    one, n = deg f >= 1: [(a_k, k), ...] in increasing k, with Gaussian-
    integer a_k whose monic forms g_k = a_k / lc(a_k) are nonconstant,
    squarefree and pairwise coprime, and f = lc(f) prod g_k^k; a squarefree
    f is its own one factor, [(coeffs, 1)].  Raises RootFindingError past
    the bound in primes below, which the primes of ``_prime`` never reach.

    The primes p = _prime(0), _prime(1), ... are tried in turn; reduction
    modulo the Gaussian prime (p, i - I) sends x + y i to x + y I mod p, and
    a prime under which lc(f) vanishes is skipped.  When f mod p is
    squarefree, disc(f) is nonzero modulo the prime, so f is squarefree
    (Brown, J. ACM 18, 1971, on lucky primes).  Otherwise Yun's algorithm
    runs on the monic image, under both ideals over p for non-real f, and a
    prime whose two splits differ in shape (degrees and multiplicities) is
    skipped.  The parts of the monic factors' coefficients are combined over
    the primes by the Chinese remainder theorem (``_crt``), restarting
    whenever the shape differs from that of the primes before, and after
    each prime they are rebuilt against the product M of the primes by
    rational reconstruction (Wang, SYMSAC 1981; Monagan, ISSAC 2004).  Each
    factor is brought to one denominator D_k = lc(a_k), and the result is
    kept only when prod a_k^k lc(f) = prod D_k^k f exactly in Z[i], that is,
    f = lc(f) prod (a_k / D_k)^k, and at the current prime every D_k
    survives and prod (a_k mod p) is squarefree.  Then a repeated factor of
    some a_k, or a common factor of a_j and a_k, would give a primitive h in
    Z[i][z] dividing it (Gauss's lemma), whose image keeps its degree, as
    that of a_k does, and divides the squarefree image twice.  So the g_k are
    squarefree and pairwise coprime, and as the squarefree decomposition is
    unique, they are its factors.

    The bound.  Let L = |lc(f)|^2 and S = sum |f_j|^2.  Each g_k is
    h / lc(h) for a primitive h in Z[i][z] dividing f, so lc(h) | lc(f), and
    by the Landau-Mignotte bound |h_j| <= C(e, j) M(h) <= 2^n |lc(h)|
    sqrt(S) / |lc(f)|, for M the Mahler measure, e = deg h and M(f) <=
    sqrt(S).  Each part of a coefficient h_j conj(lc(h)) / |lc(h)|^2 of g_k
    is thus a fraction whose denominator divides L and whose numerator is at
    most B = 2^n sqrt(S L) >= L in size.  Wang's condition M > 2 B^2 then
    holds after R = floor(log2(2 B^2) / 60) + 1 lucky primes, each above
    2^60: primes under which lc(f) survives and the images of the g_k stay
    squarefree and pairwise coprime, so that Yun's split modulo p is the
    image of the true one, with its shape.  A prime is unlucky only if it
    divides L or N(Res(h, h')) for h the primitive squarefree part of f,
    and by Hadamard's inequality |Res(h, h')| <= e^e |h|_2^(2e - 1), with
    |h|_2 <= 2^n sqrt(S) as above; so at most U = floor(log2(L n^(2n)
    (4^n S)^(2n - 1)) / 60) primes are unlucky.  They cut the sequence into
    at most U + 1 runs of lucky primes, and a run restarts nothing after
    its first prime.  Among the first (U + 1) R primes, at least
    (U + 1)(R - 1) + 1 are lucky, so some run holds R of them, and the
    result is kept at the last.  ``_prime_limit`` computes this bound, only
    when the first prime does not decide."""
    real = not any(y for _, y in coeffs)
    shape, k, limit = None, 0, None
    while True:
        if k == 1:
            limit = _prime_limit(coeffs)
        if k == limit:
            raise RootFindingError(f"squarefree split of a degree-{len(coeffs) - 1} "
                                   f"polynomial undecided after {k} primes")
        p, unit = _prime(k)
        k += 1
        splits = _fp_splits(coeffs, p, (unit,) if real else (unit, p - unit))
        if splits == []:
            return [(coeffs, 1)]
        if splits is None:
            continue
        shapes = [[(len(a), m) for a, m in split] for split in splits]
        if shapes[-1] != shapes[0]:
            continue
        if shapes[0] != shape:
            shape, modulus, width = shapes[0], 1, sum(size for size, _ in shapes[0])
            acc = ([0] * width, [0] * width)
        modulus = _crt(acc, modulus, [[c for a, _ in split for c in a] for split in splits],
                       p, unit)
        factors = _rebuilt(coeffs, acc, modulus, shape, p, unit)
        if factors is not None:
            return factors


def _xcoprime(a, b) -> bool:
    """Whether gcd(a, b) = 1 for polynomials a != 0 and b over the Gaussian
    integers, ascending (re, im) pairs with a nonzero last pair, [] for
    b = 0.  Decided modulo the Gaussian prime (p, i - I), p = _P, when it
    keeps both leading coefficients: a primitive gcd g over Z[i] then
    divides a with the leading coefficient of its image kept, so g mod p
    divides gcd(a mod p, b mod p) with the degree of g, and gcd 1 modulo p
    proves gcd 1 (Brown, J. ACM 18, 1971).  Otherwise, or when the gcd
    modulo p is not 1, by the degrees when a or b is constant (gcd(a, 0) =
    a), and else by the exact resultant: Res(a, b) != 0 exactly when
    gcd(a, b) = 1 (``resultant_z`` of a and b as grids constant in w)."""
    if b:
        images = [[(x + _I * y) % _P for x, y in f] for f in (a, b)]
        if images[0][-1] and images[1][-1] and len(_fp_gcd(*images, _P)) == 1:
            return True
    if len(a) == 1 or len(b) == 1:
        return True  # a nonzero constant
    if not b:
        return False  # gcd(a, 0) = a, of positive degree
    return bool(resultant_z([[c] for c in a], [[c] for c in b]))


# ---------------------------------------------------------------------------
# polynomial value types


def _exact(c):
    """The number or (re, im) pair c as two exact rationals, each an int or a
    Fraction: a float keeps its binary value, and an int or a Fraction part,
    such as the CLI parses, is kept as it is."""
    if isinstance(c, (int, Fraction, float)):
        re, im = c, 0
    elif isinstance(c, complex):
        re, im = c.real, c.imag
    elif isinstance(c, (tuple, list)) and len(c) == 2:
        re, im = c
    else:
        raise InvalidInputError(f"cannot interpret {c!r} as a Gaussian rational")
    return (re if isinstance(re, (int, Fraction)) else Fraction(re),
            im if isinstance(im, (int, Fraction)) else Fraction(im))


def _ratio(x: int, d: int) -> str:
    """x / d in lowest terms, as ``str(Fraction(x, d))`` prints it."""
    g = math.gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


class BivariatePolynomial:
    """Polynomial p(z, w) = sum c[i][j] z^i w^j with Gaussian-rational
    coefficients, stored as one Gaussian-integer grid over a least
    denominator: ``rows[i][j]`` is the (re, im) pair of integers of d c[i][j]
    for d = ``denominator``, the least positive integer that makes every part
    an integer.  The grid has deg_z + 1 rows of deg_w + 1 pairs, a nonzero
    last row and a nonzero last column, so (d, rows) is unique and equality
    is equality of values.  The constructor takes a grid of numbers and
    (re, im) pairs, ragged or with zero rows and columns at the end, reads
    each value exactly as a Fraction once and scales it by the lcm of the
    denominators; an int or a Fraction is not read again."""

    __slots__ = ("denominator", "rows", "deg_z", "deg_w")

    def __init__(self, grid: Sequence[Sequence]):
        values = [[_exact(c) for c in row] for row in grid]
        d = math.lcm(*(x.denominator for row in values for c in row for x in c))
        self._set(d, [[(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))
                       for re, im in row] for row in values])

    @classmethod
    def _of(cls, d: int, rows) -> "BivariatePolynomial":
        """The polynomial with the Gaussian-integer grid rows over d."""
        p = cls.__new__(cls)
        p._set(d, rows)
        return p

    def _set(self, d: int, rows) -> None:
        # trim the zero rows and columns at the end, pad the rest, and divide
        # out gcd(d, every part), which makes d least
        nonzero = [(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c != (0, 0)]
        if not nonzero:
            raise InvalidInputError("zero bivariate polynomial")
        height, width = (1 + max(k) for k in zip(*nonzero))
        g = math.gcd(d, *(x for row in rows for c in row for x in c))
        self.denominator = d // g
        self.rows = tuple(
            tuple((x // g, y // g) for x, y in row[:width]) + ((0, 0),) * (width - len(row))
            for row in rows[:height])
        self.deg_z, self.deg_w = height - 1, width - 1

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial_relation(m: int, n: int) -> "BivariatePolynomial":
        """z^m - w^n."""
        if m < 1 or n < 1:
            raise InvalidInputError("exponents must be >= 1")
        rows = [[(0, 0)] * (n + 1) for _ in range(m + 1)]
        rows[m][0], rows[0][n] = (1, 0), (-1, 0)
        return BivariatePolynomial._of(1, rows)

    @staticmethod
    def graph_of_power(m: int) -> "BivariatePolynomial":
        """w - z^m."""
        if m < 1:
            raise InvalidInputError("exponent must be >= 1")
        rows = [[(0, 0)] * 2 for _ in range(m + 1)]
        rows[0][1], rows[m][0] = (1, 0), (-1, 0)
        return BivariatePolynomial._of(1, rows)

    @staticmethod
    def product(factors: Sequence["BivariatePolynomial"]) -> "BivariatePolynomial":
        """The product of the factors, from their integer grids: the
        denominators multiply, and ``_of`` makes the product's least."""
        factors = list(factors)
        if not factors:
            raise InvalidInputError("empty factor list")
        d, rows = factors[0].denominator, factors[0].rows
        for f in factors[1:]:
            out = [[(0, 0)] * (len(rows[0]) + f.deg_w) for _ in range(len(rows) + f.deg_z)]
            for i, row in enumerate(rows):
                for j, (ar, ai) in enumerate(row):
                    if ar or ai:
                        for k, frow in enumerate(f.rows, i):
                            for l, (br, bi) in enumerate(frow, j):
                                xr, xi = out[k][l]
                                out[k][l] = (xr + ar * br - ai * bi, xi + ar * bi + ai * br)
            d, rows = d * f.denominator, out
        return BivariatePolynomial._of(d, rows)

    # -- basic queries ------------------------------------------------------

    def transpose(self) -> "BivariatePolynomial":
        """p with z and w exchanged: the transposed rows over the same
        denominator, already trimmed and least, so ``_set`` is not run."""
        p = BivariatePolynomial.__new__(BivariatePolynomial)
        p.denominator, p.rows = self.denominator, tuple(zip(*self.rows))
        p.deg_z, p.deg_w = self.deg_w, self.deg_z
        return p

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
        coeffs = []
        for row in self.rows:
            re = im = 0
            for (cr, ci), (wr, wi) in zip(row, powers):
                re += cr * wr - ci * wi
                im += cr * wi + ci * wr
            coeffs.append((re, im))
        while coeffs and coeffs[-1] == (0, 0):
            coeffs.pop()
        return self.denominator * q**n, coeffs

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return (self.denominator, self.rows) == (other.denominator, other.rows)

    def __repr__(self):
        d = self.denominator
        return " + ".join(
            f"({_ratio(x, d)}{'+' if y >= 0 else ''}{_ratio(y, d)}i)*z^{i}*w^{j}"
            for i, row in enumerate(self.rows) for j, (x, y) in enumerate(row) if x or y)


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


def _companion_roots(monic: list) -> list:
    """``floats.companion_roots(monic)``.  The first call imports the float
    engine, and with it numpy, and binds this name to that function, so no
    later root solve runs an import."""
    global _companion_roots
    from .floats import companion_roots as _companion_roots

    return _companion_roots(monic)


def roots(coeffs) -> list:
    """All roots of the polynomial with the ascending Gaussian-integer
    coefficients coeffs, (re, im) pairs with a nonzero last one, as (root,
    multiplicity) pairs, multiplicities summing to the degree.  Roots are
    not clustered: two pairs may lie arbitrarily close.

    With k the number of exactly zero low-order coefficients, f = z^k g with
    g(0) != 0, so 0 is a root of multiplicity k.  Only a nonconstant g is
    split, by ``squarefree_factors`` (modulo primes, verified exactly, with
    RootFindingError past its bound in primes), and each factor is solved by
    ``_companion_roots`` on its ``_monic_image``.  The pairs are those of
    splitting f, bit for bit and in order: f's factor of multiplicity k is
    z h for g's factor h of that multiplicity (or z), the others are g's,
    and ``floats._companion_eigenvalues`` solves the monic image of z h, h's
    shifted up one place, as h's, with 0j last.
    """
    if not coeffs:
        raise InvalidInputError("roots of the zero polynomial")
    k = next(j for j, (x, y) in enumerate(coeffs) if x or y)
    split = squarefree_factors(coeffs[k:]) if len(coeffs) - k > 1 else []
    pairs = [(r, mult) for factor, mult in split for r in _companion_roots(_monic_image(factor))]
    if k:
        pairs.insert(sum(mult <= k for _, mult in pairs), (0j, k))
    return pairs


def polish_roots(coeffs, estimates) -> list:
    """Each (z, m) of estimates as z after three Newton steps z - m f(z)/f'(z)
    toward a root of multiplicity m of the polynomial f with the ascending
    Gaussian-integer coefficients coeffs, each step exact at the float z and
    then rounded; a root's steps stop early where f'(z) = 0, where a step
    leaves float range, and where a step gives back the z it started from,
    which every later step would give again.  The step does not depend on
    the scale of f, and the integers make it about 20 times faster than
    Fraction arithmetic."""
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
            step = complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)
        except (ZeroDivisionError, OverflowError):
            break
        # a step reads only the value of z (as_integer_ratio reads -0.0 as
        # 0.0), so from a fixed point every later step gives these bits
        if step == z:
            return step
        z = step
    return z


# ---------------------------------------------------------------------------
# resultants by one subresultant sequence at a Kronecker point, and the
# squarefree check from images of the norm


def resultant_z(F, G) -> list:
    """Res_z(F, G), the Sylvester determinant in z, as its ascending
    w-coefficients, (re, im) integer pairs with trailing zeros stripped, for
    grids F and G of Gaussian-integer (re, im) pairs, rows in z and columns
    in w, each with a nonzero last row (``BivariatePolynomial.rows``, the grid
    of a polynomial over its least denominator).

    With m = deg_z F and n = deg_z G, the parts of the coefficients of
    Res(F, G) are at most B = |F|_1^n |G|_1^m in size (|.|_1 sums |re| + |im|
    over a grid).  Each row is packed into its value at w = 2^K, K =
    (2B).bit_length() + 1 (Kronecker substitution; von zur Gathen & Gerhard,
    Modern Computer Algebra, 8.4), and ``_zi_resultant`` of the packed
    polynomials over Z[i] is Res(F, G) at 2^K.  For m = 0 or n = 0 it is a
    power of the constant (1 for both), and evaluation is a ring
    homomorphism.  Otherwise B >= |F|_1, so by Cauchy's root bound every
    root w of lc_z(F) has |w| <= 1 + |F|_1 < 2^K and lc_z(F)(2^K) != 0;
    likewise for G, so the resultant commutes with the substitution.  As
    B < 2^(K - 1), each part of each coefficient is the balanced base-2^K
    digit of that part of the value, uniquely (``_digits``)."""
    f1, g1 = (sum(abs(x) + abs(y) for row in grid for x, y in row) for grid in (F, G))
    K = (2 * f1 ** (len(G) - 1) * g1 ** (len(F) - 1)).bit_length() + 1
    packed = ([(sum(x << K * j for j, (x, _) in enumerate(row)),
                sum(y << K * j for j, (_, y) in enumerate(row))) for row in grid]
              for grid in (F, G))
    return _digits(*_zi_resultant(*packed), K)


def _digits(x: int, y: int, K: int) -> list:
    """The balanced base-2^K digits of x and y, each in [-2^(K-1), 2^(K-1)),
    as ascending (re, im) pairs, with a nonzero last pair."""
    out, half, mask = [], 1 << (K - 1), (1 << K) - 1
    while x or y:
        out.append((((x + half) & mask) - half, ((y + half) & mask) - half))
        x, y = (x + half) >> K, (y + half) >> K
    return out


def _gi_pow(a, e: int, out=(1, 0)):
    """out a^e for Gaussian integers, (re, im) pairs of ints."""
    (ar, ai), (x, y) = a, out
    for _ in range(e):
        x, y = x * ar - y * ai, x * ai + y * ar
    return x, y


def _gi_div(a, b):
    """a / b for Gaussian integers b | a; a remainder raises
    RootFindingError, since every division of ``_zi_resultant`` is exact."""
    (ar, ai), (br, bi) = a, b
    if bi:
        ar, ai, br = ar * br + ai * bi, ai * br - ar * bi, br * br + bi * bi
    (x, r), (y, s) = divmod(ar, br), divmod(ai, br)
    if r or s:
        raise RootFindingError("inexact division in the subresultant sequence")
    return x, y


def _zi_resultant(a: list, b: list):
    """Res(a, b) as an (re, im) pair, for polynomials over Z[i] given as
    ascending (re, im) pairs with nonzero last pairs, by
    the subresultant PRS with contents 1 (Collins, J. ACM 14, 1967; Brown &
    Traub, J. ACM 18, 1971; Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 3.3.7): deg a >= deg b after a swap, and each step
    takes (a, b) to (b, prem(a, b) / (g h^delta)), g = lc(b) and h = g^delta
    / h^(delta - 1), delta = deg a - deg b; at a constant b, Res = s b^(deg
    a) / h^(deg a - 1).  Each division is exact by the subresultant theorem."""
    s = 1
    if len(a) < len(b):
        a, b = b, a
        s = (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = (1, 0)
    while len(b) > 1:
        delta, (lr, li), nb = len(a) - len(b), b[-1], len(b) - 1
        if (len(a) - 1) * nb % 2:
            s = -s
        for k in range(len(a) - 1, nb - 1, -1):  # a = lc(b)^(delta + 1) a mod b
            tr, ti = a[k]
            a = [(x * lr - y * li, x * li + y * lr) for x, y in a[:k]]
            for j, (br, bi) in enumerate(b[:-1], k - nb):
                x, y = a[j]
                a[j] = (x - tr * br + ti * bi, y - tr * bi - ti * br)
        a = _zi_strip(a)
        if not a:
            return 0, 0
        scale = _gi_pow(h, delta, g)
        a, b, g = b, [_gi_div(c, scale) for c in a], b[-1]
        if delta:
            h = _gi_div(_gi_pow(g, delta), _gi_pow(h, delta - 1))
    x, y = _gi_div(_gi_pow(b[0], len(a) - 1), _gi_pow(h, len(a) - 2))
    return s * x, s * y


def resultant_w(F, G) -> list:
    """Res_w(F, G) as its ascending z-coefficients: ``resultant_z`` of the
    transposed grids, for rectangular grids with a nonzero last column."""
    return resultant_z(list(zip(*F)), list(zip(*G)))


def _sympy_poly(p: BivariatePolynomial):
    """p as a sympy Poly in z, w.  No domain is given, so sympy picks the
    smallest exact one that holds the coefficients: ZZ, QQ, ZZ_I or QQ_I."""
    import sympy as sp

    d = p.denominator
    terms = {
        (i, j): sp.Rational(x, d) + sp.Rational(y, d) * sp.I
        for i, row in enumerate(p.rows)
        for j, (x, y) in enumerate(row)
        if x or y
    }
    return sp.Poly.from_dict(terms, sp.symbols("z w"))


def _poly_terms(P) -> dict:
    """{monomial: (re, im)} of a Poly over ZZ, QQ, ZZ_I or QQ_I, each part a
    Fraction read exactly from its domain elements (those of ZZ_I and QQ_I
    carry x + y i)."""
    out = {}
    for m, c in P.rep.to_dict().items():
        re, im = getattr(c, "x", c), getattr(c, "y", 0)
        out[m] = Fraction(re.numerator, re.denominator), Fraction(im.numerator, im.denominator)
    return out


def _norm_grid(p: BivariatePolynomial) -> list:
    """The norm N = a^2 + b^2 of d p = a + b i, a, b in Z[z, w], as rows of
    Python ints (rows in z, columns in w): N = (d p)(d p-bar), p-bar the
    coefficientwise conjugate, and N = a when b = 0."""
    rows = p.rows
    if not any(y for row in rows for _, y in row):
        return [[x for x, _ in row] for row in rows]
    terms = [(i, j, x, y) for i, row in enumerate(rows) for j, (x, y) in enumerate(row) if x or y]
    out = [[0] * (2 * p.deg_w + 1) for _ in range(2 * p.deg_z + 1)]
    for i, j, x, y in terms:
        for k, l, u, v in terms:
            out[i + k][j + l] += x * u + y * v
    return out


def _image_squarefree(p: BivariatePolynomial) -> bool:
    """Whether the norm N of p (``_norm_grid``) has constant z- and
    w-contents and, at some w0 in (0, 1, -1) that keeps lc_z(N), a
    squarefree image N(z, w0); every gcd is one over ZZ in one variable,
    on sympy's dense lists.  False is no verdict on p."""
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd
    from sympy.polys.sqfreetools import dup_sqf_p

    N = _norm_grid(p)
    images = ([row[0] for row in N], [sum(row) for row in N],
              [sum(row[::2]) - sum(row[1::2]) for row in N])
    if not any(image[-1] and dup_sqf_p(image[::-1], ZZ) for image in images):
        return False
    for lines in (N, zip(*N)):  # the z-coefficients, then the w-coefficients
        g = []
        for line in lines:
            g = dup_gcd(g, dup_strip(list(line[::-1])), ZZ)
            if len(g) == 1:
                break
        else:
            return False
    return True


def squarefree_check(p: BivariatePolynomial):
    """(True, None, None) when p has no repeated factor and no nonconstant
    factor free of a variable p depends on; else (False, witness, what),
    where witness G = gcd(p, dp/dx) is nonconstant for the first variable x
    in (z, w) whose partial is nonzero and gives one, and what names it:
    "repeated factor" when deg_x G >= 1, "factor free of x" otherwise.

    p is accepted first from univariate images of its norm N over ZZ
    (``_norm_grid``: (d p)(d p-bar), or d p itself when p is real), by
    Brown's argument from one lucky specialisation (J. ACM 18, 1971), in
    ``_image_squarefree``.  A nonconstant factor q of p over Q(i) gives the
    factor r = q q-bar of N (r = q when p is real), with q's degrees, and
    r^2 | N when q^2 | p.  If q^2 | p and deg_z q >= 1, then, as
    lc_z(N)(w0) != 0, the image of r at w0 keeps its positive z-degree and
    its square divides N(z, w0), which is then not squarefree.  If
    deg_z q = 0, r divides every z-coefficient of N, so the z-content of N
    is not constant; a factor free of w divides the w-content so.  gcds and
    squarefreeness in one variable are the same over Q as over Q(i).  So
    when both contents are constant and some image is squarefree, p has
    neither kind of factor, and (True, None, None) is returned with no
    bivariate gcd; sympy's gcd over ZZ is the heuristic gcd (Char, Geddes &
    Gonnet, J. Symbolic Comput. 7, 1989).  The images fail when N has a
    repeated factor although p is squarefree (p shares a factor with p-bar:
    a factor with real coefficients, or p = i times a real polynomial), or
    when all three points are unlucky; then, and whenever p is refused, the
    gcds of p with its partials run on sympy Polys over the smallest exact
    domain of p, and they alone give the verdict and the witness, made monic
    in lex order as the gcd over QQ_I is.  sympy stays the engine of both
    routes until bench/run.py reads sympy's version without the import an op
    makes (ROADMAP.md, item 1): it fails a run in which no op loaded sympy,
    and this check is the only code of corrdyn that loads it."""
    if _image_squarefree(p):
        return True, None, None
    P = _sympy_poly(p)
    for gen in P.gens:
        D = P.diff(gen)
        if D.is_zero:
            continue
        G = P.gcd(D)
        if G.total_degree() > 0:
            grid = [[0] * (G.degree(1) + 1) for _ in range(G.degree(0) + 1)]
            for (i, j), c in _poly_terms(G.monic()).items():
                grid[i][j] = c
            what = "repeated factor" if G.degree(gen) else f"factor free of {gen}"
            return False, BivariatePolynomial(grid), what
    return True, None, None
