"""Helpers shared by the test modules."""

from fractions import Fraction

import sympy as sp

from corrdyn.bimodule import SampledFunction
from corrdyn.polyalg import BivariatePolynomial, GaussianRational, UnivariatePolynomial


def constant_function(value, domain: str = "correspondence") -> SampledFunction:
    """The constant function value on the given domain."""
    if domain == "path":
        return SampledFunction(domain, lambda pts: value, label=f"const {value}")
    if domain == "base":
        return SampledFunction(domain, lambda z: value, label=f"const {value}")
    return SampledFunction(domain, lambda z, w: value, label=f"const {value}")


# An independent route to the resultants and the squarefree check: sympy
# expressions in z, w with I, re-parsed by sp.resultant and sp.gcd over the
# Gaussian rationals QQ_I whatever the coefficients are.

Z, W = sp.symbols("z w")


def _expr(p: BivariatePolynomial):
    return sum(
        (
            (sp.Rational(c.re.numerator, c.re.denominator)
             + sp.Rational(c.im.numerator, c.im.denominator) * sp.I) * Z**i * W**j
            for i, row in enumerate(p.coeffs)
            for j, c in enumerate(row)
            if c
        ),
        sp.Integer(0),
    )


def _qqi(x) -> GaussianRational:
    re, im = (sp.Rational(t) for t in x.as_real_imag())
    return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))


def reference_resultant_z(f: BivariatePolynomial, g: BivariatePolynomial):
    """Res_z(f, g) as a polynomial in w, by sp.resultant over QQ_I."""
    fe, ge = _expr(f), _expr(g)
    if g.deg_z == 0:
        r = ge**f.deg_z
    elif f.deg_z == 0:
        r = fe**g.deg_z
    else:
        r = sp.resultant(fe, ge, Z)
    r = sp.expand(r)
    if r == 0:
        return UnivariatePolynomial([])
    poly = sp.Poly(r, W, domain="QQ_I")
    return UnivariatePolynomial([_qqi(c) for c in reversed(poly.all_coeffs())])


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
                grid[i][j] = _qqi(c)
            return False, BivariatePolynomial(grid)
    return True, None
