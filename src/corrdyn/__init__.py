"""Computable algebraic correspondences on the Riemann sphere: fibers and
branch indices, circle-family dynamics, weighted Hilbert-module structure,
and K-groups of the associated algebras.

The package imports no module of its own, so ``corrdyn.cli`` loads only
what its command runs: ``families`` for a family spec, whose exponents
are all that kgroups, expansive and free read; ``correspondence`` and
``polyalg`` once a spec's ``Correspondence`` is built, lazily by the CLI's
spec object; the float engine ``floats``, and numpy with it, on the first
float solve; sympy only in the constructor's squarefree check.  Import the
modules themselves, as in ``from corrdyn.correspondence import
Correspondence``."""

__version__ = "0.1.0"
