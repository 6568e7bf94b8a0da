"""Command-line surface.  JSON-first: every command prints one
machine-readable JSON report to stdout (CSV/PPM go to --out files).

Exit codes: 0 success, 2 invalid input, 3 resource refusal,
4 undecided / extension ambiguous.

Imports follow the command.  This module loads ``families`` alone at its
top; each handler imports the modules it calls (``dynamics``,
``bimodule``, ``ktheory``, ``correspondence``).  ``parse_polynomial_spec``
returns a family's ``CircleCorrespondence`` or a raw grid's checked
``Correspondence``; ``_correspondence`` builds a family's only for the
commands that solve on it, so kgroups, expansive and free without --sample,
which read only the family's exponents (``_family``), build no coefficient
grid, load neither the float engine (``corrdyn.floats``, the one module
that imports numpy) nor sympy, and answer in time independent of the
exponents.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (
    InvalidInputError,
    ResourceLimitError,
    RootFindingError,
    UndecidedError,
)
from .families import (
    SAMPLE_CAP,
    STEP_BITS_CAP,
    CircleCorrespondence,
    component_count,
    expansive_decide,
    free_decide,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# input parsing


def _component(v) -> Fraction:
    # a re or im component: finite number or "p/q" string
    if isinstance(v, bool):
        raise InvalidInputError("booleans are not numbers")
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a finite number: {v!r}") from exc


def _coeff(pair) -> tuple:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InvalidInputError(f"coefficient must be [re, im], got {pair!r}")
    return _component(pair[0]), _component(pair[1])


def _grid(rows):
    from .polyalg import BivariatePolynomial

    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidInputError(f"coefficient grid must be a list of rows, got {rows!r}")
    return BivariatePolynomial([[_coeff(c) for c in row] for row in rows])


def _integer(v, what: str) -> int:
    # family parameters are exact JSON integers: no floats, strings or booleans
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidInputError(f"{what} must be an integer, got {v!r}")
    return v


def _json_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise InvalidInputError(f"{what} must be a list, got {v!r}")
    return v


def _integers(v, what: str) -> list:
    return [_integer(x, f"each entry of {what}") for x in _json_list(v, what)]


def parse_polynomial_spec(obj):
    """The --poly JSON object as the family's CircleCorrespondence, or as the
    raw grid's Correspondence.  Every check of the spec's shape and values is
    made here, in the order the fields are read, and a raw grid's
    Correspondence is built and checked too."""
    if not isinstance(obj, dict):
        raise InvalidInputError("polynomial spec must be a JSON object")
    if "family" in obj:
        fam = obj["family"]
        try:
            if fam == "monomial":
                cc = CircleCorrespondence.monomial(
                    _integer(obj["m"], "m"), _integer(obj["n"], "n")
                )
            elif fam == "product":
                cc = CircleCorrespondence.power_product(
                    _integers(obj["exponents"], "exponents")
                )
            elif fam == "mixed":
                cc = CircleCorrespondence.mixed_product(
                    [_integers(pair, "pair") for pair in _json_list(obj["pairs"], "pairs")]
                )
            else:
                raise InvalidInputError(f"unknown family {fam!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed {fam!r} family spec: {exc!r}") from exc
        return cc
    if "factors" in obj:
        from .polyalg import BivariatePolynomial

        factors = [_grid(g) for g in _json_list(obj["factors"], "factors")]
        poly = BivariatePolynomial.product(factors)
    elif "coeffs" in obj:
        poly = _grid(obj["coeffs"])
    else:
        raise InvalidInputError("spec needs one of: coeffs, factors, family")
    from .correspondence import Correspondence

    return Correspondence(poly)


def _family(args):
    """The --poly spec's CircleCorrespondence, or None for a raw grid."""
    spec = parse_polynomial_spec(_load_json_arg(args.poly))
    return spec if isinstance(spec, CircleCorrespondence) else None


def _correspondence(args):
    """The --poly spec's Correspondence, a family's built here."""
    spec = parse_polynomial_spec(_load_json_arg(args.poly))
    return spec.to_correspondence() if isinstance(spec, CircleCorrespondence) else spec


def _load_json_arg(text):
    """Inline JSON or @file reference."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise InvalidInputError(f"cannot read {text[1:]}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an int of > 4300 digits
            raise InvalidInputError(f"bad JSON in {text[1:]}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad JSON argument: {exc}") from exc


def parse_point(obj):
    from .correspondence import SpherePoint

    if obj == "inf":
        return SpherePoint.infinity()
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = _component(obj[0]), _component(obj[1])
        try:
            return SpherePoint.from_complex(complex(float(re), float(im)))
        except OverflowError as exc:
            raise InvalidInputError(f"point too large for a float: {obj!r}") from exc
    raise InvalidInputError(f"point must be [re, im] or \"inf\", got {obj!r}")


def _points(text, what: str) -> list:
    """A point-set argument: a JSON list of points, inline or @file."""
    return [parse_point(p) for p in _json_list(_load_json_arg(text), what)]


def point_to_json(p):
    if p.is_infinity:
        return "inf"
    z = p.to_complex()
    return [z.real, z.imag]


def _emit(args, report: dict):
    indent = 2 if getattr(args, "pretty", False) else None
    try:  # NaN and Infinity are not JSON; stdout stays empty
        text = json.dumps(report, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidInputError(f"the report holds a non-finite number: {exc}") from exc
    # flushed so that a closed stdout raises inside main
    print(text, flush=True)


# ---------------------------------------------------------------------------
# commands


def cmd_fibers(args):
    corr = _correspondence(args)
    point = parse_point(_load_json_arg(args.point))
    if args.direction == "forward":
        fiber = corr.forward_fiber(point, args.tol)
    else:
        fiber = corr.backward_fiber(point, args.tol)
    _emit(args, {
        "command": "fibers",
        "direction": args.direction,
        "tol": args.tol,
        "base": point_to_json(point),
        "points": [
            {"point": point_to_json(z), "multiplicity": e} for z, e in fiber
        ],
        "total_multiplicity": sum(e for _, e in fiber),
    })


def cmd_branch(args):
    corr = _correspondence(args)
    restrict = None
    if args.restrict == "circle":
        restrict = "circle"
    elif args.restrict is not None:
        restrict = _points(args.restrict, "--restrict")
    sets = corr.branched_sets(restrict_to=restrict)
    _emit(args, {
        "command": "branch",
        "restrict": args.restrict,
        "branch_points": [point_to_json(p) for p in sets.branch_points],
        "branch_values": [point_to_json(p) for p in sets.branch_values],
        "cobranch_points": [point_to_json(p) for p in sets.cobranch_points],
        "cobranch_values": [point_to_json(p) for p in sets.cobranch_values],
    })


def cmd_paths(args):
    from . import dynamics

    corr = _correspondence(args)
    start = _points(args.start, "--start")
    paths = dynamics.path_space(corr, start, args.n, args.tol)
    _emit(args, {
        "command": "paths",
        "n": args.n,
        "count": len(paths),
        "paths": [
            {"points": [point_to_json(p) for p in path.points], "weight": path.weight}
            for path in paths
        ],
    })


def cmd_invariant(args):
    from . import dynamics

    corr = _correspondence(args)
    points = _points(args.set, "--set")
    ok, witness = dynamics.invariant_check(corr, points, args.tol)
    _emit(args, {
        "command": "invariant",
        "tol": args.tol,
        "invariant": ok,
        "witness": None
        if witness is None
        else {"base": point_to_json(witness[0]), "escape": point_to_json(witness[1])},
    })


def cmd_expansive(args):
    if args.max_steps < 1:
        raise InvalidInputError("--max-steps must be >= 1")
    cc = _family(args)
    if cc is None or cc.kind != "monomial":
        raise UndecidedError(
            "no expansiveness criterion for this polynomial; use the monomial family"
        )
    if args.max_steps * cc.m.bit_length() > STEP_BITS_CAP:
        raise ResourceLimitError(
            f"m^{args.max_steps} may exceed {STEP_BITS_CAP} bits; lower --max-steps"
        )
    decision = expansive_decide(cc)
    report = {
        "command": "expansive",
        "m": cc.m,
        "n": cc.n,
        "expansive": decision,
        "components": component_count(cc),
    }
    if args.oracle is not None:
        from . import dynamics

        arcs = _load_json_arg(args.oracle)
        try:
            seed_arcs = dynamics.ArcSet.from_json(arcs)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"malformed --oracle arcs: {exc!r}") from exc
        # the bits of m^r, the arc scale at step r, and of the seed arcs'
        # denominators; the oracle's steps work on integers below q m / d,
        # with q the lcm of those denominators, so this over-bounds its work
        seed_bits = max((a.denominator.bit_length() + b.denominator.bit_length()
                         for a, b in seed_arcs.arcs), default=0)
        if (cc.m**args.max_steps).bit_length() + seed_bits > STEP_BITS_CAP:
            raise ResourceLimitError(
                f"m^{args.max_steps} times the seed endpoints may exceed "
                f"{STEP_BITS_CAP} bits; lower --max-steps or the seed denominators"
            )
        covered, steps = dynamics.expansive_oracle(cc, seed_arcs, args.max_steps)
        report["oracle"] = {
            "covered": covered,
            "steps": steps,
            "max_steps": args.max_steps,
            "agrees": covered == decision,
        }
    _emit(args, report)


def cmd_free(args):
    if args.sample is not None and args.sample < 1:
        raise InvalidInputError("--sample must be >= 1")
    cc = _family(args)
    if cc is None:
        raise UndecidedError("freeness criteria apply to the circle families only")
    decision = free_decide(cc)
    if decision is None:
        raise UndecidedError("no freeness criterion covers this family")
    N = min(args.gp or 2, 3)
    if args.sample is not None and args.sample * cc.deg_w**N > SAMPLE_CAP:
        raise ResourceLimitError(
            f"{args.sample} samples * {cc.deg_w}^{N} paths exceed {SAMPLE_CAP}"
        )
    if args.gp is not None or args.sample is not None:
        from . import dynamics
    report = {"command": "free", "kind": cc.kind, "free": decision}
    if args.gp is not None:
        gp = dynamics.gp_enumerate(cc, args.gp)
        report["gp"] = {
            "N": gp.N,
            "finite": gp.finite,
            "count": len(gp.angles) if gp.finite else None,
            "angles": [[a.numerator, a.denominator] for a in gp.angles],
            "certificate": gp.certificate,
        }
    if args.sample is not None:
        rep = dynamics.gp_sample(cc.to_correspondence(), dynamics.circle_sampler,
                                 N=N, samples=args.sample, seed=args.seed)
        report["sample"] = {
            "samples": rep.samples,
            "density": rep.density,
            "heuristic": True,
        }
    _emit(args, report)


def _parse_function(obj):
    """A function spec -> a callable f(z, w) of two SpherePoints."""
    try:
        if isinstance(obj, dict) and "const" in obj:
            c = complex(*map(float, _coeff(obj["const"])))
            return lambda z, w: c
        if isinstance(obj, dict) and "zpoly" in obj:
            coeffs = [complex(*map(float, _coeff(c))) for c in _json_list(obj["zpoly"], "zpoly")]

            def fn(z, w):
                zz = z.to_complex()
                return sum(c * zz**k for k, c in enumerate(coeffs))

            return fn
    except OverflowError as exc:
        raise InvalidInputError("function coefficient too large for a float") from exc
    if isinstance(obj, dict) and "basis" in obj:
        from .bimodule import monomial_basis_element

        basis = obj["basis"]
        if not isinstance(basis, dict):
            raise InvalidInputError(f'basis must be {{"m": M, "i": I}}, got {basis!r}')
        return monomial_basis_element(
            _integer(basis.get("m"), "basis m"), _integer(basis.get("i"), "basis i")
        )
    raise InvalidInputError("function spec needs one of: const, zpoly, basis")


def cmd_inner(args):
    from . import bimodule, dynamics
    from .correspondence import unit_circle_points

    if args.grid < 1:
        raise InvalidInputError("--grid must be >= 1")
    if args.grid > dynamics.GRID_CAP:
        raise ResourceLimitError(f"--grid exceeds {dynamics.GRID_CAP} points")
    corr = _correspondence(args)
    f = _parse_function(_load_json_arg(args.f))
    g = _parse_function(_load_json_arg(args.g))
    ws = unit_circle_points(args.grid)
    values = []
    for w in ws:
        v = bimodule.inner_product(corr, f, g, w, args.tol)
        values.append({"w": point_to_json(w), "value": [v.real, v.imag]})
    _emit(args, {
        "command": "inner",
        "grid": args.grid,
        "values": values,
        "max_abs": max(abs(complex(v["value"][0], v["value"][1])) for v in values),
    })


def cmd_fock(args):
    from . import bimodule

    corr = _correspondence(args)
    points = _points(args.set, "--set")
    fb = bimodule.FiniteBimodule.build(corr, points)
    ft = bimodule.fock_build(fb, args.K)
    report = bimodule.fock_report(ft)
    report["command"] = "fock"
    report["J"] = [point_to_json(p) for p in fb.J]
    _emit(args, report)


def cmd_kgroups(args):
    from . import ktheory

    if args.table is not None:
        rows = ktheory.kgroup_table(args.table[0], args.table[1])
        # the table shares its groups: each is rendered once, by identity
        text = {id(g): g.render() for g in {id(g): g for row in rows for g in row[2:]}.values()}
        _emit(args, {
            "command": "kgroups",
            "table": [
                {"m": m, "n": n, "K0": text[id(k0)], "K1": text[id(k1)]}
                for m, n, k0, k1 in rows
            ],
        })
        return
    cc = _family(args)
    if cc is None:
        raise UndecidedError("K-group builders exist for the circle families only")
    if cc.kind == "monomial":
        inp = ktheory.monomial_family_input(cc.m, cc.n)
    elif cc.kind == "power_product":
        inp = ktheory.product_family_input(list(cc.params))
    else:
        raise UndecidedError("no K-group builder for the mixed family")
    k0, k1 = ktheory.pimsner_solve(inp)
    _emit(args, {
        "command": "kgroups",
        "family": inp.label,
        "K0": k0.render(),
        "K1": k1.render(),
    })


def cmd_render(args):
    from . import dynamics

    out = args.out
    if not out.endswith((".csv", ".ppm")):
        raise InvalidInputError("--out must end in .csv or .ppm")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise InvalidInputError(f"cannot write {out}: no such directory")
    if args.px < 1:
        raise InvalidInputError("--px must be >= 1")
    if args.px > PX_CAP:
        raise ResourceLimitError(f"--px exceeds {PX_CAP} pixels per side")
    corr = _correspondence(args)
    start = parse_point(_load_json_arg(args.start)) if args.start else None
    pts = dynamics.limit_set_sample(
        corr,
        iterations=args.iters,
        seed=args.seed,
        direction=args.direction,
        start=start,
        workers=args.workers,
    )
    try:
        if out.endswith(".csv"):
            with open(out, "w", encoding="utf-8") as fh:
                fh.write("re,im,chart\n")
                for p in pts:
                    v, inverted = p.chart_value()
                    fh.write(f"{v.real!r},{v.imag!r},{1 if inverted else 0}\n")
        else:
            _write_ppm(out, pts, args.px)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out}: {exc}") from exc
    _emit(args, {
        "command": "render",
        "points": len(pts),
        "out": out,
        "seed": args.seed,
    })


# most pixels per side of a .ppm render; its counts take 8 bytes a pixel
PX_CAP = 4096


def _write_ppm(path, pts, px):
    # density plot of the affine square [-2, 2]^2
    counts = [0] * (px * px)
    for p in pts:
        if p.is_infinity:
            continue
        z = p.to_complex()
        x = int((z.real + 2.0) / 4.0 * px)
        y = int((2.0 - z.imag) / 4.0 * px)
        if 0 <= x < px and 0 <= y < px:
            counts[y * px + x] += 1
    top = max(counts) or 1
    body = bytearray()
    for c in counts:
        level = int(255 * math.sqrt(c / top))
        body += bytes((level, level, level))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{px} {px}\n255\n".encode())
        fh.write(bytes(body))


# ---------------------------------------------------------------------------
# argument wiring: one table, from which main() builds, once per process, the
# invoked command's parser alone, and the full tree only for help and errors

REQ = {"required": True}
TOL = ("--tol", {"type": float, "default": 1e-6})

# name: (handler, help line, options as (flag, add_argument keywords))
COMMANDS = {
    "fibers": (cmd_fibers, "fiber of a point with branch indices", (
        ("--poly", REQ), ("--point", REQ),
        ("--direction", {"choices": ("forward", "backward"), "default": "backward"}), TOL)),
    "branch": (cmd_branch, "branched point/value sets", (
        ("--poly", REQ), ("--restrict", {"help": "'circle' or @file with a point list"}))),
    "paths": (cmd_paths, "forward path space from a start set", (
        ("--poly", REQ), ("--start", REQ), ("--n", {"type": int, "required": True}), TOL)),
    "invariant": (cmd_invariant, "check a finite set for invariance", (
        ("--poly", REQ), ("--set", REQ), ("--tol", {"type": float, "default": 1e-7}))),
    "expansive": (cmd_expansive, "expansiveness of a circle family", (
        ("--poly", REQ), ("--oracle", {"help": "seed arc set JSON for the oracle"}),
        ("--max-steps", {"type": int, "default": 64}))),
    "free": (cmd_free, "freeness of a circle family", (
        ("--poly", REQ), ("--gp", {"type": int, "help": "enumerate GP(N)"}),
        ("--sample", {"type": int, "help": "heuristic sampling count"}),
        ("--seed", {"type": int, "default": 0}))),
    "inner": (cmd_inner, "weighted inner product on a sample grid", (
        ("--poly", REQ), ("--f", REQ), ("--g", REQ),
        ("--grid", {"type": int, "default": 16}), TOL)),
    "fock": (cmd_fock, "truncated Fock representation report", (
        ("--poly", REQ), ("--set", REQ), ("--K", {"type": int, "required": True}))),
    "kgroups": (cmd_kgroups, "K-groups of the circle families", (
        ("--poly", {}), ("--table", {"type": int, "nargs": 2, "metavar": ("M", "N")}))),
    "render": (cmd_render, "chaos-game point cloud to CSV or PPM", (
        ("--poly", REQ), ("--iters", {"type": int, "default": 20000}),
        ("--seed", {"type": int, "default": 0}), ("--start", {}),
        ("--direction", {"choices": ("forward", "backward", "mixed"), "default": "backward"}),
        ("--workers", {"type": int, "default": 1}), ("--out", REQ),
        ("--px", {"type": int, "default": 800}))),
}


def _add_options(parser, name):
    func, _, options = COMMANDS[name]
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    parser.set_defaults(cmd=name, func=func)
    return parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 2 with the JSON error
    object on stderr, as every other refusal does; its subparsers are of
    this class too."""

    def error(self, message):
        detail = f"{self.prog}: {message}"
        self.exit(2, json.dumps({"error": "invalid-input", "detail": detail}) + "\n")


@functools.cache
def build_parser(name=None) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, or with no name the full tree."""
    if name is not None:
        return _add_options(_Parser(prog=f"corrdyn {name}"), name)
    ap = _Parser(
        prog="corrdyn",
        description="computations on algebraic correspondences of the sphere",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for command, (_, help_line, _) in COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), command)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(name).parse_args(argv[1:] if name else argv)
    try:
        if args.cmd == "kgroups" and (args.poly is None) == (args.table is None):
            raise InvalidInputError("kgroups needs --poly or --table" if args.poly is None
                                    else "kgroups takes --poly or --table, not both")
        tol = getattr(args, "tol", 0.0)
        if not (math.isfinite(tol) and tol >= 0):
            raise InvalidInputError(f"--tol must be finite and >= 0, got {tol!r}")
        args.func(args)
    except (InvalidInputError,) as exc:
        print(json.dumps({"error": "invalid-input", "detail": str(exc)}), file=sys.stderr)
        return 2
    except (ResourceLimitError,) as exc:
        print(json.dumps({"error": "resource-refusal", "detail": str(exc)}), file=sys.stderr)
        return 3
    except (UndecidedError,) as exc:
        print(json.dumps({"error": "undecided", "detail": str(exc)}), file=sys.stderr)
        return 4
    except RootFindingError as exc:
        print(json.dumps({"error": "root-finding", "detail": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader left; keep the exit flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print('{"error": "broken-pipe", "detail": "stdout was closed"}', file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
