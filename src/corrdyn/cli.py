"""Command-line surface.  JSON-first: every command prints one
machine-readable JSON report to stdout (CSV/PPM go to --out files).

Exit codes: 0 success, 2 invalid input, 3 resource refusal,
4 undecided / extension ambiguous.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import bimodule, dynamics, ktheory
from .correspondence import Correspondence, SpherePoint, unit_circle_points
from .dynamics import ArcSet, CircleCorrespondence
from .errors import (
    InvalidInputError,
    ResourceLimitError,
    RootFindingError,
    UndecidedError,
)
from .polyalg import BivariatePolynomial, GaussianRational

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


def _coeff(pair):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise InvalidInputError(f"coefficient must be [re, im], got {pair!r}")
    return GaussianRational.of((_component(pair[0]), _component(pair[1])))


def _grid(rows) -> BivariatePolynomial:
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
    """PolynomialSpec JSON -> (Correspondence, circle_family_or_None)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
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
        return cc.to_correspondence(), cc
    if "factors" in obj:
        factors = [_grid(g) for g in obj["factors"]]
        return (
            Correspondence(BivariatePolynomial.product(factors), factors=factors),
            None,
        )
    if "coeffs" in obj:
        return Correspondence(_grid(obj["coeffs"])), None
    raise InvalidInputError("spec needs one of: coeffs, factors, family")


def _load_json_arg(text):
    """Inline JSON or @file reference."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise InvalidInputError(f"cannot read {text[1:]}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad JSON in {text[1:]}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON argument: {exc}") from exc


def parse_point(obj) -> SpherePoint:
    if obj == "inf":
        return SpherePoint.infinity()
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = _component(obj[0]), _component(obj[1])
        try:
            return SpherePoint.from_complex(complex(float(re), float(im)))
        except OverflowError as exc:
            raise InvalidInputError(f"point too large for a float: {obj!r}") from exc
    raise InvalidInputError(f"point must be [re, im] or \"inf\", got {obj!r}")


def point_to_json(p: SpherePoint):
    if p.is_infinity:
        return "inf"
    z = p.to_complex()
    return [z.real, z.imag]


def _emit(args, report: dict):
    if getattr(args, "timing", False):
        report["wall_time_s"] = time.monotonic() - args._t0
    indent = 2 if getattr(args, "pretty", False) else None
    print(json.dumps(report, indent=indent, sort_keys=True))


def _seed(args) -> int:
    env = os.environ.get("CORRDYN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInputError(f"bad CORRDYN_SEED: {env!r}") from exc
    return args.seed


# ---------------------------------------------------------------------------
# commands


def cmd_fibers(args):
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
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
            {"point": point_to_json(z), "multiplicity": e} for z, e in fiber.points
        ],
        "total_multiplicity": fiber.total_multiplicity,
    })


def cmd_branch(args):
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
    restrict = None
    if args.restrict == "circle":
        restrict = "circle"
    elif args.restrict is not None:
        restrict = [parse_point(p) for p in _load_json_arg(args.restrict)]
    sets = corr.branched_sets(restrict_to=restrict, tol=args.tol)
    _emit(args, {
        "command": "branch",
        "tol": args.tol,
        "restrict": args.restrict,
        "branch_points": [point_to_json(p) for p in sets.branch_points],
        "branch_values": [point_to_json(p) for p in sets.branch_values],
        "cobranch_points": [point_to_json(p) for p in sets.cobranch_points],
        "cobranch_values": [point_to_json(p) for p in sets.cobranch_values],
    })


def cmd_paths(args):
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
    start = [parse_point(p) for p in _load_json_arg(args.start)]
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
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
    points = [parse_point(p) for p in _load_json_arg(args.set)]
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
    _, cc = parse_polynomial_spec(_load_json_arg(args.poly))
    if cc is None or cc.kind != "monomial":
        raise UndecidedError(
            "no expansiveness criterion for this polynomial; use the monomial family"
        )
    decision = dynamics.expansive_decide(cc)
    report = {
        "command": "expansive",
        "m": cc.m,
        "n": cc.n,
        "expansive": decision,
        "components": dynamics.component_count(cc),
    }
    if args.oracle is not None:
        arcs = _load_json_arg(args.oracle)
        try:
            seed_arcs = ArcSet.from_json(arcs)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"malformed --oracle arcs: {exc!r}") from exc
        covered, steps = dynamics.expansive_oracle(cc, seed_arcs, args.max_steps)
        report["oracle"] = {
            "covered": covered,
            "steps": steps,
            "max_steps": args.max_steps,
            "agrees": covered == decision,
        }
    _emit(args, report)


def cmd_free(args):
    _, cc = parse_polynomial_spec(_load_json_arg(args.poly))
    if cc is None:
        raise UndecidedError("freeness criteria apply to the circle families only")
    decision = dynamics.free_decide(cc)
    if decision is None:
        raise UndecidedError("no freeness criterion covers this family")
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
    if args.sample:
        corr = cc.to_correspondence()
        rep = dynamics.gp_sample(
            corr,
            dynamics.circle_sampler,
            N=min(args.gp or 2, 3),
            samples=args.sample,
            seed=_seed(args),
        )
        report["sample"] = {
            "samples": rep.samples,
            "density": rep.density,
            "heuristic": True,
        }
    _emit(args, report)


def _parse_function(obj) -> bimodule.SampledFunction:
    if isinstance(obj, dict) and "const" in obj:
        c = complex(_coeff(obj["const"]))
        return bimodule.SampledFunction("correspondence", lambda z, w: c)
    if isinstance(obj, dict) and "zpoly" in obj:
        coeffs = [complex(_coeff(c)) for c in obj["zpoly"]]

        def fn(z, w):
            zz = z.to_complex()
            return sum(c * zz**k for k, c in enumerate(coeffs))

        return bimodule.SampledFunction("correspondence", fn)
    if isinstance(obj, dict) and "basis" in obj:
        m, i = int(obj["basis"]["m"]), int(obj["basis"]["i"])
        return bimodule.monomial_basis(m)[i]
    raise InvalidInputError("function spec needs one of: const, zpoly, basis")


def cmd_inner(args):
    if args.grid < 1:
        raise InvalidInputError("--grid must be >= 1")
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
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
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
    points = [parse_point(p) for p in _load_json_arg(args.set)]
    fb = bimodule.FiniteBimodule.build(corr, points)
    ft = bimodule.fock_build(fb, args.K)
    report = bimodule.fock_report(ft)
    report["command"] = "fock"
    report["J"] = [point_to_json(p) for p in fb.J]
    _emit(args, report)


def cmd_kgroups(args):
    if args.table is not None:
        rows = ktheory.kgroup_table(args.table[0], args.table[1])
        _emit(args, {
            "command": "kgroups",
            "table": [
                {"m": m, "n": n, "K0": k0.render(), "K1": k1.render()}
                for m, n, k0, k1 in rows
            ],
        })
        return
    _, cc = parse_polynomial_spec(_load_json_arg(args.poly))
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
    out = args.out
    if not out.endswith((".csv", ".ppm")):
        raise InvalidInputError("--out must end in .csv or .ppm")
    corr, _ = parse_polynomial_spec(_load_json_arg(args.poly))
    start = parse_point(_load_json_arg(args.start)) if args.start else None
    pts = dynamics.limit_set_sample(
        corr,
        iterations=args.iters,
        seed=_seed(args),
        direction=args.direction,
        start=start,
        workers=args.workers,
    )
    if out.endswith(".csv"):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("re,im,chart\n")
            for p in pts:
                v, inverted = p.chart_value()
                fh.write(f"{v.real!r},{v.imag!r},{1 if inverted else 0}\n")
    else:
        _write_ppm(out, pts, args.px)
    _emit(args, {
        "command": "render",
        "points": len(pts),
        "out": out,
        "seed": _seed(args),
    })


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
# argument wiring


def _add_common(sp):
    sp.add_argument("--pretty", action="store_true", help="indent JSON output")
    sp.add_argument(
        "--timing", action="store_true", help="include wall time (non-reproducible)"
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="corrdyn",
        description="computations on algebraic correspondences of the sphere",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("fibers", help="fiber of a point with branch indices")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--direction", choices=["forward", "backward"], default="backward")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_fibers)

    p = sub.add_parser("branch", help="branched point/value sets")
    p.add_argument("--poly", required=True)
    p.add_argument("--restrict", default=None,
                   help="'circle' or @file with a point list")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("paths", help="forward path space from a start set")
    p.add_argument("--poly", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("invariant", help="check a finite set for invariance")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    _add_common(p)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("expansive", help="expansiveness of a circle family")
    p.add_argument("--poly", required=True)
    p.add_argument("--oracle", default=None, help="seed arc set JSON for the oracle")
    p.add_argument("--max-steps", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_expansive)

    p = sub.add_parser("free", help="freeness of a circle family")
    p.add_argument("--poly", required=True)
    p.add_argument("--gp", type=int, default=None, help="enumerate GP(N)")
    p.add_argument("--sample", type=int, default=0, help="heuristic sampling count")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("inner", help="weighted inner product on a sample grid")
    p.add_argument("--poly", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("fock", help="truncated Fock representation report")
    p.add_argument("--poly", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--K", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fock)

    p = sub.add_parser("kgroups", help="K-groups of the circle families")
    p.add_argument("--poly", default=None)
    p.add_argument("--table", type=int, nargs=2, default=None, metavar=("M", "N"))
    _add_common(p)
    p.set_defaults(func=cmd_kgroups)

    p = sub.add_parser("render", help="chaos-game point cloud to CSV or PPM")
    p.add_argument("--poly", required=True)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default=None)
    p.add_argument("--direction", choices=["forward", "backward", "mixed"],
                   default="backward")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--px", type=int, default=800)
    _add_common(p)
    p.set_defaults(func=cmd_render)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    try:
        if args.cmd == "kgroups" and args.poly is None and args.table is None:
            raise InvalidInputError("kgroups needs --poly or --table")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
