"""Tests of the output checks: each check must pass corrdyn's real output
and reject a corrupted copy of it.

    python3 bench/selfcheck.py      # from the root of a checkout; exit 0 when all pass

Not named test_*.py on purpose: the repository's test suite must not
collect the benchmark.
"""

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from corrdyn.cli import main as corrdyn_main  # noqa: E402

CIRCLE = {"coeffs": [[[-1, 0], [0, 0], [1, 0]], [[0, 0]], [[1, 0]]]}
RAW = {"coeffs": [[[1, 0], [2, -1], [1, 0]], [[0, 1], [-3, 2], [1, 1]], [[1, 0], [0, 0], [0, 0]]]}


def corrdyn(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = corrdyn_main(list(argv))
    if code != 0:
        raise RuntimeError(f"corrdyn {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def poly(spec):
    return json.dumps(spec)


def render_cases(tmp):
    spec = {"family": "product", "exponents": [2, 3]}
    out = str(Path(tmp) / "orbit.csv")
    corrdyn("render", "--poly", poly(spec), "--iters", "12", "--seed", "7",
            "--start", "[0.6,0.8]", "--out", out)
    text = Path(out).read_text(encoding="utf-8")
    check = lambda t: checks.check_render(spec, "backward", t, 12)  # noqa: E731
    lines = text.splitlines()

    def edit_row(k, fn):
        rows = list(lines)
        re, im, chart = rows[k].split(",")
        z = fn(complex(float(re), float(im)))
        rows[k] = f"{z.real!r},{z.imag!r},{chart}"
        return "\n".join(rows) + "\n"

    yield "render: real orbit", check(text), False
    yield "render: point moved off the circle", check(edit_row(5, lambda z: 1.01 * z)), True
    yield ("render: point moved along the circle",
           check(edit_row(5, lambda z: z * complex(math.cos(0.3), math.sin(0.3)))), True)
    yield "render: point dropped", check("\n".join(lines[:-1]) + "\n"), True


def inner_cases(tmp):
    unit = corrdyn("inner", "--poly", poly({"family": "monomial", "m": 3, "n": 2}),
                   "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}', "--grid", "8")
    yield "inner (1|1): real values", checks.check_inner(unit, 8, lambda w: 3), False
    bad = copy.deepcopy(unit)
    bad["values"][3]["value"][0] += 1e-6
    yield "inner (1|1): value nudged", checks.check_inner(bad, 8, lambda w: 3), True
    basis = corrdyn("inner", "--poly", poly({"family": "monomial", "m": 4, "n": 3}),
                    "--f", '{"basis":{"m":4,"i":1}}', "--g", '{"basis":{"m":4,"i":2}}',
                    "--grid", "8")
    yield "inner (u1|u2): real values", checks.check_inner(basis, 8, lambda w: 0), False
    bad = copy.deepcopy(basis)
    bad["values"][0]["value"] = [1.0, 0.0]
    yield "inner (u1|u2): not orthogonal", checks.check_inner(bad, 8, lambda w: 0), True


def survey_cases(tmp):
    spec = {"family": "product", "exponents": [2, 5]}
    rep = corrdyn("branch", "--poly", poly(spec), "--restrict", "circle")
    both = lambda r: (checks.check_branch(spec, r)  # noqa: E731
                      + checks.check_product_circle_branch(2, 5, r))
    yield "branch product: real sets", both(rep), False
    bad = copy.deepcopy(rep)
    bad["branch_points"].pop(1)
    yield "branch product: branch point dropped", both(bad), True
    bad = copy.deepcopy(rep)
    bad["branch_values"][0] = [math.cos(0.4), math.sin(0.4)]
    yield "branch product: branch value moved", both(bad), True

    rep = corrdyn("branch", "--poly", poly(RAW))
    yield "branch raw: real sets", checks.check_branch(RAW, rep), False
    bad = copy.deepcopy(rep)
    bad["branch_values"][0][0] += 1e-2
    yield "branch raw: branch value moved", checks.check_branch(RAW, bad), True
    bad = copy.deepcopy(rep)
    bad["cobranch_points"] = bad["cobranch_points"] + [[0.3, 0.1]] * 40
    yield "branch raw: past the criterion-11 bound", checks.check_branch(RAW, bad), True

    obj = rep["branch_values"][0]
    base = checks.parse_point(obj)
    fib = corrdyn("fibers", "--poly", poly(RAW), "--point", json.dumps(obj))
    yield "fibers: real fiber", checks.check_branch_fiber(RAW, base, fib), False
    bad = copy.deepcopy(fib)
    bad["points"][0]["multiplicity"] += 1
    bad["total_multiplicity"] += 1
    yield "fibers: multiplicity raised", checks.check_branch_fiber(RAW, base, bad), True
    bad = copy.deepcopy(fib)
    bad["points"] = [{"point": p["point"], "multiplicity": 1} for p in bad["points"]]
    bad["points"].append({"point": [9.0, 9.0], "multiplicity": 1})
    yield "fibers: double point split", checks.check_branch_fiber(RAW, base, bad), True

    kg = corrdyn("kgroups", "--poly", poly(spec))
    yield "kgroups product: real groups", checks.check_product_kgroups(2, 5, kg), False
    yield ("kgroups product: wrong K0",
           checks.check_product_kgroups(2, 5, dict(kg, K0="Z^2")), True)


def exact_cases(tmp):
    J = [[1, 0], [0, 0], [-1, 0]]
    Jc = [complex(*p) for p in J]
    fock = corrdyn("fock", "--poly", poly(CIRCLE), "--set", json.dumps(J), "--K", "4")
    yield "fock: real report", checks.check_fock(CIRCLE, Jc, 4, fock), False
    yield ("fock: nonzero deviation",
           checks.check_fock(CIRCLE, Jc, 4, dict(fock, relation_max_deviation=1e-12)), True)
    bad = copy.deepcopy(fock)
    bad["block_dims"][3] += 1
    yield "fock: wrong block dimension", checks.check_fock(CIRCLE, Jc, 4, bad), True

    table = corrdyn("kgroups", "--table", "4", "5")
    yield "kgroups table: real table", checks.check_kgroup_table(4, 5, table), False
    bad = copy.deepcopy(table)
    bad["table"][7]["K1"] = "Z/3"
    yield "kgroups table: wrong K-group", checks.check_kgroup_table(4, 5, bad), True

    for m, n in ((2, 3), (2, 4)):
        rep = corrdyn("expansive", "--poly", poly({"family": "monomial", "m": m, "n": n}),
                      "--oracle", "[[1,5,6,25]]")
        yield f"expansive ({m},{n}): real report", checks.check_expansive(m, n, rep), False
        bad = copy.deepcopy(rep)
        bad["oracle"]["covered"] = not bad["oracle"]["covered"]
        yield f"expansive ({m},{n}): covering flipped", checks.check_expansive(m, n, bad), True

    for m, n in ((3, 2), (3, 3)):
        rep = corrdyn("free", "--poly", poly({"family": "monomial", "m": m, "n": n}), "--gp", "2")
        yield f"free ({m},{n}): real report", checks.check_free_gp(m, n, 2, rep), False
        bad = copy.deepcopy(rep)
        bad["gp"]["finite"] = not bad["gp"]["finite"]
        yield f"free ({m},{n}): finiteness flipped", checks.check_free_gp(m, n, 2, bad), True


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for group in (render_cases, inner_cases, survey_cases, exact_cases):
            for name, problems, should_reject in group(tmp):
                ok = bool(problems) == should_reject
                failures += not ok
                detail = problems[0] if problems else "accepted"
                print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
