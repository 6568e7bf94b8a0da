"""Output checks computed apart from corrdyn.

Every check takes the polynomial spec the op was given and the op's parsed
output, and returns a list of problems (empty when the output is right).
Polynomials are rebuilt here from the spec and evaluated and solved with
numpy; nothing below imports corrdyn.  No check compares against a stored
copy of earlier output: each one tests a property the answer must have or
a closed form from the literature the toolkit implements.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

# A multiple root computed at a float base point separates into roots about
# sqrt(machine epsilon) apart; distinct roots of these small integer
# polynomials are orders of magnitude further apart than this.
NEAR = 1e-4
# p(z, w) at consecutive orbit points, relative to the coefficient sum.
ORBIT_RESIDUAL = 1e-9
ON_CIRCLE = 1e-9
INNER_TOL = 1e-9
ROOT_OF_UNITY_TOL = 1e-7


# ---------------------------------------------------------------------------
# polynomials rebuilt from the spec


def _number(x) -> float:
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def _polymul(a, b):
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j]:
                out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out


def _binomial(zpow, wpow, sign_w):
    """z^zpow + sign_w * w^wpow as a coefficient grid [z power, w power]."""
    g = np.zeros((zpow + 1, wpow + 1), complex)
    g[zpow, 0] += 1
    g[0, wpow] += sign_w
    return g


def spec_grid(spec) -> np.ndarray:
    """Coefficient grid of p(z, w), indexed [z power, w power]."""
    fam = spec.get("family")
    if fam == "monomial":
        return _binomial(spec["m"], spec["n"], -1)
    if fam == "product":
        grid = np.ones((1, 1), complex)
        for e in spec["exponents"]:
            grid = _polymul(grid, -_binomial(e, 1, -1))  # w - z^e
        return grid
    if fam == "mixed":
        grid = np.ones((1, 1), complex)
        for i, j in spec["pairs"]:
            grid = _polymul(grid, _binomial(i, j, -1))
        return grid
    rows = spec["coeffs"]
    grid = np.zeros((len(rows), max(len(r) for r in rows)), complex)
    for i, row in enumerate(rows):
        for j, (re, im) in enumerate(row):
            grid[i, j] = complex(_number(re), _number(im))
    return grid


def evaluate(grid, z: complex, w: complex) -> complex:
    return complex(np.polynomial.polynomial.polyval2d(z, w, grid))


# ---------------------------------------------------------------------------
# points on the sphere (None is the point at infinity)


def parse_point(obj):
    return None if obj == "inf" else complex(obj[0], obj[1])


def chordal(a, b) -> float:
    if a is None and b is None:
        return 0.0
    if a is None:
        return 1.0 / math.sqrt(1.0 + abs(b) ** 2)
    if b is None:
        return 1.0 / math.sqrt(1.0 + abs(a) ** 2)
    return abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def fiber_roots(grid, base):
    """All x with p(x, base) = 0 on the sphere, with repetition; the point
    at infinity appears deg_x - deg p(., base) times.  For |base| > 1 the
    polynomial is taken in the chart v = 1/base, which keeps it well
    scaled."""
    dw = grid.shape[1] - 1
    if base is None:
        coeffs = grid[:, dw]
    elif abs(base) <= 1:
        coeffs = np.polynomial.polynomial.polyval(base, grid.T)
    else:
        # w^-dw p(x, w) = sum_j c_j v^(dw - j)
        coeffs = np.polynomial.polynomial.polyval(1 / base, grid[:, ::-1].T)
    coeffs = np.asarray(coeffs, complex)
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    if deg < 0:
        raise ValueError("the fiber polynomial vanishes identically")
    finite = np.roots(coeffs[: deg + 1][::-1]) if deg > 0 else []
    return [complex(r) for r in finite] + [None] * (len(coeffs) - 1 - deg)


def count_near(points, q) -> int:
    return sum(1 for x in points if chordal(x, q) <= NEAR)


def has_multiple_root(points) -> bool:
    return any(
        chordal(points[i], points[j]) <= NEAR
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def _fmt(p) -> str:
    return "inf" if p is None else f"{p:.6g}"


# ---------------------------------------------------------------------------
# orbit workload


def check_render(spec, direction, csv_text, iters):
    """Every orbit point lies on the unit circle and consecutive points are
    related by p: p(next, prev) = 0 for a backward step, p(prev, next) = 0
    for a forward one, either for a mixed chain."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "re,im,chart":
        return ["render CSV header is not re,im,chart"]
    if len(lines) - 1 != iters:
        return [f"render CSV has {len(lines) - 1} points, expected {iters}"]
    grid = spec_grid(spec)
    scale = float(np.abs(grid).sum())
    pts = []
    for line in lines[1:]:
        re, im, chart = line.split(",")
        v = complex(float(re), float(im))
        if chart == "1":
            if v == 0:
                return ["render orbit reached infinity"]
            v = 1 / v
        elif chart != "0":
            return [f"render CSV chart flag {chart!r}"]
        pts.append(v)
    problems = []
    for k, z in enumerate(pts):
        if abs(abs(z) - 1.0) > ON_CIRCLE:
            problems.append(f"orbit point {k} = {_fmt(z)} is off the unit circle")
    for k in range(len(pts) - 1):
        prev, nxt = pts[k], pts[k + 1]
        back = abs(evaluate(grid, nxt, prev)) / scale
        fwd = abs(evaluate(grid, prev, nxt)) / scale
        res = {"backward": back, "forward": fwd, "mixed": min(back, fwd)}[direction]
        if res > ORBIT_RESIDUAL:
            problems.append(f"orbit step {k} has residual {res:.3g}")
    return problems


def check_inner(report, grid_size, expect):
    """expect(w) is the exact value of the inner product at w."""
    values = report["values"]
    if len(values) != grid_size:
        return [f"inner returned {len(values)} values on a grid of {grid_size}"]
    problems = []
    for k, item in enumerate(values):
        w = cmath.exp(2j * math.pi * k / grid_size)
        got_w = complex(*item["w"])
        if abs(got_w - w) > 1e-12:
            problems.append(f"inner grid point {k} is {_fmt(got_w)}")
        got = complex(*item["value"])
        if abs(got - expect(w)) > INNER_TOL:
            problems.append(f"inner value at grid point {k} is {_fmt(got)}")
    top = max(abs(complex(*item["value"])) for item in values)
    if abs(report["max_abs"] - top) > 1e-12:
        problems.append("inner max_abs disagrees with the values")
    return problems


# ---------------------------------------------------------------------------
# survey workload


def branched_point_problems(grid, report):
    """Each reported point really is branched, judged by numpy roots."""
    gridT = grid.T
    problems = []
    for key, own, other in (
        ("branch_values", grid, None),
        ("cobranch_points", gridT, None),
        ("branch_points", gridT, grid),
        ("cobranch_values", grid, gridT),
    ):
        for obj in report[key]:
            q = parse_point(obj)
            if other is None:
                # the fiber over q has a multiple point
                ok = has_multiple_root(fiber_roots(own, q))
            else:
                # q is a multiple point of the fiber over one of its images
                ok = any(
                    count_near(fiber_roots(other, y), q) >= 2
                    for y in fiber_roots(own, q)
                )
            if not ok:
                problems.append(f"{key} entry {_fmt(q)} is not branched")
    return problems


def criterion_11_bounds(grid, report):
    """Cardinality bounds of the four branched sets (acceptance criterion 11)."""
    m, n = grid.shape[0] - 1, grid.shape[1] - 1
    bounds = {
        "branch_points": 2 * m * (m - 1) * n,
        "branch_values": 2 * (m - 1) * n,
        "cobranch_values": 2 * n * (n - 1) * m,
        "cobranch_points": 2 * (n - 1) * m,
    }
    return [
        f"{key} has {len(report[key])} entries, bound {bound}"
        for key, bound in bounds.items()
        if len(report[key]) > bound
    ]


def check_branch(spec, report):
    grid = spec_grid(spec)
    return criterion_11_bounds(grid, report) + branched_point_problems(grid, report)


def check_product_circle_branch(a, b, report):
    """The circle branch points of (w - z^a)(w - z^b) are the solutions of
    z^a = z^b on the circle: exactly the (b - a)-th roots of unity."""
    pts = [parse_point(p) for p in report["branch_points"]]
    problems = []
    if len(pts) != b - a:
        problems.append(f"{len(pts)} circle branch points, expected {b - a}")
    for k in range(b - a):
        target = cmath.exp(2j * math.pi * k / (b - a))
        if not any(p is not None and abs(p - target) < ROOT_OF_UNITY_TOL for p in pts):
            problems.append(f"root of unity {_fmt(target)} missing from branch points")
    return problems


def check_product_kgroups(a, b, report):
    """K_0 = Z^(b - a) and K_1 = 0 for two-exponent products."""
    problems = []
    if report["K0"] != render_group(b - a):
        problems.append(f"K0 is {report['K0']}, expected {render_group(b - a)}")
    if report["K1"] != "0":
        problems.append(f"K1 is {report['K1']}, expected 0")
    return problems


def check_fibers(spec, base, report):
    """Multiplicities sum to the degree and each reported point has as many
    numpy roots next to it as its multiplicity says."""
    grid = spec_grid(spec)
    roots = fiber_roots(grid, base)
    problems = []
    mults = [item["multiplicity"] for item in report["points"]]
    if sum(mults) != len(roots) or report["total_multiplicity"] != len(roots):
        problems.append(f"fiber multiplicities sum to {sum(mults)}, degree {len(roots)}")
    for item in report["points"]:
        q = parse_point(item["point"])
        near = count_near(roots, q)
        if near != item["multiplicity"]:
            problems.append(
                f"fiber point {_fmt(q)} has multiplicity {item['multiplicity']}, "
                f"numpy finds {near} roots there"
            )
    return problems


def check_branch_fiber(spec, base, report):
    """The fiber over a reported branch value is a right fiber and has a
    point of multiplicity at least 2."""
    problems = check_fibers(spec, base, report)
    if all(item["multiplicity"] < 2 for item in report["points"]):
        problems.append(f"fiber over branch value {_fmt(base)} is unbranched")
    return problems


# ---------------------------------------------------------------------------
# exact workload


def render_group(rank, torsion=()):
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " (+) ".join(parts) if parts else "0"


def monomial_kgroups(m, n):
    """K-groups of z^m = w^n on the circle, the closed form of acceptance
    criterion 1 (Pimsner six-term sequence with maps 1 - m and 1 - n)."""
    if m == 1 and n == 1:
        return render_group(2), render_group(2)
    if n == 1:
        return render_group(1, (m - 1,) if m > 2 else ()), render_group(1)
    if m == 1:
        return render_group(1), render_group(1, (n - 1,) if n > 2 else ())
    return (
        render_group(0, (m - 1,) if m > 2 else ()),
        render_group(0, (n - 1,) if n > 2 else ()),
    )


def check_kgroup_table(max_m, max_n, report):
    rows = report["table"]
    expected = [(m, n) for m in range(1, max_m + 1) for n in range(1, max_n + 1)]
    if [(r["m"], r["n"]) for r in rows] != expected:
        return ["K-group table rows do not cover the grid in order"]
    problems = []
    for r in rows:
        k0, k1 = monomial_kgroups(r["m"], r["n"])
        if (r["K0"], r["K1"]) != (k0, k1):
            problems.append(
                f"K-groups of ({r['m']},{r['n']}) are {r['K0']}, {r['K1']}; "
                f"expected {k0}, {k1}"
            )
    return problems


def path_counts(grid, J, K):
    """Number of length-k paths through J for k = 0..K, where x -> y is an
    edge when p(x, y) = 0 exactly (J holds small integer points)."""
    n = len(J)
    adj = [[1 if evaluate(grid, x, y) == 0 else 0 for y in J] for x in J]
    counts, row = [], [1] * n  # row[v] = paths of the current length ending at v
    for _ in range(K + 1):
        counts.append(sum(row))
        row = [sum(row[x] * adj[x][y] for x in range(n)) for y in range(n)]
    return counts


def check_fock(spec, J, K, report):
    grid = spec_grid(spec)
    problems = []
    if report["relation_max_deviation"] != 0:
        problems.append(
            f"Fock relation deviation is {report['relation_max_deviation']}, not 0"
        )
    expected = path_counts(grid, J, K)
    if report["block_dims"] != expected:
        problems.append(f"Fock block dims {report['block_dims']}, expected {expected}")
    m = grid.shape[0] - 1
    weights = {}
    for zi, wi, e in report["edges"]:
        if evaluate(grid, J[zi], J[wi]) != 0:
            problems.append(f"Fock edge {zi} -> {wi} is not on the correspondence")
        weights[wi] = weights.get(wi, 0) + e
    if any(total != m for total in weights.values()):
        problems.append(f"Fock fiber weights {weights} do not all equal {m}")
    return problems


def check_expansive(m, n, report):
    """z^m = w^n is expansive exactly when m does not divide n; the arc
    oracle covers the circle from a seed arc shorter than 1/m exactly then."""
    expansive = n % m != 0
    problems = []
    if report["expansive"] != expansive:
        problems.append(f"expansive is {report['expansive']} for ({m},{n})")
    if report["components"] != math.gcd(m, n):
        problems.append(f"components is {report['components']}, expected gcd {math.gcd(m, n)}")
    oracle = report["oracle"]
    if oracle["covered"] != expansive:
        problems.append(f"oracle covered is {oracle['covered']} for ({m},{n})")
    if not oracle["agrees"]:
        problems.append("oracle disagrees with the decision")
    if not 1 <= oracle["steps"] <= oracle["max_steps"]:
        problems.append(f"oracle took {oracle['steps']} steps")
    return problems


def check_free_gp(m, n, N, report):
    """z^m = w^n is free, and its generalized periodic set finite, exactly
    when m != n (for m = n every diagonal path is periodic)."""
    problems = []
    if report["free"] != (m != n):
        problems.append(f"free is {report['free']} for ({m},{n})")
    gp = report["gp"]
    if gp["N"] != N or gp["finite"] != (m != n):
        problems.append(f"GP set finite is {gp['finite']} for ({m},{n})")
    elif gp["finite"]:
        angles = [Fraction(p, q) for p, q in gp["angles"]]
        if gp["count"] != len(angles) or len(set(angles)) != len(angles):
            problems.append("GP angles are not a set of the reported size")
        if any(not 0 <= a < 1 for a in angles) or Fraction(0) not in angles:
            problems.append("GP angles leave [0, 1) or miss the fixed point 1")
    return problems
