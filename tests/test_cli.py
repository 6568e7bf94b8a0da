import json

import pytest

from corrdyn import correspondence, dynamics
from corrdyn.cli import main, parse_polynomial_spec
from corrdyn.correspondence import SpherePoint

CIRCLE = '{"coeffs":[[[-1,0],[0,0],[1,0]],[[0,0]],[[1,0]]]}'  # z^2 + w^2 - 1
GRAPH2 = '{"coeffs":[[[0,0],[1,0]],[[0,0]],[[-1,0]]]}'  # w - z^2


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


class TestFibers:
    def test_backward_double_point(self, capsys):
        code, rep = run(capsys, [
            "fibers", "--poly", CIRCLE, "--point", "[1,0]",
        ])
        assert code == 0
        assert rep["points"] == [{"multiplicity": 2, "point": [0.0, 0.0]}]
        assert rep["total_multiplicity"] == 2

    def test_forward_infinity(self, capsys):
        code, rep = run(capsys, [
            "fibers", "--poly", GRAPH2, "--point", '"inf"', "--direction", "forward",
        ])
        assert code == 0
        assert rep["points"] == [{"multiplicity": 1, "point": "inf"}]

    def test_family_shorthand(self, capsys):
        code, rep = run(capsys, [
            "fibers", "--poly", '{"family":"monomial","m":3,"n":2}',
            "--point", "[1,0]",
        ])
        assert code == 0
        assert rep["total_multiplicity"] == 3

    def test_fraction_strings(self, capsys):
        code, rep = run(capsys, [
            "fibers", "--poly",
            '{"coeffs":[[["0",0],["1/1",0]],[["0",0]],[["-1",0]]]}',
            "--point", "[1,0]",
        ])
        assert code == 0


class TestBranch:
    def test_circle_restriction(self, capsys):
        code, rep = run(capsys, [
            "branch", "--poly", '{"family":"product","exponents":[2,3]}',
            "--restrict", "circle",
        ])
        assert code == 0
        assert rep["branch_points"] == [[1.0, 0.0]]


class TestInvariantAndPaths:
    def test_invariant_true(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text("[[0,0],[1,0],[-1,0]]")
        code, rep = run(capsys, [
            "invariant", "--poly", CIRCLE, "--set", f"@{f}",
        ])
        assert code == 0 and rep["invariant"] is True

    def test_invariant_witness(self, capsys):
        code, rep = run(capsys, [
            "invariant", "--poly", CIRCLE, "--set", "[[0,0],[1,0]]",
        ])
        assert code == 0 and rep["invariant"] is False
        assert rep["witness"] is not None

    def test_paths(self, capsys):
        code, rep = run(capsys, [
            "paths", "--poly", CIRCLE, "--start", "[[0,0]]", "--n", "2",
        ])
        assert code == 0
        assert rep["count"] == 2  # 0 -> +-1 -> 0
        assert all(p["weight"] == 2 for p in rep["paths"])


class TestExpansive:
    def test_divisible_not_expansive(self, capsys):
        code, rep = run(capsys, [
            "expansive", "--poly", '{"family":"monomial","m":2,"n":4}',
            "--oracle", "[[0, 1, 1, 64]]",
        ])
        assert code == 0
        assert rep["expansive"] is False
        assert rep["oracle"]["agrees"] is True

    def test_expansive_with_oracle(self, capsys):
        code, rep = run(capsys, [
            "expansive", "--poly", '{"family":"monomial","m":2,"n":3}',
            "--oracle", "[[0, 1, 1, 64]]",
        ])
        assert code == 0
        assert rep["expansive"] is True and rep["oracle"]["covered"] is True

    def test_general_poly_undecided(self, capsys):
        code, _ = run(capsys, ["expansive", "--poly", GRAPH2])
        assert code == 4


class TestFree:
    def test_monomial_free_with_gp(self, capsys):
        code, rep = run(capsys, [
            "free", "--poly", '{"family":"monomial","m":2,"n":3}', "--gp", "2",
        ])
        assert code == 0
        assert rep["free"] is True and rep["gp"]["finite"] is True

    def test_undecided_exit(self, capsys):
        code, _ = run(capsys, [
            "free", "--poly", '{"family":"mixed","pairs":[[1,1],[2,1]]}',
        ])
        assert code == 4


class TestInnerAndFock:
    def test_inner_constants(self, capsys):
        code, rep = run(capsys, [
            "inner", "--poly", '{"family":"monomial","m":2,"n":1}',
            "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}', "--grid", "8",
        ])
        assert code == 0
        assert all(v["value"][0] == pytest.approx(2) for v in rep["values"])

    def test_fock(self, capsys):
        code, rep = run(capsys, [
            "fock", "--poly", CIRCLE, "--set", "[[0,0],[1,0],[-1,0]]", "--K", "3",
        ])
        assert code == 0
        assert rep["block_dims"] == [3, 4, 6, 8]
        assert rep["relation_max_deviation"] == 0.0

    def test_fock_resource_cap(self, capsys):
        code, _ = run(capsys, [
            "fock", "--poly", CIRCLE, "--set", "[[0,0],[1,0],[-1,0]]", "--K", "9",
        ])
        assert code == 3


class TestKGroups:
    def test_monomial(self, capsys):
        code, rep = run(capsys, [
            "kgroups", "--poly", '{"family":"monomial","m":3,"n":2}',
        ])
        assert code == 0
        assert rep["K0"] == "Z/2" and rep["K1"] == "0"

    def test_product(self, capsys):
        code, rep = run(capsys, [
            "kgroups", "--poly", '{"family":"product","exponents":[2,5]}',
        ])
        assert code == 0
        assert rep["K0"] == "Z^3" and rep["K1"] == "0"

    def test_table(self, capsys):
        code, rep = run(capsys, ["kgroups", "--table", "2", "2"])
        assert code == 0
        assert {"m": 1, "n": 1, "K0": "Z^2", "K1": "Z^2"} in rep["table"]

    def test_missing_args(self, capsys):
        assert run(capsys, ["kgroups"])[0] == 2


class TestRender:
    def test_csv(self, capsys, tmp_path):
        out = tmp_path / "pts.csv"
        code, rep = run(capsys, [
            "render", "--poly", GRAPH2, "--iters", "50", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,chart"
        assert len(lines) == 51

    def test_ppm(self, capsys, tmp_path):
        out = tmp_path / "img.ppm"
        code, _ = run(capsys, [
            "render", "--poly", GRAPH2, "--iters", "50", "--seed", "1",
            "--out", str(out), "--px", "32",
        ])
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_bad_extension(self, capsys, tmp_path):
        code, _ = run(capsys, [
            "render", "--poly", GRAPH2, "--iters", "5", "--seed", "1",
            "--out", str(tmp_path / "x.txt"),
        ])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["free", "--poly", '{"family":"monomial","m":2,"n":3}',
                "--gp", "2", "--sample", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["render", "--poly", GRAPH2, "--iters", "30", "--seed", "1",
              "--out", str(out1)])
        capsys.readouterr()
        monkeypatch.setenv("CORRDYN_SEED", "1")
        main(["render", "--poly", GRAPH2, "--iters", "30", "--seed", "999",
              "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_text() == out2.read_text()


class TestErrors:
    def test_bad_json(self, capsys):
        assert run(capsys, ["fibers", "--poly", "{oops", "--point", "[0,0]"])[0] == 2

    def test_non_squarefree(self, capsys):
        code, _ = run(capsys, [
            "fibers", "--poly",
            '{"factors":[[[[0,0],[1,0]],[[0,0]],[[-1,0]]],[[[0,0],[1,0]],[[0,0]],[[-1,0]]]]}',
            "--point", "[0,0]",
        ])
        assert code == 2

    def test_mixed_non_squarefree(self, capsys):
        # (z - w)(z^2 - w^2) has the repeated factor z - w
        code, _ = run(capsys, [
            "fibers", "--poly", '{"family":"mixed","pairs":[[1,1],[2,2]]}',
            "--point", "[0,0]",
        ])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fibers", "--poly", '{"family":"monomial"}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"product","exponents":[2,"x"]}',
         "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"mixed","pairs":[[1]]}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"coeffs":[[[NaN,0],[1,0]],[[1,0]]]}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"coeffs":5}', "--point", "[0,0]"],
        ["fibers", "--poly", GRAPH2, "--point", "[NaN,0]"],
        ["fibers", "--poly", GRAPH2, "--point", f"[1{'0' * 400},0]"],
        ["expansive", "--poly", '{"family":"monomial","m":2,"n":3}',
         "--oracle", "[[0,0,1,2]]"],
        ["inner", "--poly", GRAPH2, "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}',
         "--grid", "0"],
        ["render", "--poly", GRAPH2, "--out", "points.txt"],
        ["fibers", "--poly", '{"family":"monomial","m":2.5,"n":3}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"monomial","m":true,"n":3}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"product","exponents":"23"}', "--point", "[0,0]"],
    ], ids=["no-m", "exponent-x", "short-pair", "nan-coeff", "coeffs-not-grid",
            "nan-point", "huge-point", "oracle-denominator-0", "grid-0", "out-suffix",
            "m-float", "m-bool", "exponents-string"])
    def test_malformed_input(self, capsys, monkeypatch, argv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the input was checked")

        monkeypatch.setattr(dynamics, "limit_set_sample", no_sampling)
        assert main(argv) == 2
        assert last_error(capsys) == "invalid-input"


class TestSquarefreeByConstruction:
    def test_families_skip_the_sympy_check(self, capsys, monkeypatch):
        def refuse(p):
            raise AssertionError("squarefree_check called")

        monkeypatch.setattr(correspondence, "squarefree_check", refuse)
        for argv in (
            ["fibers", "--poly", '{"family":"monomial","m":3,"n":2}', "--point", "[1,0]"],
            ["fibers", "--poly", '{"family":"product","exponents":[2,3,4]}',
             "--point", "[1,0]"],
            ["kgroups", "--poly", '{"family":"product","exponents":[2,3]}'],
        ):
            assert run(capsys, argv)[0] == 0


class TestEscapingOrbits:
    @pytest.mark.parametrize("spec,direction", [
        ('{"family":"monomial","m":2,"n":3}', "backward"),
        ('{"family":"product","exponents":[2,3]}', "forward"),
    ], ids=["monomial-backward", "product-forward"])
    def test_render_ends_cleanly(self, capsys, tmp_path, spec, direction):
        # the chain runs off towards infinity; the run must either refuse
        # with a JSON error or write a chain that stays on the curve
        out = tmp_path / "pts.csv"
        code = main(["render", "--poly", spec, "--direction", direction,
                     "--iters", "200", "--out", str(out)])
        if code == 2:
            assert last_error(capsys) == "root-finding"
            return
        assert code == 0
        corr, _ = parse_polynomial_spec(spec)
        chain = []
        for line in out.read_text().splitlines()[1:]:
            re, im, chart = line.split(",")
            v = complex(float(re), float(im))
            chain.append(SpherePoint(1 + 0j, v) if chart == "1" else SpherePoint(v, 1 + 0j))
        for a, b in zip(chain, chain[1:]):
            z, w = (b, a) if direction == "backward" else (a, b)
            assert corr.on_correspondence(z, w)
