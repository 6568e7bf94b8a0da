import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from corrdyn import bimodule, cli, correspondence, dynamics, families, floats
from corrdyn.cli import main, parse_polynomial_spec
from corrdyn.correspondence import SpherePoint

from support import on_correspondence

CIRCLE = '{"coeffs":[[[-1,0],[0,0],[1,0]],[[0,0]],[[1,0]]]}'  # z^2 + w^2 - 1
GRAPH2 = '{"coeffs":[[[0,0],[1,0]],[[0,0]],[[-1,0]]]}'  # w - z^2
CORPUS = Path(__file__).resolve().parent / "corpus"


def _subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


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

    def test_double_point_past_one_prime(self, capsys):
        # (z - w)^2 - w + c at w = c = 98765432123/2^39 is (z - c)^2, whose
        # monic factor z - c has a coefficient past the reconstruction bound
        # of one prime, about 2^30
        c = "98765432123/549755813888"
        code, rep = run(capsys, [
            "fibers", "--poly",
            json.dumps({"coeffs": [[[c, 0], [-1, 0], [1, 0]], [[0, 0], [-2, 0]], [[1, 0]]]}),
            "--point", json.dumps([c, 0]), "--direction", "backward",
        ])
        assert code == 0
        assert rep["points"] == [{"multiplicity": 2, "point": [0.17965327446836454, 0.0]}]


class TestBranch:
    def test_circle_restriction(self, capsys):
        code, rep = run(capsys, [
            "branch", "--poly", '{"family":"product","exponents":[2,3]}',
            "--restrict", "circle",
        ])
        assert code == 0
        assert rep["branch_points"] == [[1.0, 0.0]]

    def test_shared_leading_rows_put_infinity_in(self, capsys):
        # w z^2 + w z + (w + 1): rows 2 and 1 are both w, which share their
        # root, so infinity is a branch point; their gcd modulo p is not 1,
        # and the exact resultant Res(w, w) = 0 decides
        code, rep = run(capsys, [
            "branch", "--poly", '{"coeffs":[[[1,0],[1,0]],[[0,0],[1,0]],[[0,0],[1,0]]]}',
        ])
        assert code == 0
        assert rep["branch_points"] == [[-0.5, 0.0], "inf"]

    def test_no_tolerance(self, capsys):
        # membership is exact, so the report carries no tol and the
        # option is gone
        code, rep = run(capsys, ["branch", "--poly", CIRCLE])
        assert code == 0 and "tol" not in rep
        with pytest.raises(SystemExit) as exc:
            main(["branch", "--poly", CIRCLE, "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_resultants_load_no_sympy(self):
        # the product family skips the constructor's squarefree check, so
        # its branched sets are resultants and roots alone
        script = (
            "import sys\n"
            "from corrdyn.cli import main\n"
            "code = main(['branch', '--poly', '{\"family\":\"product\",\"exponents\":[2,5]}'])\n"
            "print(code, 'sympy' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=_subprocess_env(), timeout=60)
        assert json.loads(proc.stdout)["branch_points"]
        assert proc.stderr.decode().split() == ["0", "False"]


class TestImportsFollowTheCommand:
    # each command runs in a fresh process, so what it loaded is what its
    # command needed: the closed forms read only a family's exponents, and
    # a fiber on a family spec needs neither dynamics, bimodule nor ktheory
    SCRIPT = (
        "import json, sys\n"
        "from corrdyn.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n"
    )

    def loaded(self, argv):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argv)],
                              capture_output=True, env=_subprocess_env(), timeout=60)
        code, modules = json.loads(proc.stderr.decode().splitlines()[-1])
        return code, set(modules)

    @pytest.mark.parametrize("argv,code", [
        (["kgroups", "--poly", '{"family":"monomial","m":3,"n":2}'], 0),
        (["kgroups", "--table", "3", "3"], 0),
        (["expansive", "--poly", '{"family":"monomial","m":2,"n":3}'], 0),
        (["free", "--poly", '{"family":"monomial","m":2,"n":3}'], 0),
        (["kgroups", "--poly", '{"family":"mixed","pairs":[[2,1],[1,3]]}'], 4),
    ], ids=["kgroups", "kgroups-table", "expansive", "free", "kgroups-mixed"])
    def test_closed_forms_load_neither_numpy_nor_sympy(self, argv, code):
        ran, modules = self.loaded(argv)
        assert ran == code
        assert modules & {"numpy", "sympy"} == set()

    @pytest.mark.parametrize("argv", [
        ["fibers", "--poly", '{"family":"monomial","m":2,"n":3}', "--point", "[0.5,0]"],
        ["fibers", "--poly", '{"family":"product","exponents":[2,3]}', "--point", "[0.5,0]"],
        ["branch", "--poly", '{"family":"product","exponents":[2,3]}'],
    ], ids=["fibers-monomial", "fibers-product", "branch-product"])
    def test_family_fiber_commands_load_no_dynamics(self, argv):
        ran, modules = self.loaded(argv)
        assert ran == 0
        assert modules & {"corrdyn.dynamics", "corrdyn.bimodule", "corrdyn.ktheory"} == set()


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

    def test_paths_over_the_cap_refused_before_any_fiber(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fiber solved before the path count was checked")

        monkeypatch.setattr(correspondence.Correspondence, "forward_fiber", refuse)
        code = main([
            "paths", "--poly", '{"family":"monomial","m":3,"n":3}',
            "--start", "[[1,0]]", "--n", "30",
        ])
        assert code == 3
        assert last_error(capsys) == "resource-refusal"


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

    @pytest.mark.parametrize("m", [1, 2, 3, 97])
    def test_max_steps_cap(self, capsys, monkeypatch, m):
        # the oracle's last step scales by m^steps; past the cap it is refused
        # before any step
        def refuse(*args, **kwargs):
            raise AssertionError("oracle ran before --max-steps was checked")

        monkeypatch.setattr(dynamics, "expansive_oracle", refuse)
        steps = families.STEP_BITS_CAP // m.bit_length() + 1
        assert main([
            "expansive", "--poly", f'{{"family":"monomial","m":{m},"n":{2 * m}}}',
            "--oracle", "[[0,1,1,1000]]", "--max-steps", str(steps),
        ]) == 3
        assert last_error(capsys) == "resource-refusal"

    def test_largest_max_steps_within_deadline(self, capsys):
        # m = 2 admits the most steps; m^r | n^r means no step covers the circle
        steps = families.STEP_BITS_CAP // 2
        start = time.monotonic()
        code, rep = run(capsys, [
            "expansive", "--poly", '{"family":"monomial","m":2,"n":4}',
            "--oracle", "[[0,1,1,1000]]", "--max-steps", str(steps),
        ])
        assert time.monotonic() - start < 5
        assert code == 0
        assert rep["oracle"] == {"covered": False, "steps": steps, "max_steps": steps,
                                 "agrees": True}

    def test_seed_bits_count_in_the_budget(self, capsys, monkeypatch):
        # the seed denominators' bits add to those of m^r at every step, so a
        # seed of 10^4000 is refused before any step where 1/1000 is not
        ran = []
        monkeypatch.setattr(dynamics, "expansive_oracle",
                            lambda cc, seed, steps: ran.append(seed) or (False, steps))
        argv = ["expansive", "--poly", '{"family":"monomial","m":2,"n":3}',
                "--max-steps", "10000", "--oracle"]
        assert main([*argv, f"[[0,1,1,1{'0' * 4000}]]"]) == 3
        assert last_error(capsys) == "resource-refusal"
        assert ran == []
        # 2^10000 has 10001 bits, which leaves 9999 for the seed's two denominators
        assert main([*argv, f"[[0,1,1,{2 ** 9997}]]"]) == 0
        assert main([*argv, f"[[0,1,1,{2 ** 9998}]]"]) == 3
        assert len(ran) == 1
        capsys.readouterr()

    SEED_1000 = json.dumps([[4 * k, 4000, 4 * k + 1, 4000] for k in range(1000)])

    def test_seed_arcs_count_in_the_budget(self, capsys, monkeypatch):
        # every step visits every seed arc: 1000 arcs for 10 000 steps took
        # 3.5 s, and are refused before the first step
        def refuse(*args):
            raise AssertionError("oracle stepped before the arcs were counted")

        monkeypatch.setattr(dynamics, "_covers", refuse)
        assert main(["expansive", "--poly", '{"family":"monomial","m":2,"n":4}',
                     "--oracle", self.SEED_1000, "--max-steps", "10000"]) == 3
        assert last_error(capsys) == "resource-refusal"

    def test_largest_arc_budget_within_deadline(self, capsys):
        steps = dynamics.ORACLE_WORK_CAP // 1000 - 16
        argv = ["expansive", "--poly", '{"family":"monomial","m":2,"n":4}',
                "--oracle", self.SEED_1000, "--max-steps"]
        start = time.monotonic()
        code, rep = run(capsys, [*argv, str(steps)])
        assert time.monotonic() - start < 5
        assert code == 0 and rep["oracle"]["steps"] == steps
        assert main([*argv, str(steps + 1)]) == 3
        assert last_error(capsys) == "resource-refusal"


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

    @pytest.mark.parametrize("m,n", [(2, 101), (101, 2)])
    def test_gp_work_cap(self, capsys, m, n):
        # about 10^7 line crossings at N = 3, refused from their count alone
        start = time.monotonic()
        assert main(["free", "--poly", f'{{"family":"monomial","m":{m},"n":{n}}}',
                     "--gp", "3"]) == 3
        assert time.monotonic() - start < 1
        assert last_error(capsys) == "resource-refusal"

    def test_largest_gp_work_within_deadline(self, capsys):
        # (1,353) at N = 2 is among the largest enumerations the cap admits,
        # with 248 512 angles; (1,354) is refused
        poly = '{{"family":"monomial","m":1,"n":{}}}'
        start = time.monotonic()
        code, rep = run(capsys, ["free", "--poly", poly.format(353), "--gp", "2"])
        assert time.monotonic() - start < 5
        assert code == 0 and rep["gp"]["count"] == 248512
        assert main(["free", "--poly", poly.format(354), "--gp", "2"]) == 3
        assert last_error(capsys) == "resource-refusal"

    @pytest.mark.parametrize("gp,N", [(None, 2), ("3", 3), ("5", 3)])
    def test_sample_cap(self, capsys, monkeypatch, gp, N):
        # monomial (2,3) grows 3^N paths from each sample
        def refuse(*args, **kwargs):
            raise AssertionError("fiber solved before --sample was checked")

        monkeypatch.setattr(correspondence.Correspondence, "forward_fiber", refuse)
        monkeypatch.setattr(dynamics, "gp_enumerate", refuse)
        argv = ["free", "--poly", '{"family":"monomial","m":2,"n":3}',
                "--sample", str(dynamics.SAMPLE_CAP // 3**N + 1)]
        assert main(argv + (["--gp", gp] if gp else [])) == 3
        assert last_error(capsys) == "resource-refusal"

    def test_sample_cap_builds_no_grid(self, capsys, monkeypatch):
        # deg_w is read off the exponents: the (10^9 + 1)-row grid is never built
        def refuse(self):
            raise AssertionError("grid built before --sample was checked")

        monkeypatch.setattr(families.CircleCorrespondence, "to_correspondence", refuse)
        assert main(["free", "--poly", '{"family":"monomial","m":1000000000,"n":3}',
                     "--sample", "1000000"]) == 3
        assert last_error(capsys) == "resource-refusal"


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

    def test_fock_negative_level(self, capsys):
        assert main([
            "fock", "--poly", CIRCLE, "--set", "[[0,0],[1,0],[-1,0]]", "--K", "-1",
        ]) == 2
        assert last_error(capsys) == "invalid-input"

    def test_largest_fock_within_deadline(self, capsys):
        # monomial (2,2) over the eighth roots of unity: 16 edges, so the
        # top level K = 8 holds 2048 paths, the most this set admits
        roots = [[math.cos(math.pi * k / 4), math.sin(math.pi * k / 4)] for k in range(8)]
        start = time.monotonic()
        code, rep = run(capsys, [
            "fock", "--poly", '{"family":"monomial","m":2,"n":2}',
            "--set", json.dumps(roots), "--K", "8",
        ])
        assert time.monotonic() - start < 5
        assert code == 0
        assert len(rep["edges"]) == 16
        assert rep["block_dims"] == [8 * 2**k for k in range(9)]
        assert rep["relation_max_deviation"] == 0.0

    def test_non_finite_report_is_invalid_input(self, capsys):
        # f = 1e308 (1 + z) overflows, so the report would hold NaN and
        # Infinity, which are not JSON: nothing goes to stdout
        code = main([
            "inner", "--poly", '{"family":"monomial","m":2,"n":3}',
            "--f", '{"zpoly":[[1e308,0],[1e308,0]]}', "--g", '{"const":[1,0]}', "--grid", "4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "invalid-input"

    def test_inner_grid_cap(self, capsys):
        assert main([
            "inner", "--poly", GRAPH2, "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}',
            "--grid", str(dynamics.GRID_CAP + 1),
        ]) == 3
        assert last_error(capsys) == "resource-refusal"


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

    @pytest.mark.parametrize("spec", ['{"family":"monomial","m":2,"n":3}', "{oops"])
    def test_poly_and_table_together_refused(self, capsys, spec):
        # neither is silently dropped, and the spec is not parsed first
        assert main(["kgroups", "--poly", spec, "--table", "2", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "invalid-input", "detail": "kgroups takes --poly or --table, not both"}

    @pytest.mark.parametrize("bounds", [("0", "3"), ("3", "0"), ("-1", "2")])
    def test_table_bounds_below_one(self, capsys, bounds):
        assert main(["kgroups", "--table", *bounds]) == 2
        assert last_error(capsys) == "invalid-input"


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

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one(self, capsys, tmp_path, workers):
        assert main([
            "render", "--poly", GRAPH2, "--iters", "5", "--workers", workers,
            "--out", str(tmp_path / "x.csv"),
        ]) == 2
        assert last_error(capsys) == "invalid-input"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("px,code", [("0", 2), ("-3", 2), (str(cli.PX_CAP + 1), 3)])
    def test_px_out_of_range(self, capsys, tmp_path, monkeypatch, px, code):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --px was checked")

        monkeypatch.setattr(dynamics, "limit_set_sample", no_sampling)
        assert main(["render", "--poly", GRAPH2, "--px", px,
                     "--out", str(tmp_path / "x.ppm")]) == code
        assert last_error(capsys) == ("invalid-input" if code == 2 else "resource-refusal")

    @pytest.mark.parametrize("iters,workers", [
        (dynamics.SAMPLE_CAP + 1, 1), (dynamics.SAMPLE_CAP // 2 + 1, 2),
    ])
    def test_sample_cap(self, capsys, tmp_path, iters, workers):
        assert main([
            "render", "--poly", GRAPH2, "--iters", str(iters), "--workers", str(workers),
            "--out", str(tmp_path / "x.csv"),
        ]) == 3
        assert last_error(capsys) == "resource-refusal"


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["free", "--poly", '{"family":"monomial","m":2,"n":3}',
                "--gp", "2", "--sample", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestParser:
    def test_each_call_builds_only_its_command(self, capsys, monkeypatch):
        # a main() call registers the invoked command's options and no
        # others, never the whole command tree, and only on the first call
        # of that command in the process: the parser is kept
        added = []
        add_argument = argparse._ActionsContainer.add_argument

        def counting(self, *flags, **keywords):
            added.extend(flags)
            return add_argument(self, *flags, **keywords)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        cli.build_parser.cache_clear()
        for argv, flags in (
            (["kgroups", "--table", "1", "1"], ["-h", "--help", "--poly", "--table", "--pretty"]),
            (["kgroups", "--table", "1", "1"], []),
            (["expansive", "--poly", '{"family":"monomial","m":3,"n":2}'],
             ["-h", "--help", "--poly", "--oracle", "--max-steps", "--pretty"]),
        ):
            added.clear()
            assert main(argv) == 0
            assert added == flags
        capsys.readouterr()

    def test_kept_parser_gives_the_bytes_of_fresh_ones(self, capsys):
        # a usage error, then two calls of one command with different
        # options, on one kept parser: the same exit codes, stdout and
        # stderr as with a fresh parser for each call, and no option of one
        # call left in the next
        argvs = [
            ["kgroups", "--table", "two", "1"],
            ["kgroups", "--table", "2", "1"],
            ["kgroups", "--poly", '{"family":"monomial","m":3,"n":2}', "--pretty"],
        ]

        def outputs(fresh):
            got = []
            for argv in argvs:
                if fresh:
                    cli.build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                got.append((code, *capsys.readouterr()))
            return got

        cli.build_parser.cache_clear()
        kept = outputs(fresh=False)
        assert [code for code, _, _ in kept] == [2, 0, 0]
        assert cli.build_parser("kgroups") is cli.build_parser("kgroups")
        assert outputs(fresh=True) == kept

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("argv, prog", [
        ([], "corrdyn"),
        (["frobnicate"], "corrdyn"),
        (["fibers", "--poly", GRAPH2, "--point", "[0,0]", "--bogus"], "corrdyn fibers"),
        (["fibers", "--poly", GRAPH2], "corrdyn fibers"),
        (["fock", "--poly", GRAPH2, "--set", "[[0,0]]", "--K", "two"], "corrdyn fock"),
    ], ids=["no-command", "unknown-command", "unknown-option", "missing-option",
            "non-integer"])
    def test_usage_errors(self, capsys, argv, prog):
        # one JSON error object on stderr, naming the parser that refused
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "invalid-input"
        assert error["detail"].startswith(f"{prog}: ")

    def test_help_stays_plain_text(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fibers", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: corrdyn fibers")


def _corpus_argvs():
    for path in sorted(CORPUS.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            yield json.loads(line) if line.strip() else []


# the corpus commands whose stdout is exact: K-groups, Fock reports, GP
# enumeration, expansiveness and invariance decisions
EXACT_ARGVS = [argv for argv in _corpus_argvs()
               if argv[:1] in (["kgroups"], ["fock"], ["expansive"], ["invariant"])
               or (argv[:1] == ["free"] and "--gp" in argv)]
# each entry holds an argv's stdout, and a refusal's exit code and stderr too
GOLDEN = {json.dumps(entry["argv"]): entry for entry in json.loads(
    (CORPUS / "exact_stdout.json").read_text(encoding="utf-8"))}
EXITED_0 = {key for key, entry in GOLDEN.items() if "exit" not in entry}
# pinned by their bytes too: fibers whose points are read off exact
# coefficients (0, infinity and the double point over w = +-1 of
# z^2 + w^2 - 1), and certified float fibers on the three orbit families
PINNED_FIBERS = [argv for argv in _corpus_argvs()
                 if argv[:1] == ["fibers"] and json.dumps(argv) in EXITED_0]
# inner-product grids of certified float fibers, pinned likewise
PINNED_INNER = [argv for argv in _corpus_argvs()
                if argv[:1] == ["inner"] and json.dumps(argv) in EXITED_0]
# free decisions without --gp, closed forms in the family's exponents
PINNED_DECISIONS = [argv for argv in _corpus_argvs()
                    if argv[:1] == ["free"] and "--gp" not in argv
                    and json.dumps(argv) in EXITED_0]
# refusals pinned with their exit code and JSON error
PINNED_REFUSALS = [argv for argv in _corpus_argvs()
                   if json.dumps(argv) in GOLDEN.keys() - EXITED_0]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv", EXACT_ARGVS,
                             ids=[f"{argv[0]}-{i}" for i, argv in enumerate(EXACT_ARGVS)])
    def test_stdout_matches(self, capsys, argv):
        # an exact command with a golden entry exits with its code (0 unless
        # the entry names one) and those bytes on stdout; every other one
        # exits nonzero with stdout empty
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        out = capsys.readouterr().out
        golden = GOLDEN.get(json.dumps(argv))
        if golden is None:
            assert code != 0 and out == ""
        else:
            assert (code, out) == (golden.get("exit", 0), golden["stdout"])

    @pytest.mark.parametrize("argv", PINNED_FIBERS,
                             ids=[f"fibers-{i}" for i in range(len(PINNED_FIBERS))])
    def test_pinned_fibers_match(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN[json.dumps(argv)]["stdout"]

    @pytest.mark.parametrize("argv", PINNED_INNER,
                             ids=[f"inner-{i}" for i in range(len(PINNED_INNER))])
    def test_pinned_inner_match(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN[json.dumps(argv)]["stdout"]

    @pytest.mark.parametrize("argv", PINNED_DECISIONS,
                             ids=[f"free-{i}" for i in range(len(PINNED_DECISIONS))])
    def test_pinned_decisions_match(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN[json.dumps(argv)]["stdout"]

    @pytest.mark.parametrize("argv", PINNED_REFUSALS,
                             ids=[f"{argv[0]}-{i}" for i, argv in enumerate(PINNED_REFUSALS)])
    def test_pinned_refusals_match(self, capsys, monkeypatch, tmp_path, argv):
        # a refusal leaves stdout empty and writes no --out file
        monkeypatch.chdir(tmp_path)
        golden = GOLDEN[json.dumps(argv)]
        assert main(argv) == golden["exit"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", golden["stderr"])
        assert list(tmp_path.iterdir()) == []

    def test_every_golden_output_is_in_the_corpus(self):
        pinned = EXACT_ARGVS + PINNED_FIBERS + PINNED_INNER + PINNED_DECISIONS + PINNED_REFUSALS
        assert set(GOLDEN) <= {json.dumps(argv) for argv in pinned}


class TestErrors:
    def test_bad_json(self, capsys):
        assert run(capsys, ["fibers", "--poly", "{oops", "--point", "[0,0]"])[0] == 2

    def refusal(self, capsys, spec):
        assert main(["fibers", "--poly", spec, "--point", "[0,0]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return json.loads(captured.err)

    def test_non_squarefree(self, capsys):
        # (w - z^2)^2
        assert self.refusal(
            capsys,
            '{"factors":[[[[0,0],[1,0]],[[0,0]],[[-1,0]]],[[[0,0],[1,0]],[[0,0]],[[-1,0]]]]}',
        ) == {
            "error": "invalid-input",
            "detail": "defining polynomial is not reduced; "
                      "repeated factor (-1+0i)*z^0*w^1 + (1+0i)*z^2*w^0",
        }

    def test_eigenvalues_not_converging(self, capsys, monkeypatch):
        # LAPACK's non-convergence, NaN from the gufunc, on both paths
        class Failing:
            @staticmethod
            def eigvals(a, signature):
                return np.full(len(a), complex(math.nan, 0))

        monkeypatch.setattr(floats, "_umath_linalg", Failing)
        assert main(["fibers", "--poly", '{"family":"monomial","m":5,"n":2}',
                     "--point", "[0.6,0.8]"]) == 2
        assert last_error(capsys) == "root-finding"

    @pytest.mark.parametrize("factor,what", [
        ('[[[1,0]],[[1,0]]]', "factor free of w (1+0i)*z^0*w^0 + (1+0i)*z^1*w^0"),
        ('[[[1,0],[1,0]]]', "factor free of z (1+0i)*z^0*w^0 + (1+0i)*z^0*w^1"),
    ], ids=["z-plus-1", "w-plus-1"])
    def test_factor_free_of_one_variable(self, capsys, factor, what):
        # (z + 1)(w - z) and (w + 1)(w - z) have no repeated factor
        assert self.refusal(capsys, f'{{"factors":[{factor},[[[0,0],[1,0]],[[-1,0]]]]}}') == {
            "error": "invalid-input",
            "detail": f"defining polynomial is not reduced; {what}",
        }

    def test_mixed_non_squarefree(self, capsys):
        # (z - w)(z^2 - w^2) has the repeated factor z - w
        assert self.refusal(capsys, '{"family":"mixed","pairs":[[1,1],[2,2]]}') == {
            "error": "invalid-input",
            "detail": "defining polynomial is not reduced; "
                      "repeated factor (-1+0i)*z^0*w^1 + (1+0i)*z^1*w^0",
        }

    @pytest.mark.parametrize("argv", [
        ["fibers", "--poly", '{"family":"monomial"}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"product","exponents":[2,"x"]}',
         "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"mixed","pairs":[[1]]}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"coeffs":[[[NaN,0],[1,0]],[[1,0]]]}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"coeffs":5}', "--point", "[0,0]"],
        ["fibers", "--poly", GRAPH2, "--point", "[NaN,0]"],
        ["fibers", "--poly", GRAPH2, "--point", f"[1{'0' * 400},0]"],
        ["fibers", "--poly", GRAPH2, "--point", f"[1{'0' * 5000},0]"],
        ["expansive", "--poly", '{"family":"monomial","m":2,"n":3}',
         "--oracle", "[[0,0,1,2]]"],
        ["inner", "--poly", GRAPH2, "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}',
         "--grid", "0"],
        ["render", "--poly", GRAPH2, "--out", "points.txt"],
        ["fibers", "--poly", '{"family":"monomial","m":2.5,"n":3}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"monomial","m":true,"n":3}', "--point", "[0,0]"],
        ["fibers", "--poly", '{"family":"product","exponents":"23"}', "--point", "[0,0]"],
        *[["inner", "--poly", GRAPH2, "--f", f, "--g", '{"const":[1,0]}'] for f in (
            '{"basis":{"m":2,"i":5}}', '{"basis":{"m":2,"i":-1}}', '{"basis":{"m":"x","i":0}}',
            '{"basis":{"m":2}}', '{"basis":3}', f'{{"basis":{{"m":1{"0" * 400},"i":0}}}}',
            '{"zpoly":5}',
        )],
        ["paths", "--poly", GRAPH2, "--start", "5", "--n", "1"],
        ["invariant", "--poly", GRAPH2, "--set", "5"],
        ["invariant", "--poly", GRAPH2, "--set", "null"],
        ["fock", "--poly", GRAPH2, "--set", "5", "--K", "1"],
        ["branch", "--poly", GRAPH2, "--restrict", "5"],
        ["fibers", "--poly", '{"factors":5}', "--point", "[0,0]"],
        *[["expansive", "--poly", '{"family":"monomial","m":2,"n":3}',
           "--oracle", "[[0,1,1,64]]", "--max-steps", s] for s in ("0", "-5")],
        *[["free", "--poly", '{"family":"monomial","m":2,"n":3}', "--sample", s]
          for s in ("0", "-3")],
        *[["fibers", "--poly", GRAPH2, "--point", "[0.5,0]", f"--tol={t}"]
          for t in ("nan", "-1", "inf")],
        ["paths", "--poly", GRAPH2, "--start", "[[0.5,0]]", "--n", "1", "--tol", "nan"],
        ["invariant", "--poly", GRAPH2, "--set", "[[0,0]]", "--tol=-inf"],
        ["inner", "--poly", GRAPH2, "--f", '{"const":[1,0]}', "--g", '{"const":[1,0]}',
         "--tol", "nan"],
    ], ids=["no-m", "exponent-x", "short-pair", "nan-coeff", "coeffs-not-grid",
            "nan-point", "huge-point", "point-over-4300-digits", "oracle-denominator-0", "grid-0", "out-suffix",
            "m-float", "m-bool", "exponents-string", "basis-i-too-large",
            "basis-i-negative", "basis-m-string", "basis-no-i", "basis-not-object",
            "basis-m-huge", "zpoly-not-list", "start-not-list", "set-not-list", "set-null",
            "fock-set-not-list", "restrict-not-list", "factors-not-list", "max-steps-0",
            "max-steps-negative", "sample-0", "sample-negative", "fibers-tol-nan",
            "fibers-tol-negative", "fibers-tol-inf", "paths-tol-nan", "invariant-tol-inf",
            "inner-tol-nan"])
    def test_malformed_input(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("worked before the input was checked")

        for module, name in ((dynamics, "limit_set_sample"), (dynamics, "path_space"),
                             (dynamics, "invariant_check"), (bimodule, "inner_product"),
                             (correspondence.Correspondence, "forward_fiber"),
                             (correspondence.Correspondence, "backward_fiber")):
            monkeypatch.setattr(module, name, refuse)
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
    @pytest.mark.parametrize("spec,direction,extra,must_render", [
        ('{"family":"monomial","m":2,"n":3}', "backward", ["--iters", "200"], True),
        ('{"family":"monomial","m":5,"n":2}', "forward", ["--seed", "1", "--iters", "300"], True),
        ('{"family":"product","exponents":[2,3]}', "forward", ["--iters", "200"], False),
    ], ids=["monomial-backward", "monomial-forward", "product-forward"])
    def test_render_ends_cleanly(self, capsys, tmp_path, spec, direction, extra, must_render):
        # the chain runs off towards infinity; the run must write a chain
        # that stays on the curve and reaches the chart at infinity, or,
        # where that is not yet possible, refuse with a JSON error
        out = tmp_path / "pts.csv"
        code = main(["render", "--poly", spec, "--direction", direction, *extra,
                     "--out", str(out)])
        if code == 2 and not must_render:
            assert last_error(capsys) == "root-finding"
            return
        assert code == 0
        corr = parse_polynomial_spec(json.loads(spec)).correspondence
        chain = []
        for line in out.read_text().splitlines()[1:]:
            re, im, chart = line.split(",")
            v = complex(float(re), float(im))
            chain.append(SpherePoint(1 + 0j, v) if chart == "1" else SpherePoint(v, 1 + 0j))
        assert any(q.z1 == 1 and abs(q.z2) < 1 for q in chain)
        for a, b in zip(chain, chain[1:]):
            z, w = (b, a) if direction == "backward" else (a, b)
            assert on_correspondence(corr, z, w)


class TestOutputErrors:
    def test_unwritable_out_path(self, capsys, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["render", "--poly", GRAPH2, "--iters", "5", "--out", str(out)])
        assert code == 2
        assert last_error(capsys) == "invalid-input"

    def test_missing_out_directory_refused_before_sampling(self, capsys, tmp_path,
                                                           monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the --out directory was checked")

        monkeypatch.setattr(dynamics, "limit_set_sample", no_sampling)
        for name in ("x.csv", "x.ppm"):
            assert main(["render", "--poly", GRAPH2, "--out",
                         str(tmp_path / "no" / name)]) == 2
            assert last_error(capsys) == "invalid-input"

    def test_closed_stdout(self):
        # stdout is a pipe whose reader is already gone, as for
        # `corrdyn paths ... | head -c 50` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "corrdyn.cli", "paths", "--poly", GRAPH2,
                 "--start", "[[1,0]]", "--n", "3"],
                stdout=write_end, stderr=subprocess.PIPE, env=_subprocess_env(), timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        errors = [json.loads(line)["error"] for line in proc.stderr.decode().splitlines()]
        assert errors == ["broken-pipe"]
