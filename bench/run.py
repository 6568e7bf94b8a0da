"""corrdyn benchmark: runs one workload for a fixed time and checks every op.

    python3 bench/run.py --workload {orbit,survey,exact} --seed N --seconds S --trace {0|1}

Run from the root of a source checkout; corrdyn is imported from ./src.
Ops are corrdyn CLI commands run in this process through
``corrdyn.cli.main(argv)``, one after another, in whole rounds until S
seconds of op time have passed.  Each op pays what one CLI command pays after
interpreter start: spec parsing, the Correspondence constructor, the
command's own work and its JSON or CSV output.  Its output is then checked
by bench/checks.py, apart from corrdyn.

Times are reference-scaled seconds, wall time * R0 / R (see kernel.py).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  A fuller record of the run goes to
bench/out/.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from kernel import R0_S, kernel_seconds
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
# the first 15 ops of a round run every command the workload uses
WARMUP_OPS = 15
MAX_REPORTED_PROBLEMS = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _problem(text):
    print(f"bench: {text}", file=sys.stderr)


# ---------------------------------------------------------------------------
# set-up time, in fresh interpreters


def setup_sample(trace):
    """One probe run in a fresh interpreter: (sample, problems)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CORRDYN_SEED", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=True,
    )
    sample = json.loads(proc.stdout.splitlines()[-1])
    if Path(sample["corrdyn"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"probe imported corrdyn from {sample['corrdyn']}")
    if sample["code"] != 0:
        return sample, [f"set-up command exited {sample['code']}"]
    return sample, checks.check_fibers(
        {"family": "monomial", "m": 2, "n": 3}, 0.5 + 0j, json.loads(sample.pop("stdout")))


def scaled_median(samples, key):
    return statistics.median(s[key] * R0_S / s["kernel_s"] for s in samples)


# ---------------------------------------------------------------------------
# ops


class Runner:
    def __init__(self, main, tracer):
        self.main = main
        self.tracer = tracer
        self.clear_sympy_cache = None
        self.ops = []  # (kind, raw seconds, kernel seconds)
        self.failed = 0
        self.problems = []

    def run_op(self, op):
        """Run one op; return its parsed report, or None when it failed."""
        gc.collect()
        # each CLI call starts with sympy's cache empty
        if self.clear_sympy_cache is None and "sympy" in sys.modules:
            from sympy.core.cache import clear_cache
            self.clear_sympy_cache = clear_cache
        if self.clear_sympy_cache is not None:
            self.clear_sympy_cache()
        kernel_before = kernel_seconds()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    code = self.tracer.run_op(self.main, op.argv)
                else:
                    code = self.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback fails the op, as it would the user
                code = f"{type(exc).__name__}: {exc}"
            raw_s = time.perf_counter() - t0
        kernel_s = (kernel_before + kernel_seconds()) / 2
        self.ops.append((op.kind, raw_s, kernel_s))
        if code != 0:
            self.failed += 1
            _problem(f"{op.kind} failed ({code}): {err.getvalue().strip()[:300]}")
            return None
        try:
            report = json.loads(out.getvalue())
            problems = op.check(report)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            report, problems = None, [f"unreadable output: {exc!r}"]
        for p in problems:
            self.note(f"{op.kind} {' '.join(op.argv)[:200]}: {p}")
        return report

    def note(self, text):
        self.problems.append(text)
        if len(self.problems) <= MAX_REPORTED_PROBLEMS:
            _problem(text)

    def run_round(self, round_gen, limit=None):
        """Run the ops of one round, or only its first ``limit`` ops."""
        report, done = None, 0
        while limit is None or done < limit:
            try:
                op = round_gen.send(report)
            except StopIteration:
                return
            report = self.run_op(op)
            done += 1


# ---------------------------------------------------------------------------


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "corrdyn" / "cli.py").is_file():
        _problem(f"no corrdyn sources under {SRC}; run from the root of a checkout")
        return 2
    declared = declared_metrics(args.trace)
    os.environ.pop("CORRDYN_SEED", None)  # it would override the generated --seed
    # an untimed probe fills the bytecode and file caches
    _, setup_problems = setup_sample(args.trace)

    sys.path.insert(0, str(SRC))
    import numpy
    import corrdyn.cli

    if Path(corrdyn.cli.__file__).resolve().parent.parent != SRC:
        _problem(f"imported corrdyn from {corrdyn.cli.__file__}")
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    runner = Runner(corrdyn.cli.main, tracer)
    for p in setup_problems:
        runner.note(p)

    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    make_round = WORKLOADS[args.workload]
    setup = []

    def probe():
        sample, problems = setup_sample(args.trace)
        setup.append(sample)
        for p in problems:
            runner.note(p)

    try:
        # untimed ops load sympy and every lazy import on the path
        warmup = make_round(random.Random(f"{args.workload}:{args.seed}:warmup"), tmpdir)
        runner.run_round(warmup, limit=WARMUP_OPS)
        warmup.close()
        runner.ops.clear()
        runner.failed = 0
        if tracer is not None:
            tracer.spans.clear()
            tracer.op = -1
        # Set-up probes are spread over the run, between rounds, so that
        # their median sees the machine in the same states the ops do.
        measured, rounds = 0.0, 0
        while rounds == 0 or measured < args.seconds:
            if len(setup) < SETUP_SAMPLES and measured >= len(setup) * args.seconds / SETUP_SAMPLES:
                probe()
            rng = random.Random(f"{args.workload}:{args.seed}:{rounds}")
            t0 = time.perf_counter()
            runner.run_round(make_round(rng, tmpdir))
            measured += time.perf_counter() - t0
            rounds += 1
        while len(setup) < SETUP_SAMPLES:
            probe()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    raw = [r for _, r, _ in runner.ops]
    scaled = [r * R0_S / k for _, r, k in runner.ops]
    ops_per_s = len(scaled) / sum(scaled)
    if args.trace:
        op_scale = [R0_S / k for _, _, k in runner.ops]
        values = tracing.layer_metrics(tracer.spans, op_scale)
        values["cli.import_s"] = (scaled_median(setup, "import_s"), "s")
        values["polyalg.sympy_import_s"] = (scaled_median(setup, "sympy_import_s"), "s")
        values["traced.ops_per_s"] = (ops_per_s, "1/s")
    else:
        values = {
            "setup_s": (scaled_median(setup, "total_s"), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    if set(values) != set(declared) or any(values[k][1] != declared[k] for k in declared):
        _problem("measured metrics do not match BENCHMARK.json")
        return 2
    metrics = {k: {"value": values[k][0], "unit": declared[k]} for k in declared}
    result = {
        "correct": not runner.problems,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": metrics,
    }

    record = dict(result)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "sympy": sys.modules["sympy"].__version__,
        "nproc": len(os.sched_getaffinity(0)), "r0_s": R0_S,
        "raw_ops_per_s": len(raw) / sum(raw), "raw_op_p50_s": statistics.median(raw),
        "setup_samples": setup,
        "ops": [{"kind": kind, "raw_s": r, "kernel_s": k} for kind, r, k in runner.ops],
        "problems": runner.problems,
    })
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
