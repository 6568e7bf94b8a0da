#!/usr/bin/env python3
"""Render a backward-orbit sample (chaos game weighted by branch index) of a
correspondence to a PPM density image and a CSV point list.

Usage: python3 scripts/render_limit_set.py [OUTDIR]

Writes limit_set.ppm and limit_set.csv, and exits 1 at the first render that
fails.  The same outputs are available from the CLI:

    corrdyn render --poly '{"coeffs":[[[-1,0],[0,0],[1,0]],[[0,0]],[[1,0]]]}' \\
        --iters 20000 --seed 7 --out limit_set.ppm --px 400
"""

import pathlib
import sys

from corrdyn.cli import main as cli_main

POLY = '{"coeffs":[[[-1,0],[0,0],[1,0]],[[0,0]],[[1,0]]]}'  # z^2 + w^2 - 1


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    ppm = outdir / "limit_set.ppm"
    csv = outdir / "limit_set.csv"
    for out, extra in [(ppm, ["--px", "400"]), (csv, [])]:
        code = cli_main(
            ["render", "--poly", POLY, "--iters", "20000", "--seed", "7",
             "--out", str(out)] + extra
        )
        if code != 0:
            print(f"render to {out} exited {code}", file=sys.stderr)
            return 1
        print(f"wrote {out} ({out.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
