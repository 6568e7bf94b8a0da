"""One set-up sample, run in a fresh interpreter by run.py.

Imports numpy and corrdyn.cli and runs one tiny ``fibers`` command, which
loads sympy lazily on its way, with the reference kernel timed right before
and right after.
With trace 1 sympy is imported on its own right before the command, so
its import time can be told apart.  Prints one JSON object.

    python3 bench/probe.py <trace 0|1>
"""

import contextlib
import io
import json
import sys
import time

from kernel import kernel_seconds

TINY = ["fibers", "--poly", '{"family":"monomial","m":2,"n":3}', "--point", "[0.5,0]"]


def main():
    trace = sys.argv[1] == "1"
    kernel_before = kernel_seconds()
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import corrdyn.cli
    t1 = time.perf_counter()
    if trace:
        import sympy  # noqa: F401
    t2 = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = corrdyn.cli.main(TINY)
    t3 = time.perf_counter()
    print(json.dumps({
        "kernel_s": (kernel_before + kernel_seconds()) / 2,
        "import_s": t1 - t0,
        "sympy_import_s": t2 - t1,
        "total_s": t3 - t0,
        "code": code,
        "stdout": out.getvalue(),
        "corrdyn": corrdyn.cli.__file__,
    }))


if __name__ == "__main__":
    main()
