"""Reference kernel that turns wall time into reference-scaled seconds.

The kernel is pure Python and runs no corrdyn code.  It has two halves:
``Fraction`` arithmetic of the kind corrdyn's exact fiber path does
(Horner evaluation at float-lifted rationals), and compiling, marshalling
and executing a small generated module, the kind of work an import does.
On the shared reference machine the speed of the CPU shifts for seconds
at a time, by up to a factor of two; each half alone tracks that shift in
some ops and over-corrects others, and the pair tracks set-up, fiber and
exact-algebra ops best of the kernels tried (see README.md).

A time t is reported as ``t * R0 / R``, where R is the mean of the
kernel's time right before and right after the measurement.  R0 is a
constant, the kernel's median time measured once on the reference machine.
Changing R0, or the kernel, changes every scaled figure and starts a new
baseline.
"""

import marshal
import time
from fractions import Fraction

R0_S = 3.5e-3

_COEFFS = tuple(Fraction(k + 1, 2 * k + 3) for k in range(8))
_POINTS = tuple(Fraction(0.1 + j / 997) for j in range(48))
_MODULE = "\n".join(
    f"def f{i}(x, y=1):\n    z = [x, y, {i}]\n    return {{'a': z, 'b': (x, {i})}}\n"
    for i in range(40)
)


def reference_kernel() -> int:
    acc = 0
    for x in _POINTS:
        v = Fraction(0)
        for c in _COEFFS:
            v = v * x + c
        acc ^= v.denominator & 0xFFFF
    blob = marshal.dumps(compile(_MODULE, "<kernel>", "exec"))
    for _ in range(4):
        namespace = {}
        exec(marshal.loads(blob), namespace)
        acc ^= len(namespace)
    return acc


def kernel_seconds(repeats: int = 3) -> float:
    """Best of ``repeats`` back-to-back kernel runs, in raw seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best
