"""Machine-speed probes: fixed work that shares no code with the package.

On a shared 2-vCPU Intel Xeon virtual machine the speed of the whole
machine changes by 20-30 % over minutes, and every op of a run moves with
it.  A run therefore also times a probe before every op: a few
milliseconds of work of the same character as the workload's ops
(Fraction arithmetic with growing operands and big-number text for the
exact lanes; string parsing, Fraction->float conversion and a numpy
scalar loop for the float lane).  The runner divides its op times by the
run's probe median over the probe's reference time, so a run on a slow
minute and a run on a fast one report nearly the same numbers.  The
probes never call the package, so a change to the package cannot move
them.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

# reference durations: roughly the probes' medians on that machine.  They
# fix the scale of the reported times; changing them breaks comparisons
# with earlier results.
EXACT_REF_S = 0.005
FLOAT_REF_S = 0.010
IMPORT_REF_S = 0.2


def exact_probe() -> None:
    """A tridiagonal LU sweep over Fractions, then big-number text."""
    alpha = Fraction(30)
    prev = Fraction(1)
    for i in range(1, 240):
        off = Fraction((i * 7919) % 17 - 8 or 1, 1 + i % 3)
        alpha, prev = Fraction(30 + i % 7) - off / alpha * prev, off
    texts = json.loads(json.dumps([str(alpha * k) for k in range(1, 25)]))
    sum(Fraction(t) for t in texts)


def float_probe() -> None:
    """String parsing, Fraction->float conversion and a numpy scalar loop."""
    texts = json.loads(json.dumps([str((i * 37) % 19 - 9) for i in range(1500)]))
    values = np.array([float(Fraction(t)) for t in texts])
    acc = np.zeros(values.shape[0])
    for i in range(1, values.shape[0]):
        acc[i] = acc[i - 1] * 0.5 + values[i] / (abs(values[i - 1]) + 1.0)


IMPORT_PROBE = "import numpy"
