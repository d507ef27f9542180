"""The three workloads: op lists, input files and the check for each op.

An op is one ``heptacyclic.cli.main(argv)`` call.  Its kind names the
end-to-end metric it feeds (``det``, ``det_rat``, ``solve``, ``solve_multi``,
``inv``), or ``refusal`` for a call that must exit 2.  Every workload runs
all five metric kinds, each on the lane the workload exercises.

exact-plain     no substitution can fire: the Fraction factor sweep,
                operand growth and formatting do the work, RatFun never runs.
exact-symbolic  planted zero C_j, zero pivots and the pivot/C collision:
                scalars.Poly/RatFun and the inverse back columns do the work.
float-lane      --backend float: JSON parsing, the Fraction->float band
                conversion and the numpy kernels do the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import instances as I
import reference as R

WORKLOADS = ("exact-plain", "exact-symbolic", "float-lane")
KINDS = ("det", "det_rat", "solve", "solve_multi", "inv")

# orders per op; "tiny" keeps every op well under a second for the tests
SIZES = {
    "full": {
        "plain_det": 512, "plain_det_rat": 160, "plain_solve": 320, "plain_inv": 64,
        "sym_inv": 24, "sym_det": 64, "sym_det_rat": 32, "sym_solve": 64,
        "sym_solve_multi": 32, "sym_singular": 128,
        "float_n": 5000, "float_inv": 192,
    },
    "tiny": {
        "plain_det": 12, "plain_det_rat": 10, "plain_solve": 12, "plain_inv": 10,
        "sym_inv": 10, "sym_det": 10, "sym_det_rat": 10, "sym_solve": 10,
        "sym_solve_multi": 10, "sym_singular": 10,
        "float_n": 64, "float_inv": 16,
    },
}

# every kind except the symbolic inverses runs on two instances per pass,
# so a kind's median does not hang on the cost of one seeded draw
PAIR = ("a", "b")


@dataclass
class Op:
    label: str
    kind: str
    argv: list
    out: Path
    inst: I.Instance
    expect_rc: int = 0
    check: Optional[Callable[[dict], bool]] = None
    columns: int = 0
    backend: str = "exact"


class OpWriter:
    """Writes the input files of one workload and attaches the references."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []

    def rng(self, tag: str):
        return I.rng_for(self.workload, self.seed, tag)

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def nonsingular(self, tag: str, make) -> I.Instance:
        """Draw until the determinant is nonzero modulo a prime.

        Only instances with a planted zero pivot can be singular; the
        redraw continues the same seeded stream, so it stays reproducible.
        """
        rng = self.rng(tag)
        while True:
            inst = make(rng)
            if inst.plain or any(R.det_reference(inst)["residues"]):
                return inst

    def _op(self, tag, kind, command, inst, backend, extra=(), expect_rc=0, check=None, columns=0):
        matrix = self._write(f"{tag}.json", inst.to_json())
        out = self.workdir / f"{tag}.out"
        argv = [command, "--input", matrix, *extra, "--out", str(out)]
        if backend == "float":
            argv += ["--backend", "float"]
        label = f"{command} n={inst.n} {tag}"
        self.ops.append(Op(label, kind, argv, out, inst, expect_rc, check, columns, backend))

    def det(self, tag, kind, inst, backend="exact"):
        if backend == "float":
            ref = R.float_det_reference(R.float_bands(inst))
            check = lambda out, ref=ref: R.float_det_ok(ref, out["det"])
        else:
            ref = R.det_reference(inst)
            check = lambda out, ref=ref: R.det_matches(ref, out["det"])
        self._op(tag, kind, "det", inst, backend, check=check)

    def solve(self, tag, kind, inst, columns=1, backend="exact"):
        rng = self.rng(tag + ":rhs")
        rhs = [I.int_vector(rng, inst.n) for _ in range(columns)]
        if columns == 1:
            rhs_path = self._write(f"{tag}.rhs.json", I.rhs_json(rhs[0]))
        else:
            rhs_path = self._write(f"{tag}.rhs.csv", I.rhs_csv(rhs))
        if backend == "float":
            fb = R.float_bands(inst)
            check = lambda out: R.float_solution_ok(fb, rhs, out["x"])
        else:
            def check(out):
                xs = [out["x"]] if columns == 1 else out["x"]
                return len(xs) == columns and all(
                    R.exact_solution_ok(inst, col, x) for col, x in zip(rhs, xs)
                )
        self._op(tag, kind, "solve", inst, backend, extra=("--rhs", rhs_path),
                 check=check, columns=columns)

    def inv(self, tag, inst, backend="exact"):
        if backend == "float":
            fb = R.float_bands(inst)
            check = lambda out: R.float_inverse_ok(fb, out["S"])
        elif inst.plain:
            check = lambda out: R.exact_inverse_ok(inst, out["S"])
        else:
            expected = R.oracle_inverse(inst)
            check = lambda out: R.inverse_equals(expected, out["S"])
        self._op(tag, "inv", "inv", inst, backend, check=check)

    def refusal(self, tag, command, inst, backend="exact"):
        extra = ()
        if command == "solve":
            rhs = I.int_vector(self.rng(tag + ":rhs"), inst.n)
            extra = ("--rhs", self._write(f"{tag}.rhs.json", I.rhs_json(rhs)))
        self._op(tag, "refusal", command, inst, backend, extra=extra, expect_rc=2)


def _exact_plain(b: OpWriter, s: dict) -> None:
    for t in PAIR:
        b.det(f"det-{t}", "det", I.dominant(b.rng(f"det-{t}"), s["plain_det"]))
        b.det(f"det-rat-{t}", "det_rat",
              I.dominant(b.rng(f"det-rat-{t}"), s["plain_det_rat"], rational=True))
        b.solve(f"solve-{t}", "solve", I.dominant(b.rng(f"solve-{t}"), s["plain_solve"]))
        b.solve(f"solve-2col-{t}", "solve_multi",
                I.dominant(b.rng(f"solve-2col-{t}"), s["plain_solve"]), columns=2)
        b.inv(f"inv-{t}", I.dominant(b.rng(f"inv-{t}"), s["plain_inv"]))


def _exact_symbolic(b: OpWriter, s: dict) -> None:
    n = s["sym_inv"]
    b.inv("inv-c1", I.with_zero_c(I.dominant(b.rng("inv-c1"), n), b.rng("inv-c1:pos"), 1))
    b.inv("inv-c3", I.with_zero_c(I.dominant(b.rng("inv-c3"), n), b.rng("inv-c3:pos"), 3))
    b.inv("inv-d1-c1", b.nonsingular("inv-d1-c1", lambda rng: I.with_zero_c(
        I.with_zero_d1(I.dominant(rng, n)), rng, 1)))
    b.inv("inv-collision", b.nonsingular("inv-collision", lambda rng: I.collision(rng, n)))
    d1 = lambda order, rational=False: lambda rng: I.with_zero_d1(I.dominant(rng, order, rational))
    for t in PAIR:
        b.det(f"det-d1-{t}", "det", b.nonsingular(f"det-d1-{t}", d1(s["sym_det"])))
        b.det(f"det-rat-d1-{t}", "det_rat",
              b.nonsingular(f"det-rat-d1-{t}", d1(s["sym_det_rat"], True)))
        b.solve(f"solve-d1-{t}", "solve", b.nonsingular(f"solve-d1-{t}", d1(s["sym_solve"])))
        b.solve(f"solve-2col-d1-{t}", "solve_multi",
                b.nonsingular(f"solve-2col-d1-{t}", d1(s["sym_solve_multi"])), columns=2)
    b.refusal("det-singular", "det", I.zero_row(b.rng("det-singular"), s["sym_singular"]))


def _float_lane(b: OpWriter, s: dict) -> None:
    n = s["float_n"]
    for t in PAIR:
        b.solve(f"solve-{t}", "solve", I.dominant(b.rng(f"solve-{t}"), n), backend="float")
        b.solve(f"solve-4col-{t}", "solve_multi", I.dominant(b.rng(f"solve-4col-{t}"), n),
                columns=4, backend="float")
        b.inv(f"inv-{t}", I.dominant(b.rng(f"inv-{t}"), s["float_inv"]), backend="float")
        b.det(f"det-{t}", "det", I.unit_diagonal(b.rng(f"det-{t}"), n), backend="float")
        b.det(f"det-rat-{t}", "det_rat", I.unit_diagonal(b.rng(f"det-rat-{t}"), n, rational=True),
              backend="float")
    b.refusal("solve-d1", "solve", I.with_zero_d1(I.dominant(b.rng("solve-d1"), n)), backend="float")


_WORKLOAD_OPS = {"exact-plain": _exact_plain, "exact-symbolic": _exact_symbolic, "float-lane": _float_lane}


def build_ops(workload: str, seed: int, workdir: Path, size: str = "full") -> list:
    """Generate the inputs of ``workload`` under ``workdir``; return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = OpWriter(workload, seed, workdir)
    _WORKLOAD_OPS[workload](b, SIZES[size])
    return b.ops
