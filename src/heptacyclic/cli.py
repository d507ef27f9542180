"""Command-line front end.

Subcommands: det, inv, solve, gen, bench, oracle-check.  Exit codes:
0 success (also ``--help``), 2 singular matrix (or a float-lane
near-singular refusal), 3 invalid input, including a usage error such as
an unknown flag or a malformed option value, 4 internal contract violation
(e.g. a zero divisor reaching the back recursion, which cannot happen
unless there is a bug).

Output is deterministic for fixed inputs and flags: JSON is emitted with
sorted keys and canonical p/q scalar strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .errors import (
    DegreeCapError,
    InternalContractError,
    NearSingularPivotError,
    PoleAtZeroError,
    SingularMatrixError,
)
from .factor import determinant
from .inverse import invert, inverse_float
from .matrix import (
    DenseMatrix,
    dense_to_csv,
    matrix_from_json,
    matrix_to_json,
    random_instance,
    to_dense,
)
from .oracle import compare, dense_inverse
from .scalars import format_scalar
from .solve import solve_many, vector_from_text


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, invalid input; argparse's own code, 2, is the
    code this CLI gives a singular matrix.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heptacyclic",
        description="Determinants, inverses and linear solvers for cyclic heptadiagonal matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rhs=False, backend=True, fmt=True):
        p.add_argument("--input", required=True, help="matrix file (JSON band format)")
        if rhs:
            p.add_argument("--rhs", required=True, help="right-hand-side file (JSON array or CSV column)")
        if backend:
            p.add_argument("--backend", choices=("exact", "float"), default="exact")
            p.add_argument("--tol", type=float, default=1e-12, help="float-lane pivot tolerance")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (stdout when omitted)")

    p_det = sub.add_parser("det", help="determinant")
    add_common(p_det)

    p_inv = sub.add_parser("inv", help="full inverse")
    add_common(p_inv)
    p_inv.add_argument("--parallel-seeds", action="store_true",
                       help="compute the five seed columns on a thread pool; the output is "
                            "byte-identical, and the pool gives no speed-up (the work holds "
                            "the interpreter lock)")

    p_solve = sub.add_parser("solve", help="solve Hx = r")
    add_common(p_solve, rhs=True)

    p_gen = sub.add_parser("gen", help="write a random test instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--profile", default="general",
                       choices=("general", "diagonally-dominant", "zero-pivot-prone", "zero-C"))
    p_gen.add_argument("--out", help="output path (stdout when omitted)")

    p_bench = sub.add_parser("bench", help="timing and field-op-count rows (CSV)")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--profile", default="diagonally-dominant",
                         choices=("general", "diagonally-dominant", "zero-pivot-prone", "zero-C"))
    p_bench.add_argument("--out", help="output path (stdout when omitted)")

    # debugging aid: exact inversion cross-checked against the dense oracle
    p_oc = sub.add_parser("oracle-check")
    p_oc.add_argument("--input", required=True)
    p_oc.add_argument("--parallel-seeds", action="store_true")
    p_oc.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_det(args) -> int:
    H = matrix_from_json(_read(args.input))
    result = determinant(H, backend=args.backend, tol=args.tol)
    payload = {
        "det": format_scalar(result.value),
        "singular": result.singular,
        "pivot_overrides": result.pivot_overrides,
    }
    if args.format == "csv":
        text = "det,singular,pivot_overrides\n" + \
            f"{payload['det']},{str(payload['singular']).lower()},{payload['pivot_overrides']}\n"
    else:
        text = _json_dump(payload)
    _emit(text, args.out)
    return 2 if result.singular else 0


def _cmd_inv(args) -> int:
    H = matrix_from_json(_read(args.input))
    if args.backend == "float":
        S = inverse_float(H, tol=args.tol)
        rows = S.tolist()
        meta = {"backend": "float", "c_substitutions": [], "pivot_overrides": [],
                "back_path": "bordered-solve"}
    else:
        result = invert(H, parallel_seeds=args.parallel_seeds)
        rows = result.S.rows
        meta = {
            "backend": "exact",
            "c_substitutions": list(result.c_substitutions),
            "pivot_overrides": list(result.pivot_overrides),
            "back_path": result.back_path,
        }
    if args.format == "csv":
        text = dense_to_csv(DenseMatrix(rows))
    else:
        payload = dict(meta)
        payload["n"] = H.n
        payload["S"] = [[format_scalar(v) for v in row] for row in rows]
        text = _json_dump(payload)
    _emit(text, args.out)
    return 0


def _cmd_solve(args) -> int:
    H = matrix_from_json(_read(args.input))
    columns = vector_from_text(_read(args.rhs))
    reports = solve_many(H, columns, backend=args.backend, tol=args.tol)
    exact_residual = args.backend == "exact" and all(
        all(u == v for u, v in zip(H.mat_vec(list(rep.x)), col))
        for rep, col in zip(reports, columns)
    )
    xs = [[format_scalar(v) for v in rep.x] for rep in reports]
    payload = {
        "det": format_scalar(reports[0].det),
        "method": reports[0].method,
        "backend": reports[0].backend,
        "exact_residual": exact_residual,
        "x": xs[0] if len(xs) == 1 else xs,
    }
    if args.format == "csv":
        lines = [",".join(col[i] for col in xs) for i in range(H.n)]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_dump(payload)
    _emit(text, args.out)
    return 0


def _cmd_gen(args) -> int:
    H = random_instance(args.n, args.seed, args.profile)
    _emit(matrix_to_json(H), args.out)
    return 0


def _cmd_bench(args) -> int:
    rows = bench_mod.bench_suite(args.n, args.seed, args.profile)
    _emit(bench_mod.rows_to_csv(rows), args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    H = matrix_from_json(_read(args.input))
    result = invert(H, parallel_seeds=args.parallel_seeds)
    reference = dense_inverse(to_dense(H))
    report = compare(result.S, reference)
    payload = {
        "diff_count": len(report.positions),
        "positions": [list(p) for p in report.positions[:20]],
    }
    _emit(_json_dump(payload), args.out)
    return 0 if not report.positions else 4


_DISPATCH = {
    "det": _cmd_det,
    "inv": _cmd_inv,
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (SingularMatrixError, NearSingularPivotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PoleAtZeroError, InternalContractError, DegreeCapError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
