"""Command-line front end.

Subcommands: det, inv, solve, gen, bench, oracle-check.  Exit codes:
0 success (also ``--help``), 2 singular matrix (or a float-lane
near-singular refusal), 3 invalid input, including a usage error such as
an unknown flag or a malformed option value, 4 internal contract violation
(e.g. a zero divisor or an inexact division in the back recursion, which
cannot happen unless there is a bug), 5 out of memory (an exact request
whose residue lanes do not fit, for one).

Output is deterministic for fixed inputs and flags: JSON is emitted with
sorted keys and canonical p/q scalar strings.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from . import bench as bench_mod
from .errors import InternalContractError, NearSingularPivotError, SingularMatrixError
from .factor import determinant
from .inverse import invert, inverse_float
from .matrix import PROFILES, matrix_from_json, matrix_to_json, random_instance, to_dense
from .oracle import compare, dense_inverse
from .scalars import format_scalar, scalar_formatter
from .solve import is_solution, solve_many, vector_from_text


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

    def add_common(p, rhs=False):
        p.add_argument("--input", required=True, help="matrix file (JSON band format)")
        if rhs:
            p.add_argument("--rhs", required=True, help="right-hand-side file (JSON array or CSV column)")
        p.add_argument("--backend", choices=("exact", "float"), default="exact")
        p.add_argument("--tol", type=float, default=1e-12, help="float-lane pivot tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="output path (stdout when omitted)")

    p_det = sub.add_parser("det", help="determinant")
    add_common(p_det)

    p_inv = sub.add_parser("inv", help="full inverse")
    add_common(p_inv)

    p_solve = sub.add_parser("solve", help="solve Hx = r")
    add_common(p_solve, rhs=True)

    p_gen = sub.add_parser("gen", help="write a random test instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--profile", default="general", choices=PROFILES)
    p_gen.add_argument("--out", help="output path (stdout when omitted)")

    p_bench = sub.add_parser("bench", help="timing and field-op-count rows (CSV)")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--profile", default="diagonally-dominant", choices=PROFILES)
    p_bench.add_argument("--out", help="output path (stdout when omitted)")

    # debugging aid: exact inversion cross-checked against the dense oracle
    p_oc = sub.add_parser("oracle-check")
    p_oc.add_argument("--input", required=True)
    p_oc.add_argument("--out", help="output path (stdout when omitted)")
    return parser


def _emit(pieces, out_path) -> None:
    """Write the strings of ``pieces`` in order, each as it is made, so no
    more than one of them need be held at a time.

    Standard output takes each piece as it comes, and so does a path that
    is there but is no regular file (a device such as /dev/null, a FIFO).
    A regular file, or a path where none is yet, takes them through a
    temporary file beside it (beside the file it names, for a symlink),
    which replaces it with its permission bits only once the last piece is
    written: an error on the way (the formatter out of memory, say)
    removes the temporary file and propagates, and the file keeps what it
    held.  A path that cannot be written is invalid input, as an
    unreadable input file is.
    """
    if not out_path:
        sys.stdout.writelines(pieces)
        return
    try:
        mode = os.stat(out_path).st_mode
    except OSError:  # no file there yet
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with _open_out(out_path, "w", out_path) as out:
            out.writelines(pieces)
        return
    target = Path(os.path.realpath(out_path))
    if mode is not None:
        # a file this user may not write is refused, not replaced
        _open_out(target, "a", out_path).close()
    # a random name: a temporary file a killed run left cannot clash
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    out = _open_out(tmp, "x", out_path)
    try:
        with out:
            out.writelines(pieces)
        try:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _open_out(path, mode: str, out_path):
    """``open(path, mode)``; a failure is invalid input naming ``out_path``
    and the reason, not the file that failed, which may be the temporary
    file of a random name."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _json_dump(payload) -> str:
    """``payload`` as JSON with sorted keys and an indent of 2."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _json_pieces(payload, verbatim: str):
    """The text of ``_json_dump(payload)``, piece by piece.

    ``verbatim`` names a top-level key whose value is a list of strings
    that JSON leaves unescaped, or an iterable of such lists, each taken as
    it is written: float reprs and ``format_scalar`` texts, which hold only
    digits, signs, letters, ``.`` and ``/``.  Each list is joined as it
    is, in one join; ``json.dumps`` with an indent would run its
    pure-Python encoder over every string.  The bytes are the same.
    """
    head, tail = _json_dump({**payload, verbatim: None}).split(f'"{verbatim}": null', 1)
    yield head + f'"{verbatim}": '
    yield from _json_strings(payload[verbatim], "  ")
    yield tail


def _json_strings(items, pad: str):
    """A list of unescaped strings, or an iterable of lists of them, laid
    out as ``json.dumps`` does at indentation ``pad``, a list a piece."""
    inner = "\n" + pad + "  "
    rows = iter(items)
    first = next(rows, None)
    if first is None:
        yield "[]"
    elif isinstance(first, list):
        yield "[" + inner
        yield from _json_strings(first, pad + "  ")
        for row in rows:
            yield "," + inner
            yield from _json_strings(row, pad + "  ")
        yield "\n" + pad + "]"
    else:
        yield "[" + inner + '"' + ('",' + inner + '"').join(items) + '"\n' + pad + "]"


def _cmd_det(args) -> int:
    H = matrix_from_json(_read(args.input), backend=args.backend)
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
    _emit([text], args.out)
    return 2 if result.singular else 0


def _cmd_inv(args) -> int:
    H = matrix_from_json(_read(args.input), backend=args.backend)
    if args.backend == "float":
        rows = (row.tolist() for row in inverse_float(H, tol=args.tol))
        meta = {"backend": "float", "c_substitutions": [], "pivot_overrides": [],
                "back_path": "bordered-solve"}
    else:
        result = invert(H)
        rows = result.S.rows
        meta = {
            "backend": "exact",
            "c_substitutions": list(result.c_substitutions),
            "pivot_overrides": list(result.pivot_overrides),
            "back_path": result.back_path,
        }
    # each row is formatted as it is written, so the n^2 texts are never
    # held at once.  format_scalar of a float is its repr; the exact entries
    # share a few denominators, whose texts the formatter makes once
    fmt = repr if args.backend == "float" else scalar_formatter()
    S = (list(map(fmt, row)) for row in rows)
    if args.format == "csv":
        pieces = (",".join(texts) + "\n" for texts in S)
    else:
        pieces = _json_pieces({**meta, "n": H.n, "S": S}, verbatim="S")
    _emit(pieces, args.out)
    return 0


def _cmd_solve(args) -> int:
    H = matrix_from_json(_read(args.input), backend=args.backend)
    columns = vector_from_text(_read(args.rhs), backend=args.backend)
    reports = solve_many(H, columns, backend=args.backend, tol=args.tol)
    exact_residual = args.backend == "exact" and all(
        is_solution(H, rep.x, col) for rep, col in zip(reports, columns))
    # format_scalar of a float is its repr; the exact entries share a few
    # denominators, whose texts the formatter makes once
    fmt = repr if args.backend == "float" else scalar_formatter()
    xs = [list(map(fmt, rep.x)) for rep in reports]
    payload = {
        "det": format_scalar(reports[0].det),
        "method": reports[0].method,
        "backend": reports[0].backend,
        "exact_residual": exact_residual,
        "x": xs[0] if len(xs) == 1 else xs,
    }
    if args.format == "csv":
        lines = [",".join(col[i] for col in xs) for i in range(H.n)]
        pieces = ["\n".join(lines) + "\n"]
    else:
        pieces = _json_pieces(payload, verbatim="x")
    _emit(pieces, args.out)
    return 0


def _cmd_gen(args) -> int:
    H = random_instance(args.n, args.seed, args.profile)
    _emit([matrix_to_json(H)], args.out)
    return 0


def _cmd_bench(args) -> int:
    rows = bench_mod.bench_suite(args.n, args.seed, args.profile)
    _emit([bench_mod.rows_to_csv(rows)], args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    H = matrix_from_json(_read(args.input))
    result = invert(H)
    reference = dense_inverse(to_dense(H))
    report = compare(result.S, reference)
    payload = {
        "diff_count": len(report.positions),
        "positions": [list(p) for p in report.positions[:20]],
    }
    _emit([_json_dump(payload)], args.out)
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
    # numpy loads on first use, after this: its OpenBLAS then starts no
    # thread pool, whose start cost 0.07-0.12 s a command on a 2-vCPU VM and
    # which nothing uses, as every product is tiled to run on the calling
    # thread; a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (SingularMatrixError, NearSingularPivotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalContractError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
