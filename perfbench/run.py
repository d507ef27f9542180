"""Benchmark of the ``heptacyclic`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-plain --seed 1 --seconds 20 --trace 0

Each op is one in-process ``heptacyclic.cli.main(argv)`` call with ``--out``
pointing into a scratch directory, timed from the call to its return, so
parsing, the algorithm and formatting are all inside the timing; the
import is paid once during set-up.  After each call the output is checked
against a reference computed by the benchmark itself (see reference.py).
A run repeats full passes over the workload's op list until ``--seconds``
have elapsed.

``--trace 0`` prints the end-to-end metrics: the median time per op kind,
the median pass time, set-up time (median of three set-ups), peak RSS and
the import time of a fresh interpreter.  Op, pass and import times are
scaled to a reference machine speed measured by probes (see probe.py);
the raw medians are printed too.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of the traced passes
(see tracer.py) plus the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy loads, so reference checks do not
# compete with the timed calls for the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
IMPORT_PROBES = 9


def _import_package():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (SRC / "heptacyclic" / "cli.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import heptacyclic.cli

    if Path(heptacyclic.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported heptacyclic from {heptacyclic.cli.__file__}, not {SRC}")
    return heptacyclic.cli


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def execute(cli, op, tracer=None) -> tuple:
    """Run one op; returns (ok, note, seconds)."""
    op.out.unlink(missing_ok=True)
    gc.collect()
    err = io.StringIO()
    crashed = None
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        start = time.perf_counter()
        try:
            rc = tracer.run("cli", cli.main, op.argv) if tracer else cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
        except Exception:
            rc, crashed = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    return (*judge(op, rc, crashed or err.getvalue()), seconds)


def judge(op, rc, stderr: str) -> tuple:
    """(ok, note) for an op's exit code, captured stderr and output file."""
    if "Traceback" in stderr:
        return False, "traceback: " + stderr.strip().splitlines()[-1]
    if rc != op.expect_rc:
        return False, f"exit code {rc}, expected {op.expect_rc}"
    if op.check is None:
        return True, ""
    try:
        payload = json.loads(op.out.read_text())
        ok = op.check(payload)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return False, f"unreadable output: {exc!r}"
    return bool(ok), "" if ok else "output differs from the reference"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(cli, workload, seed, workdir, size, repeats):
    """Generate inputs and references, then warm up with one tiny op of
    each kind; repeated, and the last op list kept."""
    from workloads import build_ops

    times = []
    ops = None
    for _ in range(repeats):
        start = time.perf_counter()
        ops = build_ops(workload, seed, workdir / "ops", size)
        warm = {}
        for op in build_ops(workload, seed, workdir / "warm", "tiny"):
            warm.setdefault(op.kind, op)
        for op in warm.values():
            execute(cli, op)
        times.append(time.perf_counter() - start)
    return ops, times


def import_seconds() -> tuple:
    """Wall times of ``import heptacyclic.cli`` in fresh interpreters, and
    of the import probe run alternately with them."""
    from probe import IMPORT_PROBE

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = {"import heptacyclic.cli": [], IMPORT_PROBE: []}
    for _ in range(IMPORT_PROBES):
        for code, out in times.items():
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True)
            out.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.exit(f"perfbench: {code!r} failed:\n" + proc.stderr.decode(errors="replace"))
    return tuple(times.values())


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba": "importable" if importlib.util.find_spec("numba") else "absent",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, op, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{op.label}: {note}")


def run_pass(cli, ops, tally, samples, tracer=None, probe=None, probes=None) -> tuple:
    """One pass over the op list, timing ``probe`` before each op when
    given; returns (pass seconds, solve sweeps, columns)."""
    total = 0.0
    sweeps = columns = 0
    for op in ops:
        before = tracer.counters["factor.sweeps"] if tracer else 0
        if probe is not None:
            start = time.perf_counter()
            probe()
            probes.append(time.perf_counter() - start)
        ok, note, seconds = execute(cli, op, tracer)
        tally.add(op, ok, note)
        total += seconds
        if samples is not None and op.kind != "refusal":
            samples.setdefault(op.kind, []).append(seconds)
        if tracer and op.kind in ("solve", "solve_multi"):
            sweeps += tracer.counters["factor.sweeps"] - before
            columns += op.columns
    return total, sweeps, columns


def measure(cli, ops, seconds, tally, probe) -> tuple:
    samples, passes, probes = {}, [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, ops, tally, samples, probe=probe, probes=probes)[0])
    return samples, passes, probes


def measure_traced(cli, ops, seconds, tally) -> tuple:
    """Alternate untraced and traced passes; per-layer values per pass."""
    from tracer import Tracer, install, pass_metrics

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cli, ops, tally, None)[0])
        tracer = Tracer()
        install(tracer)
        try:
            pass_s, sweeps, columns = run_pass(cli, ops, tally, None, tracer)
        finally:
            tracer.remove()
        traced.append(pass_s)
        metrics = pass_metrics(tracer)
        metrics["solve.factorizations_per_column"] = (sweeps / columns if columns else 0.0, "ratio")
        layers.append(metrics)
    return plain, traced, layers


def field_ops(ops) -> int:
    """Field operations of the exact determinants on plain instances,
    counted by the package's op-counting scalar (not timed)."""
    from heptacyclic.bench import count_det_ops
    from heptacyclic.matrix import matrix_from_json

    return sum(
        count_det_ops(matrix_from_json(Path(op.argv[2]).read_text()))
        for op in ops
        if op.argv[0] == "det" and op.backend == "exact" and op.inst.plain
    )


def layer_summary(layers, plain, traced, ops) -> dict:
    """Median times over traced passes; counts from the first (they repeat)."""
    out = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median([m[name][0] for m in layers])
        out[name] = (value, unit)
    out["factor.field_ops"] = (field_ops(ops), "count")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return dict(sorted(out.items()))


def expected_properties(ops) -> dict:
    """Counts each workload is built to produce, for the traced report."""
    exact = [op for op in ops if op.backend == "exact"]
    invs = [op for op in exact if op.argv[0] == "inv"]
    return {
        "factor.pivot_overrides": sum(len(op.inst.zero_pivots) for op in exact),
        "inverse.c_substitutions": sum(len(op.inst.zero_c) for op in invs),
        "inverse.bordered_solve_inverses": sum(
            any(i - 3 in op.inst.zero_c for i in op.inst.zero_pivots) for op in invs
        ),
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    import probe
    from workloads import KINDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny orders, for testing the benchmark itself")
    args = parser.parse_args(argv)

    cli = _import_package()
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    scratch_parent = ROOT / ".perfbench_work"
    scratch_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_parent))
    tally = Tally()
    try:
        if args.trace:
            ops, _ = setup(cli, args.workload, args.seed, workdir, args.size, 1)
            plain, traced, layers = measure_traced(cli, ops, args.seconds, tally)
            metrics = layer_summary(layers, plain, traced, ops)
            print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
            for name, want in expected_properties(ops).items():
                got = metrics[name][0]
                verdict = "holds" if got == want else "DOES NOT HOLD"
                print(f"property {name}: planted {want}, observed {got} -> {verdict}")
        else:
            imports, import_probes = import_seconds()
            ops, setups = setup(cli, args.workload, args.seed, workdir, args.size, SETUP_REPEATS)
            if args.workload == "float-lane":
                probe_fn, ref = probe.float_probe, probe.FLOAT_REF_S
            else:
                probe_fn, ref = probe.exact_probe, probe.EXACT_REF_S
            samples, passes, probes = measure(cli, ops, args.seconds, tally, probe_fn)
            slow = statistics.median(probes) / ref
            slow_import = statistics.median(import_probes) / probe.IMPORT_REF_S
            print(f"probe {statistics.median(probes) * 1000:.4g} ms (reference {ref * 1000:g} ms), "
                  f"import probe {statistics.median(import_probes):.4g} s "
                  f"(reference {probe.IMPORT_REF_S:g} s): times below are divided by "
                  f"{slow:.4g} and {slow_import:.4g}")
            raw = {f"{kind}_s": samples[kind] for kind in KINDS}
            raw["pass_s"] = passes
            metrics = {}
            for name, values in raw.items():
                metrics[name] = (statistics.median(values) / slow, "s")
                print(f"raw {name}: median {statistics.median(values):.6g} s of {len(values)}")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics["import_s"] = (statistics.median(imports) / slow_import, "s")
            print(f"raw import_s: median {statistics.median(imports):.6g} s of {len(imports)}; "
                  f"setup_s: median of {len(setups)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_parent.rmdir()

    for note in tally.notes:
        print(f"FAILED {note}")
    ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':40s} {_fmt(ratio):>14s} ratio ({tally.failed}/{tally.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {_fmt(value):>14s} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
