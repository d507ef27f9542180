"""Tests of the benchmark itself: the checker, the seeded generator and
the result line.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import instances as I
import run
import workloads

ROOT = Path(run.__file__).resolve().parent.parent
CLI = run._import_package()


def _ops(tmp_path, workload):
    return workloads.build_ops(workload, 3, tmp_path, "tiny")


def _run_op(op):
    ok, note, _ = run.execute(CLI, op)
    assert ok, note
    return json.loads(op.out.read_text())


def _corrupt_and_judge(op, payload):
    op.out.write_text(json.dumps(payload))
    return run.judge(op, op.expect_rc, "")[0]


def _bump(text: str) -> str:
    """A different scalar of the same kind."""
    if "." in text or "e" in text:
        return repr(float(text) * (1 + 1e-6) + 1e-6)
    num, _, den = text.partition("/")
    return f"{int(num) + 1}/{den}" if den else str(int(num) + 1)


@pytest.mark.parametrize("workload,label", [
    ("exact-plain", "det-a"), ("exact-plain", "det-rat-b"),
    ("exact-symbolic", "det-d1-a"), ("float-lane", "det-rat-a"),
])
def test_checker_rejects_corrupted_determinant(tmp_path, workload, label):
    op = next(op for op in _ops(tmp_path, workload) if op.label.endswith(" " + label))
    payload = _run_op(op)
    payload["det"] = _bump(payload["det"])
    assert not _corrupt_and_judge(op, payload)


@pytest.mark.parametrize("workload,label", [
    ("exact-plain", "solve-a"), ("exact-plain", "solve-2col-b"),
    ("exact-symbolic", "solve-d1-b"), ("float-lane", "solve-a"), ("float-lane", "solve-4col-b"),
])
def test_checker_rejects_corrupted_solution_entry(tmp_path, workload, label):
    op = next(op for op in _ops(tmp_path, workload) if op.label.endswith(" " + label))
    payload = _run_op(op)
    column = payload["x"] if op.columns == 1 else payload["x"][-1]
    column[len(column) // 2] = _bump(column[len(column) // 2])
    assert not _corrupt_and_judge(op, payload)


@pytest.mark.parametrize("workload,label", [
    ("exact-plain", "inv-a"), ("exact-symbolic", "inv-collision"), ("float-lane", "inv-b"),
])
def test_checker_rejects_corrupted_inverse_entry(tmp_path, workload, label):
    op = next(op for op in _ops(tmp_path, workload) if op.label.endswith(" " + label))
    payload = _run_op(op)
    payload["S"][2][5] = _bump(payload["S"][2][5])
    assert not _corrupt_and_judge(op, payload)


@pytest.mark.parametrize("workload", ["exact-symbolic", "float-lane"])
def test_refusal_counts_only_exit_2_without_traceback(tmp_path, workload):
    op = next(op for op in _ops(tmp_path, workload) if op.kind == "refusal")
    assert run.execute(CLI, op)[0]
    assert not run.judge(op, 0, "")[0]
    assert not run.judge(op, 2, "Traceback (most recent call last):\n  ...\nKeyError: 1\n")[0]


def test_instances_follow_the_seed(tmp_path):
    def files(seed, sub):
        ops = workloads.build_ops("exact-symbolic", seed, tmp_path / sub, "tiny")
        return [Path(op.argv[2]).read_text() for op in ops]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_dominant_instances_plant_nothing():
    inst = I.dominant(I.rng_for("t", 1, "x"), 64)
    assert inst.plain
    assert all(c != 0 for c in inst.bands["C"][: 64 - 5])
    for i in range(64):
        others = sum(abs(inst.bands[k][i]) for k in I.BAND_NAMES if k != "d")
        assert abs(inst.bands["d"][i]) > others


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(workload, trace):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, stdout = _result(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        report = {}
        for line in stdout.strip().splitlines()[:-1]:
            fields = line.split()
            if len(fields) >= 3:
                report[fields[0]] = fields[2]
        assert {name: report.get(name) for name in expected} == expected
        if trace:
            assert "DOES NOT HOLD" not in stdout


def test_traced_counters_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        result, _ = _result("exact-symbolic", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"})
    assert counts[0] == counts[1]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "exact-plain", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
