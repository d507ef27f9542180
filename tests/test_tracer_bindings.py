"""The package names that the benchmark's per-layer tracer wraps.

``perfbench/tracer.py`` swaps module attributes for timing wrappers by
reading ``owner.__dict__[attr]``, so a rename or removal in the package
breaks ``run.py --trace 1`` with a KeyError.  These tests install a tracer,
check that it wraps the names the inverse calls, and check that removing it
puts every original back.
"""

import importlib.util
from pathlib import Path

import pytest

from heptacyclic import cli, factor, inverse, kernels, solve
from heptacyclic.matrix import CyclicHeptaMatrix, random_instance

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute a tracer may patch, by identity."""
    owners = [cli, factor, inverse, solve, CyclicHeptaMatrix]
    snapshot = {(id(owner), name): value for owner in owners
                for name, value in vars(owner).items()}
    snapshot.update({("ACTIVE_IMPLS", name): value
                     for name, value in kernels.ACTIVE_IMPLS.items()})
    return snapshot


def test_install_and_remove_restore_every_binding(tracer_module):
    before = _bindings()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert (inverse, "seed_columns") in patched
        assert (inverse, "back_columns") in patched
        for module in (factor, inverse, solve):
            assert (module, "factorize") in patched
            assert (module, "eval_at_zero") in patched
        for owner, attr, original in tracer._patches:
            current = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
            assert current is not original
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrapped_inverse_stages_are_the_ones_called(tracer_module):
    # with a zero pivot the seeds run once, over the residue lanes of every
    # point, and so do the back columns; no Fraction sweep runs
    H = random_instance(12, 1, "zero-pivot-prone")
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        res = cli.invert(H)
    finally:
        tracer.remove()
    assert res.pivot_overrides
    assert tracer.calls["inverse.seed_columns"] == 1
    assert tracer.calls["inverse.back_columns"] == 1
    assert tracer.calls["factor.factorize"] == 0
