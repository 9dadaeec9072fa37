"""Smoke test of the benchmark workloads against the package.

The workloads in ``bench/workloads.py`` read estimator internals (pair
states, local filters, the global state, ``RobotMap.landmark_positions``,
the medium's ``x_ck``) and call ``sim.sense(..., robot=)``.  A short run
of each catches a package change that breaks those reads, or makes an
estimate or an error non-finite, before a bench run reports it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


#: ``ltvslam.coop`` bindings the tracer still lists; the calls arrive
#: through the ``ltvslam.dunk`` bindings of the same names.
STALE_WRAPS = {("ltvslam.coop", name) for name in (
    "ode_step", "beta_d_closed_form_2d", "pair_measurement", "consensus",
    "init_pair")}


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads").WORKLOADS


def test_every_traced_binding_resolves():
    # a binding that moves without its WRAPS entry would drop a span silently
    tracer = _bench_module("tracer")
    missing = [f"{target}.{attr}" for _, target, attr in tracer.WRAPS
               if not hasattr(tracer._resolve(target), attr)
               and (target, attr) not in STALE_WRAPS]
    assert not missing


@pytest.mark.parametrize("name", ["coop-full", "local-case3", "global-dense"])
def test_workload_ticks_give_finite_estimates_and_errors(workloads, name,
                                                         monkeypatch):
    w = workloads[name]
    monkeypatch.setattr(w, "n_ticks", 20)
    inputs = w.generate(1)
    assert len(inputs.ticks) == 20
    est = w.build(inputs)
    for i, tick_inputs in enumerate(inputs.ticks):
        w.tick(est, tick_inputs)
        assert w.finite(est)
        assert np.all(np.isfinite(w.errors(est, inputs, i)))
