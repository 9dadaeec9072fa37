"""Tests of the benchmark itself: tracer arithmetic, restore, input seeding.

Run with ``python3 -m pytest bench -q`` from the root of the repository.
"""

import pickle
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """Advances by a fixed step per reading, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_span_minus_children():
    tr = Tracer(clock=FakeClock())
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: (leaf(), leaf()))
    tr.tick = 0
    with tr.root("tick"):
        mid()
        leaf()
    agg = summarize(tr.spans)
    spans = {i: s for i, s in enumerate(tr.spans)}
    dur = {i: s[2] - s[1] for i, s in spans.items()}
    kids = {i: [j for j, s in spans.items() if s[3] == i] for i in spans}
    for name in ("tick", "mid", "leaf"):
        want = sum(dur[i] - sum(dur[j] for j in kids[i])
                   for i, s in spans.items() if s[0] == name)
        assert agg[name]["self_s"] == want
    assert agg["leaf"]["calls"] == 3 and agg["mid"]["calls"] == 1
    assert sum(a["self_s"] for a in agg.values()) == agg["tick"]["s"]


def test_nested_spans_of_one_name_count_once_inclusive():
    tr = Tracer(clock=FakeClock())
    inner = tr.wrap("case", lambda: None)
    outer = tr.wrap("case", lambda: inner())
    tr.tick = 0
    outer()
    agg = summarize(tr.spans)["case"]
    outer_span = tr.spans[0]
    assert agg["calls"] == 2
    assert agg["s"] == outer_span[2] - outer_span[1]


def _bindings():
    out = []
    for _, owner, attr in tracer_mod.WRAPS:
        target = tracer_mod._resolve(owner)
        out.append(target.__dict__[attr] if isinstance(target, type)
                   else getattr(target, attr))
    return out


def test_install_wraps_and_restore_puts_originals_back():
    before = _bindings()
    tr = Tracer()
    assert tr.install() == []
    during = _bindings()
    assert all(a is not b for a, b in zip(before, during))
    tr.restore()
    assert all(a is b for a, b in zip(before, _bindings()))


def test_missing_binding_is_reported_not_fatal():
    tr = Tracer()
    missing = tr.install([("gone", "ltvslam.kalman", "no_such_function"),
                          ("gone", "ltvslam.no_such_module", "f"),
                          ("kalman.ode_step", "ltvslam.kalman", "ode_step")])
    tr.restore()
    assert missing == ["ltvslam.kalman.no_such_function",
                       "ltvslam.no_such_module.f"]
    assert tr.wrapped == {"kalman.ode_step"}


def test_traced_pass_self_times_add_up_and_zeros_hold():
    w = WORKLOADS["local-case3"]
    tr = Tracer()
    tr.install()
    try:
        with tr.root("setup"):
            inputs = w.generate(3)
            est = w.build(inputs)
        for i, tick_inputs in enumerate(inputs.ticks[:20]):
            tr.tick = i
            with tr.root("tick"):
                w.tick(est, tick_inputs)
    finally:
        tr.restore()
    layers, additive = worker.layer_metrics(tr, 20)
    assert additive
    assert layers["noisecal.rate_row_R.calls"] == 3.0
    assert layers["coop.coop_step.self_ms"] == 0.0
    assert layers["dunk.pair_measurement.calls"] == 0.0
    assert layers["sim.sense.calls"] == 3 * w.n_ticks


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, monkeypatch):
    w = WORKLOADS[name]
    monkeypatch.setattr(w, "n_ticks", 20)
    a = pickle.dumps(w.generate(11).ticks)
    b = pickle.dumps(w.generate(11).ticks)
    c = pickle.dumps(w.generate(12).ticks)
    assert a == b
    assert a != c


def test_calibration_scales_by_the_reference_around_each_tick():
    nominal = run.REF_NOMINAL_S
    steady = {"lat_s": [0.02] * 4, "ref_s": [nominal] * 5}
    assert run.calibrated(steady) == pytest.approx(steady["lat_s"])
    # the host slows to half speed after tick 1: the ticks and the
    # reference kernel both take twice as long, the calibrated time does not;
    # tick 1 straddles the change and is read at the mean speed
    slow = {"lat_s": [0.02, 0.03, 0.04, 0.04],
            "ref_s": [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal]}
    assert run.calibrated(slow) == pytest.approx([0.02, 0.02, 0.02, 0.02])
