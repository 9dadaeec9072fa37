"""In-memory span tracer that wraps the package's functions from outside.

A wrap target is a binding a caller looks up at call time: a module
attribute (``coop.ode_step`` and ``dunk.ode_step`` are separate bindings
of one function) or a class attribute (``FilterState.__post_init__``).
Each call through a wrapped binding records a span ``[name, start, end,
parent, tick, probe]``; spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under a root add up to the
root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (span name, "module" or "module:Class", attribute).  Several bindings may
# share one span name: they are the same layer reached from different
# callers.
WRAPS = [
    ("core.FilterState", "ltvslam.core:FilterState", "__post_init__"),
    ("vmeas.VirtualMeasurement", "ltvslam.vmeas:VirtualMeasurement",
     "__post_init__"),
    ("kalman.step", "ltvslam.slam_local", "step"),
    ("kalman.ode_step", "ltvslam.kalman", "ode_step"),
    ("kalman.ode_step", "ltvslam.slam_global", "ode_step"),
    ("kalman.ode_step", "ltvslam.dunk", "ode_step"),
    ("kalman.ode_step", "ltvslam.coop", "ode_step"),
    ("kalman.correct", "ltvslam.kalman", "_correct"),
    ("kalman.predict", "ltvslam.kalman", "_predict"),
    *[("vmeas.case", "ltvslam.vmeas", f"case{k}") for k in range(1, 6)],
    ("vmeas.stack_measurements", "ltvslam.vmeas", "stack_measurements"),
    ("noisecal.rate_row_R", "ltvslam.noisecal", "rate_row_R"),
    ("slam_local.build_measurement", "ltvslam.slam_local", "build_measurement"),
    ("slam_local.build_measurement", "ltvslam.slam_global", "build_measurement"),
    ("slam_local.build_measurement", "ltvslam.dunk", "build_measurement"),
    ("slam_local.LocalMap.step", "ltvslam.slam_local:LocalMap", "step"),
    ("slam_global.step_global", "ltvslam.slam_global", "step_global"),
    ("slam_global.beta_d_closed_form_2d", "ltvslam.slam_global",
     "beta_d_closed_form_2d"),
    ("slam_global.beta_d_closed_form_2d", "ltvslam.dunk",
     "beta_d_closed_form_2d"),
    ("slam_global.beta_d_closed_form_2d", "ltvslam.coop",
     "beta_d_closed_form_2d"),
    ("dunk.pair_measurement", "ltvslam.dunk", "pair_measurement"),
    ("dunk.pair_measurement", "ltvslam.coop", "pair_measurement"),
    ("dunk.consensus", "ltvslam.dunk", "consensus"),
    ("dunk.consensus", "ltvslam.coop", "consensus"),
    ("dunk.init_pair", "ltvslam.dunk", "init_pair"),
    ("dunk.init_pair", "ltvslam.coop", "init_pair"),
    ("coop.coop_step", "ltvslam.coop", "coop_step"),
    ("coop.medium_update", "ltvslam.coop", "medium_update"),
    ("coop.nn_features", "ltvslam.coop", "nn_features"),
    ("sim.sense", "ltvslam.sim", "sense"),
    ("runner.make_coop_maps", "ltvslam.runner", "make_coop_maps"),
    ("runner.align_procrustes", "ltvslam.runner", "align_procrustes"),
    ("runner.map_discrepancy", "ltvslam.runner", "map_discrepancy"),
]


def _state_dim(args, kwargs):
    return args[0].dim


#: Per-call numbers recorded in a span's probe slot, by span name.
PROBES = {"kalman.ode_step": _state_dim}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Records spans for wrapped bindings between ``install`` and ``restore``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.tick = -1
        self.wrapped: set[str] = set()   # span names with >= 1 live binding
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        # records like root() but inline: this runs hundreds of times a tick
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.tick,
                   None]
            if probe is not None:
                try:
                    rec[5] = probe(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """One span around a block: a tick, the set-up or the output gate."""
        rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1,
               self.tick, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    # -- install / restore ---------------------------------------------------

    def install(self, wraps=WRAPS) -> list[str]:
        """Wrap every binding that exists; return the ones that are missing."""
        missing = []
        for name, owner, attr in wraps:
            try:
                target = _resolve(owner)
            except (ImportError, AttributeError):
                missing.append(f"{owner}.{attr}")
                continue
            if isinstance(target, type):
                if attr not in target.__dict__:
                    missing.append(f"{owner}.{attr}")
                    continue
                original = target.__dict__[attr]
            elif hasattr(target, attr):
                original = getattr(target, attr)
            else:
                missing.append(f"{owner}.{attr}")
                continue
            self._saved.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original, PROBES.get(name)))
            self.wrapped.add(name)
        return missing

    def restore(self) -> None:
        """Put every original binding back, in reverse order of wrapping."""
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def summarize(spans: list[list], in_ticks: bool = True) -> dict[str, dict]:
    """Totals per span name over the tick spans (or over the rest).

    ``calls`` counts every span; ``s`` is inclusive time, counting only
    spans with no ancestor of the same name so that nesting (``case4``
    falling back to ``case1``) is not counted twice; ``self_s`` is the
    duration minus that of the direct children; ``probe`` sums the
    per-call probe values over ``probe_n`` calls.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, tick, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "probe": 0.0,
                 "probe_n": 0})
    for i, (name, start, end, parent, tick, probe) in enumerate(spans):
        if (tick >= 0) != in_ticks:
            continue
        agg = out[name]
        dur = end - start
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        if probe is not None:
            agg["probe"] += probe
            agg["probe_n"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += dur
    return dict(out)
