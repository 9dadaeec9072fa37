"""One benchmark pass in a fresh interpreter.

Started by ``bench/run.py``; prints one JSON line on stdout.  The set-up
clock starts before the first import, so ``setup_s`` covers interpreter
imports and BLAS start-up, input generation with ``sim`` and estimator
construction.  A pass then calls the workload's per-tick entry point once
per tick, timing each call and, next to it, a fixed reference kernel
that reads the host's speed; then it runs the output gate.  With
``--trace 1`` the package's bindings are wrapped for the whole pass and
the per-layer totals are reported too.

Running every pass in its own interpreter means each pass starts with
an empty ``noisecal`` cache, as every ``slam run`` process does.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: landmark_rmse_m is the RMS error over the ticks after the first
#: 1/SKIP_DIV, once the filters have converged from their priors.  Three
#: landmarks at one instant vary too much from seed to seed to bound.
SKIP_DIV = 3
#: Seconds of reference-kernel timing right after set-up, to calibrate it.
SETUP_REF_S = 0.5

# (span, field, phase): the per-layer metric is named "<span>.<field>".
# Tick-phase values are per tick, set-up values per set-up.
LAYER_METRICS = [
    ("noisecal.rate_row_R", "calls", "tick"),
    ("noisecal.rate_row_R", "ms", "tick"),
    ("core.FilterState", "calls", "tick"),
    ("core.FilterState", "ms", "tick"),
    ("vmeas.VirtualMeasurement", "calls", "tick"),
    ("vmeas.VirtualMeasurement", "ms", "tick"),
    ("kalman.ode_step", "calls", "tick"),
    ("kalman.ode_step", "self_ms", "tick"),
    ("kalman.ode_step", "state_dim", "tick"),
    ("kalman.correct", "ms", "tick"),
    ("kalman.predict", "ms", "tick"),
    ("vmeas.case", "calls", "tick"),
    ("vmeas.case", "self_ms", "tick"),
    ("vmeas.stack_measurements", "ms", "tick"),
    ("slam_local.build_measurement", "self_ms", "tick"),
    ("slam_local.LocalMap.step", "self_ms", "tick"),
    ("dunk.pair_measurement", "calls", "tick"),
    ("dunk.pair_measurement", "self_ms", "tick"),
    ("dunk.consensus", "calls", "tick"),
    ("dunk.consensus", "ms", "tick"),
    ("dunk.init_pair", "calls", "tick"),
    ("dunk.init_pair", "ms", "tick"),
    ("coop.coop_step", "self_ms", "tick"),
    ("coop.medium_update", "ms", "tick"),
    ("coop.nn_features", "calls", "tick"),
    ("coop.nn_features", "ms", "tick"),
    ("slam_global.step_global", "self_ms", "tick"),
    ("slam_global.beta_d_closed_form_2d", "ms", "tick"),
    ("sim.sense", "calls", "setup"),
    ("sim.sense", "ms", "setup"),
]


def layer_metrics(tr, n_ticks: int) -> tuple[dict, bool]:
    """Per-layer numbers from a traced pass, and whether self times add up.

    A metric whose span has no live binding is left out, not reported as 0.
    """
    from tracer import summarize

    tables = {"tick": summarize(tr.spans, True),
              "setup": summarize(tr.spans, False)}
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "probe": 0.0, "probe_n": 0}
    out = {}
    for span, fld, phase in LAYER_METRICS:
        if span not in tr.wrapped:
            continue
        agg = tables[phase].get(span, zero)
        per = n_ticks if phase == "tick" else 1
        if fld == "calls":
            value = agg["calls"] / per
        elif fld == "ms":
            value = 1e3 * agg["s"] / per
        elif fld == "self_ms":
            value = 1e3 * agg["self_s"] / per
        elif agg["probe_n"]:
            value = agg["probe"] / agg["probe_n"]
        else:
            continue
        out[f"{span}.{fld}"] = value
    import ltvslam.noisecal as noisecal
    cached = getattr(noisecal, "_rate_row_var_cached", None)
    if cached is not None and hasattr(cached, "cache_info"):
        info = cached.cache_info()
        calls = info.hits + info.misses
        out["noisecal.rate_cache.hit_ratio"] = info.hits / calls if calls else 0.0
    ticks = tables["tick"]
    tick_s = ticks["tick"]["s"]
    out["tick.unattributed_ms"] = 1e3 * ticks["tick"]["self_s"] / n_ticks
    out["trace.tick_ms"] = 1e3 * tick_s / n_ticks
    self_total = sum(a["self_s"] for a in ticks.values())
    additive = abs(self_total - tick_s) <= 1e-9 * max(tick_s, 1.0)
    return out, additive


_REF_M = np.eye(4) * 4.0 + np.arange(16.0).reshape(4, 4) / 16.0
_REF_V = np.ones(4)


def reference_kernel() -> float:
    """Fixed work of the kind a tick is made of: 4x4 solves and matmuls,
    and Python arithmetic.  Its time reads the host's speed."""
    acc = 0.0
    for _ in range(8):
        acc += float(np.linalg.solve(_REF_M, _REF_V)[0])
        acc += float((_REF_M @ _REF_M.T)[0, 0])
        acc += sum(i * 0.5 for i in range(20))
    return acc


def time_reference() -> float:
    """Seconds for one reference kernel, run warm: the tick just before it
    may have evicted its code and data from the caches."""
    reference_kernel()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def reference_over(seconds: float) -> float:
    """Median reference-kernel time over a window of about ``seconds``."""
    end = time.perf_counter() + seconds
    samples = [time_reference()]
    while time.perf_counter() < end:
        samples.append(time_reference())
    return float(np.median(samples))


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        f.write("name,start_s,end_s,parent,tick\n")
        for name, start, end, parent, tick, _ in spans:
            f.write(f"{name},{start!r},{end!r},{parent},{tick}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "ltvslam" / "__init__.py").is_file():
        print(f"no ltvslam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS
    import ltvslam

    if Path(ltvslam.__file__).resolve().parent != SRC / "ltvslam":
        print(f"ltvslam imported from {ltvslam.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    reference_kernel()   # BLAS start-up
    w = WORKLOADS[args.workload]

    tr = None
    if args.trace:
        from tracer import Tracer
        tr = Tracer()
        missing = tr.install()

    def root(name):
        return tr.root(name) if tr else contextlib.nullcontext()

    try:
        with root("setup"):
            inputs = w.generate(args.seed)
            est = w.build(inputs)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "dt": inputs.dt,
                  "setup_ref_s": reference_over(SETUP_REF_S)}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        n = len(inputs.ticks)
        window = n // SKIP_DIV
        lat, ref = [], []
        sq_err, n_err = 0.0, 0
        failed_at, error = None, None
        clock = time.perf_counter
        for i, tick_inputs in enumerate(inputs.ticks):
            try:
                ref.append(time_reference())
                if tr:
                    tr.tick = i
                with root("tick"):
                    t0 = clock()
                    w.tick(est, tick_inputs)
                    t1 = clock()
                if tr:
                    tr.tick = -1
                lat.append(t1 - t0)
                if not w.finite(est):
                    raise FloatingPointError(f"non-finite estimate after tick {i}")
                if i >= window:
                    e = w.errors(est, inputs, i)
                    sq_err += float(np.sum(np.square(e)))
                    n_err += e.size
            except Exception:   # any raise fails this tick and the rest
                failed_at, error = i, traceback.format_exc()
                break
        ref.append(time_reference())   # the host speed after the last tick

        gate = None
        if failed_at is None:
            try:
                with root("gate"):
                    gate = w.gate(est, inputs)
            except Exception:
                error = traceback.format_exc()
        rmse = math.sqrt(sq_err / n_err) if n_err else math.inf
        gate_ok = gate is not None and gate.ok and math.isfinite(rmse)
        if failed_at is not None:
            failed = n - failed_at
        else:
            failed = 0 if gate_ok else n
        fingerprint = None
        if failed_at is None:
            x = np.ascontiguousarray(w.estimates(est), dtype=float)
            fingerprint = hashlib.sha256(x.tobytes()).hexdigest()[:16]
        result.update({
            "lat_s": lat,
            "ref_s": ref,
            "attempted": n,
            "failed": failed,
            "landmark_rmse_m": rmse,
            "gate": None if gate is None else gate.detail,
            "fingerprint": fingerprint,
            "error": error,
        })
    finally:
        if tr:
            tr.restore()
    if tr:
        layers, additive = layer_metrics(tr, n)
        result.update({"layers": layers, "additive": additive,
                       "missing_bindings": missing})
        write_spans(tr.spans, OUT / f"spans-{w.name}-seed{args.seed}.csv")
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
