"""Benchmark launcher: tick latency, real-time factor and map accuracy.

Usage, from the root of a checkout:

    python3 bench/run.py --workload coop-full --seed 1 --seconds 15 --trace 0

Every pass runs in a fresh interpreter (``bench/worker.py``) with BLAS
pinned to one thread, so each pass pays imports, BLAS start-up and an
empty ``noisecal`` cache as a ``slam run`` process does.

With ``--trace 0`` the launcher runs passes on the seed's inputs until
at least ``--seconds`` of estimator time has been measured, tops the
set-up samples up to ``MIN_SETUPS`` with set-up-only workers, and
reports the end-to-end metrics.  Tick times are calibrated against a
reference kernel timed next to every tick (see ``calibrated``); the raw
times are in the report too.  With ``--trace 1`` it runs one untraced
and one traced pass on the same inputs and reports the per-layer
metrics.

The report goes to stdout, one metric per line, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  A copy of the
full result, with machine facts and per-pass detail, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

WORKLOADS = ("coop-full", "local-case3", "global-dense")
BLAS_THREADS = "1"
#: Set-up samples per run; set-up-only workers top up the timed passes.
MIN_SETUPS = 3
#: Times are reported at the host speed where the reference kernel takes
#: this long; see calibrated() and bench/README.md.
REF_NOMINAL_S = 1e-4
#: Start no new pass after this much wall time, so a run ends in 180 s.
WALL_BUDGET_S = 100.0
WORKER_TIMEOUT_S = 170.0

UNITS = {
    "tick_ms_p50": "ms", "tick_ms_p95": "ms", "realtime_factor": "1",
    "setup_s": "s", "peak_rss_mb": "MB", "landmark_rmse_m": "m",
    "tick_ok_frac": "1",
}


class WorkerError(RuntimeError):
    """A worker exited with an error or printed no result."""


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, trace: int = 0,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, env=worker_env()) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"worker timed out: {' '.join(cmd)}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker failed ({proc.returncode}): {err.strip()}")
    return json.loads(lines[-1])


def p95(values) -> float:
    """95th percentile, interpolating linearly between order statistics."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def check_passes(passes: list[dict]) -> list[str]:
    """Reasons the passes are not correct; empty when they are."""
    problems = []
    for i, p in enumerate(passes):
        if p["failed"]:
            problems.append(f"pass {i}: {p['failed']} of {p['attempted']} "
                            f"ticks failed; gate {p['gate']}; "
                            f"error {p['error']}")
    prints = {p["fingerprint"] for p in passes}
    if len(prints) > 1:
        problems.append(f"same seed, different final estimates: {prints}")
    return problems


def counts(passes: list[dict], problems: list[str]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"attempted": attempted, "failed": failed,
            "tick_fail_frac": failed / attempted, "problems": problems}


def calibrated(p: dict) -> list[float]:
    """A pass's tick times at the nominal host speed.

    Tick i's time is scaled by REF_NOMINAL_S over the mean time of the
    reference kernel timed just before it and just after it.
    """
    ref = p["ref_s"]
    return [lat * REF_NOMINAL_S / statistics.fmean(ref[i:i + 2])
            for i, lat in enumerate(p["lat_s"])]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    started = time.monotonic()
    passes: list[dict] = []
    measured = 0.0
    while not passes or (measured < seconds and
                         time.monotonic() - started < WALL_BUDGET_S):
        passes.append(run_worker(workload, seed))
        measured += sum(passes[-1]["lat_s"])
    setups = passes + [run_worker(workload, seed, setup_only=True)
                       for _ in range(MIN_SETUPS - len(passes))]

    raw = [x for p in passes for x in p["lat_s"]]
    cal = [x for p in passes for x in calibrated(p)]
    sim_s = len(raw) * passes[0]["dt"]
    c = counts(passes, check_passes(passes))
    metrics = {
        "tick_ms_p50": 1e3 * statistics.median(cal),
        "tick_ms_p95": 1e3 * p95(cal),
        "realtime_factor": sim_s / sum(cal),
        "setup_s": statistics.median(p["setup_s"] * REF_NOMINAL_S
                                     / p["setup_ref_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "landmark_rmse_m": passes[0]["landmark_rmse_m"],
        "tick_ok_frac": 1.0 - c["tick_fail_frac"],
    }
    detail = {
        "passes": len(passes), "tick_samples": len(raw),
        "raw_tick_ms_p50": 1e3 * statistics.median(raw),
        "raw_tick_ms_p95": 1e3 * p95(raw),
        "raw_realtime_factor": sim_s / sum(raw),
        "raw_setup_s": statistics.median(p["setup_s"] for p in setups),
        "reference_ms_median": 1e3 * statistics.median(
            x for p in passes for x in p["ref_s"]),
        "gate": passes[0]["gate"], **c,
        "ticks": [{"lat_s": p["lat_s"], "ref_s": p["ref_s"]} for p in passes],
    }
    return metrics, detail


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    plain = run_worker(workload, seed)
    traced = run_worker(workload, seed, trace=1)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ms"] = 1e3 * (
        statistics.median(calibrated(traced))
        - statistics.median(calibrated(plain)))
    problems = check_passes([plain, traced])
    if not traced["additive"]:
        problems.append("self times do not add up to the traced tick time")
    detail = {"missing_bindings": traced["missing_bindings"],
              **counts([plain, traced], problems)}
    return metrics, detail


def layer_unit(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith((".calls", ".state_dim")):
        return "count"
    return "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ltvslam" / "__init__.py").is_file():
        print(f"no ltvslam sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            values, detail = per_layer(args.workload, args.seed)
        else:
            values, detail = end_to_end(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    facts = machine_facts()
    metrics = {k: {"value": v, "unit": UNITS.get(k) or layer_unit(k)}
               for k, v in values.items()}
    print(f"machine: {json.dumps(facts)}")
    summary = {k: v for k, v in detail.items()
               if k not in ("problems", "ticks")}
    print(f"{args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{json.dumps(summary)}")
    for problem in detail["problems"]:
        print(f"FAIL: {problem}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not detail["problems"],
              "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as f:
        json.dump({"machine": facts, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "detail": detail, **result}, f, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
