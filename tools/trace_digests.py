"""Print one digest per reference trace, to check that a refactor is bit-identical.

Runs the 21 reference runs through ``runner.run``, 4 s each: ``local``,
``global`` and ``dunk`` in Cases 1-5 on ``single-vehicle-2d``, and
``coop-full``, ``coop-partial`` and ``coop-robots`` on their builtin
scenarios; then ``local``, ``global`` and ``dunk`` in Case 4 on
``single-vehicle-2d`` plus a landmark at the circle's centre, whose range
never changes, so every tick mixes sightings with and without a
time-to-contact reading.  Prints ``name sha256[:16]`` of each run's ``trace.csv``, one
line per run.  BLAS runs on one thread, so the digests do not depend on
the thread count.

``--keep DIR`` writes the runs under DIR (one directory per run) instead
of a temporary directory.  ``--compare DIR`` reads the traces a kept
directory holds and adds, per run, the largest |est - est_kept| in
metres and the largest |var - var_kept| / |var_kept|, so the tolerance
of a trace that moved can be stated and reproduced.  It also adds the
largest relative change of the non-timing floats of ``metrics.json``
(``final_e_c``, ``final_e_h``, ``final_discrepancy_m`` and each landmark of
``final_errors_m``) and the field it is in, and each run's sensing time
(``stage_seconds["sense"]``, kept -> now; a wall time, so it varies from run
to run).

Usage: python3 tools/trace_digests.py [--keep DIR] [--compare DIR]
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ltvslam.runner import COOP_MODES, RunConfig, run  # noqa: E402
from ltvslam.sim import scenario_single_vehicle_2d  # noqa: E402

DURATION_S = 4.0
KEY = ("t", "robot", "entity", "id", "component")
METRICS = ("final_e_c", "final_e_h", "final_discrepancy_m", "final_errors_m")


def reference_runs(root: Path):
    """(name, RunConfig) of every reference run, without an output directory.

    The centre runs read their world from ``root / "centre.json"``.
    """
    for mode in ("local", "global", "dunk"):
        for case in range(1, 6):
            yield f"{mode}-{case}", RunConfig(mode=mode, case=case,
                                              duration=DURATION_S)
    for mode in COOP_MODES:
        yield mode, RunConfig(mode=mode, scenario=mode, duration=DURATION_S)
    world = json.loads(scenario_single_vehicle_2d().to_json())
    world["landmarks"].append({"id": 9, "position_m": [0.0, 0.0],
                               "diameter_m": 2.0})
    centre = root / "centre.json"
    centre.write_text(json.dumps(world))
    for mode in ("local", "global", "dunk"):
        yield f"{mode}-4-centre", RunConfig(mode=mode, case=4,
                                            scenario=str(centre),
                                            duration=DURATION_S)


def deviation(trace: Path, kept: Path) -> str:
    """Largest |d est| (m) and relative |d var| of ``trace`` against ``kept``."""
    with open(trace, newline="") as f, open(kept, newline="") as g:
        rows, kept_rows = list(csv.DictReader(f)), list(csv.DictReader(g))
    if [[r[k] for k in KEY] for r in rows] != [[r[k] for k in KEY]
                                               for r in kept_rows]:
        return "rows differ from the kept trace"
    d_est = d_var = 0.0
    for r, k in zip(rows, kept_rows):
        d_est = max(d_est, abs(float(r["est"]) - float(k["est"])))
        var, var_kept = float(r["var"]), float(k["var"])
        d_var = max(d_var, abs(var - var_kept) / abs(var_kept) if var_kept
                    else abs(var))
    return f"max|d est| {d_est:.2e} m  max rel|d var| {d_var:.2e}"


def metrics_deviation(metrics: Path, kept: Path) -> str:
    """Largest relative change of the ``METRICS`` floats against ``kept``."""
    new, old = json.loads(metrics.read_text()), json.loads(kept.read_text())
    worst, where = 0.0, ""
    for key in METRICS:
        a, b = new[key], old[key]
        if isinstance(b, dict) and isinstance(a, dict) and a.keys() == b.keys():
            pairs = [(f"{key}[{k}]", a[k], b[k]) for k in b]
        elif isinstance(b, dict) or isinstance(a, dict) or (a is None) != (b is None):
            return f"{key} differs in shape from the kept run"
        else:
            pairs = [] if b is None else [(key, a, b)]
        for name, x, y in pairs:
            rel = abs(x - y) / abs(y) if y else abs(x)
            if rel > worst:
                worst, where = rel, f" ({name})"
    return f"max rel|d metric| {worst:.2e}{where}"


def sense_seconds(metrics: Path, kept: Path) -> str:
    """``stage_seconds["sense"]`` of the kept run and of this one."""
    old, new = (json.loads(p.read_text())["stage_seconds"]["sense"] for p in (kept, metrics))
    return f"sense {old:.3f} -> {new:.3f} s"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path,
                        help="write the runs under this directory")
    parser.add_argument("--compare", type=Path,
                        help="report deviations from the traces kept here")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = args.keep or Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        for name, cfg in reference_runs(root):
            cfg.out_dir = str(root / name)
            run(cfg)
            trace = Path(cfg.out_dir, "trace.csv")
            line = f"{name} {hashlib.sha256(trace.read_bytes()).hexdigest()[:16]}"
            if args.compare is not None:
                kept = args.compare / name
                metrics = Path(cfg.out_dir, "metrics.json")
                line += "  ".join(["", deviation(trace, kept / "trace.csv"),
                                   metrics_deviation(metrics, kept / "metrics.json"),
                                   sense_seconds(metrics, kept / "metrics.json")])
            print(line, flush=True)


if __name__ == "__main__":
    main()
