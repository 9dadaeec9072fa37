"""Print one digest per reference trace, to check that a refactor is bit-identical.

Runs the 18 reference runs through ``runner.run``, 4 s each, into a
temporary directory: ``local``, ``global`` and ``dunk`` in Cases 1-5 on
``single-vehicle-2d``, and ``coop-full``, ``coop-partial`` and
``coop-robots`` on their builtin scenarios.  Prints ``name sha256[:16]``
of each run's ``trace.csv``, one line per run.  BLAS runs on one thread,
so the digests do not depend on the thread count.

Usage: python3 tools/trace_digests.py
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ltvslam.runner import COOP_MODES, RunConfig, run  # noqa: E402

DURATION_S = 4.0


def reference_runs():
    """(name, RunConfig) of every reference run, without an output directory."""
    for mode in ("local", "global", "dunk"):
        for case in range(1, 6):
            yield f"{mode}-{case}", RunConfig(mode=mode, case=case,
                                              duration=DURATION_S)
    for mode in COOP_MODES:
        yield mode, RunConfig(mode=mode, scenario=mode, duration=DURATION_S)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in reference_runs():
            cfg.out_dir = os.path.join(tmp, name)
            run(cfg)
            trace = Path(cfg.out_dir, "trace.csv").read_bytes()
            print(name, hashlib.sha256(trace).hexdigest()[:16], flush=True)


if __name__ == "__main__":
    main()
