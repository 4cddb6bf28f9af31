"""Kernel timings before and after a change, written to one JSON file.

    git archive <base-rev> src | tar -x -C /tmp/base
    python3 scripts/bench_kernels.py --before-src /tmp/base/src --out BENCH_2.json

Times three entry points of the currently checked-out `src/` ("after") and
of the `src/` tree given with --before-src ("before"), each side in its own
fresh, single-threaded process on the same machine:

- `parity._signal_batch` per photon-addition order m at batch 1, 201, 1001;
- `parity.optimal_phase` per m (its 1001-point scan plus golden section);
- `moments.moment_set` per m.

The probe is alpha = 2, r = 0.5, loss = 0.1. Each timing repeats until it
has run at least three times and 0.3 s (a single run above 1 s is kept
alone) and reports the minimum and the median per call in ms. The file is
stamped with nproc and the Python and numpy versions. A tree that still builds
the kernels as multivariate jets needs about 1.3 GB of memory and 35 s per
call at m = 10 and batch 1001.
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

M_LIST = (0, 1, 2, 3, 6, 10)
BATCHES = (1, 201, 1001)
ROOT = Path(__file__).resolve().parent.parent


def _time(fn) -> dict:
    runs = []
    total = 0.0
    while len(runs) < 3 or total < 0.3:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        runs.append(dt)
        total += dt
        if len(runs) == 1 and dt > 1.0:
            break
    return {
        "min_ms": round(min(runs) * 1e3, 4),
        "median_ms": round(statistics.median(runs) * 1e3, 4),
        "runs": len(runs),
    }


def measure() -> dict:
    """Timings of the mzphase importable in this process."""
    import numpy as np

    from mzphase.moments import moment_set
    from mzphase.parity import _signal_batch, optimal_phase
    from mzphase.states import ProbeParams

    out: dict = {"signal_batch": {}, "optimal_phase": {}, "moment_set": {}}
    for m in M_LIST:
        p = ProbeParams(alpha=2.0, r=0.5, m=m, loss=0.1)
        for batch in BATCHES:
            grid = np.linspace(1e-4, 1.5, batch)
            out["signal_batch"][f"m{m}_b{batch}"] = _time(lambda: _signal_batch(p, grid))
        out["optimal_phase"][f"m{m}"] = _time(lambda: optimal_phase(p))
        out["moment_set"][f"m{m}"] = _time(lambda: moment_set(p))
    return out


def _side(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, __file__, "--measure"]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _speedups(before: dict, after: dict) -> dict:
    return {
        f"{group}.{key}": round(before[group][key]["min_ms"] / a["min_ms"], 2)
        for group, rows in after.items()
        for key, a in rows.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before-src", type=Path, help="src/ directory of the tree to compare against")
    ap.add_argument("--before-label", default="parent commit", help="what --before-src holds")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_2.json")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.measure:
        print(json.dumps(measure()))
        return 0

    import numpy as np

    report = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "blas_threads": 1,
        },
        "probe": {"alpha": 2.0, "r": 0.5, "loss": 0.1, "m": list(M_LIST), "batches": list(BATCHES)},
        "units": "ms per call",
    }
    if args.before_src is not None:
        report["before"] = {"label": args.before_label, "ms": _side(args.before_src.resolve())}
    report["after"] = {"label": "working tree", "ms": _side(ROOT / "src")}
    if args.before_src is not None:
        report["speedup_min"] = _speedups(report["before"]["ms"], report["after"]["ms"])
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
