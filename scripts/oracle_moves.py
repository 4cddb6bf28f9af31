"""Fock-oracle values that move between two trees, written to one JSON file.

    git archive <base-rev> src | tar -x -C /tmp/base
    python3 scripts/oracle_moves.py --before-src /tmp/base/src --out ORACLE_MOVES_<n>.json

Evaluates the oracle of the currently checked-out `src/` ("after") and of the
`src/` tree given with --before-src ("before"), each in its own fresh,
single-threaded process, on the 625 probes of the equality grid of
tests/oracle_reference.py (alpha, r, m and loss; phi 0.37):

- `parity`: `parity_signal_oracle` (value, first and second phase
  derivative) at the weight-2 cutoff;
- `qfi_lossy_numeric_check`;
- `kerr_cq_numeric` at the closed-form optimum `kerr_mu_opt`, or at
  (mu1, mu2) = (-0.5, -0.3) where its 2x2 system is singular;
- `moments`: `moments_oracle` for w = 1..4 (no loss, so per (alpha, r, m));
- `cutoff`: `default_cutoff` at weights 0, 2 and 4 (per (alpha, r, m)).

The file lists every value that differs, one line each ("probe [index]:
before -> after"), largest first, with its guarded deviation
|a - b| / max(1, |a|, |b|), and per quantity the number of values, the
number that moved and the largest deviation. About two minutes per side.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

GRID_ALPHA = (0.0, 0.5, 1.6, 1.9, 3.0)
GRID_R = (0.0, 0.3, 0.7, 1.0, 1.2)
GRID_M = (0, 1, 2, 3, 6)
GRID_LOSS = (0.0, 0.05, 0.21, 0.6, 0.9)
PHI = 0.37
ROOT = Path(__file__).resolve().parent.parent


def measure() -> dict:
    """Every value of the mzphase importable in this process, by quantity and probe."""
    from mzphase.errors import SingularNormalEquations
    from mzphase.moments import moment_set
    from mzphase.oracle import default_cutoff, moments_oracle, parity_signal_oracle
    from mzphase.qfi_kerr import kerr_cq_numeric, kerr_mu_opt
    from mzphase.qfi_linear import qfi_lossy_numeric_check
    from mzphase.states import ProbeParams

    out: dict = {q: {} for q in ("parity", "qfi_lossy_numeric_check", "kerr_cq_numeric", "moments", "cutoff")}
    for alpha, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M):
        p = ProbeParams(alpha=alpha, r=r, m=m)
        key = f"alpha={alpha} r={r} m={m}"
        out["moments"][key] = [moments_oracle(p, w) for w in (1, 2, 3, 4)]
        out["cutoff"][key] = [default_cutoff(p, weight=w) for w in (0, 2, 4)]
        for loss in GRID_LOSS:
            p = ProbeParams(alpha=alpha, r=r, m=m, loss=loss, phi=PHI)
            at = f"{key} l={loss}"
            out["parity"][at] = list(parity_signal_oracle(p, cutoff=default_cutoff(p, weight=2)))
            out["qfi_lossy_numeric_check"][at] = [qfi_lossy_numeric_check(p)]
            try:
                mu = kerr_mu_opt(moment_set(p), loss)
            except SingularNormalEquations:
                mu = (-0.5, -0.3)
            out["kerr_cq_numeric"][at] = [kerr_cq_numeric(p, *mu)]
    return out


def _run(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _guarded(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def compare(before: dict, after: dict) -> dict:
    """Per quantity, a summary and every moved value."""
    report = {}
    for q, probes in before.items():
        moved = []
        for probe, values in probes.items():
            for i, (b, a) in enumerate(zip(values, after[q][probe])):
                if a != b:
                    moved.append((_guarded(a, b), f"{probe} [{i}]: {b!r} -> {a!r}"))
        moved.sort(key=lambda x: -x[0])
        report[q] = {
            "values": sum(len(v) for v in probes.values()),
            "moved": len(moved),
            "max_guarded": max((g for g, _ in moved), default=0.0),
            "moves": [f"{text} (guarded {g:.2e})" for g, text in moved],
        }
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before-src", type=Path, help="src/ directory of the tree to compare against")
    ap.add_argument("--out", type=Path, help="JSON file to write (required)")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.out is None or args.before_src is None:
        ap.error("--before-src and --out are required")
    report = {
        "grid": {"alpha": GRID_ALPHA, "r": GRID_R, "m": GRID_M, "loss": GRID_LOSS, "phi": PHI},
        "index": {
            "parity": "value, first and second phase derivative",
            "moments": "w = 1, 2, 3, 4",
            "cutoff": "weight 0, 2, 4",
        },
        "quantities": compare(_run(args.before_src.resolve()), _run(ROOT / "src")),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for q, r in report["quantities"].items():
        print(f"{q}: {r['moved']} of {r['values']} values moved, max guarded {r['max_guarded']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
