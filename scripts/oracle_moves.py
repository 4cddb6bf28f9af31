"""Fock-oracle values that move between two trees, written to one JSON file.

    git archive <base-rev> src | tar -x -C /tmp/base
    python3 scripts/oracle_moves.py --before-src /tmp/base/src --out ORACLE_MOVES_<n>.json

Imports the `src/` tree given with --before-src ("before") and the checked-out
`src/` ("after") into one process under two package names, with BLAS pinned
to one thread (scripts/trees.py), and evaluates the oracle of each on the
625 probes of the equality grid of tests/oracle_reference.py (alpha, r, m
and loss; phi 0.37):

- `parity`: `parity_signal_oracle` (value, first and second phase
  derivative) at the weight-2 cutoff;
- `qfi_lossy_numeric_check`;
- `kerr_cq_numeric`: C_Q on the loss table of the weight-4 marginal at the
  closed-form optimum `kerr_mu_opt`, or at (mu1, mu2) = (-0.5, -0.3) where
  its 2x2 system is singular, built from each tree's `probe_marginal`,
  `loss_weight_table` and `cq_from_table` as tests/oracle_reference.py does;
- `kerr_mu_opt_numeric`: the operator-level Kerr minimum (cq, mu1, mu2);
- `moments`: `moments_oracle` for w = 1..4 (no loss, so per (alpha, r, m));
- `cutoff`: `default_cutoff` at weights 0, 2 and 4 (per (alpha, r, m)).

The file lists every value that differs, one line each ("probe [index]:
before -> after"), largest first, with its guarded deviation
|a - b| / max(1, |a|, |b|), and per quantity the number of values, the
number that moved and the largest deviation. An A/A run (`--before-src src`)
lists none. About ten seconds per tree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from trees import ROOT, load_tree

GRID_ALPHA = (0.0, 0.5, 1.6, 1.9, 3.0)
GRID_R = (0.0, 0.3, 0.7, 1.0, 1.2)
GRID_M = (0, 1, 2, 3, 6)
GRID_LOSS = (0.0, 0.05, 0.21, 0.6, 0.9)
PHI = 0.37


def measure(t) -> dict:
    """Every value of the loaded tree `t`, by quantity and probe."""
    o, kerr = t.oracle, t.qfi_kerr

    def kerr_cq_numeric(p, mu1: float, mu2: float) -> float:
        table = o.loss_weight_table(o.probe_marginal(p, weight=4), p.loss)
        n, j = table.survived, table.lost
        return o.cq_from_table(table, n * n - 2.0 * mu1 * n * j - mu2 * j * j)

    quantities = ("parity", "qfi_lossy_numeric_check", "kerr_cq_numeric", "kerr_mu_opt_numeric", "moments", "cutoff")
    out: dict = {q: {} for q in quantities}
    for alpha, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M):
        p = t.states.ProbeParams(alpha=alpha, r=r, m=m)
        key = f"alpha={alpha} r={r} m={m}"
        out["moments"][key] = [o.moments_oracle(p, w) for w in (1, 2, 3, 4)]
        out["cutoff"][key] = [o.default_cutoff(p, weight=w) for w in (0, 2, 4)]
        for loss in GRID_LOSS:
            p = t.states.ProbeParams(alpha=alpha, r=r, m=m, loss=loss, phi=PHI)
            at = f"{key} l={loss}"
            out["parity"][at] = list(o.parity_signal_oracle(p, cutoff=o.default_cutoff(p, weight=2)))
            out["qfi_lossy_numeric_check"][at] = [t.qfi_linear.qfi_lossy_numeric_check(p)]
            try:
                mu = kerr.kerr_mu_opt(t.moments.moment_set(p), loss)
            except t.errors.SingularNormalEquations:
                mu = (-0.5, -0.3)
            out["kerr_cq_numeric"][at] = [kerr_cq_numeric(p, *mu)]
            out["kerr_mu_opt_numeric"][at] = list(kerr.kerr_mu_opt_numeric(p))
    return out


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
    ap.add_argument("--before-src", type=Path, required=True, help="src/ directory of the tree to compare against")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    before = measure(load_tree(args.before_src.resolve(), "mzphase_before"))
    after = measure(load_tree(ROOT / "src", "mzphase_after"))
    report = {
        "grid": {"alpha": GRID_ALPHA, "r": GRID_R, "m": GRID_M, "loss": GRID_LOSS, "phi": PHI},
        "index": {
            "parity": "value, first and second phase derivative",
            "kerr_mu_opt_numeric": "cq, mu1, mu2",
            "moments": "w = 1, 2, 3, 4",
            "cutoff": "weight 0, 2, 4",
        },
        "quantities": compare(before, after),
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for q, r in report["quantities"].items():
        print(f"{q}: {r['moved']} of {r['values']} values moved, max guarded {r['max_guarded']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
