"""Kernel timings before and after a change, written to one JSON file.

    git archive <base-rev> src | tar -x -C /tmp/base
    python3 scripts/bench_kernels.py --before-src /tmp/base/src --out BENCH_<n>.json

Times entry points of the currently checked-out `src/` ("after") and of the
`src/` tree given with --before-src ("before"), each side in its own fresh,
single-threaded processes on the same machine:

- the parity kernel `parity._signal` for one probe at a batch of phase points
  (its row constants `_row_consts` repeated once per point), per
  photon-addition order m at batch 1, 201, 1001;
- `parity.optimal_phase` per m (its window scan plus the refinement);
- `moments.moment_set` per m;
- the Fock oracle (`oracle` warm, `oracle_first` as the first call in a fresh
  process, which includes building the beam-splitter blocks and any lazy
  import): `parity_signal_oracle` at r = 0.3, 0.65 and 1, and
  `qfi_lossy_numeric_check`, `kerr_cq_numeric`, `loss_weight_table` (on the
  probe's weight-2 marginal, built by its first call, at the probe's loss and
  at loss 0 as `loss_weight_table_loss0`) and `default_cutoff` at r = 1 (the
  file records each r's sector cutoff). The probe-marginal
  cache of a tree that has one is cleared before every timed
  `qfi_lossy_numeric_check` and `kerr_cq_numeric` call, so both sides build
  the marginal each time. Each `oracle_first` entry also records the
  process's peak resident set (`ru_maxrss`, in kB) right after that first
  call, once per fresh process; unlike the times, it moves by under 0.5 MB
  from one process to the next.

- the `rows` group: many sweep rows of one m at once. `parity_signals` at 1,
  48 and 1001 rows (`kernel_*`) against the same rows as a loop of
  `parity_expectation` calls (`row_loop_*`); `optimal_phases` for groups of
  1, 2 and 21 rows (`optimal_*`) against a loop of `optimal_phase` calls
  (`optimal_loop_*`); and the wall time of `run_sweep` on figure presets
  2a, 5a and 7a, with `threads` 1 and 2 (`preset_<n><panel>_t<threads>`;
  each threaded call starts its own process pool, as the CLI does), and of
  the first OPTIMIZE_SWEEPS sweeps of the perfbench `optimize` deck (seed
  OPTIMIZE_SEED) run one after another (`optimize_deck`). A tree without the
  batch functions reports only the loops and the presets.
- the `refine` group, counts rather than times: the kernel calls the
  optimal-phase search makes after its scan (after both passes of a
  two-pass scan, or the one call per block of rows of a one-pass one), per
  row (the mean and maximum over rows with a result, one `optimal_phase`
  call each) and per lockstep group (the maximum over `optimal_phases`
  calls), for the `optimal_*` groups of the rows group and for the
  optimal-phase rows of presets 5a, 5b and 9b (each `optimal_phases` call
  the sweep makes is a group: one per m, or one for all orders where the
  sweep searches them together). Its `optimize_deck` entry counts every
  kernel call and kernel point per sweep of the `optimize_deck` sweeps. It
  is taken once per side, after the timed rounds.
- the `xcheck_deck` group, with --before-src only: the first XCHECK_SWEEPS
  sweeps of the perfbench `xcheck` deck (seed XCHECK_SEED, every row
  cross-checked by the Fock oracle), with both `src/` trees imported in one
  process under two package names. After one untimed pass of each, every
  round runs the deck sweep by sweep, the two trees alternating which runs
  a sweep first, and sums each tree's time; it reports the seconds per
  round, the ratio before / after per round and its median, and whether
  every rendered CSV was byte-identical between the trees. Timings of the
  two trees from separate processes spread too widely on a shared machine
  to show a gain of a few tens of percent.

The kernel probe is alpha = 2, r = 0.5, loss = 0.1; the oracle probe is the
costliest corner of the `xcheck` benchmark workload, alpha = 1.9, m = 3,
loss = 0.21, phi = 0.37. Each warm timing follows one untimed call and repeats
until it has run at least three times and 0.3 s (a single run above 1 s is
kept alone); it reports the minimum and the median per call in ms. Each
first-call timing is taken in three fresh processes. Each side is measured
ROUNDS times, in alternating order (before, after, after, before), and every
entry keeps the round with the lower minimum, so a slow spell of a shared
machine does not land on one side only. The file is stamped with
nproc and the Python and numpy versions. A tree that still builds the kernels
as multivariate jets needs about 1.3 GB of memory and 35 s per call at m = 10
and batch 1001.
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
from functools import lru_cache
from pathlib import Path

M_LIST = (0, 1, 2, 3, 6, 10)
BATCHES = (1, 201, 1001)
ROW_M = (0, 3)
ROWS = (1, 48, 1001)
GROUPS = (1, 2, 21)
PRESETS = ((2, "a"), (5, "a"), (7, "a"))
THREADS = (1, 2)
ORACLE_PROBE = {"alpha": 1.9, "m": 3, "loss": 0.21, "phi": 0.37}
ORACLE_R = (0.3, 0.65, 1.0)
REFINE_PRESETS = ((5, "a"), (5, "b"), (9, "b"))
OPTIMIZE_SEED = 1
OPTIMIZE_SWEEPS = 12
XCHECK_SEED = 1
XCHECK_SWEEPS = 40
XCHECK_ROUNDS = 6
FIRST_RUNS = 3
ROUNDS = 2
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


def _oracle_calls() -> dict:
    """Zero-argument oracle calls by name."""
    from mzphase import oracle
    from mzphase.moments import moment_set
    from mzphase.oracle import default_cutoff, loss_weight_table, parity_signal_oracle, probe_marginal
    from mzphase.qfi_kerr import kerr_cq_numeric, kerr_mu_opt
    from mzphase.qfi_linear import qfi_lossy_numeric_check
    from mzphase.states import ProbeParams

    # a tree that keeps its last probe marginals would otherwise time a cache hit
    forget = getattr(getattr(oracle, "_probe_marginal", None), "cache_clear", lambda: None)
    calls = {}
    for r in ORACLE_R:
        p = ProbeParams(r=r, **ORACLE_PROBE)
        calls[f"parity_signal_r{r}"] = lambda p=p: parity_signal_oracle(p)
    p = ProbeParams(r=ORACLE_R[-1], **ORACLE_PROBE)
    mu = kerr_mu_opt(moment_set(p), p.loss)
    calls["qfi_lossy_numeric_check"] = lambda: forget() or qfi_lossy_numeric_check(p)
    calls["kerr_cq_numeric"] = lambda: forget() or kerr_cq_numeric(p, *mu)
    # built on first use, so that no entry's first call finds the blocks built
    marg = lru_cache(maxsize=1)(lambda: probe_marginal(p, weight=2))
    calls["loss_weight_table"] = lambda: loss_weight_table(marg(), p.loss)
    calls["loss_weight_table_loss0"] = lambda: loss_weight_table(marg(), 0.0)
    calls["default_cutoff"] = lambda: default_cutoff(p)
    return calls


def _oracle_cutoffs() -> dict:
    """Sector cutoff of each `parity_signal_r*` oracle entry (the same on both sides)."""
    sys.path.insert(0, str(ROOT / "src"))
    from mzphase.oracle import default_cutoff
    from mzphase.states import ProbeParams

    return {f"parity_signal_r{r}": default_cutoff(ProbeParams(r=r, **ORACLE_PROBE)) for r in ORACLE_R}


def measure_first(name: str) -> dict:
    """ms of the first call of one oracle entry point in this process, and
    the process's peak resident set in kB right after it."""
    import resource

    fn = _oracle_calls()[name]
    t0 = time.perf_counter()
    fn()
    ms = (time.perf_counter() - t0) * 1e3
    return {"ms": ms, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def measure() -> dict:
    """Timings of the mzphase importable in this process."""
    import numpy as np

    from mzphase.moments import moment_set
    from mzphase.parity import _row_consts, _signal, optimal_phase
    from mzphase.states import ProbeParams

    def signal_batch(p, phis):
        return _signal(phis, _row_consts(p.m, [p.alpha], [p.r], [p.loss]).take(np.zeros(phis.size, dtype=int)))

    out: dict = {"signal_batch": {}, "optimal_phase": {}, "moment_set": {}}
    for m in M_LIST:
        p = ProbeParams(alpha=2.0, r=0.5, m=m, loss=0.1)
        for batch in BATCHES:
            grid = np.linspace(1e-4, 1.5, batch)
            out["signal_batch"][f"m{m}_b{batch}"] = _time(lambda: signal_batch(p, grid))
        out["optimal_phase"][f"m{m}"] = _time(lambda: optimal_phase(p))
        out["moment_set"][f"m{m}"] = _time(lambda: moment_set(p))
    out["oracle"] = {}
    for name, fn in _oracle_calls().items():
        fn()
        out["oracle"][name] = _time(fn)
    out["rows"] = _measure_rows()
    return out


def measure_refine() -> dict:
    """Kernel calls of the optimal-phase search after its scan (the `refine` group)."""
    import math
    import statistics

    import numpy as np

    from mzphase import parity, sweep
    from mzphase.errors import DegenerateDenominator, DegenerateSignal
    from mzphase.states import ProbeParams
    from mzphase.sweep import figure_preset, run_sweep

    signal, optimal_phases, count = parity._signal, parity.optimal_phases, [0]
    window_scan, scans = getattr(parity, "_window_scan", None), [0]

    def counted(*args):
        count[0] += 1
        return signal(*args)

    def counted_scan(*args):
        before = count[0]
        out = window_scan(*args)
        scans[0] += count[0] - before
        return out

    def refinement_calls(call, rows: int) -> int:
        count[0] = scans[0] = 0
        call()
        if window_scan is None:  # a one-pass scan: one call per block of rows
            scans[0] = math.ceil(rows / max(1, parity.MAX_POINTS // parity._GRID.size))
        return count[0] - scans[0]

    cases = {}
    for m in ROW_M:
        for g in GROUPS:
            cases[f"optimal_g{g}_m{m}"] = [(m, (g * [2.0], g * [0.5], np.linspace(0.0, 0.4, g).tolist()))]
    for n, panel in REFINE_PRESETS:
        found = cases[f"preset_{n}{panel}"] = []
        sweep.optimal_phases = lambda m, *cols: found.append((m, cols)) or optimal_phases(m, *cols)
        run_sweep(figure_preset(n, panel))
    sweep.optimal_phases = optimal_phases

    parity._signal = counted
    if window_scan is not None:
        parity._window_scan = counted_scan
    out = {}
    for name, row_groups in cases.items():
        per_row, per_group = [], []
        for m, (alpha, r, loss) in row_groups:
            per_group.append(refinement_calls(lambda: optimal_phases(m, alpha, r, loss), len(alpha)))
            # m is one order for the group, or one per row
            for row in zip(np.broadcast_to(m, len(alpha)).tolist(), alpha, r, loss):
                try:
                    probe = ProbeParams(row[1], row[2], row[0], row[3])
                    per_row.append(refinement_calls(lambda: parity.optimal_phase(probe), 1))
                except (DegenerateSignal, DegenerateDenominator):
                    continue
        out[name] = {
            "rows": len(per_row),
            "rows_without_refinement": per_row.count(0),
            "mean_per_row": round(statistics.mean(per_row), 3),
            "max_per_row": max(per_row),
            "max_per_group": max(per_group),
        }
    parity._signal = signal
    if window_scan is not None:
        parity._window_scan = window_scan

    points = []
    # the phase points are the next-to-last argument, with or without a leading m
    parity._signal = lambda *args: points.append(args[-2].size) or signal(*args)
    calls, sizes = [], []
    for spec in _optimize_deck():
        points.clear()
        run_sweep(spec)
        calls.append(len(points))
        sizes.append(sum(points))
    parity._signal = signal
    out["optimize_deck"] = {
        "sweeps": len(calls),
        "mean_calls_per_sweep": round(statistics.mean(calls), 3),
        "max_calls_per_sweep": max(calls),
        "mean_points_per_sweep": round(statistics.mean(sizes), 1),
    }
    return out


def _optimize_deck() -> list:
    """The first OPTIMIZE_SWEEPS sweeps of the perfbench `optimize` deck."""
    import itertools

    from mzphase.sweep import parse_config

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import deck

    return [parse_config(s.text()) for s in itertools.islice(deck("optimize", OPTIMIZE_SEED), OPTIMIZE_SWEEPS)]


def _load_tree(src: Path, name: str):
    """The `mzphase` package under `src`, imported as the package `name`."""
    import importlib.util

    init = src / "mzphase" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.sweep")


def measure_xcheck_deck(before_src: Path) -> dict:
    """The `xcheck_deck` group: both trees in this process, interleaved sweep by sweep."""
    import itertools

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import deck

    texts = [s.text() for s in itertools.islice(deck("xcheck", XCHECK_SEED), XCHECK_SWEEPS)]
    trees = {"before": _load_tree(before_src, "mzphase_before"), "after": _load_tree(ROOT / "src", "mzphase_after")}
    specs = {name: [sweep.parse_config(t) for t in texts] for name, sweep in trees.items()}

    def run(name: str, i: int) -> tuple[float, str]:
        t0 = time.perf_counter()
        text = trees[name].run_sweep(specs[name][i]).render()
        return time.perf_counter() - t0, text

    identical = all(run("before", i)[1] == run("after", i)[1] for i in range(len(texts)))
    seconds = {"before": [], "after": []}
    for rnd in range(XCHECK_ROUNDS):
        spent = {"before": 0.0, "after": 0.0}
        for i in range(len(texts)):
            order = ("before", "after") if (rnd + i) % 2 == 0 else ("after", "before")
            for name in order:
                spent[name] += run(name, i)[0]
        for name, dt in spent.items():
            seconds[name].append(round(dt, 4))
    ratios = [round(b / a, 3) for b, a in zip(seconds["before"], seconds["after"])]
    return {
        "seed": XCHECK_SEED,
        "sweeps": len(texts),
        "rounds": XCHECK_ROUNDS,
        "before_s": seconds["before"],
        "after_s": seconds["after"],
        "ratio_per_round": ratios,
        "ratio_median": statistics.median(ratios),
        "csv_identical": identical,
    }


def _measure_rows() -> dict:
    """Sweep rows of one m evaluated together, against one call per row."""
    import numpy as np

    from mzphase import parity
    from mzphase.states import ProbeParams
    from mzphase.sweep import figure_preset, run_sweep

    batched = hasattr(parity, "parity_signals")
    out = {}
    for m in ROW_M:
        for n in ROWS:
            # a phi sweep at two losses, as in presets 2a and 3a
            probes = [
                ProbeParams(2.0, 0.5, m, 0.1 * (i % 2), float(phi))
                for i, phi in enumerate(np.linspace(-1.5, 1.5, n))
            ]
            cols = [[getattr(p, f) for p in probes] for f in ("alpha", "r", "loss", "phi")]
            out[f"row_loop_b{n}_m{m}"] = _time(lambda: [parity.parity_expectation(p) for p in probes])
            if batched:
                out[f"kernel_b{n}_m{m}"] = _time(lambda: parity.parity_signals(m, *cols))
        for g in GROUPS:
            # a loss sweep at the optimal phase, as in preset 5a
            probes = [ProbeParams(2.0, 0.5, m, float(l)) for l in np.linspace(0.0, 0.4, g)]
            cols = [[getattr(p, f) for p in probes] for f in ("alpha", "r", "loss")]
            out[f"optimal_loop_g{g}_m{m}"] = _time(lambda: [parity.optimal_phase(p) for p in probes])
            if batched:
                out[f"optimal_g{g}_m{m}"] = _time(lambda: parity.optimal_phases(m, *cols))
    for n, panel in PRESETS:
        spec = figure_preset(n, panel)
        for threads in THREADS:
            out[f"preset_{n}{panel}_t{threads}"] = _time(lambda: run_sweep(spec, threads=threads))
    specs = _optimize_deck()
    out["optimize_deck"] = _time(lambda: [run_sweep(spec) for spec in specs])
    return out


def _run(src: Path, *args: str):
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, __file__, *args]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _side(src: Path) -> dict:
    out = _run(src, "--measure")
    out["oracle_first"] = {}
    for name in out["oracle"]:
        runs = [_run(src, "--measure-first", name) for _ in range(FIRST_RUNS)]
        ms = [run["ms"] for run in runs]
        out["oracle_first"][name] = {
            "min_ms": round(min(ms), 4),
            "median_ms": round(statistics.median(ms), 4),
            "runs": len(runs),
            "maxrss_kb": [run["maxrss_kb"] for run in runs],
        }
    return out


def _best(a: dict, b: dict) -> dict:
    """Per entry, the timing of the two with the lower minimum."""
    return {
        group: {key: min(t, b[group][key], key=lambda x: x["min_ms"]) for key, t in rows.items()}
        for group, rows in a.items()
    }


def _speedups(before: dict, after: dict) -> dict:
    return {
        f"{group}.{key}": round(before[group][key]["min_ms"] / a["min_ms"], 2)
        for group, rows in after.items()
        for key, a in rows.items()
        if key in before.get(group, {})
    }


def _batch_gains(after: dict) -> dict:
    """Row loop over batched call, per entry of the after tree's rows group."""
    rows = after.get("rows", {})
    pairs = {k: k.replace("kernel_", "row_loop_").replace("optimal_g", "optimal_loop_g") for k in rows}
    return {
        k: round(rows[loop]["min_ms"] / rows[k]["min_ms"], 2)
        for k, loop in pairs.items()
        if loop != k and loop in rows
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before-src", type=Path, help="src/ directory of the tree to compare against")
    ap.add_argument("--before-label", default="parent commit", help="what --before-src holds")
    ap.add_argument("--out", type=Path, help="JSON file to write (required)")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure-first", metavar="NAME", help=argparse.SUPPRESS)
    ap.add_argument("--measure-refine", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure-xcheck-deck", type=Path, metavar="BEFORE_SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.measure_first:
        print(json.dumps(measure_first(args.measure_first)))
        return 0
    if args.measure_refine:
        print(json.dumps(measure_refine()))
        return 0
    if args.measure_xcheck_deck:
        print(json.dumps(measure_xcheck_deck(args.measure_xcheck_deck)))
        return 0
    if args.out is None:
        ap.error("--out is required")

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
        "rows_probe": {
            "alpha": 2.0, "r": 0.5, "m": list(ROW_M), "rows": list(ROWS), "groups": list(GROUPS),
            "kernel_rows": "phi from -1.5 to 1.5, loss alternating 0 and 0.1",
            "optimal_rows": "loss from 0 to 0.4",
            "presets": [f"{n}{p}" for n, p in PRESETS],
            "threads": list(THREADS),
            "refine_presets": [f"{n}{p}" for n, p in REFINE_PRESETS],
            "optimize_deck": {"seed": OPTIMIZE_SEED, "sweeps": OPTIMIZE_SWEEPS},
        },
        "oracle_probe": dict(ORACLE_PROBE, r=list(ORACLE_R), cutoff=_oracle_cutoffs()),
        "units": "ms per call",
        "rounds": ROUNDS,
    }
    sides = [("after", "working tree", ROOT / "src")]
    if args.before_src is not None:
        sides.insert(0, ("before", args.before_label, args.before_src.resolve()))
    for i in range(ROUNDS):
        for name, label, src in sides if i % 2 == 0 else sides[::-1]:
            ms = _side(src)
            if name in report:
                ms = _best(report[name]["ms"], ms)
            report[name] = {"label": label, "ms": ms}
    for name, _, src in sides:
        report[name]["refine_calls"] = _run(src, "--measure-refine")
    if args.before_src is not None:
        report["speedup_min"] = _speedups(report["before"]["ms"], report["after"]["ms"])
        report["xcheck_deck"] = _run(ROOT / "src", "--measure-xcheck-deck", str(args.before_src.resolve()))
    report["rows_batch_gain_min"] = _batch_gains(report["after"]["ms"])
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
