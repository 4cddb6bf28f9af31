"""Kernel timings of two `src/` trees, paired call by call, in one JSON file.

    git archive <base-rev> src | tar -x -C /tmp/base
    python3 scripts/bench_kernels.py --before-src /tmp/base/src --out BENCH_<n>.json
    python3 scripts/bench_kernels.py --before-src src --out /tmp/aa.json   # A/A check

Imports the `src/` tree given with --before-src ("before") and the checked-out
`src/` ("after") into one process under two package names, with BLAS pinned
to one thread (scripts/trees.py), and times each entry as a paired
comparison. After one untimed call of each side, it calls the two sides one
after the other, alternating which goes first on each pair (before, after;
after, before; ...), until it has spent BUDGET_S seconds and made at least
MIN_PAIRS pairs. It reports each side's median ms per call, the number of
pairs, and the paired ratio: before / after within one pair (above 1, the
after tree is faster), as the median and quartiles over the pairs. A slow
spell of a shared host lands on both calls of a pair, so the ratio cancels
what separate timings of the two trees would keep. An A/A run names the
checked-out `src/` itself: both package names then hold the same code, every
ratio should read 1, and its distance from 1 sizes the smallest change the
run can show.

The paired entries, by group:

- `signal_batch.m<m>_b<batch>`: the parity kernel `parity._signal` for one
  probe at a batch of phase points (its row constants `_row_consts` repeated
  once per point), per photon-addition order m at batch 1, 201, 1001;
- `optimal_phase`, `moment_set`, `qfi_lossy_kerr` (on that m's moment set)
  and `solve_r_for_energy` (to the probe's squeezed-state energy), per m;
- `series_mul.cap<c>_b<batch>`: one `jets.Series` product at caps 2 and 4;
- `oracle`: the Fock oracle, `parity_signal_oracle` at r = 0.3, 0.65 and 1,
  and `qfi_lossy_numeric_check`, `kerr_mu_opt_numeric`, `loss_weight_table`
  (on the probe's weight-2 marginal, at the probe's loss and at loss 0) and
  `default_cutoff` at r = 1. The probe-marginal cache is cleared before each
  `qfi_lossy_numeric_check` and `kerr_mu_opt_numeric` call, so both build
  the marginal each time. These entries repeat one loss. Four more move it:
  `loss_weight_table_fresh` and `parity_signal_fresh` (r = 1) take a loss
  never seen before on every call, as each row of a loss sweep does, and
  `loss_weight_table_sweep` and `parity_signal_sweep` take one pass per
  call over the probes of a `xcheck` sweep (SWEEP_PROBES: the Kerr sweep's
  weight-4 marginals, and the parity sweep's probes) in ascending order of
  cutoff, all at one loss, a fresh one on each pass;
- `rows`: `parity_signals` at 1, 48 and 1001 rows of one m (`kernel_*`),
  `optimal_phases` for groups of 1, 2 and 21 rows (`optimal_*`), the rendered
  `run_sweep` of figure presets 2a, 5a, 7a, 7b and 10b at `threads` 1 and 2
  (each threaded call starts its own process pool, as the CLI does), and the
  first 12 sweeps of the perfbench `optimize` deck, the first 16 of its
  `bounds` deck and the first 20 of its `xcheck` deck (seed 1, every
  `xcheck` row cross-checked by the Fock oracle), run one after another and
  rendered (`optimize_deck`, `bounds_deck`, `xcheck_deck`).

Not paired:

- `csv_identical`: whether every preset and deck entry renders the same
  bytes on both trees;
- `oracle_first`: each oracle entry as the first call of a fresh process per
  tree (FIRST_RUNS processes each, before and after alternating), which
  includes building the beam-splitter blocks, with the process's peak
  resident set (`ru_maxrss`, kB) right after it; a first call can only be
  measured in a fresh process. The two `loss_weight_table` entries time the
  table alone: their input marginal, and with it the blocks, is built
  untimed before the call;
- `block_cache`: the splitter blocks built to cutoffs 160 and then 320 in a
  fresh process per tree (FIRST_RUNS processes each, the trees alternating
  as in `oracle_first`), with their bytes, the ms each cutoff's
  `_bs_blocks` call takes (at 320, the blocks 161..320 that 160 left
  unbuilt), the process's `ru_maxrss` (kB) after the import and after each
  cutoff, and the resident cost per block byte, (maxrss - maxrss after the
  import) / bytes, as its median;
- `refine_calls`, counts per tree: the kernel calls the optimal-phase search
  makes after its two scan passes, per row (mean and maximum over rows with
  a result, one `optimal_phase` call each) and per lockstep group (maximum
  over `optimal_phases` calls), for the `optimal_*` rows and the
  optimal-phase rows of presets 5a, 5b and 9b (one group per
  `optimal_phases` call the sweep makes), and every kernel call and point
  per sweep of the `optimize_deck` sweeps.

The kernel probe is alpha = 2, r = 0.5, loss = 0.1; the oracle probe is the
costliest corner of the `xcheck` benchmark workload, alpha = 1.9, m = 3,
loss = 0.21, phi = 0.37. The file is stamped with nproc and the Python and
numpy versions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from trees import ROOT, load_tree

M_LIST = (0, 1, 2, 3, 6, 10)
BATCHES = (1, 201, 1001)
SERIES_CAPS = (2, 4)
SERIES_BATCHES = (1, 1001)
ROW_M = (0, 3)
ROWS = (1, 48, 1001)
GROUPS = (1, 2, 21)
PRESETS = ((2, "a"), (5, "a"), (7, "a"), (7, "b"), (10, "b"))
THREADS = (1, 2)
ORACLE_PROBE = {"alpha": 1.9, "m": 3, "loss": 0.21, "phi": 0.37}
ORACLE_R = (0.3, 0.65, 1.0)
REFINE_PRESETS = ((5, "a"), (5, "b"), (9, "b"))
DECK_SWEEPS = {"optimize": 12, "bounds": 16, "xcheck": 20}
DECK_SEED = 1
BUDGET_S = 2.0
MIN_PAIRS = 40
FIRST_RUNS = 5
BLOCK_CUTOFFS = (160, 320)
# (alpha, r values, phi) of the `xcheck` deck's Kerr and parity sweeps, m = 0..3
SWEEP_PROBES = {
    "loss_weight_table_sweep": (1.8, (0.3, 0.44, 0.58, 0.72, 0.86, 1.0), 0.0),
    "parity_signal_sweep": (1.9, (0.3, 1.0), 0.37),
}
ORACLE_NAMES = (
    *(f"parity_signal_r{r}" for r in ORACLE_R),
    "qfi_lossy_numeric_check",
    "kerr_mu_opt_numeric",
    "loss_weight_table",
    "loss_weight_table_loss0",
    "default_cutoff",
    "loss_weight_table_fresh",
    "parity_signal_fresh",
    *SWEEP_PROBES,
)


def paired(before, after) -> dict:
    """Two zero-argument calls timed in alternating-order pairs (module docstring)."""
    calls, times = (before, after), ([], [])
    for fn in calls:
        fn()
    end = time.perf_counter() + BUDGET_S
    while len(times[0]) < MIN_PAIRS or time.perf_counter() < end:
        for side in (0, 1) if len(times[0]) % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            calls[side]()
            times[side].append(time.perf_counter() - t0)
    ratios = [b / a for b, a in zip(*times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {
        "pairs": len(ratios),
        "before_ms": round(statistics.median(times[0]) * 1e3, 4),
        "after_ms": round(statistics.median(times[1]) * 1e3, 4),
        "ratio": round(statistics.median(ratios), 4),
        "ratio_q1": round(q1, 4),
        "ratio_q3": round(q3, 4),
    }


def kernel_calls(t) -> dict:
    """Zero-argument calls into the kernels of the loaded tree `t`, by group and name."""
    import numpy as np

    par, states = t.parity, t.states
    groups = ("signal_batch", "optimal_phase", "moment_set", "qfi_lossy_kerr", "solve_r_for_energy", "series_mul")
    out: dict = {g: {} for g in groups}
    for m in M_LIST:
        p = states.ProbeParams(alpha=2.0, r=0.5, m=m, loss=0.1)
        for batch in BATCHES:
            phis, rows = np.linspace(1e-4, 1.5, batch), np.zeros(batch, dtype=int)
            out["signal_batch"][f"m{m}_b{batch}"] = lambda p=p, phis=phis, rows=rows: par._signal(
                phis, par._row_consts(p.m, [p.alpha], [p.r], [p.loss]).take(rows)
            )
        ms, nbar = t.moments.moment_set(p), states.pasvs_mean_photons(p.r, m)
        out["optimal_phase"][f"m{m}"] = lambda p=p: par.optimal_phase(p)
        out["moment_set"][f"m{m}"] = lambda p=p: t.moments.moment_set(p)
        out["qfi_lossy_kerr"][f"m{m}"] = lambda ms=ms, p=p: t.qfi_kerr.qfi_lossy_kerr(ms, p.loss)
        out["solve_r_for_energy"][f"m{m}"] = lambda m=m, nbar=nbar: states.solve_r_for_energy(m, nbar)
    rng = np.random.default_rng(0)
    for cap, batch in itertools.product(SERIES_CAPS, SERIES_BATCHES):
        shape = (batch, cap + 1)
        a, b = (t.jets.Series(rng.normal(size=shape) + 1j * rng.normal(size=shape)) for _ in range(2))
        out["series_mul"][f"cap{cap}_b{batch}"] = lambda a=a, b=b: a * b
    return out


def oracle_calls(t) -> dict:
    """Zero-argument Fock-oracle calls of the loaded tree `t`, by name (ORACLE_NAMES)."""
    o, probe = t.oracle, t.states.ProbeParams
    calls = {}
    for r in ORACLE_R:
        calls[f"parity_signal_r{r}"] = lambda p=probe(r=r, **ORACLE_PROBE): o.parity_signal_oracle(p)
    p = probe(r=ORACLE_R[-1], **ORACLE_PROBE)
    forget = o._probe_marginal.cache_clear  # else both sides would time a cache hit
    calls["qfi_lossy_numeric_check"] = lambda: forget() or t.qfi_linear.qfi_lossy_numeric_check(p)
    calls["kerr_mu_opt_numeric"] = lambda: forget() or t.qfi_kerr.kerr_mu_opt_numeric(p)
    # built on first use, so that no entry's first call finds the blocks built
    marg = lru_cache(maxsize=1)(lambda: o.probe_marginal(p, weight=2))
    calls["loss_weight_table"] = lambda: o.loss_weight_table(marg(), p.loss)
    calls["loss_weight_table_loss0"] = lambda: o.loss_weight_table(marg(), 0.0)
    calls["default_cutoff"] = lambda: o.default_cutoff(p)
    counter = itertools.count(1)

    def fresh():
        """A loss no call has used, 1e-9 from the last, so that every call costs the same."""
        return p.loss + 1e-9 * next(counter)

    calls["loss_weight_table_fresh"] = lambda: o.loss_weight_table(marg(), fresh())
    calls["parity_signal_fresh"] = lambda: o.parity_signal_oracle(replace(p, loss=fresh()))

    def table_sweep():
        loss = fresh()
        for marginal in sweep_inputs(t, "loss_weight_table_sweep"):
            o.loss_weight_table(marginal, loss)

    def parity_sweep():
        loss = fresh()
        for q in sweep_inputs(t, "parity_signal_sweep"):
            o.parity_signal_oracle(replace(q, loss=loss))

    calls["loss_weight_table_sweep"], calls["parity_signal_sweep"] = table_sweep, parity_sweep
    return calls


@lru_cache(maxsize=None)
def sweep_inputs(t, name: str) -> list:
    """The inputs of the sweep-shaped entry `name` of tree `t`, in ascending
    order of cutoff: weight-4 marginals for the table, probes for the parity."""
    alpha, rs, phi = SWEEP_PROBES[name]
    probes = [t.states.ProbeParams(alpha=alpha, r=r, m=m, phi=phi) for r in rs for m in range(4)]
    if name == "parity_signal_sweep":
        return sorted(probes, key=t.oracle.default_cutoff)
    return sorted((t.oracle.probe_marginal(q, weight=4) for q in probes), key=len)


def deck_specs(t, workload: str) -> list:
    """The first DECK_SWEEPS[workload] sweeps of a perfbench deck, parsed by tree `t`."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import deck

    sweeps = itertools.islice(deck(workload, DECK_SEED), DECK_SWEEPS[workload])
    return [t.sweep.parse_config(s.text()) for s in sweeps]


def sweep_calls(t) -> dict:
    """Zero-argument calls of the loaded tree `t` over many sweep rows at once, by name."""
    import numpy as np

    par, sweep = t.parity, t.sweep
    out = {}
    for m in ROW_M:
        for n in ROWS:
            # a phi sweep at two losses, as in presets 2a and 3a
            cols = (n * [2.0], n * [0.5], [0.1 * (i % 2) for i in range(n)], np.linspace(-1.5, 1.5, n).tolist())
            out[f"kernel_b{n}_m{m}"] = lambda m=m, cols=cols: par.parity_signals(m, *cols)
        for g in GROUPS:
            # a loss sweep at the optimal phase, as in preset 5a
            cols = (g * [2.0], g * [0.5], np.linspace(0.0, 0.4, g).tolist())
            out[f"optimal_g{g}_m{m}"] = lambda m=m, cols=cols: par.optimal_phases(m, *cols)
    for (n, panel), threads in itertools.product(PRESETS, THREADS):
        spec = sweep.figure_preset(n, panel)
        out[f"preset_{n}{panel}_t{threads}"] = lambda s=spec, k=threads: sweep.run_sweep(s, threads=k).render()
    for workload in DECK_SWEEPS:
        out[f"{workload}_deck"] = lambda specs=deck_specs(t, workload): [sweep.run_sweep(s).render() for s in specs]
    return out


def measure_first(name: str) -> dict:
    """ms of the first call of one oracle entry in this process (the tree on
    PYTHONPATH), and the process's peak resident set in kB right after it."""
    import resource

    import mzphase

    fn = oracle_calls(mzphase)[name]
    if name.startswith("loss_weight_table"):
        # the table's input, untimed: the entry then finds it cached
        mzphase.oracle.probe_marginal(mzphase.states.ProbeParams(r=ORACLE_R[-1], **ORACLE_PROBE), weight=2)
    if name in SWEEP_PROBES:
        sweep_inputs(mzphase, name)
    t0 = time.perf_counter()
    fn()
    ms = (time.perf_counter() - t0) * 1e3
    return {"ms": ms, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def measure_blocks(cutoffs) -> dict:
    """Peak resident set in kB of this process (the tree on PYTHONPATH) after
    the import and after building the splitter blocks to each cutoff in turn,
    with the blocks' bytes and the ms of each build."""
    import resource

    import mzphase

    def maxrss() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"import_maxrss_kb": maxrss(), "bytes": {}, "ms": {}, "maxrss_kb": {}}
    for cutoff in cutoffs:
        t0 = time.perf_counter()
        blocks = mzphase.oracle._bs_blocks(cutoff)
        out["ms"][cutoff] = (time.perf_counter() - t0) * 1e3
        out["bytes"][cutoff] = sum(rot.nbytes for rot in blocks)
        out["maxrss_kb"][cutoff] = maxrss()
    return out


def fresh_runs(srcs: dict, *args: str) -> dict:
    """This script run with `args` in FIRST_RUNS fresh processes per tree, the
    trees alternating: each side's parsed stdout, in run order.

    On Linux a child's `ru_maxrss` starts at its parent's peak, so this runs
    before the parent loads either tree."""
    runs: dict = {side: [] for side in srcs}
    for i in range(FIRST_RUNS):
        for side in srcs if i % 2 == 0 else list(srcs)[::-1]:
            env = dict(os.environ, PYTHONPATH=str(srcs[side]))
            done = subprocess.run([sys.executable, __file__, *args], env=env, check=True, capture_output=True, text=True)
            runs[side].append(json.loads(done.stdout))
    return runs


def block_cache(srcs: dict) -> dict:
    """`measure_blocks` at BLOCK_CUTOFFS in fresh processes per tree."""
    out = {}
    for side, rs in fresh_runs(srcs, "--measure-blocks", *map(str, BLOCK_CUTOFFS)).items():
        out[side] = {"import_maxrss_kb": [r["import_maxrss_kb"] for r in rs]}
        for c in map(str, BLOCK_CUTOFFS):  # JSON keys
            out[side][f"cutoff{c}"] = {
                "bytes": rs[0]["bytes"][c],
                "median_ms": round(statistics.median(r["ms"][c] for r in rs), 4),
                "maxrss_kb": [r["maxrss_kb"][c] for r in rs],
                "resident_per_byte": round(
                    statistics.median((r["maxrss_kb"][c] - r["import_maxrss_kb"]) * 1024 / r["bytes"][c] for r in rs), 3
                ),
            }
    return out


def first_calls(srcs: dict, name: str) -> dict:
    """`measure_first` in FIRST_RUNS fresh processes per tree, the trees alternating."""
    runs = fresh_runs(srcs, "--measure-first", name)
    return {
        side: {
            "min_ms": round(min(r["ms"] for r in rs), 4),
            "median_ms": round(statistics.median(r["ms"] for r in rs), 4),
            "maxrss_kb": [r["maxrss_kb"] for r in rs],
        }
        for side, rs in runs.items()
    }


def refine_calls(t) -> dict:
    """Kernel calls of the optimal-phase search after its scan, and of the
    `optimize_deck` sweeps (the `refine_calls` counts of tree `t`)."""
    import numpy as np

    par, sweep = t.parity, t.sweep
    signal, window_scan, optimal_phases = par._signal, par._window_scan, par.optimal_phases
    count = [0, 0]  # kernel calls, of which in the scan

    def counted(phi, c):
        count[0] += 1
        return signal(phi, c)

    def counted_scan(*args):
        before = count[0]
        out = window_scan(*args)
        count[1] += count[0] - before
        return out

    def refinement_calls(call) -> int:
        count[:] = [0, 0]
        call()
        return count[0] - count[1]

    cases = {
        f"optimal_g{g}_m{m}": [(m, (g * [2.0], g * [0.5], np.linspace(0.0, 0.4, g).tolist()))]
        for m in ROW_M
        for g in GROUPS
    }
    for n, panel in REFINE_PRESETS:
        found = cases[f"preset_{n}{panel}"] = []
        sweep.optimal_phases = lambda m, *cols, found=found: found.append((m, cols)) or optimal_phases(m, *cols)
        sweep.run_sweep(sweep.figure_preset(n, panel))
    sweep.optimal_phases = optimal_phases

    par._signal, par._window_scan = counted, counted_scan
    out = {}
    for name, row_groups in cases.items():
        per_row, per_group = [], []
        for m, (alpha, r, loss) in row_groups:
            per_group.append(refinement_calls(lambda: optimal_phases(m, alpha, r, loss)))
            # m is one order for the group, or one per row
            for row in zip(np.broadcast_to(m, len(alpha)).tolist(), alpha, r, loss):
                try:
                    probe = t.states.ProbeParams(row[1], row[2], row[0], row[3])
                    per_row.append(refinement_calls(lambda: par.optimal_phase(probe)))
                except t.errors.DegenerateSignal:
                    continue
        out[name] = {
            "rows": len(per_row),
            "rows_without_refinement": per_row.count(0),
            "mean_per_row": round(statistics.mean(per_row), 3),
            "max_per_row": max(per_row),
            "max_per_group": max(per_group),
        }

    points, calls, sizes = [], [], []
    par._signal = lambda phi, c: points.append(phi.size) or signal(phi, c)
    for spec in deck_specs(t, "optimize"):
        points.clear()
        sweep.run_sweep(spec)
        calls.append(len(points))
        sizes.append(sum(points))
    par._signal, par._window_scan = signal, window_scan
    out["optimize_deck"] = {
        "sweeps": len(calls),
        "mean_calls_per_sweep": round(statistics.mean(calls), 3),
        "max_calls_per_sweep": max(calls),
        "mean_points_per_sweep": round(statistics.mean(sizes), 1),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--before-src", type=Path, help="src/ of the tree to compare against (this tree's src/ for A/A)")
    ap.add_argument("--before-label", default="parent commit", help="what --before-src holds")
    ap.add_argument("--out", type=Path, help="JSON file to write")
    ap.add_argument("--measure-first", metavar="NAME", help=argparse.SUPPRESS)
    ap.add_argument("--measure-blocks", metavar="CUTOFF", type=int, nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure_first:
        print(json.dumps(measure_first(args.measure_first)))
        return 0
    if args.measure_blocks:
        print(json.dumps(measure_blocks(args.measure_blocks)))
        return 0
    if args.before_src is None or args.out is None:
        ap.error("--before-src and --out are required")

    srcs = {"before": args.before_src.resolve(), "after": ROOT / "src"}
    first = {name: first_calls(srcs, name) for name in ORACLE_NAMES}
    blocks = block_cache(srcs)

    import numpy as np

    trees = {side: load_tree(src, f"mzphase_{side}") for side, src in srcs.items()}
    before, after = ({**kernel_calls(t), "oracle": oracle_calls(t), "rows": sweep_calls(t)} for t in trees.values())
    probe = trees["after"].states.ProbeParams
    report = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "blas_threads": 1,
        },
        "before": args.before_label,
        "after": "working tree",
        "timer": {"budget_s": BUDGET_S, "min_pairs": MIN_PAIRS, "ratio": "before / after within a pair"},
        "probe": {"alpha": 2.0, "r": 0.5, "loss": 0.1, "m": list(M_LIST), "batches": list(BATCHES)},
        "series_mul": {"caps": list(SERIES_CAPS), "batches": list(SERIES_BATCHES)},
        "rows_probe": {
            "alpha": 2.0, "r": 0.5, "m": list(ROW_M), "rows": list(ROWS), "groups": list(GROUPS),
            "kernel_rows": "phi from -1.5 to 1.5, loss alternating 0 and 0.1",
            "optimal_rows": "loss from 0 to 0.4",
            "presets": [f"{n}{p}" for n, p in PRESETS],
            "threads": list(THREADS),
            "refine_presets": [f"{n}{p}" for n, p in REFINE_PRESETS],
            "decks": {"seed": DECK_SEED, "sweeps": DECK_SWEEPS},
        },
        "oracle_probe": dict(
            ORACLE_PROBE,
            r=list(ORACLE_R),
            cutoff={f"r{r}": trees["after"].oracle.default_cutoff(probe(r=r, **ORACLE_PROBE)) for r in ORACLE_R},
        ),
        "units": "ms per call",
        "paired": {},
        "oracle_first": first,
        "block_cache": blocks,
    }
    for group, names in after.items():
        for name, call in names.items():
            got = report["paired"].setdefault(group, {})[name] = paired(before[group][name], call)
            print(f"{group}.{name}: ratio {got['ratio']} over {got['pairs']} pairs", file=sys.stderr)
    sweeps = [name for name in after["rows"] if not name.startswith(("kernel_", "optimal_"))]
    report["csv_identical"] = {name: before["rows"][name]() == after["rows"][name]() for name in sweeps}
    report["refine_calls"] = {side: refine_calls(t) for side, t in trees.items()}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
