"""Seeded benchmark of the mzphase sweep CLI.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each workload's sweep configs are generated from the seed (workloads.py) and
run in-process through `mzphase.cli.main(["sweep", ...])`, single-threaded,
for --seconds of timed sweep time. A fixed reference computation runs
before the first sweep and after each one (hostspeed.py), and the gated
timings are rescaled by it to a nominal host speed, because the shared host
changes speed by up to 1.6x from minute to minute. A correctness pass
follows: exit codes, row counts and statuses of every sweep, and a seeded
subsample of rows recomputed by the Fock oracle (checks.py).

--trace 0 reports the end-to-end metrics; --trace 1 runs the same sweeps
once untraced and once with spans recorded (spans.py) and reports the
per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs each
workload in its own process and prints every metric of every workload.
Run details and spans are written under perfbench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# one thread per process: a BLAS pool that spins on a core another tenant
# holds measures the scheduler, not the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, hostspeed, workloads  # noqa: E402

OUT = ROOT / "perfbench" / ".out"
SETUP_REPEATS = 5
SETUP_REFERENCE_CALLS = 3  # a probe is one sample, so take the median reference around it
RECHECK_ROWS = 24
PROBE_TIMEOUT_S = 170
RUN_TIMEOUT_S = 900
END_TO_END = (
    ("rows_per_s_norm", "rows/s"),
    ("sweep_s_p50_norm", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("xcheck_digits", "digits"),
)


def load_program():
    """Import mzphase from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mzphase.cli  # noqa: F401

    where = Path(sys.modules["mzphase"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"mzphase imported from {where}, not from {src}")


def stamp(seed: int) -> dict:
    """Machine and run details that every result carries."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_hash.update(path.relative_to(ROOT).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": src_hash.hexdigest()[:16],
    }


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree; read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- running sweeps -------------------------------------------------------------


class Done(NamedTuple):
    sweep: workloads.Sweep
    code: int
    dt: float  # seconds of the cli.main call
    text: str | None
    ref_s: float = 0.0  # reference time around the call; 0 where not taken

    @property
    def dt_norm(self) -> float:
        return hostspeed.rescale(self.dt, self.ref_s)


class Runner:
    """Writes configs and runs them through the CLI, timing only the call."""

    def __init__(self, workdir: Path):
        from mzphase import cli

        self.cli = cli
        workdir.mkdir(parents=True, exist_ok=True)
        self.cfg = workdir / "config.json"
        self.csv = workdir / "out.csv"

    def run(self, sweep) -> tuple[int, float, str | None]:
        self.cfg.write_text(sweep.text())
        self.csv.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = self.cli.main(["sweep", "--config", str(self.cfg), "--out", str(self.csv)])
        except SystemExit as e:  # argparse rejects
            code = e.code if isinstance(e.code, int) else 1
        dt = time.perf_counter() - t0
        text = self.csv.read_text() if code == 0 and self.csv.exists() else None
        return code, dt, text

    def warm(self, sweeps):
        for sweep in sweeps:
            code, _, _ = self.run(sweep)
            if code != 0:
                raise RuntimeError(f"warm-up sweep {sweep.template} exited {code}")


def timed_region(runner: Runner, sweeps, seconds: float, cycle: int) -> tuple[list[Done], float]:
    """Run sweeps until their summed CLI time reaches `seconds`, then on to the
    end of the pass over the deck's `cycle` templates, so that every template
    weighs the same in the result wherever the time runs out. The host-speed
    reference runs before the first sweep and after each one; a sweep's
    reference time is the mean of the two runs around it."""
    done, total = [], 0.0
    before = hostspeed.timed_reference()
    for sweep in sweeps:
        code, dt, text = runner.run(sweep)
        after = hostspeed.timed_reference()
        done.append(Done(sweep, code, dt, text, (before + after) / 2))
        before = after
        total += dt
        if total >= seconds and len(done) % cycle == 0:
            break
    return done, total


def measure_setup(workload: str, seed: int, workdir: Path) -> list[tuple[float, float]]:
    """(set-up time, reference time around it) of SETUP_REPEATS fresh
    processes, one after another."""
    cfg_paths = []
    for sweep in workloads.warmup_deck(workload, seed):
        path = workdir / f"warmup_{sweep.index}.json"
        path.write_text(sweep.text())
        cfg_paths.append(str(path))
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    before = hostspeed.timed_reference(SETUP_REFERENCE_CALLS)
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(probe), str(ROOT), str(workdir / "warmup.csv"), *cfg_paths],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        after = hostspeed.timed_reference(SETUP_REFERENCE_CALLS)
        times.append((json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], (before + after) / 2))
        before = after
    return times


def correctness(done: list[Done], seed: int, workload: str) -> checks.Verdict:
    """Checks every sweep; the oracle re-checks rows drawn from the first pass
    over the templates, so which rows are checked depends on the seed only,
    not on how many sweeps the host's speed let the timed region finish."""
    verdict = checks.Verdict()
    first_pass = len(workloads.TEMPLATES[workload])
    good = []
    for i, d in enumerate(done):
        rows = checks.check_sweep(verdict, d.sweep, d.code, d.text)
        if i < first_pass:
            good.extend(rows)
    rng = random.Random(f"{workload}:{seed}:recheck")
    checks.recheck(verdict, rng.sample(good, min(RECHECK_ROWS, len(good))))
    return verdict


# -- reporting ------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_stamp(info: dict):
    threads = ",".join(f"{k}={v}" for k, v in info["blas_threads"].items())
    print(
        f"machine: nproc={info['nproc']} usable={info['cpus_usable']} {info['machine']} "
        f"python={info['python']} numpy={info['numpy']} scipy={info['scipy']} blas={info['blas']} ({threads})"
    )
    print(f"run: seed={info['seed']} commit={info['commit']} src_sha256={info['src_sha256']}")


def _print_verdict(workload: str, verdict: checks.Verdict):
    hist = " ".join(f"{k}={v}" for k, v in sorted(verdict.statuses.items()))
    print(f"{workload} statuses: {hist or 'none'}")
    for why in verdict.problems:
        print(f"{workload} FAIL {why}")


def _final(verdict: checks.Verdict, metrics: dict[str, tuple[float, str]]):
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _save(workdir: Path, payload: dict):
    (workdir / "result.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _p90(values: list[float]) -> str:
    """p90 once ten samples lie beyond it."""
    return f", p90 {_fmt(statistics.quantiles(values, n=10)[-1])} s" if len(values) >= 100 else ", too few for p90"


def end_to_end(workload: str, seed: int, seconds: float):
    info = stamp(seed)
    _print_stamp(info)
    workdir = OUT / workload
    runner = Runner(workdir)
    for _ in range(3):
        hostspeed.reference()  # first calls pay for page faults and caches
    setup = measure_setup(workload, seed, workdir)
    runner.warm(workloads.warmup_deck(workload, seed))
    done, timed = timed_region(runner, workloads.deck(workload, seed), seconds, len(workloads.TEMPLATES[workload]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    verdict = correctness(done, seed, workload)
    check_s = time.perf_counter() - t0

    rows = sum(d.sweep.rows for d in done if d.code == 0)
    durations = [d.dt for d in done]
    normed = [d.dt_norm for d in done]
    refs = [d.ref_s for d in done]
    setup_norm = [hostspeed.rescale(t, ref) for t, ref in setup]
    values = {
        "rows_per_s_norm": rows / sum(normed),
        "sweep_s_p50_norm": statistics.median(normed),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": peak_rss_mb,
        "xcheck_digits": verdict.digits,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    fail_frac = verdict.failed / max(verdict.attempted, 1)
    ref_note = f"reference {1e3 * statistics.median(refs):.1f} ms median, {1e3 * hostspeed.REFERENCE_S:.0f} ms nominal"
    samples = {
        "rows_per_s_norm": f"{rows} rows in {len(done)} sweeps, {sum(normed):.2f} s at nominal speed; {ref_note}",
        "sweep_s_p50_norm": f"{len(normed)} sweeps{_p90(normed)}",
        "setup_s": f"median of {len(setup)} fresh processes at nominal speed, all {[round(t, 4) for t in setup_norm]}",
        "peak_rss_mb": "1 process, ru_maxrss at the end of the timed region",
        "xcheck_digits": f"worst guarded deviation {verdict.worst_dev:.3e} over {verdict.checked_rows} oracle-checked rows",
    }
    # the same timings as measured, for reading next to the host's speed; not gated
    raw = {
        "rows_per_s": (rows / timed, "rows/s", f"{timed:.2f} s timed"),
        "sweep_s_p50": (statistics.median(durations), "s", f"{len(durations)} sweeps{_p90(durations)}"),
        "setup_s_raw": (statistics.median(t for t, _ in setup), "s", f"all {[round(t, 4) for t, _ in setup]}"),
    }
    print(f"workload {workload}: {len(done)} sweeps timed in whole passes over the templates; correctness pass {check_s:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {workload} {name:<16} {_fmt(value):>12} {unit:<7} ({samples[name]})")
    print(f"  {workload} {'fail_frac':<16} {_fmt(fail_frac):>12} {'ratio':<7} ({verdict.failed} of {verdict.attempted} rows)")
    for name, (value, unit, note) in raw.items():
        print(f"  {workload} {name:<16} {_fmt(value):>12} {unit:<7} (as measured, not gated: {note})")
    _print_verdict(workload, verdict)
    _save(workdir, {
        "workload": workload, "trace": 0, "stamp": info, "metrics": metrics, "samples": samples,
        "as_measured": {k: v[:2] for k, v in raw.items()},
        "fail_frac": fail_frac, "attempted": verdict.attempted, "failed": verdict.failed,
        "statuses": dict(verdict.statuses), "problems": verdict.problems,
        "sweeps": [(d.sweep.template, d.dt, d.ref_s) for d in done], "setup_all_s": setup,
    })
    _final(verdict, metrics)


def traced(workload: str, seed: int, seconds: float):
    from mzphase import oracle

    from perfbench import spans

    info = stamp(seed)
    _print_stamp(info)
    workdir = OUT / workload
    runner = Runner(workdir)
    runner.warm(workloads.warmup_deck(workload, seed))

    # each sweep runs untraced, then traced, back to back, so both passes see
    # the same caches and the same phases of machine noise
    rec = spans.Recorder()
    plain, traced_done, plain_s, traced_s, misses = [], [], 0.0, 0.0, 0
    for sweep in workloads.deck(workload, seed):
        code, dt, text = runner.run(sweep)
        plain.append(Done(sweep, code, dt, text))
        plain_s += dt
        misses0 = oracle._bs_blocks.cache_info().misses
        rec.sweep_id = sweep.index
        with spans.installed(rec):
            code, dt, text = runner.run(sweep)
        misses += oracle._bs_blocks.cache_info().misses - misses0
        traced_done.append(Done(sweep, code, dt, text))
        traced_s += dt
        if plain_s >= seconds / 2:
            break
    rec.save(workdir / "spans.npz")

    verdict = correctness(plain, seed, workload)
    for p, t in zip(plain, traced_done):
        if t.text != p.text:
            verdict.fail(p.sweep.rows, f"sweep {p.sweep.index}: traced and untraced CSVs differ")
    rows = sum(d.sweep.rows for d in traced_done if d.code == 0)
    table = spans.derive(rec, traced_s, plain_s, rows, misses)

    print(f"workload {workload}: {len(plain)} sweeps, {rows} rows; untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    if rec.missing:
        print(f"{workload} not traced (absent from the program): {', '.join(sorted(rec.missing))}")
    for name, (value, unit) in table.metrics.items():
        print(f"  {workload} {name:<38} {_fmt(value):>12} {unit}")
    for key, m, calls, mean_ms in table.per_m:
        print(f"  {workload} per-m {key:<22} m={m:<2} calls={calls:<7} {mean_ms:.4g} ms/call")
    accounted = sum(table.layer_self_s.values())
    print(
        f"  {workload} self time by layer: " + " + ".join(f"{k} {v:.3f}" for k, v in table.layer_self_s.items())
        + f" = {accounted:.3f} s of {traced_s:.3f} s traced; remainder {traced_s - accounted:.4f} s"
    )
    _print_verdict(workload, verdict)
    _save(workdir, {
        "workload": workload, "trace": 1, "stamp": info, "metrics": table.metrics,
        "per_m": table.per_m, "layer_self_s": table.layer_self_s,
        "statuses": dict(verdict.statuses), "problems": verdict.problems,
    })
    _final(verdict, table.metrics)


def run_all(args) -> int:
    """Each workload in its own process; one summary of every metric."""
    summary, fail_fracs, attempted, failed, correct = {}, {}, 0, 0, True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            summary[f"{workload}.{name}"] = (m["value"], m["unit"])
        frac = result["failed"] / max(result["attempted"], 1)
        fail_fracs[workload] = f"{_fmt(frac):>12} ratio ({result['failed']} of {result['attempted']} rows)"
    print("summary:")
    for name, (value, unit) in summary.items():
        print(f"  {name:<44} {_fmt(value):>12} {unit}")
    for workload, frac in fail_fracs.items():
        print(f"  {workload + '.fail_frac':<44} {frac}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_program()
    except ImportError as e:
        print(f"error: cannot import mzphase from this checkout: {e}", file=sys.stderr)
        return 2
    (traced if args.trace else end_to_end)(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
