"""The benchmark's own tests: generators, tracing and the correctness pass.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from mzphase import cli, sweep  # noqa: E402
from mzphase.jets import MultiJet  # noqa: E402

from perfbench import checks, hostspeed, run, spans, workloads  # noqa: E402


def _first(workload, seed, n):
    return list(itertools.islice(workloads.deck(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    n = 3 * len(workloads.TEMPLATES[workload])
    first = [s.text() for s in _first(workload, 7, n)]
    again = [s.text() for s in _first(workload, 7, n)]
    other = [s.text() for s in _first(workload, 8, n)]
    assert first == again
    assert first != other
    warm = [s.text() for s in workloads.warmup_deck(workload, 7)]
    assert warm == [s.text() for s in workloads.warmup_deck(workload, 7)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_yield_only_valid_specs(workload):
    decks = [_first(workload, seed, 2 * len(workloads.TEMPLATES[workload])) for seed in range(25)]
    decks.append(workloads.warmup_deck(workload, 0))
    for s in itertools.chain.from_iterable(decks):
        spec = sweep.parse_config(s.text())
        sweep.validate_spec(spec)
        per_point = len(spec.m_list) * (1 if spec.sweep_name == "l" else len(spec.loss))
        assert s.rows == len(spec.sweep_values) * per_point


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_write_identical_csvs(workload, tmp_path):
    runner = run.Runner(tmp_path)
    first = _first(workload, 3, 1)[0]
    code, _, plain = runner.run(first)
    rec = spans.Recorder()
    originals = (cli.main, MultiJet.__mul__, sweep.moment_set)
    with spans.installed(rec):
        traced_code, _, traced = runner.run(first)
    assert code == traced_code == 0
    assert plain == traced
    assert (cli.main, MultiJet.__mul__, sweep.moment_set) == originals
    assert not rec.missing
    table = spans.derive(rec, 1.0, 1.0, first.rows, 0)
    assert table.metrics["sweep.rows"][0] == first.rows
    assert table.metrics["jets.ops"][0] > 0


def test_self_times_partition_the_outer_span():
    rec = spans.Recorder()
    probe = spans._m_of_probe
    leaf = rec.wrap(lambda p: sum(range(2000)), "parity.parity_expectation", "parity.point", probe)
    mid = rec.wrap(lambda p: leaf(p) + leaf(p), "parity.phase_sensitivity", "parity.point", probe)
    outer = rec.wrap(lambda: [mid(SimpleNamespace(m=m)) for m in (0, 3)], "cli.main", "sweep.main")
    outer()
    a = rec.arrays()
    wall = float(a["end"][0] - a["start"][0])
    table = spans.derive(rec, wall, wall, 0, 0)
    assert table.metrics["parity.point_calls"][0] == 2  # nested point spans count once
    total = table.metrics["sweep.self_s"][0] + table.metrics["parity.point_s"][0]
    assert total == pytest.approx(wall, rel=1e-9)
    assert table.metrics["trace.unaccounted_s"][0] == pytest.approx(0.0, abs=1e-9)
    assert [(k, m, calls) for k, m, calls, _ in table.per_m] == [("parity.point", 0, 1), ("parity.point", 3, 1)]


def test_correctness_pass_flags_bad_rows(tmp_path):
    runner = run.Runner(tmp_path)
    first = _first("scan", 5, 1)[0]
    code, _, text = runner.run(first)
    verdict = checks.Verdict()
    rows = checks.check_sweep(verdict, first, code, text)
    assert verdict.failed == 0 and len(rows) == first.rows

    row = rows[3]
    checks.recheck(verdict, [row])
    assert verdict.failed == 0
    q = row.quantities[0]
    row.cells[q] = repr(float(row.cells[q]) + 1e-6)
    checks.recheck(verdict, [row])
    assert verdict.failed == 1

    verdict = checks.Verdict()
    assert text.endswith(",ok\n")
    checks.check_sweep(verdict, first, 0, text[: -len("ok\n")] + "degenerate_signal\n")
    assert verdict.failed == 1
    checks.check_sweep(verdict, first, 2, None)
    assert verdict.failed == 1 + first.rows
    assert verdict.attempted == 2 * first.rows


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    table = spans.derive(spans.Recorder(), 1.0, 1.0, 0, 0)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in table.metrics.items()}


def test_recheck_rows_come_from_the_first_pass_only(tmp_path):
    runner = run.Runner(tmp_path)
    first_pass = len(workloads.TEMPLATES["bounds"])
    done, _ = run.timed_region(runner, _first("bounds", 9, first_pass + 1), 1e9, first_pass)
    assert len(done) == first_pass + 1
    assert all(d.ref_s > 0 and d.dt_norm > 0 for d in done)
    short = run.correctness(done[:first_pass], 9, "bounds")
    long = run.correctness(done, 9, "bounds")
    assert long.attempted > short.attempted
    assert (long.checked_rows, long.worst_dev) == (short.checked_rows, short.worst_dev)


def test_rescale_reads_times_at_the_nominal_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.rescale(0.3, ref) == pytest.approx(0.3)
    assert hostspeed.rescale(0.3, 1.5 * ref) == pytest.approx(0.2)
