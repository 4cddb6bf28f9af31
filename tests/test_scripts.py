"""The tree-comparison scripts, run on this checkout's `src/` loaded twice.

`scripts/trees.py` imports a `src/` tree under a package name of its own, and
`scripts/bench_kernels.py` and `scripts/oracle_moves.py` compare two such
loads. Here both loads hold the same code (an A/A comparison): the paired
timer must report both sides with a finite ratio, both loads must render a
preset's CSV to the same bytes, and no oracle value may move. The budgets
and the grid are cut down so that the module runs in a few seconds.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_kernels  # noqa: E402
import oracle_moves  # noqa: E402
from trees import ROOT, load_tree  # noqa: E402


@pytest.fixture(scope="module")
def twice():
    return load_tree(ROOT / "src", "mzphase_aa_first"), load_tree(ROOT / "src", "mzphase_aa_second")


def test_loads_are_separate_packages(twice):
    first, second = twice
    assert first.sweep is not second.sweep
    assert first.oracle._probe_marginal is not second.oracle._probe_marginal


def test_paired_timer_alternates_which_side_goes_first(monkeypatch):
    monkeypatch.setattr(bench_kernels, "BUDGET_S", 0.0)
    monkeypatch.setattr(bench_kernels, "MIN_PAIRS", 4)
    order = []
    # each call does a little work, so that no timing reads 0
    got = bench_kernels.paired(*(lambda side=side: order.append(side) or sum(range(100)) for side in "ba"))
    # one untimed call of each, then pairs (b, a), (a, b), (b, a), (a, b)
    assert "".join(order) == "ba" + "ba" + "ab" + "ba" + "ab"
    assert got["pairs"] == 4


def test_paired_timer_reports_both_sides(twice, monkeypatch):
    monkeypatch.setattr(bench_kernels, "BUDGET_S", 0.05)
    monkeypatch.setattr(bench_kernels, "MIN_PAIRS", 4)
    before, after = (bench_kernels.kernel_calls(t)["moment_set"]["m3"] for t in twice)
    got = bench_kernels.paired(before, after)
    assert got["pairs"] >= 4
    assert got["before_ms"] > 0 and got["after_ms"] > 0
    assert math.isfinite(got["ratio"]) and got["ratio"] > 0
    assert got["ratio_q1"] <= got["ratio"] <= got["ratio_q3"]


def test_oracle_entries_are_the_named_ones(twice):
    # the fresh-process first calls are run by name before any tree loads
    assert tuple(bench_kernels.oracle_calls(twice[0])) == bench_kernels.ORACLE_NAMES


def test_first_call_runs_in_fresh_processes(monkeypatch):
    monkeypatch.setattr(bench_kernels, "FIRST_RUNS", 1)
    got = bench_kernels.first_calls({"before": ROOT / "src", "after": ROOT / "src"}, "default_cutoff")
    for side in ("before", "after"):
        assert got[side]["min_ms"] > 0
        assert len(got[side]["maxrss_kb"]) == 1


def test_block_cache_runs_in_fresh_processes(monkeypatch):
    monkeypatch.setattr(bench_kernels, "FIRST_RUNS", 1)
    monkeypatch.setattr(bench_kernels, "BLOCK_CUTOFFS", (24, 48))
    got = bench_kernels.block_cache({"before": ROOT / "src", "after": ROOT / "src"})
    for side in ("before", "after"):
        small, large = got[side]["cutoff24"], got[side]["cutoff48"]
        assert small["bytes"] == 8 * sum((k + 1) ** 2 for k in range(25))
        assert large["bytes"] == 8 * sum((k + 1) ** 2 for k in range(49))
        assert got[side]["import_maxrss_kb"][0] <= small["maxrss_kb"][0] <= large["maxrss_kb"][0]
        assert math.isfinite(large["resident_per_byte"]) and large["resident_per_byte"] >= 0
        assert small["median_ms"] > 0 and large["median_ms"] > 0


def test_both_loads_render_the_same_preset_csv(twice):
    first, second = (t.sweep.run_sweep(t.sweep.figure_preset(2, "a")).render() for t in twice)
    assert first == second


def test_sweep_entries_render_the_same_bytes_on_both_loads(twice, monkeypatch):
    # the preset and deck entries that `csv_identical` compares, cut down to
    # one preset at one thread and the first two sweeps of the `bounds` deck
    monkeypatch.setattr(bench_kernels, "PRESETS", ((7, "b"),))
    monkeypatch.setattr(bench_kernels, "THREADS", (1,))
    monkeypatch.setattr(bench_kernels, "DECK_SWEEPS", {"bounds": 2})
    first, second = (bench_kernels.sweep_calls(t) for t in twice)
    sweeps = [name for name in first if not name.startswith(("kernel_", "optimal_"))]
    assert sweeps == ["preset_7b_t1", "bounds_deck"]
    assert all(first[name]() == second[name]() for name in sweeps)


def test_oracle_moves_on_one_probe(twice, monkeypatch):
    for name, grid in (("GRID_ALPHA", (1.6,)), ("GRID_R", (0.7,)), ("GRID_M", (2,)), ("GRID_LOSS", (0.21,))):
        monkeypatch.setattr(oracle_moves, name, grid)
    before, after = (oracle_moves.measure(t) for t in twice)
    report = oracle_moves.compare(before, after)
    assert "kerr_cq_numeric" in report
    assert all(q["values"] > 0 and q["moved"] == 0 for q in report.values())
    # a moved value is found and named
    probe = next(iter(after["parity"]))
    after["parity"][probe][0] += 1e-9
    assert oracle_moves.compare(before, after)["parity"]["moved"] == 1


def test_refine_calls_on_both_loads(twice, monkeypatch):
    # every name `refine_calls` reads must exist in `src/`, its except clause
    # included: a row that ends in DegenerateSignal is left out of the counts
    for name, value in (("ROW_M", (0,)), ("GROUPS", (1, 2)), ("REFINE_PRESETS", ((5, "a"),))):
        monkeypatch.setattr(bench_kernels, name, value)
    monkeypatch.setitem(bench_kernels.DECK_SWEEPS, "optimize", 1)
    got = []
    for tree in twice:
        search = tree.parity.optimal_phase

        def no_optimum(p, tree=tree, search=search):
            if p.loss == 0.4:
                raise tree.errors.DegenerateSignal("no finite sensitivity anywhere in the window")
            return search(p)

        monkeypatch.setattr(tree.parity, "optimal_phase", no_optimum)
        got.append(bench_kernels.refine_calls(tree))
    assert got[0] == got[1]
    assert sorted(got[0]) == ["optimal_g1_m0", "optimal_g2_m0", "optimize_deck", "preset_5a"]
    assert got[0]["optimal_g2_m0"]["rows"] == 1
    assert got[0]["optimize_deck"]["sweeps"] == 1


def test_first_table_call_finds_its_marginal_built(monkeypatch):
    # the probe marginal takes about 200 ms to build in a fresh process, the
    # table on it under 2 ms
    monkeypatch.setattr(bench_kernels, "FIRST_RUNS", 1)
    got = bench_kernels.first_calls({"before": ROOT / "src", "after": ROOT / "src"}, "loss_weight_table")
    assert max(got[side]["min_ms"] for side in got) < 50
