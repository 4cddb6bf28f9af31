"""Sweep engine and command-line surface: schema, determinism, presets."""

import concurrent.futures
import json
import math

import pytest

from mzphase.cli import main
from mzphase.errors import SchemaViolation, SpecInvalid, UnknownFigure
from mzphase.parity import parity_expectation
from mzphase.moments import moment_set
from mzphase.qfi_kerr import qfi_ideal_kerr
from mzphase.states import ProbeParams
from mzphase.sweep import SweepSpec, _oracle_value, figure_preset, fnum, parse_config, run_sweep, validate_spec

MINIMAL = {
    "schema_version": 1,
    "quantity": "parity",
    "sweep": {"name": "phi", "start": 0.0, "stop": 1.0, "count": 3},
    "fixed": {"alpha": 1.0, "r": 0.5},
}


def cfg(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_fills_defaults():
    spec = parse_config(cfg())
    assert spec.quantity == ("parity",)
    assert spec.sweep_name == "phi"
    assert spec.sweep_values == (0.0, 0.5, 1.0)
    assert spec.m_list == (0, 1, 2, 3)
    assert spec.energy_mode == "fixed_r"
    assert spec.loss == (0.0,)
    assert not spec.oracle_check


def test_unknown_top_level_key_is_located():
    with pytest.raises(SchemaViolation, match=r"\$\.gamma_mode"):
        parse_config(cfg(gamma_mode="x"))


def test_unknown_fixed_key_is_located():
    with pytest.raises(SchemaViolation, match=r"\$\.fixed\.beta"):
        parse_config(cfg(fixed={"alpha": 1.0, "r": 0.5, "beta": 2.0}))


def test_schema_violations_carry_paths():
    with pytest.raises(SchemaViolation, match=r"\$\.schema_version"):
        parse_config(json.dumps({"quantity": "parity"}))
    with pytest.raises(SchemaViolation, match=r"\$\.quantity\[0\]"):
        parse_config(cfg(quantity=["entropy"]))
    with pytest.raises(SchemaViolation, match=r"\$\.sweep\.count"):
        parse_config(cfg(sweep={"name": "phi", "start": 0, "stop": 1, "count": 1}))
    with pytest.raises(SchemaViolation, match=r"\$\.m_list\[1\]"):
        parse_config(cfg(m_list=[0, 11]))
    with pytest.raises(SchemaViolation, match=r"\$: not valid JSON"):
        parse_config("{nope")


def test_semantic_errors_are_spec_invalid():
    spec = parse_config(cfg(quantity="sensitivity", fixed={"alpha": 1.0, "r": 0.5},
                            sweep={"name": "l", "start": 0.0, "stop": 0.3, "count": 3}))
    with pytest.raises(SpecInvalid, match="phi"):
        validate_spec(spec)
    both = parse_config(cfg(energy_mode="fixed_total",
                            fixed={"alpha": 1.0, "r": 0.5, "nbar": 8.0}))
    with pytest.raises(SpecInvalid, match="exactly one"):
        validate_spec(both)
    with pytest.raises(SpecInvalid, match="ascending"):
        validate_spec(parse_config(cfg(sweep={"name": "phi", "values": [1.0, 0.0]})))


def test_infeasible_fixed_energy_is_spec_invalid():
    # nbar two photons below what m=3 photon addition alone carries
    spec = parse_config(cfg(energy_mode="fixed_total", m_list=[3],
                            fixed={"alpha": 1.0, "nbar": 1.0}))
    with pytest.raises(SpecInvalid, match="m=3"):
        run_sweep(spec)


def test_sweep_rows_match_direct_evaluation():
    spec = parse_config(cfg(m_list=[0, 1], loss=[0.0, 0.2]))
    table = run_sweep(spec)
    assert table.header == ("panel", "phi", "m", "l", "alpha", "r", "parity", "status")
    assert len(table.rows) == 3 * 2 * 2
    # rows ordered: phi ascending, then m, then loss
    row = table.rows[3]  # phi=0.0, m=1, l=0.2
    assert row[1] == "0.00000000000e+00" and row[2] == "1" and row[3] == "2.00000000000e-01"
    want = parity_expectation(ProbeParams(alpha=1.0, r=0.5, m=1, loss=0.2, phi=0.0)).value
    assert float(row[6]) == pytest.approx(want, abs=1e-11)
    assert row[-1] == "ok"


def test_render_is_deterministic():
    spec = parse_config(cfg())
    a = run_sweep(spec).render()
    b = run_sweep(spec).render()
    assert a == b
    assert a.startswith("# mzphase ")
    assert "\n# oracle" not in a


def test_infeasible_rows_become_status_codes():
    spec = parse_config(json.dumps({
        "schema_version": 1,
        "quantity": "qcrb_linear",
        "sweep": {"name": "nbar", "start": 1.0, "stop": 3.0, "count": 3},
        "fixed": {"r": 0.5},
        "energy_mode": "fixed_total",
        "m_list": [0, 2],
        "loss": 0.1,
    }))
    table = run_sweep(spec)
    by_key = {(r[1], r[2]): r for r in table.rows}
    bad = by_key[("1.00000000000e+00", "2")]
    assert bad[-1] == "infeasible_target"
    assert bad[table.header.index("qcrb_linear")] == "nan"
    good = by_key[("3.00000000000e+00", "0")]
    assert good[-1] == "ok"
    assert float(good[table.header.index("qcrb_linear")]) > 0


def test_oracle_check_columns_and_deviation():
    spec = parse_config(cfg(m_list=[0, 1], loss=[0.1], oracle_check=True, oracle_stride=2))
    table = run_sweep(spec)
    assert "oracle_parity" in table.header
    idx = table.header.index("oracle_parity")
    filled = [r for r in table.rows if r[idx] != ""]
    assert len(filled) == 3  # stride 2 over 6 rows
    dev_line = [l for l in table.trailer if l.startswith("oracle_max_dev=")][0]
    assert float(dev_line.split("=")[1]) < 1e-7


def test_parity_family_oracle_runs_once_per_sampled_row(monkeypatch):
    from mzphase import sweep

    real, calls = sweep.parity_signal_oracle, []
    monkeypatch.setattr(sweep, "parity_signal_oracle", lambda p: calls.append(p) or real(p))
    quantities = ["parity", "sensitivity", "cfi"]
    doc = dict(quantity=quantities, m_list=[0, 2], loss=[0.0, 0.2], oracle_check=True, oracle_stride=2)
    table = run_sweep(parse_config(cfg(**doc)))
    assert "oracle_rows=6" in table.trailer  # stride 2 over 12 rows
    assert len(calls) == 6
    # each quantity's cells are those of a sweep asking for it alone, whose
    # oracle runs once per row for that quantity
    devs = []
    for q in quantities:
        alone = run_sweep(parse_config(cfg(**dict(doc, quantity=q))))
        for name in (q, f"oracle_{q}", "status"):
            both_col, alone_col = table.header.index(name), alone.header.index(name)
            assert [r[both_col] for r in table.rows] == [r[alone_col] for r in alone.rows]
        devs.append(float(alone.trailer[1].split("=")[1]))
    assert table.trailer[1] == f"oracle_max_dev={fnum(max(devs))}"


def test_limits_quantity_table():
    spec = SweepSpec(quantity=("limits",), sweep_name="nbar", sweep_values=(4.0, 8.0))
    table = run_sweep(spec)
    assert table.header[:2] == ("nbar", "sql")
    assert len(table.rows) == 2
    assert float(table.rows[1][1]) == pytest.approx(8.0**-0.5, rel=1e-12)
    assert float(table.rows[1][4]) == pytest.approx(8.0**-2, rel=1e-12)


@pytest.mark.parametrize("n,panel", [(2, "a"), (2, "b"), (4, "a"), (4, "b"), (5, "a"),
                                     (7, "b"), (8, "a"), (9, "a"), (9, "b"), (10, "a"),
                                     (11, "b"), (12, "a")])
def test_presets_validate(n, panel):
    spec = figure_preset(n, panel)
    validate_spec(spec)
    assert spec.sweep_values[0] < spec.sweep_values[-1]


def test_preset_errors():
    for bad in (1, 6, 13, 0, -2):
        with pytest.raises(UnknownFigure):
            figure_preset(bad)
    with pytest.raises(UnknownFigure):
        figure_preset(12, "b")
    with pytest.raises(UnknownFigure):
        figure_preset(2, "c")


def test_preset_shapes():
    f2 = figure_preset(2)
    assert f2.quantity == ("parity",) and f2.sweep_name == "phi"
    assert len(f2.sweep_values) == 201 and f2.loss == (0.0, 0.1)
    f5b = figure_preset(5, "b")
    assert f5b.energy_mode == "fixed_total" and f5b.nbar == 8.0 and f5b.phi == ("optimal",)
    f9 = figure_preset(9)
    assert f9.quantity == ("sensitivity", "qcrb_linear")
    f8 = figure_preset(8)
    assert f8.m_list == (1, 2, 3)
    f12 = figure_preset(12)
    assert f12.quantity == ("qcrb_kerr",) and f12.loss == (0.0, 0.1)


def test_threads_reproduce_sequential_output():
    # the second spec sends batched optimal-phase outcomes to the workers
    # alongside per-row bound work
    optimal = cfg(
        quantity=["sensitivity", "qcrb_linear"],
        sweep={"name": "l", "values": [0.0, 0.2, 0.4]},
        fixed={"alpha": 2.0, "r": 0.5, "phi": "optimal"},
        m_list=[0, 2],
    )
    for text in (cfg(m_list=[0, 1]), optimal):
        spec = parse_config(text)
        assert run_sweep(spec, threads=2).render() == run_sweep(spec, threads=1).render()


def test_threads_without_per_row_work_start_no_pool(monkeypatch):
    # parity, sensitivity and cfi are all computed before the per-row pass,
    # so such a sweep runs in the calling process whatever threads says
    fixed = cfg(quantity=["parity", "sensitivity", "cfi"], m_list=[0, 2], loss=[0.0, 0.1])
    optimal = cfg(
        quantity=["cfi", "sensitivity"],
        sweep={"name": "l", "values": [0.0, 0.2]},
        fixed={"alpha": 2.0, "r": 0.5, "phi": "optimal"},
        m_list=[0, 3],
    )
    specs = [parse_config(text) for text in (fixed, optimal)]
    want = [run_sweep(spec, threads=1).render() for spec in specs]

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert [run_sweep(spec, threads=2).render() for spec in specs] == want


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["limits", "--nbar", "8", "--out", str(out)]) == 0
    text = out.read_text()
    assert "3.53553390593e-01" in text
    assert "# schema_version=1" in text.splitlines()
    assert main(["figure", "13"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "quantity": "parity",
                               "sweep": {"name": "phi", "start": 0, "stop": 1, "count": 3},
                               "fixed": {"alpha": 1.0, "r": 0.5}, "oops": 1}))
    assert main(["sweep", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "$.oops" in err


def test_oracle_check_covers_kerr_fallback_rows(tmp_path):
    # at r = 0 the probe arm carries a Bernoulli count and the Kerr bound
    # falls back to the least-norm vertex; the oracle column must follow it
    path = tmp_path / "kerr.json"
    path.write_text(json.dumps({
        "schema_version": 1, "quantity": "qfi_kerr",
        "sweep": {"name": "r", "values": [0.0, 0.5]},
        "fixed": {"alpha": 0.0}, "m_list": [1], "loss": 0.1, "oracle_check": True,
    }))
    out = tmp_path / "kerr.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert [row["status"] for row in rows] == ["kerr_fallback", "ok"]
    for row in rows:
        value, oracle = float(row["qfi_kerr"]), float(row["oracle_qfi_kerr"])
        assert abs(value - oracle) <= 1e-10 * value


@pytest.mark.parametrize("r,m", [(0.3, 0), (1.0, 3)])
@pytest.mark.parametrize("q", ["qfi_kerr", "qcrb_kerr"])
def test_zero_loss_kerr_oracle_is_computed_without_moments(q, r, m):
    # without loss the oracle column comes from the Fock probe marginal alone
    p = ProbeParams(alpha=1.8, r=r, m=m)
    fq = qfi_ideal_kerr(moment_set(p)).fq
    want = fq if q == "qfi_kerr" else fq**-0.5
    assert _oracle_value(q, p, None) == pytest.approx(want, rel=1e-8)


def test_unlisted_row_error_aborts_without_output(tmp_path, capsys, monkeypatch):
    # only the ROW_ERRORS become row statuses; anything else aborts the sweep
    import mzphase.sweep
    from mzphase.errors import ConsistencyError

    def broken(*args):
        raise ConsistencyError("injected")

    # the batched parity pass is where a parity sweep's kernel runs
    monkeypatch.setattr(mzphase.sweep, "parity_signals", broken)
    path = tmp_path / "cfg.json"
    path.write_text(cfg())
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "numeric failure: ConsistencyError" in capsys.readouterr().err


def test_cli_match_energy(tmp_path):
    out = tmp_path / "me.csv"
    assert main(["match-energy", "--m", "1", "--nbar-b", "4", "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[-1].split(",")
    # 3 cosh^2 r - 2 = 4 at the match point
    assert float(row[2]) == pytest.approx(math.acosh(math.sqrt(2.0)), abs=1e-9)
    assert float(row[3]) == pytest.approx(4.0, abs=1e-9)


def test_cli_figure_runs_small(tmp_path, monkeypatch):
    # shrink a preset grid through the config path to keep this test quick
    spec = figure_preset(7)
    small = json.dumps({
        "schema_version": 1,
        "quantity": list(spec.quantity),
        "sweep": {"name": "r", "start": 0.0, "stop": 1.0, "count": 3},
        "fixed": {"alpha": 2.0},
        "m_list": [0, 1],
        "loss": [0.0, 0.1],
    })
    path = tmp_path / "small.json"
    path.write_text(small)
    out = tmp_path / "small.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[-2] == "qfi_linear"
