"""A sweep point's loss rows share one moment set and one energy solve.

The moments describe the probe before loss acts, and `run_sweep` emits a
sweep point's loss scenarios as consecutive rows, so a row reuses the
moment set of the row before it when both have the same (alpha, r, m).
These tests count the calls that reach `sweep.moment_set` and
`sweep.solve_r_for_energy`, and check that sharing changes no value (the
`--threads` case is in tests/test_cli.py). Each test starts with nothing
kept (tests/conftest.py).
"""

import itertools
import json

import pytest

from mzphase import sweep
from mzphase.cli import main
from mzphase.errors import ConsistencyError
from mzphase.moments import moment_set
from mzphase.qfi_linear import qfi_lossy_linear
from mzphase.states import ProbeParams
from mzphase.sweep import fnum, parse_config, run_sweep

M_LIST = [0, 1, 2, 3, 6]


def spec_text(**doc) -> str:
    return json.dumps({"schema_version": 1, "quantity": "qfi_linear", "m_list": M_LIST, **doc})


R_SWEEP = spec_text(sweep={"name": "r", "start": 0.1, "stop": 1.0, "count": 8}, fixed={"alpha": 2.0}, loss=[0.0, 0.1])


@pytest.fixture
def calls(monkeypatch):
    """The arguments of every call that reaches the two counted names."""
    seen = {"moment_set": [], "solve_r_for_energy": []}
    for name, log in seen.items():
        real = getattr(sweep, name)
        monkeypatch.setattr(sweep, name, lambda *args, real=real, log=log: log.append(args) or real(*args))
    return seen


def test_loss_rows_of_a_sweep_point_share_one_moment_set(calls):
    spec = parse_config(R_SWEEP)
    table = run_sweep(spec)
    assert len(table.rows) == 80
    assert len(calls["moment_set"]) == 40  # one per (r, m), not one per row
    # each row still holds the value of its own moment set; rows run r, then m, then loss
    col = table.header.index("qfi_linear")
    for row, (r, m, loss) in zip(table.rows, itertools.product(spec.sweep_values, M_LIST, spec.loss)):
        p = ProbeParams(2.0, r, m, loss)
        assert row[col] == fnum(qfi_lossy_linear(moment_set(p), loss).fq)


def test_loss_sweep_shares_nothing(calls):
    # on an l axis the probe repeats every len(M_LIST) rows, never in the next row
    text = spec_text(
        quantity=["qcrb_linear", "qcrb_kerr"],
        sweep={"name": "l", "start": 0.0, "stop": 0.6, "count": 16},
        fixed={"alpha": 2.0, "r": 0.5},
    )
    run_sweep(parse_config(text))
    assert len(calls["moment_set"]) == 80


def test_energy_is_solved_once_per_sweep_point_and_order(calls):
    text = spec_text(
        quantity=["qcrb_linear", "qcrb_kerr"],
        sweep={"name": "nbar", "start": 8.5, "stop": 9.5, "count": 3},
        fixed={"alpha": 1.2},
        energy_mode="fixed_total",
        loss=[0.0, 0.2],
        m_list=[1, 2, 3, 6],
    )
    table = run_sweep(parse_config(text))
    assert {row[-1] for row in table.rows} == {"ok"}
    assert len(table.rows) == 24
    assert len(calls["solve_r_for_energy"]) == 12
    assert len(calls["moment_set"]) == 12


def test_moment_set_error_aborts_and_is_not_kept(tmp_path, capsys, calls, monkeypatch):
    def broken(p):
        raise ConsistencyError("injected")

    counted = sweep.moment_set
    monkeypatch.setattr(sweep, "moment_set", broken)
    path = tmp_path / "cfg.json"
    path.write_text(R_SWEEP)
    out = tmp_path / "never.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "numeric failure: ConsistencyError" in capsys.readouterr().err
    # the same probe again: the failed call left nothing behind to reuse
    monkeypatch.setattr(sweep, "moment_set", counted)
    run_sweep(parse_config(R_SWEEP))
    assert len(calls["moment_set"]) == 40
