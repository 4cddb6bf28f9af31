"""Batched parity evaluation: every row's result equals its one-row result.

A sweep evaluates all its rows of one photon-addition order in one kernel
call (`parity_signals`) and searches their optimal phases in lockstep
(`optimal_phases`). The values it prints must be the bits a row evaluated
alone gets, so every comparison here is `==`, never approximate.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzphase
from mzphase import parity
from mzphase.errors import ConsistencyError, DegenerateDenominator, DegenerateSignal
from mzphase.parity import (
    _GRID,
    BRACKET_TOL,
    MAX_STEPS,
    _fisher_from,
    _sensitivities,
    _signal_batch,
    classical_fisher,
    optimal_phase,
    optimal_phases,
    parity_expectation,
    parity_signals,
    phase_sensitivity,
)
from mzphase.states import R_MAX, ProbeParams
from mzphase.sweep import SweepSpec, fnum, run_sweep


def _rows(m, rng, count):
    alpha = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 4.0, count - 2)])
    r = np.concatenate([[0.0, 3.0], rng.uniform(0.0, 3.0, count - 2)])
    loss = np.concatenate([[0.0, 0.0], rng.choice([0.0, 0.1, 0.5, 0.9], count - 2)])
    phi = rng.uniform(-math.pi, math.pi, count)
    return [ProbeParams(float(a), float(rr), m, float(l), float(p)) for a, rr, l, p in zip(alpha, r, loss, phi)]


def _signal(sig):
    return (sig.value, sig.dvalue, sig.ddvalue)


@pytest.mark.parametrize("m", range(11))
def test_batched_signal_equals_one_row_calls(m):
    probes = _rows(m, np.random.default_rng(100 + m), 48)
    batch = parity_signals(
        m, [p.alpha for p in probes], [p.r for p in probes], [p.loss for p in probes], [p.phi for p in probes]
    )
    assert [_signal(s) for s in batch] == [_signal(parity_expectation(p)) for p in probes]
    # the same rows in another order, and one probe at many phases
    back = parity_signals(
        m, [p.alpha for p in probes][::-1], [p.r for p in probes][::-1],
        [p.loss for p in probes][::-1], [p.phi for p in probes][::-1],
    )
    assert back[::-1] == batch
    phis = np.array([p.phi for p in probes])
    got = _signal_batch(probes[5], phis)
    want = [_signal(parity_expectation(replace(probes[5], phi=float(x)))) for x in phis]
    assert list(zip(*(g.tolist() for g in got))) == want


def _serial_evaluate(p, phis):
    """Sensitivity and q = P'(P''(1 - P^2) + P P'^2) at each phase, one
    scalar `_fisher_from` call per point."""
    sens, q = [], []
    for v, d, dd in zip(*(x.tolist() for x in _signal_batch(p, phis))):
        try:
            f = _fisher_from(v, d, dd)
        except DegenerateSignal:
            f = 0.0
        sens.append(1.0 / math.sqrt(f) if f > 0 else math.inf)
        q.append(d * (dd * (1.0 - v * v) + v * (d * d)))
    return sens, q


def _serial_optimal_phase(p):
    """The one-row search written out serially: 1001-point scan, then Illinois
    regula falsi on q with one kernel evaluation per new point."""
    scan, scan_q = _serial_evaluate(p, _GRID)
    best = int(np.argmin(scan))
    if not math.isfinite(scan[best]):
        raise DegenerateSignal("no finite sensitivity")
    result = (float(_GRID[best]), scan[best])
    lo, hi = max(best - 1, 0), min(best + 1, _GRID.size - 1)
    a, b, qa, qb = float(_GRID[lo]), float(_GRID[hi]), scan_q[lo], scan_q[hi]
    if not qa > 0 > qb:
        return result
    side = 0
    for _ in range(MAX_STEPS):
        step = 0.5 * BRACKET_TOL * max(1.0, b)
        x = min(max(b - qb * (b - a) / (qb - qa), a + step), b - step)
        (sens,), (q,) = _serial_evaluate(p, np.array([x]))
        if sens < result[1]:
            result = (x, sens)
        if q > 0:
            if side == 1:
                qb *= 0.5
            a, qa, side = x, q, 1
        elif q < 0:
            if side == -1:
                qa *= 0.5
            b, qb, side = x, q, -1
        else:
            break
        if b - a < BRACKET_TOL * max(1.0, b):
            break
    return result


def _golden_optimal_phase(p):
    """The former refinement, kept as a yardstick: golden section on the
    sensitivity over the same bracket, until it changes by at most 1e-10
    and the bracket is under 1e-8."""
    invphi = (math.sqrt(5) - 1) / 2
    scan, _ = _serial_evaluate(p, _GRID)
    best = int(np.argmin(scan))
    a, b = _GRID[max(best - 1, 0)], _GRID[min(best + 1, _GRID.size - 1)]
    c, d = b - invphi * (b - a), a + invphi * (b - a)

    def f(x):
        return _serial_evaluate(p, np.array([x]))[0][0]

    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if abs(fc - fd) <= 1e-10 * max(1.0, abs(fc)) and (b - a) < 1e-8:
            break
    return float(c if fc < fd else d), float(min(fc, fd))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateSignal, DegenerateDenominator) as e:
        return type(e)


@pytest.mark.parametrize("m", range(4))
def test_lockstep_search_equals_serial_search(m):
    # the l >= 0.6 rows include the m = 3 hop of the optimum to a secondary
    # fringe; the vacuum row (alpha = r = 0, m = 0) has no signal at all
    probes = [ProbeParams(2.0, 0.5, m, l) for l in (0.0, 0.1, 0.3, 0.6, 0.65, 0.7, 0.8)]
    probes += [ProbeParams(1.0, 1.0, m, 0.2), ProbeParams(0.0, 0.0, m, 0.1), ProbeParams(0.4, 0.2, m, 0.0)]
    got = [
        type(x) if isinstance(x, Exception) else x
        for x in optimal_phases(m, [p.alpha for p in probes], [p.r for p in probes], [p.loss for p in probes])
    ]
    assert got == [_outcome(_serial_optimal_phase, p) for p in probes]
    assert got == [_outcome(optimal_phase, p) for p in probes]
    if m == 0:
        assert got[-2] is DegenerateSignal


@pytest.mark.parametrize("m", range(4))
def test_refinement_beats_golden_section_and_scan(m, monkeypatch):
    # the probes of the lockstep test plus more lossless rows; their optimum
    # is the phi -> 0 window edge, where 1 - P^2 cancels to about 1e-8
    probes = [ProbeParams(2.0, 0.5, m, l) for l in (0.0, 0.1, 0.3, 0.6, 0.65, 0.7, 0.8)]
    probes += [ProbeParams(1.0, 1.0, m, 0.2), ProbeParams(0.0, 0.0, m, 0.1), ProbeParams(0.4, 0.2, m, 0.0)]
    probes += [ProbeParams(1.0, 1.0, m, 0.0), ProbeParams(3.0, 0.2, m, 0.0)]
    sizes = []
    signal = parity._signal
    monkeypatch.setattr(parity, "_signal", lambda phi, c: sizes.append(phi.size) or signal(phi, c))
    found = optimal_phases(m, [p.alpha for p in probes], [p.r for p in probes], [p.loss for p in probes])
    monkeypatch.undo()
    # every probe holds under 67 photons, so the coarse pass takes every
    # tenth grid point, 101 per row; the fine pass adds the points around its
    # local minima, and at m = 0 all the rest of the vacuum row, whose coarse
    # pass has no finite point
    assert parity._strides(m, [p.alpha for p in probes], [p.r for p in probes]).tolist() == [10] * len(probes)
    assert sizes[0] == len(probes) * 101
    assert sizes[1] < len(probes) * 101 + (900 if m == 0 else 0)
    assert len(sizes) - 2 <= 12
    edges = 0
    for p, res in zip(probes, found):
        if isinstance(res, Exception):  # the vacuum row at m = 0
            assert p.alpha == p.r == 0.0
            continue
        phi, dphi = res
        assert _GRID[0] <= phi <= 1.5
        assert dphi <= min(_serial_evaluate(p, _GRID)[0])
        edge = phi == _GRID[0]
        edges += edge
        assert not edge or p.loss == 0.0
        assert dphi <= _golden_optimal_phase(p)[1] * (1 + (1e-8 if edge else 1e-12))
    assert edges >= 3


def test_vectorised_fisher_step_equals_scalar_calls(monkeypatch):
    rng = np.random.default_rng(5)
    n = 120
    value, dvalue, ddvalue = rng.uniform(-1, 1, n), rng.normal(size=n), rng.normal(size=n)
    # |P| = 1 extrema with a vanishing slope: the limit branch |P''|
    value[:10], dvalue[:10] = np.where(np.arange(10) % 2, 1.0, -1.0), rng.uniform(-9e-7, 9e-7, 10)
    # 1 - P^2 on both sides of its 1e-12 floor, slope small
    value[10:20], dvalue[10:20] = 1.0 - np.geomspace(1e-14, 1e-11, 10), rng.uniform(-9e-7, 9e-7, 10)
    # phase-stationary to second order: DegenerateSignal, so inf
    dvalue[20:30], ddvalue[20:30] = rng.uniform(-9e-13, 9e-13, 10), rng.uniform(-9e-13, 9e-13, 10)
    # no slope away from |P| = 1: F = 0, so inf
    dvalue[30:40] = 0.0
    # a degenerate denominator: the kernel leaves NaN, inf here
    value[40:45] = dvalue[40:45] = ddvalue[40:45] = np.nan
    # real signals: the lossless scan runs into the cancellation near phi = 0
    scans = [np.array(_signal_batch(ProbeParams(2.0, 0.5, m, l), _GRID)) for m in (0, 3) for l in (0.0, 0.3)]
    vals = np.concatenate([np.array([value, dvalue, ddvalue])] + scans, axis=1)

    want = []
    for point in vals.T.tolist():
        try:
            f = _fisher_from(*point)
        except DegenerateSignal:
            f = 0.0
        want.append(1.0 / math.sqrt(f) if f > 0 else math.inf)
    assert _sensitivities(vals).tolist() == want
    assert np.isinf(want[20:45]).all() and np.isfinite(want[:10]).all()

    # |P| = 1 with a nonzero slope is inconsistent, in the batch as alone,
    # and it still aborts a sweep at the optimal phase
    bad = vals.copy()
    bad[:, 7] = (1.0, 1e-3, 0.5)
    with pytest.raises(ConsistencyError):
        _fisher_from(*bad[:, 7])
    with pytest.raises(ConsistencyError):
        _sensitivities(bad)
    signal = parity._signal

    def inconsistent(phi, c):
        out, flagged = signal(phi, c)
        out[:, 0] = (1.0, 1e-3, 0.5)
        return out, flagged

    monkeypatch.setattr(parity, "_signal", inconsistent)
    spec = SweepSpec(
        quantity=("sensitivity",), sweep_name="l", sweep_values=(0.1, 0.2), m_list=(1,), phi=("optimal",),
        alpha=2.0, r=0.5,
    )
    with pytest.raises(ConsistencyError):
        run_sweep(spec)


def test_mixed_order_kernel_equals_single_order_batches():
    # one kernel call over every order 0..10 gives each point the bits of
    # the call that holds only its own order
    rng = np.random.default_rng(9)
    probes = [p for m in range(11) for p in _rows(m, rng, 12)]
    order = rng.permutation(len(probes))
    m, alpha, r, loss, phi = (np.array([getattr(probes[i], f) for i in order]) for f in ("m", "alpha", "r", "loss", "phi"))
    vals, degenerate = parity._signal(phi, parity._row_consts(m, alpha, r, loss))
    assert not degenerate.any()
    for k in range(11):
        at = np.flatnonzero(m == k)
        alone, _ = parity._signal(phi[at], parity._row_consts(k, alpha[at], r[at], loss[at]))
        assert vals[:, at].tolist() == alone.tolist()


def test_imaginary_residue_names_the_lowest_order(monkeypatch):
    # with no tolerance, the rounding residue of the value itself trips the guard
    monkeypatch.setattr(parity, "RESIDUE_TOL", 0.0)
    with pytest.raises(ConsistencyError, match=r"order 0: imaginary residue [1-9]"):
        parity_signals([0, 1, 3], [2.0] * 3, [0.5] * 3, [0.1] * 3, [0.3, 0.7, 1.1])


def _search_outcomes(m, alpha, r, loss):
    """`optimal_phases` outcomes as values or exception types; a
    ConsistencyError, which ends the whole call, as that type alone."""
    try:
        return [type(x) if isinstance(x, Exception) else x for x in optimal_phases(m, alpha, r, loss)]
    except ConsistencyError:
        return ConsistencyError


_mixed_row = st.tuples(
    st.integers(0, 10),
    st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.floats(0.0, 40.0)),
    st.one_of(st.just(0.0), st.floats(0.0, R_MAX)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_mixed_row, min_size=1, max_size=8))
def test_mixed_order_search_equals_one_row_searches(rows):
    m, alpha, r, loss = (list(c) for c in zip(*rows))
    alone = [_search_outcomes(*([x] for x in row)) for row in rows]
    got = _search_outcomes(m, alpha, r, loss)
    if ConsistencyError in alone:
        assert got is ConsistencyError
    else:
        assert got == [x for (x,) in alone]


def test_optimal_phase_sweep_makes_one_search_for_all_orders(monkeypatch):
    # an optimize-shaped sweep: four orders, two rows each. The two scan
    # passes take one kernel call each for the whole sweep, and each
    # refinement step one call for every row still refining, so the count
    # is that of the longest row alone and does not grow with the orders
    signal, calls = parity._signal, []
    monkeypatch.setattr(parity, "_signal", lambda phi, c: calls.append(phi.size) or signal(phi, c))
    steps = []
    for m in range(4):
        for l in (0.1, 0.2):
            calls.clear()
            optimal_phase(ProbeParams(2.0, 0.5, m, l))
            steps.append(len(calls) - 2)
    calls.clear()
    spec = SweepSpec(
        quantity=("sensitivity",), sweep_name="l", sweep_values=(0.1, 0.2), m_list=(0, 1, 2, 3), phi=("optimal",),
        alpha=2.0, r=0.5,
    )
    assert all(row[-1] == "ok" for row in run_sweep(spec).rows)
    assert min(steps) > 0
    assert calls[0] == 8 * 101
    # one search per order would take at least two scan calls and the
    # shortest row's steps for each of them
    assert len(calls) <= 2 + max(steps) < 4 * (2 + min(steps))


def test_degenerate_points_fail_alone(monkeypatch):
    # a raised floor makes abar degenerate near phi = 0 and pi at r = 1 only
    monkeypatch.setattr(parity, "DENOM_TOL", 0.7)
    probes = [ProbeParams(1.5, rr, 2, 0.1, phi) for rr in (0.3, 1.0) for phi in (0.05, 1.5, 3.1)]
    batch = parity_signals(
        2, [p.alpha for p in probes], [p.r for p in probes], [p.loss for p in probes], [p.phi for p in probes]
    )
    kinds = [type(s) for s in batch]
    assert kinds.count(DegenerateDenominator) == 2
    for p, s in zip(probes, batch):
        if isinstance(s, DegenerateDenominator):
            with pytest.raises(DegenerateDenominator):
                parity_expectation(p)
        else:
            assert s == parity_expectation(p)
    rows = [ProbeParams(1.5, rr, 2, 0.1) for rr in (0.3, 1.0, 0.5)]
    found = optimal_phases(2, [p.alpha for p in rows], [p.r for p in rows], [p.loss for p in rows])
    assert isinstance(found[1], DegenerateDenominator)
    assert [found[0], found[2]] == [optimal_phase(rows[0]), optimal_phase(rows[2])]


def _code(e):
    return "".join("_" + ch.lower() if ch.isupper() else ch for ch in e.__name__).lstrip("_")


def _row_alone(p, quantities, phi):
    """Status, values and phi cell of one sweep row, from the one-row functions."""
    status, values, opt = "ok", {}, None
    for q in quantities:
        try:
            if phi == "optimal" and q != "parity" and opt is None:
                opt = optimal_phase(p)
                p = replace(p, phi=opt[0])
            if q == "parity":
                values[q] = parity_expectation(p).value
            elif q == "sensitivity":
                values[q] = opt[1] if opt else phase_sensitivity(p)
            else:
                values[q] = classical_fisher(p)
        except (DegenerateSignal, DegenerateDenominator) as e:
            values[q] = math.nan
            status = _code(type(e)) if status == "ok" else status
    phi_cell = fnum(opt[0]) if opt else ("" if phi == "optimal" else fnum(phi))
    return status, values, phi_cell


@pytest.mark.parametrize(
    "quantity,phi",
    [(("parity", "sensitivity", "cfi"), 0.3), (("cfi", "sensitivity"), "optimal"), (("sensitivity", "cfi"), "optimal")],
)
@pytest.mark.parametrize("denom_tol", [None, 0.9])
def test_sweep_rows_equal_row_at_a_time(quantity, phi, denom_tol, monkeypatch):
    # alpha = r = 0 at m = 0 is the vacuum: DegenerateSignal; the raised
    # denominator floor fails the r = 0.8 rows, which share their kernel
    # calls with the r = 0 and r = 0.3 rows
    if denom_tol is not None:
        monkeypatch.setattr(parity, "DENOM_TOL", denom_tol)
    statuses = []
    for alpha in (0.0, 1.3):
        spec = SweepSpec(
            quantity=quantity, sweep_name="r", sweep_values=(0.0, 0.3, 0.8),
            m_list=(0, 1, 3), loss=(0.0, 0.2), phi=(phi,), alpha=alpha,
        )
        table = run_sweep(spec)
        for row in table.rows:
            cells = dict(zip(table.header, row))
            p = ProbeParams(alpha, float(cells["r"]), int(cells["m"]), float(cells["l"]), phi if phi != "optimal" else 0.0)
            status, values, phi_cell = _row_alone(p, quantity, phi)
            assert cells["status"] == status
            assert cells["phi"] == phi_cell
            assert [cells[q] for q in quantity] == [fnum(values[q]) for q in quantity]
            statuses.append((float(cells["r"]), status))
    assert (0.0, "degenerate_signal") in statuses
    assert ((0.8, "degenerate_denominator") in statuses) == (denom_tol is not None)
    assert (0.3, "ok") in statuses
    assert ((0.8, "ok") in statuses) == (denom_tol is None)


def test_cli_sweeps_do_not_load_scipy(tmp_path):
    # no sweep loads scipy: not a plain one, not the Fock oracle's parity and
    # QFI checks, and not a Kerr row that falls back (r = 0, one photon) with
    # its oracle check
    code = (
        "import sys, mzphase.cli\n"
        "from mzphase.sweep import SweepSpec, run_sweep\n"
        "for phi in (0.3, 'optimal'):\n"
        "    run_sweep(SweepSpec(quantity=('sensitivity', 'cfi'), sweep_name='l', sweep_values=(0.0, 0.2),"
        " m_list=(0, 1), phi=(phi,), alpha=2.0, r=0.5))\n"
        "run_sweep(SweepSpec(quantity=('parity',), sweep_name='phi', sweep_values=(0.1, 0.2), alpha=1.0, r=0.5))\n"
        "checked = run_sweep(SweepSpec(quantity=('parity', 'qfi_linear', 'qfi_kerr'), sweep_name='l',"
        " sweep_values=(0.0, 0.2), m_list=(0, 2), phi=(0.3,), alpha=1.0, r=0.5, oracle_check=True, oracle_stride=1))\n"
        "assert 'oracle_qfi_kerr' in checked.header and 'oracle_rows=4' in checked.trailer\n"
        "assert {row[checked.header.index('status')] for row in checked.rows} == {'ok'}\n"
        "fell_back = run_sweep(SweepSpec(quantity=('qfi_kerr',), sweep_name='r', sweep_values=(0.0, 0.5),"
        " m_list=(1,), alpha=0.0, loss=(0.1,), oracle_check=True, oracle_stride=1))\n"
        "assert [row[fell_back.header.index('status')] for row in fell_back.rows] == ['kerr_fallback', 'ok']\n"
        "assert 'oracle_rows=2' in fell_back.trailer\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(mzphase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
