"""The optimal-phase search with a full 1001-point window scan, one probe at
many phases, and the Fisher rule on one point, for tests only.

Production `parity.optimal_phases` scans the window in two passes: every
s-th grid point first, then the grid points around each local minimum of
that coarse pass. This is the search as it was before: every row evaluates
all 1001 grid points, picks the lowest-index best point, and refines it
with the same `_Illinois` regula falsi. The two must agree bit for bit.

`signal_batch` evaluates one probe at a batch of phase points: the row's
kernel constants repeated once per point, in one `_signal` call.

`fisher_from` and `sensitivity_from` are the Fisher rule as scalar branches,
the form it had before `parity._fisher` and `parity._sensitivities` made it
array arithmetic; the two must agree bit for bit, and `_fisher` returns NaN
where `fisher_from` raises DegenerateSignal.
"""

import math

import numpy as np

from mzphase.errors import ConsistencyError, DegenerateSignal
from mzphase.parity import (
    _GRID,
    MAX_POINTS,
    _fisher,
    _fisher_slope_sign,
    _Illinois,
    _row_consts,
    _sensitivities,
    _signal,
)


def fisher_from(value: float, dvalue: float, ddvalue: float) -> float:
    """F = P'^2 / (1 - P^2) of one point, with the |P| = 1 limit |P''|."""
    denom = 1.0 - value * value
    if abs(dvalue) < 1e-12 and abs(ddvalue) < 1e-12:
        raise DegenerateSignal("parity signal is phase-stationary to second order")
    if denom < 1e-12:
        if abs(dvalue) < 1e-6:
            # |signal| = 1 extremum: slope and fluctuation vanish together,
            # their ratio limits to |curvature|
            return abs(ddvalue)
        raise ConsistencyError(f"|parity| = 1 with nonzero slope {dvalue:.3e}: inconsistent signal")
    return dvalue * dvalue / denom


def sensitivity_from(fisher: float) -> float:
    return math.inf if fisher == 0.0 else 1.0 / math.sqrt(fisher)


def signal_batch(p, phis: np.ndarray):
    """Parity value/slope/curvature of one probe at a batch of phase points."""
    c = _row_consts(p.m, [p.alpha], [p.r], [p.loss]).take(np.zeros(phis.size, dtype=int))
    vals = _signal(phis, c)
    return vals[0], vals[1], vals[2]


def optimal_phases_full_scan(m, alpha, r, loss) -> list:
    """`parity.optimal_phases` with every row scanning all of `_GRID`."""
    consts = _row_consts(m, alpha, r, loss)
    n, k = consts.alpha.size, _GRID.size
    out: list = [None] * n
    search: dict[int, _Illinois] = {}
    rows_per_call = max(1, MAX_POINTS // k)
    for lo in range(0, n, rows_per_call):
        rows = np.arange(lo, min(lo + rows_per_call, n))
        vals = _signal(np.tile(_GRID, rows.size), consts.take(np.repeat(rows, k)))
        sens = _sensitivities(_fisher(vals))
        for j, i in enumerate(rows):
            row = slice(j * k, (j + 1) * k)
            best = int(np.argmin(sens[row]))
            if not np.isfinite(sens[row][best]):
                out[i] = DegenerateSignal("no finite sensitivity anywhere in the window")
            else:
                out[i] = (float(_GRID[best]), float(sens[row][best]))
                ends = [max(best - 1, 0), min(best + 1, k - 1)]
                qa, qb = _fisher_slope_sign(vals[:, j * k + np.array(ends)]).tolist()
                if qa > 0 > qb:
                    search[int(i)] = _Illinois(float(_GRID[ends[0]]), float(_GRID[ends[1]]), qa, qb, out[i])

    live = list(search)
    while live:
        points = np.array([search[i].point() for i in live])
        vals = _signal(points, consts.take(live))
        sens, q = _sensitivities(_fisher(vals)), _fisher_slope_sign(vals)
        running = []
        for j, i in enumerate(live):
            if search[i].done(float(points[j]), float(q[j]), float(sens[j])):
                out[i] = search[i].best
            else:
                running.append(i)
        live = running
    return out
