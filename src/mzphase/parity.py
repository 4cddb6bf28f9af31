"""Parity detection signal of the lossy interferometer, and what it buys.

The parity expectation of the probe arm after the second splitter is the
[t^m tau^m] coefficient of a kernel that is Gaussian in t and tau. It is
read off in closed form (`jets.gaussian_tt_coefficient`) with every kernel
coefficient carried as a truncated power series in the phase, so the value,
slope, and curvature come out of one evaluation. From those: classical Fisher
information, the phase sensitivity, and a deterministic optimal-phase
search. The search scans a fixed phase window in two passes: every s-th
point of a 1001-point grid, with the stride s set by the probe's photon
number, then the grid points around each local minimum of that coarse
pass. On every row checked, it picks the grid point a scan of all 1001
points picks. The three numbers also give the sign of the Fisher
information's slope, so the search refines its best grid point with a root
search on that slope rather than by comparing sensitivities.

There is one kernel, and it evaluates many points in a single call, each
point with its own photon-addition order m, alpha, r, loss and phase: the
phase series are built once for the whole call, and the closed-form sum runs
once per distinct m on that m's points. A sweep hands it its fixed-phase
rows of one m at once (`parity_signals`), and runs the optimal-phase
searches of all its rows, whatever their m, in lockstep (`optimal_phases`),
one call per scan pass and per refinement step; the one-row functions
(`parity_expectation`, `classical_fisher`, `phase_sensitivity`,
`optimal_phase`) are the same calls with a single row. A point's result does
not depend on what shares its call: the per-row constants come from the same
`math` calls whatever the batch, and every array operation acts point by
point. The Fisher information and the sensitivity have one rule, array
arithmetic point by point (`_fisher`, `_sensitivities`), which the one-row
functions, the search and the sweep all call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, DegenerateSignal, ParamOutOfRange
from .jets import Series, gaussian_tt_coefficient
from .states import ProbeParams, _check_alpha, _check_loss, _check_rm, _pasvs_norm_unchecked, pasvs_mean_photons

# imaginary residue allowed on physically real outputs
RESIDUE_TOL = 1e-9
# smallest |constant term| of the kernel denominator abar; below it the kernel
# raises ConsistencyError. abar >= sech^2 r >= sech^2 3 = 0.0099 on the declared
# domain, so it cannot fire there
DENOM_TOL = 1e-9
# most phase points per kernel call; bigger batches are split
MAX_POINTS = 1 << 15

# order of the phase series: value, slope and curvature
_PHASE_CAP = 2
# optimal-phase window scan
_GRID = np.linspace(1e-4, 1.5, 1001)
# its coarse pass takes every s-th grid point, s = floor(1 / (N GRID_STEP)) in
# [1, MAX_STRIDE] for a probe of N mean photons; GRID_STEP is the _GRID step
# rounded up, so the coarse spacing stays at or below 1/N
GRID_STEP = 1.5e-3
MAX_STRIDE = 10
# the refinement stops once its bracket is narrower than BRACKET_TOL * max(1, phi),
# or after MAX_STEPS kernel calls
BRACKET_TOL = 1e-13
MAX_STEPS = 60


@dataclass(frozen=True)
class ParitySignal:
    """Parity expectation with its first two phase derivatives."""

    value: float
    dvalue: float
    ddvalue: float


def _loss_scalars(loss: float) -> tuple:
    _check_loss(loss)
    return math.sqrt(1.0 - loss), (loss - 2.0) / 2.0, 0.5j * loss, -0.5j * loss


def _mix(phi: Series, root, base, half, half_conj) -> tuple[Series, Series, Series, Series]:
    """Quadrature mixing coefficients x1, x2, x3, x3* of the lossy kernel at
    the phase series `phi`.

    x1 + x2 = loss - 2, to rounding, in the constant term; x3* mirrors x3
    with the imaginary constant negated (the phase variable is real, so this
    is its complex conjugate at every order).
    """
    eplus = (phi * 1j).exp()
    eminus = (phi * (-1j)).exp()
    cos_phi = (eplus + eminus) * 0.5
    sin_phi = (eplus - eminus) * (-0.5j)
    return base + root * cos_phi, base - root * cos_phi, half - root * sin_phi, half_conj - root * sin_phi


class _Consts(NamedTuple):
    """Kernel constants of each row (or, once expanded, of each point)."""

    root: np.ndarray  # sqrt(1 - loss)
    base: np.ndarray  # (loss - 2) / 2
    half: np.ndarray  # 0.5j * loss
    half_conj: np.ndarray  # -0.5j * loss
    th: np.ndarray  # tanh r
    th2: np.ndarray  # th**2
    half_th: np.ndarray  # th / 2
    neg_half_th: np.ndarray  # -th / 2
    alpha: np.ndarray
    alpha2: np.ndarray  # alpha**2
    norm: np.ndarray  # 1 / (add-photon norm * cosh r)
    m: np.ndarray  # photon-addition order

    def take(self, idx) -> "_Consts":
        return _Consts(*(c[idx] for c in self))


def _per_row(m, n: int) -> list:
    """An order m given as one for all n rows, or one per row, as n orders."""
    return [m] * n if np.ndim(m) == 0 else list(m)


def _row_consts(m, alpha, r, loss) -> _Consts:
    """Per-row constants from the scalar `math` calls of a lone evaluation.

    `m` is one photon-addition order for every row, or one per row. A call
    with no rows, or whose columns differ in length, raises ParamOutOfRange,
    and so does the first row outside the `ProbeParams` domain."""
    n = len(alpha)
    orders = _per_row(m, n)
    if not n or {len(orders), len(r), len(loss)} != {n}:
        lengths = f"{len(orders)} m, {n} alpha, {len(r)} r, {len(loss)} loss"
        raise ParamOutOfRange(f"a batch needs one or more rows and one entry per row in each column: got {lengths}")
    rows = []
    for mm, a, rr, l in zip(orders, alpha, r, loss):
        _check_alpha(a)
        _check_rm(rr, mm)
        a, rr, mm = float(a), float(rr), int(mm)
        th = math.tanh(rr)
        norm = 1.0 / (_pasvs_norm_unchecked(rr, mm) * math.cosh(rr))
        rows.append((*_loss_scalars(float(l)), th, th**2, th / 2.0, -th / 2.0, a, a**2, norm, mm))
    return _Consts(*(np.array(c) for c in zip(*rows)))


def _kernel(phi: np.ndarray, c: _Consts) -> np.ndarray:
    """Parity value/slope/curvature (rows of a (3, n) array) at n points.

    `phi` and every field of `c` hold one entry per point, the order m
    included. The kernel is Gaussian in the photon-addition variables t and
    tau; its [t^m tau^m] coefficient comes from the closed-form sum in
    `gaussian_tt_coefficient`, with every coefficient a phase series (cap 2)
    whose batch axis runs over the points. The series are built once for all
    points; the sum runs once per distinct m, on that m's points. A
    denominator constant term below DENOM_TOL raises ConsistencyError.
    """
    phi_series = Series.constant(phi, _PHASE_CAP) + Series.variable(_PHASE_CAP)
    x1, x2, x3, x3c = _mix(phi_series, c.root, c.base, c.half, c.half_conj)

    hot = 1 + x2  # appears everywhere the probe quadrature survives
    abar = 1 - (hot * hot) * c.th2
    floor = np.abs(abar.derivative(0))
    if np.any(floor < DENOM_TOL):
        raise ConsistencyError(f"kernel denominator {float(floor.min()):.3e} below {DENOM_TOL:.0e}")
    inv_abar = abar.recip()

    x3sq = x3 * x3 + x3c * x3c
    a1 = x1 + (hot * (x3 * x3c)) * inv_abar * c.th2 - x3sq * inv_abar * c.half_th
    # exponent (a2 + alpha a3) / abar, with
    # a2 = hot t tau - hot^2 (t^2 + tau^2) th / 2 and
    # a3 = (x3* - hot x3 th) t + (x3 - hot x3* th) tau
    quad = (hot * hot) * inv_abar * c.neg_half_th
    cross = hot * inv_abar
    lin_t = (x3c - (hot * x3) * c.th) * inv_abar * c.alpha
    lin_tau = (x3 - (hot * x3c) * c.th) * inv_abar * c.alpha

    pref = (a1 * c.alpha2).exp() * abar.sqrt().recip() * c.norm
    raw = np.empty((3, phi.size), dtype=complex)
    # the distinct orders, by bincount: np.unique would import numpy.ma (1.7 MB)
    for m in np.flatnonzero(np.bincount(c.m)).tolist():
        at = np.flatnonzero(c.m == m)
        p, q, x, lt, ltau = (s.take(at) for s in (pref, quad, cross, lin_t, lin_tau))
        kernel = gaussian_tt_coefficient(m, p, q, q, x, lt, ltau) * float(math.factorial(m) ** 2)
        for order in (0, 1, 2):
            raw[order, at] = kernel.derivative(order)

    out = raw.real.copy()
    scale = np.maximum(1.0, np.abs(out))
    bad = np.abs(raw.imag) > RESIDUE_TOL * scale
    if bad.any():
        order = int(np.flatnonzero(bad.any(axis=1))[0])  # the lowest order with a residue
        worst = float(np.max(np.abs(raw[order].imag) / scale[order]))
        raise ConsistencyError(f"parity derivative order {order}: imaginary residue {worst:.3e}")
    if np.any(np.abs(out[0]) > 1 + 1e-10):
        raise ConsistencyError(f"parity magnitude {float(np.max(np.abs(out[0])))} exceeds 1")
    return out


def _signal(phi: np.ndarray, c: _Consts) -> np.ndarray:
    """`_kernel` in calls of at most MAX_POINTS points."""
    if phi.size <= MAX_POINTS:
        return _kernel(phi, c)
    parts = [
        _kernel(phi[lo : lo + MAX_POINTS], c.take(slice(lo, lo + MAX_POINTS)))
        for lo in range(0, phi.size, MAX_POINTS)
    ]
    return np.concatenate(parts, axis=1)


def _result(outcome):
    """A per-row outcome of the batch functions: raise it if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _signals(m, alpha, r, loss, phi) -> np.ndarray:
    """`parity_signals` as a (3, rows) value/slope/curvature array."""
    consts = _row_consts(m, alpha, r, loss)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != consts.alpha.shape:
        raise ParamOutOfRange(f"a batch needs one phi per row: got {phi.size} phi for {consts.alpha.size} rows")
    if not np.isfinite(phi).all():
        raise ParamOutOfRange(f"phi must be finite, got {float(phi[~np.isfinite(phi)][0])}")
    return _signal(phi, consts)


def parity_signals(m, alpha, r, loss, phi) -> list:
    """Parity signal of many rows, evaluated together.

    `alpha`, `r`, `loss` and `phi` hold one number per row, and `m` is one
    photon-addition order for every row or one per row; the rows share one
    kernel call per MAX_POINTS of them. Returns one ParitySignal per row. A
    call with no rows or with columns of different lengths, a row outside
    the `ProbeParams` domain, or a phase that is not finite raises
    ParamOutOfRange for the whole call.
    """
    return [ParitySignal(*point) for point in _signals(m, alpha, r, loss, phi).T.tolist()]


def parity_expectation(p: ProbeParams) -> ParitySignal:
    """Parity signal (value and first two phase derivatives) at p.phi."""
    return parity_signals(p.m, [p.alpha], [p.r], [p.loss], [p.phi])[0]


def _fisher(vals: np.ndarray) -> np.ndarray:
    """Fisher information F = P'^2 / (1 - P^2) of the parity outcome at each
    point of a (3, n) value/slope/curvature array.

    At a |P| = 1 extremum (1 - P^2 < 1e-12, |P'| < 1e-6) slope and
    fluctuation vanish together, and F is their limit |P''|; there a larger
    slope is an inconsistent signal: ConsistencyError. F is NaN where the
    signal is phase-stationary to second order (|P'|, |P''| below 1e-12).
    """
    value, dvalue, ddvalue = vals
    live = ~((np.abs(dvalue) < 1e-12) & (np.abs(ddvalue) < 1e-12))
    denom = 1.0 - value * value
    edge = live & (denom < 1e-12)
    bad = edge & ~(np.abs(dvalue) < 1e-6)
    if bad.any():
        raise ConsistencyError(
            f"|parity| = 1 with nonzero slope {float(dvalue[bad][0]):.3e}: inconsistent signal"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        fisher = np.where(edge, np.abs(ddvalue), dvalue * dvalue / denom)
    return np.where(live, fisher, np.nan)


def _sensitivities(fisher: np.ndarray) -> np.ndarray:
    """Phase uncertainty 1/sqrt(F) at each point; inf where F is 0 or NaN."""
    out = np.full(fisher.shape, np.inf)
    info = fisher > 0
    out[info] = 1.0 / np.sqrt(fisher[info])
    return out


def classical_fisher(p: ProbeParams) -> float:
    """Fisher information of the even/odd parity outcome about the phase;
    DegenerateSignal where the signal is phase-stationary to second order."""
    (fisher,) = _fisher(_signals(p.m, [p.alpha], [p.r], [p.loss], [p.phi])).tolist()
    if math.isnan(fisher):
        raise DegenerateSignal("parity signal is phase-stationary to second order")
    return fisher


def phase_sensitivity(p: ProbeParams) -> float:
    """One-shot phase uncertainty 1/sqrt(F); inf where F = 0."""
    return _sensitivities(np.array([classical_fisher(p)])).item()


def _fisher_slope_sign(vals: np.ndarray) -> np.ndarray:
    """q = P'(P''(1 - P^2) + P P'^2) at each point of a (3, n) array.

    F = P'^2 / (1 - P^2) has dF/dphi = 2q / (1 - P^2)^2, so q carries the
    sign of the Fisher information's slope from the cap-2 signal alone.
    """
    value, dvalue, ddvalue = vals
    return dvalue * (ddvalue * (1.0 - value * value) + value * (dvalue * dvalue))


class _Illinois:
    """Illinois regula falsi of one row on q over [a, b], q(a) > 0 > q(b).

    The root is a maximum of F. Each step tries where the chord through the
    bracket ends crosses zero, and an end kept twice in a row has its q
    halved, so both ends close in. The point stays at least half the stopping
    width inside the bracket: once one end sits on the root, the chord points
    at that end, and the step next to it closes the bracket. The row's result
    is the best (phi, sensitivity) seen, the scan point included.
    """

    __slots__ = ("a", "b", "qa", "qb", "side", "steps", "best")

    def __init__(self, a: float, b: float, qa: float, qb: float, best: tuple[float, float]):
        self.a, self.b, self.qa, self.qb = a, b, qa, qb
        self.side = 0  # +1 after a step that moved a, -1 after one that moved b
        self.steps = 0
        self.best = best

    def point(self) -> float:
        x = self.b - self.qb * (self.b - self.a) / (self.qb - self.qa)
        step = 0.5 * BRACKET_TOL * max(1.0, self.b)
        return min(max(x, self.a + step), self.b - step)

    def done(self, x: float, q: float, sens: float) -> bool:
        """Take q and the sensitivity at x; True once the bracket is closed."""
        if sens < self.best[1]:
            self.best = (x, sens)
        self.steps += 1
        if q > 0:
            if self.side == 1:
                self.qb *= 0.5
            self.a, self.qa, self.side = x, q, 1
        elif q < 0:
            if self.side == -1:
                self.qa *= 0.5
            self.b, self.qb, self.side = x, q, -1
        else:  # an exact root
            return True
        return self.b - self.a < BRACKET_TOL * max(1.0, self.b) or self.steps == MAX_STEPS


def _strides(m, alpha, r) -> np.ndarray:
    """Coarse-scan stride of each row: floor(1 / (N GRID_STEP)), clamped to
    [1, MAX_STRIDE], where N = alpha^2 + the photon-added squeezed vacuum's
    mean photon number. The coarse spacing stays at or below 1/N, the scale
    of the narrowest fringe. `m` is one order for every row, or one per row."""
    rows = zip(_per_row(m, len(alpha)), alpha, r)
    photons = np.array([float(a) ** 2 + pasvs_mean_photons(float(rr), mm) for mm, a, rr in rows])
    with np.errstate(divide="ignore"):
        return np.clip(np.floor(1.0 / (photons * GRID_STEP)), 1, MAX_STRIDE).astype(int)


def _window_scan(c: _Consts, stride: np.ndarray):
    """Scan `_GRID` for a block of rows in two passes, one kernel call each.

    The coarse pass takes every stride-th grid point of a row, both window
    ends included. The fine pass takes, around every coarse local minimum
    with a finite sensitivity, all grid points between its two coarse
    neighbours; so the best point found, and its two grid neighbours, are
    evaluated. A row whose coarse pass has no finite point takes the whole
    grid. Returns the (3, rows, grid) signal, NaN where not evaluated, and
    the (rows, grid) sensitivities, inf where not evaluated.
    """
    rows, k = stride.size, _GRID.size
    vals = np.full((3, rows, k), np.nan)
    sens = np.full((rows, k), np.inf)

    def evaluate(mask):
        row, col = np.nonzero(mask)
        if row.size:
            v = _signal(_GRID[col], c.take(row))
            vals[:, row, col] = v
            sens[row, col] = _sensitivities(_fisher(v))

    coarse = np.arange(k) % stride[:, None] == 0
    coarse[:, -1] = True
    evaluate(coarse)
    fine = np.zeros_like(coarse)
    for j in range(rows):
        cols = np.flatnonzero(coarse[j])
        s = sens[j, cols]
        if not np.isfinite(s).any():
            fine[j] = True
            continue
        pad = np.concatenate(([np.inf], s, [np.inf]))
        for low in np.flatnonzero(np.isfinite(s) & (s <= pad[:-2]) & (s <= pad[2:])):
            fine[j, cols[max(low - 1, 0)] : cols[min(low + 1, cols.size - 1)] + 1] = True
    evaluate(fine & ~coarse)
    return vals, sens


def optimal_phases(m, alpha, r, loss) -> list:
    """Best working phase in [1e-4, 1.5] and its sensitivity there, per row.

    `alpha`, `r` and `loss` hold one number per row, and `m` is one
    photon-addition order for every row or one per row. Every row runs the
    search `optimal_phase` describes, all of them in lockstep whatever their
    m: the two scan passes of up to MAX_POINTS // 1001 rows share one kernel
    call each, and each refinement step makes one call holding the next
    point of every row still refining. A row visits the same points as a
    search run alone, so its result is the same bit for bit. Each entry of
    the result is (phi*, sensitivity), or the DegenerateSignal of a row with
    no finite sensitivity in the window. A call with no rows or with columns
    of different lengths, or a row outside the `ProbeParams` domain, raises
    ParamOutOfRange for the whole call.
    """
    consts = _row_consts(m, alpha, r, loss)
    n, k = consts.alpha.size, _GRID.size
    stride = _strides(m, alpha, r)
    out: list = [None] * n
    search: dict[int, _Illinois] = {}
    rows_per_block = max(1, MAX_POINTS // k)
    for lo in range(0, n, rows_per_block):
        rows = np.arange(lo, min(lo + rows_per_block, n))
        vals, sens = _window_scan(consts.take(rows), stride[rows])
        for j, i in enumerate(rows):
            best = int(np.argmin(sens[j]))
            if not np.isfinite(sens[j, best]):
                out[i] = DegenerateSignal("no finite sensitivity anywhere in the window")
            else:
                out[i] = (float(_GRID[best]), float(sens[j, best]))
                ends = [max(best - 1, 0), min(best + 1, k - 1)]
                qa, qb = _fisher_slope_sign(vals[:, j, ends]).tolist()
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


def optimal_phase(p: ProbeParams) -> tuple[float, float]:
    """Best working phase in [1e-4, 1.5] and its sensitivity there.

    Deterministic. A scan of the 1001-point grid `_GRID` picks the best grid
    point, which fixes the fringe. The scan takes two passes: a coarse one
    over every s-th grid point, s = floor(1 / (N GRID_STEP)) clamped to [1,
    MAX_STRIDE] for a probe of N = alpha^2 + nbar_b mean photons, so the
    coarse spacing stays at or below 1/N, the scale of the narrowest fringe;
    then a fine one over the grid points between the two coarse neighbours
    of every coarse local minimum (the whole grid if the coarse pass has no
    finite sensitivity). The lowest-index best point of the two passes is
    the one a scan of all 1001 points picks on every row tested. The bracket
    is that point's two grid neighbours (clamped to the window), which the
    scan evaluated. There the optimum is a root of dF/dphi, whose sign is
    that of q = P'(P''(1 - P^2) + P P'^2), known from the signal's value,
    slope and curvature; the q of the bracket ends come from the scan
    itself. If q changes sign from + to - across the bracket, an Illinois
    regula falsi closes in on the root, one kernel call per step, until the
    bracket is narrower than BRACKET_TOL * max(1, phi) (about six steps; at
    most MAX_STEPS). Otherwise, as at a window edge (the lossless rows, whose
    optimum is phi -> 0), the result is the best scan point. The result is
    the best (phi, sensitivity) evaluated, so its sensitivity is never worse
    than the best scan point's.
    """
    return _result(optimal_phases(p.m, [p.alpha], [p.r], [p.loss])[0])
