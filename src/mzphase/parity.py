"""Parity detection signal of the lossy interferometer, and what it buys.

The parity expectation of the probe arm after the second splitter is the
[t^m tau^m] coefficient of a kernel that is Gaussian in t and tau. It is
read off in closed form (`jets.gaussian_tt_coefficient`) with every kernel
coefficient carried as a univariate phase jet, so the value, slope, and
curvature come out of one evaluation. From those: classical Fisher
information, the phase sensitivity, and a deterministic optimal-phase
search.

There is one kernel, and it evaluates many points of one photon-addition
order m in a single call, each point with its own alpha, r, loss and phase.
A sweep hands it all its rows of one m at once (`parity_signals`) and runs
their optimal-phase searches in lockstep (`optimal_phases`); the one-row
functions (`parity_expectation`, `classical_fisher`, `phase_sensitivity`,
`optimal_phase`) are the same calls with a single row. A point's result does
not depend on what shares its call: the per-row constants come from the same
`math` calls whatever the batch, and every array operation acts point by
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateDenominator,
    DegenerateSignal,
    ParamOutOfRange,
)
from .jets import JetShape, MultiJet, gaussian_tt_coefficient
from .states import ProbeParams, _pasvs_norm_unchecked

# imaginary residue allowed on physically real outputs
RESIDUE_TOL = 1e-9
# smallest |constant term| of the kernel denominator abar; below it a point
# raises DegenerateDenominator (abar >= 1/cosh(r)^2 on the declared domain)
DENOM_TOL = 1e-9
# most phase points per kernel call; bigger batches are split
MAX_POINTS = 1 << 15

_PHASE = JetShape(("phi",), (2,))
# optimal-phase window scan and golden-section ratio
_GRID = np.linspace(1e-4, 1.5, 1001)
_INVPHI = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class LossCoefficients:
    """Quadrature mixing coefficients of the lossy interferometer kernel.

    x1 + x2 == loss - 2 exactly; x3_conj mirrors x3 with the imaginary
    constant negated (the phase variable is real, so this is its complex
    conjugate at every jet order).
    """

    x1: object
    x2: object
    x3: object
    x3_conj: object


@dataclass(frozen=True)
class ParitySignal:
    """Parity expectation with its first two phase derivatives."""

    value: float
    dvalue: float
    ddvalue: float


def _loss_scalars(loss: float) -> tuple:
    if not 0 <= loss < 1:
        raise ParamOutOfRange(f"loss must lie in [0, 1), got {loss}")
    return math.sqrt(1.0 - loss), (loss - 2.0) / 2.0, 0.5j * loss, -0.5j * loss


def _mix(phi, root, base, half, half_conj) -> LossCoefficients:
    if isinstance(phi, MultiJet):
        eplus = (phi * 1j).exp()
        eminus = (phi * (-1j)).exp()
        cos_phi = (eplus + eminus) * 0.5
        sin_phi = (eplus - eminus) * (-0.5j)
    else:
        cos_phi = math.cos(phi)
        sin_phi = math.sin(phi)
    x1 = base + root * cos_phi
    x2 = base - root * cos_phi
    x3 = half - root * sin_phi
    x3c = half_conj - root * sin_phi
    return LossCoefficients(x1, x2, x3, x3c)


def loss_coefficients(phi, loss: float) -> LossCoefficients:
    """Kernel coefficients at transmission 1 - loss.

    `phi` may be a float (plain complex results) or a jet carrying the phase
    variable (jet-valued results).
    """
    return _mix(phi, *_loss_scalars(loss))


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

    def take(self, idx) -> "_Consts":
        return _Consts(*(c[idx] for c in self))


def _row_consts(m: int, alpha, r, loss) -> _Consts:
    """Per-row constants from the scalar `math` calls of a lone evaluation."""
    rows = []
    for a, rr, l in zip(alpha, r, loss):
        a, rr = float(a), float(rr)
        th = math.tanh(rr)
        norm = 1.0 / (_pasvs_norm_unchecked(rr, m) * math.cosh(rr))
        rows.append((*_loss_scalars(float(l)), th, th**2, th / 2.0, -th / 2.0, a, a**2, norm))
    return _Consts(*(np.array(c) for c in zip(*rows)))


def _kernel(m: int, phi: np.ndarray, c: _Consts) -> tuple[np.ndarray, np.ndarray]:
    """Parity value/slope/curvature (rows of a (3, n) array) at n points.

    `phi` and every field of `c` hold one entry per point. The kernel is
    Gaussian in the photon-addition variables t and tau; its [t^m tau^m]
    coefficient comes from the closed-form sum in `gaussian_tt_coefficient`,
    with every coefficient a univariate phase jet (cap 2) whose batch axis
    runs over the points. A point whose denominator constant term falls below
    DENOM_TOL is left out of the evaluation, NaN in the result, and flagged
    in the returned mask.
    """
    phi_jet = MultiJet.constant(_PHASE, phi) + MultiJet.variable(_PHASE, "phi")
    lc = _mix(phi_jet, c.root, c.base, c.half, c.half_conj)

    hot = 1 + lc.x2  # appears everywhere the probe quadrature survives
    abar = 1 - (hot * hot) * c.th2
    degenerate = np.abs(np.atleast_1d(abar.extract((0,)))) < DENOM_TOL
    if degenerate.any():
        out = np.full((3, phi.size), np.nan)
        keep = ~degenerate
        if keep.any():
            out[:, keep] = _kernel(m, phi[keep], c.take(keep))[0]
        return out, degenerate
    inv_abar = abar.recip()

    x3sq = lc.x3 * lc.x3 + lc.x3_conj * lc.x3_conj
    a1 = lc.x1 + (hot * (lc.x3 * lc.x3_conj)) * inv_abar * c.th2 - x3sq * inv_abar * c.half_th
    # exponent (a2 + alpha a3) / abar, with
    # a2 = hot t tau - hot^2 (t^2 + tau^2) th / 2 and
    # a3 = (x3* - hot x3 th) t + (x3 - hot x3* th) tau
    quad = (hot * hot) * inv_abar * c.neg_half_th
    cross = hot * inv_abar
    lin_t = (lc.x3_conj - (hot * lc.x3) * c.th) * inv_abar * c.alpha
    lin_tau = (lc.x3 - (hot * lc.x3_conj) * c.th) * inv_abar * c.alpha

    pref = (a1 * c.alpha2).exp() * abar.sqrt().recip() * c.norm
    coeff = gaussian_tt_coefficient(m, pref, quad, quad, cross, lin_t, lin_tau)
    kernel = coeff * float(math.factorial(m) ** 2)

    out = np.empty((3, phi.size))
    for order in (0, 1, 2):
        raw = np.atleast_1d(kernel.extract((order,)))
        scale = np.maximum(1.0, np.abs(raw.real))
        bad = np.abs(raw.imag) > RESIDUE_TOL * scale
        if np.any(bad):
            worst = float(np.max(np.abs(raw.imag) / scale))
            raise ConsistencyError(
                f"parity derivative order {order}: imaginary residue {worst:.3e}"
            )
        out[order] = raw.real
    if np.any(np.abs(out[0]) > 1 + 1e-10):
        raise ConsistencyError(f"parity magnitude {float(np.max(np.abs(out[0])))} exceeds 1")
    return out, degenerate


def _signal(m: int, phi: np.ndarray, c: _Consts) -> tuple[np.ndarray, np.ndarray]:
    """`_kernel` in calls of at most MAX_POINTS points."""
    if phi.size <= MAX_POINTS:
        return _kernel(m, phi, c)
    parts = [
        _kernel(m, phi[lo : lo + MAX_POINTS], c.take(slice(lo, lo + MAX_POINTS)))
        for lo in range(0, phi.size, MAX_POINTS)
    ]
    return np.concatenate([v for v, _ in parts], axis=1), np.concatenate([d for _, d in parts])


def _degenerate() -> DegenerateDenominator:
    return DegenerateDenominator(f"kernel denominator constant term below {DENOM_TOL:.0e}")


def _result(outcome):
    """A per-row outcome of the batch functions: raise it if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def parity_signals(m: int, alpha, r, loss, phi) -> list:
    """Parity signal of many rows of one order m, evaluated together.

    `alpha`, `r`, `loss` and `phi` hold one number per row; the rows share
    one kernel call per MAX_POINTS of them. Each entry of
    the result is that row's ParitySignal, or the DegenerateDenominator its
    point raised; the other rows are unaffected by it.
    """
    phi = np.asarray(phi, dtype=float)
    vals, degenerate = _signal(m, phi, _row_consts(m, alpha, r, loss))
    return [
        _degenerate() if degenerate[i] else ParitySignal(float(vals[0, i]), float(vals[1, i]), float(vals[2, i]))
        for i in range(phi.size)
    ]


def _signal_batch(p: ProbeParams, phis: np.ndarray):
    """Parity value/slope/curvature of one probe at a batch of phase points."""
    c = _row_consts(p.m, [p.alpha], [p.r], [p.loss]).take(np.zeros(phis.size, dtype=int))
    vals, degenerate = _signal(p.m, phis, c)
    if degenerate.any():
        raise _degenerate()
    return vals[0], vals[1], vals[2]


def parity_expectation(p: ProbeParams) -> ParitySignal:
    """Parity signal (value and first two phase derivatives) at p.phi."""
    return _result(parity_signals(p.m, [p.alpha], [p.r], [p.loss], [p.phi])[0])


def _fisher_from(value: float, dvalue: float, ddvalue: float) -> float:
    denom = 1.0 - value * value
    if abs(dvalue) < 1e-12 and abs(ddvalue) < 1e-12:
        raise DegenerateSignal("parity signal is phase-stationary to second order")
    if denom < 1e-12:
        if abs(dvalue) < 1e-6:
            # |signal| = 1 extremum: slope and fluctuation vanish together,
            # their ratio limits to |curvature|
            return abs(ddvalue)
        raise ConsistencyError(
            f"|parity| = 1 with nonzero slope {dvalue:.3e}: inconsistent signal"
        )
    return dvalue * dvalue / denom


def _sensitivity_from(fisher: float) -> float:
    return math.inf if fisher == 0.0 else 1.0 / math.sqrt(fisher)


def classical_fisher(p: ProbeParams) -> float:
    """Fisher information of the even/odd parity outcome about the phase."""
    sig = parity_expectation(p)
    return _fisher_from(sig.value, sig.dvalue, sig.ddvalue)


def phase_sensitivity(p: ProbeParams) -> float:
    """One-shot phase uncertainty 1/sqrt(F); inf where F = 0."""
    return _sensitivity_from(classical_fisher(p))


def _sensitivities(m: int, phi: np.ndarray, c: _Consts) -> tuple[np.ndarray, np.ndarray]:
    """1/sqrt(F) at each point (inf where the signal carries no information),
    and the mask of degenerate points."""
    vals, degenerate = _signal(m, phi, c)
    out = np.full(phi.shape, np.inf)
    for i in np.flatnonzero(~degenerate):
        try:
            f = _fisher_from(float(vals[0, i]), float(vals[1, i]), float(vals[2, i]))
        except DegenerateSignal:
            continue
        if f > 0:
            out[i] = 1.0 / math.sqrt(f)
    return out, degenerate


class _Golden:
    """Golden-section search of one row: bracket [a, b], inner points c < d."""

    __slots__ = ("a", "b", "c", "d", "fc", "fd", "lower", "steps")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.c = b - _INVPHI * (b - a)
        self.d = a + _INVPHI * (b - a)
        self.steps = 0

    def step(self):
        """Drop one end of the bracket; return the one new point to evaluate."""
        self.lower = self.fc < self.fd
        if self.lower:
            self.b, self.d, self.fd = self.d, self.c, self.fc
            self.c = self.b - _INVPHI * (self.b - self.a)
            return self.c
        self.a, self.c, self.fc = self.c, self.d, self.fd
        self.d = self.a + _INVPHI * (self.b - self.a)
        return self.d

    def done(self, f: float) -> bool:
        """Take f at the new point; True once converged or out of steps."""
        if self.lower:
            self.fc = f
        else:
            self.fd = f
        self.steps += 1
        converged = abs(self.fc - self.fd) <= 1e-10 * max(1.0, abs(self.fc)) and (self.b - self.a) < 1e-8
        return converged or self.steps == 200

    def result(self) -> tuple[float, float]:
        x = self.c if self.fc < self.fd else self.d
        return float(x), float(min(self.fc, self.fd))


def optimal_phases(m: int, alpha, r, loss) -> list:
    """Best working phase in [1e-4, 1.5] and its sensitivity there, per row.

    `alpha`, `r` and `loss` hold one number per row of order m. Every row
    runs the search `optimal_phase` describes, all of them in lockstep: the
    1001-point scans share kernel calls (up to MAX_POINTS points each), and
    each golden-section iteration makes one call holding the next point of
    every row still running. A row visits the same points as a search run
    alone, so its result is the same bit for bit. Each entry of the result is
    (phi*, sensitivity), or the DegenerateSignal or DegenerateDenominator
    that ended that row's search.
    """
    consts = _row_consts(m, alpha, r, loss)
    n, k = consts.alpha.size, _GRID.size
    out: list = [None] * n
    search: dict[int, _Golden] = {}
    rows_per_call = max(1, MAX_POINTS // k)
    for lo in range(0, n, rows_per_call):
        rows = np.arange(lo, min(lo + rows_per_call, n))
        sens, degenerate = _sensitivities(m, np.tile(_GRID, rows.size), consts.take(np.repeat(rows, k)))
        for i, row_sens, row_bad in zip(rows, sens.reshape(-1, k), degenerate.reshape(-1, k)):
            best = int(np.argmin(row_sens))
            if row_bad.any():
                out[i] = _degenerate()
            elif not np.isfinite(row_sens[best]):
                out[i] = DegenerateSignal("no finite sensitivity anywhere in the window")
            else:
                search[int(i)] = _Golden(_GRID[max(best - 1, 0)], _GRID[min(best + 1, k - 1)])

    live = list(search)
    if live:
        sens, degenerate = _sensitivities(
            m,
            np.array([search[i].c for i in live] + [search[i].d for i in live]),
            consts.take(live + live),
        )
        for j, i in enumerate(live):
            if degenerate[j] or degenerate[j + len(live)]:
                out[i] = _degenerate()
                del search[i]
            else:
                search[i].fc, search[i].fd = float(sens[j]), float(sens[j + len(live)])
        live = list(search)
    while live:
        points = np.array([search[i].step() for i in live])
        sens, degenerate = _sensitivities(m, points, consts.take(live))
        running = []
        for j, i in enumerate(live):
            if degenerate[j]:
                out[i] = _degenerate()
            elif search[i].done(float(sens[j])):
                out[i] = search[i].result()
            else:
                running.append(i)
        live = running
    return out


def optimal_phase(p: ProbeParams) -> tuple[float, float]:
    """Best working phase in [1e-4, 1.5] and its sensitivity there.

    Deterministic: a 1001-point scan brackets the minimum, then a
    golden-section refinement tightens it until the sensitivity stops
    changing at 1e-10.
    """
    return _result(optimal_phases(p.m, [p.alpha], [p.r], [p.loss])[0])
