"""Parity detection signal of the lossy interferometer, and what it buys.

The parity expectation of the probe arm after the second splitter is the
[t^m tau^m] coefficient of a kernel that is Gaussian in t and tau. It is
read off in closed form (`jets.gaussian_tt_coefficient`) with every kernel
coefficient carried as a univariate phase jet, so the value, slope, and
curvature come out of one evaluation. From those: classical Fisher
information, the phase sensitivity, and a deterministic optimal-phase
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def loss_coefficients(phi, loss: float) -> LossCoefficients:
    """Kernel coefficients at transmission 1 - loss.

    `phi` may be a float (plain complex results) or a jet carrying the phase
    variable (jet-valued results).
    """
    if not 0 <= loss < 1:
        raise ParamOutOfRange(f"loss must lie in [0, 1), got {loss}")
    root = math.sqrt(1.0 - loss)
    base = (loss - 2.0) / 2.0
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
    x3 = 0.5j * loss - root * sin_phi
    x3c = -0.5j * loss - root * sin_phi
    return LossCoefficients(x1, x2, x3, x3c)


def _signal_batch(p: ProbeParams, phis: np.ndarray):
    """Parity value/slope/curvature at a batch of phase points.

    The kernel is Gaussian in the photon-addition variables t and tau; its
    [t^m tau^m] coefficient comes from the closed-form sum in
    `gaussian_tt_coefficient`, with every coefficient a univariate phase jet
    (cap 2). Every requested phase is evaluated at once; the batch axis
    rides on the coefficient arrays.
    """
    m = p.m
    shape = JetShape(("phi",), (2,))
    phi_jet = MultiJet.constant(shape, phis) + MultiJet.variable(shape, "phi")
    lc = loss_coefficients(phi_jet, p.loss)

    th = math.tanh(p.r)
    hot = 1 + lc.x2  # appears everywhere the probe quadrature survives
    abar = 1 - (hot * hot) * th**2
    const_abar = abar.extract((0,))
    min_abar = (
        float(np.min(np.abs(const_abar)))
        if isinstance(const_abar, np.ndarray)
        else abs(const_abar)
    )
    if min_abar < 1e-9:
        raise DegenerateDenominator(
            f"kernel denominator constant term {min_abar:.3e} too close to zero"
        )
    inv_abar = abar.recip()

    x3sq = lc.x3 * lc.x3 + lc.x3_conj * lc.x3_conj
    a1 = lc.x1 + (hot * (lc.x3 * lc.x3_conj)) * inv_abar * th**2 - x3sq * inv_abar * (th / 2.0)
    # exponent (a2 + alpha a3) / abar, with
    # a2 = hot t tau - hot^2 (t^2 + tau^2) th / 2 and
    # a3 = (x3* - hot x3 th) t + (x3 - hot x3* th) tau
    quad = (hot * hot) * inv_abar * (-th / 2.0)
    cross = hot * inv_abar
    lin_t = (lc.x3_conj - (hot * lc.x3) * th) * inv_abar * p.alpha
    lin_tau = (lc.x3 - (hot * lc.x3_conj) * th) * inv_abar * p.alpha

    pm = _pasvs_norm_unchecked(p.r, m)
    pref = (a1 * p.alpha**2).exp() * abar.sqrt().recip() * (1.0 / (pm * math.cosh(p.r)))
    coeff = gaussian_tt_coefficient(m, pref, quad, quad, cross, lin_t, lin_tau)
    kernel = coeff * float(math.factorial(m) ** 2)

    vals = []
    for order in (0, 1, 2):
        raw = kernel.extract((order,))
        raw = np.atleast_1d(np.asarray(raw))
        scale = np.maximum(1.0, np.abs(raw.real))
        bad = np.abs(raw.imag) > RESIDUE_TOL * scale
        if np.any(bad):
            worst = float(np.max(np.abs(raw.imag) / scale))
            raise ConsistencyError(
                f"parity derivative order {order}: imaginary residue {worst:.3e}"
            )
        vals.append(raw.real)
    value, dvalue, ddvalue = vals
    if np.any(np.abs(value) > 1 + 1e-10):
        raise ConsistencyError(f"parity magnitude {float(np.max(np.abs(value)))} exceeds 1")
    return value, dvalue, ddvalue


def parity_expectation(p: ProbeParams) -> ParitySignal:
    """Parity signal (value and first two phase derivatives) at p.phi."""
    value, dvalue, ddvalue = _signal_batch(p, np.array([p.phi]))
    return ParitySignal(float(value[0]), float(dvalue[0]), float(ddvalue[0]))


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

def classical_fisher(p: ProbeParams) -> float:
    """Fisher information of the even/odd parity outcome about the phase."""
    sig = parity_expectation(p)
    return _fisher_from(sig.value, sig.dvalue, sig.ddvalue)


def phase_sensitivity(p: ProbeParams) -> float:
    """One-shot phase uncertainty 1/sqrt(F); inf where F = 0."""
    f = classical_fisher(p)
    if f == 0.0:
        return math.inf
    return 1.0 / math.sqrt(f)


def _sensitivities_on(p: ProbeParams, phis: np.ndarray) -> np.ndarray:
    value, dvalue, ddvalue = _signal_batch(p, phis)
    out = np.full(phis.shape, np.inf)
    for i in range(phis.size):
        try:
            f = _fisher_from(float(value[i]), float(dvalue[i]), float(ddvalue[i]))
        except DegenerateSignal:
            continue
        if f > 0:
            out[i] = 1.0 / math.sqrt(f)
    return out


def optimal_phase(p: ProbeParams) -> tuple[float, float]:
    """Best working phase in [1e-4, 1.5] and its sensitivity there.

    Deterministic: a 1001-point scan brackets the minimum, then a
    golden-section refinement tightens it until the sensitivity stops
    changing at 1e-10.
    """
    grid = np.linspace(1e-4, 1.5, 1001)
    sens = _sensitivities_on(p, grid)
    best = int(np.argmin(sens))
    if not np.isfinite(sens[best]):
        raise DegenerateSignal("no finite sensitivity anywhere in the window")

    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    invphi = (math.sqrt(5) - 1) / 2

    def f(x):
        return float(_sensitivities_on(p, np.array([x]))[0])

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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
    x = c if fc < fd else d
    return float(x), float(min(fc, fd))
