"""Probe-state parameters and single-mode state data.

The interferometer is fed a coherent state in one port and a photon-added
squeezed vacuum (squeeze r, then add m photons, then renormalize) in the
other. This module owns the parameter record, the normalization constant of
the photon-added squeezed state, mean photon numbers, the energy budget, and
truncated Fock amplitude vectors for both inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketExceeded,
    ConsistencyError,
    CutoffTooSmall,
    InfeasibleTarget,
    ParamOutOfRange,
)

R_MAX = 3.0
M_MAX = 10

# Discarded-probability budget for truncated amplitude vectors.
TAIL_TOL = 1e-10
# Mean-photon-number tolerance of the energy-matching bisection.
ENERGY_TOL = 1e-10


def _check_alpha(alpha: float):
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ParamOutOfRange(f"alpha must be finite and >= 0, got {alpha}")


def _check_rm(r: float, m: int):
    if not (math.isfinite(r) and 0 <= r <= R_MAX):
        raise ParamOutOfRange(f"r must lie in [0, {R_MAX}], got {r}")
    # an integer order in [0, M_MAX]; bools are not orders
    if not (isinstance(m, (int, np.integer)) and not isinstance(m, bool) and 0 <= m <= M_MAX):
        raise ParamOutOfRange(f"m must be an int in [0, {M_MAX}], got {m!r}")


def _check_loss(loss: float):
    if not 0 <= loss < 1:
        raise ParamOutOfRange(f"loss must lie in [0, 1), got {loss}")


@dataclass(frozen=True)
class ProbeParams:
    """Input and channel parameters for one interferometer configuration.

    alpha: coherent amplitude (real, >= 0)
    r: squeeze parameter of the photon-added squeezed vacuum, 0 <= r <= 3
    m: number of added photons, 0 <= m <= 10
    loss: photon survival is 1 - loss; 0 <= loss < 1
    phi: interferometer phase (radians)
    """

    alpha: float
    r: float
    m: int
    loss: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_rm(self.r, self.m)
        _check_loss(self.loss)
        if not math.isfinite(self.phi):
            raise ParamOutOfRange(f"phi must be finite, got {self.phi}")


@dataclass(frozen=True)
class EnergyReport:
    """Mean photon budget of the two input ports plus the add-photon norm."""

    norm_constant: float
    nbar_coherent: float
    nbar_added_squeezed: float
    nbar_total: float


def _pasvs_norm_unchecked(r: float, m: int) -> float:
    # m! cosh^m r P_m(cosh r) through the three-term Legendre recurrence,
    # which in N_n = n! c^n P_n(c) reads N_{n+1} = c^2 ((2n+1) N_n - n^2 N_{n-1})
    c2 = math.cosh(r) ** 2
    prev, cur = 1.0, 1.0
    for n in range(m):
        prev, cur = cur, c2 * ((2 * n + 1) * cur - n * n * prev)
    return cur


def pasvs_norm(r: float, m: int) -> float:
    """Normalization constant of the m-photon-added squeezed vacuum.

    Equals m! at r = 0 and grows with r; the squared pre-normalization
    length of b^dag^m S(r)|0>, in closed form m! cosh^m r P_m(cosh r) with
    P_m the Legendre polynomial.
    """
    _check_rm(r, m)
    return _pasvs_norm_unchecked(r, int(m))


def pasvs_mean_photons(r: float, m: int) -> float:
    """Mean photon number of the normalized photon-added squeezed vacuum."""
    _check_rm(r, m)
    return _pasvs_norm_unchecked(r, int(m) + 1) / _pasvs_norm_unchecked(r, int(m)) - 1.0


def energy_report(p: ProbeParams) -> EnergyReport:
    nb = pasvs_mean_photons(p.r, p.m)
    na = p.alpha ** 2
    return EnergyReport(
        norm_constant=pasvs_norm(p.r, p.m),
        nbar_coherent=na,
        nbar_added_squeezed=nb,
        nbar_total=na + nb,
    )


def solve_r_for_energy(m: int, nbar_target: float) -> float:
    """Squeeze parameter r in [0, 3] whose m-added state carries nbar_target photons.

    The mean photon number is m at r = 0 and increases with r, so plain
    bisection on the bracket suffices, to ENERGY_TOL photons. Raises
    InfeasibleTarget if the target is below m and BracketExceeded if it
    needs r > 3.
    """
    _check_rm(0.0, m)
    if not math.isfinite(nbar_target):
        raise ParamOutOfRange(f"nbar_target must be finite, got {nbar_target}")
    lo_val = float(m)
    if nbar_target < lo_val - 1e-12:
        raise InfeasibleTarget(
            f"nbar {nbar_target} is below the r=0 minimum {lo_val} for m={m}"
        )
    if abs(nbar_target - lo_val) <= 1e-12:
        return 0.0
    hi_val = pasvs_mean_photons(R_MAX, m)
    if nbar_target > hi_val:
        raise BracketExceeded(
            f"nbar {nbar_target} needs r > {R_MAX} (max reachable {hi_val:.6g}) for m={m}"
        )
    lo, hi = 0.0, R_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = pasvs_mean_photons(mid, m)
        if abs(val - nbar_target) <= ENERGY_TOL:
            return mid
        if val < nbar_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    mid = 0.5 * (lo + hi)
    if abs(pasvs_mean_photons(mid, m) - nbar_target) > ENERGY_TOL:
        raise BracketExceeded(f"bisection stalled for m={m}, nbar={nbar_target}")
    return mid


def pasvs_fock_amplitudes(r: float, m: int, cutoff: int) -> np.ndarray:
    """Normalized Fock amplitudes of the m-photon-added squeezed vacuum.

    Only n = 2k + m are populated. The discarded tail (known exactly from
    the norm constant) must stay below TAIL_TOL, and the cutoff must leave
    at least one headroom pair above m.
    """
    _check_rm(r, m)
    if cutoff < m + 2:
        raise CutoffTooSmall(f"cutoff {cutoff} < m + 2 = {m + 2}")
    amps = np.zeros(cutoff + 1)
    th, sech = math.tanh(r), 1.0 / math.cosh(r)
    # s2n: squeezed-vacuum amplitude at Fock level 2n, built by recursion
    s2n = math.sqrt(sech)
    prenorm2 = 0.0
    n = 0
    while 2 * n + m <= cutoff:
        k = 2 * n
        ratio = math.prod(range(k + 1, k + m + 1))  # (k+m)!/k!
        c = s2n * math.sqrt(ratio)
        amps[k + m] = c
        prenorm2 += c * c
        s2n *= -th * math.sqrt((k + 1) * (k + 2)) / (k + 2)
        n += 1
    total = _pasvs_norm_unchecked(r, m)
    tail = 1.0 - prenorm2 / total
    if tail >= TAIL_TOL:
        raise CutoffTooSmall(f"cutoff {cutoff} leaves tail {tail:.3e} >= {TAIL_TOL:.0e}")
    if abs(prenorm2 - total) > 1e-8 * total:
        raise ConsistencyError(
            f"pre-normalization {prenorm2!r} vs norm constant {total!r} disagree beyond tail budget"
        )
    return amps / math.sqrt(prenorm2)


def coherent_fock_amplitudes(alpha: float, cutoff: int) -> np.ndarray:
    """Normalized Fock amplitudes of |alpha> up to the cutoff.

    Poisson tail above the cutoff must stay below TAIL_TOL.
    """
    _check_alpha(alpha)
    if cutoff < 0:
        raise CutoffTooSmall("cutoff must be >= 0")
    amps = np.zeros(cutoff + 1)
    c = math.exp(-alpha * alpha / 2.0)
    norm2 = 0.0
    for k in range(cutoff + 1):
        amps[k] = c
        norm2 += c * c
        c *= alpha / math.sqrt(k + 1)
    tail = 1.0 - norm2
    if tail >= TAIL_TOL:
        raise CutoffTooSmall(f"cutoff {cutoff} leaves tail {tail:.3e} >= {TAIL_TOL:.0e}")
    return amps / math.sqrt(norm2)

