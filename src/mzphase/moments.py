"""Photon-number moments of the probe arm just after the first splitter.

The generating kernel is Gaussian in the photon-addition variables t and
tau; its [t^m tau^m] coefficient is read off in closed form
(`jets.gaussian_tt_coefficient`) with every kernel coefficient a univariate
series in the moment variable x (cap 4). <n_b^w> for w up to 4 is then the
x^w coefficient of that one series. These moments feed every quantum Fisher
information bound downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParamOutOfRange
from .jets import Series, gaussian_tt_coefficient
from .states import ProbeParams, _pasvs_norm_unchecked

RESIDUE_TOL = 1e-9
PSD_TOL = 1e-9


@dataclass(frozen=True)
class MomentSet:
    """First four moments of n_b with derived variances."""

    m1: float
    m2: float
    m3: float
    m4: float
    var_n: float
    var_n2: float


def _moment_kernel(p: ProbeParams) -> Series:
    """Generating function of <n_b^w> (times the state norm) as a series in x, cap 4.

    The kernel is pref * exp(A t^2 + B tau^2 + C t tau + D t + E tau); its
    [t^m tau^m] coefficient comes from `gaussian_tt_coefficient`, and the
    coefficient of x^w / w! is then the unnormalized w-th moment.
    """
    x = Series.variable(4)
    th = math.tanh(p.r)
    a = p.alpha

    ex = x.exp()
    s = (ex - 1.0) * 0.5
    sp1 = s + 1.0
    m0 = 1.0 - (sp1 * sp1) * th**2
    m0c = m0.derivative(0)[0]  # sech^2 r, at least sech^2 3 on the declared domain
    if abs(m0c) < 1e-9:
        raise ConsistencyError(f"moment kernel denominator {abs(m0c):.3e} at x = 0")
    inv_m0 = m0.recip()
    # the coefficient linear in t is m2_lin / m0, with m2_lin = u + v tau
    v = ex - s
    u = s * (-1j * a) - (s * v) * (1j * a * th)
    quad_t = (sp1 * sp1) * inv_m0 * (-th / 2.0)
    quad_tau = (v * v) * inv_m0 * (-th / 2.0)
    cross = v * inv_m0
    lin_t = u * inv_m0
    lin_tau = s * (1j * a) - (u * v) * inv_m0 * th
    pref = ((s * a) * (a + s * (a * th / 2.0)) - (u * u) * inv_m0 * (th / 2.0)).exp() * m0.sqrt().recip()
    coeff = gaussian_tt_coefficient(p.m, pref, quad_t, quad_tau, cross, lin_t, lin_tau)
    return coeff * float(math.factorial(p.m) ** 2)


def _moment_from(kernel: Series, w: int, norm: float) -> float:
    raw = complex(kernel.derivative(w)[0])
    scale = max(1.0, abs(raw.real))
    if abs(raw.imag) > RESIDUE_TOL * scale:
        raise ConsistencyError(f"moment w={w}: imaginary residue {raw.imag:.3e}")
    return raw.real / norm


def _state_norm(p: ProbeParams) -> float:
    return _pasvs_norm_unchecked(p.r, p.m) * math.cosh(p.r)


def nb_moment(p: ProbeParams, w: int) -> float:
    """<n_b^w> of the pre-loss probe arm; w = 0..4. Loss and phi are ignored
    (the moments describe the state before either acts)."""
    if not isinstance(w, (int, np.integer)) or not 0 <= w <= 4:
        raise ParamOutOfRange(f"moment order must be an int in [0, 4], got {w!r}")
    return _moment_from(_moment_kernel(p), int(w), _state_norm(p))


def moment_set(p: ProbeParams) -> MomentSet:
    """All four moments with variance of n and of n^2, sanity-checked.

    One kernel yields all four moments. The Hankel matrix of (1, m1..m4)
    must be positive semidefinite for a genuine photon-number distribution;
    violations raise ConsistencyError.
    """
    kernel = _moment_kernel(p)
    norm = _state_norm(p)
    m1, m2, m3, m4 = (_moment_from(kernel, w, norm) for w in (1, 2, 3, 4))
    var_n = m2 - m1 * m1
    var_n2 = m4 - m2 * m2
    scale = max(1.0, m4)
    hankel = np.array([[1.0, m1, m2], [m1, m2, m3], [m2, m3, m4]])
    lo = float(np.min(np.linalg.eigvalsh(hankel)))
    if lo < -PSD_TOL * scale:
        raise ConsistencyError(f"moment matrix has eigenvalue {lo:.3e}; not a distribution")
    if m1 < -PSD_TOL or var_n < -PSD_TOL * scale or var_n2 < -PSD_TOL * scale:
        raise ConsistencyError("negative mean or variance beyond tolerance")
    return MomentSet(m1, m2, m3, m4, max(var_n, 0.0), max(var_n2, 0.0))

