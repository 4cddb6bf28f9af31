"""The generating kernels built the long way, as an independent third route.

Production code reads the [t^m tau^m] coefficient of the parity and moment
kernels off a closed-form sum with univariate jets. Here the same kernels are
built as full multivariate jets in (t, tau, phi), (t, tau, x) and (t, tau),
exponentiated as a whole, and the coefficient is extracted directly. This is
the construction the package used before the closed form, kept for tests
only: its cost grows like batch * m^4, so callers keep m and the batch small.
"""

import math

import numpy as np

from mzphase.jets import JetShape, MultiJet
from mzphase.parity import loss_coefficients
from mzphase.states import ProbeParams


def pasvs_norm_reference(r: float, m: int) -> float:
    """Add-photon norm as the [t^m tau^m] coefficient of a 2-variable jet."""
    if m == 0:
        return 1.0
    shape = JetShape(("t", "tau"), (m, m))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    arg = (t * t + tau * tau) * (-math.sinh(2 * r) / 4.0) + (t * tau) * math.cosh(r) ** 2
    return arg.exp().extract((m, m)).real


def parity_signal_reference(p: ProbeParams, phis: np.ndarray) -> np.ndarray:
    """Complex parity value, slope and curvature at each phase, shape (3, batch)."""
    m = p.m
    cap = max(m, 1)
    shape = JetShape(("t", "tau", "phi"), (cap, cap, 2))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    phi_jet = MultiJet.constant(shape, phis) + MultiJet.variable(shape, "phi")
    lc = loss_coefficients(phi_jet, p.loss)

    th = math.tanh(p.r)
    hot = 1 + lc.x2
    abar = 1 - (hot * hot) * th**2
    inv_abar = abar.recip()
    x3sq = lc.x3 * lc.x3 + lc.x3_conj * lc.x3_conj
    a1 = lc.x1 + (hot * (lc.x3 * lc.x3_conj)) * inv_abar * th**2 - x3sq * inv_abar * (th / 2.0)
    a2 = hot * (t * tau) - (hot * hot) * (t * t + tau * tau) * (th / 2.0)
    a3 = lc.x3_conj * t + lc.x3 * tau - (hot * (lc.x3 * t + lc.x3_conj * tau)) * th

    pm = pasvs_norm_reference(p.r, m)
    pref = (a1 * p.alpha**2).exp() * abar.sqrt().recip() * (1.0 / (pm * math.cosh(p.r)))
    kernel = ((a2 + a3 * p.alpha) * inv_abar).exp() * pref
    return np.array([np.atleast_1d(kernel.extract((m, m, order))) for order in (0, 1, 2)])


def moment_reference(p: ProbeParams, w: int) -> complex:
    """Complex <n_b^w> (normalized) from the 3-variable moment kernel."""
    m = p.m
    cap = max(m, 1)
    shape = JetShape(("t", "tau", "x"), (cap, cap, max(w, 1)))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    x = MultiJet.variable(shape, "x")
    th = math.tanh(p.r)
    a = p.alpha

    ex = x.exp()
    s = (ex - 1.0) * 0.5
    sp1 = s + 1.0
    m0 = 1.0 - (sp1 * sp1) * th**2
    m1_factor = ((s * a) * (a + tau * 1j + (s * (a * th / 2.0)))).exp()
    m2_lin = (s * (-1j * a)) + (ex - s) * (tau - (s * (1j * a * th)))
    half_inv_m0 = m0.recip() * 0.5
    expo = (
        (m2_lin * t) * 2.0 - (m2_lin * m2_lin) * th - (sp1 * sp1) * (t * t) * th
    ) * half_inv_m0
    kernel = m1_factor * m0.sqrt().recip() * expo.exp()
    return kernel.extract((m, m, w)) / (pasvs_norm_reference(p.r, m) * math.cosh(p.r))
