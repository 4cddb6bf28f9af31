"""Quantum Fisher information for the Kerr (quadratic) phase shift.

Ideal: F_Q = 4 Var(n_b^2). Lossy: the purification bound C_Q is an upward
quadratic in the two commutation parameters (mu1, mu2); its coefficients
are polynomial in the first four photon-number moments through the
factorial-moment cross sums below. Its minimum is at the vertex, from a 2x2
linear system; where that system is singular, at the least-norm vertex
(flagged as a fallback). The operator-level check minimizes its own exact
quadratic in (mu1, mu2) the same way: no search runs on either side.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularNormalEquations
from .moments import MomentSet
from .oracle import cq_from_table, loss_weight_table, probe_marginal
from .qfi_linear import QfiResult, _result
from .states import ProbeParams, _check_loss


def _omegas(mu1: float, mu2: float):
    w1 = 1 + 2 * mu1 - mu2
    w2 = mu1 - mu2
    w3 = 1 + 2 * (3 * mu1 - 2 * mu2) + (2 * mu1 - mu2) * (4 * mu1 - 3 * mu2)
    w4 = 7 * mu2 - 6 * mu1 + 24 * mu1 * mu2 - 14 * mu1**2 - 9 * mu2**2
    w5 = mu2 * w1 - 2 * w2**2
    w6 = 9 + 40 * mu1 - 22 * mu2 + 44 * mu1**2 - 48 * mu1 * mu2 + 13 * mu2**2
    w7 = 7 + 40 * mu1 - 26 * mu2 + 52 * mu1**2 - 64 * mu1 * mu2 + 19 * mu2**2
    return w1, w2, w3, w4, w5, w6, w7


def kerr_cq(ms: MomentSet, loss: float, mu1: float, mu2: float) -> float:
    """Closed-form C_Q at the given commutation parameters."""
    _check_loss(loss)
    eta = 1.0 - loss
    w1, w2, w3, w4, w5, w6, w7 = _omegas(mu1, mu2)
    k1 = w1 * eta**2 - 2 * w2 * eta - mu2
    k2 = 2 * eta * (3 * w1**2 * eta**3 - 3 * w3 * eta**2 - w4 * eta + w5)
    k3 = eta * (11 * w1**2 * eta**3 - 2 * w6 * eta**2 + w7 * eta - 4 * w1 * w2)
    k4 = eta * w1**2 * (6 * eta**3 - 12 * eta**2 + 7 * eta - 1)
    k5 = 2 * (1 - eta) * eta * w1 * k1
    k6 = (1 - eta) ** 2 * eta**2 * w1**2
    return 4.0 * (
        k1**2 * ms.var_n2
        - k2 * ms.m3
        + k3 * ms.m2
        - k4 * ms.m1
        - k5 * ms.m2 * ms.m1
        - k6 * ms.m1**2
    )


# Stirling numbers of the second kind, row q: n^q = sum_k S(q,k) n^(k falling)
_STIRLING = {
    0: {0: 1.0},
    1: {1: 1.0},
    2: {1: 1.0, 2: 1.0},
    3: {1: 1.0, 2: 3.0, 3: 1.0},
    4: {1: 1.0, 2: 7.0, 3: 6.0, 4: 1.0},
}


def _cross_sums(ms: MomentSet, loss: float):
    """E[n_surv^q n_lost^p] for q + p <= 4 via factorial moments.

    Conditioned on k input photons the split (survived, lost) is binomial,
    so falling factorials factorize: E[surv^(a falling) lost^(b falling)]
    = eta^a l^b E[k^((a+b) falling)].
    """
    eta = 1.0 - loss
    fall = {
        0: 1.0,
        1: ms.m1,
        2: ms.m2 - ms.m1,
        3: ms.m3 - 3 * ms.m2 + 2 * ms.m1,
        4: ms.m4 - 6 * ms.m3 + 11 * ms.m2 - 6 * ms.m1,
    }

    def s(q: int, p: int) -> float:
        tot = 0.0
        for a, ca in _STIRLING[q].items():
            for b, cb in _STIRLING[p].items():
                tot += ca * cb * eta**a * loss**b * fall[a + b]
        return tot

    return s


def kerr_quadratic(ms: MomentSet, loss: float):
    """C_Q/4 as a quadratic in (mu1, mu2):
    c0 + b1 mu1 + b2 mu2 + a11 mu1^2 + a12 mu1 mu2 + a22 mu2^2."""
    s = _cross_sums(ms, loss)
    s40, s31, s22, s13, s04 = s(4, 0), s(3, 1), s(2, 2), s(1, 3), s(0, 4)
    s20, s11, s02 = s(2, 0), s(1, 1), s(0, 2)
    a11 = 4 * (s22 - s11**2)
    a22 = s04 - s02**2
    a12 = 4 * (s13 - s11 * s02)
    b1 = -4 * (s31 - s20 * s11)
    b2 = -2 * (s22 - s20 * s02)
    c0 = s40 - s20**2
    return c0, b1, b2, a11, a12, a22


def _vertex(mat: np.ndarray, rhs: np.ndarray) -> tuple[float, float, bool]:
    """Minimizer (mu1, mu2) of mu.mat.mu / 2 - rhs.mu, and whether mat is singular.

    mat (2x2, positive semidefinite up to rounding) counts as positive
    definite when its smallest eigenvalue is above tol = 1e-12 * max(1,
    largest) and |det| >= 1e-12 * max|entry|^2; then mat mu = rhs. Otherwise
    mu is the least-norm minimizer, over the eigenvectors with eigenvalues
    above tol.
    """
    eigs = np.linalg.eigvalsh(mat)
    tol = 1e-12 * max(1.0, eigs[-1])
    scale = float(np.max(np.abs(mat)))
    det = float(np.linalg.det(mat))
    if not (eigs[0] <= tol or abs(det) < 1e-12 * scale * scale):
        mu = np.linalg.solve(mat, rhs)
        return float(mu[0]), float(mu[1]), False
    eigs, vecs = np.linalg.eigh(mat)
    kept = eigs > tol
    mu = vecs[:, kept] @ ((vecs[:, kept].T @ rhs) / eigs[kept])
    return float(mu[0]), float(mu[1]), True


def _kerr_vertex(ms: MomentSet, loss: float) -> tuple[float, float, bool]:
    _, b1, b2, a11, a12, a22 = kerr_quadratic(ms, loss)
    return _vertex(np.array([[2 * a11, a12], [a12, 2 * a22]]), -np.array([b1, b2]))


def kerr_mu_opt(ms: MomentSet, loss: float) -> tuple[float, float]:
    """Global minimizer of the C_Q quadratic.

    Raises SingularNormalEquations when the quadratic form is not positive
    definite or its stationary system is singular.
    """
    mu1, mu2, singular = _kerr_vertex(ms, loss)
    if singular:
        raise SingularNormalEquations("C_Q quadratic form is not positive definite")
    return mu1, mu2


def qfi_ideal_kerr(ms: MomentSet) -> QfiResult:
    """F_Q = 4 Var(n_b^2) for a pure probe and quadratic phase."""
    fq = 4.0 * ms.var_n2
    return _result(fq)


def qfi_lossy_kerr(ms: MomentSet, loss: float) -> QfiResult:
    """Purification-bound QFI for the quadratic phase under loss.

    C_Q at the vertex of its quadratic, or at the least-norm vertex, flagged
    as a fallback, where the quadratic form is singular.
    """
    _check_loss(loss)
    if loss == 0.0:
        return qfi_ideal_kerr(ms)
    if ms.m1 <= 1e-14 and ms.var_n2 <= 1e-14:
        return QfiResult(0.0, math.inf)
    mu1, mu2, singular = _kerr_vertex(ms, loss)
    return _result(kerr_cq(ms, loss, mu1, mu2), fallback=singular)


def kerr_mu_opt_numeric(p: ProbeParams) -> tuple[float, float, float]:
    """Minimum of the operator-level C_Q over (mu1, mu2), as (cq, mu1, mu2).

    With A = n^2, B = 2 n j and C = j^2 on the loss table's (surviving n,
    lost j) entries, C_Q / 4 = Var_w(A - mu1 B - mu2 C) over its unnormalised
    weights, as `cq_from_table` takes them. Its vertex solves
    [[V_B, C_BC], [C_BC, V_C]] mu = [C_AB, C_AC] (`_vertex`; mu = 0 without
    loss, where j = 0), and C_Q is evaluated there on the same table.
    """
    table = loss_weight_table(probe_marginal(p, weight=4), p.loss)
    w, n, j = table.weight, table.survived, table.lost
    a, b, c = n * n, 2.0 * n * j, j * j

    def cov(x, y):
        return float(np.dot(w, x * y)) - float(np.dot(w, x)) * float(np.dot(w, y))

    v_bc = cov(b, c)
    mat = np.array([[cov(b, b), v_bc], [v_bc, cov(c, c)]])
    mu1, mu2, _ = _vertex(mat, np.array([cov(a, b), cov(a, c)]))
    return cq_from_table(table, n * n - 2.0 * mu1 * n * j - mu2 * j * j), mu1, mu2
