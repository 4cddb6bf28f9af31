"""Quantum Fisher information for the linear phase shift, ideal and lossy.

Ideal: F_Q = 4 Var(n_b) of the probe arm. Lossy: the purification bound
minimized over the loss-commutation parameter has the closed form
4 eta <n> V / (l V + eta <n>); the numeric check below reproduces it from
the Kraus family's loss weight table directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRange
from .moments import MomentSet
from .oracle import loss_weight_table, probe_marginal
from .states import ProbeParams

DEGENERATE_TOL = 1e-14


@dataclass(frozen=True)
class QfiResult:
    """A Fisher information value with its Cramer-Rao bound.

    regime is "ideal" or "lossy"; degenerate marks a probe with no photon
    number spread at all (fq = 0, bound undefined); fallback marks a Kerr
    value at the least-norm minimizer of a singular quadratic form.
    """

    fq: float
    qcrb: float
    regime: str
    degenerate: bool = False
    fallback: bool = False


@dataclass(frozen=True)
class BenchmarkLimits:
    """Standard sensitivity benchmarks at total mean photon number nbar."""

    nbar: float
    sql: float
    heisenberg: float
    sub_heisenberg: float
    super_heisenberg: float


def _result(fq: float, regime: str, degenerate: bool = False, fallback: bool = False) -> QfiResult:
    qcrb = math.inf if fq <= 0 else 1.0 / math.sqrt(fq)
    return QfiResult(fq=fq, qcrb=qcrb, regime=regime, degenerate=degenerate, fallback=fallback)


def qfi_ideal_linear(ms: MomentSet) -> QfiResult:
    """F_Q = 4 Var(n_b) for a pure probe and unitary phase."""
    fq = 4.0 * ms.var_n
    return _result(fq, "ideal", degenerate=(fq <= DEGENERATE_TOL and ms.m1 <= DEGENERATE_TOL))


def qfi_lossy_linear(ms: MomentSet, loss: float) -> QfiResult:
    """Optimized purification bound under single-arm loss.

    Exactly the ideal value at loss = 0. A probe with neither mean photons
    nor number variance carries no phase information: flagged degenerate.
    """
    if not 0 <= loss < 1:
        raise ParamOutOfRange(f"loss must lie in [0, 1), got {loss}")
    if loss == 0.0:
        res = qfi_ideal_linear(ms)
        return QfiResult(res.fq, res.qcrb, "lossy", degenerate=res.degenerate)
    if ms.m1 <= DEGENERATE_TOL and ms.var_n <= DEGENERATE_TOL:
        return QfiResult(0.0, math.inf, "lossy", degenerate=True)
    eta = 1.0 - loss
    fq = 4.0 * eta * ms.m1 * ms.var_n / (loss * ms.var_n + eta * ms.m1)
    return _result(fq, "lossy")


def benchmark_limits(nbar: float) -> BenchmarkLimits:
    """Shot-noise and Heisenberg-family phase-uncertainty benchmarks."""
    if not (math.isfinite(nbar) and nbar > 0):
        raise ParamOutOfRange(f"nbar must be finite and > 0, got {nbar}")
    return BenchmarkLimits(
        nbar=nbar,
        sql=1.0 / math.sqrt(nbar),
        heisenberg=1.0 / nbar,
        sub_heisenberg=nbar**-1.5,
        super_heisenberg=nbar**-2.0,
    )


def qfi_lossy_numeric_check(p: ProbeParams) -> float:
    """Minimum of the operator-level C_Q over the commutation parameter.

    The linear generator is g = n - gamma * j on the loss table's (surviving,
    lost) entries, so C_Q(gamma) / 4 = c - 2 gamma b + gamma^2 a, with
    a = Var_w(j), b = Cov_w(n, j) and c = Var_w(n) over the table's
    (unnormalised) weights, as `cq_from_table` takes them. The sums are taken
    once; the vertex gamma = b / a gives 4 (c - b^2 / a). Without loss the
    table holds only j = 0, a is 0 and the value is 4c. No scan, no search.
    """
    table = loss_weight_table(probe_marginal(p, weight=2), p.loss)
    w, n, j = table.weight, table.survived, table.lost
    wn, wj = float(np.dot(w, n)), float(np.dot(w, j))
    a = float(np.dot(w, j * j)) - wj * wj
    b = float(np.dot(w, n * j)) - wn * wj
    c = float(np.dot(w, n * n)) - wn * wn
    if a <= 0.0:
        return 4.0 * c
    return 4.0 * (c - b * b / a)
