"""Quadratic-phase QFI: closed-form C_Q, its optimum, and the operator route."""

import math

import pytest

from mzphase.errors import ParamOutOfRange, SingularNormalEquations
from mzphase.moments import MomentSet, moment_set
from mzphase.qfi_kerr import (
    kerr_cq,
    kerr_mu_opt,
    kerr_mu_opt_numeric,
    qfi_ideal_kerr,
    qfi_lossy_kerr,
)
from mzphase.states import ProbeParams
from oracle_reference import kerr_cq_numeric, kerr_gradient_check

MU_POINTS = [(0.0, 0.0), (-1.0, -1.0), (-0.5, -0.3)]

VALIDATION_GRID = [
    (alpha, r, m, l)
    for alpha in (0.0, 1.0, 2.0)
    for r in (0.0, 0.5)
    for m in (0, 1, 2)
    for l in (0.1, 0.3, 0.5)
]


@pytest.mark.parametrize("alpha,r,m,l", VALIDATION_GRID)
def test_closed_form_matches_operator(alpha, r, m, l):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=l)
    ms = moment_set(p)
    for mu1, mu2 in MU_POINTS:
        closed = kerr_cq(ms, l, mu1, mu2)
        numeric = kerr_cq_numeric(p, mu1, mu2)
        assert closed == pytest.approx(numeric, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize(
    "alpha,r,m,l",
    [(2.0, 0.5, 1, 0.1), (1.0, 0.5, 2, 0.3), (2.0, 0.0, 0, 0.5)],
)
def test_optimum_matches_bounded_numeric_minimum(alpha, r, m, l):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=l)
    ms = moment_set(p)
    mu1, mu2 = kerr_mu_opt(ms, l)
    closed = kerr_cq(ms, l, mu1, mu2)
    numeric, n1, n2 = kerr_mu_opt_numeric(p)
    assert closed == pytest.approx(numeric, rel=1e-6)
    # both sides solve for the same vertex; measured apart by at most 1.6e-12
    assert mu1 == pytest.approx(n1, abs=1e-11)
    assert mu2 == pytest.approx(n2, abs=1e-11)


@pytest.mark.parametrize(
    "alpha,r,m,l",
    [(2.0, 0.5, 1, 0.1), (1.0, 0.5, 2, 0.3), (2.0, 0.0, 0, 0.5)],
)
def test_optimum_is_stationary(alpha, r, m, l):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=l)
    assert kerr_gradient_check(p, step=1e-6) < 1e-5


FROZEN = [
    (2.0, 0.5, 1, 0.1, 1686.2672975637238),
    (1.0, 0.5, 2, 0.3, 220.82024065845633),
    (2.0, 0.0, 0, 0.5, 27.5),
]


@pytest.mark.parametrize("alpha,r,m,l,expected", FROZEN)
def test_lossy_values_frozen(alpha, r, m, l, expected):
    ms = moment_set(ProbeParams(alpha=alpha, r=r, m=m, loss=l))
    res = qfi_lossy_kerr(ms, l)
    assert res.fq == pytest.approx(expected, rel=1e-12)
    assert not res.fallback


@pytest.mark.parametrize("l", [0.05, 0.1, 0.3, 0.6, 0.9])
def test_fallback_matches_operator_minimum(l):
    # one photon split at the first splitter: n_b is Bernoulli, so n_b^2 = n_b
    # and the C_Q quadratic form is not positive definite; the Kerr bound is
    # then the linear one, 4 eta m1 V / (l V + eta m1) with m1 = 1/2 and
    # V = 1/4, that is 2 eta / (1 + eta)
    p = ProbeParams(alpha=0.0, r=0.0, m=1, loss=l)
    ms = moment_set(p)
    with pytest.raises(SingularNormalEquations):
        kerr_mu_opt(ms, p.loss)
    res = qfi_lossy_kerr(ms, p.loss)
    assert res.fallback
    eta = 1.0 - l
    exact = 2.0 * eta / (1.0 + eta)
    numeric, _, _ = kerr_mu_opt_numeric(p)
    assert abs(res.fq - exact) <= 5e-14 * exact
    assert abs(numeric - exact) <= 5e-14 * exact


def test_zero_loss_reduces_to_ideal_and_ignores_mu():
    ms = moment_set(ProbeParams(alpha=2.0, r=0.5, m=1))
    ideal = qfi_ideal_kerr(ms)
    assert ideal.fq == pytest.approx(4.0 * ms.var_n2, rel=0, abs=0)
    assert qfi_lossy_kerr(ms, 0.0).fq == ideal.fq
    vals = [kerr_cq(ms, 0.0, mu1, mu2) for mu1, mu2 in MU_POINTS + [(0.7, 0.3)]]
    for v in vals:
        assert abs(v - ideal.fq) <= 1e-10 * max(1.0, abs(ideal.fq))


def test_small_loss_continuity():
    ms0 = moment_set(ProbeParams(alpha=2.0, r=0.5, m=1))
    ideal = qfi_ideal_kerr(ms0).fq
    ms = moment_set(ProbeParams(alpha=2.0, r=0.5, m=1, loss=1e-6))
    tiny = qfi_lossy_kerr(ms, 1e-6).fq
    assert abs(tiny - ideal) / ideal < 1e-4


def test_vacuum_probe_is_degenerate():
    ms = moment_set(ProbeParams(alpha=0.0, r=0.0, m=0))
    res = qfi_lossy_kerr(ms, 0.2)
    assert res.fq == 0.0
    assert res.qcrb == math.inf


def test_singular_normal_equations_detected():
    # a number state has zero photon-number variance after any loss split
    # is still nondegenerate enough; use a synthetic zero-variance input
    ms = MomentSet(m1=0.0, m2=0.0, m3=0.0, m4=0.0, var_n=0.0, var_n2=0.0)
    with pytest.raises(SingularNormalEquations):
        kerr_mu_opt(ms, 0.3)


def test_loss_range_validated():
    ms = moment_set(ProbeParams(alpha=1.0, r=0.5, m=0))
    with pytest.raises(ParamOutOfRange):
        qfi_lossy_kerr(ms, 1.0)
    with pytest.raises(ParamOutOfRange):
        kerr_cq(ms, -0.2, 0.0, 0.0)


def test_quadratic_beats_linear_when_spread_is_real():
    from mzphase.qfi_linear import qfi_lossy_linear

    for alpha, r, m, l in [(2.0, 0.5, 1, 0.1), (1.0, 1.0, 2, 0.3)]:
        ms = moment_set(ProbeParams(alpha=alpha, r=r, m=m, loss=l))
        assert qfi_lossy_kerr(ms, l).fq > qfi_lossy_linear(ms, l).fq
