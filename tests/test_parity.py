"""Parity signal: bounds, identities, derivatives, Fisher branches, optimum."""

import math

import numpy as np
import pytest

from mzphase.errors import DegenerateSignal
from mzphase.jets import Series
from mzphase.parity import (
    _loss_scalars,
    _mix,
    classical_fisher,
    optimal_phase,
    parity_expectation,
    phase_sensitivity,
)
from mzphase.states import ProbeParams
from oracle_reference import parity_expectation_oracle


def _loss_coefficients(phis, loss):
    return _mix(Series.constant(np.array(phis), 2) + Series.variable(2), *_loss_scalars(loss))


def test_loss_coefficient_sum_rule_float():
    # on the constant terms of the phase series
    for loss in (0.0, 0.1, 0.5, 0.9):
        x1, x2, x3, x3c = _loss_coefficients([0.0, 0.4, 1.2], loss)
        assert np.all(x1.c[:, 0] + x2.c[:, 0] == loss - 2.0)
        assert np.array_equal(x3c.c[:, 0], x3.c[:, 0].conjugate())


def test_loss_coefficient_jet_matches_float():
    phi0, loss = 0.37, 0.25
    root, cos, sin = math.sqrt(1 - loss), math.cos(phi0), math.sin(phi0)
    want = ((loss - 2) / 2 + root * cos, (loss - 2) / 2 - root * cos, 0.5j * loss - root * sin, -0.5j * loss - root * sin)
    series = _loss_coefficients([phi0], loss)
    for got, num in zip(series, want):
        assert abs(got.derivative(0)[0] - num) <= 1e-14
    # slope of x1 is -sqrt(1-l) sin(phi0)
    assert abs(series[0].derivative(1)[0] - -root * sin) <= 1e-13


@pytest.mark.parametrize("m", range(6))
def test_ideal_zero_phase_parity_is_alternating(m):
    p = ProbeParams(alpha=1.3, r=0.8, m=m, loss=0.0, phi=0.0)
    assert abs(parity_expectation(p).value - (-1.0) ** m) <= 1e-10


def test_parity_bounded_on_random_parameters():
    rng = np.random.default_rng(20240917)
    for _ in range(2000):
        p = ProbeParams(
            alpha=float(rng.uniform(0, 3)),
            r=float(rng.uniform(0, 3)),
            m=int(rng.integers(0, 11)),
            loss=float(rng.uniform(0, 0.95)),
            phi=float(rng.uniform(-math.pi, math.pi)),
        )
        assert abs(parity_expectation(p).value) <= 1 + 1e-10


def test_parity_is_even_in_phase():
    p_plus = ProbeParams(2.0, 0.5, 2, 0.2, 0.6)
    p_minus = ProbeParams(2.0, 0.5, 2, 0.2, -0.6)
    a, b = parity_expectation(p_plus), parity_expectation(p_minus)
    assert abs(a.value - b.value) <= 1e-12
    assert abs(a.dvalue + b.dvalue) <= 1e-12


def test_derivatives_match_finite_differences():
    h = 1e-5
    for kwargs in (
        dict(alpha=2.0, r=0.5, m=2, loss=0.1, phi=0.6),
        dict(alpha=1.0, r=1.0, m=1, loss=0.0, phi=0.3),
        dict(alpha=0.0, r=0.7, m=3, loss=0.4, phi=1.1),
    ):
        sig = parity_expectation(ProbeParams(**kwargs))
        up = parity_expectation(ProbeParams(**{**kwargs, "phi": kwargs["phi"] + h})).value
        dn = parity_expectation(ProbeParams(**{**kwargs, "phi": kwargs["phi"] - h})).value
        fd = (up - dn) / (2 * h)
        assert abs(sig.dvalue - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=1.0, r=0.5, m=1, loss=0.0, phi=0.15),
        dict(alpha=2.0, r=0.5, m=2, loss=0.3, phi=0.7),
        dict(alpha=1.0, r=1.0, m=0, loss=0.1, phi=1.4),
        dict(alpha=0.0, r=0.25, m=2, loss=0.1, phi=0.0),
    ],
)
def test_matches_bruteforce_engine(kwargs):
    p = ProbeParams(**kwargs)
    assert abs(parity_expectation(p).value - parity_expectation_oracle(p)) <= 1e-8


def test_fisher_branches():
    # vacuum probe: no signal at all
    with pytest.raises(DegenerateSignal):
        classical_fisher(ProbeParams(alpha=0.0, r=0.0, m=0, loss=0.0, phi=0.3))
    # ideal zero phase: |parity| = 1 extremum, Fisher limits to |curvature|
    p0 = ProbeParams(alpha=2.0, r=0.5, m=1, loss=0.0, phi=0.0)
    sig = parity_expectation(p0)
    assert classical_fisher(p0) == abs(sig.ddvalue)
    # lossy zero phase: slope 0 with |parity| < 1, so zero information
    pl = ProbeParams(alpha=2.0, r=0.5, m=1, loss=0.2, phi=0.0)
    assert classical_fisher(pl) == 0.0
    assert phase_sensitivity(pl) == math.inf
    # generic point: plain formula, positive
    pg = ProbeParams(alpha=2.0, r=0.5, m=1, loss=0.2, phi=0.4)
    f = classical_fisher(pg)
    s = parity_expectation(pg)
    assert f == pytest.approx(s.dvalue**2 / (1 - s.value**2), rel=1e-12)
    assert phase_sensitivity(pg) == pytest.approx(1 / math.sqrt(f), rel=1e-12)


def test_optimal_phase_deterministic_and_window_checked():
    p = ProbeParams(alpha=2.0, r=0.5, m=1, loss=0.2)
    a = optimal_phase(p)
    b = optimal_phase(p)
    assert a == b
    phi_star, dphi_star = a
    assert 1e-4 <= phi_star <= 1.5
    # optimum beats both window edges
    for probe_phi in (1e-4, 1.5):
        assert dphi_star <= phase_sensitivity(
            ProbeParams(2.0, 0.5, 1, 0.2, probe_phi)
        ) + 1e-12


def test_optimal_sensitivity_improves_with_added_photons():
    prev = math.inf
    for m in range(4):
        p = ProbeParams(alpha=2.0, r=0.5, m=m, loss=0.0)
        _, dphi = optimal_phase(p)
        assert dphi < prev + 1e-12
        prev = dphi
