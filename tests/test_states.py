"""State parameters, norm constants, energy solves, Fock amplitude builders.

Frozen reference numbers below were computed twice independently before the
implementation existed: symbolic differentiation of the generating kernel
(sympy) and a direct Fock-space sum over squeezed-vacuum amplitudes. The two
agree to 13+ digits.
"""

import math

import numpy as np
import pytest
from jet_reference import pasvs_norm_reference

from mzphase.errors import (
    BracketExceeded,
    CutoffTooSmall,
    InfeasibleTarget,
    ParamOutOfRange,
)
from mzphase.states import (
    ProbeParams,
    _pasvs_norm_unchecked,
    coherent_fock_amplitudes,
    energy_report,
    pasvs_fock_amplitudes,
    pasvs_mean_photons,
    pasvs_norm,
    solve_r_for_energy,
)



def adaptive_cutoff(build, start: int = 40, limit: int = 5120) -> int:
    """Smallest doubling of `start` for which `build(cutoff)` passes its tail check."""
    cutoff = start
    while True:
        try:
            build(cutoff)
            return cutoff
        except CutoffTooSmall:
            cutoff *= 2
            if cutoff > limit:
                raise


# independently derived (symbolic + Fock sum), see module docstring
P3_AT_R1 = 151.47240518623446
P4_AT_R1 = 2211.2226801603209
NBAR_R1_M3 = 13.598188214161089
NBAR_R05_M1 = 1.8146209522228657
P2_AT_R05 = 3.5789040189716056


@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0, 2.0, 3.0])
def test_norm_closed_forms(r):
    ch = math.cosh(r)
    assert pasvs_norm(r, 0) == 1.0
    assert abs(pasvs_norm(r, 1) - ch**2) <= 1e-13 * ch**2
    want2 = 3 * ch**4 - ch**2
    assert abs(pasvs_norm(r, 2) - want2) <= 1e-13 * want2


@pytest.mark.parametrize("m", range(0, 11))
def test_norm_at_zero_squeeze_is_factorial(m):
    assert abs(pasvs_norm(0.0, m) - math.factorial(m)) <= 1e-13 * math.factorial(m)


def test_frozen_reference_values():
    assert abs(pasvs_norm(1.0, 3) - P3_AT_R1) <= 1e-12 * P3_AT_R1
    assert abs(pasvs_norm(1.0, 4) - P4_AT_R1) <= 1e-12 * P4_AT_R1
    assert abs(pasvs_mean_photons(1.0, 3) - NBAR_R1_M3) <= 1e-12 * NBAR_R1_M3
    assert abs(pasvs_mean_photons(0.5, 1) - NBAR_R05_M1) <= 1e-12 * NBAR_R05_M1
    assert abs(pasvs_norm(0.5, 2) - P2_AT_R05) <= 1e-12 * P2_AT_R05


def test_mean_photons_reduces_to_squeezed_vacuum_and_fock():
    # m = 0: plain squeezed vacuum, nbar = sinh^2 r
    for r in (0.0, 0.4, 1.0, 2.5):
        assert abs(pasvs_mean_photons(r, 0) - math.sinh(r) ** 2) <= 1e-12 * max(1, math.sinh(r) ** 2)
    # r = 0: Fock state |m>, nbar = m
    for m in range(0, 11):
        assert abs(pasvs_mean_photons(0.0, m) - m) <= 1e-12 * max(1, m)


def test_energy_report_adds_up():
    p = ProbeParams(alpha=2.0, r=0.5, m=1)
    rep = energy_report(p)
    assert rep.nbar_coherent == 4.0
    assert abs(rep.nbar_added_squeezed - NBAR_R05_M1) <= 1e-12 * NBAR_R05_M1
    assert abs(rep.nbar_total - (4.0 + NBAR_R05_M1)) <= 1e-12 * rep.nbar_total
    assert abs(rep.norm_constant - math.cosh(0.5) ** 2) <= 1e-13 * rep.norm_constant


@pytest.mark.parametrize("m", range(0, 5))
@pytest.mark.parametrize("target_above", [0.05, 0.8, 3.0, 6.0])
def test_solve_r_roundtrip(m, target_above):
    target = m + target_above
    r = solve_r_for_energy(m, target)
    assert 0 <= r <= 3
    assert abs(pasvs_mean_photons(r, m) - target) <= 1e-10


def test_solve_r_edges():
    assert solve_r_for_energy(2, 2.0) == 0.0
    with pytest.raises(InfeasibleTarget):
        solve_r_for_energy(3, 2.5)
    with pytest.raises(BracketExceeded):
        solve_r_for_energy(0, 1e6)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("m", range(0, 5))
def test_amplitudes_match_jet_route(r, m):
    cutoff = adaptive_cutoff(lambda c: pasvs_fock_amplitudes(r, m, c))
    amps = pasvs_fock_amplitudes(r, m, cutoff)
    assert abs(np.sum(amps**2) - 1.0) <= 1e-12
    n = np.arange(cutoff + 1)
    # only m, m+2, m+4, ... levels populated
    populated = np.nonzero(amps)[0]
    assert np.all(populated >= m)
    assert np.all((populated - m) % 2 == 0)
    nbar_fock = float(np.sum(amps**2 * n))
    # a 1e-10 probability tail at Fock level ~cutoff can shift the mean by ~cutoff*1e-10
    assert abs(nbar_fock - pasvs_mean_photons(r, m)) <= 2e-10 * cutoff + 1e-12


def test_amplitudes_at_zero_squeeze_are_fock_state():
    amps = pasvs_fock_amplitudes(0.0, 3, 10)
    want = np.zeros(11)
    want[3] = 1.0
    assert np.array_equal(amps, want)


def test_amplitude_cutoff_errors():
    with pytest.raises(CutoffTooSmall):
        pasvs_fock_amplitudes(1.0, 3, 4)  # below m + 2
    with pytest.raises(CutoffTooSmall):
        pasvs_fock_amplitudes(1.0, 3, 20)  # tail too fat
    with pytest.raises(CutoffTooSmall):
        coherent_fock_amplitudes(4.0, 10)


def test_coherent_amplitudes():
    amps = coherent_fock_amplitudes(0.0, 5)
    assert np.array_equal(amps, np.array([1, 0, 0, 0, 0, 0], dtype=float))
    alpha = 1.7
    cutoff = adaptive_cutoff(lambda c: coherent_fock_amplitudes(alpha, c))
    amps = coherent_fock_amplitudes(alpha, cutoff)
    n = np.arange(cutoff + 1)
    assert abs(np.sum(amps**2) - 1.0) <= 1e-12
    assert abs(float(np.sum(amps**2 * n)) - alpha**2) <= 1e-9


def test_param_validation():
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=-0.1, r=0.5, m=0)
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=1.0, r=3.5, m=0)
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=1.0, r=0.5, m=11)
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=1.0, r=0.5, m=1.0)  # non-integer m
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=1.0, r=0.5, m=0, loss=1.0)
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=1.0, r=0.5, m=0, phi=math.inf)
    with pytest.raises(ParamOutOfRange):
        pasvs_norm(-0.2, 1)
    with pytest.raises(ParamOutOfRange):
        pasvs_mean_photons(1.0, 12)


@pytest.mark.parametrize("m", [True, False, np.bool_(True)])
def test_bool_order_rejected(m):
    with pytest.raises(ParamOutOfRange):
        ProbeParams(alpha=1.0, r=0.5, m=m)
    with pytest.raises(ParamOutOfRange):
        pasvs_norm(0.5, m)
    with pytest.raises(ParamOutOfRange):
        pasvs_mean_photons(0.5, m)
    with pytest.raises(ParamOutOfRange):
        solve_r_for_energy(m, 2.0)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5, 3.0])
def test_norm_legendre_matches_jet_route(r):
    # m = 11 is what pasvs_mean_photons(r, 10) divides by
    for m in range(12):
        want = pasvs_norm_reference(r, m)
        assert abs(_pasvs_norm_unchecked(r, m) - want) <= 1e-13 * want


def test_adaptive_cutoff_doubles_from_start():
    calls = []

    def build(c):
        calls.append(c)
        if c < 100:
            raise CutoffTooSmall("too small")

    assert adaptive_cutoff(build, start=40) == 160
    assert calls == [40, 80, 160]
