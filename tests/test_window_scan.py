"""The two-pass window scan of the optimal-phase search.

`optimal_phases` scans `_GRID` coarsely, then finely around each coarse
local minimum. Its results must be the bits of the full 1001-point scan
(`parity_reference.optimal_phases_full_scan`), outcomes that are not a
result included, so every comparison here is `==`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzphase import moments, parity
from mzphase.errors import ConsistencyError, DegenerateSignal
from mzphase.jets import Series
from mzphase.parity import _GRID, DENOM_TOL, GRID_STEP, MAX_STRIDE, optimal_phases, parity_signals
from mzphase.states import M_MAX, R_MAX, ProbeParams, pasvs_mean_photons
from parity_reference import optimal_phases_full_scan


def _outcomes(results):
    return [type(x) if isinstance(x, Exception) else x for x in results]


def _both(m, alpha, r, loss):
    return _outcomes(optimal_phases(m, alpha, r, loss)), _outcomes(optimal_phases_full_scan(m, alpha, r, loss))


_row = st.tuples(
    st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 40.0)),
    st.floats(0.0, R_MAX),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10), st.lists(_row, min_size=1, max_size=6))
def test_two_pass_scan_equals_full_scan(m, rows):
    got, want = _both(m, *zip(*rows))
    assert got == want


# rows of 170 to 1160 photons whose best point sits on the first fringe, at
# phi < 0.01, narrower than ten grid steps
LARGE_N = [
    (5, 11.76, 2.957, 0.077),
    (5, 6.86, 2.205, 0.015),
    (10, 7.52, 1.916, 0.026),
    (10, 11.62, 1.234, 0.099),
    (10, 10.98, 1.112, 0.015),
    (10, 11.21, 1.379, 0.057),
]


@pytest.mark.parametrize("m,alpha,r,loss", LARGE_N)
def test_stride_follows_photon_number(m, alpha, r, loss, monkeypatch):
    photons = alpha**2 + pasvs_mean_photons(r, m)
    stride = int(parity._strides(m, [alpha], [r])[0])
    assert stride == min(MAX_STRIDE, max(1, math.floor(1.0 / (photons * GRID_STEP)))) < MAX_STRIDE
    got, want = _both(m, [alpha], [r], [loss])
    assert got == want
    assert want[0][0] < 0.01
    # a fixed stride of MAX_STRIDE steps over that fringe and picks another
    monkeypatch.setattr(parity, "_strides", lambda m, alpha, r: np.full(len(alpha), MAX_STRIDE))
    assert _outcomes(optimal_phases(m, [alpha], [r], [loss])) != want


def test_strides_at_the_limits():
    # the vacuum carries no photons; up to 66.7 photons the stride is 10, and
    # above 333.3 every grid point is coarse
    alpha = [0.0, 8.16, 8.17, 18.2, 18.3, 40.0]
    assert parity._strides(0, alpha, [0.0] * 5 + [3.0]).tolist() == [MAX_STRIDE, MAX_STRIDE, 9, 2, 1, 1]
    assert GRID_STEP >= _GRID[1] - _GRID[0]


@pytest.mark.parametrize("alpha", [0.0, 8.17, 10.0, 18.2])  # strides 10, 9, 6 and 2
def test_coarse_pass_holds_both_window_ends(alpha, monkeypatch):
    signal, calls = parity._signal, []
    monkeypatch.setattr(parity, "_signal", lambda phi, c: calls.append(phi) or signal(phi, c))
    optimal_phases(0, [alpha], [0.0], [0.1])
    stride = int(parity._strides(0, [alpha], [0.0])[0])
    assert calls[0].tolist() == _GRID[sorted({*range(0, _GRID.size, stride), _GRID.size - 1})].tolist()


def test_tied_coarse_minima_both_get_a_fine_pass(monkeypatch):
    # a made-up signal with F = P'^2, whose sensitivity 1 + |i - 335| / 5 at
    # grid index i ties at the coarse points 330 and 340 around its minimum
    def signal(phi, c):
        slope = 1.0 / (1.0 + np.abs(np.searchsorted(_GRID, phi) - 335) / 5.0)
        return np.array([0.0 * phi, slope, 0.0 * phi])

    monkeypatch.setattr(parity, "_signal", signal)
    assert parity._strides(0, [1.0], [0.5]).tolist() == [MAX_STRIDE]
    assert optimal_phases(0, [1.0], [0.5], [0.1]) == [(float(_GRID[335]), 1.0)]


def _reciprocal_constants(call) -> float:
    """Smallest |constant term| of every series `call` takes 1/x of."""
    seen, recip = [], Series.recip

    def spy(self):
        seen.append(float(np.min(np.abs(self.derivative(0)))))
        return recip(self)

    Series.recip = spy
    try:
        call()
    finally:
        Series.recip = recip
    return min(seen)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, M_MAX),
    st.floats(0.0, 4.0),
    st.floats(0.0, R_MAX),
    st.one_of(st.sampled_from([0.0, 1e-9, 0.1, 0.5, 0.8, 0.9, 1 - 1e-9]), st.floats(0.0, 1.0, exclude_max=True)),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_denominator_is_lowest_at_a_window_end(m, alpha, r, loss, phi):
    # abar = 1 - (1 + x2)^2 tanh^2 r with 1 + x2 = l/2 - sqrt(1 - l) cos phi,
    # monotone in phi: its lowest value sits on a window end, which the
    # coarse pass always takes
    hot = np.abs(loss / 2 - math.sqrt(1 - loss) * np.cos(_GRID))
    assert hot.max() <= 1.0
    assert int(np.argmax(hot)) in (0, _GRID.size - 1)
    # |1 + x2| <= 1 at every phase, so abar >= 1 - tanh^2 r = sech^2 r, and
    # the moment kernel's denominator is sech^2 r at x = 0: neither comes near
    # DENOM_TOL on the declared domain. The kernels also invert its square
    # root, which is larger
    floor = (1.0 - 1e-12) / math.cosh(r) ** 2
    assert _reciprocal_constants(lambda: parity_signals(m, [alpha], [r], [loss], [phi])) >= floor
    assert _reciprocal_constants(lambda: moments._moment_kernel(ProbeParams(alpha, r, m))) >= floor
    assert 1.0 / math.cosh(R_MAX) ** 2 > 1e6 * DENOM_TOL


def _outcomes_or_error(search, m, alpha, r, loss):
    try:
        return _outcomes(search(m, alpha, r, loss))
    except ConsistencyError:
        return ConsistencyError


@pytest.mark.parametrize("denom_tol", [0.5, 0.7, 0.9])
def test_degenerate_denominator_as_in_full_scan(denom_tol, monkeypatch):
    # a raised floor puts the windows of the larger r below it; the coarse
    # pass holds both window ends, where the denominator is lowest, so the
    # search fails on exactly the rows the full scan fails on
    monkeypatch.setattr(parity, "DENOM_TOL", denom_tol)
    found = []
    for m in (0, 2):
        for r in (0.0, 0.3, 0.6, 0.8, 1.0, 1.5):
            got, want = (_outcomes_or_error(f, m, [1.5], [r], [0.1]) for f in (optimal_phases, optimal_phases_full_scan))
            assert got == want
            found.append(want)
    assert ConsistencyError in found and any(isinstance(x, list) for x in found)


def test_rows_without_a_finite_coarse_point_scan_the_whole_window(monkeypatch):
    # the vacuum has no signal: its coarse pass is all inf, so its fine pass
    # holds the other 900 grid points, and it ends in DegenerateSignal
    sizes = []
    signal = parity._signal
    monkeypatch.setattr(parity, "_signal", lambda phi, c: sizes.append(phi.size) or signal(phi, c))
    got = _outcomes(optimal_phases(0, [0.0], [0.0], [0.1]))
    assert sizes == [101, 900]
    assert got == _outcomes(optimal_phases_full_scan(0, [0.0], [0.0], [0.1])) == [DegenerateSignal]
