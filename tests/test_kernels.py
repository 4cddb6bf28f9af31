"""Closed-form kernels against the multivariate-jet construction (third route).

The production parity and moment kernels read the [t^m tau^m] coefficient
off a closed-form sum; `jet_reference` builds the same kernels as full
(t, tau, .) jets. The two must agree to 1e-12 guarded deviation.
"""

import numpy as np
import pytest
from jet_reference import moment_reference, parity_signal_reference
from parity_reference import signal_batch

from mzphase.moments import moment_set, nb_moment
from mzphase.states import ProbeParams

M_LIST = (0, 1, 2, 3, 6, 10)
PROBES = ((1.5, 0.6), (0.4, 1.3))
GRID = np.linspace(-1.5, 1.5, 1001)
# The reference costs batch * m^4; above m = 3 it runs on every 25th grid
# point only, against the same entries of the full batch-1001 evaluation.
REF_STRIDE = {6: 25, 10: 25}


def _guarded(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


@pytest.mark.parametrize("loss", [0.0, 0.25])
@pytest.mark.parametrize("m", M_LIST)
@pytest.mark.parametrize("alpha,r", PROBES)
def test_parity_kernel_matches_reference_batch_1(alpha, r, m, loss):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=loss)
    phis = np.array([0.37])
    got = signal_batch(p, phis)
    ref = parity_signal_reference(p, phis)
    for order in range(3):
        assert _guarded(got[order], ref[order].real) <= 1e-12


@pytest.mark.parametrize("loss", [0.0, 0.25])
@pytest.mark.parametrize("m", M_LIST)
def test_parity_kernel_matches_reference_batch_1001(m, loss):
    alpha, r = PROBES[0]
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=loss)
    got = signal_batch(p, GRID)
    assert all(g.shape == GRID.shape for g in got)
    stride = REF_STRIDE.get(m, 1)
    ref = parity_signal_reference(p, GRID[::stride])
    for order in range(3):
        assert _guarded(got[order][::stride], ref[order].real) <= 1e-12


@pytest.mark.parametrize("m", M_LIST)
@pytest.mark.parametrize("alpha,r", PROBES)
def test_moment_kernel_matches_reference(alpha, r, m):
    p = ProbeParams(alpha=alpha, r=r, m=m)
    for w in range(5):
        assert _guarded(nb_moment(p, w), moment_reference(p, w).real) <= 1e-12


@pytest.mark.parametrize("m", M_LIST)
def test_moment_set_equals_nb_moment(m):
    p = ProbeParams(alpha=1.2, r=0.8, m=m, loss=0.3)
    ms = moment_set(p)
    assert (ms.m1, ms.m2, ms.m3, ms.m4) == tuple(nb_moment(p, w) for w in (1, 2, 3, 4))
