"""Moment kernel against closed forms and the brute-force engine."""

import math

import numpy as np
import pytest

from mzphase.errors import ParamOutOfRange
from mzphase.moments import MomentSet, moment_set, nb_moment
from mzphase.oracle import moments_oracle
from mzphase.states import ProbeParams


def poisson_reference(nbar: float) -> MomentSet:
    """Moments of a Poisson count with the given mean (closed forms)."""
    m1 = nbar
    m2 = nbar + nbar**2
    m3 = nbar + 3 * nbar**2 + nbar**3
    m4 = nbar + 7 * nbar**2 + 6 * nbar**3 + nbar**4
    return MomentSet(m1, m2, m3, m4, m2 - m1 * m1, m4 - m2 * m2)


def test_normalization_order_zero():
    for kwargs in (dict(alpha=0.0, r=0.0, m=0), dict(alpha=1.7, r=0.9, m=3)):
        assert nb_moment(ProbeParams(**kwargs), 0) == pytest.approx(1.0, abs=1e-12)


def test_split_squeezed_vacuum_mean():
    # a balanced splitter sends half the squeezed photons into the probe arm
    for r in (0.0, 0.5, 1.0, 2.0):
        p = ProbeParams(alpha=0.0, r=r, m=0)
        assert nb_moment(p, 1) == pytest.approx(math.sinh(r) ** 2 / 2, abs=1e-12)


def test_split_single_photon_is_fair_coin():
    p = ProbeParams(alpha=0.0, r=0.0, m=1)
    assert nb_moment(p, 1) == pytest.approx(0.5, abs=1e-12)
    # Bernoulli(1/2): every power has the same mean
    for w in (2, 3, 4):
        assert nb_moment(p, w) == pytest.approx(0.5, abs=1e-12)


def test_pure_coherent_input_gives_poisson_moments():
    # splitting |alpha> x |0> leaves a Poisson count with half the intensity
    alpha = 1.9
    p = ProbeParams(alpha=alpha, r=0.0, m=0)
    want = poisson_reference(alpha**2 / 2)
    assert nb_moment(p, 1) == pytest.approx(want.m1, rel=1e-10)
    assert nb_moment(p, 2) == pytest.approx(want.m2, rel=1e-10)
    assert nb_moment(p, 3) == pytest.approx(want.m3, rel=1e-10)
    assert nb_moment(p, 4) == pytest.approx(want.m4, rel=1e-10)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=1.0, r=0.5, m=1),
        dict(alpha=2.0, r=1.0, m=3),
        dict(alpha=0.0, r=1.0, m=4),
        dict(alpha=2.0, r=0.25, m=2),
    ],
)
def test_matches_bruteforce_engine(kwargs):
    p = ProbeParams(**kwargs)
    for w in (1, 2, 3, 4):
        a, o = nb_moment(p, w), moments_oracle(p, w)
        assert abs(a - o) <= 1e-8 * max(1.0, abs(o))


def test_moment_set_is_consistent_distribution():
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = ProbeParams(
            alpha=float(rng.uniform(0, 2.5)),
            r=float(rng.uniform(0, 1.5)),
            m=int(rng.integers(0, 5)),
        )
        ms = moment_set(p)
        assert ms.m1 >= 0
        assert ms.var_n >= 0
        assert ms.var_n2 >= 0
        # Cauchy-Schwarz on the counts: m2 <= sqrt(m4 * m0) etc. hold via PSD,
        # spot-check the simplest one
        assert ms.m2 * ms.m2 <= ms.m4 * 1.0000000001 + 1e-9


def test_moment_order_validation():
    p = ProbeParams(1.0, 0.5, 1)
    with pytest.raises(ParamOutOfRange):
        nb_moment(p, 5)
    with pytest.raises(ParamOutOfRange):
        nb_moment(p, -1)
    with pytest.raises(ParamOutOfRange):
        nb_moment(p, 2.0)
