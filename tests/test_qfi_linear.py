"""Linear-phase QFI: ideal and lossy closed forms against the operator route."""

import itertools
import math

import numpy as np
import pytest

from mzphase.errors import ParamOutOfRange
from mzphase.moments import MomentSet, moment_set
from mzphase.oracle import loss_weight_table, probe_marginal
from mzphase.qfi_linear import (
    benchmark_limits,
    qfi_ideal_linear,
    qfi_lossy_linear,
    qfi_lossy_numeric_check,
)
from mzphase.states import ProbeParams
from oracle_reference import (
    GRID_ALPHA,
    GRID_LOSS,
    GRID_M,
    GRID_R,
    KrausFamily,
    grid_marginal,
    numeric_check_reference,
)


def synthetic_moments(m1, var_n):
    # only m1 and var_n feed the linear bound; pad the rest consistently
    m2 = var_n + m1 * m1
    return MomentSet(m1=m1, m2=m2, m3=0.0, m4=0.0, var_n=var_n, var_n2=0.0)


def test_worked_example_eight_thirds():
    ms = synthetic_moments(m1=1.0, var_n=2.0)
    res = qfi_lossy_linear(ms, loss=0.5)
    assert res.fq == pytest.approx(8.0 / 3.0, rel=0, abs=1e-15)


def test_qcrb_is_inverse_root_fisher():
    for alpha, r, m, l in [(2.0, 0.5, 0, 0.1), (1.0, 1.0, 2, 0.3), (0.0, 0.8, 1, 0.0)]:
        ms = moment_set(ProbeParams(alpha=alpha, r=r, m=m, loss=l))
        res = qfi_lossy_linear(ms, l)
        assert res.qcrb * math.sqrt(res.fq) == pytest.approx(1.0, abs=1e-12)


def test_zero_loss_reduces_to_ideal_exactly():
    ms = moment_set(ProbeParams(alpha=1.5, r=0.7, m=2))
    ideal = qfi_ideal_linear(ms)
    lossy = qfi_lossy_linear(ms, 0.0)
    assert lossy.fq == ideal.fq
    assert ideal.fq == pytest.approx(4.0 * ms.var_n, rel=0, abs=0)


def test_vacuum_probe_is_degenerate():
    ms = moment_set(ProbeParams(alpha=0.0, r=0.0, m=0))
    res = qfi_lossy_linear(ms, 0.2)
    assert res.fq == 0.0
    assert res.qcrb == math.inf


FROZEN_LOSSY = [
    (2.0, 0.5, 0, 0.1, 13.130879556278684),
    (2.0, 0.5, 2, 0.3, 23.505212568855082),
    (0.0, 1.0, 3, 0.1, 48.59501065207341),
    (1.0, 1.0, 1, 0.3, 17.954442936221902),
]


@pytest.mark.parametrize("alpha,r,m,l,expected", FROZEN_LOSSY)
def test_lossy_values_frozen(alpha, r, m, l, expected):
    ms = moment_set(ProbeParams(alpha=alpha, r=r, m=m, loss=l))
    assert qfi_lossy_linear(ms, l).fq == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha,r,m,l,expected", FROZEN_LOSSY)
def test_closed_form_matches_operator_minimum(alpha, r, m, l, expected):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=l)
    ms = moment_set(p)
    closed = qfi_lossy_linear(ms, l).fq
    numeric = qfi_lossy_numeric_check(p)
    assert closed == pytest.approx(numeric, rel=1e-6)


def test_numeric_check_extends_bracket_past_scan():
    # strong squeezing at small loss puts the optimal gamma near 2.68, right
    # of the [-2, 2] scan; the edge push has to find it
    p = ProbeParams(alpha=0.0, r=1.2, m=0, loss=0.01)
    numeric = qfi_lossy_numeric_check(p)
    table = loss_weight_table(probe_marginal(p, weight=2), p.loss)
    at_edge = KrausFamily("linear", p.loss, gamma=2.0).cq(table)
    assert at_edge > numeric * (1 + 5e-4)
    closed = qfi_lossy_linear(moment_set(p), p.loss).fq
    assert abs(numeric - closed) <= 1e-9 * closed


def _grid_probes(losses=GRID_LOSS):
    for alpha, r, m, loss in itertools.product(GRID_ALPHA, GRID_R, GRID_M, losses):
        yield ProbeParams(alpha=alpha, r=r, m=m, loss=loss), loss_weight_table(grid_marginal(alpha, r, m), loss)


def test_numeric_check_matches_scan_and_golden_section():
    for p, table in _grid_probes():
        got = qfi_lossy_numeric_check(p)
        want = numeric_check_reference(table, p.loss)
        assert abs(got - want) <= 1e-12 * abs(want), p


def test_numeric_check_without_loss_is_four_weighted_variances():
    for p, table in _grid_probes(losses=(0.0,)):
        # every branch keeps its photons, so g = n whatever gamma is
        assert not table.lost.any()
        assert qfi_lossy_numeric_check(p) == KrausFamily("linear", 0.0).cq(table)


def test_numeric_check_is_the_vertex_minimum():
    for p, table in _grid_probes(losses=GRID_LOSS[1:]):
        w, n, j = table.weight, table.survived, table.lost
        if not j.any():
            continue  # vacuum: no photon to lose, C_Q is flat in gamma
        got = qfi_lossy_numeric_check(p)
        wn, wj = np.dot(w, n), np.dot(w, j)
        vertex = (np.dot(w, n * j) - wn * wj) / (np.dot(w, j * j) - wj * wj)
        for gamma in (vertex - 1e-3, vertex, vertex + 1e-3):
            at = KrausFamily("linear", p.loss, gamma=gamma).cq(table)
            assert got <= at + 1e-12 * abs(at), (p, gamma)


def test_loss_range_validated():
    ms = moment_set(ProbeParams(alpha=1.0, r=0.5, m=0))
    with pytest.raises(ParamOutOfRange):
        qfi_lossy_linear(ms, 1.0)
    with pytest.raises(ParamOutOfRange):
        qfi_lossy_linear(ms, -0.1)


def test_benchmark_limits_at_eight():
    lim = benchmark_limits(8.0)
    assert lim.sql == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-15)
    assert lim.heisenberg == pytest.approx(0.125, rel=0, abs=0)
    assert lim.sub_heisenberg == pytest.approx(8.0**-1.5, rel=1e-15)
    assert lim.super_heisenberg == pytest.approx(8.0**-2, rel=0, abs=0)
    with pytest.raises(ParamOutOfRange):
        benchmark_limits(0.0)
