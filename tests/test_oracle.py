"""Operator-level reference engine: splitters, loss, phase, and C_Q tables."""

import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from mzphase import oracle, sweep
from mzphase.errors import ConsistencyError, CutoffTooSmall, ParamOutOfRange, TraceDrift, UnitarityDrift
from mzphase.moments import moment_set
from mzphase.oracle import (
    SECTOR_LIMIT,
    _I_POW,
    _apply_bs_array,
    _bs_blocks,
    _next_block,
    _pasvs_probs,
    _prepared_after_first_splitter,
    default_cutoff,
    loss_weight_table,
    moments_oracle,
    parity_signal_oracle,
    probe_marginal,
)
from mzphase.parity import parity_expectation
from mzphase.qfi_kerr import kerr_mu_opt_numeric, qfi_lossy_kerr
from mzphase.qfi_linear import qfi_lossy_linear, qfi_lossy_numeric_check
from mzphase.states import ProbeParams
from mzphase.sweep import _guarded_dev, parse_config, run_sweep
import oracle_reference
from oracle_reference import (
    GRID_ALPHA,
    GRID_LOSS,
    GRID_M,
    GRID_R,
    DensityGrid,
    KrausFamily,
    _sector_mass_check,
    apply_beam_splitter,
    apply_bs_array_reference,
    apply_bs_reference,
    apply_loss_channel,
    apply_phase,
    bs_block_reference,
    bs_rotation_reference,
    default_cutoff_reference,
    grid_marginal,
    input_grid,
    loss_weight_table_reference,
    parity_expectation_oracle,
    parity_signal_reference,
    pasvs_probs_reference,
    prepared_after_first_splitter_reference,
)


def kraus_operator(fam: KrausFamily, j: int, nmax: int, phi: float = 0.0) -> np.ndarray:
    """Dense single-mode matrix of branch j on Fock levels 0..nmax."""
    out = np.zeros((nmax + 1, nmax + 1), dtype=np.complex128)
    if fam.loss == 0.0 and j > 0:
        return out
    eta = 1.0 - fam.loss
    for k in range(j, nmax + 1):
        n = k - j
        logw = 0.5 * (
            j * math.log(fam.loss) if j else 0.0
        ) - 0.5 * gammaln(j + 1) + 0.5 * n * math.log(eta) + 0.5 * (
            gammaln(k + 1) - gammaln(n + 1)
        )
        out[n, k] = math.exp(logw) * np.exp(1j * phi * fam.generator(n, j))
    return out


def completeness_defect(fam: KrausFamily, nmax: int) -> float:
    """max-entry deviation of sum_j K_j^dag K_j from the identity."""
    acc = np.zeros((nmax + 1, nmax + 1), dtype=np.complex128)
    for j in range(nmax + 1):
        op = kraus_operator(fam, j, nmax)
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - np.eye(nmax + 1))))


def density_matrix(rho: DensityGrid) -> np.ndarray:
    """Dense density matrix in the flattened (n_a major) basis.

    Only for small cutoffs; the dense form is quadratic in grid size.
    """
    if rho.cutoff > 40:
        raise ParamOutOfRange(
            f"dense density matrix limited to cutoff <= 40, got {rho.cutoff}"
        )
    d = (rho.cutoff + 1) ** 2
    mat = np.zeros((d, d), dtype=np.complex128)
    for b in rho.branches:
        v = b.ravel()
        mat += np.outer(v, v.conj())
    return mat


def grid_with(cutoff, entries):
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    for (na, nb), v in entries.items():
        amps[na, nb] = v
    return amps


def test_single_photon_split():
    st = apply_beam_splitter(grid_with(4, {(0, 1): 1.0}), "first")
    s = 1.0 / math.sqrt(2.0)
    assert st[0, 1] == pytest.approx(s, abs=1e-12)
    assert st[1, 0] == pytest.approx(-1j * s, abs=1e-12)
    assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)


def test_two_photon_coincidence_cancels():
    st = apply_beam_splitter(grid_with(4, {(1, 1): 1.0}), "first")
    assert abs(st[1, 1]) < 1e-12
    assert abs(st[0, 2]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(st[2, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_second_splitter_inverts_first():
    rng = np.random.default_rng(20240917)
    cutoff = 12
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    # random support on complete sectors only
    for total in range(cutoff + 1):
        for na in range(total + 1):
            amps[na, total - na] = rng.normal() + 1j * rng.normal()
    amps /= np.linalg.norm(amps)
    back = apply_beam_splitter(apply_beam_splitter(amps, "first"), "second")
    assert np.max(np.abs(back - amps)) < 1e-12


def test_sector_mass_check_threshold():
    cutoff = 6
    arr = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    arr[0, 0] = 1.0
    arr[2, 4] = arr[cutoff, 0] = 0.5  # total photons == cutoff: inside
    _sector_mass_check(arr, cutoff)
    arr[3, 4] = math.sqrt(0.5e-12)  # total 7: outside, below 1e-12 of the mass
    _sector_mass_check(arr, cutoff)
    arr[cutoff, cutoff] = 1e-5j  # the far corner
    with pytest.raises(CutoffTooSmall):
        _sector_mass_check(arr, cutoff)
    arr[cutoff, cutoff] = 0.0
    arr[3, 4] = math.sqrt(3e-12)
    with pytest.raises(CutoffTooSmall):
        _sector_mass_check(arr, cutoff)


def _nan_grid(at, value=np.nan):
    st = grid_with(4, {(0, 0): 0.6, (1, 2): 0.8})
    st[at] = value
    return st


@pytest.mark.parametrize("at", [(2, 1), (4, 4)])  # inside the sectors, and in the corner
def test_sector_mass_check_rejects_nan(at):
    # a non-finite amplitude is its own error, not a cutoff that is too small
    for value in (np.nan, np.inf):
        with pytest.raises(ConsistencyError, match="non-finite"):
            _sector_mass_check(_nan_grid(at, value), 4)
        with pytest.raises(ConsistencyError, match="non-finite"):
            apply_beam_splitter(_nan_grid(at, value), "first")


@pytest.mark.parametrize("mixed", [False, True])
def test_splitter_drift_check_rejects_nan(monkeypatch, mixed):
    # past the sector check, a NaN amplitude must still stop the splitter
    monkeypatch.setattr(oracle_reference, "_sector_mass_check", lambda arr, cutoff: None)
    st = _nan_grid((2, 1))
    if mixed:
        st = DensityGrid(4, [grid_with(4, {(0, 1): 0.6}), st])
    with pytest.raises(UnitarityDrift, match="trace" if mixed else "norm"):
        apply_beam_splitter(st, "second")


def test_loss_trace_check_rejects_nan():
    with pytest.raises(TraceDrift):
        apply_loss_channel(_nan_grid((2, 1)), 0.3)
    with pytest.raises(TraceDrift):
        apply_loss_channel(DensityGrid(4, [_nan_grid((1, 2))]), 0.3)


@pytest.mark.parametrize("alpha,r,m", [(0.0, 0.7, 2), (1.9, 1.0, 3), (3.0, 0.3, 0)])
def test_masked_clip_matches_fill_diagonal_clip(alpha, r, m):
    p = ProbeParams(alpha=alpha, r=r, m=m)
    for nc in (default_cutoff(p), default_cutoff(p, weight=4)):
        got = _prepared_after_first_splitter(p, nc)
        want = prepared_after_first_splitter_reference(p, nc)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_prepared_state_rejects_non_finite_amplitude(monkeypatch, value):
    # the corner clip passes a NaN norm, so the guard after it must stop it
    amplitudes = oracle.coherent_fock_amplitudes

    def broken(alpha, cutoff):
        out = amplitudes(alpha, cutoff).copy()
        out[2] = value
        return out

    monkeypatch.setattr(oracle, "coherent_fock_amplitudes", broken)
    p = ProbeParams(alpha=1.0, r=0.5, m=1)
    with np.errstate(invalid="ignore"), pytest.raises(ConsistencyError, match="non-finite"):
        _prepared_after_first_splitter(p, default_cutoff(p))


def test_splitter_rejects_incomplete_sector_mass():
    st = grid_with(3, {(3, 3): 1.0})
    with pytest.raises(CutoffTooSmall):
        apply_beam_splitter(st, "first")
    with pytest.raises(ParamOutOfRange):
        apply_beam_splitter(grid_with(3, {(0, 1): 1.0}), "sideways")


@pytest.mark.parametrize("kind", ["linear", "kerr"])
@pytest.mark.parametrize("loss", [0.0, 0.1, 0.5, 0.9])
def test_kraus_completeness(kind, loss):
    fam = KrausFamily(kind, loss, gamma=-0.7, mu1=-0.5, mu2=-0.3)
    assert completeness_defect(fam, 25) < 1e-9


def test_kraus_family_validation():
    with pytest.raises(ParamOutOfRange):
        KrausFamily("cubic", 0.1)
    with pytest.raises(ParamOutOfRange):
        KrausFamily("linear", 1.0)


def test_loss_on_single_photon():
    l = 0.3
    rho = apply_loss_channel(grid_with(3, {(0, 1): 1.0}), l)
    marg = rho.b_marginal()
    assert marg[0] == pytest.approx(l, abs=1e-14)
    assert marg[1] == pytest.approx(1.0 - l, abs=1e-14)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_loss_keeps_coherent_state_coherent():
    from mzphase.states import coherent_fock_amplitudes

    beta, l = 1.3, 0.4
    cutoff = 31
    cb = coherent_fock_amplitudes(beta, cutoff)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    amps[0, :] = cb
    rho = apply_loss_channel(amps, l)
    want = np.abs(coherent_fock_amplitudes(beta * math.sqrt(1 - l), cutoff)) ** 2
    assert np.max(np.abs(rho.b_marginal() - want)) < 1e-10


def test_density_matrix_is_physical():
    p = ProbeParams(alpha=1.0, r=0.4, m=1, loss=0.2)
    st = input_grid(p, 32)
    st = st / np.linalg.norm(st)
    rho = apply_loss_channel(st, p.loss)
    mat = density_matrix(rho)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    assert np.trace(mat).real == pytest.approx(rho.trace(), abs=1e-12)
    assert np.trace(mat).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(mat).min() > -1e-9


def test_dense_matrix_refuses_large_cutoff():
    with pytest.raises(ParamOutOfRange):
        density_matrix(DensityGrid(41, []))


def test_phase_roundtrip_and_kinds():
    st = grid_with(4, {(0, 1): 0.6, (1, 0): 0.8})
    back = apply_phase(apply_phase(st, 0.37, "linear"), -0.37, "linear")
    assert np.max(np.abs(back - st)) < 1e-15
    lin = apply_phase(grid_with(4, {(0, 2): 1.0}), 0.5, "linear")
    ker = apply_phase(grid_with(4, {(0, 2): 1.0}), 0.5, "kerr")
    assert lin[0, 2] == pytest.approx(np.exp(1j), abs=1e-15)
    assert ker[0, 2] == pytest.approx(np.exp(2j), abs=1e-15)
    with pytest.raises(ParamOutOfRange):
        apply_phase(st, 0.1, "cubic")


@pytest.mark.parametrize("alpha,r,m", [(1.0, 3.0, 2), (1.0, 2.0, 2), (1.0, 2.5, 3), (0.0, 2.0, 0), (3.0, 2.0, 6)])
def test_default_cutoff_takes_the_whole_tail_at_large_r(monkeypatch, alpha, r, m):
    # at even m the squeezed arm fills only even levels, so the last level of
    # an even length is exactly 0; the length search must not stop on it
    monkeypatch.setattr(oracle, "SECTOR_LIMIT", 16384)
    p = ProbeParams(alpha=alpha, r=r, m=m)
    for weight in (0, 2):
        assert default_cutoff(p, weight=weight) == default_cutoff_reference(p, weight)


def test_default_cutoff_policy():
    p = ProbeParams(alpha=2.0, r=0.5, m=2)
    c0 = default_cutoff(p)
    c4 = default_cutoff(p, weight=4)
    assert c0 % 8 == 0 and c0 >= p.m + 2
    assert c4 >= c0  # heavier tail weighting never shrinks the grid


@pytest.mark.parametrize(
    "alpha,r,m,l,phi",
    [(1.0, 0.5, 1, 0.0, 0.3), (2.0, 0.5, 2, 0.2, 0.7)],
)
def test_parity_oracle_converged_in_cutoff(alpha, r, m, l, phi):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=l, phi=phi)
    base = default_cutoff(p)
    v1 = parity_expectation_oracle(p, cutoff=base)
    v2 = parity_expectation_oracle(p, cutoff=2 * base)
    assert abs(v1 - v2) < 1e-9


def test_moments_oracle_converged_in_cutoff():
    p = ProbeParams(alpha=1.5, r=0.6, m=2)
    base = default_cutoff(p, weight=4)
    for w in (1, 4):
        v1 = moments_oracle(p, w, cutoff=base)
        v2 = moments_oracle(p, w, cutoff=2 * base)
        assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v2))


@pytest.mark.parametrize(
    "alpha,r,m,l,phi",
    [(2.0, 0.5, 1, 0.0, 0.3), (1.0, 1.0, 3, 0.3, 0.7), (2.0, 1.0, 0, 0.3, 0.0)],
)
def test_parity_signal_derivatives_match_analytic(alpha, r, m, l, phi):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=l, phi=phi)
    f, d1, d2 = parity_signal_oracle(p)
    sig = parity_expectation(p)
    assert f == pytest.approx(sig.value, abs=1e-9)
    assert d1 == pytest.approx(sig.dvalue, abs=1e-9)
    assert d2 == pytest.approx(sig.ddvalue, abs=1e-9)


# an (r, m, loss) grid at alpha 1.9, and corners of larger alpha, r and m
PER_BRANCH_CASES = [
    pytest.param(1.9, r, m, loss, id=f"{r}-{m}-{loss}")
    for r, m, loss in itertools.product((0.3, 0.65, 1.0), (0, 3), (0.0, 0.21, 0.6, 0.9))
] + [
    pytest.param(alpha, r, m, loss, id=f"alpha{alpha}-{r}-{m}-{loss}")
    for alpha, r, m, loss in ((3.0, 1.2, 6, 0.9), (3.0, 1.2, 6, 0.21), (0.5, 1.2, 6, 0.6))
]


@pytest.mark.parametrize("alpha,r,m,loss", PER_BRANCH_CASES)
def test_parity_signal_matches_per_branch_reference(alpha, r, m, loss):
    p = ProbeParams(alpha=alpha, r=r, m=m, loss=loss, phi=0.37)
    nc = default_cutoff(p, weight=2)
    got = parity_signal_oracle(p, cutoff=nc)
    want = parity_signal_reference(p, cutoff=nc)
    assert max(_guarded_dev(g, w) for g, w in zip(got, want)) <= 1e-13


def _unitary_block(total: int) -> np.ndarray:
    """S R S^H, S = diag(i^n_a): the complex block of the stored rotation R."""
    s = _I_POW[np.arange(total + 1) % 4]
    return s[:, None] * _bs_blocks(160)[total] * s.conj()[None, :]


def test_rotation_blocks_match_complex_blocks():
    for total in range(161):
        assert np.max(np.abs(_unitary_block(total) - bs_block_reference(total))) <= 1e-13, total


def test_parity_behind_splitter_is_signed_exchange():
    # with the second splitter conj(U), conj(U)^H (-1)^n_b conj(U) maps
    # |n_a, n_b> to i^(n_b - n_a) |n_b, n_a>: parity_signal_oracle rests on it
    for total in range(161):
        u = _unitary_block(total).conj()
        na = np.arange(total + 1)
        parity = np.where((total - na) % 2 == 0, 1.0, -1.0)
        dense = u.conj().T @ (parity[:, None] * u)
        want = np.zeros_like(dense)
        want[total - na, na] = np.array([1, 1j, -1, -1j])[(total - 2 * na) % 4]
        assert np.max(np.abs(dense - want)) <= 1e-12, total


def test_probe_marginal_shared_by_rows_that_differ_in_loss(monkeypatch):
    doc = {
        "schema_version": 1,
        "quantity": ["qfi_linear", "qfi_kerr"],
        "sweep": {"name": "r", "start": 0.3, "stop": 0.9, "count": 3},
        "fixed": {"alpha": 1.2},
        "loss": [0.0, 0.2],
        "m_list": [0, 2],
        "oracle_check": True,
        "oracle_stride": 1,
    }
    spec = parse_config(json.dumps(doc))
    prepared, built = oracle._prepared_after_first_splitter, []
    monkeypatch.setattr(
        oracle, "_prepared_after_first_splitter", lambda p, nc: built.append((p, nc)) or prepared(p, nc)
    )
    oracle._probe_marginal.cache_clear()
    shared = run_sweep(spec).render()
    # one marginal per (alpha, r, m, weight): 3 r x 2 m x weights 2 and 4
    assert len(built) == 12
    assert not probe_marginal(ProbeParams(alpha=1.2, r=0.9, m=2), weight=4).flags.writeable

    compute_row = sweep._compute_row

    def uncached(*args):
        oracle._probe_marginal.cache_clear()
        return compute_row(*args)

    built.clear()
    monkeypatch.setattr(sweep, "_compute_row", uncached)
    assert run_sweep(spec).render() == shared
    assert len(built) == 24


@pytest.mark.parametrize("phase,minimum", [("kerr", "kerr_mu_opt_numeric"), ("linear", "qfi_lossy_numeric_check")])
def test_each_oracle_minimum_taken_once_per_row(monkeypatch, phase, minimum):
    # a row's qfi and qcrb oracle columns share one minimum, and print the
    # bytes they printed when each column took its own
    doc = {
        "schema_version": 1,
        "quantity": [f"qfi_{phase}", f"qcrb_{phase}"],
        "sweep": {"name": "r", "start": 0.3, "stop": 0.9, "count": 3},
        "fixed": {"alpha": 1.2},
        "loss": [0.0, 0.2],
        "m_list": [0, 2],
        "oracle_check": True,
        "oracle_stride": 2,
    }
    spec = parse_config(json.dumps(doc))
    calls, taken = [], getattr(sweep, minimum)
    monkeypatch.setattr(sweep, minimum, lambda p: calls.append(p) or taken(p))
    once = run_sweep(spec).render()
    assert len(calls) == 6  # 12 rows, every other one checked
    value = sweep._oracle_value
    monkeypatch.setattr(sweep, "_oracle_value", lambda q, p, fock=None, minima=None: value(q, p, fock))
    calls.clear()
    assert run_sweep(spec).render() == once
    assert len(calls) == 12


def test_kerr_oracle_column_does_not_read_the_moment_set(monkeypatch):
    # the oracle's Kerr bound is its own minimum over (mu1, mu2): moments
    # moved by 1% move the analytic column and leave the oracle's alone
    doc = {
        "schema_version": 1,
        "quantity": ["qfi_kerr"],
        "sweep": {"name": "r", "start": 0.3, "stop": 0.9, "count": 3},
        "fixed": {"alpha": 1.2},
        "loss": [0.0, 0.2, 0.6],
        "m_list": [0, 2],
        "oracle_check": True,
        "oracle_stride": 1,
    }
    spec = parse_config(json.dumps(doc))
    plain = run_sweep(spec)
    moments = sweep.moment_set

    def perturbed(p):
        ms = moments(p)
        return replace(ms, m3=ms.m3 * 1.01, m4=ms.m4 * 1.01)

    monkeypatch.setattr(sweep, "moment_set", perturbed)
    moved = run_sweep(spec)
    value, check, loss = (plain.header.index(name) for name in ("qfi_kerr", "oracle_qfi_kerr", "l"))
    assert [row[check] for row in moved.rows] == [row[check] for row in plain.rows]
    lossy = [i for i, row in enumerate(plain.rows) if float(row[loss]) > 0]
    assert all(moved.rows[i][value] != plain.rows[i][value] for i in lossy)


@pytest.mark.parametrize("second", [False, True])
def test_stacked_splitter_matches_one_grid_at_a_time(second):
    # random entries everywhere, so the corner outside the sectors is covered;
    # the second splitter conj(U) is the first under complex conjugation
    flip = np.conjugate if second else np.asarray
    rng = np.random.default_rng(7)
    cutoff = 16
    stack = rng.normal(size=(5, cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(5, cutoff + 1, cutoff + 1))
    got = flip(_apply_bs_array(np.array(flip(stack), order="C"), cutoff))
    for g, grid in zip(got, stack):
        np.testing.assert_allclose(g, flip(_apply_bs_array(np.array(flip(grid), order="C"), cutoff)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(g, apply_bs_reference(grid, cutoff, second), rtol=0, atol=1e-13)


def test_splitter_acts_in_place_on_c_ordered_complex_grids_only():
    rng = np.random.default_rng(5)
    cutoff = 16
    grid = rng.normal(size=(cutoff + 1, cutoff + 1)) + 1j * rng.normal(size=(cutoff + 1, cutoff + 1))
    want = apply_bs_array_reference(grid, cutoff)
    owned = grid.copy()
    assert _apply_bs_array(owned, cutoff) is owned
    assert owned.tobytes() == want.tobytes()
    # the flat view of any other layout would be a copy, and the scatter
    # would write into it and not into the grid
    for other in (np.asfortranarray(grid), grid.real, grid.astype(np.complex64)):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            _apply_bs_array(other, cutoff)


def test_splitter_layout_prefixes_match_per_call_layout(monkeypatch):
    # one layout, grown only when a larger cutoff comes, serves every smaller one
    monkeypatch.setattr(oracle, "_layout", oracle._build_layout(0))
    rng = np.random.default_rng(11)
    largest = 0
    for cutoff in (160, 8, 128, 24, 168):
        largest = max(largest, cutoff)
        d = cutoff + 1
        for shape in ((d, d), (3, d, d)):
            arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert _apply_bs_array(arr.copy(), cutoff).tobytes() == apply_bs_array_reference(arr, cutoff).tobytes()
        layout = oracle._layout
        assert layout.cutoff == largest
        assert layout.na.size == layout.nb.size == layout.s.size == (largest + 1) * (largest + 2) // 2
        assert layout.bounds == [k * (k + 1) // 2 for k in range(largest + 2)]


@pytest.fixture
def fresh_blocks(monkeypatch):
    """The block list as a fresh process starts it, [R_0], for one test: the
    blocks it builds are dropped after it, and no block list is cached."""
    monkeypatch.setattr(oracle, "_blocks", oracle._blocks[:1])
    _bs_blocks.cache_clear()
    yield
    _bs_blocks.cache_clear()


def test_splitter_blocks_match_the_eigh_reference():
    # blocks past 320 are walked one at a time, not kept: 0..600 would hold 553 MB
    blocks = _bs_blocks(320)
    rot = blocks[0]
    for total in range(SECTOR_LIMIT + 1):
        rot = blocks[total] if total < len(blocks) else _next_block(rot)
        if total <= 160 or total in (200, 320, SECTOR_LIMIT):
            assert rot.dtype == np.float64 and rot.shape == (total + 1, total + 1) and not rot.flags.writeable
            assert np.max(np.abs(rot - bs_rotation_reference(total))) <= 1e-13, total


def test_splitter_blocks_built_once_per_sector(fresh_blocks, monkeypatch):
    shared = _bs_blocks(160)
    built, next_block = [], oracle._next_block
    monkeypatch.setattr(oracle, "_next_block", lambda rot: built.append(rot.shape[0]) or next_block(rot))
    assert all(a is b for a, b in zip(_bs_blocks(136), shared)) and not built
    grown = _bs_blocks(168)
    assert built == list(range(161, 169))  # R_161..R_168, each from the one before it
    assert len(grown) == 169 and all(a is b for a, b in zip(grown, shared))


def test_larger_cutoff_moves_no_built_block(fresh_blocks):
    built = [(rot, rot.tobytes()) for rot in _bs_blocks(160)]
    blocks = _bs_blocks(320)
    assert len(blocks) == 321
    assert all(new is rot and new.tobytes() == data for (rot, data), new in zip(built, blocks))


def test_corrupted_block_stops_the_next_build(fresh_blocks, monkeypatch):
    bad = _bs_blocks(40)[40].copy()
    bad[3, 5] += 1e-8
    monkeypatch.setattr(oracle, "_blocks", oracle._blocks[:40] + [bad])
    _bs_blocks.cache_clear()
    with pytest.raises(UnitarityDrift, match="sector 41"):
        _bs_blocks(41)


def test_block_lists_count_cutoff_changes():
    _bs_blocks.cache_clear()
    for cutoff in (160, 320, 160, 168, 160):
        _bs_blocks(cutoff)
    info = _bs_blocks.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 2, 3)


def test_cutoff_past_the_limit_is_refused():
    p = ProbeParams(alpha=1.0, r=0.5, m=1, loss=0.1, phi=0.2)
    with pytest.raises(ParamOutOfRange, match="oracle limit"):
        parity_signal_oracle(p, cutoff=SECTOR_LIMIT + 1)
    parity_signal_oracle(p, cutoff=default_cutoff(p))


# A first oracle call under an address-space limit of the process's size
# after its imports plus 256 MB; the limit binds this child alone.
FIRST_CALL_UNDER_LIMIT = """
import resource
from mzphase.oracle import parity_signal_oracle
from mzphase.states import ProbeParams
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + 256 * 2**20, resource.getrlimit(resource.RLIMIT_AS)[1]))
print(parity_signal_oracle(ProbeParams(alpha=1.0, r=0.5, m=1, loss=0.1)))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmSize from /proc")
def test_first_oracle_call_needs_no_large_address_space():
    src = Path(oracle.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", FIRST_CALL_UNDER_LIMIT], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("(")


@pytest.mark.parametrize("lost,raises", [(1e-8, True), (1e-10, False)])
def test_loss_trace_drift_fires(monkeypatch, lost, raises):
    # a loss step whose branches miss part of the trace
    prefactors = oracle._kraus_prefactors

    def leaky(arr, l, total_in):
        prefs, cum = prefactors(arr, l, total_in)
        return prefs, cum * (1.0 - lost)

    monkeypatch.setattr(oracle, "_kraus_prefactors", leaky)
    p = ProbeParams(alpha=1.0, r=0.5, m=1, loss=0.3, phi=0.2)
    for call in (parity_signal_oracle, parity_expectation_oracle):
        if raises:
            with pytest.raises(TraceDrift):
                call(p)
        else:
            call(p)


def test_parity_signal_value_consistent_with_plain_oracle():
    p = ProbeParams(alpha=1.5, r=0.5, m=2, loss=0.1, phi=0.4)
    f, _, _ = parity_signal_oracle(p)
    assert f == pytest.approx(parity_expectation_oracle(p), abs=1e-12)


def test_cq_table_matches_direct_variance():
    # with gamma = 0 the linear generator is the surviving photon number,
    # so C_Q reduces to 4 Var(n_surv) under the binomial thinning
    p = ProbeParams(alpha=1.0, r=0.5, m=1, loss=0.3)
    marg = probe_marginal(p, weight=2)
    table = loss_weight_table(marg, p.loss)
    got = KrausFamily("linear", p.loss, gamma=0.0).cq(table)
    eta = 1.0 - p.loss
    n = np.arange(marg.size)
    mean_in = float(np.dot(marg, n))
    m2_in = float(np.dot(marg, n * n))
    mean = eta * mean_in
    second = eta**2 * (m2_in - mean_in) + eta * mean_in
    assert got == pytest.approx(4.0 * (second - mean**2), rel=1e-12)


def test_loss_weight_table_normalized():
    p = ProbeParams(alpha=1.0, r=0.5, m=1, loss=0.25)
    marg = probe_marginal(p, weight=2)
    table = loss_weight_table(marg, p.loss)
    assert float(np.sum(table.weight)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(table.survived + table.lost >= 0)


def test_loss_weight_table_matches_reference_loop():
    def check(marg, loss):
        got = loss_weight_table(marg, loss)
        want = loss_weight_table_reference(marg, loss)
        for name in ("survived", "lost", "weight"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (marg.size, loss, name)

    # every loss in turn: a fresh channel on each call
    for alpha, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M):
        for loss in GRID_LOSS:
            check(grid_marginal(alpha, r, m), loss)
    # one channel kept across calls: whatever the order of the cutoffs, each
    # table is the one built alone. Two marginals have zeros inside their
    # support: the photon-added squeezed vacuum fills every other level.
    margs = {grid_marginal(alpha, r, 2).size: grid_marginal(alpha, r, 2) for alpha in (0.5, 1.9) for r in GRID_R}
    margs = [margs[size] for size in sorted(margs)]
    holes = [_pasvs_probs(0.7, 1, 50), _pasvs_probs(1.0, 2, 90)]
    assert all(np.flatnonzero(h).size <= np.flatnonzero(h)[-1] for h in holes)
    for loss, other in ((0.21, 0.6), (0.05, 0.9)):
        oracle._loss_channel(other)
        for marg in margs[::-1] + holes:  # grown once, then read by prefix
            check(marg, loss)
        oracle._loss_channel(other)
        for marg in holes + margs:  # grown at each larger cutoff
            check(marg, loss)
        for marg in margs + holes:  # rebuilt on every call
            check(marg, loss)
            check(marg, other)
    assert loss_weight_table(np.zeros(5), 0.3).weight.size == 0


def _walk_every_branch(loss: float, size: int) -> list:
    """The `_kraus_prefactors` rows of a probe whose mass sits at n_b =
    size - 1: the branch stop then waits for the binomial tail of that
    whole sector."""
    arr = np.zeros((1, size), dtype=np.complex128)
    arr[0, -1] = 1.0
    prefs, cum = oracle._kraus_prefactors(arr, loss, 1.0)
    assert cum == pytest.approx(1.0, abs=1e-13)
    assert [pref.size for pref in prefs] == list(range(size, size - len(prefs), -1))
    return prefs


@pytest.mark.parametrize("loss", [0.01, 0.21, 0.9, 0.99])
def test_kraus_prefactors_are_roots_of_the_table_weights(loss):
    # each branch's prefactor row is np.sqrt of the loss weight table's
    # weights at lost = j, bit for bit, on every entry the table holds, at
    # sizes read from one channel grown size after size
    for size in [*range(8, 600, 37), 600]:
        table = loss_weight_table(np.ones(size), loss)
        grid = np.full((size, size), np.nan)  # grid[j, n]: the table's weight at lost j, survived n
        grid[table.lost.astype(int), table.survived.astype(int)] = table.weight
        for j, pref in enumerate(_walk_every_branch(loss, size)):
            held = ~np.isnan(grid[j, : size - j])
            assert held.any(), (size, j)
            assert pref[held].tobytes() == np.sqrt(grid[j, : size - j][held]).tobytes(), (size, j)


@pytest.mark.parametrize("size", [161, 601])
def test_loss_weights_match_exact_rationals(size):
    # w(j, n) = Binom(n + j, j) l^j eta^n, with l and eta = 1 - l the exact
    # values of their floats, rounded once: every table weight and every
    # squared prefactor of at least 1e-100 lies within 1e-14 of it, on 24
    # sectors spread evenly to the last
    sectors = [*range(0, size - 1, size // 23), size - 1]
    for loss in (0.01, 0.21, 0.5, 0.9, 0.99):
        lf, ef = Fraction(loss), Fraction(1.0 - loss)
        log_l, log_eta = math.log(loss), math.log1p(-loss)

        @lru_cache(maxsize=None)
        def exact(j, n):  # one correctly rounded division of exact integers
            num = math.comb(n + j, j) * lf.numerator**j * ef.numerator**n
            return num / (lf.denominator**j * ef.denominator**n)

        def check(got, j, n):
            # weights far below 1e-100 by their logarithm need no exact value
            if math.lgamma(n + j + 1) - math.lgamma(j + 1) - math.lgamma(n + 1) + j * log_l + n * log_eta < -240.0:
                return 0
            want = exact(j, n)
            if want >= 1e-100:
                assert abs(got - want) <= 1e-14 * want, (size, loss, j, n, got, want)
                return 1
            return 0

        table = loss_weight_table(np.ones(size), loss)
        at = np.isin(table.survived + table.lost, sectors)
        checked = 0
        for w, j, n in zip(table.weight[at].tolist(), table.lost[at].astype(int).tolist(), table.survived[at].astype(int).tolist()):
            checked += check(w, j, n)
        for j, pref in enumerate(_walk_every_branch(loss, size)):
            for k in sectors:
                if k >= j:
                    checked += check(float(pref[k - j]) ** 2, j, k - j)
        assert checked > 2 * len(sectors), (size, loss)


def test_high_loss_corner_keeps_the_table_mass():
    # at loss 0.99, eta^k is subnormal from sector 154 on, below the cutoffs
    # 392 and 440 of this probe's weight-2 and weight-4 marginals: walked from
    # eta^n over the survivors, the table keeps its mass, and the oracle
    # minima their closed forms
    p = ProbeParams(alpha=4.0, r=1.5, m=3, loss=0.99, phi=0.3)
    for weight in (2, 4):
        marg = probe_marginal(p, weight=weight)
        got = float(np.sum(loss_weight_table(marg, p.loss).weight))
        assert got == pytest.approx(float(np.sum(marg)), rel=1e-13), weight
    ms = moment_set(p)
    assert qfi_lossy_numeric_check(p) == pytest.approx(qfi_lossy_linear(ms, p.loss).fq, rel=1e-10)
    assert kerr_mu_opt_numeric(p)[0] == pytest.approx(qfi_lossy_kerr(ms, p.loss).fq, rel=1e-10)
    sig = parity_expectation(p)
    got = parity_signal_oracle(p, cutoff=default_cutoff(p, weight=2))
    for a, want in zip(got, (sig.value, sig.dvalue, sig.ddvalue)):
        assert _guarded_dev(a, want) <= 1e-12


def test_loss_weight_table_at_loss_zero_is_the_marginal():
    for alpha, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M):
        marg = grid_marginal(alpha, r, m)
        ks = np.flatnonzero(marg)
        got = loss_weight_table(marg, 0.0)
        want = (ks.astype(float), np.zeros(ks.size), marg[ks] * 1.0)
        for a, b in zip((got.survived, got.lost, got.weight), want):
            assert a.dtype == b.dtype == np.float64
            assert a.shape == b.shape and np.all(a == b), (alpha, r, m)


def test_default_cutoff_matches_full_length_rule():
    # the support floor and the shorter convolution pick the cutoff the whole
    # 1024-level distributions pick: on the equality grid, the probes of the
    # benchmark's cross-check workload and seeded probes up to alpha 4, r 1.5
    # and m 10
    grid = list(itertools.product(GRID_ALPHA, GRID_R, GRID_M))
    xcheck = list(itertools.product((1.6, 1.7, 1.8, 1.9), np.linspace(0.3, 1.0, 6).tolist(), range(4)))
    rng = np.random.default_rng(2024)
    seeded = zip(rng.uniform(0.0, 4.0, 400).tolist(), rng.uniform(0.0, 1.5, 400).tolist(), rng.integers(0, 11, 400).tolist())
    for alpha, r, m in grid + xcheck + list(seeded):
        p = ProbeParams(alpha=alpha, r=r, m=m)
        for weight in (0, 2, 4):
            assert default_cutoff(p, weight=weight) == default_cutoff_reference(p, weight, length=1024), (p, weight)


def test_default_cutoff_matches_reference_loop(monkeypatch):
    probes = [ProbeParams(alpha=a, r=r, m=m) for a, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M)]
    for p in probes:
        got, want = _pasvs_probs(p.r, p.m, 1024), pasvs_probs_reference(p.r, p.m, 1024)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    cutoffs = [default_cutoff(p, weight=w) for p in probes for w in (0, 2, 4)]
    monkeypatch.setattr(oracle, "_pasvs_probs", pasvs_probs_reference)
    assert cutoffs == [default_cutoff(p, weight=w) for p in probes for w in (0, 2, 4)]
