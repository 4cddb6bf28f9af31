"""Acceptance gate: one check per release criterion, one summary line each.

Each test prints "acceptance NN <name>: PASS/FAIL (...)" through the report
fixture so the full run ends with a readable scoreboard.  Tolerances are the
release thresholds, not the (much tighter) deviations actually measured.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mzphase.errors import DegenerateSignal, SingularNormalEquations
from mzphase.moments import moment_set, nb_moment
from mzphase.oracle import moments_oracle
from mzphase.parity import classical_fisher, optimal_phase, parity_expectation
from mzphase.qfi_kerr import (
    kerr_cq,
    kerr_mu_opt_numeric,
    qfi_ideal_kerr,
    qfi_lossy_kerr,
)
from mzphase.qfi_linear import (
    benchmark_limits,
    qfi_ideal_linear,
    qfi_lossy_linear,
    qfi_lossy_numeric_check,
)
from mzphase.states import ProbeParams, solve_r_for_energy
from mzphase.sweep import figure_preset, run_sweep
from oracle_reference import kerr_cq_numeric, kerr_gradient_check, parity_expectation_oracle

_T0 = time.perf_counter()

GRID_ALPHA = (0.0, 1.0, 2.0)
GRID_R = (0.0, 0.5, 1.0)
GRID_M = (0, 1, 2, 3)
GRID_L = (0.0, 0.1, 0.3)
GRID_PHI = (0.0, 0.15, 0.7, 1.4)
LOSSY_L = (0.1, 0.3)

MU_POINTS = ((0.0, 0.0), (-1.0, -1.0), (-0.5, -0.3))

# representative probes for the bounded-minimization cross-check; spans both
# interior and out-of-seed-box optima
MU_OPT_PROBES = (
    (2.0, 0.5, 1, 0.1),
    (1.0, 0.5, 2, 0.3),
    (2.0, 0.0, 0, 0.5),
    (0.0, 1.0, 3, 0.1),
    (1.0, 1.0, 0, 0.1),
)

ALL_PANELS = tuple((n, p) for n in (2, 3, 4, 5, 7, 8, 9, 10, 11) for p in ("a", "b")) + ((12, "a"),)


def _probe(alpha, r, m, l=0.0, phi=0.0):
    return ProbeParams(alpha=alpha, r=r, m=m, loss=l, phi=phi)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def energy_matched():
    # alpha=2 fixed, r solved per m so the squeezed arm carries 4 photons
    # and the total input energy is 8
    return {m: solve_r_for_energy(m, 4.0) for m in GRID_M}


def test_parity_engines_agree_on_grid(report):
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    for alpha, r, m, l, phi in itertools.product(GRID_ALPHA, GRID_R, GRID_M, GRID_L, GRID_PHI):
        p = _probe(alpha, r, m, l, phi)
        dev = abs(parity_expectation(p).value - parity_expectation_oracle(p))
        worst = max(worst, dev)
        n += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120.0
    report(
        f"acceptance 01 parity dual-engine: {'PASS' if ok else 'FAIL'} "
        f"({n} points, max dev {worst:.2e} < 1e-8, {elapsed:.1f} s < 120 s)"
    )
    assert worst < 1e-8
    assert elapsed < 120.0


def test_moment_engines_agree_on_grid(report):
    worst = 0.0
    for alpha, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M):
        p = _probe(alpha, r, m)
        for w in (1, 2, 3, 4):
            a = nb_moment(p, w)
            o = moments_oracle(p, w)
            worst = max(worst, abs(a - o) / max(abs(a), abs(o), 1e-300))
    ok = worst < 1e-8
    report(f"acceptance 02 moment dual-engine: {'PASS' if ok else 'FAIL'} (max rel dev {worst:.2e} < 1e-8)")
    assert ok


def test_parity_sign_at_zero_phase(report):
    worst = 0.0
    for alpha, r in itertools.product(GRID_ALPHA, GRID_R):
        for m in range(6):
            val = parity_expectation(_probe(alpha, r, m)).value
            worst = max(worst, abs(val - (-1.0) ** m))
    ok = worst < 1e-10
    report(f"acceptance 03 parity sign at zero phase: {'PASS' if ok else 'FAIL'} (max dev {worst:.2e} < 1e-10)")
    assert ok


def test_linear_lossy_bound_matches_operator_minimum(report):
    worst = 0.0
    for alpha, r, m, l in itertools.product(GRID_ALPHA, GRID_R, GRID_M, LOSSY_L):
        p = _probe(alpha, r, m, l)
        closed = qfi_lossy_linear(moment_set(p), l).fq
        numeric = qfi_lossy_numeric_check(p)
        if closed <= 1e-12 and numeric <= 1e-9:
            continue  # zero-information probe, both engines agree on 0
        worst = max(worst, abs(closed - numeric) / max(closed, numeric))
    ok = worst < 1e-6
    report(
        f"acceptance 04 linear bound vs operator minimum: {'PASS' if ok else 'FAIL'} "
        f"(max rel dev {worst:.2e} < 1e-6)"
    )
    assert ok


def test_kerr_bound_matches_operator_and_optimum(report):
    worst_fixed = 0.0
    for alpha, r, m, l in itertools.product(GRID_ALPHA, GRID_R, GRID_M, LOSSY_L):
        p = _probe(alpha, r, m, l)
        ms = moment_set(p)
        for mu1, mu2 in MU_POINTS:
            worst_fixed = max(worst_fixed, _rel(kerr_cq(ms, l, mu1, mu2), kerr_cq_numeric(p, mu1, mu2)))

    worst_opt = 0.0
    for alpha, r, m, l in MU_OPT_PROBES:
        p = _probe(alpha, r, m, l)
        closed = qfi_lossy_kerr(moment_set(p), l)
        numeric_cq, _, _ = kerr_mu_opt_numeric(p)
        worst_opt = max(worst_opt, _rel(closed.fq, numeric_cq))

    worst_grad = 0.0
    skipped = 0
    for alpha, r, m, l in itertools.product(GRID_ALPHA, GRID_R, GRID_M, LOSSY_L):
        p = _probe(alpha, r, m, l)
        try:
            worst_grad = max(worst_grad, kerr_gradient_check(p))
        except SingularNormalEquations:
            skipped += 1  # no unique optimum for probes with degenerate statistics

    ok = worst_fixed < 1e-6 and worst_opt < 1e-6 and worst_grad < 1e-5
    report(
        f"acceptance 05 kerr closed form: {'PASS' if ok else 'FAIL'} "
        f"(fixed-mu rel dev {worst_fixed:.2e} < 1e-6, optimum rel dev {worst_opt:.2e} < 1e-6, "
        f"gradient {worst_grad:.2e} < 1e-5, {skipped} degenerate probes without an optimum)"
    )
    assert worst_fixed < 1e-6
    assert worst_opt < 1e-6
    assert worst_grad < 1e-5


def test_zero_loss_reductions(report):
    worst_lin = 0.0
    worst_kerr = 0.0
    for alpha, r, m in itertools.product(GRID_ALPHA, GRID_R, GRID_M):
        ms = moment_set(_probe(alpha, r, m))
        worst_lin = max(worst_lin, _rel(qfi_lossy_linear(ms, 0.0).fq, qfi_ideal_linear(ms).fq))
        ideal = qfi_ideal_kerr(ms).fq
        for mu1, mu2 in MU_POINTS:
            worst_kerr = max(worst_kerr, _rel(kerr_cq(ms, 0.0, mu1, mu2), ideal))
    ok = worst_lin < 1e-12 and worst_kerr < 1e-10
    report(
        f"acceptance 06 zero-loss reductions: {'PASS' if ok else 'FAIL'} "
        f"(linear dev {worst_lin:.2e} < 1e-12, kerr dev {worst_kerr:.2e} < 1e-10, mu-independent)"
    )
    assert worst_lin < 1e-12
    assert worst_kerr < 1e-10


def test_energy_matched_benchmark_inequalities(report, energy_matched):
    limits = benchmark_limits(8.0)
    details = []

    # (a) phase-optimized parity sensitivity beats the classical limit
    dphi_opt = {}
    qcrb = {}
    for m in GRID_M:
        p = _probe(2.0, energy_matched[m], m, phi=0.1)
        _, dphi_opt[m] = optimal_phase(p)
        qcrb[m] = qfi_ideal_linear(moment_set(p)).qcrb
    ok_a = all(dphi_opt[m] < limits.sql for m in GRID_M)
    details.append(f"a: max dphi {max(dphi_opt.values()):.4f} < SQL {limits.sql:.4f}")

    # (b) estimator bound never beats the quantum bound at any sampled phase
    phis = np.linspace(-math.pi / 2, math.pi / 2, 201)
    checked = 0
    ok_b = True
    for m in GRID_M:
        base = _probe(2.0, energy_matched[m], m, phi=0.1)
        for phi in phis:
            try:
                fc = classical_fisher(replace(base, phi=float(phi)))
            except DegenerateSignal:
                continue
            checked += 1
            dphi = math.inf if fc <= 0 else 1.0 / math.sqrt(fc)
            if qcrb[m] > dphi * (1 + 1e-9) + 1e-12:
                ok_b = False
    details.append(f"b: ordering at {checked} sampled phases")

    # (c) the optimum closes in on the quantum bound as photons are added
    gaps = [abs(dphi_opt[m] - qcrb[m]) for m in GRID_M]
    ok_c = all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    details.append("c: gaps " + " >= ".join(f"{g:.2e}" for g in gaps))

    # (d) kerr quantum bound clears the sub-Heisenberg mark
    kerr_qcrb = {m: qfi_ideal_kerr(moment_set(_probe(2.0, energy_matched[m], m))).qcrb for m in (1, 2, 3)}
    ok_d = all(v < limits.sub_heisenberg for v in kerr_qcrb.values())
    details.append(f"d: max kerr qcrb {max(kerr_qcrb.values()):.2e} < {limits.sub_heisenberg:.2e}")

    ok = ok_a and ok_b and ok_c and ok_d
    report(f"acceptance 07 energy-matched inequalities: {'PASS' if ok else 'FAIL'} ({'; '.join(details)})")
    assert ok_a
    assert ok_b
    assert ok_c
    assert ok_d


def test_loss_degradation_monotone(report):
    # closed-form bounds are checked across the full loss ladder; the
    # phase-optimized parity clause is scoped to l <= 0.4, the plotted claim.
    # Beyond that the in-window optimum hops to a secondary fringe and the
    # model genuinely loses monotonicity (m=3: 10.380 at l=0.6 then 10.334
    # at l=0.7, confirmed by both engines).
    ladder = [round(0.1 * k, 1) for k in range(10)]
    parity_ladder = [l for l in ladder if l <= 0.4]
    failures = []
    for m in GRID_M:
        fq_lin = []
        fq_kerr = []
        for l in ladder:
            ms = moment_set(_probe(2.0, 0.5, m, l))
            fq_lin.append(qfi_lossy_linear(ms, l).fq)
            fq_kerr.append(qfi_lossy_kerr(ms, l).fq)
        if not all(fq_lin[i + 1] <= fq_lin[i] * (1 + 1e-9) for i in range(len(ladder) - 1)):
            failures.append(f"linear F_Q not monotone at m={m}")
        if not all(fq_kerr[i + 1] <= fq_kerr[i] * (1 + 1e-9) for i in range(len(ladder) - 1)):
            failures.append(f"kerr F_Q not monotone at m={m}")

        dphi = []
        for l in parity_ladder:
            try:
                _, d = optimal_phase(_probe(2.0, 0.5, m, l, phi=0.1))
            except DegenerateSignal:
                d = math.inf
            dphi.append(d)
        if not all(dphi[i + 1] >= dphi[i] * (1 - 1e-9) for i in range(len(parity_ladder) - 1)):
            failures.append(f"optimized parity dphi not monotone at m={m}: {dphi}")

    ok = not failures
    report(
        f"acceptance 08 loss degradation monotone: {'PASS' if ok else 'FAIL'} "
        f"(F_Q over l 0..0.9 and optimized parity dphi over l 0..0.4, m 0..3"
        + ("" if ok else "; " + "; ".join(failures))
        + ")"
    )
    assert not failures, failures


def test_photon_addition_improves_lossy_sensitivity(report):
    dphi = []
    qcrb = []
    for m in GRID_M:
        p = _probe(2.0, 0.5, m, 0.1, phi=0.1)
        _, d = optimal_phase(p)
        dphi.append(d)
        qcrb.append(qfi_lossy_linear(moment_set(p), 0.1).qcrb)
    ok_d = all(dphi[i + 1] < dphi[i] for i in range(len(dphi) - 1))
    ok_q = all(qcrb[i + 1] < qcrb[i] for i in range(len(qcrb) - 1))
    ok = ok_d and ok_q
    report(
        f"acceptance 09 photon addition under loss: {'PASS' if ok else 'FAIL'} "
        f"(dphi {' > '.join(f'{v:.4f}' for v in dphi)}; qcrb {' > '.join(f'{v:.4f}' for v in qcrb)})"
    )
    assert ok_d
    assert ok_q


def test_kerr_dominates_linear(report):
    # probes confined to the 0/1 photon sectors make the quadratic and linear
    # phase shifts the same physical operation, so equality is forced there;
    # dominance is asserted wherever the generators actually differ
    checked = 0
    excluded = 0
    failures = []
    for alpha, r, m, l in itertools.product(GRID_ALPHA, GRID_R, GRID_M, GRID_L):
        ms = moment_set(_probe(alpha, r, m, l))
        pair_mass = ms.m2 - ms.m1  # second factorial moment
        if ms.var_n <= 1e-12 or pair_mass <= 1e-12:
            excluded += 1
            continue
        checked += 1
        fk = qfi_lossy_kerr(ms, l).fq
        fl = qfi_lossy_linear(ms, l).fq
        if not fk > fl:
            failures.append((alpha, r, m, l, fk, fl))
    ok = not failures
    report(
        f"acceptance 10 kerr dominance: {'PASS' if ok else 'FAIL'} "
        f"({checked} grid points strict, {excluded} degenerate excluded"
        + ("" if ok else f"; first failure {failures[0]}")
        + ")"
    )
    assert not failures, failures


def test_figure_presets_reproducible_and_fast(report):
    slowest = 0.0
    slowest_panel = None
    for number, panel in ALL_PANELS:
        spec = figure_preset(number, panel=panel)
        t0 = time.perf_counter()
        first = run_sweep(spec, threads=1).render().encode()
        t1 = time.perf_counter() - t0
        t0 = time.perf_counter()
        second = run_sweep(spec, threads=1).render().encode()
        t2 = time.perf_counter() - t0
        assert first == second, f"figure {number}{panel} not byte-reproducible"
        worst = max(t1, t2)
        if worst > slowest:
            slowest = worst
            slowest_panel = f"{number}{panel}"
        assert worst < 60.0, f"figure {number}{panel} took {worst:.1f} s"
    report(
        f"acceptance 11 preset determinism and speed: PASS "
        f"({len(ALL_PANELS)} panels byte-identical twice, slowest {slowest_panel} {slowest:.1f} s < 60 s)"
    )


def test_acceptance_wall_time(report):
    elapsed = time.perf_counter() - _T0
    ok = elapsed < 900.0
    report(f"acceptance total wall time: {'PASS' if ok else 'FAIL'} ({elapsed:.0f} s < 900 s)")
    assert ok
