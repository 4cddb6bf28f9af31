"""The oracle's steps done the slow, plain way, for tests only.

Production `parity_signal_oracle` applies no second splitter: it reads the
parity off the exchange identity (b-port parity behind the splitter maps
|n_a, n_b> to i^(n_b - n_a) |n_b, n_a>, checked on the blocks of every sector
up to 160 in test_oracle.py), summing products of mirrored grid entries one
loss branch at a time. Its splitter stores each sector's block as the real
rotation R = S^H U S, S = diag(i^n_a), and `_apply_bs_array` takes a whole
stack of grids. Here the same quantities are computed the way the package
did before all three:

- the complex splitter blocks U from the same spectral decomposition
  (`bs_block_reference`), applied one sector and one grid at a time
  (`apply_bs_reference`), with the conjugated block for the second splitter;
- the explicit pipeline: mixed states as lists of branch grids
  (`DensityGrid`), the splitter on pure and mixed states, first or second
  (`apply_beam_splitter`; the second splitter conj(U) is the first applied
  under complex conjugation), the loss channel as full branch grids
  (`apply_loss_channel`), the phase (`apply_phase`), and the parity read off
  the output grid (`parity_expectation_oracle`, and `parity_signal_reference`
  with its phase derivatives). Its cost grows like branches * cutoff^3 in
  small Python-level products.

The rest are the package's former Python loops, kept as the equality
references of their array forms: the loss weight table, the photon-added
squeezed-vacuum distribution, the corner clip by `fill_diagonal`, and the
lossy linear bound found by a grid scan and a golden section; and the
sector cutoff taken from distributions of the longest length the oracle
builds. `kerr_gradient_check` certifies that the closed-form Kerr optimum is
a stationary point of the operator-level C_Q by central differences.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from mzphase import oracle
from mzphase.errors import CutoffTooSmall, ParamOutOfRange, UnitarityDrift
from mzphase.moments import moment_set
from mzphase.oracle import (
    SECTOR_TOL,
    FockGrid,
    KrausFamily,
    LossWeightTable,
    _coherent_probs,
    _pasvs_probs,
    _prepared_after_first_splitter,
    build_input_state,
    cq_from_table,
    default_cutoff,
    loss_weight_table,
    probe_marginal,
)
from mzphase.qfi_kerr import kerr_mu_opt
from mzphase.states import ProbeParams, pasvs_norm

# The equality grid of the loop-free oracle steps: 625 probes, with zero
# entries in the alpha = 0 marginals and up to near-total loss.
GRID_ALPHA = (0.0, 0.5, 1.6, 1.9, 3.0)
GRID_R = (0.0, 0.3, 0.7, 1.0, 1.2)
GRID_M = (0, 1, 2, 3, 6)
GRID_LOSS = (0.0, 0.05, 0.21, 0.6, 0.9)


@lru_cache(maxsize=None)
def grid_marginal(alpha: float, r: float, m: int) -> np.ndarray:
    """The probe-arm marginal that `qfi_lossy_numeric_check` tables."""
    return probe_marginal(ProbeParams(alpha=alpha, r=r, m=m), weight=2)


# -- the complex splitter blocks -----------------------------------------------


@lru_cache(maxsize=None)
def bs_block_reference(total: int) -> np.ndarray:
    """50:50 beam-splitter matrix exp(-i pi/4 (a^dag b + a b^dag)) on one sector.

    Sector N (total photons) has basis |n_a, N - n_a>, n_a = 0..N; the
    coupling operator is real symmetric tridiagonal there, so the block is
    built from its spectral decomposition, complex, with a 1e-10 unitarity
    check."""
    na = np.arange(total + 1)
    off = np.sqrt((na[:-1] + 1.0) * (total - na[:-1]))
    j_op = np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(j_op)
    u = (vecs * np.exp(-1j * (np.pi / 4) * vals)) @ vecs.T
    defect = np.max(np.abs(u.conj().T @ u - np.eye(total + 1)))
    if defect >= 1e-10:
        raise UnitarityDrift(f"sector {total} block unitarity defect {defect:.3e}")
    u.flags.writeable = False
    return u


@lru_cache(maxsize=1)
def _conjugated_blocks(cutoff: int) -> list:
    return [bs_block_reference(total).conj() for total in range(cutoff + 1)]


def apply_bs_reference(arr: np.ndarray, cutoff: int, second: bool) -> np.ndarray:
    """Splitter on one (d, d) grid, or a (d, d, k) stack of k grids, one
    sector at a time."""
    out = arr.copy()
    blocks = _conjugated_blocks(cutoff) if second else map(bs_block_reference, range(cutoff + 1))
    for total, u in enumerate(blocks):
        na = np.arange(total + 1)
        out[na, total - na] = u @ arr[na, total - na]
    return out


# -- the explicit pipeline -------------------------------------------------------

# Largest stack of branch grids `parity_signal_reference` passes to the
# splitter at once; the splitter's copy and the grids the stack is built
# from take about as much again each.
_STACK_BYTES = 16 * 2**20


@dataclass
class DensityGrid:
    """Mixed two-mode state stored as an ensemble of unnormalized pure branches.

    Each branch is an amplitude grid like FockGrid's; its squared norm is the
    branch weight. Storing branches instead of a dense matrix keeps large
    cutoffs tractable while remaining exact.
    """

    cutoff: int
    branches: list = field(default_factory=list)

    def trace(self) -> float:
        return float(sum(np.vdot(b, b).real for b in self.branches))

    def b_marginal(self) -> np.ndarray:
        out = np.zeros(self.cutoff + 1)
        for b in self.branches:
            out += np.sum(np.abs(b) ** 2, axis=0)
        return out


def apply_beam_splitter(state, which: str):
    """Apply the first or second 50:50 splitter, exactly per photon sector.

    The second splitter conj(U) is the first under complex conjugation of
    the state before and after. Requires the state's support to sit in
    complete sectors; mass outside is an error. A pure state is renormalized
    if its norm drifted by less than 1e-9, else UnitarityDrift; a mixed
    state's trace must not drift by 1e-9.
    """
    if which not in ("first", "second"):
        raise ParamOutOfRange(f"which must be 'first' or 'second', got {which!r}")
    flip = np.conjugate if which == "second" else np.asarray
    if isinstance(state, FockGrid):
        out = oracle._first_splitter(FockGrid(state.cutoff, flip(state.amplitudes)))
        return FockGrid(state.cutoff, flip(out.amplitudes))
    if isinstance(state, DensityGrid):
        before = state.trace()
        for b in state.branches:
            oracle._sector_mass_check(b, state.cutoff)
        d = state.cutoff + 1
        stack = flip(np.asarray(state.branches).reshape(-1, d, d))
        out = DensityGrid(state.cutoff, list(flip(oracle._apply_bs_array(stack, state.cutoff))))
        drift = abs(out.trace() - before)
        if not drift < 1e-9 * max(before, 1e-300):
            raise UnitarityDrift(f"trace drifted by {drift:.3e} across the splitter")
        return out
    raise ParamOutOfRange(f"unsupported state type {type(state).__name__}")


def apply_loss_channel(state, l: float) -> DensityGrid:
    """Photon loss with survival 1 - l on the probe (b) arm, one full grid
    per Kraus branch, with the oracle's branch stop and trace check."""
    if not 0 <= l < 1:
        raise ParamOutOfRange(f"loss must lie in [0, 1), got {l}")
    if isinstance(state, FockGrid):
        in_branches = [state.amplitudes]
        total_in = state.norm ** 2
    elif isinstance(state, DensityGrid):
        in_branches = state.branches
        total_in = state.trace()
    else:
        raise ParamOutOfRange(f"unsupported state type {type(state).__name__}")
    size = state.cutoff + 1
    out = []
    cum = 0.0
    for b in in_branches:
        prefs, got = oracle._kraus_prefactors(b, l, total_in)
        for j, pref in enumerate(prefs):
            branch = np.zeros_like(b)
            branch[:, : size - j] = b[:, j:] * pref[None, :]
            out.append(branch)
        cum += got
    oracle._loss_trace_check(cum, total_in)
    return DensityGrid(state.cutoff, out)


def apply_phase(state, phi: float, kind: str = "linear"):
    """Diagonal phase on the b mode: exp(i phi n_b) or exp(i phi n_b^2)."""
    if kind == "linear":
        expo = lambda n: n  # noqa: E731
    elif kind == "kerr":
        expo = lambda n: n * n  # noqa: E731
    else:
        raise ParamOutOfRange(f"kind must be 'linear' or 'kerr', got {kind!r}")
    if isinstance(state, FockGrid):
        n = np.arange(state.cutoff + 1)
        return FockGrid(state.cutoff, state.amplitudes * np.exp(1j * phi * expo(n))[None, :])
    if isinstance(state, DensityGrid):
        n = np.arange(state.cutoff + 1)
        f = np.exp(1j * phi * expo(n))[None, :]
        return DensityGrid(state.cutoff, [b * f for b in state.branches])
    raise ParamOutOfRange(f"unsupported state type {type(state).__name__}")


def parity_expectation_oracle(p: ProbeParams, cutoff: int | None = None) -> float:
    """Parity of the b mode at the output, via the full state pipeline."""
    nc = default_cutoff(p, weight=0) if cutoff is None else cutoff
    after_bs1 = oracle._prepared_after_first_splitter(p, nc)
    lossy = apply_loss_channel(after_bs1, p.loss)
    phased = apply_phase(lossy, p.phi, "linear")
    final = apply_beam_splitter(phased, "second")
    signs = np.where(np.arange(nc + 1) % 2 == 0, 1.0, -1.0)
    return float(np.dot(final.b_marginal(), signs))


def parity_signal_reference(p: ProbeParams, cutoff: int | None = None) -> tuple[float, float, float]:
    """Output parity and its two phase derivatives, one loss branch at a time.

    The second splitter takes the value, slope and curvature grids of a chunk
    of branches side by side, one (k, 3 * chunk) product per sector; the
    chunk is capped so that its stack holds at most _STACK_BYTES. The sums
    are accumulated branch by branch, in branch order."""
    nc = default_cutoff(p, weight=0) if cutoff is None else cutoff
    lossy = apply_loss_channel(_prepared_after_first_splitter(p, nc), p.loss)
    d = nc + 1
    n = np.arange(d, dtype=float)[None, :]
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)[None, :]
    chunk = max(1, _STACK_BYTES // (3 * 16 * d * d))
    f = d1 = d2 = 0.0
    for start in range(0, len(lossy.branches), chunk):
        v0 = np.stack(lossy.branches[start : start + chunk], axis=-1) * np.exp(1j * p.phi * n)[..., None]
        # (d, d, branch, 3): each branch's value, slope and curvature side by side
        stack = np.stack([v0, (1j * n)[..., None] * v0, (-(n * n))[..., None] * v0], axis=-1)
        out = apply_bs_reference(stack.reshape(d, d, -1), nc, second=True).reshape(stack.shape)
        for b in range(stack.shape[2]):
            w0, w1, w2 = np.moveaxis(out[:, :, b], -1, 0)
            pw0 = signs * w0
            f += float(np.sum((pw0.conj() * w0).real))
            d1 += 2.0 * float(np.sum((pw0.conj() * w1).real))
            d2 += 2.0 * float(np.sum((pw0.conj() * w2).real)) + 2.0 * float(
                np.sum((signs * w1.conj() * w1).real)
            )
    return f, d1, d2


def loss_weight_table_reference(marginal: np.ndarray, loss: float) -> LossWeightTable:
    """The weight table one entry at a time, k-major with j ascending."""
    eta = 1.0 - loss
    survived = []
    lost = []
    weight = []
    for k in range(marginal.size):
        pk = float(marginal[k])
        if pk == 0.0:
            continue
        ws = [eta**k]
        for j in range(k):
            ws.append(ws[-1] * (k - j) / (j + 1) * (loss / eta))
        # rest[j] = ws[j+1] + ... + ws[k], summed from the top
        rest = [0.0] * (k + 1)
        acc = 0.0
        for j in range(k, 0, -1):
            acc += ws[j]
            rest[j - 1] = acc
        gmax2 = float(k) ** 8 + 1.0
        for j in range(k + 1):
            survived.append(k - j)
            lost.append(j)
            weight.append(pk * ws[j])
            if rest[j] * gmax2 < 1e-14:
                break
    return LossWeightTable(
        np.array(survived, dtype=float),
        np.array(lost, dtype=float),
        np.array(weight, dtype=float),
    )


def pasvs_probs_reference(r: float, m: int, length: int) -> np.ndarray:
    """Photon-added squeezed-vacuum distribution, one even level at a time."""
    probs = np.zeros(length)
    th, sech = math.tanh(r), 1.0 / math.cosh(r)
    s2n = math.sqrt(sech)
    n = 0
    while 2 * n + m < length:
        k = 2 * n
        c2 = s2n * s2n * math.prod(range(k + 1, k + m + 1))
        probs[k + m] = c2
        s2n *= th * math.sqrt((k + 1) * (k + 2)) / (k + 2)
        n += 1
    return probs / pasvs_norm(r, m)


def prepared_after_first_splitter_reference(p: ProbeParams, cutoff: int) -> FockGrid:
    """Input grid clipped to complete sectors one anti-diagonal at a time."""
    arr = build_input_state(p, cutoff).amplitudes.copy()
    flipped = arr[::-1, :]
    for k in range(1, cutoff + 1):
        np.fill_diagonal(flipped[:, k:], 0.0)
    nrm = float(np.linalg.norm(arr))
    if 1.0 - nrm * nrm > 1e-9:
        raise CutoffTooSmall(f"sector clip removed {1 - nrm * nrm:.3e} probability")
    arr /= nrm
    return apply_beam_splitter(FockGrid(cutoff, arr), "first")


def numeric_check_reference(table: LossWeightTable, loss: float) -> float:
    """Minimum over gamma of the linear C_Q: a 41-point scan of [-2, 2], the
    bracket pushed outward while the minimum sits on an edge, then a golden
    section down to a bracket of 1e-10."""

    def value(gamma: float) -> float:
        return cq_from_table(table, KrausFamily("linear", loss, gamma=gamma))

    grid = np.linspace(-2.0, 2.0, 41)
    vals = np.array([value(g) for g in grid])
    best = int(np.argmin(vals))
    step = float(grid[1] - grid[0])
    lo, hi = float(grid[0]), float(grid[-1])
    for _ in range(200):
        if best == 0:
            lo -= step
            grid = np.concatenate(([lo], grid))
            vals = np.concatenate(([value(lo)], vals))
        elif best == grid.size - 1:
            hi += step
            grid = np.concatenate((grid, [hi]))
            vals = np.concatenate((vals, [value(hi)]))
        else:
            break
        best = int(np.argmin(vals))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, grid.size - 1)])
    invphi = (math.sqrt(5) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(d)
        if b - a < 1e-10:
            break
    return float(min(float(vals[best]), fc, fd))


def default_cutoff_reference(p: ProbeParams, weight: int, length: int = 16384) -> int:
    """`default_cutoff`'s tail rule on input distributions of a fixed length
    (the longest the oracle builds), with no length search and no
    SECTOR_LIMIT."""
    q = np.convolve(_coherent_probs(p.alpha, length), _pasvs_probs(p.r, p.m, length))
    wq = q * np.arange(q.size, dtype=float) ** weight
    tail = np.cumsum(wq[::-1])[::-1]
    nc = int(np.nonzero(tail <= SECTOR_TOL * float(np.sum(wq)))[0][0])
    return (max(nc, p.m + 2, 8) + 7) // 8 * 8


def kerr_gradient_check(p: ProbeParams, step: float = 1e-6) -> float:
    """Max |finite-difference gradient| of operator C_Q at the closed-form
    optimum, normalized by |C_Q|. Small values certify stationarity."""
    ms = moment_set(p)
    mu1, mu2 = kerr_mu_opt(ms, p.loss)
    marg = probe_marginal(p, weight=4)
    table = loss_weight_table(marg, p.loss)

    def value(u1, u2):
        return cq_from_table(table, KrausFamily("kerr", p.loss, mu1=u1, mu2=u2))

    f0 = value(mu1, mu2)
    g1 = (value(mu1 + step, mu2) - value(mu1 - step, mu2)) / (2 * step)
    g2 = (value(mu1, mu2 + step) - value(mu1, mu2 - step)) / (2 * step)
    return max(abs(g1), abs(g2)) / max(1.0, abs(f0))
