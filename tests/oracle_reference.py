"""The oracle's steps done the slow, plain way, for tests only.

Production `parity_signal_oracle` applies no second splitter: it reads the
parity off the exchange identity (b-port parity behind the splitter maps
|n_a, n_b> to i^(n_b - n_a) |n_b, n_a>, checked on the blocks of every sector
up to 160 in test_oracle.py), summing products of mirrored grid entries one
loss branch at a time; `_apply_bs_array` takes a whole stack of grids. Here
the same quantities are computed the way the package did before both: full
branch grids from `apply_loss_channel`, and a matrix-vector product per
branch, per sector and per vector, with the conjugated block for the second
splitter, then the parity read off the output grid. Its cost grows like
branches * cutoff^3 in small Python-level products.

The rest are the package's former Python loops, kept as the equality
references of their array forms: the loss weight table, the photon-added
squeezed-vacuum distribution, the corner clip by `fill_diagonal`, and the
lossy linear bound found by a grid scan and a golden section.
"""

import math
from functools import lru_cache

import numpy as np

from mzphase.errors import CutoffTooSmall
from mzphase.oracle import (
    FockGrid,
    KrausFamily,
    LossWeightTable,
    _bs_blocks,
    _prepared_after_first_splitter,
    apply_beam_splitter,
    apply_loss_channel,
    build_input_state,
    cq_from_table,
    default_cutoff,
    probe_marginal,
)
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


@lru_cache(maxsize=1)
def _conjugated_blocks(cutoff: int) -> list:
    return [u.conj() for u in _bs_blocks(cutoff)]


def apply_bs_reference(arr: np.ndarray, cutoff: int, second: bool) -> np.ndarray:
    """Splitter on one (d, d) grid, one sector at a time."""
    out = arr.copy()
    for total, u in enumerate(_conjugated_blocks(cutoff) if second else _bs_blocks(cutoff)):
        na = np.arange(total + 1)
        out[na, total - na] = u @ arr[na, total - na]
    return out


def parity_signal_reference(p: ProbeParams, cutoff: int | None = None) -> tuple[float, float, float]:
    """Output parity and its two phase derivatives, one loss branch at a time."""
    nc = default_cutoff(p, weight=0) if cutoff is None else cutoff
    lossy = apply_loss_channel(_prepared_after_first_splitter(p, nc), p.loss)
    n = np.arange(nc + 1, dtype=float)[None, :]
    signs = np.where(np.arange(nc + 1) % 2 == 0, 1.0, -1.0)[None, :]
    f = d1 = d2 = 0.0
    for u in lossy.branches:
        v0 = u * np.exp(1j * p.phi * n)
        w0 = apply_bs_reference(v0, nc, second=True)
        w1 = apply_bs_reference(1j * n * v0, nc, second=True)
        w2 = apply_bs_reference(-(n * n) * v0, nc, second=True)
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
        wj = eta**k
        rem = 1.0
        gmax2 = float(k) ** 8 + 1.0
        for j in range(k + 1):
            survived.append(k - j)
            lost.append(j)
            weight.append(pk * wj)
            rem -= wj
            if rem * gmax2 < 1e-14:
                break
            wj = wj * (k - j) / (j + 1) * (loss / eta)
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
