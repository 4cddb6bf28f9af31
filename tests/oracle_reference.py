"""The oracle's second-splitter path done one branch and one sector at a time.

Production `parity_signal_oracle` gathers each total-photon sector from every
loss branch and pushes v, v' and v'' through the sector block in one product;
`_apply_bs_array` takes a whole stack of grids. Here the same quantities are
computed the way the package did before that: a matrix-vector product per
branch, per sector and per vector, with the conjugated block for the second
splitter. Kept for tests only; its cost grows like branches * cutoff^3 in
small Python-level products.
"""

import numpy as np

from mzphase.oracle import (
    _bs_blocks,
    _prepared_after_first_splitter,
    apply_loss_channel,
    default_cutoff,
)
from mzphase.states import ProbeParams


def apply_bs_reference(arr: np.ndarray, cutoff: int, second: bool) -> np.ndarray:
    """Splitter on one (d, d) grid, one sector at a time."""
    out = arr.copy()
    for total, u in enumerate(_bs_blocks(cutoff)):
        na = np.arange(total + 1)
        if second:
            u = u.conj()
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
