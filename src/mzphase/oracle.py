"""Independent brute-force Fock-space engine.

Everything here works on explicit two-mode photon-number grids, plain
(d, d) complex arrays amplitudes[n_a, n_b]: the input product state is the
outer product of truncated Fock amplitude vectors, the first beam splitter
acts exactly on each total-photon sector (it conserves n_a + n_b), loss on
the probe arm is expanded into its Kraus branches, and phases are diagonal.
No generating-function shortcuts: this is the cross-check engine for the
analytic modules, sharing nothing with them but the state builders. The
operator-level bounds (`qfi_linear.qfi_lossy_numeric_check`,
`qfi_kerr.kerr_mu_opt_numeric`) read their weight tables from here
(`probe_marginal`, `loss_weight_table`, `cq_from_table`) and minimise over
their own commutation parameters, so no oracle value depends on a moment
set.

On sector N, with basis |n_a, N - n_a>, the 50:50 splitter
U_N = exp(-i pi/4 J), J = a^dag b + a b^dag, is an SU(2) rotation (Yurke,
McCall and Klauder, Phys. Rev. A 33, 4033 (1986)). With S = diag(i^n_a),
R_N = S^H U_N S is real orthogonal. R_0 = [[1]], and R_{N+1} follows from
R_N by a four-term recurrence (`_next_block`), elementwise in O(N^2), each
block checked to be orthogonal. The blocks are built once per process, in
sector order, and kept as read-only float64 arrays in one list shared by
every cutoff; the splitter gathers a sector's entries times S^H, takes one
real product with R_N and scatters them back times S. The blocks of
sectors 0..N take sum (k+1)^2 * 8 B: 10.7 MB up to N = 160, 84.5 MB up to
320 and 553.4 MB up to SECTOR_LIMIT (MB = 2^20 B). The splitter's sector
layout (n_a, n_b, the S^H and S phase columns and the sector bounds) is
kept once, for the largest cutoff seen, about 0.6 MB at N = 160: sector
order does not depend on the cutoff, so a smaller cutoff reads its
prefixes and forms only its flat indices. Per-cutoff copies would miss on
most calls of a sweep whose cutoffs vary, or grow with every cutoff
visited. Norms and sums on the parity path are taken by `np.sum`, not by
BLAS reductions, so its values do not depend on the BLAS thread count.

`parity_signal_oracle` does not apply the second splitter: behind a 50:50
splitter, b-port parity is a signed exchange of the two modes within each
sector (the SU(2) picture of the lossless splitter; Campos, Saleh and Teich,
Phys. Rev. A 40, 1371 (1989)), so it reads the parity and its phase
derivatives off products of mirrored grid entries, one loss branch at a
time. The identity is tested on every sector up to 160, and
tests/oracle_reference.py keeps the explicit pipeline (mixed-state grids,
full loss-branch grids, the phase and the second splitter) as the
brute-force reference. `probe_marginal` keeps its last two marginals, so
rows of a sweep that differ only in loss share one.

Every loss weight w(j, n) = Binom(n + j, j) l^j eta^n (j photons lost, n
surviving) comes from one step, w(j, n) = w(j - 1, n) * (n + j) / j * l
(`_lose_one`), applied to w(0, n) = eta^n. There is no prefactor square and
no weight starts at eta^k of its whole sector k = n + j, which is subnormal
at high loss (from k = 154 at loss 0.99) where the weights that matter have
few survivors. The loss channel at one nonzero loss (`_LossChannel`) holds
what depends on the loss and the photon numbers, never on the state, and
every oracle row at that loss shares it: the rows k = 0..K of the loss
weight table (surviving, lost, w, k-major with j ascending, and each row's
entry count), which `loss_weight_table` reads by prefix and weights by the
marginal. Sector k is built from the whole sector k - 1, so the channel
keeps the whole of sector K and appends the sectors up to the largest
cutoff asked for. At cutoff 160 it holds 0.09 MB at loss 0.01, 0.23 MB at
0.21 and 0.30 MB at 0.9. `_kraus_prefactors` walks the branches j = 0, 1,
... with the same step over all n at once, until its mass stop, so branch
j's prefactors are the square roots of the channel's weights at lost = j,
bit for bit. Only the most recent loss's channel is kept: a row at a
fresh loss builds a new one, as every row of a loss sweep does. At loss 0
no channel is built: `loss_weight_table` returns the marginal's nonzero
entries with nothing lost, weight marginal * 1.0, what the rows give there,
and the parity path takes branch 0 alone, of prefactor 1. The parity path's
triangle of grid entries (n_a <= n_b) and their mirrored indices are kept
for the last cutoff, and its phase factors are taken per photon-number
difference.
`default_cutoff` convolves each input distribution only up to its last level
of at least 1e-100 (_SUPPORT_FLOOR), with a zero appended so that the tail
test can end past it: each level left out holds under 1e-100, and their
subnormal products were most of a full-length convolution's time.

Log-factorials come from one cached table of `math.lgamma` values per length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConsistencyError,
    CutoffTooSmall,
    ParamOutOfRange,
    TraceDrift,
    UnitarityDrift,
)
from .states import (
    ProbeParams,
    _check_loss,
    coherent_fock_amplitudes,
    pasvs_fock_amplitudes,
    pasvs_norm,
)

# Relative probability mass allowed outside the retained total-photon sectors.
SECTOR_TOL = 1e-11
# Matrix cutoff above which the oracle refuses to run (cost grows like N^4).
SECTOR_LIMIT = 600
# Longest single-mode photon distribution `default_cutoff` builds.
_LENGTH_MAX = 16384
# Smallest single-mode probability `default_cutoff` convolves.
_SUPPORT_FLOOR = 1e-100
# i^k for k mod 4
_I_POW = np.array([1, 1j, -1, -1j])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _norm(arr: np.ndarray) -> float:
    """Euclidean norm of a complex array by numpy's own sum, whose order of
    summation, unlike that of a BLAS reduction, does not depend on the thread
    count. (`ndarray.sum` is `np.sum` with less call overhead.)"""
    return math.sqrt(float(np.square(arr.real).sum() + np.square(arr.imag).sum()))


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    """Read-only log k! for k = 0..size-1, each from `math.lgamma` (a running
    sum of logs drifts by about 1e-11), built once per size."""
    return _read_only(np.array([math.lgamma(k + 1.0) for k in range(size)]))


# -- beam splitter ----------------------------------------------------------


# R_0, R_1, ...: every block built so far, each from the one before it, kept
# for the life of the process and shared by every cutoff
_blocks = [_read_only(np.ones((1, 1)))]


def _next_block(rot: np.ndarray) -> np.ndarray:
    """R_{N+1} of the 50:50 splitter from R_N = `rot`, read-only.

    With M = N + 1, |n, M - n> = (sqrt(n) a^dag |n - 1, M - n> +
    sqrt(M - n) b^dag |n, N - n>) / M, and the splitter takes a^dag to
    (a^dag - i b^dag) / sqrt(2) and b^dag to (b^dag - i a^dag) / sqrt(2).
    In the frame of S = diag(i^n_a) the factors i cancel:
    R_{N+1}[k, n] = (sqrt(n k) R_N[k-1, n-1] + sqrt(n (M-k)) R_N[k, n-1]
    + sqrt((M-n) (M-k)) R_N[k, n] - sqrt((M-n) k) R_N[k-1, n]) / (sqrt(2) M),
    entries outside R_N taken as 0 (Risbo's recursion, J. Geodesy 70, 383
    (1996), in Fock form). The block is checked to be orthogonal to 1e-10
    in O(N^2): its column norms, and R^T (R x) = x for x of ones.
    """
    size = rot.shape[0]  # M
    root = np.sqrt(np.arange(size + 1.0))  # sqrt(k), k = 0..M
    back = root[::-1]  # sqrt(M - k)
    # Each term is added into the new block through one scratch array: fresh
    # temporaries of a growing size would fragment the heap around the kept
    # blocks and leave it resident at about twice their bytes.
    new = np.zeros((size + 1, size + 1))
    term = np.empty_like(rot)
    up, down = slice(1, None), slice(None, -1)  # new[k] from R_N[k - 1], and from R_N[k]
    for rows, row_w, cols, col_w in (
        (up, root[1:], up, root[1:]),
        (up, root[1:], down, -back[:-1]),
        (down, back[:-1], up, root[1:]),
        (down, back[:-1], down, back[:-1]),
    ):
        np.multiply(rot, col_w, out=term)
        term *= row_w[:, None]
        new[rows, cols] += term
    new *= 1.0 / (math.sqrt(2.0) * size)
    ones = np.ones(size + 1)
    norms = np.einsum("ij,ij->j", new, new)
    defect = max(np.max(np.abs(norms - 1.0)), np.max(np.abs(new.T @ (new @ ones) - ones)))
    if not defect < 1e-10:
        raise UnitarityDrift(f"sector {size} block orthogonality defect {defect:.3e}")
    return _read_only(new)


@lru_cache(maxsize=4)  # its cache_info() counts cutoff changes in the traced benchmark
def _bs_blocks(cutoff: int) -> list:
    """The shared blocks of sectors 0..cutoff, those not built yet built in turn."""
    if cutoff > SECTOR_LIMIT:
        raise ParamOutOfRange(f"cutoff {cutoff} exceeds the oracle limit {SECTOR_LIMIT}")
    while len(_blocks) <= cutoff:
        _blocks.append(_next_block(_blocks[-1]))
    return _blocks[: cutoff + 1]


@dataclass(frozen=True)
class _SectorLayout:
    """Entries of sectors 0..cutoff, sector after sector with n_a ascending:
    their n_a and n_b, the S^H and S phase columns, and the offset at which
    each sector starts (cutoff + 2 Python ints). A smaller cutoff c reads the
    first bounds[c + 1] entries."""

    cutoff: int
    na: np.ndarray
    nb: np.ndarray
    s_h: np.ndarray
    s: np.ndarray
    bounds: list


def _build_layout(cutoff: int) -> _SectorLayout:
    d = cutoff + 1
    bounds = [k * (k + 1) // 2 for k in range(d + 1)]
    total = np.repeat(np.arange(d), np.arange(1, d + 1))
    na = np.arange(total.size) - np.array(bounds)[total]
    return _SectorLayout(cutoff, na, total - na, _I_POW[-na % 4][:, None], _I_POW[na % 4][:, None], bounds)


_layout = _build_layout(0)


def _sector_layout(cutoff: int) -> _SectorLayout:
    """The layout of the largest cutoff seen so far, grown to `cutoff` if needed."""
    global _layout
    if cutoff > _layout.cutoff:
        _layout = _build_layout(cutoff)
    return _layout


def _apply_bs_array(arr: np.ndarray, cutoff: int) -> np.ndarray:
    """First splitter, in place, on one grid (d, d) or a stack of grids (k, d, d).

    Sector entries are gathered sector-major, (entries, k), times S^H; each
    sector then takes one real product with its rotation on the
    (entries, 2k) float64 view of the gathered amplitudes, for the whole
    stack, and S goes back on in the scatter. Multiplying by a power of i
    is exact. Entries outside sectors 0..cutoff pass through. `arr` must be
    a C-contiguous complex128 array, else ValueError; it is returned.
    """
    if arr.dtype != np.complex128 or not arr.flags.c_contiguous:
        raise ValueError(f"the splitter needs a C-contiguous complex128 grid, got {arr.dtype}")
    layout = _sector_layout(cutoff)
    bounds = layout.bounds[: cutoff + 2]
    size = bounds[-1]
    d = cutoff + 1
    idx = layout.na[:size] * d + layout.nb[:size]
    flat = arr.reshape(*arr.shape[:-2], d * d).T  # (d*d,) or (d*d, k), a view of arr
    packed = np.ascontiguousarray(flat[idx]).reshape(size, -1)
    packed *= layout.s_h[:size]
    pairs = packed.view(np.float64)  # (entries, 2k): real and imaginary parts
    for lo, hi, rot in zip(bounds, bounds[1:], _bs_blocks(cutoff)):
        seg = pairs[lo:hi]
        seg[...] = rot @ seg
    packed *= layout.s[:size]
    flat[idx] = packed.reshape(size, *flat.shape[1:])
    return arr


@lru_cache(maxsize=4)
def _outside_sectors(cutoff: int) -> np.ndarray:
    """Read-only (d, d) mask of the grid corner n_a + n_b > cutoff."""
    n = np.arange(cutoff + 1)
    return _read_only(n[:, None] + n[None, :] > cutoff)


# -- loss -------------------------------------------------------------------


def _lose_one(w, total, lost, loss, out: np.ndarray) -> np.ndarray:
    """Loss weights one lost photon on, into `out` (which may be `w`):
    w(j, n) = w(j - 1, n) * (n + j) / j * l for total = n + j and lost = j,
    where w(j, n) = Binom(n + j, j) l^j eta^n weighs j photons lost and n
    surviving. Every loss weight is this step applied to w(0, n) = eta^n
    (Python float pow: numpy's power can differ in the last bit)."""
    np.multiply(w, total, out=out)
    np.divide(out, lost, out=out)
    return np.multiply(out, loss, out=out)


def _loss_sectors(prev: np.ndarray, top: int, loss: float):
    """Sectors k = prev.size..top of the loss weights, each built from the
    whole sector before it (`prev`, sector prev.size - 1; empty before
    sector 0), as `LossWeightTable` lays them out: (survived, lost, weight)
    k-major with j ascending, each row ended as its docstring says, each
    row's entry count, and the whole of sector top."""
    ks = np.arange(prev.size, top + 1)
    kf = ks.astype(float)
    w = np.zeros((ks.size, top + 1))  # w[i, j] = w(j, k - j), k = ks[i]; 0 past j = k
    w[:, 0] = [(1.0 - loss) ** k for k in ks.tolist()]
    lost = np.arange(1.0, top + 1)
    scale = np.array(loss)  # 0-d arrays, as kf[i, ...], are cheaper ufunc operands than floats
    for i, (row, k) in enumerate(zip(w, ks.tolist())):
        _lose_one(prev, kf[i, ...], lost[:k], scale, out=row[1 : k + 1])
        prev = row[: k + 1]
    # rem[j] = w[j+1] + ... + w[top], summed from the top (the zeros past
    # j = k add nothing), times gmax2: the kerr generator is O(k^2), squared
    # and padded; rem[top] = 0 is left out
    rem = np.cumsum(w[:, :0:-1], axis=1)[:, ::-1]
    rem *= np.array([float(k) ** 8 + 1.0 for k in ks.tolist()])[:, None]
    # a row ends at its first j with rem * gmax2 < 1e-14, or at j = k; rem
    # never grows with j, so that first j is the count of the j with
    # rem * gmax2 >= 1e-14
    counts = np.minimum(np.count_nonzero(rem >= 1e-14, axis=1), ks) + 1
    rows = np.repeat(np.arange(ks.size), counts)
    lostj = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    lostf = lostj.astype(float)
    return kf[rows] - lostf, lostf, w[rows, lostj], counts, prev.copy()


class _LossChannel:
    """The loss weight table's rows at one nonzero loss, which depend on
    photon numbers only, never on the state, shared by every oracle row at
    that loss: sectors k = 0..K of `_loss_sectors` in one table, with each
    row's entry count, read by prefix, and the whole of sector K, from which
    the sectors past K are appended when a larger cutoff asks for them. All
    of it is read-only."""

    def __init__(self, loss: float):
        self.loss = loss
        self.survived = self.lost = self.weight = self.last = np.zeros(0)
        self.counts = self.ends = np.zeros(0, dtype=int)  # entries of each row, and the offset past it

    def rows(self, top: int):
        """Sectors 0..top: survived, lost, weight and the rows' entry counts."""
        if top >= self.counts.size:
            old = (self.survived, self.lost, self.weight, self.counts)
            *new, last = _loss_sectors(self.last, top, self.loss)
            self.survived, self.lost, self.weight, self.counts = (
                _read_only(np.concatenate(pair)) for pair in zip(old, new)
            )
            self.ends = np.cumsum(self.counts)
            self.last = _read_only(last)
        n = int(self.ends[top])
        return self.survived[:n], self.lost[:n], self.weight[:n], self.counts[: top + 1]


_channel = _LossChannel(0.0)  # a stand-in: no channel is built without loss


def _loss_channel(loss: float) -> _LossChannel:
    """The channel of the most recent nonzero loss asked for; another loss
    replaces it, so at most one is kept."""
    global _channel
    if loss != _channel.loss:
        _channel = _LossChannel(loss)
    return _channel


def _kraus_prefactors(arr: np.ndarray, l: float, total_in: float):
    """Loss-branch prefactors on the b mode of one pure branch, and their trace.

    Branch j maps arr[n_a, n_b + j] to arr[n_a, n_b + j] * pref_j[n_b], with
    pref_j[n_b] = sqrt(w(j, n_b)) for n_b = 0..cutoff - j, the weights walked
    branch by branch with `_lose_one`, as the channel's rows take them. Its
    weight is taken from the column masses of arr, and branches stop once the
    rest of total_in, arr's squared norm, is below 1e-14 of it. Without loss
    branch 0 alone, of prefactor 1, carries weight.
    """
    size = arr.shape[1]
    colmass = np.sum(np.abs(arr) ** 2, axis=0)
    total = np.arange(size, dtype=float)  # n + j from j = 0, and total[j, ...] = j (0-d)
    scale = np.array(l)
    w = np.array([(1.0 - l) ** n for n in range(size)])
    prefs = []
    cum = 0.0
    for j in range(size if l else 1):
        if j:
            w = w[:-1]
            _lose_one(w, total[j:], total[j, ...], scale, out=w)
        prefs.append(np.sqrt(w))
        cum += float((colmass[j:] * w).sum())
        if total_in - cum < 1e-14 * max(total_in, 1e-300):
            break
    return prefs, cum


def _loss_trace_check(cum: float, total_in: float):
    if not abs(cum - total_in) <= 1e-9 * max(total_in, 1e-300):
        raise TraceDrift(f"loss channel trace moved from {total_in!r} to {cum!r}")


# -- input construction and cutoff policy ------------------------------------


def _pasvs_probs(r: float, m: int, length: int) -> np.ndarray:
    """Photon-number distribution of the photon-added squeezed vacuum on
    0..length-1: level k + m (k even) holds |c_k|^2 (k+1)...(k+m) / norm, where
    the squeezed-vacuum amplitude c_k grows by tanh(r) sqrt((k+1)(k+2)) / (k+2)
    from one even level to the next."""
    th, sech = math.tanh(r), 1.0 / math.cosh(r)
    k = np.arange(0, length - m, 2)
    steps = np.empty(k.size)
    steps[0] = math.sqrt(sech)
    steps[1:] = th * np.sqrt((k[:-1] + 1) * (k[:-1] + 2)) / (k[:-1] + 2)
    amp = np.cumprod(steps)
    rising = np.ones(k.size)
    for i in range(1, m + 1):
        rising *= k + i
    probs = np.zeros(length)
    probs[k + m] = amp * amp * rising
    return probs / pasvs_norm(r, m)


def _coherent_probs(alpha: float, length: int) -> np.ndarray:
    if alpha == 0.0:
        out = np.zeros(length)
        out[0] = 1.0
        return out
    n = np.arange(length)
    return np.exp(-alpha * alpha + n * (2.0 * math.log(alpha)) - _log_factorial_table(length))


def _support_end(probs: np.ndarray) -> int:
    """One past the last entry of `probs` at or above _SUPPORT_FLOOR."""
    return int(np.flatnonzero(probs >= _SUPPORT_FLOOR)[-1]) + 1


def default_cutoff(p: ProbeParams, weight: int = 0) -> int:
    """Sector cutoff from the exact total-photon distribution of the input.

    Picks the smallest N with sum_{total > N} total^weight q_total below
    SECTOR_TOL of the full weighted mass, where q is the convolution of the
    two single-mode photon distributions. Because the splitters conserve
    total photon number and n_b <= total, this bounds the truncation error
    of any later observable growing at most like n_b^weight.

    The distributions are doubled in length until the last two levels of
    each are below 1e-16: the photon-added squeezed vacuum fills only the
    levels of m's parity, so one level alone can be exactly 0 inside a tail
    that still matters. Each is convolved only up to its last level at or
    above _SUPPORT_FLOOR, and a zero appended lets the tail test end past it.
    """
    length = 1024
    while True:
        pa = _coherent_probs(p.alpha, length)
        pb = _pasvs_probs(p.r, p.m, length)
        if max(pa[-2:]) < 1e-16 and max(pb[-2:]) < 1e-16:
            break
        length *= 2
        if length > _LENGTH_MAX:
            raise CutoffTooSmall("input photon distributions too wide for the oracle")
    q = np.append(np.convolve(pa[: _support_end(pa)], pb[: _support_end(pb)]), 0.0)
    totals = np.arange(q.size, dtype=float)
    wq = q * totals**weight
    total_mass = float(np.sum(wq))
    tail = np.cumsum(wq[::-1])[::-1]
    ok = np.nonzero(tail <= SECTOR_TOL * total_mass)[0]
    if ok.size == 0:
        raise CutoffTooSmall("no cutoff satisfies the sector tail budget")
    nc = int(ok[0])  # first index whose own-and-above tail is small enough
    nc = max(nc, p.m + 2, 8)
    nc = (nc + 7) // 8 * 8  # quantize for block-cache reuse
    if nc > SECTOR_LIMIT:
        raise CutoffTooSmall(
            f"required sector cutoff {nc} exceeds the oracle limit {SECTOR_LIMIT}"
        )
    return nc


def _prepared_after_first_splitter(p: ProbeParams, cutoff: int) -> np.ndarray:
    """Input grid, coherent (a) x photon-added squeezed vacuum (b), after the
    first 50:50 splitter, amplitudes[n_a, n_b] on 0..cutoff.

    The grid is clipped to complete sectors (n_a + n_b up to the cutoff) and
    renormalised; the discarded corner carries at most the sector tail
    budget, so the splitter then acts exactly per photon sector. The state
    is renormalised again if the splitter moved its norm by less than 1e-9,
    else UnitarityDrift.
    """
    arr = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    np.outer(coherent_fock_amplitudes(p.alpha, cutoff), pasvs_fock_amplitudes(p.r, p.m, cutoff), out=arr.real)
    arr[_outside_sectors(cutoff)] = 0.0
    nrm = _norm(arr)
    if 1.0 - nrm * nrm > 1e-9:
        raise CutoffTooSmall(f"sector clip removed {1 - nrm * nrm:.3e} probability")
    arr /= nrm
    before = _norm(arr)
    if not math.isfinite(before):
        raise ConsistencyError(f"state has a non-finite squared norm ({before * before}): NaN or inf amplitude")
    _apply_bs_array(arr, cutoff)
    after = _norm(arr)
    drift = abs(after - before)
    if not drift < 1e-9 * max(before, 1e-300):
        raise UnitarityDrift(f"norm drifted by {drift:.3e} across the splitter")
    if after > 0:
        arr *= before / after
    return arr


# -- pipeline observables -----------------------------------------------------


@lru_cache(maxsize=1)
def _triangle(cutoff: int) -> tuple:
    """Read-only n_a, n_b, flat index, mirrored flat index (n_b, n_a) and
    delta = n_b - n_a of the grid entries with n_a <= n_b in sectors
    0..cutoff, row-major."""
    d = cutoff + 1
    na, nb = np.nonzero(np.triu(~_outside_sectors(cutoff)))
    return tuple(_read_only(a) for a in (na, nb, na * d + nb, nb * d + na, nb - na))


def parity_signal_oracle(
    p: ProbeParams, cutoff: int | None = None
) -> tuple[float, float, float]:
    """Output parity with its first two exact phase derivatives.

    The second splitter is not applied. Behind it, the parity of the b port
    is a signed exchange of the two modes within each total-photon sector:
    with the second splitter conj(U), U = S R S^H the first's sector block,
    conj(U)^H (-1)^n_b conj(U) maps |n_a, n_b> to i^(n_b - n_a) |n_b, n_a>
    (tests/test_oracle.py checks this on every sector up to 160). So a pure
    branch v = e^{i phi n_b} y has parity
    sum_k y_k conj(y_k') (i e^{i phi})^delta_k, with k' the entry
    k = (n_a, n_b) mirrored to (n_b, n_a) and delta = n_b - n_a, and the
    phase derivatives bring down factors i delta. The sum over the
    loss branches, g_k = sum_j y_j[k] conj(y_j[k']), is accumulated one branch
    at a time, and only on the entries with n_a <= n_b: the mirror's term is
    the conjugate, so each entry off the diagonal counts twice. The cost is
    a few gathers of half a grid per branch, with no matrix product.
    No branch grid is built: loss branch j's entry at (n_a, n_b) is gathered
    straight from the post-splitter grid's entry (n_a, n_b + j), times the
    branch's prefactor at n_b, with the branch stop of `_kraus_prefactors`
    and the trace check of `_loss_trace_check`.
    """
    nc = default_cutoff(p, weight=0) if cutoff is None else cutoff
    after_bs1 = _prepared_after_first_splitter(p, nc)
    total_in = _norm(after_bs1) ** 2
    prefs, cum = _kraus_prefactors(after_bs1, p.loss, total_in)
    _loss_trace_check(cum, total_in)
    d = nc + 1
    na, nb, here, mirror, delta = _triangle(nc)
    # pad[n] = pref_j[n], 0 where n + j > cutoff; there the gathers read the
    # next grid row, but never past the grid's end
    pad = np.zeros(d)
    flat = after_bs1.ravel()
    g = np.zeros(na.size, dtype=np.complex128)
    for j, pref in enumerate(prefs):
        pad[: pref.size] = pref
        pad[pref.size :] = 0.0
        shifted = flat[j:]  # shifted[k] = flat[k + j]
        g += shifted[here] * pad[nb] * np.conj(shifted[mirror] * pad[na])
    h = g * _I_POW[delta % 4] * np.exp(1j * p.phi * np.arange(d))[delta]
    h[delta > 0] *= 2.0
    delta = delta.astype(float)
    return float(h.real.sum()), float(-(delta * h.imag).sum()), float(-(delta * delta * h.real).sum())


def moments_oracle(p: ProbeParams, w: int, cutoff: int | None = None) -> float:
    """<n_b^w> just after the first splitter (pre-loss probe arm)."""
    if not isinstance(w, (int, np.integer)) or w < 0:
        raise ParamOutOfRange(f"moment order must be a non-negative int, got {w!r}")
    marg = probe_marginal(p, weight=int(w), cutoff=cutoff)
    n = np.arange(marg.size, dtype=float)
    return float(np.dot(marg, n**w))


def probe_marginal(p: ProbeParams, weight: int = 2, cutoff: int | None = None) -> np.ndarray:
    """Photon-number distribution of the probe arm just after the first splitter.

    Read only: the last two (alpha, r, m, weight, cutoff) are kept, so the
    rows of a sweep that differ only in loss or phase build it once."""
    return _probe_marginal(p.alpha, p.r, p.m, weight, cutoff)


@lru_cache(maxsize=2)  # a row's weight-2 (linear) and weight-4 (Kerr) marginals
def _probe_marginal(alpha: float, r: float, m: int, weight: int, cutoff: int | None) -> np.ndarray:
    p = ProbeParams(alpha=alpha, r=r, m=m)
    nc = default_cutoff(p, weight=weight) if cutoff is None else cutoff
    amp = np.abs(_prepared_after_first_splitter(p, nc))
    return _read_only(np.sum(np.square(amp, out=amp), axis=0))


@dataclass(frozen=True)
class LossWeightTable:
    """Joint distribution of (surviving photons, lost photons) under the channel.

    Entries enumerate (k - j, j) with weight P_k * Binom(k, j) l^j eta^(k-j),
    k-major with j ascending, over every k with P_k != 0. Each k's j run
    stops at its first j where rem * (k^8 + 1) < 1e-14, or at j = k. rem is
    the rest of its binomial mass, w_{j+1} + ... + w_k, summed from the top:
    so it falls with the binomial tail, where 1 - w_0 - ... - w_j would stop
    at a rounding floor of about 1e-16 and keep close to the full (k, j)
    triangle. The weights are not renormalised.
    """

    survived: np.ndarray
    lost: np.ndarray
    weight: np.ndarray


def loss_weight_table(marginal: np.ndarray, loss: float) -> LossWeightTable:
    """The table of `marginal` at `loss`: the channel's rows k up to
    the last nonzero P_k (only those of nonzero P_k where the support has
    zeros), each entry's weight times its row's P_k."""
    _check_loss(loss)
    marginal = np.asarray(marginal, dtype=float)
    ks = np.flatnonzero(marginal)
    if not ks.size:
        empty = np.zeros(0)
        return LossWeightTable(empty, empty, empty)
    if loss == 0:
        # what the channel's rows give: eta**k == 1.0, and every row ends at j = 0
        return LossWeightTable(ks.astype(float), np.zeros(ks.size), marginal[ks] * 1.0)
    top = int(ks[-1])
    survived, lost, binom, counts = _loss_channel(loss).rows(top)
    if ks.size <= top:
        keep = np.repeat(marginal[: top + 1] != 0, counts)
        survived, lost, binom, counts = survived[keep], lost[keep], binom[keep], counts[ks]
    return LossWeightTable(survived, lost, np.repeat(marginal[ks], counts) * binom)


def cq_from_table(table: LossWeightTable, g: np.ndarray) -> float:
    """C_Q = 4 Var_w(g) of a diagonal Kraus family from the precomputed weight
    table, given its phase exponent g at each (survived, lost) entry."""
    h1 = float(np.dot(table.weight, g * g))
    h2 = float(np.dot(table.weight, g))
    return 4.0 * (h1 - h2 * h2)

