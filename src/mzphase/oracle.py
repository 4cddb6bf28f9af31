"""Independent brute-force Fock-space engine.

Everything here works on explicit two-mode photon-number grids: the input
product state is built from truncated Fock amplitude vectors, the first beam
splitter acts exactly on each total-photon sector (it conserves n_a + n_b),
loss on the probe arm is expanded into its Kraus branches, and phases are
diagonal. No generating-function shortcuts: this is the cross-check engine
for the analytic modules, sharing nothing with them but the state builders.

On sector N, with basis |n_a, N - n_a>, the 50:50 splitter
U_N = exp(-i pi/4 J), J = a^dag b + a b^dag, is an SU(2) rotation (Yurke,
McCall and Klauder, Phys. Rev. A 33, 4033 (1986)). J is real symmetric and
tridiagonal, and with S = diag(i^n_a) the matrix S^H J S is i times a real
antisymmetric one, so R_N = S^H U_N S is real orthogonal. Each sector's R_N
is built once per process from the spectral decomposition of J, stored in
float64 and shared by every cutoff; the splitter gathers a sector's entries
times S^H, takes one real product with R_N and scatters them back times S.
The blocks of sectors 0..N take sum (k+1)^2 * 8 B, which is about 11 MB up to
N = 160 and 0.58 GB up to SECTOR_LIMIT; they are freed only when the process
ends.

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

Log-factorials come from one cached table of `math.lgamma` values.
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
# i^k for k mod 4
_I_POW = np.array([1, 1j, -1, -1j])


@dataclass
class FockGrid:
    """Pure two-mode state on a square photon-number grid.

    amplitudes[n_a, n_b], both indices 0..cutoff, row-major with n_a as the
    slow index.
    """

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        d = self.cutoff + 1
        if self.amplitudes.shape != (d, d):
            raise ConsistencyError(
                f"amplitude grid {self.amplitudes.shape} does not match cutoff {self.cutoff}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def b_marginal(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)


@dataclass(frozen=True)
class KrausFamily:
    """Loss-channel Kraus family commuted past a phase shift.

    kind "linear": branch j imprints phase exponent (n - gamma * j).
    kind "kerr": branch j imprints n^2 - 2*mu1*n*j - mu2*j^2.
    Here n is the photon number surviving the loss.
    """

    kind: str
    loss: float
    gamma: float = 0.0
    mu1: float = 0.0
    mu2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "kerr"):
            raise ParamOutOfRange(f"kind must be 'linear' or 'kerr', got {self.kind!r}")
        if not 0 <= self.loss < 1:
            raise ParamOutOfRange(f"loss must lie in [0, 1), got {self.loss}")

    def generator(self, n, j):
        """Phase exponent imprinted on branch j at surviving photon number n."""
        if self.kind == "linear":
            return n - self.gamma * j
        return n * n - 2.0 * self.mu1 * n * j - self.mu2 * j * j


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


def _log_factorials(n: int) -> np.ndarray:
    """Read-only log k! for k = 0..n-1, each from `math.lgamma` (a running sum
    of logs drifts by about 1e-11). The table behind it is built once per
    power-of-two size from 1024 up."""
    return _log_factorial_table(max(1024, 1 << (n - 1).bit_length()))[:n]


# -- beam splitter ----------------------------------------------------------


@lru_cache(maxsize=None)
def _bs_block(total: int) -> np.ndarray:
    """Real rotation R = S^H U S of the 50:50 splitter on one sector.

    U = exp(-i pi/4 (a^dag b + a b^dag)) on sector N (total photons), basis
    |n_a, N - n_a>, n_a = 0..N, and S = diag(i^n_a). The coupling operator is
    real symmetric tridiagonal there, so U is built from its spectral
    decomposition; R is checked to be real and orthogonal to 1e-10 and kept
    as a float64 array. The block does not depend on the grid cutoff; it is
    cached for the life of the process and read only.
    """
    na = np.arange(total + 1)
    off = np.sqrt((na[:-1] + 1.0) * (total - na[:-1]))
    j_op = np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(j_op)
    u = (vecs * np.exp(-1j * (np.pi / 4) * vals)) @ vecs.T
    s = _I_POW[na % 4]
    rot = s.conj()[:, None] * u * s[None, :]
    residue = np.max(np.abs(rot.imag))
    if not residue < 1e-10:
        raise UnitarityDrift(f"sector {total} rotation has imaginary residue {residue:.3e}")
    rot = np.ascontiguousarray(rot.real)
    defect = np.max(np.abs(rot.T @ rot - np.eye(total + 1)))
    if not defect < 1e-10:
        raise UnitarityDrift(f"sector {total} block orthogonality defect {defect:.3e}")
    rot.flags.writeable = False
    return rot


@lru_cache(maxsize=4)  # its cache_info() counts cutoff changes in the traced benchmark
def _bs_blocks(cutoff: int) -> list:
    """The shared blocks of sectors 0..cutoff."""
    return [_bs_block(total) for total in range(cutoff + 1)]


def _sectors(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat grid indices of sectors 0..cutoff, sector after sector with n_a
    ascending, the n_a of each, and the offset at which each sector starts
    (cutoff + 2 entries)."""
    d = cutoff + 1
    total = np.repeat(np.arange(d), np.arange(1, d + 1))
    start = np.concatenate(([0], np.cumsum(np.arange(1, d + 1))))
    na = np.arange(total.size) - start[total]
    return na * d + (total - na), na, start


def _apply_bs_array(arr: np.ndarray, cutoff: int) -> np.ndarray:
    """First splitter on one grid (d, d) or a stack of grids (k, d, d).

    Sector entries are gathered sector-major, (entries, k), times S^H; each
    sector then takes one real product with its rotation on the
    (entries, 2k) float64 view of the gathered amplitudes, for the whole
    stack, and S goes back on in the scatter. Multiplying by a power of i
    is exact. Entries outside sectors 0..cutoff pass through.
    """
    idx, na, start = _sectors(cutoff)
    out = np.array(arr, dtype=np.complex128)
    d = cutoff + 1
    flat = out.reshape(*arr.shape[:-2], d * d).T  # (d*d,) or (d*d, k), a view of out
    packed = np.ascontiguousarray(flat[idx]).reshape(idx.size, -1)
    packed *= _I_POW[-na % 4][:, None]
    pairs = packed.view(np.float64)  # (entries, 2k): real and imaginary parts
    for total, rot in enumerate(_bs_blocks(cutoff)):
        seg = pairs[start[total] : start[total + 1]]
        seg[...] = rot @ seg
    packed *= _I_POW[na % 4][:, None]
    flat[idx] = packed.reshape(idx.size, *flat.shape[1:])
    return out


@lru_cache(maxsize=4)
def _outside_sectors(cutoff: int) -> np.ndarray:
    """Read-only (d, d) mask of the grid corner n_a + n_b > cutoff."""
    n = np.arange(cutoff + 1)
    mask = n[:, None] + n[None, :] > cutoff
    mask.flags.writeable = False
    return mask


def _sector_mass_check(arr: np.ndarray, cutoff: int):
    """Probability mass outside total-photon sectors 0..cutoff must be negligible.

    A grid with a NaN or inf amplitude is no state at all, whatever its
    cutoff: its non-finite norm is a ConsistencyError of its own."""
    total = float(np.vdot(arr, arr).real)
    if not math.isfinite(total):
        raise ConsistencyError(f"state has a non-finite squared norm ({total}): NaN or inf amplitude")
    corner = arr[_outside_sectors(cutoff)]
    mass = float(np.vdot(corner, corner).real)
    if not mass <= 1e-12 * max(total, 1e-300):
        raise CutoffTooSmall(
            f"state has {mass:.3e} of {total:.3e} outside retained sectors; increase cutoff"
        )


def _first_splitter(state: FockGrid) -> FockGrid:
    """The first 50:50 splitter on a pure state, exactly per photon sector.

    Requires the state's support to sit in complete sectors (n_a + n_b up to
    the grid cutoff); mass outside is an error. The state is renormalized if
    its norm drifted by less than 1e-9, else UnitarityDrift.
    """
    _sector_mass_check(state.amplitudes, state.cutoff)
    before = state.norm
    out = _apply_bs_array(state.amplitudes, state.cutoff)
    after = float(np.linalg.norm(out))
    drift = abs(after - before)
    if not drift < 1e-9 * max(before, 1e-300):
        raise UnitarityDrift(f"norm drifted by {drift:.3e} across the splitter")
    if after > 0:
        out *= before / after
    return FockGrid(state.cutoff, out)


# -- loss -------------------------------------------------------------------


def _kraus_prefactors(arr: np.ndarray, l: float, total_in: float):
    """Loss-branch prefactors on the b mode of one pure branch, and their trace.

    Branch j maps arr[n_a, n_b + j] to arr[n_a, n_b + j] * pref_j[n_b], with
    pref_j[n_b] = sqrt(Binom(n_b + j, j) l^j eta^n_b) for n_b = 0..cutoff - j.
    Its weight is taken from the column masses of arr, and branches stop once
    the rest of arr's norm is below 1e-14 of total_in.
    """
    size = arr.shape[1]
    eta = 1.0 - l
    lf = _log_factorials(size)
    n_log_eta = np.arange(size) * math.log(eta)
    colmass = np.sum(np.abs(arr) ** 2, axis=0)
    prefs = []
    acc = float(np.vdot(arr, arr).real)
    cum = 0.0
    for j in range(size):
        logw2 = (j * math.log(l) if j else 0.0) - lf[j] + n_log_eta[: size - j] + lf[j:] - lf[: size - j]
        pref = np.exp(0.5 * logw2)
        prefs.append(pref)
        cum += float(np.dot(colmass[j:], pref * pref))
        if acc - cum < 1e-14 * max(total_in, 1e-300):
            break
    return prefs, cum


def _loss_trace_check(cum: float, total_in: float):
    if not abs(cum - total_in) <= 1e-9 * max(total_in, 1e-300):
        raise TraceDrift(f"loss channel trace moved from {total_in!r} to {cum!r}")


# -- input construction and cutoff policy ------------------------------------


def build_input_state(p: ProbeParams, cutoff: int) -> FockGrid:
    """Coherent (a) x photon-added squeezed vacuum (b) on a square grid."""
    ca = coherent_fock_amplitudes(p.alpha, cutoff)
    cb = pasvs_fock_amplitudes(p.r, p.m, cutoff)
    amps = np.outer(ca, cb).astype(np.complex128)
    return FockGrid(cutoff, amps)


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
    return np.exp(-alpha * alpha + n * (2.0 * math.log(alpha)) - _log_factorials(length))


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
    that still matters.
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
    q = np.convolve(pa, pb)
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


def _prepared_after_first_splitter(p: ProbeParams, cutoff: int) -> FockGrid:
    arr = build_input_state(p, cutoff).amplitudes
    # clip to complete sectors; the discarded corner carries at most the
    # sector tail budget and the splitter then acts exactly
    arr[_outside_sectors(cutoff)] = 0.0
    nrm = float(np.linalg.norm(arr))
    if 1.0 - nrm * nrm > 1e-9:
        raise CutoffTooSmall(f"sector clip removed {1 - nrm * nrm:.3e} probability")
    arr /= nrm
    return _first_splitter(FockGrid(cutoff, arr))


# -- pipeline observables -----------------------------------------------------


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
    total_in = after_bs1.norm ** 2
    prefs, cum = _kraus_prefactors(after_bs1.amplitudes, p.loss, total_in)
    _loss_trace_check(cum, total_in)
    d = nc + 1
    na, nb = np.nonzero(np.triu(~_outside_sectors(nc)))
    here, mirror = na * d + nb, nb * d + na
    # pad[n] = pref_j[n], 0 where n + j > cutoff; there the gathers read the
    # next grid row, but never past the grid's end
    pad = np.zeros(d)
    flat = after_bs1.amplitudes.ravel()
    g = np.zeros(na.size, dtype=np.complex128)
    for j, pref in enumerate(prefs):
        pad[: pref.size] = pref
        pad[pref.size :] = 0.0
        g += flat[here + j] * pad[nb] * np.conj(flat[mirror + j] * pad[na])
    delta = nb - na
    h = g * _I_POW[delta % 4] * np.exp(1j * p.phi * delta)
    h[delta > 0] *= 2.0
    delta = delta.astype(float)
    return float(np.sum(h.real)), float(-np.dot(delta, h.imag)), float(-np.dot(delta * delta, h.real))


def moments_oracle(p: ProbeParams, w: int, cutoff: int | None = None) -> float:
    """<n_b^w> just after the first splitter (pre-loss probe arm)."""
    if not isinstance(w, (int, np.integer)) or w < 0:
        raise ParamOutOfRange(f"moment order must be a non-negative int, got {w!r}")
    nc = default_cutoff(p, weight=int(w)) if cutoff is None else cutoff
    after_bs1 = _prepared_after_first_splitter(p, nc)
    marg = after_bs1.b_marginal()
    n = np.arange(nc + 1, dtype=float)
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
    marg = _prepared_after_first_splitter(p, nc).b_marginal()
    marg.flags.writeable = False
    return marg


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
    if not 0 <= loss < 1:
        raise ParamOutOfRange(f"loss must lie in [0, 1), got {loss}")
    eta = 1.0 - loss
    ks = np.flatnonzero(marginal)
    if not ks.size:
        empty = np.zeros(0)
        return LossWeightTable(empty, empty, empty)
    kf = ks.astype(float)
    width = int(ks[-1]) + 1
    # w[j] = Binom(k, j) l^j eta^(k-j) over the rows k, by the recurrence in j.
    # It is 0 from j = k + 1 on and never above 1, so every row runs to width.
    # The start is Python float pow: numpy's power can differ in the last bit.
    w = np.empty((width, ks.size))
    w[0] = [eta**k for k in ks.tolist()]
    scale = loss / eta
    for j, (prev, nxt, k_minus_j) in enumerate(zip(w, w[1:], kf - np.arange(width - 1.0)[:, None])):
        np.multiply(prev, k_minus_j, out=nxt)
        np.divide(nxt, j + 1, out=nxt)
        np.multiply(nxt, scale, out=nxt)
    # rem after step j is w[j+1] + ... + w[width-1], summed from the top
    rem = np.zeros_like(w)
    np.cumsum(w[:0:-1], axis=0, out=rem[-2::-1])
    w, rem = w.T, rem.T  # (row, j) from here on: k-major, j ascending
    gmax2 = np.array([float(k) ** 8 + 1.0 for k in ks.tolist()])  # kerr generator is O(k^2); squared and padded
    j = np.arange(width, dtype=float)
    # a row ends at its first j with rem * gmax2 < 1e-14, or at j = k
    last = np.argmax((rem * gmax2[:, None] < 1e-14) | (j >= kf[:, None]), axis=1)
    kept = j <= last[:, None]
    lost = np.broadcast_to(j, kept.shape)[kept]
    return LossWeightTable(
        np.broadcast_to(kf[:, None], kept.shape)[kept] - lost,
        lost,
        (np.asarray(marginal, dtype=float)[ks][:, None] * w)[kept],
    )


def cq_from_table(table: LossWeightTable, family: KrausFamily) -> float:
    """C_Q of a diagonal Kraus family from the precomputed weight table."""
    g = family.generator(table.survived, table.lost)
    h1 = float(np.dot(table.weight, g * g))
    h2 = float(np.dot(table.weight, g))
    return 4.0 * (h1 - h2 * h2)

