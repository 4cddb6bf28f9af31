"""A fixed reference computation that measures how fast the host is right now.

On a shared host the same code runs at different speeds from one minute to
the next, because other tenants load the cores it shares: on the 2-vCPU
machine of the baseline the same sweep takes 0.15 s or 0.24 s depending on
the moment. The benchmark runs `reference()` before the first timed sweep and
after every sweep, and rescales each sweep's time by how long the reference
took around it. A rescaled time reads the same whatever the host's speed at
the moment, and moves when the program's own cost moves.

The reference mixes the three kinds of work the program does: batch-1
truncated products of small coefficient arrays (Python and numpy call
overhead, as in the jets at batch 1), the same product over 400 rows in
chunks of 50 (memory traffic, as in the optimal-phase kernel's 1001-point
batches; the chunks keep the benchmark's own share of `peak_rss_mb` small),
and complex matrix-vector products with a small eigen-decomposition (as in
the Fock engine). It uses only numpy and imports nothing from the program, so it is
the same work on every commit.

REFERENCE_S is the nominal duration of one `reference()` call, about what it
takes on the baseline machine at its faster level. A rescaled time is the
time the same work would take on a host where `reference()` takes exactly
REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010


def _plan(cap: int, n_vars: int):
    """Gather indices of a truncated product on an n_vars-dimensional cube."""
    ia = ib = iout = np.zeros(1, dtype=np.int64)
    stride = 1
    for _ in range(n_vars):
        i, j = np.meshgrid(np.arange(cap + 1), np.arange(cap + 1), indexing="ij")
        keep = (i + j) <= cap
        di, dj = i[keep] * stride, j[keep] * stride
        ia = (ia[:, None] + di[None, :]).ravel()
        ib = (ib[:, None] + dj[None, :]).ravel()
        iout = (iout[:, None] + (di + dj)[None, :]).ravel()
        stride *= cap + 1
    order = np.argsort(iout, kind="stable")
    ia, ib, iout = ia[order], ib[order], iout[order]
    return ia, ib, np.searchsorted(iout, np.arange(stride)), stride


_IA, _IB, _BOUNDS, _NCOEFF = _plan(3, 3)
_RNG = np.random.default_rng(20260101)
_SMALL = _RNG.standard_normal((1, _NCOEFF)) + 1j * _RNG.standard_normal((1, _NCOEFF))
_LARGE = _RNG.standard_normal((400, _NCOEFF)) + 1j * _RNG.standard_normal((400, _NCOEFF))
_HERM = _RNG.standard_normal((64, 64))
_HERM = _HERM + _HERM.T
_MAT = _RNG.standard_normal((128, 128)) + 1j * _RNG.standard_normal((128, 128))
_VEC = _RNG.standard_normal(128) + 1j * _RNG.standard_normal(128)


# buffers of the chunked product: the reference allocates nothing large, so
# its time does not depend on how the program has left the allocator
_GA = np.empty((50, len(_IA)), dtype=complex)
_GB = np.empty_like(_GA)
_OUT = np.empty((50, _NCOEFF), dtype=complex)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.add.reduceat(a[:, _IA] * b[:, _IB], _BOUNDS, axis=1)


def _chunk_product(a: np.ndarray) -> np.ndarray:
    np.take(a, _IA, axis=1, out=_GA)
    np.take(a, _IB, axis=1, out=_GB)
    np.multiply(_GA, _GB, out=_GA)
    return np.add.reduceat(_GA, _BOUNDS, axis=1, out=_OUT)


def reference() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = _SMALL
    for _ in range(200):
        acc = _product(acc, _SMALL) * 1e-3 + _SMALL
    big = 0.0
    for i in range(0, len(_LARGE), 50):
        big += _chunk_product(_LARGE[i : i + 50])[0, 0]
    vals, vecs = np.linalg.eigh(_HERM)
    v = _VEC
    for _ in range(300):
        v = _MAT @ v
        v = v / np.abs(v).max()
    return float(abs(acc[0, 0]) + abs(big) + vals[0] + abs(v[0]) + abs(vecs[0, 0]))


def timed_reference(calls: int = 1) -> float:
    """Seconds one `reference()` call takes now: the median of `calls` calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescale(seconds: float, ref_s: float) -> float:
    """`seconds` measured while `reference()` took `ref_s`, at the nominal speed."""
    return seconds * REFERENCE_S / ref_s
