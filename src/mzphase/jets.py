"""Truncated power series in one variable, and the closed-form coefficient
extraction the generating kernels are read with.

The parity and moment generating kernels are Gaussian in their two
photon-addition variables t and tau. `gaussian_tt_coefficient` reads their
[t^m tau^m] coefficient off a finite closed-form sum, so the kernels carry
every coefficient as a truncated power series in the one remaining variable:
the phase, to order 2, for the parity value, slope and curvature; the moment
variable, to order 4, for the four moments.

A `Series` holds the coefficients c_0..c_cap of one such series at many base
points as a (batch, cap + 1) complex array. Sums, products and the analytic
maps exp / 1/x / sqrt act on it exactly modulo the truncation, point by
point. A series of batch 1 broadcasts against a batched one, and a 1-D array
with one number per batch point acts as a per-point constant. The tests
build the same kernels the long way, as multivariate jets in (t, tau, .)
(`tests/jet_reference.py`), as an independent check.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import SingularConstantTerm


@cache
def _plan(cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every coefficient pair (ia, ib) of a truncated product, output order k
    by order k with ia ascending, and where each k's run starts, so one
    reduceat performs the whole product."""
    ia = np.array([i for k in range(cap + 1) for i in range(k + 1)])
    ib = np.array([k - i for k in range(cap + 1) for i in range(k + 1)])
    bounds = np.array([k * (k + 1) // 2 for k in range(cap + 1)])
    return ia, ib, bounds


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ia, ib, bounds = _plan(a.shape[1] - 1)
    prod = a[:, ia] * b[:, ib]
    return np.add.reduceat(prod, bounds, axis=1)


class Series:
    """Coefficients c_0..c_cap of a truncated series, one row per batch point."""

    __slots__ = ("c",)

    # numpy defers to the reflected operators, so `array - series` and
    # `array * series` reach __rsub__ / __rmul__ instead of broadcasting
    __array_ufunc__ = None

    def __init__(self, c: np.ndarray):
        self.c = c

    @classmethod
    def constant(cls, value, cap: int) -> "Series":
        """A constant: one number, or one per batch point."""
        vals = np.atleast_1d(np.asarray(value, dtype=np.complex128)).ravel()
        c = np.zeros((vals.size, cap + 1), dtype=np.complex128)
        c[:, 0] = vals
        return cls(c)

    @classmethod
    def variable(cls, cap: int) -> "Series":
        """The series variable itself."""
        c = np.zeros((1, cap + 1), dtype=np.complex128)
        c[0, 1] = 1.0
        return cls(c)

    @property
    def cap(self) -> int:
        return self.c.shape[1] - 1

    def take(self, idx) -> "Series":
        """The series at the batch points `idx` (an index array)."""
        return Series(self.c[idx])

    def derivative(self, k: int) -> np.ndarray:
        """The k-th derivative at 0, k! c_k, of every batch point."""
        return self.c[:, k] * math.factorial(k)

    # -- ring operations ---------------------------------------------------

    def _lift(self, other) -> np.ndarray:
        """`other` as coefficients: a series, or a constant (one number, or one
        per batch point). A constant is a whole zero-padded row, so every
        coefficient goes through the same addition whatever the operand."""
        return other.c if isinstance(other, Series) else Series.constant(other, self.cap).c

    def __add__(self, other):
        return Series(self.c + self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Series(self.c - self._lift(other))

    def __rsub__(self, other):
        return Series(self._lift(other) - self.c)

    def __mul__(self, other):
        if isinstance(other, Series):
            return Series(_mul(self.c, other.c))
        if isinstance(other, np.ndarray):
            return Series(self.c * other[:, None])
        return Series(self.c * other)

    __rmul__ = __mul__

    # -- analytic maps -----------------------------------------------------

    def _split(self):
        """The constant terms as a (batch, 1) column, and the rest with c_0 = 0."""
        n = self.c.copy()
        n[:, 0] = 0.0
        return self.c[:, :1], n

    def _one(self) -> np.ndarray:
        out = np.zeros_like(self.c)
        out[:, 0] = 1.0
        return out

    def exp(self) -> "Series":
        """exp(c_0) times the exponential series of the rest."""
        c, n = self._split()
        out = self._one()
        term = out.copy()
        for k in range(1, self.cap + 1):
            term = _mul(term, n) / k
            if not term.any():
                break
            out = out + term
        return Series(out * np.exp(c))

    def recip(self) -> "Series":
        """1 / series via the geometric series in the rest over c_0."""
        c, n = self._split()
        if np.any(np.abs(c) == 0.0):
            raise SingularConstantTerm("cannot invert a series with zero constant term")
        u = n / c
        out = self._one()
        term = out.copy()
        for k in range(1, self.cap + 1):
            term = -_mul(term, u)
            if not term.any():
                break
            out = out + term
        return Series(out / c)

    def sqrt(self) -> "Series":
        """Principal square root via the binomial series in the rest over c_0."""
        c, n = self._split()
        if np.any(np.abs(c) == 0.0):
            raise SingularConstantTerm("cannot take sqrt of a series with zero constant term")
        u = n / c
        out = self._one()
        term = out.copy()
        coef = 1.0
        for k in range(1, self.cap + 1):
            coef *= (0.5 - (k - 1)) / k
            term = _mul(term, u)
            if not term.any():
                break
            out = out + coef * term
        return Series(out * np.sqrt(c))


def _hermite_terms(a, d, n_max: int) -> list:
    """H(0..n_max), the t^n coefficients of exp(a t^2 + d t).

    H(n) = sum_{j <= n/2} a^j d^(n-2j) / (j! (n-2j)!), built with the
    recurrence n H(n) = d H(n-1) + 2 a H(n-2) that follows from
    differentiating the exponential once.
    """
    h = [1.0, d]
    two_a = a * 2.0
    for n in range(2, n_max + 1):
        h.append((d * h[n - 1] + two_a * h[n - 2]) * (1.0 / n))
    return h[: n_max + 1]


def gaussian_tt_coefficient(m: int, pref, a, b, c, d, e):
    """[t^m tau^m] coefficient of pref * exp(a t^2 + b tau^2 + c t tau + d t + e tau).

    Expanding exp(c t tau) and pairing each power with the matching
    Hermite-type terms in t and tau gives
    sum_{k <= m} c^k / k! * H_{a,d}(m - k) * H_{b,e}(m - k). The arguments
    may be series in some other variable (or plain numbers); the result is
    of the same kind. The sum over k runs in Horner form in c.
    """
    ht = _hermite_terms(a, d, m)
    hs = _hermite_terms(b, e, m)
    acc = ht[0] * hs[0]
    for k in range(m, 0, -1):
        acc = ht[m - k + 1] * hs[m - k + 1] + c * acc * (1.0 / k)
    return pref * acc
