"""The generating kernels built the long way, as an independent third route.

Production code reads the [t^m tau^m] coefficient of the parity and moment
kernels off a closed-form sum with univariate series (`mzphase.jets.Series`).
Here the same kernels are built as full multivariate jets in (t, tau, phi),
(t, tau, x) and (t, tau), exponentiated as a whole, and the coefficient is
extracted directly. This is the construction the package used before the
closed form, kept for tests only: its cost grows like batch * m^4, so callers
keep m and the batch small.

A jet stores every mixed Taylor coefficient of a smooth function around 0 up
to a per-variable truncation order (its "cap"). Sums, products, and the
analytic maps exp / 1/x / sqrt act on jets exactly modulo the truncation, so
an m-th mixed derivative of any composite expression can be read off a
single coefficient. Coefficient arrays carry a leading batch axis;
non-batched jets broadcast against batched ones, and a 1-D array with one
number per batch point acts as a per-point constant.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from mzphase.errors import JetError, SingularConstantTerm
from mzphase.states import ProbeParams


class UnknownVariable(JetError):
    """A variable name is not part of the jet shape."""


class CapTooSmall(JetError):
    """A truncation order is too small for the requested operation."""


class ShapeMismatch(JetError):
    """Two jets with different shapes were combined."""


class IndexOutOfCaps(JetError):
    """A derivative multi-index exceeds the jet's truncation orders."""



@dataclass(frozen=True)
class JetShape:
    """Ordered variable names with per-variable truncation orders."""

    variables: tuple[str, ...]
    caps: tuple[int, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.caps):
            raise ShapeMismatch("one cap per variable required")
        if len(self.variables) == 0:
            raise ShapeMismatch("a jet needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ShapeMismatch(f"duplicate variable names in {self.variables}")
        for v, c in zip(self.variables, self.caps):
            if not isinstance(c, int) or c < 0:
                raise CapTooSmall(f"cap for {v!r} must be a non-negative int, got {c!r}")

    # cached: every MultiJet construction checks its array against ncoeff
    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.caps)

    @cached_property
    def ncoeff(self) -> int:
        return math.prod(self.dims)

    @property
    def total_degree(self) -> int:
        return sum(self.caps)

    def axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} not in {self.variables}") from None

    def flat_index(self, orders: tuple[int, ...]) -> int:
        idx = 0
        for o, d, v, c in zip(orders, self.dims, self.variables, self.caps):
            if not 0 <= o <= c:
                raise IndexOutOfCaps(f"order {o} for {v!r} exceeds cap {c}")
            idx = idx * d + o
        return idx


# Convolution plans, keyed by caps. A plan lists every coefficient pair
# (ia, ib) whose product lands inside the truncation, pre-sorted by the
# output index so one reduceat performs the whole truncated product.
_PLANS: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _conv_plan(caps: tuple[int, ...]):
    plan = _PLANS.get(caps)
    if plan is not None:
        return plan
    dims = tuple(c + 1 for c in caps)
    strides = []
    s = 1
    for d in reversed(dims):
        strides.append(s)
        s *= d
    strides.reverse()

    ia = np.zeros(1, dtype=np.int64)
    ib = np.zeros(1, dtype=np.int64)
    iout = np.zeros(1, dtype=np.int64)
    for cap, stride in zip(caps, strides):
        i, j = np.meshgrid(np.arange(cap + 1), np.arange(cap + 1), indexing="ij")
        keep = (i + j) <= cap
        di, dj = i[keep] * stride, j[keep] * stride
        ia = (ia[:, None] + di[None, :]).ravel()
        ib = (ib[:, None] + dj[None, :]).ravel()
        iout = (iout[:, None] + (di + dj)[None, :]).ravel()
    order = np.argsort(iout, kind="stable")
    ia, ib, iout = ia[order], ib[order], iout[order]
    bounds = np.searchsorted(iout, np.arange(math.prod(dims)))
    plan = (ia, ib, bounds)
    _PLANS[caps] = plan
    return plan


def _mul_flat(a: np.ndarray, b: np.ndarray, caps: tuple[int, ...]) -> np.ndarray:
    ia, ib, bounds = _conv_plan(caps)
    prod = a[:, ia] * b[:, ib]
    return np.add.reduceat(prod, bounds, axis=1)


class MultiJet:
    """Dense complex Taylor coefficients on a JetShape, optional batch axis."""

    __slots__ = ("shape", "_flat")

    def __init__(self, shape: JetShape, flat: np.ndarray):
        if flat.ndim != 2 or flat.shape[1] != shape.ncoeff:
            raise ShapeMismatch(
                f"coefficient array {flat.shape} does not match shape with {shape.ncoeff} coefficients"
            )
        self.shape = shape
        self._flat = flat

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, shape: JetShape, value) -> "MultiJet":
        vals = np.atleast_1d(np.asarray(value, dtype=np.complex128)).ravel()
        flat = np.zeros((vals.size, shape.ncoeff), dtype=np.complex128)
        flat[:, 0] = vals
        return cls(shape, flat)

    @classmethod
    def variable(cls, shape: JetShape, name: str) -> "MultiJet":
        ax = shape.axis(name)
        if shape.caps[ax] < 1:
            raise CapTooSmall(f"variable {name!r} has cap {shape.caps[ax]}, needs >= 1")
        orders = tuple(1 if i == ax else 0 for i in range(len(shape.caps)))
        flat = np.zeros((1, shape.ncoeff), dtype=np.complex128)
        flat[0, shape.flat_index(orders)] = 1.0
        return cls(shape, flat)

    # -- basic queries -----------------------------------------------------

    @property
    def batch(self) -> int:
        return self._flat.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Coefficients as a multi-index array (batch axis first if batched)."""
        dims = self.shape.dims
        if self.batch == 1:
            return self._flat.reshape(dims).copy()
        return self._flat.reshape((self.batch,) + dims).copy()

    def take(self, idx) -> "MultiJet":
        """The jet at the batch points `idx` (an index array)."""
        return MultiJet(self.shape, self._flat[idx])

    def extract(self, orders) -> complex | np.ndarray:
        """Value of the mixed partial derivative of the given orders at 0.

        `orders` is a tuple matching the variable order, or a dict keyed by
        variable name (missing names mean order 0). The stored coefficient
        is multiplied by the factorials of the orders.
        """
        if isinstance(orders, dict):
            unknown = set(orders) - set(self.shape.variables)
            if unknown:
                raise UnknownVariable(f"{sorted(unknown)} not in {self.shape.variables}")
            orders = tuple(orders.get(v, 0) for v in self.shape.variables)
        orders = tuple(int(o) for o in orders)
        if len(orders) != len(self.shape.caps):
            raise IndexOutOfCaps(f"need {len(self.shape.caps)} orders, got {len(orders)}")
        fac = math.prod(math.factorial(o) for o in orders)
        col = self._flat[:, self.shape.flat_index(orders)] * fac
        if self.batch == 1:
            return complex(col[0])
        return col

    # -- ring operations ---------------------------------------------------

    # numpy defers to the reflected jet operators, so `array - jet` and
    # `array * jet` reach __rsub__ / __rmul__ instead of broadcasting
    __array_ufunc__ = None

    def _point_values(self, other):
        """A 1-D array of one value per batch point as an (n, 1) column, else None."""
        if not isinstance(other, np.ndarray):
            return None
        if other.ndim != 1 or self.batch not in (1, other.shape[0]):
            raise ShapeMismatch(f"per-point values {other.shape} do not match batch {self.batch}")
        return other[:, None]

    def _coerce(self, other):
        if isinstance(other, MultiJet):
            if other.shape != self.shape:
                raise ShapeMismatch(f"jet shapes differ: {self.shape} vs {other.shape}")
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return MultiJet.constant(self.shape, other)
        if self._point_values(other) is not None:
            return MultiJet.constant(self.shape, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiJet(self.shape, self._flat + o._flat)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiJet(self.shape, self._flat - o._flat)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiJet(self.shape, o._flat - self._flat)

    def __neg__(self):
        return MultiJet(self.shape, -self._flat)

    def __mul__(self, other):
        if isinstance(other, MultiJet):
            if other.shape != self.shape:
                raise ShapeMismatch(f"jet shapes differ: {self.shape} vs {other.shape}")
            return MultiJet(self.shape, _mul_flat(self._flat, other._flat, self.shape.caps))
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return MultiJet(self.shape, self._flat * other)
        col = self._point_values(other)
        if col is not None:
            return MultiJet(self.shape, self._flat * col)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MultiJet):
            return self * other.recip()
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return MultiJet(self.shape, self._flat / other)
        col = self._point_values(other)
        if col is not None:
            return MultiJet(self.shape, self._flat / col)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            return NotImplemented
        out = MultiJet.constant(self.shape, 1.0)
        base = self
        k = int(n)
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- analytic maps -----------------------------------------------------

    def _split(self):
        c = self._flat[:, :1].copy()
        n = self._flat.copy()
        n[:, 0] = 0.0
        return c, n

    def exp(self) -> "MultiJet":
        """exp of the jet: exp(constant) times the nilpotent exponential series."""
        c, n = self._split()
        out = np.zeros_like(self._flat)
        out[:, 0] = 1.0
        term = out.copy()
        for k in range(1, self.shape.total_degree + 1):
            term = _mul_flat(term, n, self.shape.caps) / k
            if not term.any():
                break
            out = out + term
        return MultiJet(self.shape, out * np.exp(c))

    def recip(self) -> "MultiJet":
        """1 / jet via the geometric series in the nilpotent part."""
        c, n = self._split()
        if np.any(np.abs(c) == 0.0):
            raise SingularConstantTerm("cannot invert a jet with zero constant term")
        u = n / c
        out = np.zeros_like(self._flat)
        out[:, 0] = 1.0
        term = out.copy()
        for k in range(1, self.shape.total_degree + 1):
            term = -_mul_flat(term, u, self.shape.caps)
            if not term.any():
                break
            out = out + term
        return MultiJet(self.shape, out / c)

    def sqrt(self) -> "MultiJet":
        """Principal square root via the binomial series in the nilpotent part."""
        c, n = self._split()
        if np.any(np.abs(c) == 0.0):
            raise SingularConstantTerm("cannot take sqrt of a jet with zero constant term")
        u = n / c
        out = np.zeros_like(self._flat)
        out[:, 0] = 1.0
        term = out.copy()
        coef = 1.0
        for k in range(1, self.shape.total_degree + 1):
            coef *= (0.5 - (k - 1)) / k
            term = _mul_flat(term, u, self.shape.caps)
            if not term.any():
                break
            out = out + coef * term
        return MultiJet(self.shape, out * np.sqrt(c))

    def __repr__(self):
        return f"MultiJet(shape={self.shape}, batch={self.batch})"


def loss_coefficients(phi: MultiJet, loss: float) -> tuple:
    """x1, x2, x3 and x3* of the lossy kernel at transmission 1 - loss,
    for a jet `phi` carrying the phase variable."""
    root, base = math.sqrt(1.0 - loss), (loss - 2.0) / 2.0
    eplus = (phi * 1j).exp()
    eminus = (phi * (-1j)).exp()
    cos_phi = (eplus + eminus) * 0.5
    sin_phi = (eplus - eminus) * (-0.5j)
    return base + root * cos_phi, base - root * cos_phi, 0.5j * loss - root * sin_phi, -0.5j * loss - root * sin_phi


def pasvs_norm_reference(r: float, m: int) -> float:
    """Add-photon norm as the [t^m tau^m] coefficient of a 2-variable jet."""
    if m == 0:
        return 1.0
    shape = JetShape(("t", "tau"), (m, m))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    arg = (t * t + tau * tau) * (-math.sinh(2 * r) / 4.0) + (t * tau) * math.cosh(r) ** 2
    return arg.exp().extract((m, m)).real


def parity_signal_reference(p: ProbeParams, phis: np.ndarray) -> np.ndarray:
    """Complex parity value, slope and curvature at each phase, shape (3, batch)."""
    m = p.m
    cap = max(m, 1)
    shape = JetShape(("t", "tau", "phi"), (cap, cap, 2))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    phi_jet = MultiJet.constant(shape, phis) + MultiJet.variable(shape, "phi")
    x1, x2, x3, x3c = loss_coefficients(phi_jet, p.loss)

    th = math.tanh(p.r)
    hot = 1 + x2
    abar = 1 - (hot * hot) * th**2
    inv_abar = abar.recip()
    x3sq = x3 * x3 + x3c * x3c
    a1 = x1 + (hot * (x3 * x3c)) * inv_abar * th**2 - x3sq * inv_abar * (th / 2.0)
    a2 = hot * (t * tau) - (hot * hot) * (t * t + tau * tau) * (th / 2.0)
    a3 = x3c * t + x3 * tau - (hot * (x3 * t + x3c * tau)) * th

    pm = pasvs_norm_reference(p.r, m)
    pref = (a1 * p.alpha**2).exp() * abar.sqrt().recip() * (1.0 / (pm * math.cosh(p.r)))
    kernel = ((a2 + a3 * p.alpha) * inv_abar).exp() * pref
    return np.array([np.atleast_1d(kernel.extract((m, m, order))) for order in (0, 1, 2)])


def moment_reference(p: ProbeParams, w: int) -> complex:
    """Complex <n_b^w> (normalized) from the 3-variable moment kernel."""
    m = p.m
    cap = max(m, 1)
    shape = JetShape(("t", "tau", "x"), (cap, cap, max(w, 1)))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    x = MultiJet.variable(shape, "x")
    th = math.tanh(p.r)
    a = p.alpha

    ex = x.exp()
    s = (ex - 1.0) * 0.5
    sp1 = s + 1.0
    m0 = 1.0 - (sp1 * sp1) * th**2
    m1_factor = ((s * a) * (a + tau * 1j + (s * (a * th / 2.0)))).exp()
    m2_lin = (s * (-1j * a)) + (ex - s) * (tau - (s * (1j * a * th)))
    half_inv_m0 = m0.recip() * 0.5
    expo = (
        (m2_lin * t) * 2.0 - (m2_lin * m2_lin) * th - (sp1 * sp1) * (t * t) * th
    ) * half_inv_m0
    kernel = m1_factor * m0.sqrt().recip() * expo.exp()
    return kernel.extract((m, m, w)) / (pasvs_norm_reference(p.r, m) * math.cosh(p.r))
