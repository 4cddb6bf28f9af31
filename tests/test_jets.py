"""Series and reference-jet arithmetic against a brute-force polynomial
model, the series against the one-variable reference jet, plus ring laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_reference import (
    CapTooSmall,
    IndexOutOfCaps,
    JetShape,
    MultiJet,
    ShapeMismatch,
    UnknownVariable,
    _conv_plan,
)

from mzphase.errors import SingularConstantTerm
from mzphase.jets import Series, _plan, gaussian_tt_coefficient


def random_int_jet(shape, rng, lo=-4, hi=5):
    flat = rng.integers(lo, hi, size=(1, shape.ncoeff)).astype(np.complex128)
    flat += 1j * rng.integers(lo, hi, size=(1, shape.ncoeff))
    return MultiJet(shape, flat)


def poly_mul_truncated(a, b, caps):
    """Reference truncated product on dense coefficient arrays."""
    dims = tuple(c + 1 for c in caps)
    out = np.zeros(dims, dtype=np.complex128)
    for ia in np.ndindex(*dims):
        ca = a[ia]
        if ca == 0:
            continue
        for ib in np.ndindex(*dims):
            idx = tuple(x + y for x, y in zip(ia, ib))
            if all(i <= c for i, c in zip(idx, caps)):
                out[idx] += ca * b[ib]
    return out


@pytest.mark.parametrize("caps", [(3,), (2, 2), (3, 1, 2), (2,), (4,)])
def test_product_matches_bruteforce(caps):
    # in one variable the series takes the reference jet's product plan
    rng = np.random.default_rng(12345)
    shape = JetShape(tuple(f"v{i}" for i in range(len(caps))), caps)
    if len(caps) == 1:
        for got, want in zip(_plan(caps[0]), _conv_plan(caps)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for _ in range(5):
        a = random_int_jet(shape, rng)
        b = random_int_jet(shape, rng)
        want = poly_mul_truncated(a.array, b.array, caps)
        got = (a * b).array
        assert np.array_equal(got, want)
        if len(caps) == 1:
            assert np.array_equal((Series(a._flat) * Series(b._flat)).c[0], want)


def _series_and_jet(rng, cap, batch):
    """A random series, constant terms away from 0, and the same numbers as a
    one-variable reference jet."""
    c = rng.normal(size=(batch, cap + 1)) + 1j * rng.normal(size=(batch, cap + 1))
    c[:, 0] += 2.0
    return Series(c), MultiJet(JetShape(("x",), (cap,)), c.copy())


@pytest.mark.parametrize("cap", [2, 4])
@pytest.mark.parametrize("batch", [1, 5])
def test_series_equals_one_variable_jet(cap, batch):
    rng = np.random.default_rng(10 * cap + batch)
    (a, ja), (b, jb) = _series_and_jet(rng, cap, batch), _series_and_jet(rng, cap, batch)
    w = rng.normal(size=batch)
    ops = {
        "product": lambda x, y: x * y,
        "batch-1 product": lambda x, y: x.take([0]) * y,
        "exp": lambda x, y: x.exp(),
        "recip": lambda x, y: x.recip(),
        "sqrt": lambda x, y: x.sqrt(),
        "sum": lambda x, y: x + y - x.take([0]),
        "scalars": lambda x, y: 1 - ((x + 0.5) * 2.0 - 1j) * 0.25 + (0.3 - 0.1j) - 2.0 * x,
        "per point": lambda x, y: w - (x + w) * w - 1j * w + w * y - (y - w),
    }
    for name, op in ops.items():
        got, want = op(a, b), op(ja, jb)
        assert np.array_equal(got.c, want._flat), name
        for k in range(cap + 1):
            assert np.array_equal(got.derivative(k), np.atleast_1d(want.extract((k,)))), (name, k)
    shape = JetShape(("x",), (cap,))
    got = Series.constant(w, cap) + Series.variable(cap)
    want = MultiJet.constant(shape, w) + MultiJet.variable(shape, "x")
    assert np.array_equal(got.c, want._flat)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_laws(seed):
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(1, 4))
    caps = tuple(int(c) for c in rng.integers(1, 4, size=nvars))
    shape = JetShape(tuple(f"v{i}" for i in range(nvars)), caps)
    a = random_int_jet(shape, rng)
    b = random_int_jet(shape, rng)
    c = random_int_jet(shape, rng)
    one = MultiJet.constant(shape, 1.0)
    # small-integer coefficients make every identity exact in float64
    assert np.array_equal(((a + b) + c).array, (a + (b + c)).array)
    assert np.array_equal((a * b).array, (b * a).array)
    assert np.array_equal(((a * b) * c).array, (a * (b * c)).array)
    assert np.array_equal((a * (b + c)).array, (a * b + a * c).array)
    assert np.array_equal((one * a).array, a.array)
    assert np.array_equal((a - a).array, np.zeros_like(a.array))


@pytest.mark.parametrize("m", range(1, 9))
def test_exp_bilinear_coefficient(m):
    # exp(lam * t * tau) has (m, m) mixed derivative m! * lam^m
    lam = 0.7 - 0.3j
    shape = JetShape(("t", "tau"), (m, m))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    val = (t * tau * lam).exp().extract((m, m))
    want = math.factorial(m) * lam**m
    assert abs(val - want) <= 1e-13 * abs(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exp_homomorphism(seed):
    rng = np.random.default_rng(seed)
    shape = JetShape(("x", "y"), (3, 3))
    a = MultiJet(shape, (rng.uniform(-1, 1, (1, shape.ncoeff)) * 0.5).astype(np.complex128))
    b = MultiJet(shape, (rng.uniform(-1, 1, (1, shape.ncoeff)) * 0.5).astype(np.complex128))
    lhs = (a + b).exp().array
    rhs = ((a.exp()) * (b.exp())).array
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(lhs)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_recip_and_sqrt_roundtrip(seed):
    rng = np.random.default_rng(seed)
    shape = JetShape(("x", "y"), (3, 2))
    flat = rng.uniform(-1, 1, (1, shape.ncoeff)) + 1j * rng.uniform(-1, 1, (1, shape.ncoeff))
    flat[0, 0] = 1.5 + rng.uniform(0, 1)  # keep the constant term well away from 0
    a = MultiJet(shape, flat.astype(np.complex128))
    ident = (a * a.recip()).array
    want = np.zeros_like(ident)
    want.flat[0] = 1.0
    assert np.max(np.abs(ident - want)) <= 1e-13
    sq = a.sqrt()
    assert np.max(np.abs((sq * sq).array - a.array)) <= 1e-13 * max(1.0, np.max(np.abs(a.array)))


def test_extract_multiplies_factorials():
    # (1 + 2t)^3 = 1 + 6t + 12t^2 + 8t^3; second derivative at 0 is 24
    shape = JetShape(("t",), (3,))
    t = MultiJet.variable(shape, "t")
    p = (1 + 2 * t) ** 3
    assert p.extract((0,)) == 1
    assert p.extract((1,)) == 6
    assert p.extract((2,)) == 24
    assert p.extract((3,)) == 48
    assert p.extract({"t": 2}) == 24


def test_division_and_pow():
    shape = JetShape(("t",), (4,))
    t = MultiJet.variable(shape, "t")
    a = 2 + t
    q = (a * a) / a
    assert np.max(np.abs(q.array - a.array)) <= 1e-14
    assert np.max(np.abs((a**3).array - (a * a * a).array)) <= 1e-14


def test_batched_constants_broadcast():
    shape = JetShape(("t",), (2,))
    t = MultiJet.variable(shape, "t")
    c = MultiJet.constant(shape, np.array([0.0, 1.0, 2.0]))
    out = ((c + t) * (c + t)).extract((1,))  # d/dt (c+t)^2 = 2c
    assert np.allclose(out, [0.0, 2.0, 4.0])
    assert out.shape == (3,)


def test_per_point_array_constants():
    # a 1-D array with one number per batch point acts like a constant jet
    # at each point, from either side of the operator, bit for bit
    shape = JetShape(("t",), (2,))
    x = MultiJet.constant(shape, np.array([0.5, -1.0, 2.0])) + MultiJet.variable(shape, "t")
    w = np.array([3.0, 0.25, -7.0])
    for i in range(3):
        xi = MultiJet.constant(shape, x.array[i, 0]) + MultiJet.variable(shape, "t")
        assert np.array_equal((x * w).array[i], (xi * float(w[i])).array)
        assert np.array_equal((w * x).array[i], (float(w[i]) * xi).array)
        assert np.array_equal((x / w).array[i], (xi / float(w[i])).array)
        assert np.array_equal((x + w).array[i], (xi + float(w[i])).array)
        assert np.array_equal((w - x).array[i], (float(w[i]) - xi).array)
        assert np.array_equal((x - 1j * w).array[i], (xi - 1j * float(w[i])).array)
    # a non-batched jet takes the batch of the array
    t = MultiJet.variable(shape, "t")
    assert (t * w).batch == 3
    with pytest.raises(ShapeMismatch):
        x * np.ones(2)
    with pytest.raises(ShapeMismatch):
        x + np.ones((3, 1))


def test_error_taxonomy():
    shape = JetShape(("t", "u"), (2, 0))
    with pytest.raises(UnknownVariable):
        MultiJet.variable(shape, "nope")
    with pytest.raises(CapTooSmall):
        MultiJet.variable(shape, "u")
    with pytest.raises(CapTooSmall):
        JetShape(("t",), (-1,))
    with pytest.raises(ShapeMismatch):
        JetShape(("t", "t"), (1, 1))
    other = JetShape(("t",), (2,))
    with pytest.raises(ShapeMismatch):
        MultiJet.variable(shape, "t") + MultiJet.variable(other, "t")
    with pytest.raises(SingularConstantTerm):
        MultiJet.variable(other, "t").recip()
    with pytest.raises(SingularConstantTerm):
        MultiJet.variable(other, "t").sqrt()
    with pytest.raises(SingularConstantTerm):
        Series.variable(2).recip()
    with pytest.raises(SingularConstantTerm):
        Series.variable(2).sqrt()
    with pytest.raises(IndexOutOfCaps):
        MultiJet.variable(other, "t").extract((3,))
    with pytest.raises(UnknownVariable):
        MultiJet.variable(other, "t").extract({"zz": 1})


@pytest.mark.parametrize("m", [0, 1, 2, 5, 8])
def test_gaussian_tt_coefficient_matches_full_jet(m):
    rng = np.random.default_rng(100 + m)
    pref, a, b, c, d, e = rng.normal(size=6) + 1j * rng.normal(size=6)
    shape = JetShape(("t", "tau"), (max(m, 1), max(m, 1)))
    t = MultiJet.variable(shape, "t")
    tau = MultiJet.variable(shape, "tau")
    full = (a * (t * t) + b * (tau * tau) + c * (t * tau) + d * t + e * tau).exp() * pref
    want = full.extract((m, m)) / math.factorial(m) ** 2
    got = gaussian_tt_coefficient(m, pref, a, b, c, d, e)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_gaussian_tt_coefficient_on_batched_jets():
    # coefficients that are series in another variable give a series
    base = Series.constant(np.array([0.1, 0.2, 0.3]), 2) + Series.variable(2)
    got = gaussian_tt_coefficient(2, base.exp(), base * 0.5, base * -0.3, base, base * 1j, base * 2.0)
    for i, x0 in enumerate((0.1, 0.2, 0.3)):
        want = gaussian_tt_coefficient(2, math.exp(x0), x0 * 0.5, x0 * -0.3, x0, x0 * 1j, x0 * 2.0)
        assert abs(got.derivative(0)[i] - want) <= 1e-14 * max(1.0, abs(want))
