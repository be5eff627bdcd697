"""Chain-rule exactness of the jet arithmetic, checked against central differences."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcslab.errors import DomainEvaluationError
from lcslab.jets import Jet2, compose_jet, constant_jet, seed_jets

RNG = np.random.default_rng(7)


def fd_gradient(fn, x, h=1e-4):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def fd_hessian(fn, x, h=1e-4):
    n = x.size
    H = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        for j in range(n):
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[[i, j]] += [h, h] if i != j else [2 * h, 0]
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                H[i, i] = (fn(xp) - 2 * f0 + fn(xm)) / h**2
            else:
                xpm[i] += h
                xpm[j] -= h
                xmp[i] -= h
                xmp[j] += h
                xmm[i] -= h
                xmm[j] -= h
                H[i, j] = (fn(xpp) - fn(xpm) - fn(xmp) + fn(xmm)) / (4 * h**2)
    return H


def evaluate(expr, x):
    """expr maps a list of Jet2 (or floats) to a Jet2 / float."""
    return expr(seed_jets(np.asarray(x, float)))


CASES = [
    ("product-exp", lambda j: j[0] * j[1] * (j[0] * 0.3).exp()),
    ("quotient", lambda j: (j[0] + 2.5) / (j[1] * j[1] + 1.2)),
    ("trig", lambda j: (j[0].sin() * j[1].cos() + (j[0] * j[1]).sin())),
    ("log-power", lambda j: ((j[0] * j[0] + 1.5).log() + (j[1] * j[1] + 0.5) ** 1.5)),
    ("poly", lambda j: j[0] ** 3 - 2.0 * j[0] * j[1] ** 2 + 0.5),
    ("cos-sqrt", lambda j: (j[0] * j[0] + j[1] * j[1] + 0.3).sqrt().cos()),
]


@pytest.mark.parametrize("name,expr", CASES, ids=[c[0] for c in CASES])
def test_gradient_and_hessian_match_finite_differences(name, expr):
    for _ in range(20):
        x = RNG.uniform(-1.5, 1.5, size=2)
        jet = evaluate(expr, x)
        fn = lambda y: float(evaluate(expr, y).f)
        g_fd = fd_gradient(fn, x)
        h_fd = fd_hessian(fn, x)
        scale_g = max(1.0, np.abs(g_fd).max())
        scale_h = max(1.0, np.abs(h_fd).max())
        assert np.abs(jet.g - g_fd).max() / scale_g <= 1e-6
        assert np.abs(jet.h - h_fd).max() / scale_h <= 1e-4


def test_random_polynomials_at_100_points():
    # gradient of a random polynomial field matches central differences
    # (step 1e-4) to relative error <= 1e-6 at 100 random points
    coeffs = RNG.normal(size=(3, 3))

    def expr(j):
        acc = None
        for a in range(3):
            for b in range(3):
                term = (j[0] ** a) * (j[1] ** b) * coeffs[a, b]
                acc = term if acc is None else acc + term
        return acc

    pts = RNG.uniform(-2, 2, size=(100, 2))
    for x in pts:
        jet = evaluate(expr, x)
        g_fd = fd_gradient(lambda y: float(evaluate(expr, y).f), x)
        assert np.abs(jet.g - g_fd).max() / max(1.0, np.abs(g_fd).max()) <= 1e-6


def test_hessian_symmetric_to_machine_precision():
    x = RNG.uniform(-1, 1, size=3)
    j = seed_jets(x)
    out = (j[0] * j[1].sin() + (j[2] * j[0]).exp()) * (j[1] + 2.0)
    assert np.abs(out.h - out.h.T).max() == 0.0


def test_batched_evaluation_matches_scalar():
    pts = RNG.uniform(-1, 1, size=(50, 2))
    j = seed_jets(pts)
    batched = j[0].sin() * j[1].exp()
    for k, x in enumerate(pts):
        single = evaluate(lambda jj: jj[0].sin() * jj[1].exp(), x)
        assert np.allclose(batched.f[k], single.f)
        assert np.allclose(batched.g[k], single.g)
        assert np.allclose(batched.h[k], single.h)


def test_order_degradation():
    j = seed_jets(np.array([0.3, 0.4]), order=1)
    out = j[0] * j[1]
    assert out.g is not None and out.h is None
    j0 = seed_jets(np.array([0.3, 0.4]), order=0)
    assert (j0[0] * j0[1]).g is None


def test_log_domain_error():
    j = seed_jets(np.array([-1.0]))
    with pytest.raises(DomainEvaluationError):
        j[0].log()


def test_where_selects_branches():
    x = np.linspace(-1, 1, 11)
    j = seed_jets(x[:, None])
    a, b = j[0].exp(), j[0] * 0.0 + 1.0
    out = Jet2.where(x > 0, a, b)
    assert np.allclose(out.f[x > 0], np.exp(x[x > 0]))
    assert np.allclose(out.f[x <= 0], 1.0)


def test_compose_jet_chain_rule():
    # u(y1,y2) = y1 * sin(y2), phi(x) = (x0^2, x0 + x1)
    x = np.array([0.7, -0.3])
    phi = seed_jets(x)
    comps = [phi[0] * phi[0], phi[0] + phi[1]]
    y = np.array([c.f for c in comps])
    u = seed_jets(y)
    outer = u[0] * u[1].sin()
    composed = compose_jet(outer, comps)

    def direct(z):
        jz = seed_jets(z)
        y0, y1 = jz[0] * jz[0], jz[0] + jz[1]
        return y0 * y1.sin()

    ref = direct(x)
    assert np.allclose(composed.f, ref.f)
    assert np.allclose(composed.g, ref.g)
    assert np.allclose(composed.h, ref.h)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(0.1, 2.0))
def test_product_rule_property(a, b, c):
    j = seed_jets(np.array([a, b]))
    lhs = (j[0] * j[1]) * c
    rhs = j[0] * (j[1] * c)
    assert np.allclose(lhs.f, rhs.f, atol=1e-12)
    assert np.allclose(lhs.g, rhs.g, atol=1e-12)
    assert np.allclose(lhs.h, rhs.h, atol=1e-12)


def test_constant_jet_shapes():
    c = constant_jet(3.0, 4, (7,))
    assert c.f.shape == (7,) and c.g.shape == (7, 4) and c.h.shape == (7, 4, 4)


# moderate magnitudes: the constant's full jet overflows to NaN derivatives
# once 1/c**2 does, so the comparison stays within the finite range
FINITE = st.floats(-100.0, 100.0, allow_subnormal=False).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-3)
SCALAR_OPERANDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3, -2, np.float64(2.5),
                     np.float64(-0.0)]),
    FINITE, FINITE.map(np.float64))


@st.composite
def batched_jets(draw):
    batch, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    order = draw(st.integers(0, 2))
    f = draw(hnp.arrays(float, (batch,), elements=FINITE))
    g = draw(hnp.arrays(float, (batch, n), elements=FINITE))
    h = draw(hnp.arrays(float, (batch, n, n), elements=FINITE))
    return Jet2(f, g if order >= 1 else None, h if order >= 2 else None), n


@settings(max_examples=200, deadline=None)
@given(jn=batched_jets(), c=SCALAR_OPERANDS,
       op=st.sampled_from([operator.add, operator.sub, operator.mul,
                           operator.truediv]),
       scalar_first=st.booleans())
def test_scalar_operand_matches_constant_jet(jn, c, op, scalar_first):
    j, n = jn
    const = constant_jet(c, n, j.f.shape, order=j.order)
    if scalar_first:
        fast, coerced = (lambda: op(c, j)), (lambda: op(const, j))
    else:
        fast, coerced = (lambda: op(j, c)), (lambda: op(j, const))
    try:
        ref = coerced()
    except DomainEvaluationError:
        with pytest.raises(DomainEvaluationError):
            fast()
        return
    out = fast()
    assert out.order == ref.order == j.order
    for name in ("f", "g", "h"):
        got, want = getattr(out, name), getattr(ref, name)
        assert (got is None) == (want is None)
        if got is None:
            continue
        assert np.array_equal(got, want)
        for operand in (j.f, j.g, j.h):
            assert operand is None or not np.shares_memory(got, operand)


@pytest.mark.parametrize("zero", [0.0, -0.0, 0, np.float64(0.0)])
def test_division_by_scalar_zero_raises(zero):
    j = seed_jets(np.array([[1.0, 2.0], [3.0, 4.0]]))[0]
    with pytest.raises(DomainEvaluationError):
        j / zero
