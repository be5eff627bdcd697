"""Chart model invariants: normalization, bundles, deterministic sampling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from lcslab.errors import DimensionError, DomainEvaluationError
from lcslab.forms import pullback_coefficients
from lcslab.lagrangians import (example_torus_1, example_torus_2,
                                solve_primitive)
from lcslab.manifolds import (ModelManifold, Point, ScalarField, SmoothMap,
                              VectorField, make_manifold, parameter_grid,
                              sample_points)
from lcslab.moser import MoserProblem, integrate_flow
from lcslab.structures import cotangent_lcs, radial_blend

TWO_PI = 2 * np.pi


def test_make_manifold_torus():
    t2 = make_manifold(2, 0)
    assert t2.dim == 2 and t2.circle_count == 2 and t2.line_count == 0


def test_cotangent_and_jet_bundles():
    t2 = make_manifold(2, 0)
    cot = t2.cotangent()
    assert cot.dim == 4
    assert cot.labels == ("q1", "q2", "p1", "p2")
    assert cot.circle_count == 2
    j1 = make_manifold(1, 0).jet1()
    assert j1.dim == 3 and j1.labels == ("q1", "p1", "z")


def test_zero_dimension_rejected():
    with pytest.raises(DimensionError):
        make_manifold(0, 0)
    with pytest.raises(DimensionError):
        make_manifold(-1, 2)


def test_normalization_idempotent_and_distance():
    t1 = make_manifold(1, 1)
    x = np.array([2 * TWO_PI + 0.25, 3.0])
    once = t1.normalize(x)
    assert np.allclose(once, t1.normalize(once))
    assert np.allclose(once, [0.25, 3.0])
    # shortest arc on the circle factor
    d = t1.distance(np.array([0.1, 0.0]), np.array([TWO_PI - 0.1, 0.0]))
    assert np.isclose(d, 0.2)


def test_point_normalizes_on_construction():
    t2 = make_manifold(2, 0)
    p = Point(t2, [TWO_PI + 1.0, -0.5])
    assert np.allclose(p.coords, [1.0, TWO_PI - 0.5])


# a twisted structure on T*T^2 (beta = 0.3 cos(q1) dq1 + dq2 is closed) and
# fields, a map and a vector field that read every coordinate nonlinearly
_S = cotangent_lcs(make_manifold(2, 0),
                   [ScalarField(make_manifold(2, 0),
                                lambda j: j[0].cos() * 0.3), 1.0])
_FIELD = ScalarField(_S.total, lambda j: j[0].sin() * j[1].cos() * j[2]
                     + j[3] * j[3])
_VECTOR = VectorField(_S.total, lambda j: [j[2] * j[1].sin(), j[0].cos(),
                                           j[0].sin() * j[3], j[2] * j[3]])
_CHART = example_torus_2().chart
_CIRCLE = st.one_of(st.floats(-2 * TWO_PI, 2 * TWO_PI),
                    st.sampled_from([-0.0, TWO_PI - 1e-15]))


@st.composite
def _points(draw):
    """1-4 points of T*T^2, circle coordinates in [-4 pi, 4 pi]."""
    rows = draw(st.integers(1, 4))
    return np.array([[draw(_CIRCLE), draw(_CIRCLE), draw(st.floats(-3, 3)),
                      draw(st.floats(-3, 3))] for _ in range(rows)])


def _bits(*arrays):
    """The int64 views of float arrays (None for None), to compare bits."""
    return [None if a is None else np.asarray(a, dtype=float).view(np.int64)
            .tolist() for a in arrays]


def _jet_bits(jets):
    return [_bits(j.f, j.g, j.h) for j in jets]


@settings(max_examples=25, deadline=None)
@given(x=_points())
@example(x=np.array([[-0.0, TWO_PI - 1e-15, 1.0, -0.0],
                     [7.3, -1.3, 0.5, 2.0]]))
def test_field_evaluation_is_normalization_invariant(x):
    # public evaluation normalizes once, so x and normalize(x) agree bit
    # for bit; without it even -0.0 would differ (sin(-0.0) is -0.0)
    y = _S.total.normalize(x)
    u, v = x[:, :2], _CHART.source.normalize(x[:, :2])
    forms = (_S.beta, _S.lam, _S.omega)
    assert _bits(_FIELD.value(x)) == _bits(_FIELD.value(y))
    for form in forms:
        assert _bits(form.coefficients(x)) == _bits(form.coefficients(y))
    assert (_bits(*pullback_coefficients(_CHART, forms, u))
            == _bits(*pullback_coefficients(_CHART, forms, v)))
    assert (_jet_bits(_CHART.jet(u, order=2))
            == _jet_bits(_CHART.jet(v, order=2)))
    assert _jet_bits(_VECTOR.jet(x)) == _jet_bits(_VECTOR.jet(y))
    shifted = x + np.array([2 * TWO_PI, 0.0, 0.0, 0.0])
    assert np.abs(_FIELD.value(x) - _FIELD.value(shifted)).max() < 1e-13


def test_scalar_field_jet_examples():
    # sin(theta) at 0: value 0, gradient e_1, zero hessian diagonal
    t2 = make_manifold(2, 0)
    f = ScalarField(t2, lambda j: j[0].sin())
    jet = f.jet(np.zeros(2))
    assert np.isclose(jet.f, 0.0)
    assert np.allclose(jet.g, [1.0, 0.0])
    assert np.allclose(np.diag(jet.h), 0.0)

    # e^{q1} * p1 on T*T^1 at (0, 2): value 2, gradient (2, 1)
    cot = make_manifold(1, 0).cotangent()
    g = ScalarField(cot, lambda j: j[0].exp() * j[1])
    jet = g.jet(np.array([0.0, 2.0]))
    assert np.isclose(jet.f, 2.0)
    assert np.allclose(jet.g, [2.0, 1.0])


def test_domain_error_carries_point():
    t1 = make_manifold(0, 1)
    f = ScalarField(t1, lambda j: j[0].log())
    with pytest.raises(DomainEvaluationError) as err:
        f.value(np.array([-2.0]))
    assert err.value.point is not None


def test_domain_error_names_the_first_failing_row():
    t1 = make_manifold(1, 1)
    f = ScalarField(t1, lambda j: j[1].sqrt() * j[0].cos())
    batch = np.array([[0.5, 1.0], [1.5, 2.0], [8.0, -3.0], [2.5, -1.0]])
    with pytest.raises(DomainEvaluationError) as err:
        f.jet(batch)
    assert np.array_equal(err.value.point, [8.0 - TWO_PI, -3.0])
    assert str(err.value).startswith("sqrt of a nonpositive value at point [")


def test_map_and_vector_field_domain_errors_name_the_failing_row():
    t1 = make_manifold(1, 0)
    rows = [[2.0], [0.5], [3.0]]
    phi = SmoothMap(t1, t1.cotangent(),
                    lambda j: [j[0], (j[0] - 1.0).log()])
    with pytest.raises(DomainEvaluationError) as err:
        phi.jet(rows)
    assert np.array_equal(err.value.point, [0.5])
    X = VectorField(t1, lambda j: [(j[0] - 1.0).sqrt()])
    with pytest.raises(DomainEvaluationError) as err:
        X.values(rows)
    assert np.array_equal(err.value.point, [0.5])


def test_smooth_map_jacobian_and_composition():
    t1 = make_manifold(1, 0)
    cot = t1.cotangent()
    emb = SmoothMap(t1, cot, lambda j: [j[0], j[0].cos()])
    J = emb.jacobian(np.array([0.5]))
    assert J.shape == (2, 1)
    assert np.allclose(J[:, 0], [1.0, -np.sin(0.5)])

    ident = SmoothMap.identity(cot)
    comp = ident.compose(emb)
    assert np.allclose(comp(np.array([0.5])), emb(np.array([0.5])))


def test_sampling_is_deterministic_and_in_range():
    cot = make_manifold(1, 0).cotangent()
    a = sample_points(cot, 64, radius=4.0, seed=0)
    b = sample_points(cot, 64, radius=4.0, seed=0)
    c = sample_points(cot, 64, radius=4.0, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a[:, 0].min() >= 0.0 and a[:, 0].max() < TWO_PI
    assert np.abs(a[:, 1]).max() <= 4.0


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 7, 999])
def test_sampling_seed_jump_matches_fast_forward(dim, seed):
    # one circle, dim - 1 lines: the block a seed selects is the one that
    # generating and discarding the first 1 + seed * n points reaches
    M = make_manifold(1, dim - 1)
    n = 16
    eng = qmc.Halton(dim, scramble=False)
    eng.fast_forward(1 + seed * n)
    u = eng.random(n)
    ref = np.empty_like(u)
    ref[:, 0] = TWO_PI * u[:, 0]
    ref[:, 1:] = -2.0 + 4.0 * u[:, 1:]
    assert np.array_equal(sample_points(M, n, radius=2.0, seed=seed), ref)


def test_sampling_at_huge_seed_is_cheap_and_in_range():
    M = make_manifold(2, 2)
    pts = sample_points(M, 4, seed=10**6)
    assert pts.shape == (4, 4) and np.isfinite(pts).all()
    assert pts[:, :2].min() >= 0.0 and pts[:, :2].max() < TWO_PI
    assert np.abs(pts[:, 2:]).max() <= 4.0
    assert not np.array_equal(pts, sample_points(M, 4, seed=0))


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("seed", [0, 7, 1000, 10**6])
def test_radical_inverse_matches_scipy_halton(dim, seed):
    # scipy's unscrambled Halton engine is the oracle; its block is reached
    # by setting the index counter, not by generating the skipped points
    from lcslab.manifolds import _halton
    n = 16
    eng = qmc.Halton(dim, scramble=False)
    eng.num_generated = 1 + seed * n
    assert np.array_equal(_halton(dim, 1 + seed * n, n), eng.random(n))


def test_importing_scenes_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs about 0.7 s of import time in every process
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lcslab.scenes; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [-1, -5])
def test_sampling_refuses_negative_seed(seed):
    # a negative seed would start the Halton block below index 0, where
    # every sample collapses onto one corner point
    with pytest.raises(ValueError, match="nonnegative"):
        sample_points(make_manifold(1, 0).cotangent(), 8, seed=seed)


def test_normalize_and_difference_leave_inputs_unmodified():
    mixed = make_manifold(1, 1)
    a = np.array([[7.0, 1.5], [-0.5, -9.0]])
    b = np.array([[0.1, 2.0], [6.2, 3.0]])
    a0, b0 = a.copy(), b.copy()
    out = mixed.normalize(a)
    d = mixed.difference(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    assert not np.shares_memory(out, a)
    assert np.allclose(out[:, 0], np.mod(a0[:, 0], TWO_PI))
    assert np.array_equal(out[:, 1], a0[:, 1])
    assert np.abs(d[:, 0]).max() <= np.pi
    assert np.array_equal(d[:, 1], a0[:, 1] - b0[:, 1])
    # lines only: values pass through unchanged
    lines = make_manifold(0, 2)
    out = lines.normalize(a)
    assert np.array_equal(out, a0) and not np.shares_memory(out, a)
    assert np.array_equal(lines.difference(a, b), a0 - b0)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_parameter_grid_shapes():
    t2 = make_manifold(2, 0)
    grid = parameter_grid(t2, 8)
    assert grid.shape == (8, 8, 2)
    assert grid[..., 0].max() < TWO_PI


# ------------------------------------------------- normalize and its fast path

def test_normalize_never_returns_two_pi():
    # np.mod(-1e-17, 2*pi) rounds to 2*pi itself, outside [0, 2*pi)
    t1 = make_manifold(1, 0)
    once = t1.normalize(np.array([[-1e-17]]))
    assert once[0, 0] == 0.0
    assert np.array_equal(t1.normalize(once), once)


def _normalize_reference(manifold, coords):
    out = np.array(coords, dtype=float, copy=True)
    for i, circ in enumerate(manifold.is_circle):
        if circ:
            col = np.mod(out[..., i], TWO_PI)
            col[col == TWO_PI] = 0.0
            out[..., i] = col
    return out


_EDGES = [0.0, -0.0, TWO_PI, -TWO_PI, -1e-17, np.nextafter(TWO_PI, 0.0),
          3.0, -3.0, 1e300, -1e300, np.nan, np.inf, -np.inf]
_VALUES = st.one_of(
    st.floats(0.0, TWO_PI, exclude_max=True), st.sampled_from(_EDGES),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _batches(draw):
    circles = draw(st.integers(0, 2))
    lines = draw(st.integers(0 if circles else 1, 2))
    rows = draw(st.integers(0, 5))
    size = rows * (circles + lines)
    values = draw(st.lists(_VALUES, min_size=size, max_size=size))
    return circles, lines, np.array(values).reshape(rows, circles + lines)


@settings(max_examples=60, deadline=None)
@given(batch=_batches())
# -0.0 inside a circle column that is otherwise in range
@example(batch=(1, 1, np.array([[-0.0, 5.0], [1.0, -0.0]])))
def test_normalize_matches_np_mod_bit_for_bit(batch):
    circles, lines, coords = batch
    M = make_manifold(circles, lines)
    before = coords.copy()
    with np.errstate(invalid="ignore"):
        got = M.normalize(coords)
        want = _normalize_reference(M, coords)
    assert got is not coords
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(coords.view(np.int64), before.view(np.int64))


# ------------------------------------- normalize once at the public boundary

@pytest.fixture
def normalize_calls(monkeypatch):
    """Count ModelManifold.normalize calls."""
    calls = []
    inner = ModelManifold.normalize

    def counted(self, coords):
        calls.append(self)
        return inner(self, coords)

    monkeypatch.setattr(ModelManifold, "normalize", counted)
    return calls


def test_pullback_chunk_normalizes_source_and_target_once(normalize_calls):
    E = example_torus_2()
    S = E.structure
    params = sample_points(E.source, 512) + np.array([TWO_PI, -TWO_PI])
    normalize_calls.clear()
    pullback_coefficients(E.chart, (S.beta, S.lam), params)
    assert normalize_calls == [E.source, S.total]


def test_integrate_flow_normalizes_its_seeds_once(normalize_calls):
    S = cotangent_lcs(make_manifold(1, 0), [0.0])

    def fn(jets):
        _, w = radial_blend(jets[1:], 1.0, 2.0)
        return (1.0 - w) * 2.0 + w * 1.0

    P = MoserProblem(structure=S, g=ScalarField(S.total, fn),
                     outside_radius=3.0)
    seeds = sample_points(S.total, 8, radius=2.5)
    for step in (0.1, 0.5):
        normalize_calls.clear()
        res = integrate_flow(P, seeds, step=step)
        assert len(normalize_calls) == 1
        assert res.step < step      # halved, each halving a new loop


def test_primitive_evaluation_normalizes_once_per_layer(normalize_calls):
    E = example_torus_1()
    f = solve_primitive(E, grid_shape=16, steps_per_loop=256).solved_primitive
    params = sample_points(E.source, 64) - np.array([TWO_PI, 0.0])
    normalize_calls.clear()
    f.value(params)
    # the primitive's points, then the pullback chunk's source and target
    assert normalize_calls == [E.source, E.source, E.structure.total]
    normalize_calls.clear()
    f.jet(params, order=2)
    assert len(normalize_calls) == 4
