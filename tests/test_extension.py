"""Extension pipeline: inner patch, ray interpolation, mollifier, outer
flattening, squeeze profile and the radial bound."""

import numpy as np
import pytest

from lcslab.chords import ray_log_slope
from lcslab.errors import ObstructionError, PreconditionError
from lcslab.extension import (RadialField, SqueezeProfile,
                              build_positive_extension, fiber_directions,
                              log_radii, mollify, near_zero_extension,
                              nearest_direction, outer_flatten,
                              squeeze_profile, verify_radial_bound)
from lcslab.lagrangians import (beta_graph, example_torus_1, translate_by_form,
                                zero_section)
from lcslab.manifolds import ScalarField, make_manifold, parameter_grid
from lcslab.structures import cotangent_lcs

T1 = make_manifold(1, 0)
S1 = cotangent_lcs(T1, [0.0])
S1b = cotangent_lcs(T1, [1.0])


def graph_embedding(S, p0=0.3):
    """Graph of the (closed) 1-form p = p0 dq on the circle."""
    f = ScalarField(S.base, lambda j: j[0] * 0.0 + 0.0)
    # direct chart: (q) -> (q, p0); a closed-form graph, exact with f via ODE
    from lcslab.lagrangians import ParametricEmbedding
    from lcslab.manifolds import SmoothMap
    chart = SmoothMap(S.base, S.total, lambda j: [j[0], j[0] * 0.0 + p0],
                      name="graph(0.3 dq)")
    return ParametricEmbedding(source=S.base, structure=S, chart=chart,
                               name="graph(0.3 dq)")


# -------------------------------------------------------------- inner patch

def test_near_zero_extension_constant_h():
    S = S1
    E = graph_embedding(S)
    patch = near_zero_extension(ScalarField.constant(S.total, 1.0), E)
    assert patch.h_max == 1.0
    base = parameter_grid(T1, 16).reshape(-1, 1)
    vals = patch.values(base, fiber_directions(1), log_radii(shells=16))
    assert np.allclose(vals, 1.0)


def test_near_zero_extension_for_section_like_lagrangian():
    # L = beta-graph: h restricted to the collar is returned near the
    # intersections, the constant max elsewhere
    S = cotangent_lcs(T1, [1.0])
    E = beta_graph(ScalarField(T1, lambda j: j[0].cos(), name="cos"), S)
    h = ScalarField(S.total, lambda j: j[0].sin() * 0.0 + 2.0
                    + j[0].sin() * 0.5)
    patch = near_zero_extension(h, E)
    assert patch.h_max == pytest.approx(2.5, abs=1e-6)
    assert patch.intersection_bases.shape[0] > 0
    base = parameter_grid(T1, 64).reshape(-1, 1)
    vals = patch.values(base, fiber_directions(1), log_radii(shells=8))
    # continuity at grid scale: no jumps above a few times the base step
    step = 2 * np.pi / 64
    jumps = np.abs(np.diff(vals[:, 0, 0]))
    assert jumps.max() <= 10 * step


# ------------------------------------------------------------- ray algebra

def test_ray_log_slope_cases():
    assert ray_log_slope(1.0, 1.0, 1.0, 3.0) == 0.0
    assert ray_log_slope(1.0, 1.0, 3.0, 3.0) == pytest.approx(1.0)
    assert ray_log_slope(1.0, 1.0, 2.0, 4.0) == pytest.approx(0.5)


def test_interpolation_rejects_slope_one_ray():
    # endpoints (1, 3) over radii (1, 3): the translated-double-cover chord
    S = S1
    E = graph_embedding(S, p0=1.0)
    patch = near_zero_extension(ScalarField.constant(S.total, 1.0), E)
    from lcslab.extension import radial_log_interpolation
    base = parameter_grid(T1, 8).reshape(-1, 1)
    dirs = fiber_directions(1)
    radii = log_radii(1e-3, 16.0, 64)
    # both crossings on ray 0: base point 0, direction +1
    crossings = (np.array([0, 0]), np.array([1.0, 3.0]), np.array([1.0, 3.0]))
    h = ScalarField.constant(S.total, 1.0)
    with pytest.raises(ObstructionError) as err:
        radial_log_interpolation(patch, crossings, base, dirs, radii, h)
    assert err.value.details["slope"] >= 1.0 - 1e-9
    assert err.value.details["outer_radius"] == 3.0


def test_interpolation_accepts_half_slope():
    S = S1
    E = graph_embedding(S, p0=1.0)
    patch = near_zero_extension(ScalarField.constant(S.total, 1.0), E)
    from lcslab.extension import COLLAR_FACTOR, radial_log_interpolation
    base = parameter_grid(T1, 8).reshape(-1, 1)
    dirs = fiber_directions(1)
    radii = log_radii(1e-3, 16.0, 64)
    # chord slope ln(2/1) / ln(4/1) = 1/2 on ray 0
    crossings = (np.array([0, 0]), np.array([1.0, 4.0]), np.array([1.0, 2.0]))
    h = ScalarField.constant(S.total, 1.0)
    f, collar, top = radial_log_interpolation(patch, crossings, base, dirs,
                                              radii, h)
    assert f.log_slopes().max() < 1.0
    assert top == 4.0
    # the collar is the middle half of each crossing's band, on ray 0 only
    half = np.sqrt(COLLAR_FACTOR)
    want = np.zeros(f.values.shape, dtype=bool)
    for r in (1.0, 4.0):
        want[0, 0] |= (radii >= r / half) & (radii <= r * half)
    assert want.any() and np.array_equal(collar, want)
    assert np.all(f.values[collar] == 1.0)


def test_interpolation_ignores_crossings_below_the_patch_collar():
    # radial_log_interpolation is the one filter of which crossings count:
    # one planted on ray 0 just inside l' * COLLAR_FACTOR and one on the
    # zero section (ray 3) leave the field, the collar and the top unchanged
    from lcslab.extension import COLLAR_FACTOR, radial_log_interpolation
    S = S1
    patch = near_zero_extension(ScalarField.constant(S.total, 1.0),
                                graph_embedding(S, p0=1.0))
    base = parameter_grid(T1, 8).reshape(-1, 1)
    dirs = fiber_directions(1)
    radii = log_radii(1e-3, 16.0, 64)
    h = ScalarField.constant(S.total, 1.0)
    low = 4e-3 * COLLAR_FACTOR * 0.99
    plain = (np.array([0, 0]), np.array([1.0, 4.0]), np.array([1.0, 2.0]))
    planted = (np.array([0, 0, 0, 3]), np.array([low, 1.0, 4.0, 1e-17]),
               np.array([1.0, 1.0, 2.0, 1.0]))
    want = radial_log_interpolation(patch, plain, base, dirs, radii, h)
    got = radial_log_interpolation(patch, planted, base, dirs, radii, h)
    assert np.array_equal(got[0].values, want[0].values)
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2] == 4.0


# ------------------------------------------------------------ ray crossings

def per_point_ray_crossings(E, h, base_points, directions):
    """Reference crossings: one Newton solve, one deduplication and one loop
    per base point, then a stable sort by ray and radius (the per-base-point
    form of ``_ray_crossings``).  Returns ``(ray, radius, value)`` tuples."""
    from lcslab.numerics import dedup_points, gauss_newton
    S, src = E.structure, E.source
    params = parameter_grid(src, 96).reshape(-1, src.dim)
    bases = E.base_values(params)

    def preimages(q):
        d = S.base.distance(bases, q)
        k = min(8, len(d) - 1)
        seeds = params[d <= np.partition(d, k)[k] + 1e-9]

        def residual(u, _rows):
            jets = E.chart.jet(u, order=1)
            vals = np.stack([c.f for c in jets[:S.n]], axis=-1)
            r = S.base.difference(S.base.normalize(vals), q)
            return r, np.stack([c.g for c in jets[:S.n]], axis=-2)

        sol, _, ok = gauss_newton(residual, seeds, tol=1e-13)
        good = src.normalize(sol[ok])
        return good[dedup_points(src.embed(good), 1e-6)]

    out = []
    for bi, q in enumerate(base_points):
        good = preimages(q)
        if good.shape[0] == 0:
            continue
        for p, val in zip(E.fiber_values(good), h.value(E.chart(good))):
            r = float(np.linalg.norm(p))
            # a crossing on the zero section takes direction 0, as in
            # ``nearest_direction``
            di = 0 if r <= 1e-12 else int(np.argmax(directions @ (p / r)))
            out.append((bi * len(directions) + di, r, float(val)))
    return sorted(out, key=lambda c: c[:2])


def double_cover_scene():
    """A curve over the circle twice, q = 2u, with fiber 0.5 + 0.3 sin u > 0:
    every positive ray crosses it twice."""
    return {"name": "double-cover", "manifold": {"circles": 1},
            "structure": {"beta": ["0"]},
            "embedding": {"components": ["2*u1", "0.5 + 0.3*sin(u1)"],
                          "source": {"circles": 1}},
            "extension": {"h": "1.2 + 0.2*cos(q1)", "base_grid": 48}}


@pytest.mark.parametrize("scene_name", ["extension-tube.json",
                                        "beta-graph-pipeline.json",
                                        "double-cover"])
def test_batched_crossings_match_per_point_reference(scene_name):
    from pathlib import Path

    from lcslab.expressions import compile_field
    from lcslab.extension import _ray_crossings
    from lcslab.scenes import _build_embedding, load_scene
    if scene_name == "double-cover":
        scene = double_cover_scene()
    else:
        scene = load_scene(Path(__file__).parent.parent / "scenes" / scene_name)
    E = _build_embedding(scene)
    ext = scene["extension"]
    h = compile_field(ext["h"], E.structure.total)
    base = parameter_grid(E.structure.base,
                          int(ext["base_grid"])).reshape(-1, 1)
    dirs = fiber_directions(1)
    ray, radius, value = _ray_crossings(E, h, base, dirs)
    got = [(int(k), float(r), float(v))
           for k, r, v in zip(ray, radius, value)]
    assert got == per_point_ray_crossings(E, h, base, dirs)
    counts = np.bincount(ray, minlength=base.shape[0] * 2)
    assert counts.sum() > 0
    if scene_name == "double-cover":
        assert list(counts[0::2]) == [2] * base.shape[0]


def test_extension_over_two_torus_crosses_each_nearest_ray():
    # 2-d fibers: the graph of d_beta f over T^2 meets each base point's
    # fiber once, on the ray nearest p(q), at radius |p(q)|
    from lcslab.extension import _ray_crossings
    T2 = make_manifold(2, 0)
    S = cotangent_lcs(T2, [ScalarField(T2, lambda j: j[0].cos() * 0.3), 1.0])
    f = ScalarField(T2, lambda j: j[0].sin() * 0.2 + 1.5)
    E = beta_graph(f, S)
    h = ScalarField(S.total, lambda j: j[0].sin() * 0.2 + 1.5)
    g, report = build_positive_extension(E, h, base_grid=8, shells=32,
                                         directions=16)
    assert report.final.passed
    assert report.final.collar_match_sup is not None
    assert report.final.collar_match_sup <= 1e-6

    base = parameter_grid(T2, 8).reshape(-1, 2)
    dirs = fiber_directions(2, 16)
    ray, radius, value = _ray_crossings(E, h, base, dirs)
    p = E.fiber_values(base)
    r = np.linalg.norm(p, axis=-1)
    nearest = np.argmax((p / r[:, None]) @ dirs.T, axis=-1)
    assert np.array_equal(ray, np.arange(base.shape[0]) * 16 + nearest)
    assert np.allclose(radius, r, rtol=0, atol=1e-12)
    assert np.allclose(value, f.value(base), rtol=0, atol=1e-12)


# --------------------------------------------------------------- mollifier

def _toy_field(vals_fn, shells=64):
    base = parameter_grid(T1, 8).reshape(-1, 1)
    dirs = fiber_directions(1)
    radii = log_radii(0.01, 10.0, shells)
    vals = np.ones((8, 2, shells))
    vals[:] = vals_fn(radii)[None, None, :]
    return RadialField(base, dirs, radii, vals)


def test_mollify_constant_unchanged():
    F = _toy_field(lambda r: np.ones_like(r))
    out = mollify(F, (True,))
    assert np.abs(out.values - 1.0).max() <= 1e-12


def test_mollify_slope_hull():
    # piecewise slopes {0, 0.5}: mollified slopes stay inside [0, 0.5]
    def vals(r):
        v = np.ones_like(r)
        m = r > 1.0
        v[m] = (r[m] / 1.0) ** 0.5
        return v

    F = _toy_field(vals)
    out = mollify(F, (True,))
    slopes = out.log_slopes()
    assert slopes.min() >= -1e-9
    assert slopes.max() <= 0.5 + 1e-9


def test_mollify_uniform_slope_barely_grows():
    F = _toy_field(lambda r: r ** 0.9)
    out = mollify(F, (True,))
    assert out.log_slopes().max() <= 0.9 + 1e-3


def three_loop_mollify(F, kernel_cells, base_shape):
    """Reference mollifier with a separate roll-and-accumulate loop for each
    axis kind: the 1-d base, the n-d base and the direction axis."""
    from lcslab.extension import _bump_kernel
    k = _bump_kernel(kernel_cells)
    vals = F.values.copy()
    pad = kernel_cells
    padded = np.concatenate([np.repeat(vals[..., :1], pad, axis=-1), vals,
                             np.repeat(vals[..., -1:], pad, axis=-1)], axis=-1)
    out = np.zeros_like(vals)
    for i, w in enumerate(k):
        out += w * padded[..., i:i + vals.shape[-1]]
    vals = out
    if base_shape is not None and len(base_shape) == 1:
        rolled = np.zeros_like(vals)
        for i, w in enumerate(k):
            rolled += w * np.roll(vals, i - kernel_cells, axis=0)
        vals = rolled
    elif base_shape is not None and len(base_shape) > 1:
        B = int(np.prod(base_shape))
        shaped = vals.reshape(base_shape + vals.shape[1:])
        for ax in range(len(base_shape)):
            rolled = np.zeros_like(shaped)
            for i, w in enumerate(k):
                rolled += w * np.roll(shaped, i - kernel_cells, axis=ax)
            shaped = rolled
        vals = shaped.reshape((B,) + vals.shape[1:])
    if F.directions.shape[1] == 2:
        rolled = np.zeros_like(vals)
        for i, w in enumerate(k):
            rolled += w * np.roll(vals, i - kernel_cells, axis=1)
        vals = rolled
    return vals


@pytest.mark.parametrize("base_shape, directions", [
    ((4, 4), 12), ((8,), 2), ((4, 6), 12), ((4, 4), 8)])
def test_mollify_matches_three_loop_reference(base_shape, directions):
    # every periodic axis (n-d base, 1-d base, direction) carries its own
    # random positive pattern, so each convolution changes the result; the
    # mollifier reads the base shape off the field's grid
    n = len(base_shape)
    B = int(np.prod(base_shape))
    base = parameter_grid(make_manifold(n, 0), base_shape).reshape(-1, n)
    dirs = fiber_directions(n, directions)
    radii = log_radii(0.01, 10.0, 24)
    vals = np.random.default_rng(7).uniform(0.5, 2.0,
                                            (B, dirs.shape[0], 24))
    F = RadialField(base, dirs, radii, vals)
    out = mollify(F, (True,) * n)
    assert np.array_equal(out.values,
                          three_loop_mollify(F, 3, base_shape))


def test_base_axes_refuse_a_partial_grid():
    # a grid missing its last node, or with its axes swapped out of C
    # order, is no full grid: the blend and the mollifier would misread it
    grid = parameter_grid(make_manifold(2, 0), (3, 4)).reshape(-1, 2)
    axes = RadialField(grid, fiber_directions(2, 8), log_radii(shells=4),
                       np.ones((12, 8, 4))).base_axes()
    assert [a.size for a in axes] == [3, 4]
    for bad in (grid[:-1], grid[:, ::-1]):
        F = RadialField(bad, fiber_directions(2, 8), log_radii(shells=4),
                        np.ones((bad.shape[0], 8, 4)))
        with pytest.raises(PreconditionError):
            F.base_axes()
        with pytest.raises(PreconditionError):
            mollify(F, (True, True))


def test_mollify_keeps_the_ends_of_a_line_axis_apart():
    # on an R base the q = -4 and q = +4 shells are far apart: a bump at one
    # end must not reach the other, as a periodic convolution would have it
    R1 = make_manifold(0, 1)
    base = parameter_grid(R1, 8).reshape(-1, 1)
    vals = np.ones((8, 2, 16))
    vals[np.argmin(base[:, 0])] = 2.0
    F = RadialField(base, fiber_directions(1), log_radii(0.01, 10.0, 16),
                    vals)
    out = mollify(F, R1.is_circle)
    assert base[:, 0].min() == -4.0 and base[:, 0].max() == 4.0
    assert np.abs(out.values[np.argmax(base[:, 0])] - 1.0).max() <= 1e-12
    assert out.values[np.argmin(base[:, 0])].min() > 1.0


# ------------------------------------------------------------ outer flatten

def test_outer_flatten_identity_on_ones():
    F = _toy_field(lambda r: np.ones_like(r))
    out = outer_flatten(F, r_inner=1.0, r_outer=8.0)
    assert np.array_equal(out.values[..., out.radii >= 8.0], np.ones_like(
        out.values[..., out.radii >= 8.0]))
    assert np.abs(out.values - 1.0).max() <= 1e-12


def test_outer_flatten_minimal_radius():
    # value e^0.75 at r_inner = 1 with margin 0.25 needs r_outer >= e
    F = _toy_field(lambda r: np.full_like(r, np.exp(0.75)), shells=128)
    with pytest.raises(PreconditionError) as err:
        outer_flatten(F, r_inner=1.0, r_outer=np.e * 0.98)
    assert err.value.details["minimal_admissible_r_outer"] == pytest.approx(
        np.e, rel=0.05)
    out = outer_flatten(F, r_inner=1.0, r_outer=np.e * 1.1)
    assert np.all(out.values[..., -1] == 1.0)


def test_outer_flatten_half_value():
    F = _toy_field(lambda r: np.full_like(r, 0.5), shells=128)
    out = outer_flatten(F, r_inner=2.0, r_outer=9.9)
    s = np.abs(out.log_slopes())
    expected = abs(np.log(0.5)) / np.log(9.9 / 2.0)
    assert s.max() == pytest.approx(expected, rel=0.05)


# ------------------------------------------------------------ verification

def test_verify_radial_bound_flags_planted_defect():
    F = _toy_field(lambda r: np.ones_like(r), shells=64)
    ok = verify_radial_bound(F)
    assert ok.passed and ok.max_slope == 0.0
    bad = RadialField(F.base_points, F.directions, F.radii, F.values.copy())
    bad.values[3, 0, :] = bad.radii ** 1.05  # one ray of slope 1.05
    bad.values[..., -1] = 1.0
    rep = verify_radial_bound(bad)
    assert not rep.passed
    # every other ray is flat: the maximum is the planted ray's slope
    assert np.isclose(rep.max_slope, 1.05, rtol=0.0, atol=1e-12)


# --------------------------------------------------------- squeeze profile

def test_squeeze_profile_identity_zone_and_endpoint():
    P = SqueezeProfile(r0=1.0, r=4.0, epsilon=0.1)
    a, d = squeeze_profile(P, 0.5)
    assert a == 0.5 and d == 1.0
    a_r, _ = squeeze_profile(P, 4.0)
    assert a_r == pytest.approx(1.1, abs=1e-12)  # r0 + epsilon


def test_squeeze_profile_seams_are_c1():
    P = SqueezeProfile(r0=1.0, r=4.0, epsilon=0.05)
    for seam in (P.r0 - P.epsilon, P.r0):
        left = squeeze_profile(P, seam - 1e-7)
        right = squeeze_profile(P, seam + 1e-7)
        assert abs(left[0] - right[0]) <= 1e-6
        assert abs(left[1] - right[1]) <= 1e-6
    # derivative matches a small-step finite difference of the value
    ts = np.linspace(0.9, 1.3, 101)
    h = 1e-6
    _, derivs = squeeze_profile(P, ts)
    up, _ = squeeze_profile(P, ts + h)
    dn, _ = squeeze_profile(P, ts - h)
    fd = (up - dn) / (2 * h)
    assert np.abs(fd - derivs).max() <= 1e-5


def test_squeeze_profile_contraction_shrinks_with_epsilon():
    # the profile stays multiplicatively close to the identity on the blend
    # zone, with the deviation shrinking as epsilon does
    devs = []
    for eps in (1e-1, 1e-2, 1e-3):
        P = SqueezeProfile(r0=1.0, r=4.0, epsilon=eps)
        ts = np.linspace(P.r0 - eps, P.r0, 400)
        vals, _ = squeeze_profile(P, ts)
        devs.append(np.abs(vals / ts - 1.0).max())
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-3


def test_squeeze_profile_inadmissible_epsilon():
    with pytest.raises(PreconditionError) as err:
        SqueezeProfile(r0=1.0, r=1.2, epsilon=0.5)
    assert "ln(1 + eps/r0)" in str(err.value)


def test_squeeze_profile_radial_slope_bounded():
    # the pullback multiplier t alpha'(t)/alpha(t) stays below 1 in the log
    # zone exactly when the admissibility bound holds
    P = SqueezeProfile(r0=1.0, r=4.0, epsilon=0.1)
    ts = np.linspace(P.r0, P.r, 500)
    vals, derivs = squeeze_profile(P, ts)
    sigma = ts * derivs / vals
    assert sigma.max() < 1.0


# ------------------------------------------------------------ full pipeline

def test_full_pipeline_on_shifted_graph():
    S = cotangent_lcs(T1, [0.0])
    E = graph_embedding(S, p0=0.3)
    h = ScalarField(S.total, lambda j: j[0].sin() * 0.2 + 1.0)
    g, report = build_positive_extension(E, h, base_grid=32, shells=96)
    assert report.final.passed
    assert report.final.max_slope < 1.0
    assert report.final.outer_shell_is_one
    assert report.final.collar_match_sup <= 1e-6
    # stage maxima are recorded in pipeline order
    assert list(report.stage_max_slopes) == [
        "interpolation", "mollified", "collar_restored", "flattened"]


def test_full_pipeline_refuses_translated_double_cover():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    h = ScalarField.constant(E.structure.total, 1.0)
    with pytest.raises(ObstructionError) as err:
        build_positive_extension(E, h, base_grid=12, shells=32, directions=16)
    assert err.value.details.get("ratio") == pytest.approx(1.0, abs=1e-6)


def test_near_zero_extension_zero_section_returns_h():
    # L is the section itself, so the patch is h
    S = cotangent_lcs(T1, [1.0])
    E = zero_section(S)
    h = ScalarField(S.total, lambda j: j[0].sin() * 0.3 + 2.0)
    patch = near_zero_extension(h, E)
    base = parameter_grid(T1, 32).reshape(-1, 1)
    radii = log_radii(1e-3, 0.05, 8)   # a thin collar of the section
    vals = patch.values(base, fiber_directions(1), radii)
    # compare against h node by node
    for bi, q in enumerate(base):
        for di, v in enumerate(fiber_directions(1)):
            pts = np.concatenate([np.repeat(q[None, :], 8, axis=0),
                                  radii[:, None] * v[None, :]], axis=1)
            assert np.abs(vals[bi, di] - h.value(pts)).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_nearest_direction_of_a_single_covector(n):
    # one covector picks the ray its row picks in a batch, direction 0 up
    # to norm 1e-12
    dirs = fiber_directions(n, 16)
    p = np.array([[0.3, 0.4], [0.0, 0.0], [-1e-13, 0.0], [-2.0, 0.1],
                  [0.0, -1.0]])[:, :n]
    r = np.linalg.norm(p, axis=-1)
    batch = nearest_direction(p, r, dirs)
    assert batch[1] == batch[2] == 0
    for i in range(len(p)):
        assert nearest_direction(p[i], np.array(r[i]), dirs) == batch[i]
