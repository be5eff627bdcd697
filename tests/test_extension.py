"""Extension pipeline: skeleton, patches, interpolation, mollifier, bound."""

import numpy as np
import pytest

from lcslab.errors import ObstructionError, PreconditionError
from lcslab.extension import (CollarField, RadialField, SqueezeProfile,
                              build_core, build_positive_extension,
                              fiber_directions, log_radii, mollify,
                              near_lagrangian_extension, near_zero_extension,
                              outer_flatten, ray_log_slope, squeeze_profile,
                              verify_radial_bound)
from lcslab.lagrangians import (beta_graph, example_torus_1, translate_by_form,
                                zero_section)
from lcslab.manifolds import ScalarField, make_manifold, parameter_grid
from lcslab.structures import cotangent_lcs

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)
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


# ---------------------------------------------------------------- skeleton

def test_core_of_zero_section_has_no_branches():
    S = cotangent_lcs(T2, [0.0, 1.0])
    sk = build_core(zero_section(S), base_grid=16, param_grid=16)
    assert sk.params.shape[0] == 0
    assert sk.zero_grid.shape == (256, 2)


def test_core_of_double_cover_has_two_branches_per_star():
    sk = build_core(example_torus_1(), base_grid=24, param_grid=48)
    # fiber never vanishes, so every sampled parameter yields a branch
    assert sk.params.shape[0] == 48 * 48
    # two sheets over every populated star (the double cover)
    sheet_counts = [sk.sheets_above(cell) for cell in sk.stars]
    assert set(sheet_counts) == {2}


def test_core_of_beta_graph_single_branch():
    S = cotangent_lcs(T2, [1.0, 0.0])
    E = beta_graph(ScalarField.constant(T2, 1.0), S)
    sk = build_core(E, base_grid=16, param_grid=16)
    assert {sk.sheets_above(cell) for cell in sk.stars} == {1}


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
    patch = near_zero_extension(h, E, blend_radius=0.6)
    assert patch.h_max == pytest.approx(2.5, abs=1e-6)
    assert patch.intersection_bases.shape[0] > 0
    base = parameter_grid(T1, 64).reshape(-1, 1)
    vals = patch.values(base, fiber_directions(1), log_radii(shells=8))
    # continuity at grid scale: no jumps above a few times the base step
    step = 2 * np.pi / 64
    jumps = np.abs(np.diff(vals[:, 0, 0]))
    assert jumps.max() <= 10 * step


def test_near_zero_extension_rejects_obstructed():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    h = ScalarField.constant(E.structure.total, 1.0)
    with pytest.raises(ObstructionError) as err:
        near_zero_extension(h, E)
    assert "chord" in str(err.value) or "ratio" in str(err.value)


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
    from lcslab.extension import RayCrossing, radial_log_interpolation
    base = parameter_grid(T1, 8).reshape(-1, 1)
    dirs = fiber_directions(1)
    radii = log_radii(1e-3, 16.0, 64)
    crossings = [[[] for _ in range(2)] for _ in range(8)]
    crossings[0][0] = [RayCrossing(radius=1.0, value=1.0),
                       RayCrossing(radius=3.0, value=3.0)]
    h = ScalarField.constant(S.total, 1.0)
    with pytest.raises(ObstructionError) as err:
        radial_log_interpolation(patch, crossings, base, dirs, radii, h)
    assert err.value.details["slope"] >= 1.0 - 1e-9


def test_interpolation_accepts_half_slope():
    S = S1
    E = graph_embedding(S, p0=1.0)
    patch = near_zero_extension(ScalarField.constant(S.total, 1.0), E)
    from lcslab.extension import RayCrossing, radial_log_interpolation
    base = parameter_grid(T1, 8).reshape(-1, 1)
    dirs = fiber_directions(1)
    radii = log_radii(1e-3, 16.0, 64)
    crossings = [[[] for _ in range(2)] for _ in range(8)]
    crossings[0][0] = [RayCrossing(radius=1.0, value=1.0),
                       RayCrossing(radius=4.0, value=2.0)]
    h = ScalarField.constant(S.total, 1.0)
    f, report = radial_log_interpolation(patch, crossings, base, dirs, radii, h)
    segs = [s for rec in report for s in rec["segments"]]
    assert any(abs(s["slope"] - 0.5) < 0.05 for s in segs)
    assert f.log_slopes().max() < 1.0


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
    out = mollify(F, kernel_cells=3)
    assert np.abs(out.values - 1.0).max() <= 1e-12


def test_mollify_slope_hull():
    # piecewise slopes {0, 0.5}: mollified slopes stay inside [0, 0.5]
    def vals(r):
        v = np.ones_like(r)
        m = r > 1.0
        v[m] = (r[m] / 1.0) ** 0.5
        return v

    F = _toy_field(vals)
    out = mollify(F, kernel_cells=4)
    slopes = out.log_slopes()
    assert slopes.min() >= -1e-9
    assert slopes.max() <= 0.5 + 1e-9


def test_mollify_uniform_slope_barely_grows():
    F = _toy_field(lambda r: r ** 0.9)
    out = mollify(F, kernel_cells=3)
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
    if F.directions.shape[0] > 8:
        rolled = np.zeros_like(vals)
        for i, w in enumerate(k):
            rolled += w * np.roll(vals, i - kernel_cells, axis=1)
        vals = rolled
    return vals


@pytest.mark.parametrize("base_shape, directions", [
    ((4, 4), 12), ((8,), 2), (None, 12)])
def test_mollify_matches_three_loop_reference(base_shape, directions):
    # every periodic axis (n-d base, 1-d base, direction) carries its own
    # random positive pattern, so each convolution changes the result
    n = 1 if base_shape == (8,) else 2
    B = int(np.prod(base_shape)) if base_shape else 16
    base = parameter_grid(make_manifold(n, 0), round(B ** (1 / n))) \
        .reshape(-1, n)
    dirs = fiber_directions(n, directions)
    radii = log_radii(0.01, 10.0, 24)
    vals = np.random.default_rng(7).uniform(0.5, 2.0,
                                            (B, dirs.shape[0], 24))
    F = RadialField(base, dirs, radii, vals)
    out = mollify(F, kernel_cells=3, base_shape=base_shape)
    assert np.array_equal(out.values,
                          three_loop_mollify(F, 3, base_shape))


def test_mollify_requires_wide_kernel():
    F = _toy_field(lambda r: np.ones_like(r))
    with pytest.raises(PreconditionError):
        mollify(F, kernel_cells=1)


# ------------------------------------------------------------ outer flatten

def test_outer_flatten_identity_on_ones():
    F = _toy_field(lambda r: np.ones_like(r))
    out = outer_flatten(F, r_inner=1.0, r_outer=8.0)
    assert np.array_equal(out.values[..., out.radii >= 8.0], np.ones_like(
        out.values[..., out.radii >= 8.0]))
    assert np.abs(out.values - 1.0).max() <= 1e-12


def test_outer_flatten_minimal_radius():
    # value e at r_inner = 1 with margin 0.5 needs r_outer >= e^2
    F = _toy_field(lambda r: np.full_like(r, np.e), shells=128)
    with pytest.raises(PreconditionError) as err:
        outer_flatten(F, r_inner=1.0, r_outer=np.e ** 2 * 0.98, margin=0.5)
    assert err.value.details["minimal_admissible_r_outer"] == pytest.approx(
        np.e ** 2, rel=0.05)
    out = outer_flatten(F, r_inner=1.0, r_outer=np.e ** 2 * 1.1, margin=0.5)
    assert np.all(out.values[..., -1] == 1.0)


def test_outer_flatten_half_value():
    F = _toy_field(lambda r: np.full_like(r, 0.5), shells=128)
    out = outer_flatten(F, r_inner=2.0, r_outer=9.9, margin=0.0)
    s = np.abs(out.log_slopes())
    expected = abs(np.log(0.5)) / np.log(9.9 / 2.0)
    assert s.max() == pytest.approx(expected, rel=0.05)


# ------------------------------------------------------------ verification

def test_verify_radial_bound_flags_planted_defect():
    F = _toy_field(lambda r: np.ones_like(r), shells=64)
    ok = verify_radial_bound(F)
    assert ok.passed and ok.max_slope == 0.0
    bad = F.copy()
    bad.values[3, 0, :] = bad.radii ** 1.05  # one ray of slope 1.05
    bad.values[..., -1] = 1.0
    rep = verify_radial_bound(bad)
    assert not rep.passed
    assert rep.max_slope >= 1.04
    assert rep.worst_node[0] == 3 and rep.worst_node[1] == 0


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


# ------------------------------------------------- near-Lagrangian extension

def test_collar_field_on_zero_section_is_constant():
    S = cotangent_lcs(T1, [1.0])
    E = beta_graph(ScalarField.constant(T1, 1.0), S)
    # L = graph of -dq; primitive 1; Z vanishes nowhere off the section but
    # the construction pins value 1 on L
    field = near_lagrangian_extension(E, width=0.3)
    pts = E.points(parameter_grid(T1, 16).reshape(-1, 1))
    assert np.abs(field.value(pts) - 1.0).max() <= 1e-9


def test_collar_field_radial_derivative_small():
    S = cotangent_lcs(T1, [1.0])
    E = beta_graph(ScalarField(T1, lambda j: j[0].cos() + 2.0), S)
    field = near_lagrangian_extension(E, width=0.3)
    params = parameter_grid(T1, 24).reshape(-1, 1)
    pts = E.points(params)
    # push slightly off L along the fiber and measure d ln h'(Z)
    off = pts.copy()
    off[:, 1] += 0.05 * np.sign(off[:, 1] + 1e-9)
    vals = field.radial_log_derivative_fd(off)
    assert np.abs(vals).max() <= 0.1


def test_collar_field_handles_planted_tangency():
    # chart (u) -> (cos u as base, 1 + sin u): at u = 0 the tangent is
    # vertical and parallel to the Euler field; the rate clamps cleanly
    S = cotangent_lcs(T1, [1.0])
    from lcslab.lagrangians import ParametricEmbedding
    from lcslab.manifolds import SmoothMap
    chart = SmoothMap(T1, S.total, lambda j: [j[0].cos(), j[0].sin() + 1.0])
    E = ParametricEmbedding(source=T1, structure=S, chart=chart,
                            name="tangency")
    f = ScalarField(T1, lambda j: j[0].cos() * 0.2 + 1.0)
    field = CollarField(E, f, width=0.4)
    x = E.points(np.array([[0.0]]))[0]
    v = field.value(x + np.array([0.0, 0.01]))
    assert np.isfinite(v)
    nearby = field.value(x + np.array([0.02, 0.01]))
    assert np.isfinite(nearby) and abs(nearby - v) < 0.5


def per_axis_collar_gradient(field, coords, h=1e-5):
    """The collar field's gradient by one central difference per axis, the
    way ``CollarField.jet`` computed it before its stencil ran as one batch;
    the reference for the batched jet."""
    coords2 = np.atleast_2d(coords)
    m = coords2.shape[-1]
    g = np.zeros(coords2.shape[:-1] + (m,))
    for i in range(m):
        up, dn = coords2.copy(), coords2.copy()
        up[..., i] += h
        dn[..., i] -= h
        g[..., i] = (field.value(up) - field.value(dn)) / (2 * h)
    return g[0] if np.ndim(coords) == 1 else g


def test_collar_jet_matches_per_axis_stencil():
    S = cotangent_lcs(T1, [1.0])
    E = beta_graph(ScalarField(T1, lambda j: j[0].cos() * 0.5 + 2.0), S)
    field = near_lagrangian_extension(E, width=0.3)
    pts = E.points(parameter_grid(T1, 12).reshape(-1, 1))
    pts[:, 1] += np.linspace(-0.1, 0.1, pts.shape[0])
    for x in (pts, pts[5]):
        jet = field.jet(x, order=1)
        assert np.array_equal(jet.f, field.value(x))
        assert np.array_equal(jet.g, per_axis_collar_gradient(field, x))
    assert np.abs(jet.g).max() > 0.0


def test_collar_rejects_nonpositive_primitive():
    S = cotangent_lcs(T1, [1.0])
    E = beta_graph(ScalarField(T1, lambda j: j[0].cos()), S)  # hits 0
    with pytest.raises(PreconditionError) as err:
        near_lagrangian_extension(E)
    assert "translate_by_form" in str(err.value)


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
    # degenerate skeleton: L is the section itself, the patch is h
    S = cotangent_lcs(T1, [1.0])
    E = zero_section(S)
    sk = build_core(E, base_grid=16, param_grid=24)
    assert sk.params.shape[0] == 0
    h = ScalarField(S.total, lambda j: j[0].sin() * 0.3 + 2.0)
    patch = near_zero_extension(h, E, blend_radius=0.5)
    base = parameter_grid(T1, 32).reshape(-1, 1)
    radii = log_radii(1e-3, 0.05, 8)   # a thin collar of the section
    vals = patch.values(base, fiber_directions(1), radii)
    # compare against h node by node
    for bi, q in enumerate(base):
        for di, v in enumerate(fiber_directions(1)):
            pts = np.concatenate([np.repeat(q[None, :], 8, axis=0),
                                  radii[:, None] * v[None, :]], axis=1)
            assert np.abs(vals[bi, di] - h.value(pts)).max() <= 1e-12
