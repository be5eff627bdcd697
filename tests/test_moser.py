"""Radial deformation flow: analytic oracles, pullback residual, degrees."""

import numpy as np
import pytest

from lcslab.errors import ObstructionError, PreconditionError
from lcslab.jets import Jet2
from lcslab.lagrangians import (beta_graph, example_torus_1, example_torus_2,
                                translate_by_form, zero_section)
from lcslab.manifolds import ScalarField, make_manifold, sample_points
from lcslab.moser import (MoserProblem, integrate_flow, moser_vector_field,
                          projection_degree, straighten_lagrangian,
                          verify_conformal_pullback)
from lcslab.structures import cotangent_lcs

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)
S1 = cotangent_lcs(T1, [0.0])
S2 = cotangent_lcs(T2, [0.0, 1.0])


def constant_ball_field(S, c=2.0, r_in=1.0, r_out=2.0):
    """g = c inside |p| <= r_in, 1 outside |p| >= r_out, quintic blend."""
    n = S.n

    def fn(jets):
        p = jets[n:]
        r2 = None
        for comp in p:
            r2 = comp * comp if r2 is None else r2 + comp * comp
        r2s = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16)
        r = r2s.sqrt()
        x = (r - r_in) * (1.0 / (r_out - r_in))
        s = x * x * x * (x * (x * 6.0 - 15.0) + 10.0)
        inside = r.f <= r_in
        outside = r.f >= r_out
        w = Jet2.where(inside, r * 0.0,
                       Jet2.where(outside, r * 0.0 + 1.0, s))
        return (1.0 - w) * c + w * 1.0

    return ScalarField(S.total, fn, name=f"ball({c})")


def test_identity_factor_gives_zero_field_and_flow():
    g = ScalarField.constant(S2.total, 1.0)
    P = MoserProblem(structure=S2, g=g)
    X = moser_vector_field(P, 0.5)
    pts = sample_points(S2.total, 50)
    assert np.abs(X.values(pts)).max() == 0.0
    res = integrate_flow(P, pts)
    assert np.abs(res.images - res.seeds).max() <= 1e-12
    assert res.max_fiber_drift == 0.0


def test_constant_factor_closed_form_flow():
    # constant c on a ball: the inner region rescales by exactly 1/c
    c = 2.0
    g = constant_ball_field(S1, c=c, r_in=1.0, r_out=2.0)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    seeds = np.array([[0.3, 0.5], [1.0, -0.8], [2.0, 0.25]])
    res = integrate_flow(P, seeds)
    assert np.abs(res.scales - 1.0 / c).max() <= 1e-6
    # base coordinates frozen: structural
    assert np.array_equal(res.images[:, 0], res.seeds[:, 0])


def test_constant_factor_vector_field_formula():
    # X_t = ((1/c - 1)/(t/c + 1 - t)) Z inside the constant region
    c = 2.0
    g = constant_ball_field(S1, c=c)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    for t in (0.0, 0.3, 0.9):
        X = moser_vector_field(P, t)
        pts = np.array([[0.2, 0.4], [1.0, -0.6]])
        expected = ((1 / c - 1) / (t / c + 1 - t)) * pts[:, 1]
        vals = X.values(pts)
        assert np.abs(vals[:, 0]).max() == 0.0
        assert np.abs(vals[:, 1] - expected).max() <= 1e-12


def test_radial_factor_keeps_base_frozen():
    g = ScalarField(S1.total, lambda j: ((j[1] * j[1] + 1.0).log() * 0.1
                                         * 0.0 + 1.0))
    P = MoserProblem(structure=S1, g=g)
    seeds = sample_points(S1.total, 1000)
    res = integrate_flow(P, seeds)
    assert res.max_fiber_drift <= 1e-8


def test_fiber_drift_thousand_seeds():
    g = constant_ball_field(S2, c=1.7, r_in=1.0, r_out=2.0)
    P = MoserProblem(structure=S2, g=g, outside_radius=3.0)
    seeds = sample_points(S2.total, 1000, radius=3.0)
    res = integrate_flow(P, seeds)
    assert res.max_fiber_drift <= 1e-8
    assert np.array_equal(res.images[:, :2], res.seeds[:, :2])


def test_flow_composition():
    g = constant_ball_field(S1, c=1.6)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    seeds = sample_points(S1.total, 64, radius=2.5)
    half = integrate_flow(P, seeds, t0=0.0, t1=0.5)
    full = integrate_flow(P, half.images, t0=0.5, t1=1.0)
    direct = integrate_flow(P, seeds, t0=0.0, t1=1.0)
    assert np.abs(full.images - direct.images).max() <= 1e-7


def test_conformal_pullback_identity():
    g = ScalarField.constant(S1.total, 1.0)
    P = MoserProblem(structure=S1, g=g)
    rep = verify_conformal_pullback(P, samples=128)
    assert rep["residual"] <= 1e-10


def test_conformal_pullback_constant_ball():
    g = constant_ball_field(S1, c=2.0)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    rep = verify_conformal_pullback(P, samples=256)
    assert rep["passed"]
    assert rep["residual"] <= 1e-4


def per_direction_pullback_residual(P, samples, fd_step=1e-5, flow_step=1e-3):
    """Reference residual: one time-1 map call per stencil direction."""
    from lcslab.forms import exterior_d, increasing_indices
    from lcslab.moser import time_one_map
    S = P.structure
    coords = S.samples(samples, fiber_radius=3.0)
    coords = coords[np.linalg.norm(coords[:, S.n:], axis=-1) > 1e-2]
    m = S.total.dim
    phi = time_one_map(P, step=flow_step)
    base_img = phi(coords)
    jac = np.zeros(coords.shape[:1] + (m, m))
    for i in range(m):
        up, dn = coords.copy(), coords.copy()
        up[:, i] += fd_step
        dn[:, i] -= fd_step
        jac[:, :, i] = S.total.difference(phi(up), phi(dn)) / (2 * fd_step)
    pairs = increasing_indices(m, 2)
    omega = exterior_d(S.lam).coefficients(base_img)
    mat = np.zeros((coords.shape[0], m, m))
    for pos, (i, j) in enumerate(pairs):
        mat[:, i, j] = omega[:, pos]
        mat[:, j, i] = -omega[:, pos]
    pulled = np.einsum("bri,brs,bsj->bij", jac, mat, jac)
    ginv = ScalarField(S.total, lambda jets: P.g.fn(jets).reciprocal())
    target = exterior_d(S.lam * ginv).coefficients(coords)
    return float(max(np.abs(pulled[:, i, j] - target[:, pos]).max()
                     for pos, (i, j) in enumerate(pairs)))


def test_batched_stencil_matches_per_direction_flow():
    g = constant_ball_field(S1, c=2.0)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    rep = verify_conformal_pullback(P, samples=256)
    assert rep["residual"] == per_direction_pullback_residual(P, 256)


def test_conformal_pullback_fails_for_euler_flow():
    # deliberately degraded integrator: coarse Euler steps break the identity
    g = constant_ball_field(S1, c=2.0)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    rep = verify_conformal_pullback(P, samples=96, flow_method="euler",
                                    flow_step=0.5)
    assert not rep["passed"]
    assert rep["residual"] > 1e-4


def test_moser_problem_rejects_obstructed_factor():
    # d ln g(Z) = p^2 reaches 1 inside the grid: not a Liouville rescaling
    g = ScalarField(S1.total, lambda j: (j[1] * j[1] * 0.5).exp())
    with pytest.raises((ObstructionError, PreconditionError)):
        MoserProblem(structure=S1, g=g)


def test_family_stays_liouville_at_intermediate_times():
    # d(g_t lambda) nondegenerate for t in {0, 0.25, 0.5, 0.75, 1}
    from lcslab.forms import check_nondegenerate, exterior_d
    g = constant_ball_field(S1, c=2.0)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    pts = sample_points(S1.total, 200, radius=2.5)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        gt = ScalarField(
            S1.total,
            lambda j, t=t: g.fn(j).reciprocal() * t + (1.0 - t))
        rep = check_nondegenerate(exterior_d(S1.lam * gt), pts, tol=1e-6)
        assert rep.nondegenerate, f"family degenerated at t={t}"


def test_straighten_zero_section_identity():
    E = zero_section(S1)
    g = ScalarField.constant(S1.total, 1.0)
    out, rep = straighten_lagrangian(E, g, eta_prime=())
    assert rep.passed
    assert rep.closedness_sup <= 1e-10
    pts = out.points(sample_points(T1, 32))
    assert np.abs(pts[:, 1]).max() == 0.0


def test_straightened_embedding_is_first_class():
    # the output re-enters the Lagrangian lab: verification and primitive
    # solving run on it directly
    from lcslab.lagrangians import solve_primitive, verify_lagrangian
    sigma = 0.3
    beta_coeff = ScalarField(T1, lambda j: j[0].cos() * sigma)
    S = cotangent_lcs(T1, [beta_coeff])
    f = ScalarField(T1, lambda j: j[0].sin() * 0.2 + 1.5)
    E = beta_graph(f, S)

    def g_fn(jets):
        q, p = jets[0], jets[1]
        r2 = p * p
        r2s = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16)
        r = r2s.sqrt()
        x = r - 1.0
        s = x * x * x * (x * (x * 6.0 - 15.0) + 10.0)
        w = Jet2.where(r.f <= 1.0, r * 0.0,
                       Jet2.where(r.f >= 2.0, r * 0.0 + 1.0, s))
        return ((q.sin() * sigma) * (1.0 - w)).exp()

    out, rep = straighten_lagrangian(E, ScalarField(S.total, g_fn))
    assert rep.passed
    # the straightened image lives in the untwisted structure
    assert np.abs(out.structure.beta.coefficients(
        sample_points(out.structure.total, 16))).max() == 0.0
    vrep = verify_lagrangian(out, samples=sample_points(T1, 64))
    assert vrep.passed
    cert = solve_primitive(out, grid_shape=24, steps_per_loop=384)
    assert max(cert.holonomy_defects.values()) <= 1e-6


def test_straighten_exact_beta_graph_scene():
    # beta = d(0.3 sin q): exact Lee class; the twisted graph straightens to
    # a closed-form graph (0-exact image)
    sigma = 0.3
    base = T1
    beta_coeff = ScalarField(base, lambda j: j[0].cos() * sigma)
    S = cotangent_lcs(base, [beta_coeff])
    f = ScalarField(base, lambda j: j[0].sin() * 0.2 + 1.5)
    E = beta_graph(f, S)

    # conformal factor e^{sigma sin q} near L, clamped to 1 outside
    def g_fn(jets):
        q, p = jets[0], jets[1]
        r2 = p * p
        r2s = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16)
        r = r2s.sqrt()
        x = (r - 1.0) * (1.0 / 1.0)
        s = x * x * x * (x * (x * 6.0 - 15.0) + 10.0)
        w = Jet2.where(r.f <= 1.0, r * 0.0,
                       Jet2.where(r.f >= 2.0, r * 0.0 + 1.0, s))
        return ((q.sin() * sigma) * (1.0 - w)).exp()

    g = ScalarField(S.total, g_fn)
    out, rep = straighten_lagrangian(E, g, eta_prime=())
    assert rep.closedness_sup <= 1e-8
    assert rep.holonomy_sup <= 1e-6
    assert rep.passed


def test_straighten_refuses_obstructed_scene():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    bad_g = ScalarField(E.structure.total,
                        lambda j: ((j[2] * j[2] + j[3] * j[3]) * 0.5).exp())
    from lcslab.chords import mvt_obstruction_report
    chords = mvt_obstruction_report(E, grid=32)
    with pytest.raises(ObstructionError):
        straighten_lagrangian(E, bad_g, chord_report=chords)


def test_projection_degree_zero_section():
    assert projection_degree(zero_section(S2)) == 1


def test_projection_degree_double_cover():
    assert projection_degree(example_torus_1()) == 2


def test_projection_degree_beta_graphs():
    f = ScalarField(T2, lambda j: j[0].cos() * 0.4 + j[1].sin() * 0.2)
    assert projection_degree(beta_graph(f, S2)) == 1


def test_projection_degree_curled_torus_is_zero():
    # the curled torus misses most base points; its signed count vanishes
    assert projection_degree(example_torus_2()) == 0


def scene_flow_problem(name):
    """A scene's Moser problem with straightening seeds and their directions:
    the compiled constant ball of ``moser-constant-ball`` on sample points,
    or the interpolated extension field of ``beta-graph-pipeline`` on the
    embedding grid that ``full-pipeline`` straightens."""
    from pathlib import Path

    from lcslab.manifolds import parameter_grid
    from lcslab.moser import radial_field_to_scalar_field
    from lcslab.scenes import (_build_embedding, _build_moser_g,
                               _build_structure, _extension, load_scene)
    scene = load_scene(Path(__file__).parent.parent / "scenes" / name)
    if "extension" not in scene:
        S = _build_structure(scene)
        P = MoserProblem(structure=S, g=_build_moser_g(scene, S),
                         outside_radius=scene["moser"]["outside_radius"])
        seeds = sample_points(S.total, 64, radius=3.0)
        dirs = np.broadcast_to(np.eye(seeds.shape[1]),
                               seeds.shape[:1] + (seeds.shape[1],) * 2)
        return P, seeds, dirs
    E = _build_embedding(scene)
    _, _, field = _extension(scene, {"seed": 0}, E)
    P = MoserProblem(structure=E.structure,
                     g=radial_field_to_scalar_field(field, E.structure),
                     outside_radius=float(field.radii[-1]))
    params = parameter_grid(E.source, 32).reshape(-1, E.source.dim)
    return P, E.points(params), np.swapaxes(E.chart.jacobian(params), 1, 2)


@pytest.mark.parametrize("scene", ["moser-constant-ball.json",
                                   "beta-graph-pipeline.json"])
def test_first_variations_leave_flow_scales_unchanged(scene):
    # straightening reads its images off the variational flow's scales, so
    # those must be the plain flow's scales bit for bit
    from lcslab.moser import _flow_scales
    P, seeds, dirs = scene_flow_problem(scene)
    plain, none = _flow_scales(P, seeds, 5e-3, 0.0, 1.0)
    varied, dscale = _flow_scales(P, seeds, 5e-3, 0.0, 1.0, dirs=dirs)
    assert none is None
    assert dscale.shape == dirs.shape[:2]
    assert np.array_equal(plain, varied)
    assert not np.array_equal(plain, np.ones_like(plain))


def per_axis_interpolant_jet(F, coords, order):
    """The interpolated field's jet by per-axis central differences of
    ``value`` and of a per-axis gradient, the way the field computed it
    before its stencils ran as one batch; the reference for the batched
    jet."""
    f = F.value(coords)
    c2 = np.atleast_2d(coords)
    h = 1e-4
    m = c2.shape[1]

    def grad_at(pts):
        g = np.zeros(pts.shape)
        for i in range(m):
            up, dn = pts.copy(), pts.copy()
            up[:, i] += h
            dn[:, i] -= h
            g[:, i] = (F.value(up) - F.value(dn)) / (2 * h)
        return g

    g = grad_at(c2)
    if order == 1:
        return f, (g if coords.ndim > 1 else g[0]), None
    hess = np.zeros(c2.shape + (m,))
    for i in range(m):
        up, dn = c2.copy(), c2.copy()
        up[:, i] += h
        dn[:, i] -= h
        hess[:, i, :] = (grad_at(up) - grad_at(dn)) / (2 * h)
    hess = 0.5 * (hess + np.swapaxes(hess, -1, -2))
    if coords.ndim == 1:
        return f, g[0], hess[0]
    return f, g, hess


def test_interpolant_jet_matches_per_axis_stencils():
    # the closedness certificate of full-pipeline reads these jets, so the
    # batched stencil must reproduce the per-axis loops bit for bit
    P, seeds, _ = scene_flow_problem("beta-graph-pipeline.json")
    S = P.structure
    coords = np.concatenate([seeds[::4], sample_points(S.total, 64,
                                                       radius=6.0)])
    for pts in (coords, coords[7]):
        for order in (1, 2):
            jet = P.g.jet(pts, order=order)
            f, g, h = per_axis_interpolant_jet(P.g, pts, order)
            assert np.array_equal(jet.f, f)
            assert np.array_equal(jet.g, g)
            if order == 2:
                assert np.array_equal(jet.h, h)
                assert np.abs(h).max() > 0.0
