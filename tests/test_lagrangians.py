"""Lagrangian verification, primitive solving, lifts, and genericity."""

import numpy as np
import pytest

from lcslab.errors import PreconditionError
from lcslab.forms import pullback, pullback_coefficients
from lcslab.jets import seed_jets
from lcslab.lagrangians import (PATH_CHUNK, ParametricEmbedding, _path_data,
                                base_preimages, beta_graph, contact_lift_check,
                                example_torus_1, example_torus_2,
                                genericity_check, jet_graph, lift_legendrian,
                                solve_primitive, symplectization_immersion,
                                translate_by_form, verify_lagrangian,
                                zero_section)
from lcslab.manifolds import (ScalarField, SmoothMap, make_manifold,
                              parameter_grid, sample_points)
from lcslab.numerics import segment_nodes
from lcslab.structures import cotangent_lcs

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)


# ------------------------------------------------------------------ verify

def test_example_1_is_lagrangian():
    E = example_torus_1()
    rep = verify_lagrangian(E)
    assert rep.passed and rep.residual_sup <= 1e-9


def test_example_2_is_lagrangian():
    E = example_torus_2()
    rep = verify_lagrangian(E)
    assert rep.passed


def test_zero_section_is_lagrangian():
    S = cotangent_lcs(T2, [0.0, 1.0])
    rep = verify_lagrangian(zero_section(S))
    assert rep.passed


def test_nonclosed_graph_fails():
    # graph of the non-closed 1-form p1 = sin(q2), beta = 0
    S = cotangent_lcs(T2, [0.0, 0.0])

    def fn(jets):
        return [jets[0], jets[1], jets[1].sin(), jets[0] * 0.0]

    E_chart = SmoothMap(T2, S.total, fn)
    from lcslab.lagrangians import ParametricEmbedding
    E = ParametricEmbedding(source=T2, structure=S, chart=E_chart)
    rep = verify_lagrangian(E)
    assert not rep.passed
    # residual is |cos q2| at the worst sample, about 1
    assert rep.residual_sup > 0.5


# ------------------------------------------------------------- primitives

def test_example_1_primitive_and_holonomy():
    E = example_torus_1()
    cert = solve_primitive(E, grid_shape=64)
    assert cert.valid
    assert cert.unique_primitive
    # multiplicative holonomy over the phi loop is e^{2 pi}
    H = cert.holonomies["phi"]
    assert abs(H - np.exp(2 * np.pi)) / np.exp(2 * np.pi) <= 1e-6
    assert max(cert.holonomy_defects.values()) <= 1e-8
    # solved primitive equals sin(theta), pinned with no free constant
    params = sample_points(E.source, 50)
    vals = cert.solved_primitive.value(params)
    assert np.abs(vals - np.sin(params[:, 0])).max() <= 1e-8
    assert cert.declared_residual_sup <= 1e-12
    assert cert.declared_match_sup <= 1e-8


def test_example_2_primitive():
    E = example_torus_2()
    cert = solve_primitive(E, grid_shape=64)
    assert cert.valid and cert.unique_primitive
    params = sample_points(E.source, 50)
    vals = cert.solved_primitive.value(params)
    assert np.abs(vals + np.sin(params[:, 0]) ** 3).max() <= 1e-8


def test_zero_section_unique_zero_primitive():
    S = cotangent_lcs(T2, [1.0, 0.0])  # beta = dq1
    cert = solve_primitive(zero_section(S), grid_shape=32)
    assert cert.valid
    assert cert.unique_primitive  # e^{2 pi} holonomy over the q1 loop
    params = sample_points(T2, 30)
    assert np.abs(cert.solved_primitive.value(params)).max() <= 1e-10


def test_primitive_jets_satisfy_defining_relation():
    E = example_torus_1()
    cert = solve_primitive(E, grid_shape=64)
    params = sample_points(E.source, 20)
    jet = cert.solved_primitive.jet(params, order=2)
    assert np.abs(jet.f - np.sin(params[:, 0])).max() <= 1e-8
    # df = i*lambda + f i*beta = cos(theta) d theta (the phi terms cancel)
    grad_expected = np.stack([np.cos(params[:, 0]),
                              np.zeros(len(params))], axis=-1)
    assert np.abs(jet.g - grad_expected).max() <= 1e-8


# ------------------------------------------------------------- translation

def test_translate_zero_is_identity():
    E = example_torus_1()
    E0 = translate_by_form(E, "beta", 0.0)
    pts = sample_points(E.source, 20)
    assert np.allclose(E0.chart(pts), E.chart(pts))


def test_translate_example_1_makes_primitive_positive():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    cert = solve_primitive(E, grid_shape=64)
    assert cert.valid
    params = sample_points(E.source, 40)
    vals = cert.solved_primitive.value(params)
    assert np.abs(vals - (np.sin(params[:, 0]) + 2.0)).max() <= 1e-8
    assert vals.min() > 0


def test_translate_beta_graph_shifts_primitive():
    S = cotangent_lcs(T2, [0.0, 1.0])
    f = ScalarField(T2, lambda j: j[0].cos(), name="cos q1")
    E = beta_graph(f, S)
    Et = translate_by_form(E, "beta", 1.5)
    cert = solve_primitive(Et, grid_shape=48)
    params = sample_points(T2, 30)
    assert np.abs(cert.solved_primitive.value(params)
                  - (np.cos(params[:, 0]) - 1.5)).max() <= 1e-8


# ------------------------------------------------------------- beta graphs

def test_beta_graph_of_zero_is_zero_section():
    S = cotangent_lcs(T2, [0.0, 1.0])
    E = beta_graph(ScalarField.constant(T2, 0.0), S)
    pts = sample_points(T2, 20)
    assert np.abs(E.fiber_values(pts)).max() == 0.0


def test_beta_graph_of_constant():
    # f = 1, beta = dq1: graph of -dq1, primitive 1
    S = cotangent_lcs(T2, [1.0, 0.0])
    E = beta_graph(ScalarField.constant(T2, 1.0), S)
    pts = sample_points(T2, 20)
    fib = E.fiber_values(pts)
    assert np.allclose(fib[:, 0], -1.0) and np.allclose(fib[:, 1], 0.0)
    cert = solve_primitive(E, grid_shape=32)
    assert np.abs(cert.solved_primitive.value(pts) - 1.0).max() <= 1e-8


def test_beta_graph_roundtrip():
    # f = cos q1, beta = dq2: the solver recovers f to 1e-8
    S = cotangent_lcs(T2, [0.0, 1.0])
    f = ScalarField(T2, lambda j: j[0].cos(), name="cos q1")
    cert = solve_primitive(beta_graph(f, S), grid_shape=48)
    assert cert.valid and cert.unique_primitive
    pts = sample_points(T2, 40)
    assert np.abs(cert.solved_primitive.value(pts)
                  - np.cos(pts[:, 0])).max() <= 1e-8


# ------------------------------------------------------------------- lifts

def test_lift_constant_jet_graph():
    c = 1.0
    leg = jet_graph(ScalarField.constant(T1, c), T1)
    Q = make_manifold(1, 0, labels=("theta",))
    E = lift_legendrian(leg, Q, [1.0])
    pts = sample_points(E.source, 20)
    img = E.chart(pts)
    # (x, theta) -> (x, theta, 0, -c) in (q1, theta, p1, p_theta) order
    assert np.allclose(img[:, 2], 0.0)
    assert np.allclose(img[:, 3], -c)
    cert = solve_primitive(E, grid_shape=32)
    assert cert.valid
    assert np.abs(cert.solved_primitive.value(pts) - c).max() <= 1e-8


def test_lift_sine_jet_graph_roundtrip():
    leg = jet_graph(ScalarField(T1, lambda j: j[0].sin(), name="sin"), T1)
    Q = make_manifold(1, 0, labels=("theta",))
    E = lift_legendrian(leg, Q, [1.0])
    rep = verify_lagrangian(E)
    assert rep.passed
    cert = solve_primitive(E, grid_shape=48)
    assert cert.valid
    pts = sample_points(E.source, 30)
    assert np.abs(cert.solved_primitive.value(pts)
                  - np.sin(pts[:, 0])).max() <= 1e-8


def test_lift_over_two_torus():
    leg = jet_graph(ScalarField.constant(T1, 0.5), T1)
    Q = make_manifold(2, 0)
    E = lift_legendrian(leg, Q, [1.0, 1.0])  # beta = dtheta1 + dtheta2
    cert = solve_primitive(E, grid_shape=24)
    assert cert.valid
    assert max(cert.holonomy_defects.values()) <= 1e-8


def test_lift_rejects_non_legendrian():
    j1 = T1.jet1()
    bad = SmoothMap(T1, j1, lambda j: [j[0], j[0].cos(), j[0] * 0.0])
    Q = make_manifold(1, 0)
    with pytest.raises(PreconditionError):
        lift_legendrian(bad, Q, [1.0])


def test_lift_rejects_vanishing_form():
    leg = jet_graph(ScalarField.constant(T1, 1.0), T1)
    Q = make_manifold(1, 0)
    with pytest.raises(PreconditionError):
        lift_legendrian(leg, Q, [ScalarField(Q, lambda j: j[0].sin())])


# --------------------------------------------------------- symplectization

def test_symplectization_of_example_1():
    E = example_torus_1()
    jmap, rep = symplectization_immersion(E)
    assert rep.passed
    pts = sample_points(E.source, 40)
    pb = pullback(jmap, E.structure.lam).coefficients(pts)
    expected = np.stack([np.cos(pts[:, 0]), np.zeros(len(pts))], axis=-1)
    assert np.abs(pb - expected).max() <= 1e-9


def test_symplectization_of_example_2():
    E = example_torus_2()
    jmap, rep = symplectization_immersion(E)
    assert rep.passed
    pts = sample_points(E.source, 40)
    pb = pullback(jmap, E.structure.lam).coefficients(pts)
    expected = np.stack([-3 * np.sin(pts[:, 0]) ** 2 * np.cos(pts[:, 0]),
                         np.zeros(len(pts))], axis=-1)
    assert np.abs(pb - expected).max() <= 1e-9


@pytest.mark.parametrize("make", [example_torus_1, example_torus_2])
def test_symplectization_with_the_solved_primitive(make):
    # a solved primitive is an ordinary field: its fn carries its own jets
    # through the incoming ones, so it untwists like the declared one
    E = make()
    solved = solve_primitive(E, grid_shape=16).solved_primitive
    jmap, rep = symplectization_immersion(E, f=solved)
    _, declared = symplectization_immersion(E)
    assert rep.passed
    assert rep.loop_integrals == pytest.approx(declared.loop_integrals,
                                               abs=1e-12)
    pts = sample_points(E.source, 16)
    got, want = solved.fn(seed_jets(pts)), solved.jet(pts)
    for a, b in ((got.f, want.f), (got.g, want.g), (got.h, want.h)):
        assert np.array_equal(a, b)


def test_symplectization_of_zero_section_unchanged():
    S = cotangent_lcs(T2, [0.0, 1.0])
    E = zero_section(S)
    jmap, rep = symplectization_immersion(E)
    assert rep.passed
    pts = sample_points(T2, 20)
    assert np.allclose(jmap(pts), E.chart(pts))


def per_axis_fd_curl(one_form, coords, h=1e-5):
    """Antisymmetrized central differences of a 1-form's coefficients, one
    stencil per axis: an oracle for its exterior derivative."""
    coords = np.asarray(coords, float).reshape(-1, one_form.domain.dim)
    k = one_form.domain.dim
    grads = []
    for i in range(k):
        up, dn = coords.copy(), coords.copy()
        up[:, i] += h
        dn[:, i] -= h
        grads.append((one_form.coefficients(up)
                      - one_form.coefficients(dn)) / (2 * h))
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            out.append(grads[i][:, j] - grads[j][:, i])
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("twisted", [False, True],
                         ids=["zero-section", "twisted-graph"])
def test_symplectization_fd_curl_matches_per_axis_stencils(twisted):
    # the closedness is the exact pullback of d(lambda), and the stencil
    # oracle agrees with it on the section and on the graph of f*beta over
    # it, whose pulled-back form f*beta has two nonzero, non-closed
    # coefficients
    E, f = zero_section(cotangent_lcs(T2, [0.0, 1.0])), None
    if twisted:
        E = zero_section(cotangent_lcs(T2, [0.7, 1.0]))
        f = ScalarField(T2, lambda j: j[0].cos() * 0.5 + j[1].sin() + 2.0)
    pts = sample_points(T2, 40)
    jmap, rep = symplectization_immersion(E, f=f, samples=pts)
    oracle = per_axis_fd_curl(pullback(jmap, E.structure.lam), pts)
    if twisted:
        assert rep.closedness_sup > 0.1
    assert rep.closedness_sup == pytest.approx(np.abs(oracle).max(),
                                               abs=1e-8)


def test_symplectization_of_beta_graph_is_exactly_closed():
    # the beta-graph of f has a chart of derivative loss 1; the exact
    # closedness needs one jet order less than d of the pulled-back form
    S = cotangent_lcs(T2, [0.7, 1.0])
    f = ScalarField(T2, lambda j: j[0].cos() * 0.5 + j[1].sin() + 2.0)
    _, rep = symplectization_immersion(beta_graph(f, S),
                                       samples=sample_points(T2, 40))
    assert rep.passed
    assert rep.closedness_sup <= 1e-12


# ------------------------------------------------------------ contact lift

def test_contact_lift_identity_torus_1():
    rep = contact_lift_check(T1, [1.0])
    assert rep.passed and rep.equality_sup <= 1e-10
    assert rep.min_abs_coefficient > 0


def test_contact_lift_trivial_beta():
    rep = contact_lift_check(T1, [0.0])
    assert rep.passed and rep.equality_sup <= 1e-14


def test_contact_lift_torus_2():
    rep = contact_lift_check(T2, [1.0, 0.0], tol=1e-10)
    assert rep.passed


# -------------------------------------------------------------- genericity

def test_genericity_zero_section_degenerate():
    S = cotangent_lcs(T2, [0.0, 1.0])
    rep = genericity_check(zero_section(S), grid=24)
    assert rep.degenerate_input and not rep.hypothesis_ok


def test_genericity_example_1():
    rep = genericity_check(example_torus_1(), grid=48)
    assert not rep.degenerate_input
    # fiber (cos/2, -sin) never vanishes: no intersections with the section
    assert rep.intersections.shape[0] == 0
    # base map (2 theta, phi) never drops rank: no vertical tangencies
    assert rep.tangency_params.shape[0] == 0
    assert rep.hypothesis_ok


def test_genericity_example_2_tangencies_touch_section():
    rep = genericity_check(example_torus_2(), grid=48)
    # tangency locus at sin(theta) = 0, which lies on the zero section
    assert rep.tangency_params.shape[0] > 0
    thetas = rep.tangency_params[:, 0]
    dist = np.minimum(np.abs(np.mod(thetas, np.pi)),
                      np.pi - np.abs(np.mod(thetas, np.pi)))
    assert dist.max() <= 1e-6
    assert rep.min_tangency_fiber_norm <= 1e-6
    assert not rep.hypothesis_ok


def per_point_tangency_margins(E, tang, h=1e-5):
    """Gradient norms of the base-block determinant by central differences,
    one point and one axis at a time: the oracle for the exact tangency
    margins."""
    n = E.n
    grads = []
    for u in tang:
        g = np.zeros(E.source.dim)
        for i in range(E.source.dim):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            Jp = E.chart.jacobian(up[None])[0][:n, :]
            Jm = E.chart.jacobian(um[None])[0][:n, :]
            g[i] = (np.linalg.det(Jp) - np.linalg.det(Jm)) / (2 * h)
        grads.append(np.linalg.norm(g))
    return np.asarray(grads)


def test_genericity_tangency_margins_match_per_point_stencils():
    E = example_torus_2()
    rep = genericity_check(E, grid=48)
    ref = per_point_tangency_margins(E, rep.tangency_params)
    assert ref.size > 0 and ref.min() > 0.0
    np.testing.assert_allclose(rep.tangency_margins, ref, rtol=1e-8, atol=0)


def test_genericity_morse_graph():
    # graph of df for Morse f: intersections at critical points with
    # Hessian-controlled margins
    S = cotangent_lcs(T2, [0.0, 0.0])
    f = ScalarField(T2, lambda j: j[0].cos() + j[1].cos() * 0.7)
    rep = genericity_check(beta_graph(f, S), grid=48)
    assert rep.intersections.shape[0] == 4
    assert rep.min_transversality > 0.1
    assert rep.hypothesis_ok


def wave_graph(s):
    """The graph p = 0.7 sin(2q + s) + 0.4 cos(q + 0.3) - 0.2 over the
    circle, and its four transverse crossings of the zero section, from the
    sign changes of p on 4096 nodes refined by bisection."""
    from scipy.optimize import brentq
    S = cotangent_lcs(T1, [0.0])

    def fiber(q):
        return 0.7 * np.sin(2 * q + s) + 0.4 * np.cos(q + 0.3) - 0.2

    chart = SmoothMap(T1, S.total, lambda j: [
        j[0], (j[0] * 2.0 + s).sin() * 0.7 + (j[0] + 0.3).cos() * 0.4 - 0.2])
    E = ParametricEmbedding(source=T1, structure=S, chart=chart)
    q = np.linspace(0.0, 2 * np.pi, 4097)
    v = fiber(q)
    roots = [brentq(fiber, q[i], q[i + 1], xtol=1e-14)
             for i in np.flatnonzero(np.sign(v[:-1]) != np.sign(v[1:]))]
    return E, np.sort(np.mod(roots, 2 * np.pi))


@pytest.mark.parametrize("s", np.round(np.arange(21) * 0.05, 2))
def test_both_zero_section_finders_see_every_transverse_crossing(s):
    # grid local minima of |fiber| seed Newton in both finders: each of the
    # four crossings is found, including the ones a narrow band around the
    # global minimum misses (at s = 0.2 one near 3.4653)
    from lcslab.extension import near_zero_extension
    E, roots = wave_graph(s)
    assert roots.size == 4
    h = ScalarField.constant(E.structure.total, 1.0)
    found = {
        "patch": near_zero_extension(h, E).intersection_bases[:, 0],
        "genericity": genericity_check(E, grid=48).intersections[:, 0]}
    for name, q in found.items():
        assert np.allclose(np.sort(q), roots, rtol=0, atol=1e-9), name


def test_rank_deficient_chart_raises_immersion_error():
    from lcslab.errors import ImmersionError
    S = cotangent_lcs(T2, [0.0, 1.0])

    def fn(jets):
        return [jets[0], jets[0], jets[1] * 0.0, jets[1] * 0.0]

    from lcslab.lagrangians import ParametricEmbedding
    E = ParametricEmbedding(source=T2, structure=S,
                            chart=SmoothMap(T2, S.total, fn))
    with pytest.raises(ImmersionError):
        verify_lagrangian(E)


def test_solved_primitive_transports_the_base_value_to_the_grid_origin():
    # over S^1 x R the loop holonomy of beta = 0.3 cos(q1) dq1 is 1, so the
    # declared primitive pins the value at the base point, the origin; the
    # grid starts at q2 = -4, so that value must be carried along q2 first
    M = make_manifold(1, 1)
    S = cotangent_lcs(M, [ScalarField(M, lambda j: j[0].cos() * 0.3), 0.0])
    f = ScalarField(M, lambda j: j[0].sin() * 0.2 + j[1] * 0.1 + 1.5)
    cert = solve_primitive(beta_graph(f, S), grid_shape=16)
    assert not cert.unique_primitive
    assert cert.base_value == 1.5
    assert cert.declared_match_sup <= 1e-8


def test_contact_lift_top_coefficient_is_unit():
    # n = 1 hand expansion: alpha ^ d(alpha) = -dq ^ dp ^ dz up to sign,
    # so the single top coefficient is exactly +-1 everywhere
    from lcslab.forms import exterior_d
    from lcslab.lagrangians import _canonical_contact_form
    j1 = T1.jet1()
    alpha = _canonical_contact_form(T1)
    vol = alpha.wedge(exterior_d(alpha))
    pts = sample_points(j1, 50)
    coeffs = vol.coefficients(pts)
    assert coeffs.shape[-1] == 1
    assert np.all(np.abs(coeffs) == 1.0)


def test_base_preimages_keep_repeated_targets_apart():
    # q = 2u covers the circle twice, so each target has two preimages; a
    # target listed twice gets both of them twice, and every target's
    # preimages are those of a solve for that target alone
    S = cotangent_lcs(T1, [0.0])
    chart = SmoothMap(T1, S.total,
                      lambda j: [j[0] * 2.0, j[0].sin() * 0.3 + 0.5])
    E = ParametricEmbedding(source=T1, structure=S, chart=chart,
                            name="double cover")
    params = parameter_grid(T1, 96).reshape(-1, 1)
    bases = E.base_values(params)
    targets = np.array([[1.0], [1.0], [2.5]])
    good, owner = base_preimages(E, targets, params, bases, nearest=8)
    assert owner.tolist() == [0, 0, 1, 1, 2, 2]
    assert np.array_equal(good[:2], good[2:4])
    miss = S.base.difference(E.base_values(good), targets[owner])
    assert np.abs(miss).max() <= 1e-12
    for t in range(3):
        alone, _ = base_preimages(E, targets[t:t + 1], params, bases,
                                  nearest=8)
        assert np.array_equal(alone, good[owner == t])


# ------------------------------------------------- one chart evaluation per chunk

def _shared_map_cases():
    leg = jet_graph(ScalarField(T1, lambda j: j[0].sin(), name="sin"), T1)
    S = cotangent_lcs(T2, [0.0, 1.0])
    graph = beta_graph(ScalarField(T2, lambda j: 1.5 + 0.2 * j[0].cos()), S)
    assert graph.chart.derivative_loss == 1
    return [example_torus_1(), example_torus_2(), graph,
            lift_legendrian(leg, make_manifold(1, 0), [1.0])]


@pytest.mark.parametrize("E", _shared_map_cases(),
                         ids=["torus-1", "torus-2", "beta-graph", "lift"])
def test_pullback_coefficients_match_separate_pullbacks(E):
    S = E.structure
    forms = (S.beta, S.lam, S.omega)
    pts = sample_points(E.source, 300)
    shared = pullback_coefficients(E.chart, forms, pts)
    for form, got in zip(forms, shared):
        assert np.array_equal(got, pullback(E.chart, form).coefficients(pts))
    # seeded in one source axis: that axis's column of each 1-form, and no
    # coefficient of the 2-form (derivative-loss charts are sliced)
    for ax in range(E.source.dim):
        beta, lam, omega = pullback_coefficients(E.chart, forms, pts,
                                                 axes=(ax,))
        assert np.array_equal(beta, shared[0][:, [ax]])
        assert np.array_equal(lam, shared[1][:, [ax]])
        assert omega.shape == (300, 0)


def test_path_data_evaluates_the_chart_once_per_chunk(monkeypatch):
    E = example_torus_1()
    calls = []
    inner = E.chart.fn

    def counted(jets):
        calls.append(jets[0].f.size)
        return inner(jets)

    monkeypatch.setattr(E.chart, "fn", counted)
    n_steps = 16                         # 33 nodes per segment
    per_chunk = PATH_CHUNK // 33
    start = np.zeros((per_chunk + 5, 2))
    delta = np.tile([0.1, 0.2], (per_chunk + 5, 1))
    (a, b), h = _path_data(E.chart, (E.structure.beta, E.structure.lam),
                           start, delta, n_steps)
    assert a.shape == b.shape == (per_chunk + 5, 33)
    assert calls == [per_chunk * 33, 5 * 33]


@pytest.mark.parametrize("E", [_shared_map_cases()[i] for i in (0, 3)],
                         ids=["torus-1", "lift"])
def test_path_chunk_size_changes_no_number(E, monkeypatch):
    # chunks hold whole segments and every op is elementwise per node, so
    # the integrands and the solved grid are the same bits at any size
    forms = (E.structure.beta, E.structure.lam)
    rng = np.random.default_rng(7)
    start = sample_points(E.source, 600)   # 19,800 nodes: 2 chunks at 16384
    delta = rng.uniform(-1.0, 1.0, start.shape)
    log = []                       # (points, gradient width) per call
    inner = E.chart.fn

    def counted(jets):
        log[-1].append((jets[0].f.size, jets[0].g.shape[-1]))
        return inner(jets)

    # deltas along one axis, as grid fills and loops have, take the
    # one-axis path (a batch with both columns nonzero would seed both)
    along = []
    for ax in (0, 1):
        one = np.zeros_like(delta)
        one[:, ax] = delta[:, ax]
        along.append(one)

    def run():
        log.clear()
        monkeypatch.setattr(E.chart, "fn", counted)
        out = []
        for d in [delta] + along:
            log.append([])
            out += _path_data(E.chart, forms, start, d, 16)[0]
        monkeypatch.setattr(E.chart, "fn", inner)
        cert = solve_primitive(E, grid_shape=12)
        return (*out, cert.solved_primitive.grid_values, cert.residual_sup)

    # a derivative-loss chart is seeded in full, then sliced
    widths = [2] + [2 if E.chart.derivative_loss else 1] * 2
    runs = []
    for chunk in (PATH_CHUNK, 65536, 7 * 33):    # 7 segments of 33 nodes
        monkeypatch.setattr("lcslab.lagrangians.PATH_CHUNK", chunk)
        runs.append(run())
        for calls, width in zip(log, widths):
            assert sum(n for n, _ in calls) == 600 * 33
            assert all(n % 33 == 0 and n <= chunk and w == width
                       for n, w in calls)
    for got in runs[1:]:
        for x, y in zip(runs[0], got):
            assert np.array_equal(x, y)
    # the one-axis integrands are the full-width contraction's bits
    s = segment_nodes(16)
    for d, got in zip(along, (runs[0][2:4], runs[0][4:6])):
        pos = start[:, None, :] + s[:, None] * d[:, None, :]
        full = pullback_coefficients(E.chart, forms, pos.reshape(-1, 2))
        for x, c in zip(got, full):
            want = np.einsum("snk,sk->sn", c.reshape(pos.shape), d)
            assert np.array_equal(x, want)
    # a query on a node integrates no segment: every delta is zero, so it
    # returns the node's value and evaluates no chart
    solved = solve_primitive(E, grid_shape=12).solved_primitive
    log.append([])
    monkeypatch.setattr(E.chart, "fn", counted)
    assert np.array_equal(solved.value(solved.grid), solved.grid_values)
    assert log[-1] == []
