"""Exterior-calculus contracts: twisted derivative, pullback, contraction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from field_strategies import COEFFS, grammar_fields

from lcslab.errors import DimensionError, PreconditionError
from lcslab.forms import (ScaledForm, check_nondegenerate, constant_form,
                          coordinate_differential, exterior_d, field_form,
                          interior_product, lichnerowicz_d, pullback)
from lcslab.lagrangians import _base_volume, beta_graph, solve_primitive
from lcslab.manifolds import (ScalarField, SmoothMap, VectorField,
                              make_manifold, sample_points)
from lcslab.structures import cotangent_lcs

T2 = make_manifold(2, 0, labels=("theta", "phi"))
COT_T1 = make_manifold(1, 0).cotangent()          # (q1, p1)
COT_T2 = make_manifold(2, 0).cotangent()          # (q1, q2, p1, p2)


def canonical_liouville(cot):
    n = cot.dim // 2
    terms = [coordinate_differential(cot, i) * cot.coordinate_field(n + i)
             for i in range(n)]
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def test_lichnerowicz_on_sine_matches_hand_computation():
    # d_beta(sin theta) with beta = d phi evaluates at the origin to (1, 0)
    alpha = field_form(ScalarField(T2, lambda j: j[0].sin()))
    beta = coordinate_differential(T2, 1)
    dba = lichnerowicz_d(alpha, beta)
    coeffs = dba.coefficients(np.zeros(2))
    assert np.allclose(coeffs, [1.0, 0.0], atol=1e-12)
    # and at theta = pi/3: (cos, -sin)
    c = dba.coefficients(np.array([np.pi / 3, 0.5]))
    assert np.allclose(c, [np.cos(np.pi / 3), -np.sin(np.pi / 3)], atol=1e-12)


def test_zero_twist_reduces_to_de_rham():
    alpha = field_form(ScalarField(T2, lambda j: j[0].sin() * j[1].cos()))
    beta = constant_form(T2, 1, [0.0, 0.0])
    pts = sample_points(T2, 32)
    a = lichnerowicz_d(alpha, beta).coefficients(pts)
    b = exterior_d(alpha).coefficients(pts)
    assert np.allclose(a, b, atol=1e-15)


NILPOTENCY_POINTS = sample_points(COT_T2, 48, radius=1.0)


@settings(max_examples=25, deadline=None)
@given(h_bound=grammar_fields(COT_T2),
       shift=st.lists(COEFFS, min_size=4, max_size=4),
       coeffs=st.lists(grammar_fields(COT_T2), min_size=4, max_size=4))
def test_twisted_derivative_is_nilpotent(h_bound, shift, coeffs):
    # d_beta d_beta alpha = -d(beta) ^ alpha vanishes for closed beta =
    # dh + const, on a function and on a 1-form alpha
    pts = NILPOTENCY_POINTS
    h, _ = h_bound
    beta = exterior_d(field_form(h)) + constant_form(COT_T2, 1, shift)
    b = beta.coefficients(pts)
    assume(np.ptp(b, axis=0).max() > 1e-3)
    fields = [f for f, _ in coeffs]
    one_form = coordinate_differential(COT_T2, 0) * fields[0]
    for i, f in enumerate(fields[1:], start=1):
        one_form = one_form + coordinate_differential(COT_T2, i) * f
    for alpha in (field_form(fields[0]), one_form):
        dd = lichnerowicz_d(lichnerowicz_d(alpha, beta, validate=False),
                            beta, validate=False).coefficients(pts)
        # rounding scale: |beta| |d alpha| + |d beta| |alpha| + |beta|^2 |alpha|
        a_jets = alpha.jets(pts, order=1)
        size = max(np.abs(j.f).max() + np.abs(j.g).max() for j in a_jets)
        b_size = 1.0 + np.abs(b).max() + max(
            np.abs(j.g).max() for j in beta.jets(pts, order=1))
        assert np.abs(dd).max() <= 1e-14 * (1.0 + size) * b_size ** 2


def test_nonclosed_twist_rejected():
    beta = coordinate_differential(COT_T2, 0) * COT_T2.coordinate_field(1)
    alpha = constant_form(COT_T2, 0, [0.0])
    with pytest.raises(PreconditionError):
        lichnerowicz_d(alpha, beta)


def test_degree_bookkeeping_rejected_at_construction():
    with pytest.raises(DimensionError):
        constant_form(T2, 1, [0.0, 0.0]) + constant_form(T2, 2, [0.0])
    with pytest.raises(DimensionError):
        interior_product(VectorField(T2, lambda j: [j[0], j[1]]),
                         constant_form(T2, 0, [0.0]))
    with pytest.raises(DimensionError):
        constant_form(T2, 3, [1.0])


def test_pullback_of_liouville_along_double_cover_torus():
    lam = canonical_liouville(COT_T2)
    emb = SmoothMap(T2, COT_T2, lambda j: [j[0] * 2.0, j[1],
                                           j[0].cos() * 0.5, -j[0].sin()])
    pb = pullback(emb, lam)
    c = pb.coefficients(np.array([np.pi / 4, 0.0]))
    assert np.allclose(c, [np.cos(np.pi / 4), -np.sin(np.pi / 4)], atol=1e-12)


def test_pullback_above_source_dimension_is_the_empty_zero_form():
    # a 2-form on a curve has no coefficients, so the map is never evaluated
    calls = []

    def fn(j):
        calls.append(j)
        return [j[0], j[0] * 0.0 + 0.3]

    curve = SmoothMap(make_manifold(1, 0), COT_T1, fn)
    omega = exterior_d(canonical_liouville(COT_T1))
    pulled = pullback(curve, omega)
    coeffs = pulled.coefficients(sample_points(curve.source, 16))
    assert coeffs.shape == (16, 0)
    assert pulled.jets(np.zeros(1)) == []
    assert calls == []


def twisted_graph_t2():
    """The beta-graph of cos(q1) + 2 over T^2 with beta = (0.3 cos q1, 1): a
    chart of derivative loss 1, so its fiber rows carry one order less."""
    S = cotangent_lcs(make_manifold(2, 0), [
        ScalarField(make_manifold(2, 0), lambda j: j[0].cos() * 0.3), 1.0])
    f = ScalarField(S.base, lambda j: j[0].cos() + 2.0)
    return beta_graph(f, S), S


def test_zero_coefficients_keep_the_pullback_order():
    # lambda = p1 dq1 + p2 dq2 has zero dp-coefficients, whose minors (the
    # fiber rows) lose an order; leaving those terms out keeps order 1
    E, S = twisted_graph_t2()
    pts = sample_points(E.source, 16)
    assert [j.order for j in pullback(E.chart, S.lam).jets(pts, 1)] == [1, 1]
    # so d(i*lambda) evaluates, and equals i*(d lambda)
    d_pulled = exterior_d(pullback(E.chart, S.lam)).coefficients(pts[:2])
    pulled_d = pullback(E.chart, exterior_d(S.lam)).coefficients(pts[:2])
    assert np.abs(d_pulled - pulled_d).max() == 0.0
    # the pullback of dq1 ^ dq2 is the base volume, bit for bit
    vol = pullback(E.chart, constant_form(S.total, 2, [1, 0, 0, 0, 0, 0]))
    jet, base = vol.jets(pts, 1)[0], _base_volume(E, pts, 1)
    assert jet.order == base.order == 1
    assert np.array_equal(jet.f, base.f) and np.array_equal(jet.g, base.g)
    # the solved primitive's jet keeps its Hessian
    f = solve_primitive(E, grid_shape=16).solved_primitive
    assert f.jet(pts, 2).order == 2


def test_pullback_keeps_a_coefficient_zero_only_at_the_points():
    # sin(p1) dp1 vanishes at p1 = 0 but not to first order: along
    # u -> (u, sin u) its pullback sin(sin u) cos u du has derivative 1 at 0
    alpha = coordinate_differential(COT_T1, 1) * ScalarField(
        COT_T1, lambda j: j[1].sin())
    phi = SmoothMap(make_manifold(1, 0), COT_T1,
                    lambda j: [j[0], j[0].sin()])
    jet = pullback(phi, alpha).jets(np.array([[0.0]]), 1)[0]
    assert jet.f[0] == 0.0 and jet.g[0, 0] == 1.0


def test_pullback_along_identity_is_identity():
    lam = canonical_liouville(COT_T2)
    ident = SmoothMap(COT_T2, COT_T2, lambda j: list(j))
    pts = sample_points(COT_T2, 50)
    a = pullback(ident, lam).coefficients(pts)
    assert np.abs(a - lam.coefficients(pts)).max() <= 1e-14


T3 = make_manifold(3, 0)
PULLBACK_POINTS = sample_points(T3, 32)


@st.composite
def maps_into_cot_t2(draw):
    """A smooth map T^3 -> T*T^2 with a drawn grammar field per component,
    and the size of its jets on ``PULLBACK_POINTS``."""
    comps = [draw(grammar_fields(T3))[0] for _ in range(COT_T2.dim)]
    phi = SmoothMap(T3, COT_T2, lambda j: [c.fn(j) for c in comps])
    size = max(np.abs(j.g).max() + np.abs(j.h).max()
               for j in phi.jet(PULLBACK_POINTS))
    return phi, size


def one_form(fields):
    """``sum_i f_i dx_i`` on T*T^2."""
    form = coordinate_differential(COT_T2, 0) * fields[0]
    for i, f in enumerate(fields[1:], start=1):
        form = form + coordinate_differential(COT_T2, i) * f
    return form


def coefficient_size(form, points):
    """Largest value or first derivative among the form's coefficients."""
    return max(np.abs(j.f).max() + np.abs(j.g).max()
               for j in form.jets(points, order=1))


FOUR_FIELDS = st.lists(grammar_fields(COT_T2), min_size=4, max_size=4)


@settings(max_examples=20, deadline=None)
@given(mapped=maps_into_cot_t2(), a=FOUR_FIELDS, b=FOUR_FIELDS)
def test_pullback_commutes_with_d(mapped, a, b):
    # d phi^* alpha = phi^* d alpha for a 0-form, a 1-form and a 2-form;
    # phi^* d(a ^ b) is a 3-form, pulled back through 3x3 minors
    phi, phi_size = mapped
    a, b = [f for f, _ in a], [f for f, _ in b]
    image = np.stack([j.f for j in phi.jet(PULLBACK_POINTS, order=0)], -1)
    for alpha in (field_form(a[0]), one_form(a),
                  one_form(a).wedge(one_form(b))):
        lhs = exterior_d(pullback(phi, alpha)).coefficients(PULLBACK_POINTS)
        rhs = pullback(phi, exterior_d(alpha)).coefficients(PULLBACK_POINTS)
        # rounding scale: the coefficients and their first derivatives at
        # the image times the map's first and second derivatives
        size = coefficient_size(alpha, image) * (1.0 + phi_size) ** 3
        assert np.abs(lhs - rhs).max() <= 1e-14 * (1.0 + size)


@settings(max_examples=20, deadline=None)
@given(mapped=maps_into_cot_t2(), a=FOUR_FIELDS, b=FOUR_FIELDS)
def test_pullback_commutes_with_wedge(mapped, a, b):
    # phi^*(a ^ b) = phi^* a ^ phi^* b for a 0-form with a 1-form and for
    # two 1-forms
    phi, phi_size = mapped
    a, b = [f for f, _ in a], [f for f, _ in b]
    image = np.stack([j.f for j in phi.jet(PULLBACK_POINTS, order=0)], -1)
    for left, right in ((field_form(a[0]), one_form(b)),
                        (one_form(a), one_form(b))):
        lhs = pullback(phi, left.wedge(right)).coefficients(PULLBACK_POINTS)
        rhs = pullback(phi, left).wedge(pullback(phi, right)) \
            .coefficients(PULLBACK_POINTS)
        size = (coefficient_size(left, image)
                * coefficient_size(right, image) * (1.0 + phi_size) ** 2)
        assert np.abs(lhs - rhs).max() <= 1e-14 * (1.0 + size)


def test_pullback_composition_contravariant():
    t1 = make_manifold(1, 0)
    psi = SmoothMap(t1, T2, lambda j: [j[0] * 3.0, j[0] + 1.0])
    phi = SmoothMap(T2, COT_T2, lambda j: [j[0], j[1], j[1].sin(), j[0].cos()])
    alpha = (coordinate_differential(COT_T2, 0) * COT_T2.coordinate_field(3)
             + coordinate_differential(COT_T2, 2) * 0.7)
    pts = sample_points(t1, 64)
    phi_psi = SmoothMap(t1, COT_T2, lambda j: phi.fn(psi.fn(j)))
    a = pullback(phi_psi, alpha).coefficients(pts)
    b = pullback(psi, pullback(phi, alpha)).coefficients(pts)
    assert np.abs(a - b).max() <= 1e-9


def test_interior_product_of_euler_field_recovers_liouville():
    # contraction of the fiber Euler field with d(lambda) gives back lambda
    lam = canonical_liouville(COT_T2)
    Z = VectorField(COT_T2, lambda j: [j[0] * 0.0, j[0] * 0.0, j[2], j[3]])
    pts = sample_points(COT_T2, 100)
    lhs = interior_product(Z, exterior_d(lam)).coefficients(pts)
    rhs = lam.coefficients(pts)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_interior_product_leibniz_rule():
    # iota_X(a ^ b) = (iota_X a) ^ b - a ^ (iota_X b) for 1-forms a, b
    X = VectorField(COT_T2, lambda j: [j[1].sin(), j[0], j[2] * j[3], j[2]])
    a = (coordinate_differential(COT_T2, 0) * COT_T2.coordinate_field(2)
         + coordinate_differential(COT_T2, 1) * 0.3)
    b = (coordinate_differential(COT_T2, 3)
         * ScalarField(COT_T2, lambda j: j[0].cos()))
    pts = sample_points(COT_T2, 100)
    lhs = interior_product(X, a.wedge(b)).coefficients(pts)
    rhs = (interior_product(X, a).wedge(b)
           - a.wedge(interior_product(X, b))).coefficients(pts)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_wedge_graded_commutativity_exact():
    a = coordinate_differential(COT_T2, 0) * COT_T2.coordinate_field(2)
    b = coordinate_differential(COT_T2, 1) * COT_T2.coordinate_field(3)
    pts = sample_points(COT_T2, 50)
    ab = a.wedge(b).coefficients(pts)
    ba = b.wedge(a).coefficients(pts)
    assert np.array_equal(ab, -ba)  # (-1)^{1*1}, structurally exact
    w = a.wedge(b)
    ww = w.wedge(w)  # degree 4 wedge degree... only on dim-4 chart: 2+2=4 ok
    assert ww.degree == 4


def test_field_times_form_is_a_scaled_form():
    f = ScalarField(COT_T2, lambda j: j[1].sin() * j[2] + j[3] ** 2)
    dq = coordinate_differential(COT_T2, 0)
    pts = sample_points(COT_T2, 20)
    left = f * dq
    assert isinstance(left, ScaledForm)
    assert np.array_equal(left.coefficients(pts), (dq * f).coefficients(pts))


def test_d_squared_vanishes():
    alpha = (coordinate_differential(COT_T2, 0)
             * ScalarField(COT_T2, lambda j: j[1].sin() * j[2] + j[3] ** 2))
    pts = sample_points(COT_T2, 100)
    dd = exterior_d(exterior_d(alpha))
    assert np.abs(dd.coefficients(pts)).max() <= 1e-9


def test_expansion_identity_for_rescaled_liouville():
    # top power of d(lambda/g) splits into the conformal and radial terms
    lam = canonical_liouville(COT_T1)
    g = ScalarField(COT_T1, lambda j: ((j[0].sin() * 0.3)
                                       + (j[1].cos() * 0.2)).exp())
    ginv = ScalarField(COT_T1, lambda j: ((j[0].sin() * 0.3)
                                          + (j[1].cos() * 0.2)).exp()
                       .reciprocal())
    lhs = exterior_d(lam * ginv)
    omega = exterior_d(lam)
    rhs = omega * ginv + exterior_d(field_form(ginv)).wedge(lam)
    pts = sample_points(COT_T1, 100)
    assert np.abs(lhs.coefficients(pts) - rhs.coefficients(pts)).max() <= 1e-9


def test_nondegenerate_canonical_symplectic_form():
    lam = canonical_liouville(COT_T2)
    pts = sample_points(COT_T2, 100)
    rep = check_nondegenerate(exterior_d(lam), pts, tol=1e-9)
    assert rep.nondegenerate
    assert abs(rep.min_abs_determinant - 1.0) <= 1e-12


def test_degeneracy_detected_on_unit_sphere_bundle():
    # omega = d(lambda/g) with g = exp(r^2/2) degenerates exactly at r = 1
    lam = canonical_liouville(COT_T1)
    ginv = ScalarField(COT_T1, lambda j: (-(j[1] * j[1]) * 0.5).exp())
    omega = exterior_d(lam * ginv)
    line = np.stack([np.full(61, 0.3), np.linspace(0.5, 1.5, 61)], axis=-1)
    rep = check_nondegenerate(omega, line, tol=1e-6)
    assert not rep.nondegenerate
    # the reported worst sample sits within one grid cell of |p| = 1
    assert abs(abs(rep.worst_point[1]) - 1.0) <= (1.0 / 60) + 1e-12


def test_nondegenerate_contact_cylinder_chart():
    # S^1 x (chart of S^3): alpha = dz + x dy, omega = d_{dtheta} alpha
    m = make_manifold(1, 3, labels=("theta", "x", "y", "z"))
    alpha = (coordinate_differential(m, 3)
             + coordinate_differential(m, 2) * m.coordinate_field(1))
    beta = coordinate_differential(m, 0)
    omega = lichnerowicz_d(alpha, beta)
    pts = sample_points(m, 100, radius=2.0)
    rep = check_nondegenerate(omega, pts, tol=1e-9)
    assert rep.nondegenerate


def test_odd_dimension_rejected():
    m = make_manifold(1, 0).jet1()
    with pytest.raises(DimensionError):
        check_nondegenerate(constant_form(m, 2, np.zeros(3)),
                            np.zeros((1, 3)))
