"""Canonical structure contracts: Euler field, flow, radial criterion and
the radial blend."""

import numpy as np
import pytest

from lcslab.errors import DomainEvaluationError
from lcslab.forms import (coordinate_differential, exterior_d,
                          interior_product)
from lcslab.jets import seed_jets
from lcslab.manifolds import ScalarField, make_manifold, sample_points
from lcslab.structures import (cotangent_lcs,
                               criterion_radial_log_derivative,
                               liouville_flow, liouville_vector_field,
                               radial_blend, smoothstep)

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)
S1 = cotangent_lcs(T1, [1.0])       # beta = dq1
S2 = cotangent_lcs(T2, [0.0, 1.0])  # beta = dq2


def test_liouville_field_coordinates():
    Z = liouville_vector_field(S2)
    vals = Z.values(np.array([0.0, 0.0, 1.0, 2.0]))
    assert np.allclose(vals, [0.0, 0.0, 1.0, 2.0])
    # vanishes identically on the zero section
    zero = Z.values(np.array([[1.0, 2.0, 0.0, 0.0]]))
    assert np.abs(zero).max() == 0.0


def test_contraction_identity():
    Z = liouville_vector_field(S2)
    pts = sample_points(S2.total, 100)
    res = (interior_product(Z, exterior_d(S2.lam)).coefficients(pts)
           - S2.lam.coefficients(pts))
    assert np.abs(res).max() <= 1e-10


def test_coefficient_forms_match_their_sums_of_products():
    # lambda = sum p_i dq_i and beta = sum c_i dq_i are evaluated by their
    # coefficients: the jets of the field-times-differential sums, to order 2
    c1 = ScalarField(T2, lambda j: j[0].cos() * 0.3, name="0.3 cos q1")
    S = cotangent_lcs(T2, [c1, 1.0])
    total = S.total
    lam = (coordinate_differential(total, 0) * total.coordinate_field(2)
           + coordinate_differential(total, 1) * total.coordinate_field(3))
    beta = (coordinate_differential(total, 0) * S.beta_base_coeffs[0]
            + coordinate_differential(total, 1) * S.beta_base_coeffs[1])
    pts = sample_points(total, 200)
    for form, want in ((S.lam, lam), (S.beta, beta)):
        for got, ref in zip(form.jets(pts, order=2), want.jets(pts, order=2)):
            assert got.order == ref.order == 2
            for x, y in ((got.f, ref.f), (got.g, ref.g), (got.h, ref.h)):
                assert np.array_equal(x, y)


def test_flow_scales_fibers_exactly():
    x = np.array([0.3, 0.4, 0.0, 1.0])
    y = liouville_flow(S2, x, np.log(3.0))
    assert np.allclose(y, [0.3, 0.4, 0.0, 3.0])
    # time 0 is the identity, and the group law holds exactly
    assert np.array_equal(liouville_flow(S2, x, 0.0), x)
    a = liouville_flow(S2, liouville_flow(S2, x, 0.25), 0.5)
    b = liouville_flow(S2, x, 0.75)
    assert np.allclose(a, b, atol=1e-15)


def test_flow_takes_a_batch_given_as_a_nested_list():
    # a nested list is a batch by its dimension, as an array is
    moved = liouville_flow(S1, [[1.0, 2.0], [0.5, -1.0]], 1.0)
    assert isinstance(moved, np.ndarray) and moved.shape == (2, 2)
    assert np.allclose(moved, [[1.0, 2.0 * np.e], [0.5, -np.e]])
    single = liouville_flow(S1, [1.0, 2.0], 1.0)
    assert isinstance(single, np.ndarray) and single.shape == (2,)
    assert np.allclose(single, [1.0, 2.0 * np.e])


def test_flow_rescales_liouville_form():
    # (Phi_t)* lambda = e^t lambda on samples
    t = 0.37
    pts = sample_points(S2.total, 100)
    moved = liouville_flow(S2, pts, t)
    lam_moved = S2.lam.coefficients(moved)
    lam_pts = S2.lam.coefficients(pts)
    # the flow fixes base coordinates, so coefficients compare directly
    assert np.abs(lam_moved - np.exp(t) * lam_pts).max() <= 1e-10


def test_radial_criterion_reports():
    one = ScalarField.constant(S1.total, 1.0)
    rep = criterion_radial_log_derivative(one, S1,
                                          sample_points(S1.total, 4096))
    assert rep.sup == 0.0 and rep.passed

    # g = exp(r^2/2): d ln g(Z) = r^2, fails once the grid reaches r >= 1
    g = ScalarField(S1.total, lambda j: (j[1] * j[1] * 0.5).exp())
    line = np.stack([np.zeros(41), np.linspace(0.0, 2.0, 41)], axis=-1)
    rep = criterion_radial_log_derivative(g, S1, samples=line)
    assert not rep.passed
    assert np.isclose(rep.sup, 4.0)  # r^2 at the grid edge r = 2

    small = np.stack([np.zeros(41), np.linspace(0.0, 0.9, 41)], axis=-1)
    rep_small = criterion_radial_log_derivative(g, S1, samples=small)
    assert rep_small.passed


def test_radial_criterion_dense_scan_oracle():
    # g = 1 + sin(p)/2 against a dense 1-d scan of the closed form
    g = ScalarField(S1.total, lambda j: j[1].sin() * 0.5 + 1.0)
    line = np.stack([np.zeros(200), np.linspace(-4, 4, 200)], axis=-1)
    rep = criterion_radial_log_derivative(g, S1, samples=line)
    p = np.linspace(-4, 4, 20001)
    dense = 0.5 * p * np.cos(p) / (1 + 0.5 * np.sin(p))
    assert abs(rep.sup - dense.max()) <= 1e-3


def test_radial_criterion_rejects_nonpositive():
    g = ScalarField(S1.total, lambda j: j[1])  # vanishes on the zero section
    with pytest.raises(DomainEvaluationError):
        criterion_radial_log_derivative(g, S1, sample_points(S1.total, 4096))


# -------------------------------------------------------------- radial blend

R_IN, R_OUT = 1.0, 2.5


def fiber_points(radii, count=5):
    """Covectors of the given radii along ``count`` directions in the plane."""
    ang = np.linspace(0.3, 2 * np.pi + 0.3, count, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    return (np.asarray(radii)[:, None, None] * dirs).reshape(-1, 2)


def test_radial_blend_plateaus_and_smoothstep_between():
    radii = np.concatenate([np.linspace(0.01, R_IN, 7),
                            np.linspace(R_IN, R_OUT, 9)[1:-1],
                            np.linspace(R_OUT, 4.0, 7)])
    r, blend = radial_blend(seed_jets(fiber_points(radii)), R_IN, R_OUT)
    inner, outer = r.f <= R_IN, r.f >= R_OUT
    between = ~inner & ~outer
    assert inner.any() and outer.any() and between.any()
    for part, value in ((inner, 0.0), (outer, 1.0)):
        assert np.all(blend.f[part] == value)
        assert np.all(blend.g[part] == 0.0) and np.all(blend.h[part] == 0.0)
    x = (r.f[between] - R_IN) * (1.0 / (R_OUT - R_IN))
    assert np.array_equal(blend.f[between], smoothstep(x))
    # chain rule: d blend = smoothstep'(x) / (r_out - r_in) * p / r
    p = fiber_points(radii)[between]
    slope = 30.0 * x * x * (x - 1.0) ** 2 / (R_OUT - R_IN)
    assert np.allclose(blend.g[between], (slope / r.f[between])[:, None] * p,
                       rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seam", [R_IN, R_OUT])
def test_radial_blend_order_2_jets_match_across_seams(seam):
    # quintic smoothstep has zero first and second derivatives at both
    # ends, so the jets on either side of a seam agree to O(offset)
    eps = 1e-9
    below, above = (radial_blend(seed_jets(fiber_points([seam * (1 + s)])),
                                 R_IN, R_OUT)[1] for s in (-eps, eps))
    assert np.abs(below.f - above.f).max() <= 1e-12
    assert np.abs(below.g - above.g).max() <= 1e-12
    assert np.abs(below.h - above.h).max() <= 1e-6


def test_radial_blend_derivatives_finite_at_zero_section():
    for n in (1, 2):
        r, blend = radial_blend(seed_jets(np.zeros((3, n))), R_IN, R_OUT)
        for jet in (r, blend):
            assert all(np.isfinite(a).all() for a in (jet.f, jet.g, jet.h))
        assert np.all(blend.f == 0.0) and np.all(r.f > 0.0)
