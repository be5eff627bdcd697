"""Radial deformation flow: analytic oracles, pullback residual, degrees."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from field_strategies import grammar_fields
from lcslab.errors import (DomainEvaluationError, ObstructionError,
                           PreconditionError)
from lcslab.expressions import compile_field
from lcslab.extension import RadialField, fiber_directions, log_radii
from lcslab.jets import Jet2, partial_jet
from lcslab.lagrangians import (beta_graph, example_torus_1, example_torus_2,
                                translate_by_form, zero_section)
from lcslab.manifolds import (ScalarField, make_manifold, parameter_grid,
                              sample_points)
from lcslab.moser import (MoserProblem, _moser_rate, flow_and_check,
                          integrate_flow, projection_degree,
                          radial_field_to_scalar_field, straighten_lagrangian,
                          verify_conformal_pullback)
from lcslab.structures import cotangent_lcs, criterion_radial_log_derivative

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)
S1 = cotangent_lcs(T1, [0.0])
S2 = cotangent_lcs(T2, [0.0, 1.0])
SCENES = Path(__file__).resolve().parent.parent / "scenes"


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
    pts = sample_points(S2.total, 50)
    c, bad = _moser_rate(P, S2.total.normalize(pts), 0.5)
    assert not bad.any()
    assert np.abs(c).max() == 0.0
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


@settings(max_examples=5, deadline=None)
@given(c=st.floats(0.5, 3.0), r_in=st.floats(0.2, 2.0),
       width=st.floats(1.0, 2.5))
def test_flow_scales_are_one_over_g_at_the_seed(c, r_in, width):
    # the identity integrate_flow certifies itself against: the radial
    # time-1 map (q, p) -> (q, s p) pulls d(lambda) back to d(lambda/g)
    # exactly when s = 1/g at the seed.  Seeds sit inside the ball, across
    # the blend (where g at the seed and at its image differ) and outside;
    # blends of width 1 or more keep the flow at its default step.
    outside = 4.0
    r_out = min(r_in + width, outside)
    g = constant_ball_field(S1, c=c, r_in=r_in, r_out=r_out)
    ray = np.stack([np.zeros(4001), np.linspace(0.0, r_out, 4001)], axis=-1)
    assume(criterion_radial_log_derivative(g, S1, ray).sup < 0.9)
    P = MoserProblem(structure=S1, g=g, outside_radius=outside)
    p = np.concatenate([np.linspace(-1.2 * r_out, 1.2 * r_out, 24),
                        np.linspace(r_in, r_out, 6)[1:-1]])
    seeds = np.stack([np.linspace(0.0, 6.0, p.size), p], axis=-1)
    # the checked flow is integrate_flow's, its seed rows first
    res, check = flow_and_check(P, seeds, 1e-3, seeds.shape[0], 1e-4)
    assert np.abs(res.scales - 1.0 / g.value(seeds)).max() <= 1e-10
    assert check["passed"]


def test_constant_factor_vector_field_formula():
    # X_t = ((1/c - 1)/(t/c + 1 - t)) Z inside the constant region, where
    # the rate does not vary
    c = 2.0
    g = constant_ball_field(S1, c=c)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    pts = np.array([[0.2, 0.4], [1.0, -0.6]])
    for t in (0.0, 0.3, 0.9):
        expected = (1 / c - 1) / (t / c + 1 - t)
        rate, bad = _moser_rate(P, pts, t)
        assert not bad.any()
        assert np.abs(rate - expected).max() <= 1e-12


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


@pytest.mark.parametrize("last_error,raises", [(5e-11, False),
                                               (2e-10, True)])
def test_richardson_verdict_reads_the_last_halving(monkeypatch, last_error,
                                                   raises):
    # a fake flow whose scales miss 1/g by 1e-8, then less at each halving,
    # until the 10th: meeting the 1e-10 tolerance there is a pass, missing
    # it a divergence
    import lcslab.moser as moser
    c = 2.0
    misses = [1e-8 / 1.5 ** k for k in range(10)] + [last_error]
    calls = iter(zip([1e-3 / 2 ** k for k in range(11)], misses))

    def fake_flow_scales(P, seeds, step):
        want, miss = next(calls)
        assert step == want
        return np.full(seeds.shape[0], 1.0 / c + miss)

    monkeypatch.setattr(moser, "_flow_scales", fake_flow_scales)
    P = MoserProblem(structure=S1, g=constant_ball_field(S1, c=c),
                     outside_radius=3.0)
    if raises:
        with pytest.raises(PreconditionError, match="after 10 of") as err:
            integrate_flow(P, [[0.0, 0.5]], step=1e-3)
        assert err.value.details["closed_form_error"] == pytest.approx(
            last_error)
        assert err.value.details["seed"] == "[0.  0.5]"
    else:
        res = integrate_flow(P, [[0.0, 0.5]], step=1e-3)
        assert res.step == 1e-3 / 2 ** 10
        assert res.scales[0] == 1.0 / c + last_error
    assert next(calls, None) is None


def test_halving_that_does_not_reduce_the_miss_raises(monkeypatch):
    # scales that miss 1/g by a fixed factor at every step: the first
    # halving leaves the miss as it was, so the flow stops after 2 runs
    # instead of running the 2,047 runs' worth of steps of all 10 halvings
    import lcslab.moser as moser
    c = 2.0
    steps = []

    def fixed_miss_scales(P, seeds, step):
        steps.append(step)
        return np.full(seeds.shape[0], 1.0 / c * (1.0 + 1e-6))

    monkeypatch.setattr(moser, "_flow_scales", fixed_miss_scales)
    P = MoserProblem(structure=S1, g=constant_ball_field(S1, c=c),
                     outside_radius=3.0)
    with pytest.raises(PreconditionError, match="after 1 of") as err:
        integrate_flow(P, [[0.0, 0.5], [1.0, -0.25]], step=1e-3)
    assert steps == [1e-3, 5e-4]
    assert err.value.details["closed_form_error"] == pytest.approx(5e-7)
    assert err.value.details["seed"] == "[0.  0.5]"


def test_steep_blend_still_halves_to_its_certificate(monkeypatch):
    # a legitimate steep blend (width 0.43) misses at the default step, and
    # each halving reduces the miss until the 3rd meets the 1e-10 bound
    import lcslab.moser as moser
    c, r_in, r_out = 2.55, 2.29, 2.72
    g = constant_ball_field(S1, c=c, r_in=r_in, r_out=r_out)
    P = MoserProblem(structure=S1, g=g, outside_radius=4.0)
    p = np.concatenate([np.linspace(-1.2 * r_out, 1.2 * r_out, 24),
                        np.linspace(r_in, r_out, 6)[1:-1]])
    seeds = np.stack([np.linspace(0.0, 6.0, p.size), p], axis=-1)
    flow_scales, misses = moser._flow_scales, []

    def recorded(P, seeds, step):
        scales = flow_scales(P, seeds, step)
        misses.append(np.abs(scales - 1.0 / g.value(seeds)).max())
        return scales

    monkeypatch.setattr(moser, "_flow_scales", recorded)
    res = integrate_flow(P, seeds)
    assert res.step == 1e-3 / 8
    assert len(misses) == 4 and misses[-1] <= 1e-10 < misses[-2]
    assert all(b < a for a, b in zip(misses, misses[1:]))
    assert np.abs(res.scales - 1.0 / g.value(seeds)).max() == misses[-1]


def sequential_flow_scales(P, seeds, step):
    """The RK4 flow loop at one step size with one scalar time for all rows,
    written out by itself: the reference for ``_flow_scales``' scales and
    positivity errors."""
    from lcslab.moser import _moser_rate
    n = P.structure.n
    seeds = np.atleast_2d(seeds)
    B = seeds.shape[0]
    q = seeds[:, :n]
    p = seeds[:, n:]
    r0 = np.linalg.norm(p, axis=-1)
    live = r0 > 1e-14
    v = np.zeros_like(p)
    v[live] = p[live] / r0[live, None]
    n_steps = max(1, int(np.ceil(1.0 / step)))
    h = 1.0 / n_steps

    def rhs(r, t):
        coords = np.concatenate([q, r[:, None] * v], axis=1)
        c, bad = _moser_rate(P, coords, 1.0 - t)
        if bad.any():
            raise PreconditionError(
                "Moser denominator g_tau + dg_tau(Z) lost positivity",
                point=np.array2string(coords[bad][0], precision=6),
                tau=1.0 - t)
        return c * r

    r = r0
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(r, t)
        k2 = rhs(r + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(r + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(r + h * k3, t + h)
        r = r + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    scales = np.ones(B)
    scales[live] = r[live] / r0[live]
    return scales


def spiked_ball_problem(spots, width=1e-4):
    """The constant ball times narrow bumps of height e^0.05, one per
    (q, p) spot, each centred just outside its spot along the ray, so that
    d ln g(Z) is in the hundreds there: far past 1, yet off the 2,048-point
    grid on which MoserProblem checks the bound."""
    ball = constant_ball_field(S1, c=2.0)

    def fn(jets):
        g = ball.fn(jets)
        for q0, p0 in spots:
            dq = jets[0] - q0
            dp = jets[1] - (p0 + np.sign(p0) * width / np.sqrt(2))
            g = g * (((dq * dq + dp * dp) * (-1.0 / width ** 2)).exp()
                     * 0.05).exp()
        return g

    return MoserProblem(structure=S1, g=ScalarField(S1.total, fn),
                        outside_radius=3.0)


def ball_stage_points(p0, h):
    """Fiber coordinates at which an RK4 run of the plain constant ball from
    p0 at step h makes its 2nd and its 5th rate call."""
    from lcslab.moser import _moser_rate
    P = MoserProblem(structure=S1, g=constant_ball_field(S1, c=2.0),
                     outside_radius=3.0)

    def rate(p, t):
        return _moser_rate(P, np.array([[0.0, p]]), 1.0 - t)[0][0] * p

    k1 = rate(p0, 0.0)
    k2 = rate(p0 + 0.5 * h * k1, 0.5 * h)
    k3 = rate(p0 + 0.5 * h * k2, 0.5 * h)
    k4 = rate(p0 + h * k3, h)
    return p0 + 0.5 * h * k1, p0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


SPIKE_SEEDS = np.array([[0.5, 1.5], [2.5, 0.8], [4.0, -1.2]])


@pytest.mark.parametrize("case", ["fine later", "first call"])
def test_positivity_error_names_the_first_failing_rate_call(case):
    # integrate_flow at step 0.5 runs one RK4 run of two steps.  A bump
    # where its 5th rate call lands on the second seed fails it there; a
    # bump where a run at step 1 would make its 2nd call, on the first
    # seed, is never visited.  Bumps on two seeds fail the run at its first
    # call, naming the first failing row.
    q, p = SPIKE_SEEDS.T
    unvisited = (q[0], ball_stage_points(p[0], 1.0)[0])
    fifth = (q[1], ball_stage_points(p[1], 0.5)[1])
    spots, tau = {"fine later": ([unvisited, fifth], 0.5),
                  "first call": (SPIKE_SEEDS[:0:-1], 1.0)}[case]
    P = spiked_ball_problem(spots)
    with pytest.raises(PreconditionError, match="lost positivity") as want:
        sequential_flow_scales(P, SPIKE_SEEDS, 0.5)
    with pytest.raises(PreconditionError, match="lost positivity") as got:
        integrate_flow(P, SPIKE_SEEDS, step=0.5)
    assert str(got.value) == str(want.value)
    assert got.value.details == want.value.details
    assert type(got.value.details["tau"]) is float
    assert got.value.details["tau"] == tau
    # the named point lies on the seed's ray the bump sits on
    named = np.array(got.value.details["point"][1:-1].split(), float)
    assert named[0] == pytest.approx(spots[-1][0], abs=1e-6)


def test_a_seed_losing_positivity_is_named_before_its_stencil():
    # the check's stencil rows fail with their seeds, at the same rate
    # call; the seed rows come first, so the error names a seed, as a flow
    # of the seeds alone does
    P = spiked_ball_problem(SPIKE_SEEDS[:0:-1])
    with pytest.raises(PreconditionError, match="lost positivity") as want:
        integrate_flow(P, SPIKE_SEEDS, step=0.5)
    with pytest.raises(PreconditionError, match="lost positivity") as got:
        flow_and_check(P, SPIKE_SEEDS, 0.5, 3, 1e-4)
    assert got.value.details == want.value.details


@pytest.mark.parametrize("S", [S1, S2], ids=["T1", "T2"])
def test_fixed_rows_keep_the_loop_scales_bit_for_bit(S):
    # rows where g = 1 and dg(Z) = 0 skip the RK4 loop with scale 1; the
    # loop over every row is the reference.  Seeds inside the ball, across
    # its blend, outside it, exactly at |p| = r_out and on the zero section
    # alternate, so a fixed row sits between moving ones
    from lcslab.moser import _flow_scales
    P = MoserProblem(structure=S, g=constant_ball_field(S), outside_radius=3.0)
    radii = np.array([0.5, 2.5, 1.3, 2.0, 1.9, 0.0, 1.7, 3.0, 1.0, 2.0])
    angles = np.linspace(0.3, 5.9, radii.size)
    if S.n == 1:
        p = (radii * np.sign(np.cos(angles)))[:, None]
    else:
        p = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], -1)
        p[3] = [1.2, 1.6]               # |p| = r_out up to rounding
    seeds = np.hstack([np.linspace(0.1, 6.0, radii.size * S.n)
                       .reshape(-1, S.n), p])
    got = _flow_scales(P, seeds, 5e-3)
    assert np.array_equal(got, sequential_flow_scales(P, seeds, 5e-3))
    assert (got == 1.0).sum() >= 4 and (got != 1.0).sum() >= 4


def test_fixed_rows_are_judged_where_the_first_rate_call_reads():
    # for p = (1.45, 0.11) the first rate call reads r0 v, one ulp inside
    # |p|.  With g = 1 from |p| on and 2 inside, g = 1 at the seed, yet the
    # row moves: the loop reads g = 2 and scales it by 1/2
    from lcslab.moser import _flow_scales
    p = np.array([1.45, 0.11])
    R = np.sqrt(p[0] * p[0] + p[1] * p[1])

    def fn(j):
        r = (j[2] * j[2] + j[3] * j[3]).sqrt()
        return Jet2.where(r.f >= R, r * 0.0 + 1.0, r * 0.0 + 2.0)

    P = MoserProblem(structure=S2, g=ScalarField(S2.total, fn),
                     outside_radius=3.0)
    seeds = np.array([[0.5, 0.5, *p]])
    assert P.g.value(seeds)[0] == 1.0
    got = _flow_scales(P, seeds, 5e-3)
    assert np.array_equal(got, sequential_flow_scales(P, seeds, 5e-3))
    assert got[0] == pytest.approx(0.5)


def test_identity_deform_makes_no_rate_call(monkeypatch, tmp_path):
    # g = 1 everywhere: every row is fixed, so the RK4 loop never runs
    import lcslab.moser as moser
    from lcslab.cli import main
    calls = []

    def counted(P, coords, tau):
        calls.append(coords.shape[0])
        return rate(P, coords, tau)

    rate = moser._moser_rate
    monkeypatch.setattr(moser, "_moser_rate", counted)
    assert main(["moser-deform", str(SCENES / "moser-identity.json"),
                 "--out", str(tmp_path)]) == 0
    assert calls == []


def test_constant_ball_rates_read_only_the_rows_inside_its_support(
        monkeypatch, tmp_path):
    # g = 1 at |p| >= 2 on moser-constant-ball: after the one evaluation of
    # g at every row, the rate calls read only the rows with |p| < 2
    import lcslab.moser as moser
    from lcslab.cli import main
    calls = []

    def recorded(P, coords):
        r = np.linalg.norm(coords[:, P.structure.n:], axis=-1)
        calls.append((r.size, int((r < 2.0).sum()), float(r.max())))
        return fiber_jet(P, coords)

    fiber_jet = moser._fiber_jet
    monkeypatch.setattr(moser, "_fiber_jet", recorded)
    assert main(["moser-deform", str(SCENES / "moser-constant-ball.json"),
                 "--out", str(tmp_path)]) == 0
    (rows, inside, _), rates = calls[0], calls[1:]
    assert 0 < inside < rows
    assert len(rates) == 4000
    assert all(n == inside and r_max < 2.0 for n, _, r_max in rates)


def test_unit_factor_with_steep_slope_still_raises():
    # g = 1 at the second seed with dg(Z) = 2 there: the first rate call's
    # denominator is 1 - 2 < 0, so it is no fixed row, and both loops raise
    # at that call naming it.  The first seed, at p = 3, is fixed.  The
    # factor is set after MoserProblem checked a benign one.
    from lcslab.moser import _flow_scales
    P = MoserProblem(structure=S1, g=constant_ball_field(S1),
                     outside_radius=3.0)
    P.g = ScalarField(S1.total, lambda j: (j[1] - 0.5) * (j[1] - 3.0)
                      * (j[1] - 3.0) * 0.64 + 1.0)
    seeds = np.array([[0.2, 3.0], [1.0, 0.5]])
    with pytest.raises(PreconditionError, match="lost positivity") as want:
        sequential_flow_scales(P, seeds, 1e-3)
    with pytest.raises(PreconditionError, match="lost positivity") as got:
        _flow_scales(P, seeds, 1e-3)
    assert got.value.details == want.value.details
    assert got.value.details["point"] == "[1.  0.5]"
    assert got.value.details["tau"] == 1.0


def test_conformal_pullback_needs_a_sample_off_the_zero_section():
    P = MoserProblem(structure=S1, g=constant_ball_field(S1, c=2.0),
                     outside_radius=3.0)
    with pytest.raises(PreconditionError,
                       match="no seed with fiber norm above 1e-2 to check"):
        verify_conformal_pullback(P, samples=[[1.0, 0.0]])


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
    S = P.structure
    coords = sample_points(S.total, samples, radius=3.0)
    coords = coords[np.linalg.norm(coords[:, S.n:], axis=-1) > 1e-2]
    m = S.total.dim

    def phi(x):
        return integrate_flow(P, x, step=flow_step).images

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


def test_conformal_pullback_fails_for_perturbed_flow(monkeypatch):
    # the oracle's self-test: a time-1 map whose fiber scale is 1% off
    # pulls d(lambda) back to 1.01 d(lambda/g), which must fail the check
    import lcslab.moser as moser
    flow = moser.integrate_flow

    def perturbed_flow(P, seeds, *args, **kwargs):
        res = flow(P, seeds, *args, **kwargs)
        res.images[:, P.structure.n:] *= 1.01
        return res

    monkeypatch.setattr(moser, "integrate_flow", perturbed_flow)
    g = constant_ball_field(S1, c=2.0)
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    rep = verify_conformal_pullback(P, samples=96)
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
    pts = out.chart(sample_points(T1, 32))
    assert np.abs(pts[:, 1]).max() == 0.0


def test_straighten_two_torus_zero_section():
    # a 2-d Lagrangian: the closedness pulls d(lambda) back through a chart
    # of derivative loss 1, which its order-2 jets afford
    E = zero_section(S2)
    g = ScalarField.constant(S2.total, 1.0)
    _, rep = straighten_lagrangian(E, g, grid=8)
    assert rep.passed
    assert rep.closedness_sup == 0.0
    assert rep.holonomy_sup == 0.0


def exact_lee_factor(S, sigma):
    """g = e^sigma(q) inside |p| <= 1, 1 outside |p| >= 2, quintic blend:
    the factor that straightens twisted graphs of the exact Lee class
    beta = d(sigma) while |p| stays below 1 on them."""
    n = S.n

    def fn(jets):
        r2 = None
        for comp in jets[n:]:
            r2 = comp * comp if r2 is None else r2 + comp * comp
        r = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16).sqrt()
        x = r - 1.0
        s = x * x * x * (x * (x * 6.0 - 15.0) + 10.0)
        w = Jet2.where(r.f <= 1.0, r * 0.0,
                       Jet2.where(r.f >= 2.0, r * 0.0 + 1.0, s))
        return (sigma(jets) * (1.0 - w)).exp()

    return ScalarField(S.total, fn, name="exact-lee-factor")


def test_straighten_refuses_a_translation_that_is_not_closed():
    # eta' = (0.1 sin q2, 0) is not closed: the straightened chart's pullback
    # of d(lambda) reads -0.1 cos q2, while both loop integrals vanish
    E = zero_section(S2)
    g = ScalarField.constant(S2.total, 1.0)
    eta = [ScalarField(T2, lambda j: j[1].sin() * 0.1), 0.0]
    _, rep = straighten_lagrangian(E, g, eta_prime=eta, grid=8)
    assert rep.closedness_sup == pytest.approx(0.1, rel=1e-12)
    assert rep.holonomy_sup <= 1e-15
    assert not rep.passed


def two_torus_beta_graph():
    """A beta-graph on T^2 with beta = d(sigma), and the factor e^sigma
    near it that straightens it."""
    S = cotangent_lcs(T2, [ScalarField(T2, lambda j: j[0].cos() * 0.2),
                           ScalarField(T2, lambda j: j[1].sin() * -0.1)])
    f = ScalarField(T2, lambda j: j[0].cos() * 0.2 + j[1].sin() * 0.1 + 1.5)
    g = exact_lee_factor(S, lambda j: j[0].sin() * 0.2 + j[1].cos() * 0.1)
    return beta_graph(f, S), g


def test_straighten_two_torus_beta_graph():
    # beta = d(sigma) on T^2 and g = e^sigma near the graph: the time-1 map
    # scales each fiber by e^-sigma, so the image d(e^-sigma f) is exact; df
    # and d(sigma) are independent, so it is closed only through the
    # derivatives of the scale, which the closedness reads; those come
    # from E's own jets, so the chart keeps E's derivative loss
    E, g = two_torus_beta_graph()
    out, rep = straighten_lagrangian(E, g, grid=8)
    assert out.chart.derivative_loss == E.chart.derivative_loss
    assert rep.closedness_sup <= 1e-8
    assert rep.holonomy_sup <= 1e-6
    assert rep.passed


def test_straighten_one_dimensional_source_runs_no_variational_flow(
        monkeypatch):
    # 2-forms vanish on curves: a 1-d certificate never evaluates the
    # straightened chart (whose last step is the fiber shift), and the
    # holonomy flows once per loop
    from lcslab import moser
    calls, shifts = [], []

    def recording_flow_scales(P, seeds, step):
        calls.append(step)
        return flow_scales(P, seeds, step)

    def recording_shift_fibers(*args):
        shifts.append(args)
        return shift_fibers(*args)

    flow_scales, shift_fibers = moser._flow_scales, moser._shift_fibers
    monkeypatch.setattr(moser, "_flow_scales", recording_flow_scales)
    monkeypatch.setattr(moser, "_shift_fibers", recording_shift_fibers)
    S = cotangent_lcs(T1, [ScalarField(T1, lambda j: j[0].cos() * 0.3)])
    f = ScalarField(T1, lambda j: j[0].sin() * 0.2 + 1.5)
    _, rep = straighten_lagrangian(
        beta_graph(f, S), exact_lee_factor(S, lambda j: j[0].sin() * 0.3))
    assert calls == [5e-3]
    assert shifts == []
    assert rep.closedness_sup == 0.0
    assert rep.passed


def test_straightened_embedding_is_first_class():
    # the output re-enters the Lagrangian lab: verification and primitive
    # solving run on it directly
    from lcslab.lagrangians import solve_primitive, verify_lagrangian
    sigma = 0.3
    beta_coeff = ScalarField(T1, lambda j: j[0].cos() * sigma)
    S = cotangent_lcs(T1, [beta_coeff])
    f = ScalarField(T1, lambda j: j[0].sin() * 0.2 + 1.5)
    E = beta_graph(f, S)
    out, rep = straighten_lagrangian(
        E, exact_lee_factor(S, lambda j: j[0].sin() * sigma))
    assert rep.passed
    # the straightened image lives in the untwisted structure
    assert np.abs(out.structure.beta.coefficients(
        sample_points(out.structure.total, 16))).max() == 0.0
    vrep = verify_lagrangian(out, samples=sample_points(T1, 64))
    assert vrep.passed
    cert = solve_primitive(out, grid_shape=24)
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
    g = exact_lee_factor(S, lambda j: j[0].sin() * sigma)
    out, rep = straighten_lagrangian(E, g, eta_prime=())
    assert rep.closedness_sup <= 1e-8
    assert rep.holonomy_sup <= 1e-6
    assert rep.passed


def test_straighten_refuses_obstructed_scene():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    bad_g = ScalarField(E.structure.total,
                        lambda j: ((j[2] * j[2] + j[3] * j[3]) * 0.5).exp())
    # MoserProblem owns the refusal: d ln g(Z) = |p|^2 reaches 1
    with pytest.raises(ObstructionError) as err:
        straighten_lagrangian(E, bad_g)
    assert str(err.value).startswith("d ln g(Z) reaches 1")
    assert err.value.details["worst"] >= 1.0


def test_rate_refuses_a_nan_denominator():
    # g reaches 0 at (0.5, 1.5), where its gradient vanishes too: 1/g is
    # inf, the denominator NaN, and the flow must refuse the seed there
    ball = constant_ball_field(S1)
    g = ScalarField(S1.total, lambda j: ball.fn(j) * (1.0 - (
        ((j[0] - 0.5) * (j[0] - 0.5) + (j[1] - 1.5) * (j[1] - 1.5))
        * -1e8).exp()))
    P = MoserProblem(structure=S1, g=g, outside_radius=3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(PreconditionError) as err:
            integrate_flow(P, [[0.5, 1.5]])
    assert str(err.value).startswith(
        "Moser denominator g_tau + dg_tau(Z) lost positivity")
    assert err.value.details == {"point": "[0.5 1.5]", "tau": 1.0}


def test_richardson_check_refuses_a_nan_scale(monkeypatch):
    # a NaN scale is a failed accuracy check, not an accepted step
    import lcslab.moser as moser

    def nan_scales(P, seeds, step):
        return np.full(seeds.shape[0], np.nan)

    monkeypatch.setattr(moser, "_flow_scales", nan_scales)
    P = MoserProblem(structure=S1, g=constant_ball_field(S1))
    with pytest.raises(PreconditionError, match="diverged after 1 of") as err:
        integrate_flow(P, [[0.5, 1.5]])
    assert np.isnan(err.value.details["closed_form_error"])
    assert err.value.details["seed"] == "[0.5 1.5]"


def test_moser_problem_refuses_a_nan_factor():
    # exp(1000 p^2) overflows on the samples, so g is NaN there: the radial
    # criterion refuses it as not positive, naming the point
    g = ScalarField(S1.total,
                    lambda j: (j[1] * j[1] * 1000.0).exp() * 0.0 + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainEvaluationError,
                           match="log-derivative of a nonpositive field "
                                 "at point"):
            MoserProblem(structure=S1, g=g)


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
    """A scene's Moser problem, straightening seeds and straightening
    inputs: the compiled factor of a ``moser`` scene on sample points (no
    inputs), or the interpolated extension field of a ``full-pipeline`` scene
    on the 32-grid of chart points that ``full-pipeline`` straightens, with
    the embedding and the extension's ``RadialField``."""
    from lcslab.scenes import (_build_embedding, _build_moser_g,
                               _build_structure, _extension, load_scene)
    scene = load_scene(SCENES / name)
    if "extension" not in scene:
        S = _build_structure(scene)
        P = MoserProblem(structure=S, g=_build_moser_g(scene, S),
                         outside_radius=scene["moser"].get("outside_radius",
                                                           8.0))
        return P, sample_points(S.total, 64, radius=3.0), None
    E = _build_embedding(scene)
    _, _, field = _extension(scene, {"seed": 0}, E)
    P = MoserProblem(structure=E.structure,
                     g=radial_field_to_scalar_field(field, E.structure),
                     outside_radius=float(field.radii[-1]))
    params = parameter_grid(E.source, 32).reshape(-1, E.source.dim)
    return P, E.chart(params), (E, field)


@pytest.mark.parametrize("scene", ["moser-constant-ball.json",
                                   "beta-graph-pipeline.json"])
def test_first_variations_leave_flow_scales_unchanged(scene):
    # the holonomy loops of the straightening and integrate_flow read these
    # scales, so the array loop of _flow_scales must give the sequential
    # loop's bits
    from lcslab.moser import _flow_scales
    P, seeds, _ = scene_flow_problem(scene)
    plain = _flow_scales(P, seeds, 5e-3)
    assert not np.array_equal(plain, np.ones_like(plain))
    assert np.array_equal(plain, sequential_flow_scales(P, seeds, 5e-3))


def straightened_scales(E, g, params):
    """The fiber scale of E's straightened chart at ``params``, read off
    its images, and the mask of rows off the zero section that it is read
    on."""
    out, _ = straighten_lagrangian(E, g, grid=2)
    n = E.structure.n
    p = E.chart(params)[:, n:]
    r2 = np.einsum("bi,bi->b", p, p)
    live = r2 > 1e-28
    img = out.chart(params)[:, n:]
    return np.einsum("bi,bi->b", img, p)[live] / r2[live], live


@pytest.mark.parametrize("case", ["beta-graph-pipeline.json",
                                  "beta-graph-asymmetric.json",
                                  "moser-constant-ball.json", "two-torus"])
def test_rk4_flow_agrees_with_the_closed_form_time_1_map(case):
    # the RK4 Moser flow is the independent oracle of the closed form
    # (q, p) -> (q, p/g(q, p)) that the straightened chart reads.  At step
    # 2.5e-4 they agree to 2e-9: on the straightened 32-grid of both
    # beta-graph fixtures, whose interpolated factors are C^1 at their
    # shells, and on T^2; the constant ball has no chart, so its seeds are
    # checked against 1/g itself
    from lcslab.moser import _flow_scales
    if case == "two-torus":
        E, g = two_torus_beta_graph()
        P = MoserProblem(structure=E.structure, g=g)
        params = parameter_grid(T2, 8).reshape(-1, 2)
        seeds = E.chart(params)
    else:
        P, seeds, inputs = scene_flow_problem(case)
        E, g = inputs or (None, None)
        params = parameter_grid(T1, 32).reshape(-1, 1)
    rk4 = _flow_scales(P, seeds, 2.5e-4)
    if E is None:
        live = np.linalg.norm(seeds[:, 1:], axis=-1) > 1e-14
        closed = 1.0 / P.g.value(seeds[live])
    else:
        closed, live = straightened_scales(E, g, params)
    assert live.sum() >= 30
    assert np.abs(rk4[live] - closed).max() <= 2e-9


def test_straightened_chart_jets_match_central_differences():
    # two_torus_beta_graph's graph with df written out is a chart of
    # derivative loss 0, so its straightened chart has Jacobian and Hessian;
    # they agree with central differences (step 1e-5) of its values and of
    # its exact Jacobian
    from lcslab.lagrangians import ParametricEmbedding
    from lcslab.manifolds import SmoothMap
    from lcslab.numerics import central_difference
    E, g = two_torus_beta_graph()
    S = E.structure

    def graph(j):
        f = j[0].cos() * 0.2 + j[1].sin() * 0.1 + 1.5
        return [j[0], j[1], j[0].sin() * -0.2 - f * (j[0].cos() * 0.2),
                j[1].cos() * 0.1 + f * (j[1].sin() * 0.1)]

    explicit = ParametricEmbedding(source=T2, structure=S,
                                   chart=SmoothMap(T2, S.total, graph))
    pts = sample_points(T2, 64)
    assert np.abs(explicit.chart(pts) - E.chart(pts)).max() <= 1e-15
    out, _ = straighten_lagrangian(explicit, g, grid=2)
    assert out.chart.derivative_loss == 0
    comps = out.chart.jet(pts, order=2)
    _, jac = central_difference(out.chart, pts, 1e-5,
                                diff=S.total.difference)
    _, hess = central_difference(out.chart.jacobian, pts, 1e-5)
    assert np.abs(np.stack([c.g for c in comps], axis=1) - jac).max() <= 1e-9
    assert np.abs(np.stack([c.h for c in comps], axis=1) - hess).max() <= 1e-9
    assert np.abs(hess).max() > 0.1


def full_row_pchip_value(F, S):
    """``value`` of the interpolated field with scipy's PCHIP interpolant
    evaluated on every ray column of each row, of which each point keeps its
    own rays, blended over the corners of its base cell one corner at a
    time: the reference for the field's coefficient gather and base blend.

    Each base axis finds its cell by itself: a circle axis wraps its node
    indices modulo the node count, a line axis clamps q to its end nodes.
    On T^1 the corner sum is ``(1 - w) * p0 + w * p1``, the linear blend the
    field has always used there.
    """
    import itertools

    from scipy.interpolate import PchipInterpolator
    n, B, D = S.n, F.base_points.shape[0], F.directions.shape[0]
    ln_r = np.log(F.radii)
    interp = PchipInterpolator(ln_r, np.log(F.values).reshape(B * D, -1).T,
                               axis=0, extrapolate=False)
    axes = [np.unique(F.base_points[:, i]) for i in range(n)]
    sizes = [a.size for a in axes]

    def axis_cell(nodes, circle, x):
        m = nodes.size
        if circle:
            pos = x / (nodes[1] - nodes[0])
            lo = np.floor(pos)
            return lo.astype(int) % m, (lo.astype(int) + 1) % m, pos - lo
        x = np.clip(x, nodes[0], nodes[-1])
        lo = np.minimum(np.searchsorted(nodes, x, "right") - 1, m - 2)
        return lo, lo + 1, (x - nodes[lo]) / (nodes[lo + 1] - nodes[lo])

    def value(points):
        c2 = np.atleast_2d(S.total.normalize(points))
        q, p = c2[:, :n], c2[:, n:]
        r = np.linalg.norm(p, axis=-1)
        d_idx = np.argmax((p / np.maximum(r, 1e-300)[:, None])
                          @ F.directions.T, axis=-1)
        d_idx[r <= 1e-12] = 0
        rows = interp(np.clip(np.log(np.maximum(r, F.radii[0])),
                              ln_r[0], ln_r[-1]))
        cells = [axis_cell(axes[i], S.base.is_circle[i], q[:, i])
                 for i in range(n)]
        total = 0.0
        for corner in itertools.product((0, 1), repeat=n):
            index = tuple(cells[i][corner[i]] for i in range(n))
            b_idx = np.ravel_multi_index(index, sizes)
            weight = 1.0
            for i in range(n):
                w = cells[i][2]
                weight = weight * (w if corner[i] else 1 - w)
            total = total + weight * rows[np.arange(r.shape[0]),
                                          b_idx * D + d_idx]
        out = np.exp(total)
        return out if np.ndim(points) > 1 else out[0]

    return value


def random_radial_field(base, per_axis, rng):
    """A field of random positive values on ``per_axis`` nodes per base
    axis, 8 directions and 12 radii."""
    n = base.dim
    grid = parameter_grid(base, per_axis).reshape(-1, n)
    dirs = fiber_directions(n, 8)
    radii = log_radii(1e-3, 16.0, 12)
    values = np.exp(rng.normal(
        size=(grid.shape[0], dirs.shape[0], radii.shape[0])))
    return RadialField(grid, dirs, radii, values)


@st.composite
def pchip_nodes(draw):
    """Increasing nodes and 1-4 value columns on 2-7 of them.  Values drawn
    from {-1, 0, 1, 2} give flat runs and sign changes among the slopes."""
    R, N = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    gaps = draw(hnp.arrays(float, R - 1, elements=st.floats(1e-3, 4.0)))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    y = draw(hnp.arrays(float, (R, N), elements=st.one_of(
        st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-10.0, 10.0))))
    return x, y


@settings(max_examples=300, deadline=None)
@given(nodes=pchip_nodes())
# each end's slope clamped to 3*m0 (the first two intervals turn with
# |d| > 3|m0|), an end slope of the wrong sign zeroed, two nodes
@example(nodes=(np.arange(4.0), np.array([[0.0], [1.0], [-4.0], [-3.0]])))
@example(nodes=(np.arange(3.0), np.array([[0.0], [1.0], [6.0]])))
@example(nodes=(np.array([0.5, 2.0]), np.array([[1.0, -2.0], [3.0, -2.0]])))
def test_pchip_port_matches_scipy(nodes):
    # the port's coefficients are scipy's bit for bit: a mutant that
    # drops the 3*m0 end clamp fails at the clamp example
    from scipy.interpolate import PchipInterpolator

    from lcslab.moser import _pchip_coefficients
    x, y = nodes
    assert np.array_equal(_pchip_coefficients(x, y),
                          PchipInterpolator(x, y, axis=0).c)


def test_pchip_port_matches_scipy_on_the_pipeline_field():
    from scipy.interpolate import PchipInterpolator

    from lcslab.moser import _pchip_coefficients
    _, _, (_, field) = scene_flow_problem("beta-graph-pipeline.json")
    ln_r = np.log(field.radii)
    y = np.log(field.values).reshape(-1, ln_r.size).T
    assert np.array_equal(_pchip_coefficients(ln_r, y),
                          PchipInterpolator(ln_r, y, axis=0).c)


@pytest.mark.parametrize("circles,lines", [(1, 0), (2, 0), (1, 1), (0, 2),
                                           (0, 1)])
def test_interpolant_gather_matches_full_row_pchip(circles, lines):
    # every base blends over its cell's corners, circle axes wrapping and
    # line axes clamping (q is drawn beyond the line nodes at +-4); the radii
    # include p = 0, tiny |p|, every grid node and |p| >= r_max
    base = make_manifold(circles, lines)
    S = cotangent_lcs(base)
    n = base.dim
    rng = np.random.default_rng(7 + n)
    F = random_radial_field(base, 8 if n == 1 else 4, rng)
    radii = F.radii
    field = radial_field_to_scalar_field(F, S)
    ref = full_row_pchip_value(F, S)

    k = 2000
    special = np.array([0.0, 1e-13, 1e-9, 16.0, 40.0, *radii])
    r = np.where(np.arange(k) < 4 * special.size,
                 np.resize(special, k), np.exp(rng.uniform(-10.0, 4.0, k)))
    v = rng.normal(size=(k, n))
    q = np.where(base.is_circle, rng.uniform(-1.0, 8.0, (k, n)),
                 rng.uniform(-5.0, 5.0, (k, n)))
    pts = np.concatenate(
        [q, r[:, None] * v / np.linalg.norm(v, axis=-1, keepdims=True)],
        axis=-1)
    assert np.array_equal(field.value(pts), ref(pts))
    assert field.value(pts[5]) == ref(pts[5])


@pytest.mark.parametrize("circles,lines", [(2, 0), (1, 1)])
def test_interpolant_is_continuous_across_base_cells(circles, lines):
    # along every base axis, points 1e-7 apart on either side of a node
    # (a border of the blend's cells) and of a midpoint between nodes (a
    # border of nearest-node cells) take values within the field's slope
    base = make_manifold(circles, lines)
    S = cotangent_lcs(base)
    rng = np.random.default_rng(11)
    F = random_radial_field(base, 4, rng)
    field = radial_field_to_scalar_field(F, S)
    for i in range(base.dim):
        nodes = np.unique(F.base_points[:, i])
        step = nodes[1] - nodes[0]
        borders = np.concatenate([nodes[:-1], nodes[:-1] + 0.5 * step])
        pts = np.repeat(S.total.normalize(np.concatenate(
            [rng.uniform(-3.0, 3.0, (borders.size, 2)),
             rng.uniform(0.05, 8.0, (borders.size, 2))], axis=1)), 2, axis=0)
        pts[:, i] = np.repeat(borders, 2) + np.tile([-1e-7, 1e-7],
                                                    borders.size)
        v = field.value(pts)
        assert np.abs(v[1::2] - v[::2]).max() <= 1e-5 * v.max()


def oracle_points(F, S, rng, k):
    """Points where a central difference of step 1e-5 is accurate: each
    base coordinate and ln r inside the middle 80% of a cell or well beyond
    the clamped ends, r >= 0.25, and p at least 0.05 (in cosine) nearer its
    own direction than any other, so no stencil point crosses a kink of the
    interpolant."""
    n = S.n
    q = []
    for nodes, circle in zip(F.base_axes(), S.base.is_circle):
        cell = rng.integers(0, nodes.size - 1, k)
        x = nodes[cell] + rng.uniform(0.1, 0.9, k) * (nodes[cell + 1]
                                                      - nodes[cell])
        if not circle:      # a tenth beyond the end nodes, where q clamps
            x = np.where(rng.uniform(size=k) < 0.1,
                         rng.choice([-1.0, 1.0], k) * rng.uniform(4.1, 6.0, k),
                         x)
        q.append(x)
    ln_r = np.log(F.radii)
    shell = rng.integers(np.searchsorted(ln_r, np.log(0.25)), ln_r.size - 1,
                         k)
    r = np.exp(ln_r[shell] + rng.uniform(0.1, 0.9, k)
               * (ln_r[shell + 1] - ln_r[shell]))
    # and a tenth beyond r_max, where ln r clamps
    r = np.where(rng.uniform(size=k) < 0.1, rng.uniform(17.0, 30.0, k), r)
    v = rng.normal(size=(k, n))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    dots = np.sort(v @ F.directions.T, axis=-1)
    pts = np.concatenate([np.stack(q, axis=-1), r[:, None] * v], axis=-1)
    return pts[dots[:, -1] - dots[:, -2] >= 0.05]


@pytest.mark.parametrize("circles,lines", [(1, 0), (2, 0), (1, 1), (0, 2),
                                           (0, 1)])
def test_interpolant_jets_match_central_differences(circles, lines):
    # the straightening certificate reads these jets: gradient and Hessian
    # are exact, so a central difference of the value (and of the exact
    # gradient) agrees to its truncation error where no kink lies within h
    from lcslab.numerics import central_difference
    base = make_manifold(circles, lines)
    S = cotangent_lcs(base)
    rng = np.random.default_rng(3 + base.dim)
    F = random_radial_field(base, 8 if base.dim == 1 else 4, rng)
    field = radial_field_to_scalar_field(F, S)
    pts = oracle_points(F, S, rng, 400)
    assert pts.shape[0] >= 200
    jet = field.jet(pts, order=2)
    value, grad = central_difference(field.value, pts, 1e-5)
    _, hess = central_difference(lambda x: field.jet(x, order=1).g, pts,
                                 1e-5)
    assert np.array_equal(jet.f, value)
    for got, want in ((jet.g, grad), (jet.h, hess)):
        scale = np.abs(want).reshape(len(pts), -1).max(axis=-1)
        err = np.abs(got - want).reshape(len(pts), -1).max(axis=-1)
        assert (err <= 1e-6 * scale).all()
    assert np.abs(jet.h).max() > 0.0


def test_interpolant_composes_as_a_field():
    # the field is an ordinary ScalarField: its fn evaluates on jets, so
    # derived fields build on it, and a single point evaluates too
    P, seeds, _ = scene_flow_problem("beta-graph-pipeline.json")
    S, G = P.structure, P.g
    pts = np.concatenate([seeds, sample_points(S.total, 64, radius=20.0),
                          [[1.0, 0.0]]])
    inverse = ScalarField(S.total, lambda j: G.fn(j).reciprocal())
    assert np.array_equal(inverse.value(pts), 1.0 / G.value(pts))
    assert G.value(pts[3]) == G.value(pts)[3]


def same_bits(a, b) -> bool:
    """Equal float64 arrays bit for bit: -0.0 differs from 0.0, and a NaN
    equals a NaN of the same payload."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def rate_points(S, rng, k=96):
    """Normalized points of T*M: wrapped and unwrapped base coordinates,
    fibers from the zero section out past every factor's radius."""
    n = S.n
    q = rng.uniform(-1.0, 8.0, (k, n))
    v = rng.normal(size=(k, n))
    r = np.concatenate([[0.0, 1e-9, 1.0, 1.5, 2.0],
                        np.exp(rng.uniform(-4.0, 3.0, k - 5))])
    p = r[:, None] * v / np.linalg.norm(v, axis=-1, keepdims=True)
    return S.total.normalize(np.concatenate([q, p], axis=-1))


def assert_fiber_seeding_is_exact(S, g, coords):
    """The fiber-seeded value path of the Moser rate and of the radial
    criterion gives the bits of the full-width jet of g."""
    from lcslab.moser import _moser_rate
    n = S.n
    full = g._jet(coords, 2)
    assert same_bits(g._jet(coords, 1, range(n, 2 * n)).g, full.g[:, n:])
    P = SimpleNamespace(structure=S, g=g)    # the rate reads only these
    ginv = 1.0 / full.f
    dg_Z = np.einsum("bi,bi->b", full.g[:, n:], coords[:, n:])
    for tau in (0.0, 0.3, 1.0, np.linspace(0.0, 1.0, len(coords))):
        c, bad = _moser_rate(P, coords, tau)
        # the rate's quotient, taken on the full-width jet
        denom = tau * ginv + (1 - tau) - tau * (dg_Z * ginv ** 2)
        assert same_bits(c, (ginv - 1.0) / denom)
        assert np.array_equal(bad, ~(denom > 0.0))
    if (full.f > 0.0).all():
        rep = criterion_radial_log_derivative(g, S, coords)
        vals = np.einsum("bi,bi->b", full.g[:, n:], coords[:, n:]) / full.f
        i = int(np.argmax(vals))
        assert same_bits(rep.sup, vals[i])
        assert same_bits(rep.worst_point, coords[i])


def fiber_seeding_factor(name):
    """(S, g) for each kind of Moser factor the program flows."""
    if name == "identity":
        return S2, ScalarField.constant(S2.total, 1.0)
    if name == "constant-ball-scene":
        P, _, _ = scene_flow_problem("moser-constant-ball.json")
        return P.structure, P.g
    if name == "constant-ball":
        return S2, constant_ball_field(S2, c=2.0)
    if name == "expression":
        return S2, compile_field(
            "1 + 0.4*exp(-p1*p1 - 2*p2*p2)*(1 + 0.5*sin(q1)*cos(2*q2))"
            " + 0.1*p1*exp(-p2*p2)", S2.total)
    if name == "interpolant-scene":
        P, _, _ = scene_flow_problem("beta-graph-pipeline.json")
        return P.structure, P.g
    F = random_radial_field(T2, 4, np.random.default_rng(5))
    return S2, radial_field_to_scalar_field(F, S2)


@pytest.mark.parametrize("name", ["identity", "constant-ball-scene",
                                  "constant-ball", "expression",
                                  "interpolant-scene", "interpolant"])
def test_fiber_seeded_rate_matches_full_jet(name):
    # the rate's value path and the radial criterion seed only the fiber
    # coordinates; every operation a factor reaches computes a gradient
    # column from the same column of its operands, so the bits are those of
    # the full-width jet at n = 1 and n = 2
    S, g = fiber_seeding_factor(name)
    coords = rate_points(S, np.random.default_rng(3))
    assert_fiber_seeding_is_exact(S, g, coords)


@pytest.mark.parametrize("S", [S1, S2], ids=["n1", "n2"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fiber_seeded_rate_matches_full_jet_on_grammar_fields(S, data):
    # 1 + f^2 keeps the factor positive, as the rate and the criterion
    # need, also where an exp term of f overflows
    field, _ = data.draw(grammar_fields(S.total))
    g = ScalarField(S.total, lambda jets: field.fn(jets) ** 2 + 1.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    assert_fiber_seeding_is_exact(S, g, rate_points(S, rng, k=32))


def test_fiber_seeding_slices_a_field_that_reads_derivatives():
    # a derivative_loss field indexes gradient columns by coordinate, so it
    # is seeded in full and its fiber columns are sliced out: the bits of
    # the full jet's, and the radial criterion reads them
    g = ScalarField(S2.total, lambda jets: partial_jet(
        (jets[2] * jets[3] * 0.5 + jets[0].sin()).exp(), 2) ** 2 + 1.0,
                    derivative_loss=1)
    coords = rate_points(S2, np.random.default_rng(0), k=8)
    full = g._jet(coords, 1)
    for axes in ((2, 3), (3,), (1, 3)):
        part = g._jet(coords, 1, axes)
        assert same_bits(part.f, full.f)
        assert same_bits(part.g, full.g[:, list(axes)])
    rep = criterion_radial_log_derivative(g, S2, coords)
    vals = np.einsum("bi,bi->b", full.g[:, 2:], coords[:, 2:]) / full.f
    assert same_bits(rep.sup, vals.max())
    # a declared loss that leaves the order whole keeps its Hessian block
    g2 = ScalarField(S2.total, lambda jets: jets[2] * jets[3] * jets[0].sin(),
                     derivative_loss=1)
    full2 = g2._jet(coords, 2)
    part2 = g2._jet(coords, 2, (0, 3))
    assert same_bits(part2.h, full2.h[:, [0, 3]][:, :, [0, 3]])


def test_fiber_seeded_domain_error_names_its_row():
    # ln(p2) leaves its domain at row 5 alone: the fiber-seeded path names
    # that row's point, as the full-width one does
    from lcslab.moser import _moser_rate
    coords = np.column_stack([np.full(8, 0.5), np.full(8, 1.5),
                              np.linspace(-1.0, 1.0, 8),
                              np.linspace(1.0, 2.0, 8)])
    coords[5, 3] = -0.25
    g = ScalarField(S2.total, lambda jets: jets[3].log() + 2.0)
    P = SimpleNamespace(structure=S2, g=g)
    for call in (lambda: g._jet(coords, 1, (2, 3)),
                 lambda: g._jet(coords, 2),
                 lambda: _moser_rate(P, coords, 0.5),
                 lambda: criterion_radial_log_derivative(g, S2, coords)):
        with pytest.raises(DomainEvaluationError) as info:
            call()
        assert same_bits(info.value.point, coords[5])
