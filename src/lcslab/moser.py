"""Radial deformation carrying d(lambda/g) to d(lambda).

The deformation family ``lambda_t = (t/g + 1 - t) lambda`` stays Liouville
whenever ``d ln g (Z) < 1`` on the grid, and the generating vector field

    X_t = (d/dt g_t) / (g_t + dg_t(Z)) * Z

is radial: it rescales each fiber ray and never moves base points.  The flow
therefore reduces to one scalar ODE per ray, which removes base drift by
construction; a ray starting where g = 1 and dg(Z) = 0 never moves, so it
skips the integrator.  Its time-1 map has a closed form, the fiber scaling
``(q, p) -> (q, p/g(q, p))``: ``integrate_flow`` certifies each RK4 run
against it, and the straightening reads it directly.

The straightening pipeline composes the closed-form time-1 map with a fiber
translation and certifies, through the chart it returns, that the image is
exact for the untwisted form; an extension field violating the radial bound
is refused by ``MoserProblem``, and the chart refuses a point whose fiber
segment to its image reaches the bound.  A signed-preimage count of a
regular value gives the projection degree diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionError, ObstructionError, PreconditionError
from .extension import RadialField, nearest_direction
from .forms import exterior_d, increasing_indices, pullback
from .lagrangians import (ParametricEmbedding, _base_volume, _shift_fibers,
                          base_preimages)
from .manifolds import (ScalarField, SmoothMap, _as_jets, _coerce_coords,
                        parameter_grid, sample_points)
# gauss_newton is no longer called here; it stays importable from this
# module because perfbench/tests checks the tracer's rebinding through it
from .numerics import (central_difference, gauss_newton,  # noqa: F401
                       segment_nodes, simpson_path)
from .structures import (CotangentLcsStructure, cotangent_lcs,
                         criterion_radial_log_derivative)

__all__ = [
    "MoserProblem", "FlowResult", "integrate_flow",
    "flow_and_check", "verify_conformal_pullback", "straighten_lagrangian",
    "StraightenReport", "projection_degree", "radial_field_to_scalar_field",
]


@dataclass
class MoserProblem:
    """Deformation data: structure, conformal factor g, family g_t."""

    structure: CotangentLcsStructure
    g: ScalarField
    outside_radius: float = 8.0

    def __post_init__(self):
        S = self.structure
        coords = sample_points(S.total, 2048)
        # family condition: lambda/g Liouville needs d ln g(Z) < 1; the
        # segment to the identity inherits it by convexity.  The criterion
        # refuses a g that is not positive on the samples.
        rep = criterion_radial_log_derivative(self.g, S, coords)
        if not rep.passed:
            raise ObstructionError(
                "d ln g(Z) reaches 1: lambda/g is not a Liouville form",
                worst=rep.sup,
                point=np.array2string(rep.worst_point, precision=6))
        # flow completeness: g must be 1 outside the stated radius
        far = coords.copy()
        norms = np.linalg.norm(far[:, S.n:], axis=-1, keepdims=True)
        far[:, S.n:] *= (self.outside_radius * 1.5) / np.maximum(norms, 1e-12)
        far_vals = self.g.jet(far, order=0).f
        if not np.abs(far_vals - 1.0).max() <= 1e-9:     # a NaN fails
            raise PreconditionError(
                "conformal factor must equal 1 outside the stated radius",
                worst=float(np.abs(far_vals - 1.0).max()),
                radius=self.outside_radius)


def _fiber_jet(P: MoserProblem, coords: np.ndarray):
    """g and dg(Z) at normalized coords, g's jet seeded in the fibers only."""
    n = P.structure.n
    jet = P.g._jet(coords, 1, range(n, 2 * n))
    return jet.f, np.einsum("bi,bi->b", jet.g, coords[:, n:])


def _moser_rate(P: MoserProblem, coords: np.ndarray, tau: float):
    """Rate c of the radial field X = c Z at family time tau, from jets of g.

    ``c = (1/g - 1) / (g_tau + dg_tau(Z))`` with ``g_tau = tau/g + 1 - tau``
    at normalized coords of shape (B, 2n).  Also returns the mask of rows
    whose denominator is not positive (NaN included), where the rate is
    meaningless.  The rate reads only dg/dp, so g's jet is seeded in the
    fiber coordinates only.
    """
    g, dg_Z = _fiber_jet(P, coords)
    ginv = 1.0 / g
    # d(1/g)(Z) = -dg(Z)/g^2, subtracted: the bits of adding it negated
    denom = tau * ginv + (1 - tau) - tau * (dg_Z * ginv ** 2)
    return (ginv - 1.0) / denom, ~(denom > 0.0)


@dataclass
class FlowResult:
    seeds: np.ndarray
    images: np.ndarray
    scales: np.ndarray
    max_fiber_drift: float
    step: float
    pullback_residual: float | None = None

    def as_dict(self) -> dict:
        return {"seed_count": int(self.seeds.shape[0]),
                "max_fiber_drift": self.max_fiber_drift,
                "step": self.step, "t0": 0.0, "t1": 1.0,
                "pullback_residual": self.pullback_residual}


def _flow_scales(P: MoserProblem, seeds: np.ndarray, step: float):
    """Integrate the per-ray scalar ODE r' = c(q, r v, t) r from t = 0 to 1.

    Classical RK4 at ``step`` (rounded to ``1/ceil(1/step)``) from normalized
    seeds; the flow never moves their base coordinates, so no rate call
    wraps them again.  A row where g = 1 and dg(Z) = 0 at (q, r0 v), the
    first rate call's point, has rate +0.0 over tau + (1 - tau) > 0 at every
    tau, so RK4 keeps r0: it skips the loop with the loop's scale, exactly 1
    (a NaN fails both tests).  Returns the scales s = r(1)/r(0) of shape
    (B,), 1 on the zero section.  A denominator that loses positivity raises
    at the first rate call that meets it, naming its first failing row.
    """
    n = P.structure.n
    seeds = np.atleast_2d(seeds)
    p = seeds[:, n:]
    r0 = np.linalg.norm(p, axis=-1)
    live = r0 > 1e-14
    v = np.zeros_like(p)
    v[live] = p[live] / r0[live, None]
    g, dg_Z = _fiber_jet(P, np.hstack([seeds[:, :n], r0[:, None] * v]))
    move = np.flatnonzero(~((g == 1.0) & (dg_Z == 0.0)))
    q, v, r0, live = seeds[move, :n], v[move], r0[move], live[move]
    count = max(1, int(np.ceil(1.0 / step)))
    h = 1.0 / count

    def rhs(r, t):
        coords = np.concatenate([q, r[:, None] * v], axis=1)
        # The family parameter runs in reverse here: the flow that realizes
        # phi_1^* d(lambda) = d(lambda/g) is generated by the radial field
        # with denominator g_tau + dg_tau(Z) at tau = 1 - t (for constant g
        # either orientation integrates to the fiber scaling 1/g; the
        # orientation matters exactly where dg(Z) != 0, and this one is the
        # one the closed-form certificate of integrate_flow confirms).
        tau = 1.0 - t
        c, bad = _moser_rate(P, coords, tau)
        if bad.any():
            row = int(np.argmax(bad))
            raise PreconditionError(
                "Moser denominator g_tau + dg_tau(Z) lost positivity",
                point=np.array2string(coords[row], precision=6),
                tau=tau)
        return c * r

    r, t = r0, 0.0
    for _ in range(count if move.size else 0):
        k1 = rhs(r, t)
        k2 = rhs(r + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(r + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(r + h * k3, t + h)
        r = r + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    scales = np.ones(seeds.shape[0])
    scales[move[live]] = r[live] / r0[live]
    return scales


def integrate_flow(P: MoserProblem, seeds, step: float = 1e-3) -> FlowResult:
    """Flow the seeds from t = 0 to 1 along the radial Moser field.

    The reduction to a scalar ODE per fiber ray keeps base coordinates fixed
    exactly, so the reported fiber drift is structural; a row where g = 1
    and dg(Z) = 0 keeps scale 1 without a rate call (``_flow_scales``).  The
    run is certified against the closed form of its time-1 map: off the
    zero section each scale must equal 1/g at its seed within 1e-10.  A run
    that misses halves the step and runs again, up to 10 times.  It raises
    as soon as a halving does not reduce the largest miss (a NaN miss is
    never a reduction), or when the 10th halving still misses.
    """
    S = P.structure
    seeds = np.atleast_2d(_coerce_coords(S.total, seeds))
    # phi(q, p) = (q, s p) pulls lambda = p dq back to s lambda, so
    # phi^* d(lambda) = d(lambda/g) holds off the zero section exactly when
    # s = 1/g at the seed: the time-1 scale has a closed form to check.
    off = np.flatnonzero(np.linalg.norm(seeds[:, S.n:], axis=-1) > 1e-14)
    exact = (1.0 / P.g._jet(seeds, 0).f)[off]
    last = np.inf
    for k in range(11):
        scales = _flow_scales(P, seeds, step)
        miss = np.abs(scales[off] - exact)
        err = miss.max(initial=0.0)
        if err <= 1e-10:             # a NaN error fails
            break
        if k == 10 or (k and not err < last):    # NaN is no reduction
            raise PreconditionError(
                f"flow integration diverged after {k} of at most 10 step "
                "halvings",
                closed_form_error=float(err),
                seed=np.array2string(seeds[off[np.argmax(miss)]],
                                     precision=6))
        last = err
        step *= 0.5
    images = seeds.copy()
    images[:, S.n:] *= scales[:, None]
    return FlowResult(seeds=seeds, images=images, scales=scales,
                      max_fiber_drift=0.0, step=step)


def flow_and_check(P: MoserProblem, seeds, step: float, checked: int,
                   tol: float) -> tuple[FlowResult, dict]:
    """Flow ``seeds`` once and check ``phi_1^* d(lambda) = d(lambda/g)``.

    One ``integrate_flow`` call at ``step`` serves both: its batch holds
    every seed first, then the central-difference stencil (step 1e-5) of
    those among the first ``checked`` seeds whose fiber norm is above 1e-2;
    when there is none, it raises a ``PreconditionError``.  The check
    reads those seeds' own images, so it certifies the map and step of the
    returned flow; the target 2-form comes from exact jets.  The flow's own
    certificate compares each scale with 1/g at its seed; this check reads
    the map's derivative instead, through a central-difference Jacobian.
    Rows of the flow are independent, so the seed rows equal a flow of the
    seeds alone bit for bit (unless a stencil row forces a step halving).
    Returns the seeds' ``FlowResult`` and the check's dict.
    """
    S = P.structure
    seeds = np.atleast_2d(_coerce_coords(S.total, seeds))
    head = seeds[:checked]
    keep = np.flatnonzero(np.linalg.norm(head[:, S.n:], axis=-1) > 1e-2)
    if not keep.size:
        raise PreconditionError("no seed with fiber norm above 1e-2 to check",
                                checked=int(head.shape[0]))
    coords = head[keep]
    N, m = seeds.shape
    flow = None

    def time1(stencil):
        # block 0 of the stencil is ``coords``: the seed rows stand in for it
        nonlocal flow
        flow = integrate_flow(P, np.concatenate([seeds, stencil[keep.size:]]),
                              step=step)
        return np.concatenate([flow.images[keep], flow.images[N:]])

    base_img, jac = central_difference(time1, coords, 1e-5,
                                       diff=S.total.difference)
    flow = replace(flow, seeds=flow.seeds[:N], images=flow.images[:N],
                   scales=flow.scales[:N])

    omega_coeffs = exterior_d(S.lam).coefficients(base_img)
    i, j = np.array(increasing_indices(m, 2)).T
    mat = np.zeros((coords.shape[0], m, m))
    mat[:, i, j] = omega_coeffs
    mat[:, j, i] = -omega_coeffs
    pulled = np.einsum("bri,brs,bsj->bij", jac, mat, jac)

    ginv = ScalarField(S.total,
                       lambda jets, g=P.g: g.fn(jets).reciprocal(),
                       name="1/g")
    target = exterior_d(S.lam * ginv).coefficients(coords)
    residual = float(np.abs(pulled[:, i, j] - target).max())
    return flow, {"residual": residual, "tol": tol,
                  "passed": bool(residual <= tol),
                  "sample_count": int(coords.shape[0])}


def verify_conformal_pullback(P: MoserProblem,
                              samples: int | np.ndarray = 256,
                              tol: float = 1e-4) -> dict:
    """Residual of ``phi_1^* d(lambda) = d(lambda/g)`` over samples: the
    check of ``flow_and_check`` on all of them, at flow step 1e-3."""
    S = P.structure
    if isinstance(samples, (int, np.integer)):
        samples = sample_points(S.total, int(samples), radius=3.0)
    samples = np.atleast_2d(_coerce_coords(S.total, samples))
    return flow_and_check(P, samples, 1e-3, samples.shape[0], tol)[1]


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (4, R-1, N) of the monotone cubic through
    the columns of ``y`` (R, N) at the increasing nodes ``x``: scipy's
    ``PchipInterpolator(x, y, axis=0).c`` bit for bit, from the same steps in
    the same order (Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 1984)."""
    h = (x[1:] - x[:-1])[:, None]
    m = (y[1:] - y[:-1]) / h
    d = np.zeros_like(y)
    if y.shape[0] == 2:
        d[0] = d[1] = m[0]
    else:
        # 0 where a slope next to the node is 0 or the two differ in sign,
        # where the division can fail; their weighted harmonic mean else
        sign = np.sign(m)
        flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        # one-sided three-point end slopes: 0 against the end interval's
        # sign, 3*m0 past it where the first two intervals turn
        for a, b in ((0, 1), (-1, -2)):
            e = ((2 * h[a] + h[b]) * m[a] - h[a] * m[b]) / (h[a] + h[b])
            turn = (sign[a] != sign[b]) & (np.abs(e) > 3.0 * np.abs(m[a]))
            d[a] = np.where(np.sign(e) != sign[a], 0.0,
                            np.where(turn, 3.0 * m[a], e))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


def radial_field_to_scalar_field(F: RadialField,
                                 S: CotangentLcsStructure) -> ScalarField:
    """Interpolate a radial grid field into an evaluable field.

    Monotone cubic interpolation in ln r along each ray, the ray picked by
    ``nearest_direction``, and a multilinear blend over the rectangular base
    grid: circle axes wrap, line axes clamp to their end nodes.  Accuracy is
    grid-scale and documented as such.  Outside the radius range the field
    continues with its edge values.

    The field's jets are exact.  The ray, the base cell and the ln r
    interval are read off the values and carry no derivative; the base
    weights, ln r and each corner's cubic go through the chain rule, with
    derivative 0 where a weight or ln r is clamped.
    """
    n = S.n
    ln_r = np.log(F.radii)
    B, D = F.base_points.shape[0], F.directions.shape[0]
    axes = F.base_axes()
    # one interpolant over all rays at once, last axis the ray
    ray_values = np.log(F.values).reshape(B * D, -1).T       # (R, B*D)
    coef = _pchip_coefficients(ln_r, ray_values)

    def fn(jets):
        p = np.stack([j.f for j in jets[n:]], axis=-1)
        r = np.linalg.norm(p, axis=-1)
        d_idx = nearest_direction(p, r, F.directions)
        # ln r clamped to the radius range, as a function of |p|^2: its
        # derivative is 1/(2|p|^2) inside the range and 0 where it clamps
        r2 = jets[n] * jets[n]
        for j in jets[n + 1:]:
            r2 = r2 + j * j
        lr = np.clip(np.log(np.maximum(r, F.radii[0])), ln_r[0], ln_r[-1])
        inside = (r > F.radii[0]) & (r < F.radii[-1])
        dlr = np.where(inside, 0.5, 0.0) / np.maximum(r2.f, F.radii[0] ** 2)
        lr = r2.chain(lr, dlr, -2.0 * dlr * dlr)
        # the 2^n corners of each point's base cell, grown one axis at a
        # time in C order: circle axes wrap, line axes clamp
        cols, weights = [0], [1.0]
        for nodes, circle, x in zip(axes, S.base.is_circle, jets[:n]):
            if circle:
                span = nodes[1] - nodes[0]
                pos = x.f / span
                i0 = np.floor(pos).astype(int) % nodes.size
                i1, w = (i0 + 1) % nodes.size, pos - np.floor(pos)
                dw = np.full_like(w, 1.0 / span)
            else:
                i0 = np.clip(np.searchsorted(nodes, x.f, "right") - 1,
                             0, nodes.size - 2)
                i1 = i0 + 1
                span = nodes[i1] - nodes[i0]
                frac = (x.f - nodes[i0]) / span
                w = np.clip(frac, 0.0, 1.0)
                dw = np.where(w == frac, 1.0 / span, 0.0)
            w = x.chain(w, dw, np.zeros_like(w))
            cols = [b * nodes.size + i for b in cols for i in (i0, i1)]
            weights = [v * u for v in weights for u in (1 - w, w)]
        # each corner's cubic on its own ray, summed in the order of scipy's
        # PPoly evaluation so the values match it bit for bit
        k = np.clip(np.searchsorted(ln_r, lr.f, "right") - 1,
                    0, ln_r.size - 2)
        s = lr.f - ln_r[k]
        c0, c1, c2, c3 = coef[:, k, np.stack(cols) * D + d_idx]
        picked = c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)
        slope = c2 + 2.0 * c1 * s + 3.0 * c0 * (s * s)
        bend = 2.0 * c1 + 6.0 * c0 * s
        return sum(wt * lr.chain(*cubic)
                   for wt, *cubic in zip(weights, picked, slope, bend)).exp()

    return ScalarField(S.total, fn, name="radial-field")


@dataclass
class StraightenReport:
    closedness_sup: float
    holonomy_sup: float
    passed: bool

    def as_dict(self) -> dict:
        return {"closedness_sup": self.closedness_sup,
                "holonomy_sup": self.holonomy_sup,
                "passed": bool(self.passed)}


def straighten_lagrangian(E: ParametricEmbedding, g,
                          eta_prime: Sequence = (), grid: int = 48):
    """Carry a twisted-exact Lagrangian to an exact one for the untwisted form.

    ``g`` is a positive conformal factor matching the extension contract
    (equal to 1 outside a compact, radial log-derivative below 1);
    ``MoserProblem`` refuses a factor that is not, with its own error.
    The returned chart composes the closed-form time-1 map (q, p) ->
    (q, p/g) with a fiber translation by the base form ``eta_prime``; it
    refuses a point whose fiber segment to its image reaches d ln g(Z) >= 1
    at any of 16 equispaced samples, where that map stops being a
    diffeomorphism of the ray.  The report certifies that chart: closedness
    is its pullback of d(lambda) on a ``grid`` parameter grid (0 on a 1-d
    source, where 2-forms vanish and the chart is never evaluated), and
    holonomy the integral of its Liouville form along each circle of the
    source, with the fiber scales of the RK4 flow at step 5e-3, which no
    certificate checks.  It passes with closedness within 1e-8 and loop
    holonomy within 1e-6.
    """
    S = E.structure
    if len(eta_prime) > S.n:
        raise DimensionError(f"eta_prime has {len(eta_prime)} coefficients "
                             f"for a base of dimension {S.n}")
    outside_radius = 8.0
    if isinstance(g, RadialField):
        outside_radius = float(g.radii[-1])
        g = radial_field_to_scalar_field(g, S)
    P = MoserProblem(structure=S, g=g, outside_radius=outside_radius)
    eta_fields = [c if isinstance(c, ScalarField) else
                  ScalarField.constant(S.base, float(c)) for c in eta_prime]

    # first-class embedding: the chart carries E's jets through the closed
    # form, so Jacobians and Hessians (hence Lagrangian verification, chords,
    # primitives) work
    S0 = cotangent_lcs(S.base, [])

    def chart_fn(jets):
        # E's chart once; the time-1 map scales each fiber by 1/g there
        batch = jets[0].f.shape
        width = len(jets) if jets[0].g is None else jets[0].g.shape[-1]
        comps = _as_jets(E.chart.fn(jets), width, batch, jets[0].order)
        ginv = g.fn(comps).reciprocal()
        # the guard the flow's denominators were: d ln g(Z) < 1 at 16 points
        # of each fiber segment from a chart point to its image
        x = np.stack([c.f for c in comps], axis=-1).reshape(-1, 2 * S.n)
        t = np.linspace(0.0, 1.0, 16)[:, None, None]
        fibers = x[:, S.n:] * (1.0 + t * (ginv.f.reshape(-1, 1) - 1.0))
        rep = criterion_radial_log_derivative(g, S, np.concatenate(
            np.broadcast_arrays(x[:, :S.n], fibers), axis=-1))
        if not rep.passed:
            raise PreconditionError(
                "d ln g(Z) reaches 1 on a fiber segment to the straightened "
                "image", slope=rep.sup,
                point=np.array2string(rep.worst_point, precision=6))
        return _shift_fibers(comps[:S.n] + [ginv * p for p in comps[S.n:]],
                             S.n, eta_fields)

    chart = SmoothMap(E.source, S.total, chart_fn,
                      name=f"straightened({E.name})",
                      derivative_loss=E.chart.derivative_loss)
    straightened = ParametricEmbedding(
        source=E.source, structure=S0, chart=chart,
        name=f"straightened {E.name}")

    src = E.source
    params = parameter_grid(src, grid).reshape(-1, src.dim)
    dlam = pullback(chart, exterior_d(S0.lam)).coefficients(params)
    # a NaN stays NaN and fails
    closedness = float(np.abs(dlam).max(initial=0.0))

    # holonomy: loop integrals of the final pullback must vanish (beta = 0);
    # E's chart once per loop gives its points, base coordinates and dq
    hol = 0.0
    steps = 1024
    for ax in range(src.dim):
        if not src.is_circle[ax]:
            continue
        s_nodes = segment_nodes(steps)
        loop = np.zeros((s_nodes.shape[0], src.dim))
        loop[:, ax] = 2 * np.pi * s_nodes
        comps = E.chart.jet(loop, 1)
        pts_loop = S.total.normalize(np.stack([c.f for c in comps], axis=-1))
        dq = [c.g[:, ax] for c in comps[:S.n]]
        s_loop = _flow_scales(P, pts_loop, 5e-3)
        # (E* lambda)(d/du_ax) = sum_i p_i dq_i(d/du_ax)
        lam_loop = sum(pts_loop[:, S.n + i] * dq[i] for i in range(S.n))
        integrand = s_loop * lam_loop * 2 * np.pi
        for i, cfield in enumerate(eta_fields):
            integrand = (integrand
                         + cfield.value(pts_loop[:, :S.n]) * dq[i] * 2 * np.pi)
        val = simpson_path(integrand, 1.0 / steps)
        hol = max(hol, abs(float(val)))

    report = StraightenReport(closedness_sup=closedness, holonomy_sup=hol,
                              passed=bool(closedness <= 1e-8
                                          and hol <= 1e-6))
    return straightened, report


# --------------------------------------------------------------- projection

def projection_degree(E: ParametricEmbedding, seed: int = 0) -> int:
    """Signed count of preimages of a regular value of the base projection.

    Up to 100 candidate regular values come from a fixed low-discrepancy
    sequence, so runs are reproducible; a value is accepted when every
    preimage (Newton from a 48-node parameter grid) has a Jacobian
    determinant bounded away from zero.
    """
    src = E.source
    S = E.structure
    if src.dim != S.n:
        raise DimensionError("projection degree needs dim L = dim M")
    params = parameter_grid(src, 48).reshape(-1, src.dim)
    bases = E.base_values(params)
    candidates = sample_points(S.base, 100, seed=seed)
    for y in candidates:
        good, _ = base_preimages(E, y[None], params, bases, nearest=12)
        if good.shape[0] == 0:
            continue
        dets = _base_volume(E, good, 0).f
        if np.abs(dets).min() < 1e-8:
            continue  # not a regular value
        return int(np.sign(dets).sum())
    raise PreconditionError(
        "no regular value found: projection looks degenerate",
        attempts=100)
