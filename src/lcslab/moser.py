"""Radial deformation carrying d(lambda/g) to d(lambda).

The deformation family ``lambda_t = (t/g + 1 - t) lambda`` stays Liouville
whenever ``d ln g (Z) < 1`` on the grid, and the generating vector field

    X_t = (d/dt g_t) / (g_t + dg_t(Z)) * Z

is radial: it rescales each fiber ray and never moves base points.  The flow
therefore reduces to one scalar ODE per ray, which removes base drift by
construction and makes the time-1 map cheap to evaluate together with its
parameter sensitivities (the first variation integrates alongside, using the
exact jets of g).

The straightening pipeline composes the time-1 map with a fiber translation
and certifies, through the chart it returns, that the image is exact for
the untwisted form; an extension field violating the radial bound is
refused, pointing back at the chord report.  A signed-preimage count of a
regular value gives the projection degree diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, ObstructionError, PreconditionError
from .extension import RadialField, nearest_direction
from .forms import exterior_d, increasing_indices, pullback
from .jets import Jet2, partial_jet, seed_jets
from .lagrangians import ParametricEmbedding, _base_volume, base_preimages
from .manifolds import (ScalarField, SmoothMap, VectorField, _as_jets,
                        _coerce_coords, parameter_grid, sample_points)
# gauss_newton is no longer called here; it stays importable from this
# module because perfbench/tests checks the tracer's rebinding through it
from .numerics import (central_difference, gauss_newton,  # noqa: F401
                       simpson_path)
from .structures import (CotangentLcsStructure, cotangent_lcs,
                         criterion_radial_log_derivative)

__all__ = [
    "MoserProblem", "FlowResult", "moser_vector_field", "integrate_flow",
    "verify_conformal_pullback", "straighten_lagrangian", "StraightenReport",
    "projection_degree", "radial_field_to_scalar_field",
]


@dataclass
class MoserProblem:
    """Deformation data: structure, conformal factor g, family g_t."""

    structure: CotangentLcsStructure
    g: ScalarField
    outside_radius: float = 8.0

    def __post_init__(self):
        S = self.structure
        coords = S.samples(2048)
        vals = self.g.jet(coords, order=0).f
        if vals.min() <= 0.0:
            raise PreconditionError("conformal factor must be positive",
                                    minimum=float(vals.min()))
        # family condition: lambda/g Liouville needs d ln g(Z) < 1; the
        # segment to the identity inherits it by convexity
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
        if np.abs(far_vals - 1.0).max() > 1e-9:
            raise PreconditionError(
                "conformal factor must equal 1 outside the stated radius",
                worst=float(np.abs(far_vals - 1.0).max()),
                radius=self.outside_radius)


def _moser_rate(P: MoserProblem, coords: np.ndarray, tau: float | np.ndarray,
                need_grad: bool):
    """Rate c of the radial field X = c Z at family time tau, from jets of g.

    ``c = (1/g - 1) / (g_tau + dg_tau(Z))`` with ``g_tau = tau/g + 1 - tau``
    at normalized coords of shape (B, 2n); ``tau`` is a scalar or one time
    per row.  With ``need_grad`` also returns dc/dq and dc/dw at the fiber
    point w, read off the same quotient taken on the order-2 jet of g;
    otherwise those are None.  The last value marks the rows whose
    denominator is not positive, where the rate is meaningless.
    """
    n = P.structure.n
    jet = P.g._jet(coords, 2 if need_grad else 1)
    ginv = 1.0 / jet.f
    dginv_Z = -np.einsum("bi,bi->b", jet.g[:, n:], coords[:, n:]) * ginv ** 2
    denom = tau * ginv + (1 - tau) + tau * dginv_Z
    bad = denom <= 0.0
    c = (ginv - 1.0) / denom
    if not need_grad:
        return c, None, None, bad
    # the same quotient on jets of (q, w): its gradient is (dc/dq, dc/dw)
    ginv = jet.reciprocal()
    w = seed_jets(coords, order=1)[n:]
    dginv_Z = sum(partial_jet(ginv, n + i) * w[i] for i in range(n))
    denom = ginv * tau + (1 - tau) + dginv_Z * tau
    # a bad row's rate is discarded; a unit denominator keeps it finite
    rate = (ginv - 1.0) / Jet2.where(bad, denom * 0.0 + 1.0, denom)
    return c, rate.g[:, :n], rate.g[:, n:], bad


def _positivity_error(coords: np.ndarray, row: int,
                      tau: float) -> PreconditionError:
    """The error for a Moser denominator that is not positive at ``row``."""
    return PreconditionError(
        "Moser denominator g_tau + dg_tau(Z) lost positivity",
        point=np.array2string(coords[row], precision=6), tau=tau)


def moser_vector_field(P: MoserProblem, t: float):
    """The radial generating field at time t, colinear with the Euler field.

    The denominator ``g_t + dg_t(Z)`` stays positive under the problem's
    bound; a violation is reported with the first offending point.
    """
    n = P.structure.n

    def fn(jets):
        coords = np.stack([j.f for j in jets], axis=-1)
        flat = P.structure.total.normalize(coords.reshape(-1, 2 * n))
        c, _, _, bad = _moser_rate(P, flat, t, False)
        if bad.any():
            raise _positivity_error(flat, int(np.argmax(bad)), t)
        c = c.reshape(coords.shape[:-1])
        zero = jets[0] * 0.0
        return [zero] * n + [Jet2(c * jets[n + i].f) for i in range(n)]

    return VectorField(P.structure.total, fn, name=f"X_{t}")


@dataclass
class FlowResult:
    seeds: np.ndarray
    images: np.ndarray
    scales: np.ndarray
    max_fiber_drift: float
    step: float
    t0: float
    t1: float
    pullback_residual: float | None = None

    def as_dict(self) -> dict:
        return {"seed_count": int(self.seeds.shape[0]),
                "max_fiber_drift": self.max_fiber_drift,
                "step": self.step, "t0": self.t0, "t1": self.t1,
                "pullback_residual": self.pullback_residual}


def _flow_scales(P: MoserProblem, seeds: np.ndarray, steps: Sequence[float],
                 t0: float, t1: float, dirs: np.ndarray | None = None):
    """Integrate the per-ray scalar ODE r' = c(q, r v, t) r at each step size.

    Classical RK4 from normalized seeds; the flow never moves their base
    coordinates, so no rate call wraps them again.  Given ``dirs`` (shape
    (B, m, 2n): d(seed)/d(param)) the first variation of r integrates
    alongside.  Returns scales s = r(t1)/r(t0) of shape (len(steps), B) and
    ds/d(param) of shape (len(steps), B, m), the latter None without
    ``dirs``.

    All step sizes, finest first, run in one stepping loop: the seeds are
    tiled once per step size, each row carries its own step and time, and
    one rate call serves every block still running.  A block retires when
    its own step count runs out; the finest runs longest, so the live rows
    are always a prefix.  Each row does exactly the arithmetic of a run at
    its own step alone, so its scale is that run's bit for bit.  A Moser
    denominator that loses positivity raises what those runs, made one after
    the other in the order of ``steps``, would raise: the first failing
    block's first failing row.
    """
    n = P.structure.n
    seeds = np.atleast_2d(seeds)
    K, B = len(steps), seeds.shape[0]
    seeds = np.tile(seeds, (K, 1))          # one block of rows per step size
    q = seeds[:, :n]
    p = seeds[:, n:]
    r0 = np.linalg.norm(p, axis=-1)
    live = r0 > 1e-14
    v = np.zeros_like(p)
    v[live] = p[live] / r0[live, None]

    counts = [max(1, int(np.ceil((t1 - t0) / step))) for step in steps]
    h = np.repeat([(t1 - t0) / count for count in counts], B)
    t = np.full(K * B, float(t0))
    state = [r0]
    if dirs is not None:
        dirs = np.tile(dirs, (K, 1, 1))
        # dr0/dparam and dv/dparam from the seed directions
        dp = dirs[:, :, n:]
        dq = dirs[:, :, :n]
        dr0 = np.einsum("bk,bmk->bm", v, dp)
        dv = (dp - dr0[:, :, None] * v[:, None, :]) / \
            np.maximum(r0[:, None, None], 1e-300)
        state.append(dr0)
    failed = None   # (block, error): the finest coarser block that failed

    def rhs(state, t):
        nonlocal failed
        rcur = state[0]
        L = rcur.shape[0]
        coords = np.concatenate([q[:L], rcur[:, None] * v[:L]], axis=1)
        # The family parameter runs in reverse here: the flow that realizes
        # phi_1^* d(lambda) = d(lambda/g) is generated by the radial field
        # with denominator g_tau + dg_tau(Z) at tau = 1 - t (for constant g
        # either orientation integrates to the fiber scaling 1/g; the
        # orientation matters exactly where dg(Z) != 0, and this one is the
        # one the conformal-pullback oracle confirms).
        tau = 1.0 - t
        c, dc_dq, dc_dw, bad = _moser_rate(P, coords, tau, len(state) > 1)
        if bad.any():
            row = int(np.argmax(bad))
            error = _positivity_error(coords, row, float(tau[row]))
            if row < B:
                raise error
            # a coarser block failed: a finer one may still fail and win, so
            # its error waits for the loop's end; zero rates keep it finite
            if failed is None or row // B < failed[0]:
                failed = (row // B, error)
            c[bad] = 0.0
            if dc_dq is not None:
                dc_dq[bad] = 0.0
                dc_dw[bad] = 0.0
        f = c * rcur
        if len(state) == 1:
            return [f]
        # dF/dparam = r * (dc/dq dq + dc/dw d(rv)) + c dr
        drc = state[1]
        d_rv = (drc[:, :, None] * v[:L, None, :]
                + rcur[:, None, None] * dv[:L])
        df = (rcur[:, None] * (np.einsum("bj,bmj->bm", dc_dq, dq[:L])
                               + np.einsum("bj,bmj->bm", dc_dw, d_rv))
              + c[:, None] * drc)
        return [f, df]

    def axpy(x, a, y):
        return [xi + ai * yi for xi, ai, yi in zip(x, a, y)]

    final = [np.empty_like(x) for x in state]
    done = 0
    for k in reversed(range(K)):
        # blocks 0..k are live for the steps up to block k's count
        L = (k + 1) * B
        state, t = [x[:L] for x in state], t[:L]
        hs = [h[:L], h[:L, None]]       # the step, shaped for r and dr
        half = [0.5 * x for x in hs]
        sixth = [x / 6 for x in hs]
        for _ in range(counts[k] - done):
            k1 = rhs(state, t)
            t_next = t + hs[0]
            t_mid = t + half[0]
            k2 = rhs(axpy(state, half, k1), t_mid)
            k3 = rhs(axpy(state, half, k2), t_mid)
            k4 = rhs(axpy(state, hs, k3), t_next)
            state = axpy(state, sixth, [a + 2 * b + 2 * c + d
                                        for a, b, c, d in zip(k1, k2, k3, k4)])
            t = t_next
        done = counts[k]
        for out, x in zip(final, state):
            out[k * B:L] = x[k * B:]
    if failed is not None:
        raise failed[1]
    r = final[0]
    scales = np.ones(K * B)
    scales[live] = r[live] / r0[live]
    if dirs is None:
        return scales.reshape(K, B), None
    # s = r(1)/r0:  ds = (dr(1) - s * dr0) / r0
    dscale = np.zeros((K * B, dirs.shape[1]))
    dscale[live] = ((final[1][live] - scales[live, None] * dr0[live])
                    / r0[live, None])
    return scales.reshape(K, B), dscale.reshape(K, B, dirs.shape[1])


def integrate_flow(P: MoserProblem, seeds, step: float = 1e-3,
                   t0: float = 0.0, t1: float = 1.0) -> FlowResult:
    """Flow the seeds from t0 to t1 along the radial Moser field.

    The reduction to a scalar ODE per fiber ray keeps base coordinates fixed
    exactly, so the reported fiber drift is structural.  A Richardson check
    against a doubled step rejects steps that lost accuracy; the run at
    ``step`` and the one at ``2*step`` share one stepping loop (and each of
    its rate calls), and every step halving runs the loop again at the
    halved step alone.
    """
    S = P.structure
    seeds = np.atleast_2d(_coerce_coords(S.total, seeds))
    (scales, halved), _ = _flow_scales(P, seeds, (step, step * 2.0), t0, t1)
    err = np.abs(scales - halved).max(initial=0.0) / 15.0
    fails = 0
    while err > 1e-10 and fails < 10:
        step *= 0.5
        halved = scales
        (scales,), _ = _flow_scales(P, seeds, (step,), t0, t1)
        err = np.abs(scales - halved).max(initial=0.0) / 15.0
        fails += 1
    if err > 1e-10:
        worst = int(np.argmax(np.abs(scales - halved)))
        raise PreconditionError(
            "flow integration diverged after 10 step halvings",
            richardson_error=float(err),
            seed=np.array2string(seeds[worst], precision=6))
    images = seeds.copy()
    images[:, S.n:] *= scales[:, None]
    return FlowResult(seeds=seeds, images=images, scales=scales,
                      max_fiber_drift=0.0, step=step, t0=t0, t1=t1)


def verify_conformal_pullback(P: MoserProblem,
                              samples: int | np.ndarray = 256,
                              tol: float = 1e-4) -> dict:
    """Residual of ``phi_1^* d(lambda) = d(lambda/g)`` over samples.

    The Jacobian of the time-1 map (flow step 1e-3) comes from central
    differences (step 1e-5); the target 2-form is evaluated with exact jets.
    The K samples and their 2m stencil neighbours flow as one batch of
    (2m+1)K seeds through a single time-1 map (``central_difference`` calls
    it once), so one Richardson step serves the base images and both sides
    of every central difference.
    """
    S = P.structure
    if isinstance(samples, (int, np.integer)):
        coords = S.samples(int(samples), fiber_radius=3.0)
    else:
        coords = _coerce_coords(S.total, samples)
    coords = coords[np.linalg.norm(coords[:, S.n:], axis=-1) > 1e-2]
    m = S.total.dim
    base_img, jac = central_difference(
        lambda x: integrate_flow(P, x, step=1e-3).images,
        coords, 1e-5, diff=S.total.difference)

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
    return {"residual": residual, "tol": tol, "passed": bool(residual <= tol),
            "sample_count": int(coords.shape[0])}


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
    from scipy.interpolate import PchipInterpolator
    n = S.n
    ln_r = np.log(F.radii)
    B, D = F.base_points.shape[0], F.directions.shape[0]
    axes = F.base_axes()
    # one interpolant over all rays at once; only its power-basis
    # coefficients are kept, shape (4, R-1, B*D), last axis the ray
    ray_values = np.log(F.values).reshape(B * D, -1).T       # (R, B*D)
    coef = PchipInterpolator(ln_r, ray_values, axis=0).c

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
                          eta_prime: Sequence = (),
                          step: float = 5e-3, grid: int = 48,
                          chord_report=None):
    """Carry a twisted-exact Lagrangian to an exact one for the untwisted form.

    ``g`` is a positive conformal factor matching the extension contract
    (equal to 1 outside a compact, radial log-derivative below 1); a factor
    violating the bound is refused, pointing at the chord report when given.
    The returned chart composes the time-1 radial flow (RK4 at ``step``,
    its scale sensitivities from the first-variation flow) with a fiber
    translation by the base form ``eta_prime``, and the report certifies
    that chart: closedness is its pullback of d(lambda) on a ``grid``
    parameter grid (0 on a 1-d source, where 2-forms vanish and the chart is
    never evaluated), and holonomy the integral of its Liouville form along
    each circle of the source.  It passes with closedness within 1e-8 and
    loop holonomy within 1e-6.
    """
    S = E.structure
    outside_radius = 8.0
    if isinstance(g, RadialField):
        outside_radius = float(g.radii[-1])
        g = radial_field_to_scalar_field(g, S)
    try:
        P = MoserProblem(structure=S, g=g, outside_radius=outside_radius)
    except ObstructionError as exc:
        if chord_report is not None:
            raise ObstructionError(
                "straightening refused: conformal factor violates the "
                "radial bound; see the chord report",
                chords=getattr(chord_report, "as_dict", lambda: None)(),
                cause=str(exc))
        raise
    eta_fields = [c if isinstance(c, ScalarField) else
                  ScalarField.constant(S.base, float(c)) for c in eta_prime]

    # first-class embedding: the chart carries the flow's first variation,
    # so Jacobians (hence Lagrangian verification, chords, primitives) work;
    # second derivatives of the time-1 map are not available
    S0 = cotangent_lcs(S.base, [])

    def chart_fn(jets):
        # E's chart once: its values are the flow seeds, its gradients the
        # seed directions
        batch = jets[0].f.shape
        comps = _as_jets(E.chart.fn(jets), len(jets), batch, jets[0].order)
        seeds = S.total.normalize(np.stack([c.f for c in comps], axis=-1))
        dirs = np.stack([c.g for c in comps], axis=-1)
        (s_val,), (ds,) = _flow_scales(
            P, seeds.reshape(-1, 2 * S.n), (step,), 0.0, 1.0,
            dirs=dirs.reshape(-1, len(jets), 2 * S.n))
        s_jet = Jet2(s_val.reshape(batch), ds.reshape(batch + ds.shape[-1:]))
        out = list(comps[:S.n])
        for i in range(S.n):
            fiber = s_jet * comps[S.n + i]
            if i < len(eta_fields):
                fiber = fiber + eta_fields[i].fn(comps[:S.n])
            out.append(fiber)
        return out

    chart = SmoothMap(E.source, S.total, chart_fn,
                      name=f"straightened({E.name})",
                      derivative_loss=E.chart.derivative_loss + 1)
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
        s_nodes = np.linspace(0.0, 1.0, 2 * steps + 1)
        loop = np.zeros((s_nodes.shape[0], src.dim))
        loop[:, ax] = 2 * np.pi * s_nodes
        comps = E.chart.jet(loop, 1)
        pts_loop = S.total.normalize(np.stack([c.f for c in comps], axis=-1))
        dq = [c.g[:, ax] for c in comps[:S.n]]
        (s_loop,), _ = _flow_scales(P, pts_loop, (step,), 0.0, 1.0)
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
