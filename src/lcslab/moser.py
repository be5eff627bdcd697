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
and certifies that the image is exact for the untwisted form; an extension
field violating the radial bound is refused, pointing back at the chord
report.  A signed-preimage count of a regular value gives the projection
degree diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, ObstructionError, PreconditionError
from .extension import RadialField
from .forms import exterior_d, increasing_indices, pullback
from .jets import Jet2
from .lagrangians import ParametricEmbedding, base_preimages
from .manifolds import (ScalarField, SmoothMap, VectorField, _coerce_coords,
                        parameter_grid, sample_points)
# gauss_newton is no longer called here; it stays importable from this
# module because perfbench/tests checks the tracer's rebinding through it
from .numerics import (central_difference, gauss_newton,  # noqa: F401
                       simpson_path)
from .structures import (CotangentLcsStructure, cotangent_lcs,
                         radial_log_derivative)

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
    grid: np.ndarray | None = None

    def __post_init__(self):
        S = self.structure
        coords = S.samples(2048) if self.grid is None else \
            _coerce_coords(S.total, self.grid)
        vals = self.g.jet(coords, order=0).f
        if vals.min() <= 0.0:
            raise PreconditionError("conformal factor must be positive",
                                    minimum=float(vals.min()))
        # family condition: lambda/g Liouville needs d ln g(Z) < 1; the
        # segment to the identity inherits it by convexity
        slopes = radial_log_derivative(S, self.g, coords)
        worst = float(slopes.max())
        if worst >= 1.0:
            i = int(np.argmax(slopes))
            raise ObstructionError(
                "d ln g(Z) reaches 1: lambda/g is not a Liouville form",
                worst=worst,
                point=np.array2string(coords[i], precision=6))
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


def _moser_rate(P: MoserProblem, coords: np.ndarray, tau: float,
                need_grad: bool):
    """Rate c of the radial field X = c Z at family time tau, from jets of g.

    ``c = (1/g - 1) / (g_tau + dg_tau(Z))`` with ``g_tau = tau/g + 1 - tau``
    at coords of shape (B, 2n).  With ``need_grad`` also returns dc/dq and
    dc/dw at the fiber point w; otherwise those are None.
    """
    n = P.structure.n
    jet = P.g.jet(coords, order=2 if need_grad else 1)
    ginv = 1.0 / jet.f
    gp = jet.g[:, n:]
    gq = jet.g[:, :n]
    dginv_Z = -np.einsum("bi,bi->b", gp, coords[:, n:]) * ginv ** 2
    g_tau = tau * ginv + (1 - tau)
    denom = g_tau + tau * dginv_Z
    if np.any(denom <= 0.0):
        raise PreconditionError(
            "Moser denominator g_tau + dg_tau(Z) lost positivity",
            point=np.array2string(coords[denom <= 0.0][0], precision=6),
            tau=tau)
    c = (ginv - 1.0) / denom
    if not need_grad:
        return c, None, None
    # gradients of c with respect to (q, w) at w = r v, via jets of g
    gpp = jet.h[:, n:, n:]
    gpq = jet.h[:, n:, :n]
    dginv_dw = -gp * ginv[:, None] ** 2
    dginv_dq = -gq * ginv[:, None] ** 2
    # d/dw [dginv(Z)] = d/dw [sum w_i dginv_i]
    ddZ_dw = (dginv_dw
              - ginv[:, None] ** 2 * np.einsum("bij,bi->bj", gpp,
                                               coords[:, n:])
              + 2 * ginv[:, None] ** 3 * gp
              * np.einsum("bi,bi->b", gp, coords[:, n:])[:, None])
    ddZ_dq = (- ginv[:, None] ** 2 * np.einsum("bij,bi->bj", gpq,
                                               coords[:, n:])
              + 2 * ginv[:, None] ** 3 * gq
              * np.einsum("bi,bi->b", gp, coords[:, n:])[:, None])
    dc_dw = (dginv_dw / denom[:, None]
             - ((ginv - 1) / denom ** 2)[:, None]
             * (tau * dginv_dw + tau * ddZ_dw))
    dc_dq = (dginv_dq / denom[:, None]
             - ((ginv - 1) / denom ** 2)[:, None]
             * (tau * dginv_dq + tau * ddZ_dq))
    return c, dc_dq, dc_dw


def moser_vector_field(P: MoserProblem, t: float):
    """The radial generating field at time t, colinear with the Euler field.

    The denominator ``g_t + dg_t(Z)`` stays positive under the problem's
    bound; a violation is reported with the first offending point.
    """
    n = P.structure.n

    def fn(jets):
        coords = np.stack([j.f for j in jets], axis=-1)
        c, _, _ = _moser_rate(P, coords.reshape(-1, 2 * n), t, False)
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


def _flow_scales(P: MoserProblem, seeds: np.ndarray, step: float,
                 t0: float, t1: float, dirs: np.ndarray | None = None,
                 method: str = "rk4"):
    """Integrate the per-ray scalar ODE r' = c(q, r v, t) r.

    Classical RK4, or forward Euler with ``method="euler"`` (a deliberately
    degraded diagnostic).  Given ``dirs`` (shape (B, m, 2n): d(seed)/d(param))
    the first variation of r integrates alongside.  Returns scales
    s = r(t1)/r(t0) and ds/d(param), the latter None without ``dirs``.
    """
    n = P.structure.n
    seeds = np.atleast_2d(seeds)
    B = seeds.shape[0]
    q = seeds[:, :n]
    p = seeds[:, n:]
    r0 = np.linalg.norm(p, axis=-1)
    live = r0 > 1e-14
    v = np.zeros_like(p)
    v[live] = p[live] / r0[live, None]

    n_steps = max(1, int(np.ceil((t1 - t0) / step)))
    h = (t1 - t0) / n_steps
    state = [r0]
    if dirs is not None:
        # dr0/dparam and dv/dparam from the seed directions
        dp = dirs[:, :, n:]
        dq = dirs[:, :, :n]
        dr0 = np.einsum("bk,bmk->bm", v, dp)
        dv = (dp - dr0[:, :, None] * v[:, None, :]) / \
            np.maximum(r0[:, None, None], 1e-300)
        state.append(dr0)

    def rhs(state, t):
        # The family parameter runs in reverse here: the flow that realizes
        # phi_1^* d(lambda) = d(lambda/g) is generated by the radial field
        # with denominator g_tau + dg_tau(Z) at tau = 1 - t (for constant g
        # either orientation integrates to the fiber scaling 1/g; the
        # orientation matters exactly where dg(Z) != 0, and this one is the
        # one the conformal-pullback oracle confirms).
        rcur = state[0]
        coords = np.concatenate([q, rcur[:, None] * v], axis=1)
        c, dc_dq, dc_dw = _moser_rate(P, coords, 1.0 - t, len(state) > 1)
        f = c * rcur
        if len(state) == 1:
            return [f]
        # dF/dparam = r * (dc/dq dq + dc/dw d(rv)) + c dr
        drc = state[1]
        d_rv = (drc[:, :, None] * v[:, None, :]
                + rcur[:, None, None] * dv)
        df = (rcur[:, None] * (np.einsum("bj,bmj->bm", dc_dq, dq)
                               + np.einsum("bj,bmj->bm", dc_dw, d_rv))
              + c[:, None] * drc)
        return [f, df]

    def axpy(x, a, y):
        return [xi + a * yi for xi, yi in zip(x, y)]

    t = t0
    for _ in range(n_steps):
        k1 = rhs(state, t)
        if method == "euler":
            state = axpy(state, h, k1)
        else:
            k2 = rhs(axpy(state, 0.5 * h, k1), t + 0.5 * h)
            k3 = rhs(axpy(state, 0.5 * h, k2), t + 0.5 * h)
            k4 = rhs(axpy(state, h, k3), t + h)
            state = axpy(state, h / 6, [a + 2 * b + 2 * c + d for a, b, c, d
                                        in zip(k1, k2, k3, k4)])
        t += h
    r = state[0]
    scales = np.ones(B)
    scales[live] = r[live] / r0[live]
    if dirs is None:
        return scales, None
    # s = r(1)/r0:  ds = (dr(1) - s * dr0) / r0
    dscale = np.zeros((B, dirs.shape[1]))
    dscale[live] = ((state[1][live] - scales[live, None] * dr0[live])
                    / r0[live, None])
    return scales, dscale


def integrate_flow(P: MoserProblem, seeds, step: float = 1e-3,
                   t0: float = 0.0, t1: float = 1.0,
                   method: str = "rk4") -> FlowResult:
    """Flow the seeds from t0 to t1 along the radial Moser field.

    The reduction to a scalar ODE per fiber ray keeps base coordinates fixed
    exactly, so the reported fiber drift is structural.  A Richardson check
    against a halved step rejects steps that lost accuracy; ``method`` may be
    set to "euler" for deliberately degraded diagnostics runs, which skip
    that check.
    """
    S = P.structure
    seeds = np.atleast_2d(_coerce_coords(S.total, seeds))
    scales, _ = _flow_scales(P, seeds, step, t0, t1, method=method)
    if method != "euler":
        halved, _ = _flow_scales(P, seeds, step * 2.0, t0, t1)
        err = np.abs(scales - halved).max(initial=0.0) / 15.0
        fails = 0
        while err > 1e-10 and fails < 10:
            step *= 0.5
            halved = scales
            scales, _ = _flow_scales(P, seeds, step, t0, t1)
            err = np.abs(scales - halved).max(initial=0.0) / 15.0
            fails += 1
        if fails >= 10:
            worst = int(np.argmax(np.abs(scales - halved)))
            raise PreconditionError(
                "flow integration diverged after 10 step halvings",
                richardson_error=float(err),
                seed=np.array2string(seeds[worst], precision=6))
    images = seeds.copy()
    images[:, S.n:] *= scales[:, None]
    return FlowResult(seeds=seeds, images=images, scales=scales,
                      max_fiber_drift=0.0, step=step, t0=t0, t1=t1)


def time_one_map(P: MoserProblem, step: float = 1e-3,
                 method: str = "rk4"):
    """The time-1 flow as a plain coordinate map (no jets)."""

    def phi(coords: np.ndarray) -> np.ndarray:
        res = integrate_flow(P, coords, step=step, method=method)
        return res.images

    return phi


def verify_conformal_pullback(P: MoserProblem, R: FlowResult | None = None,
                              samples: int | np.ndarray = 256,
                              fd_step: float = 1e-5,
                              tol: float = 1e-4,
                              flow_step: float = 1e-3,
                              flow_method: str = "rk4") -> dict:
    """Residual of ``phi_1^* d(lambda) = d(lambda/g)`` over samples.

    The Jacobian of the time-1 map comes from central differences (step
    ``fd_step``); the target 2-form is evaluated with exact jets.  The K
    samples and their 2m stencil neighbours flow as one batch of (2m+1)K
    seeds through a single time-1 map (``central_difference`` calls it
    once), so one Richardson step serves the base images and both sides of
    every central difference.  Setting ``flow_method="euler"`` with a coarse
    step plants a defective flow: the residual then exceeds the threshold,
    which is the diagnostic's self-test.
    """
    S = P.structure
    if isinstance(samples, (int, np.integer)):
        coords = S.samples(int(samples), fiber_radius=3.0)
    else:
        coords = _coerce_coords(S.total, samples)
    coords = coords[np.linalg.norm(coords[:, S.n:], axis=-1) > 1e-2]
    m = S.total.dim
    phi = time_one_map(P, step=flow_step, method=flow_method)
    base_img, jac = central_difference(phi, coords, fd_step,
                                       diff=S.total.difference)

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

    Monotone cubic interpolation in ln r per ray, nearest ray in (base,
    direction); accuracy is grid-scale and documented as such.  Outside the
    radius range the field continues with its edge values.
    """
    from scipy.interpolate import PchipInterpolator
    n = S.n
    ln_r = np.log(F.radii)
    B, D = F.base_points.shape[0], F.directions.shape[0]
    # one interpolator over all rays at once, columns indexed by ray
    ray_values = np.log(F.values).reshape(B * D, -1).T       # (R, B*D)
    interp = PchipInterpolator(ln_r, ray_values, axis=0, extrapolate=False)
    from scipy.spatial import cKDTree
    tree = cKDTree(S.base.embed(F.base_points))
    block = max(1, 2 ** 17 // (B * D))     # rows per interpolant call

    class _Interp(ScalarField):
        def __init__(self):
            super().__init__(S.total, fn=None, name="radial-field")

        def value(self, points):
            coords = _coerce_coords(S.total, points)
            squeeze = coords.ndim == 1
            c2 = np.atleast_2d(coords)
            q, p = c2[:, :n], c2[:, n:]
            r = np.linalg.norm(p, axis=-1)
            safe = np.maximum(r, 1e-300)[:, None]
            d_idx = np.argmax((p / safe) @ F.directions.T, axis=-1)
            d_idx[r <= 1e-12] = 0
            lr = np.clip(np.log(np.maximum(r, F.radii[0])),
                         ln_r[0], ln_r[-1])
            if n == 1 and S.base.is_circle[0]:
                # linear blend between the two neighboring base nodes
                axis = F.base_points[:, 0]
                step = axis[1] - axis[0]
                pos = q[:, 0] / step
                i0 = np.floor(pos).astype(int) % B
                i1 = (i0 + 1) % B
                w = pos - np.floor(pos)
                cols = np.stack([i0 * D + d_idx, i1 * D + d_idx])
            else:
                _, b_idx = tree.query(S.base.embed(q))
                cols = (b_idx * D + d_idx)[None]
            # the interpolant fills all B*D ray columns of a row, so rows go
            # in blocks and each point keeps only its own rays
            picked = np.empty(cols.shape)
            for s in range(0, lr.shape[0], block):
                vals = interp(lr[s:s + block])
                picked[:, s:s + block] = vals[np.arange(vals.shape[0]),
                                              cols[:, s:s + block]]
            if cols.shape[0] == 2:
                out = np.exp((1 - w) * picked[0] + w * picked[1])
            else:
                out = np.exp(picked[0])
            return out[0] if squeeze else out.reshape(coords.shape[:-1])

        def jet(self, points, order: int = 2):
            coords = _coerce_coords(S.total, points)
            if order == 0:
                return Jet2(self.value(coords))
            h = 1e-4
            if order == 1:
                return Jet2(*central_difference(self.value, coords, h))

            def value_and_gradient(pts):
                f, g = central_difference(self.value, pts, h)
                return np.concatenate([f[:, None], g], axis=-1)

            # the Hessian differences the gradient: one value() call covers
            # the nested (2m+1)^2 stencil
            fg, dfg = central_difference(value_and_gradient, coords, h)
            hess = dfg[..., 1:, :]
            return Jet2(fg[..., 0], fg[..., 1:],
                        0.5 * (hess + np.swapaxes(hess, -1, -2)))

    return _Interp()


@dataclass
class StraightenReport:
    closedness_sup: float
    holonomy_sup: float
    passed: bool
    flow: FlowResult = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {"closedness_sup": self.closedness_sup,
                "holonomy_sup": self.holonomy_sup,
                "passed": bool(self.passed)}


def straighten_lagrangian(E: ParametricEmbedding, g,
                          eta_prime: Sequence = (),
                          step: float = 1e-3, grid: int = 48,
                          chord_report=None,
                          closed_tol: float = 1e-8,
                          holonomy_tol: float = 1e-6):
    """Carry a twisted-exact Lagrangian to an exact one for the untwisted form.

    ``g`` is a positive conformal factor matching the extension contract
    (equal to 1 outside a compact, radial log-derivative below 1); a factor
    violating the bound is refused, pointing at the chord report when given.
    The time-1 radial flow composes with a fiber translation by the closed
    base form ``eta_prime``; the report certifies the image through the
    closedness of its pulled-back Liouville form, evaluated from the exact
    identity  d(s i*lambda) = ds ^ i*lambda + s d(i*lambda), with the scale
    sensitivities ds integrated by the first-variation flow.
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

    src = E.source
    params = parameter_grid(src, grid).reshape(-1, src.dim)
    pts = E.points(params)
    jac = E.chart.jacobian(params)          # (B, 2n, k)
    seeds = pts
    dirs = np.swapaxes(jac, 1, 2)           # (B, k, 2n): d(seed)/d(param)
    scales, dscale = _flow_scales(P, seeds, step, 0.0, 1.0, dirs=dirs)

    # pulled-back data of the original embedding
    lamL = pullback(E.chart, S.lam)
    lam_c = lamL.coefficients(params)          # (B, k)
    if src.dim >= 2:
        dlam_c = exterior_d(lamL).coefficients(params)
    else:
        dlam_c = np.zeros((params.shape[0], 0))

    # d(s * i*lambda) = ds ^ i*lambda + s d(i*lambda)
    k = src.dim
    pairs = increasing_indices(k, 2)
    closed = []
    for pos, (i, j) in enumerate(pairs):
        term = (dscale[:, i] * lam_c[:, j] - dscale[:, j] * lam_c[:, i]
                + scales * dlam_c[:, pos])
        closed.append(np.abs(term))
    closedness = float(np.max(closed)) if closed else 0.0

    # translation by eta_prime adds an exactly closed base form: check it
    eta_fields = [c if isinstance(c, ScalarField) else
                  ScalarField.constant(S.base, float(c)) for c in eta_prime]

    # holonomy: loop integrals of the final pullback must vanish (beta = 0)
    hol = 0.0
    steps = 1024
    for ax in range(src.dim):
        if not src.is_circle[ax]:
            continue
        s_nodes = np.linspace(0.0, 1.0, 2 * steps + 1)
        loop = np.zeros((s_nodes.shape[0], src.dim))
        loop[:, ax] = 2 * np.pi * s_nodes
        pts_loop = E.points(loop)
        s_loop, _ = _flow_scales(P, pts_loop, step, 0.0, 1.0)
        lam_loop = lamL.coefficients(loop)
        integrand = s_loop * lam_loop[:, ax] * 2 * np.pi
        if eta_fields:
            base_loop = E.base_values(loop)
            jb = E.chart.jet(loop, order=1)
            for i, cfield in enumerate(eta_fields):
                dqi = jb[i].g[:, ax]
                integrand = integrand + cfield.value(base_loop) * dqi * 2 * np.pi
        val = simpson_path(integrand, 1.0 / steps)
        hol = max(hol, abs(float(val)))

    # final images: the flow's scales, then the translation by eta_prime
    images = seeds.copy()
    images[:, S.n:] *= scales[:, None]
    for i, cfield in enumerate(eta_fields):
        images[:, S.n + i] += cfield.value(images[:, :S.n])
    flow_res = FlowResult(seeds=seeds, images=images,
                          scales=scales, max_fiber_drift=0.0, step=step,
                          t0=0.0, t1=1.0)
    report = StraightenReport(closedness_sup=closedness, holonomy_sup=hol,
                              passed=bool(closedness <= closed_tol
                                          and hol <= holonomy_tol),
                              flow=flow_res)

    # first-class embedding: the chart carries the flow's first variation,
    # so Jacobians (hence Lagrangian verification, chords, primitives) work;
    # second derivatives of the time-1 map are not available
    S0 = cotangent_lcs(S.base, [])
    chart_step = max(step, 5e-3)  # RK4 error ~ step^4, far below report tols

    def chart_fn(jets):
        comps = E.chart.fn(jets)
        u_coords = np.stack([j.f for j in jets], axis=-1)
        u2 = np.atleast_2d(u_coords)
        pts_local = E.points(u2)
        dirs_local = np.swapaxes(E.chart.jacobian(u2), 1, 2)
        s_val, ds = _flow_scales(P, pts_local, chart_step, 0.0, 1.0,
                                 dirs=dirs_local)
        if u_coords.ndim == 1:
            s_jet = Jet2(s_val[0], ds[0])
        else:
            s_jet = Jet2(s_val.reshape(u_coords.shape[:-1]),
                         ds.reshape(u_coords.shape[:-1] + ds.shape[-1:]))
        out = list(comps[:S.n])
        for i in range(S.n):
            fiber = s_jet * comps[S.n + i]
            if i < len(eta_fields):
                fiber = fiber + eta_fields[i].fn(comps[:S.n])
            out.append(fiber)
        return out

    chart = SmoothMap(E.source, S.total, chart_fn,
                      name=f"straightened({E.name})",
                      derivative_loss=max(1, E.chart.derivative_loss))
    straightened = ParametricEmbedding(
        source=E.source, structure=S0, chart=chart,
        name=f"straightened {E.name}")
    return straightened, report


# --------------------------------------------------------------- projection

def projection_degree(E: ParametricEmbedding, attempts: int = 100,
                      grid: int = 48, seed: int = 0) -> int:
    """Signed count of preimages of a regular value of the base projection.

    Candidate regular values come from a fixed low-discrepancy sequence, so
    runs are reproducible; a value is accepted when every preimage has a
    Jacobian determinant bounded away from zero.
    """
    src = E.source
    S = E.structure
    if src.dim != S.n:
        raise DimensionError("projection degree needs dim L = dim M")
    params = parameter_grid(src, grid).reshape(-1, src.dim)
    bases = E.base_values(params)
    candidates = sample_points(S.base, attempts, seed=seed)
    n = S.n
    for y in candidates:
        good = base_preimages(E, y, params, bases, nearest=12)
        if good.shape[0] == 0:
            continue
        jac = E.chart.jacobian(good)[:, :n, :]
        dets = np.linalg.det(jac)
        if np.abs(dets).min() < 1e-8:
            continue  # not a regular value
        return int(np.sign(dets).sum())
    raise PreconditionError(
        "no regular value found: projection looks degenerate",
        attempts=attempts)
