"""Candidate Lagrangian embeddings and their exactness certificates.

An embedding i : L -> T*M is tested in two stages.  ``verify_lagrangian``
pulls the twisted 2-form back through the chart and checks that it vanishes
on samples.  ``solve_primitive`` then integrates the defining linear ODE

    f'(s) = (i* lambda)(gamma') + f * (i* beta)(gamma')

along grid paths, which both produces the primitive f (pinned by the
multiplicative holonomy of ``i* beta`` whenever some generator loop has
holonomy different from 1) and yields the holonomy diagnostics.  Exactness is
certified by the discrepancy between two independent integration orders plus
the generator-loop defects; with a declared closed-form primitive the direct
residual ``|i* lambda - (df - f i* beta)|`` is evaluated with exact jets, too.

The library of named examples lives at the bottom: the double-cover torus,
the curled torus linking the zero section, twisted graphs, zero section, and
jet-graph Legendrians with their product lifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, ImmersionError, PreconditionError
from .forms import (FormExpression, coordinate_differential, exterior_d,
                    increasing_indices, pullback)
from .jets import Jet2, partial_jet
from .manifolds import (ModelManifold, ScalarField, SmoothMap,
                        _coerce_coords, make_manifold, parameter_grid,
                        sample_points)
from .numerics import (central_difference, dedup_points, gauss_newton,
                       rk4_linear_path, segment_nodes, simpson_path)
from .structures import CotangentLcsStructure, cotangent_lcs

__all__ = [
    "ParametricEmbedding", "ExactnessCertificate", "LagrangianReport",
    "verify_lagrangian", "require_lagrangian", "solve_primitive",
    "translate_by_form", "beta_graph", "zero_section", "lift_legendrian",
    "jet_graph", "symplectization_immersion", "contact_lift_check",
    "lift_generating_function", "GeneratingLift", "cobordism_gluing_constant",
    "genericity_check", "GenericityReport", "example_torus_1",
    "example_torus_2", "example_by_name", "closest_parameter",
    "base_preimages", "fiber_zeros",
]


# ----------------------------------------------------------------- embeddings

@dataclass
class ParametricEmbedding:
    """A candidate Lagrangian: source chart, target structure, and map."""

    source: ModelManifold
    structure: CotangentLcsStructure
    chart: SmoothMap
    declared_primitive: ScalarField | None = None
    name: str = ""

    def __post_init__(self):
        if self.source.dim != self.structure.base.dim:
            raise DimensionError(
                "source dimension must equal the base dimension")
        if self.chart.target.labels != self.structure.total.labels:
            raise DimensionError("chart target is not the structure's bundle")

    @property
    def n(self) -> int:
        return self.structure.n

    def points(self, params) -> np.ndarray:
        return self.chart(params)

    def base_values(self, params) -> np.ndarray:
        return self.chart(params)[..., :self.n]

    def fiber_values(self, params) -> np.ndarray:
        return self.chart(params)[..., self.n:]

    def pulled_liouville(self) -> FormExpression:
        return pullback(self.chart, self.structure.lam)

    def pulled_lee(self) -> FormExpression:
        return pullback(self.chart, self.structure.beta)

    def parameter_samples(self, count: int = 512, seed: int = 0) -> np.ndarray:
        return sample_points(self.source, count, seed=seed)


@dataclass
class LagrangianReport:
    residual_sup: float
    min_singular_value: float
    passed: bool
    tol: float
    sample_count: int
    worst_param: np.ndarray = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {"residual_sup": self.residual_sup,
                "min_singular_value": self.min_singular_value,
                "passed": bool(self.passed), "tol": self.tol,
                "sample_count": self.sample_count}


def verify_lagrangian(E: ParametricEmbedding, samples=None,
                      tol: float = 1e-9,
                      rank_tol: float = 1e-8) -> LagrangianReport:
    """Sup of the pulled-back twisted 2-form over samples; immersion checked."""
    params = (E.parameter_samples() if samples is None
              else _coerce_coords(E.source, samples))
    flat = params.reshape(-1, E.source.dim)
    J = E.chart.jacobian(flat)
    sv = np.linalg.svd(J, compute_uv=False)
    min_sv = float(sv[..., -1].min())
    if min_sv < rank_tol:
        worst = flat[int(np.argmin(sv[..., -1]))]
        raise ImmersionError("rank-deficient Jacobian at a sampled parameter",
                             min_singular_value=min_sv,
                             parameter=np.array2string(worst, precision=6))
    if E.structure.omega.degree > E.source.dim:
        # a 2-form pulls back to 0 on a 1-dimensional source identically
        per_sample = np.zeros(flat.shape[0])
    else:
        res = np.abs(pullback(E.chart, E.structure.omega).coefficients(flat))
        per_sample = res.max(axis=-1) if res.ndim > 1 else res
    worst_i = int(np.argmax(per_sample))
    sup = float(per_sample[worst_i])
    return LagrangianReport(residual_sup=sup, min_singular_value=min_sv,
                            passed=bool(sup <= tol), tol=tol,
                            sample_count=flat.shape[0],
                            worst_param=flat[worst_i])


def require_lagrangian(E: ParametricEmbedding) -> None:
    """Refuse an embedding that is not Lagrangian on 256 parameter samples:
    the precondition of every primitive, solved or declared."""
    rep = verify_lagrangian(E, samples=E.parameter_samples(256))
    if not rep.passed:
        raise PreconditionError(
            "embedding is not Lagrangian on the sample set",
            residual_sup=rep.residual_sup)


# ------------------------------------------------------- primitive integration

def _chunked_coefficients(form: FormExpression, coords: np.ndarray,
                          chunk: int = 65536) -> np.ndarray:
    flat = coords.reshape(-1, coords.shape[-1])
    if flat.shape[0] <= chunk:
        out = form.coefficients(flat)
    else:
        parts = [form.coefficients(flat[i:i + chunk])
                 for i in range(0, flat.shape[0], chunk)]
        out = np.concatenate(parts, axis=0)
    return out.reshape(coords.shape[:-1] + (out.shape[-1],))


def _path_data(lamL, betaL, start: np.ndarray, delta: np.ndarray,
               n_steps: int):
    """Values of the two path integrands at RK4 nodes along straight segments.

    ``start``/``delta`` have shape (..., k); returns (a, b, h) where a and b
    have one extra node axis appended.
    """
    s = segment_nodes(n_steps)
    pos = start[..., None, :] + s[:, None] * delta[..., None, :]
    lam_c = _chunked_coefficients(lamL, pos)
    beta_c = _chunked_coefficients(betaL, pos)
    b = np.einsum("...nk,...k->...n", lam_c, delta)
    a = np.einsum("...nk,...k->...n", beta_c, delta)
    return a, b, 1.0 / n_steps


@dataclass
class ExactnessCertificate:
    """Numeric evidence that an embedding is a twisted-exact Lagrangian."""

    residual_sup: float
    holonomy_defects: dict
    holonomies: dict
    solved_primitive: "IntegratedPrimitive"
    unique_primitive: bool
    base_point: np.ndarray
    base_value: float
    tol: float
    declared_residual_sup: float | None = None
    declared_match_sup: float | None = None

    @property
    def valid(self) -> bool:
        defects = max(self.holonomy_defects.values(), default=0.0)
        return self.residual_sup <= self.tol and defects <= self.tol

    def as_dict(self) -> dict:
        return {
            "residual_sup": self.residual_sup,
            "holonomy_defects": dict(self.holonomy_defects),
            "holonomies": dict(self.holonomies),
            "unique_primitive": bool(self.unique_primitive),
            "base_value": self.base_value,
            "tol": self.tol,
            "valid": bool(self.valid),
            "declared_residual_sup": self.declared_residual_sup,
            "declared_match_sup": self.declared_match_sup,
        }


class IntegratedPrimitive(ScalarField):
    """Primitive recovered by path integration, cached on a parameter grid.

    Values at off-grid parameters integrate a short straight segment from the
    nearest grid node.  First derivatives come from the defining relation
    ``df = i*lambda + f i*beta`` (exact given the solved values); the Hessian
    is its derivative, symmetrized.
    """

    def __init__(self, embedding: ParametricEmbedding, grid: np.ndarray,
                 values: np.ndarray, lamL: FormExpression,
                 betaL: FormExpression, n_sub: int = 8):
        super().__init__(embedding.source, fn=None,
                         name=f"primitive[{embedding.name}]")
        self.embedding = embedding
        self.grid = grid
        self.grid_values = values
        self._lamL = lamL
        self._betaL = betaL
        self._n_sub = n_sub
        self._axes = [np.unique(grid[..., i].reshape(-1))
                      for i in range(grid.shape[-1])]

    def _nearest_node(self, coords: np.ndarray):
        idx = []
        for i, ax in enumerate(self._axes):
            j = np.clip(np.searchsorted(ax, coords[..., i]), 0, len(ax) - 1)
            j_lo = np.clip(j - 1, 0, len(ax) - 1)
            pick = np.where(np.abs(ax[j_lo] - coords[..., i])
                            <= np.abs(ax[j] - coords[..., i]), j_lo, j)
            idx.append(pick)
        return tuple(idx)

    def value(self, points) -> np.ndarray:
        coords = _coerce_coords(self.domain, points)
        squeeze = coords.ndim == 1
        coords2 = coords.reshape(-1, coords.shape[-1])
        idx = self._nearest_node(coords2)
        start = self.grid[idx]
        f0 = self.grid_values[idx]
        delta = coords2 - start  # short segments; no wrap needed
        a, b, h = _path_data(self._lamL, self._betaL, start, delta,
                             self._n_sub)
        vals = rk4_linear_path(a, b, f0, h)
        return vals[0] if squeeze else vals.reshape(coords.shape[:-1])

    def jet(self, points, order: int = 2) -> Jet2:
        coords = _coerce_coords(self.domain, points)
        f = self.value(coords)
        if order == 0:
            return Jet2(f)
        lam_j = self._lamL.jets(coords, order=1)
        beta_j = self._betaL.jets(coords, order=1)
        k = self.domain.dim
        g = np.stack([lam_j[i].f + f * beta_j[i].f for i in range(k)], axis=-1)
        if order == 1:
            return Jet2(f, g)
        rows = []
        have_h = all(j.g is not None for j in lam_j + beta_j)
        if not have_h:
            return Jet2(f, g)
        for i in range(k):
            rows.append(lam_j[i].g + g * beta_j[i].f[..., None]
                        + f[..., None] * beta_j[i].g)
        h = np.stack(rows, axis=-2)
        return Jet2(f, g, 0.5 * (h + np.swapaxes(h, -1, -2)))


def _fill_grid(lamL, betaL, grid: np.ndarray, f0: float, axis_order,
               n_sub: int) -> np.ndarray:
    dims = grid.shape[:-1]
    k = len(dims)
    values = np.full(dims, np.nan)
    values[(0,) * k] = f0
    filled: list[int] = []
    for ax in axis_order:
        slicer_prev = [slice(None) if a in filled else 0 for a in range(k)]
        m = dims[ax]
        starts, deltas, prevs = [], [], []
        for j in range(1, m):
            s_prev = list(slicer_prev)
            s_next = list(slicer_prev)
            s_prev[ax] = j - 1
            s_next[ax] = j
            starts.append(grid[tuple(s_prev)])
            deltas.append(grid[tuple(s_next)] - grid[tuple(s_prev)])
        if m > 1:
            start = np.stack(starts, axis=0)
            delta = np.stack(deltas, axis=0)
            a, b, h = _path_data(lamL, betaL, start, delta, n_sub)
            f_prev_slice = list(slicer_prev)
            f_prev_slice[ax] = 0
            f = values[tuple(f_prev_slice)]
            for j in range(1, m):
                f = rk4_linear_path(a[j - 1], b[j - 1], f, h)
                s_next = list(slicer_prev)
                s_next[ax] = j
                values[tuple(s_next)] = f
        filled.append(ax)
    return values


def _loop_transport(lamL, betaL, base: np.ndarray, axis: int,
                    steps: int):
    """Multiplicative holonomy H = exp(loop integral of i*beta) and the
    inhomogeneous part B of the affine return map f -> H f + B around the
    generator loop of a circle axis."""
    delta = np.zeros_like(base)
    delta[axis] = 2.0 * np.pi
    a, b, h = _path_data(lamL, betaL, base, delta, steps)
    H = float(np.exp(simpson_path(a, h)))
    B = float(rk4_linear_path(a, b, 0.0, h))
    return H, B


def solve_primitive(E: ParametricEmbedding, base_point=None,
                    grid_shape=64, steps_per_loop: int = 2048,
                    tol: float = 1e-8, check: bool = True,
                    line_radius: float = 4.0) -> ExactnessCertificate:
    """Integrate the primitive ODE over a parameter grid and certify exactness.

    The primitive value at the base point is pinned by the affine return map
    of any generator loop whose multiplicative holonomy differs from 1
    (uniqueness); otherwise it is taken from the declared primitive (or 0).
    The certificate's ``residual_sup`` is the sup over grid nodes of the
    discrepancy between two independent integration orders, combined with the
    generator-loop defects; both vanish exactly when ``i*lambda - f i*beta``
    is closed, so this is the sampled content of the defining equation.
    """
    if check:
        require_lagrangian(E)
    src = E.source
    if base_point is None:
        base = np.zeros(src.dim)
    else:
        base = _coerce_coords(src, base_point)
    lamL = E.pulled_liouville()
    betaL = E.pulled_lee()

    grid = parameter_grid(src, grid_shape, radius=line_radius)
    dims = grid.shape[:-1]
    k = src.dim
    # generator loops: one per circle axis
    holonomies, inhomog = {}, {}
    for ax in range(k):
        if src.is_circle[ax]:
            H, B = _loop_transport(lamL, betaL, base, ax, steps_per_loop)
            holonomies[src.labels[ax]] = H
            inhomog[src.labels[ax]] = B

    hol_gap = {lb: abs(H - 1.0) for lb, H in holonomies.items()}
    unique = any(gap > 1e-9 * max(1.0, abs(holonomies[lb]))
                 for lb, gap in hol_gap.items())
    if unique:
        lb = max(hol_gap, key=hol_gap.get)
        f0 = inhomog[lb] / (1.0 - holonomies[lb])
    elif E.declared_primitive is not None:
        f0 = float(E.declared_primitive.value(base))
    else:
        f0 = 0.0

    defects = {lb: abs(holonomies[lb] * f0 + inhomog[lb] - f0)
               for lb in holonomies}

    # transport the pinned value from the base point to the grid origin
    origin = grid[(0,) * k]
    hop = src.difference(origin, base)
    if np.linalg.norm(hop) > 1e-15:
        a, b, h = _path_data(lamL, betaL, base, hop, 256)
        f_origin = float(rk4_linear_path(a, b, f0, h))
    else:
        f_origin = f0

    n_sub = max(4, int(round(steps_per_loop / max(max(dims) - 1, 1))))
    vals_fwd = _fill_grid(lamL, betaL, grid, f_origin, list(range(k)), n_sub)
    if k > 1:
        vals_rev = _fill_grid(lamL, betaL, grid, f_origin,
                              list(reversed(range(k))), n_sub)
        path_dep = float(np.abs(vals_fwd - vals_rev).max())
    else:
        path_dep = 0.0
    residual_sup = max(path_dep, max(defects.values(), default=0.0))

    primitive = IntegratedPrimitive(E, grid, vals_fwd, lamL, betaL)

    declared_res = declared_match = None
    if E.declared_primitive is not None:
        flat = grid.reshape(-1, k)
        fj = E.declared_primitive.jet(flat, order=1)
        lam_c = lamL.coefficients(flat)
        beta_c = betaL.coefficients(flat)
        resid = lam_c - (fj.g - fj.f[:, None] * beta_c)
        declared_res = float(np.abs(resid).max())
        declared_match = float(np.abs(fj.f - vals_fwd.reshape(-1)).max())

    return ExactnessCertificate(
        residual_sup=residual_sup, holonomy_defects=defects,
        holonomies=holonomies, solved_primitive=primitive,
        unique_primitive=unique, base_point=base, base_value=f0, tol=tol,
        declared_residual_sup=declared_res, declared_match_sup=declared_match)


# -------------------------------------------------------------- constructions

def _as_base_coeffs(S: CotangentLcsStructure, eta) -> tuple:
    if eta is None:
        return S.beta_base_coeffs
    if isinstance(eta, str) and eta == "beta":
        return S.beta_base_coeffs
    out = []
    for c in eta:
        if isinstance(c, ScalarField):
            out.append(c)
        else:
            out.append(ScalarField.constant(S.base, float(c)))
    if len(out) != S.n:
        raise DimensionError("translation form needs one coefficient per "
                             "base coordinate")
    return tuple(out)


def _coeffs_equal_beta(S: CotangentLcsStructure, coeffs) -> bool:
    if tuple(coeffs) == tuple(S.beta_base_coeffs):
        return True
    # the structure's coefficients live on the bundle chart (reading only the
    # base slots); candidates may live on the base or the bundle
    pts_total = sample_points(S.total, 64)
    pts_base = pts_total[:, :S.n]

    def values(c):
        pts = (pts_total if c.domain.labels == S.total.labels else pts_base)
        return c.value(pts)

    for c, b in zip(coeffs, S.beta_base_coeffs):
        if np.abs(values(c) - values(b)).max() > 1e-12:
            return False
    return True


def translate_by_form(E: ParametricEmbedding, eta=None,
                      c: float = 0.0) -> ParametricEmbedding:
    """Fiber translation by ``c * eta`` for a 1-form eta on the base.

    When ``eta`` is the structure's Lee form and E carries primitive f, the
    translate carries primitive ``f - c`` (translation by +c*beta shifts the
    primitive down by c; the sign is fixed by ``d_beta(f - c) = d_beta f
    + c*beta``).
    """
    S = E.structure
    coeffs = _as_base_coeffs(S, eta)
    n = S.n
    inner = E.chart

    def fn(jets):
        comps = inner.fn(jets)
        base_jets = comps[:n]
        out = list(comps[:n])
        for i in range(n):
            out.append(comps[n + i] + coeffs[i].fn(base_jets) * c)
        return out

    new_primitive = None
    if (E.declared_primitive is not None and c != 0.0
            and _coeffs_equal_beta(S, coeffs)):
        f = E.declared_primitive
        new_primitive = ScalarField(E.source,
                                    lambda jets: f.fn(jets) - c,
                                    name=f"{f.name}-{c}")
    elif c == 0.0:
        new_primitive = E.declared_primitive

    chart = SmoothMap(E.source, S.total, fn,
                      name=f"{E.name}+{c}*eta",
                      derivative_loss=inner.derivative_loss)
    return ParametricEmbedding(source=E.source, structure=S, chart=chart,
                               declared_primitive=new_primitive,
                               name=f"{E.name} translated by {c}*eta")


def beta_graph(f: ScalarField, S: CotangentLcsStructure,
               name: str = "") -> ParametricEmbedding:
    """Graph of the twisted differential: ``x -> (x, df_x - f(x) beta_x)``.

    Always twisted-exact with primitive f.
    """
    if f.domain.labels != S.base.labels:
        raise DimensionError("graph function must live on the base")
    n = S.n

    def fn(jets):
        fj = f.fn(jets)
        out = list(jets)
        for i in range(n):
            beta_i = S.beta_base_coeffs[i].fn(jets)
            # beta coefficients were lifted to the bundle chart; feeding base
            # jets works because they only read the first n slots
            out.append(partial_jet(fj, i) - fj * beta_i)
        return out

    chart = SmoothMap(S.base, S.total, fn, name=name or f"graph({f.name})",
                      derivative_loss=1)
    return ParametricEmbedding(source=S.base, structure=S, chart=chart,
                               declared_primitive=f,
                               name=name or f"beta-graph of {f.name}")


def zero_section(S: CotangentLcsStructure) -> ParametricEmbedding:
    E = beta_graph(ScalarField.constant(S.base, 0.0), S, name="zero-section")
    E.name = "zero-section"
    return E


def jet_graph(c: ScalarField, M: ModelManifold) -> SmoothMap:
    """One-jet graph ``q -> (q, dc_q, c(q))`` into J1(M)."""
    if c.domain.labels != M.labels:
        raise DimensionError("jet graph function must live on M")
    j1 = M.jet1()
    n = M.dim

    def fn(jets):
        cj = c.fn(jets)
        return list(jets) + [partial_jet(cj, i) for i in range(n)] + [cj]

    return SmoothMap(M, j1, fn, name=f"j1({c.name})", derivative_loss=1)


def _canonical_contact_form(M: ModelManifold) -> FormExpression:
    """``dz - sum p_i dq_i`` on J1(M)."""
    j1 = M.jet1()
    n = M.dim
    alpha = coordinate_differential(j1, 2 * n)
    for i in range(n):
        alpha = alpha - (coordinate_differential(j1, i)
                         * j1.coordinate_field(n + i))
    return alpha


def lift_legendrian(Lambda: SmoothMap, Q: ModelManifold, q_form: Sequence,
                    samples=None, tol: float = 1e-9,
                    name: str = "") -> ParametricEmbedding:
    """Product lift of a Legendrian in J1(M) over (Q, beta) with beta
    nowhere zero: ``(l, q) -> (i_M(l), q, -f(l) beta_q)``.

    ``f`` is read off as the z-component of the Legendrian; the lift is
    twisted-exact with primitive f by construction, which the returned
    embedding's certificate confirms.
    """
    Msrc = Lambda.source
    j1 = Lambda.target
    n_m = (j1.dim - 1) // 2
    M = ModelManifold(j1.is_circle[:n_m], j1.labels[:n_m])

    # Legendrian condition: pullback of dz - lambda_M vanishes on samples
    alpha = _canonical_contact_form(M)
    pts = (sample_points(Msrc, 256) if samples is None
           else _coerce_coords(Msrc, samples))
    res = np.abs(pullback(Lambda, alpha).coefficients(pts))
    if res.max(initial=0.0) > tol:
        worst = pts.reshape(-1, Msrc.dim)[int(np.argmax(res.max(axis=-1)))]
        raise PreconditionError(
            "input is not Legendrian for the canonical contact form",
            worst_residual=float(res.max()),
            parameter=np.array2string(worst, precision=6))

    q_coeffs = [c if isinstance(c, ScalarField)
                else ScalarField.constant(Q, float(c)) for c in q_form]
    if len(q_coeffs) != Q.dim:
        raise DimensionError("q_form needs one coefficient per Q coordinate")
    qpts = sample_points(Q, 256)
    norms = np.linalg.norm(
        np.stack([c.value(qpts) for c in q_coeffs], axis=-1), axis=-1)
    if norms.min() <= 1e-12:
        raise PreconditionError("the 1-form on Q must be nowhere zero",
                                min_norm=float(norms.min()))

    base = M.product(Q)

    def on_product(c: ScalarField) -> ScalarField:
        return ScalarField(base, lambda jets, cc=c: cc.fn(jets[n_m:]),
                           name=c.name)

    S = cotangent_lcs(base, [0.0] * n_m + [on_product(c) for c in q_coeffs])
    src = ModelManifold(Msrc.is_circle + Q.is_circle,
                        tuple(f"u{i+1}" for i in range(Msrc.dim))
                        + tuple(f"v{i+1}" for i in range(Q.dim)))
    nl = Msrc.dim

    def fn(jets):
        l_jets, q_jets = jets[:nl], jets[nl:]
        leg = Lambda.fn(l_jets)
        f = leg[2 * n_m]
        out = list(leg[:n_m])            # base M coordinates
        out += list(q_jets)              # base Q coordinates
        out += list(leg[n_m:2 * n_m])    # fiber over M
        for c in q_coeffs:               # fiber over Q: -f * beta_q
            out.append(-f * c.fn(q_jets))
        return out

    chart = SmoothMap(src, S.total, fn, name=name or "legendrian-lift",
                      derivative_loss=Lambda.derivative_loss)

    def primitive_fn(jets):
        return Lambda.fn(jets[:nl])[2 * n_m]

    primitive = ScalarField(src, primitive_fn, name="lift-primitive",
                            derivative_loss=Lambda.derivative_loss)
    return ParametricEmbedding(source=src, structure=S, chart=chart,
                               declared_primitive=primitive,
                               name=name or "legendrian-lift")


@dataclass
class SymplectizationReport:
    closedness_sup: float
    loop_integrals: dict
    passed: bool

    def as_dict(self) -> dict:
        return {"closedness_sup": self.closedness_sup,
                "loop_integrals": dict(self.loop_integrals),
                "passed": bool(self.passed)}


def symplectization_immersion(E: ParametricEmbedding, f: ScalarField | None = None,
                              samples=None, tol: float = 1e-9):
    """Untwist a twisted-exact embedding: ``l -> (i1(l), i2(l) + f(l) beta)``.

    The image is an exact Lagrangian immersion for the untwisted form: the
    pullback of lambda equals df, checked through its exterior derivative and
    generator-loop integrals.  The immersion may fail to be injective.
    """
    S = E.structure
    if f is None:
        f = E.declared_primitive
    if f is None:
        raise PreconditionError(
            "need a primitive (declared or solved) to untwist")
    n = S.n
    inner = E.chart

    def fn(jets):
        comps = inner.fn(jets)
        base_jets = comps[:n]
        fj = f.fn(jets)
        out = list(comps[:n])
        for i in range(n):
            beta_i = S.beta_base_coeffs[i].fn(base_jets)
            out.append(comps[n + i] + fj * beta_i)
        return out

    jmap = SmoothMap(E.source, S.total, fn, name=f"sympl({E.name})",
                     derivative_loss=inner.derivative_loss)
    pts = (E.parameter_samples(256) if samples is None
           else _coerce_coords(E.source, samples))
    lam_pb = pullback(jmap, S.lam)
    if E.source.dim < 2:
        closed = np.zeros(pts.shape[:-1] + (0,))  # 2-forms vanish on curves
    else:
        try:
            closed = np.abs(exterior_d(lam_pb).coefficients(pts))
        except DimensionError:
            # charts built from field gradients exhaust the order-2 jet
            # budget; fall back to a central-difference curl of the 1-form
            _, J = central_difference(lam_pb.coefficients, pts, 1e-5)
            closed = np.abs(np.stack(
                [J[..., j, i] - J[..., i, j]
                 for i, j in increasing_indices(E.source.dim, 2)], axis=-1))
    sup = float(closed.max(initial=0.0))
    loops = {}
    zero = pullback(jmap, S.beta) * 0.0
    for ax in range(E.source.dim):
        if E.source.is_circle[ax]:
            base = np.zeros(E.source.dim)
            delta = np.zeros(E.source.dim)
            delta[ax] = 2 * np.pi
            a, b, h = _path_data(zero, lam_pb, base, delta, 512)
            loops[E.source.labels[ax]] = float(simpson_path(a, h))
    passed = sup <= tol and all(abs(v) <= 1e-6 for v in loops.values())
    return jmap, SymplectizationReport(closedness_sup=sup,
                                       loop_integrals=loops, passed=passed)


def _wedge_power(form: FormExpression, k: int) -> FormExpression:
    out = form
    for _ in range(k - 1):
        out = out.wedge(form)
    return out


@dataclass
class ContactLiftReport:
    equality_sup: float
    min_abs_coefficient: float
    passed: bool

    def as_dict(self) -> dict:
        return {"equality_sup": self.equality_sup,
                "min_abs_coefficient": self.min_abs_coefficient,
                "passed": bool(self.passed)}


def contact_lift_check(M: ModelManifold, beta_coeffs: Sequence,
                       samples=None, tol: float = 1e-10) -> ContactLiftReport:
    """On J1(M): the twisted contact form ``alpha + z beta`` has the same
    volume form as ``alpha`` and that volume never vanishes."""
    j1 = M.jet1()
    n = M.dim
    alpha = _canonical_contact_form(M)
    zfield = j1.coordinate_field(2 * n)
    beta = None
    for i in range(n):
        ci = beta_coeffs[i] if i < len(beta_coeffs) else 0.0
        f = (ci if isinstance(ci, ScalarField)
             else ScalarField.constant(j1, float(ci)))
        if isinstance(ci, ScalarField) and ci.domain.labels == M.labels:
            f = ScalarField(j1, lambda jets, c=ci: c.fn(jets[:n]))
        term = coordinate_differential(j1, i) * f
        beta = term if beta is None else beta + term
    alpha_p = alpha + (beta * zfield if beta is not None else alpha * 0.0)

    vol = alpha.wedge(_wedge_power(exterior_d(alpha), n))
    vol_p = alpha_p.wedge(_wedge_power(exterior_d(alpha_p), n))
    pts = (sample_points(j1, 100) if samples is None
           else _coerce_coords(j1, samples))
    a = vol.coefficients(pts)
    b = vol_p.coefficients(pts)
    sup = float(np.abs(a - b).max())
    min_abs = float(np.abs(b).min())
    return ContactLiftReport(equality_sup=sup, min_abs_coefficient=min_abs,
                             passed=bool(sup <= tol and min_abs > 0))


# ------------------------------------------------------ generating functions

@dataclass
class GeneratingLift:
    G: ScalarField
    lifted_domain: ModelManifold
    base_dim: int
    critical_points: np.ndarray      # (N, dim M + k) fiber-critical samples
    generated_points: np.ndarray     # (N, 2 dim M + 1): rows (q, D_M F, -F)

    def lift_points(self, theta: float) -> np.ndarray:
        """Generated set in T*(M x S^1) over the circle coordinate theta.

        Rows are ``(q, theta, D_M F, -F)`` in bundle coordinate order.
        """
        n = self.base_dim
        out = []
        for row in self.generated_points:
            out.append(np.concatenate([row[:n], [theta],
                                       row[n:2 * n], row[2 * n:]]))
        return (np.asarray(out) if out
                else np.zeros((0, 2 * n + 2)))


def lift_generating_function(F: ScalarField, M: ModelManifold, k: int,
                             shell_radius: float = 3.0,
                             hessian_tol: float = 1e-6,
                             grid: int = 48,
                             xi_radius: float = 2.0) -> GeneratingLift:
    """Lift a quadratic-at-infinity generating function to the circle product.

    The lifted function ``G(q, theta, xi) = F(q, xi)`` ignores the circle
    coordinate; its twisted fiber-critical locus generates the product of the
    original Lagrangian with the circle.  Fiber-critical points are located by
    damped Newton on ``D_xi F = 0`` from grid seeds.
    """
    n = M.dim
    dom = F.domain
    if dom.dim != n + k:
        raise DimensionError("F must live on M x R^k")

    # quadratic at infinity: Hessian in xi constant on the sample shell
    shell = sample_points(dom, 64, radius=1.0)
    dirs = shell[:, n:]
    norms = np.linalg.norm(dirs, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    shell[:, n:] = shell_radius * dirs / norms
    hess = F.jet(shell).h[:, n:, n:]
    spread = float(np.abs(hess - hess[0]).max())
    if spread > hessian_tol:
        raise PreconditionError(
            "generating function is not quadratic outside the stated compact",
            hessian_spread=spread, shell_radius=shell_radius)

    lifted_dom = ModelManifold(M.is_circle + (True,) + (False,) * k,
                               M.labels + ("theta",)
                               + tuple(f"xi{i+1}" for i in range(k)))

    def G_fn(jets):
        return F.fn(list(jets[:n]) + list(jets[n + 1:]))

    G = ScalarField(lifted_dom, G_fn, name=f"lift({F.name})")

    # fiber-critical locus by Newton in xi over a base grid
    base_grid = parameter_grid(M, grid).reshape(-1, n)
    axis = np.linspace(-xi_radius, xi_radius, max(8, grid // 4))
    xi_seeds = np.stack(np.meshgrid(*([axis] * k), indexing="ij"),
                        axis=-1).reshape(-1, k)
    crit = []
    for q in base_grid:
        def res_fixed_base(xi_only, q=q):
            u = np.concatenate(
                [np.repeat(q[None, :], xi_only.shape[0], axis=0), xi_only],
                axis=1)
            jets = F.jet(u, order=2)
            return jets.g[:, n:], jets.h[:, n:, n:]

        sol, _, ok = gauss_newton(res_fixed_base, xi_seeds, tol=1e-12)
        good = sol[ok & (np.abs(sol).max(axis=-1) <= xi_radius + 1e-6)]
        if good.size == 0:
            continue
        reps = dedup_points(good, 1e-4)
        for r_ in reps:
            crit.append(np.concatenate([q, good[r_]]))
    crit = np.asarray(crit) if crit else np.zeros((0, n + k))

    generated = []
    for u in crit:
        jet = F.jet(u, order=1)
        generated.append(np.concatenate([u[:n], jet.g[:n], [-jet.f]]))
    generated = (np.asarray(generated) if generated
                 else np.zeros((0, 2 * n + 1)))
    return GeneratingLift(G=G, lifted_domain=lifted_dom, base_dim=n,
                          critical_points=crit, generated_points=generated)


def cobordism_gluing_constant(f0: float, ft0: float, t0: float):
    """The unique constant c with ``f0 + c = e^{t0}(ft0 + c)``; None at t0=0."""
    if t0 < 0:
        raise PreconditionError("gluing time must be positive", t0=t0)
    E = np.exp(t0)
    if E == 1.0:
        return None
    return (E * ft0 - f0) / (1.0 - E)


# ------------------------------------------------------ Newton on embeddings

def base_preimages(E: ParametricEmbedding, q: np.ndarray, params: np.ndarray,
                   bases: np.ndarray, nearest: int) -> np.ndarray:
    """Parameters u with ``base(u) = q``, one per preimage, normalized.

    Newton starts from the grid ``params`` whose base points ``bases`` lie
    within the ``nearest + 1`` smallest distances to q.
    """
    S = E.structure
    n = S.n
    d = S.base.distance(bases, q)
    k = min(nearest, len(d) - 1)
    seeds = params[d <= np.partition(d, k)[k] + 1e-9]

    def residual(u):
        jets = E.chart.jet(u, order=1)
        vals = np.stack([c.f for c in jets[:n]], axis=-1)
        r = S.base.difference(S.base.normalize(vals), q)
        J = np.stack([c.g for c in jets[:n]], axis=-2)
        return r, J

    sol, _, ok = gauss_newton(residual, seeds, tol=1e-13)
    good = E.source.normalize(sol[ok])
    return good[dedup_points(E.source.embed(good), 1e-6)]


def fiber_zeros(E: ParametricEmbedding, seeds: np.ndarray) -> np.ndarray:
    """Parameters where L meets the zero section (``fiber(u) = 0``), one per
    intersection, normalized; Newton from ``seeds``."""
    n = E.n

    def residual(u):
        jets = E.chart.jet(u, order=1)
        r = np.stack([c.f for c in jets[n:]], axis=-1)
        J = np.stack([c.g for c in jets[n:]], axis=-2)
        return r, J

    sol, _, ok = gauss_newton(residual, seeds, tol=1e-12)
    good = E.source.normalize(sol[ok])
    return good[dedup_points(E.source.embed(good), 1e-4)]


# ----------------------------------------------------------------- genericity

@dataclass
class GenericityReport:
    degenerate_input: bool
    intersections: np.ndarray
    intersection_margins: np.ndarray
    min_transversality: float | None
    tangency_params: np.ndarray
    tangency_margins: np.ndarray
    min_tangency_fiber_norm: float | None
    hypothesis_ok: bool

    def as_dict(self) -> dict:
        return {
            "degenerate_input": bool(self.degenerate_input),
            "intersection_count": int(self.intersections.shape[0]),
            "min_transversality": self.min_transversality,
            "tangency_count": int(self.tangency_params.shape[0]),
            "min_tangency_fiber_norm": self.min_tangency_fiber_norm,
            "hypothesis_ok": bool(self.hypothesis_ok),
        }


def genericity_check(E: ParametricEmbedding, grid: int = 64,
                     zero_tol: float = 1e-8) -> GenericityReport:
    """Sampled check of the three genericity conditions.

    (1) transversality to the zero section at detected intersections (margin
    = smallest singular value of the fiber block of the chart Jacobian),
    (2) the vertical-tangency locus, located as the zero set of the base-block
    determinant, with the gradient norm of that determinant as margin,
    (3) the minimum fiber norm over the located tangency locus.
    """
    src = E.source
    n = E.n
    params = parameter_grid(src, grid).reshape(-1, src.dim)
    fib = E.fiber_values(params)
    fib_norm = np.linalg.norm(fib, axis=-1)
    if fib_norm.max() <= zero_tol:
        return GenericityReport(True, np.zeros((0, src.dim)), np.zeros(0),
                                None, np.zeros((0, src.dim)), np.zeros(0),
                                None, False)

    # (1) intersections with the zero section
    inters = fiber_zeros(
        E, params[fib_norm < np.quantile(fib_norm, 0.05) + 1e-9])
    margins = np.zeros(0)
    if inters.shape[0]:
        J = E.chart.jacobian(inters)
        # column-normalized fiber block: small singular value = tangency
        Jn = J / np.maximum(np.linalg.norm(J, axis=1, keepdims=True), 1e-300)
        margins = np.linalg.svd(Jn[:, n:, :], compute_uv=False)[..., -1]
    min_trans = float(margins.min()) if margins.size else None

    # (2) vertical tangencies: zeros of det(base block) along grid edges
    Jall = E.chart.jacobian(params).reshape(-1, 2 * n, src.dim)
    detb = np.linalg.det(Jall[:, :n, :]).reshape((grid,) * src.dim)
    tang = []
    coords_nd = params.reshape((grid,) * src.dim + (src.dim,))
    for ax in range(src.dim):
        rolled = np.roll(detb, -1, axis=ax)
        sign_change = (detb * rolled) < 0
        idxs = np.argwhere(sign_change)
        for idx in idxs:
            a = coords_nd[tuple(idx)]
            nxt = list(idx)
            nxt[ax] = (nxt[ax] + 1) % grid
            b = coords_nd[tuple(nxt)]
            da, db = detb[tuple(idx)], detb[tuple(nxt)]
            w = da / (da - db)
            tang.append(src.normalize(a + w * src.difference(b, a)))
    exact_zero = np.argwhere(np.abs(detb) <= zero_tol)
    for idx in exact_zero:
        tang.append(coords_nd[tuple(idx)])
    tang = np.asarray(tang) if tang else np.zeros((0, src.dim))
    if tang.shape[0]:
        reps = dedup_points(src.embed(tang), 1e-3)
        tang = tang[reps]

    tmargins = np.zeros(0)
    min_fiber = None
    if tang.shape[0]:
        _, grads = central_difference(
            lambda u: np.linalg.det(E.chart.jacobian(u)[:, :n, :]), tang, 1e-5)
        tmargins = np.linalg.norm(grads, axis=-1)
        min_fiber = float(np.linalg.norm(E.fiber_values(tang), axis=-1).min())

    ok1 = margins.size == 0 or margins.min() > 1e-6
    ok3 = min_fiber is None or min_fiber > 1e-6
    ok2 = tmargins.size == 0 or tmargins.min() > 1e-6
    return GenericityReport(False, inters, margins, min_trans, tang, tmargins,
                            min_fiber, bool(ok1 and ok2 and ok3))


# -------------------------------------------------------------- closest point

def closest_parameter(E: ParametricEmbedding, x: np.ndarray,
                      seed_grid: int = 32):
    """Parameters of the closest points of the embedded image to x.

    Returns ``(params, distances)`` for the locally-nearest parameters found
    from grid seeds (several when the fiber ray meets several sheets).
    """
    src = E.source
    total = E.structure.total
    x = _coerce_coords(total, x)
    params = parameter_grid(src, seed_grid).reshape(-1, src.dim)
    d = total.distance(E.points(params), x)
    order = np.argsort(d)
    seeds = params[order[:8]]

    def residual(u):
        jets = E.chart.jet(u, order=1)
        vals = total.normalize(np.stack([c.f for c in jets], axis=-1))
        r = total.difference(vals, x)
        J = np.stack([c.g for c in jets], axis=-2)
        return r, J

    sol, norms, _ = gauss_newton(residual, seeds, tol=1e-14, max_iter=60)
    sol = src.normalize(sol)
    reps = dedup_points(src.embed(sol), 1e-6)
    sol = sol[reps]
    dist = total.distance(E.points(sol), x)
    keep = dist <= dist.min() + 1e-9
    return sol[keep], dist[keep]


# ------------------------------------------------------------ example library

def example_torus_1() -> ParametricEmbedding:
    """Double-cover torus: ``(theta, phi) -> (2 theta, phi, cos(theta)/2,
    -sin(theta))`` in (T*T^2, lambda, d phi); primitive sin(theta)."""
    T2 = make_manifold(2, 0)
    S = cotangent_lcs(T2, [0.0, 1.0])
    src = make_manifold(2, 0, labels=("theta", "phi"))

    def fn(jets):
        th, ph = jets
        return [th * 2.0, ph, th.cos() * 0.5, -th.sin()]

    chart = SmoothMap(src, S.total, fn, name="example-torus-1")
    primitive = ScalarField(src, lambda j: j[0].sin(), name="sin(theta)")
    return ParametricEmbedding(source=src, structure=S, chart=chart,
                               declared_primitive=primitive,
                               name="example-torus-1")


def example_torus_2() -> ParametricEmbedding:
    """Curled torus linking the zero section: ``(theta, phi) -> (cos(theta),
    phi, 3 sin cos, sin^3)``; primitive -sin^3(theta).

    The first base coordinate is the real chart value cos(theta); within one
    period it stays inside [-1, 1] of the circle chart.
    """
    T2 = make_manifold(2, 0)
    S = cotangent_lcs(T2, [0.0, 1.0])
    src = make_manifold(2, 0, labels=("theta", "phi"))

    def fn(jets):
        th, ph = jets
        s, c = th.sin(), th.cos()
        return [c, ph, s * c * 3.0, s * s * s]

    chart = SmoothMap(src, S.total, fn, name="example-torus-2")
    primitive = ScalarField(src, lambda j: -(j[0].sin() ** 3),
                            name="-sin^3(theta)")
    return ParametricEmbedding(source=src, structure=S, chart=chart,
                               declared_primitive=primitive,
                               name="example-torus-2")


def example_by_name(name: str, **kwargs):
    """Scene-file entry point for the example library."""
    if name == "example-torus-1":
        return example_torus_1()
    if name == "example-torus-2":
        return example_torus_2()
    if name == "zero-section":
        S = kwargs.get("structure")
        if S is None:
            raise ValueError("zero-section needs structure=")
        return zero_section(S)
    if name == "beta-graph":
        return beta_graph(kwargs["f"], kwargs["structure"])
    if name == "legendrian-lift":
        return lift_legendrian(kwargs["legendrian"], kwargs["Q"],
                               kwargs["q_form"])
    raise KeyError(f"unknown example {name!r}")
