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
from .forms import (FormExpression, SumForm, _jet_determinant, _pullback_jets,
                    coordinate_differential, exterior_d, pullback,
                    pullback_coefficients)
from .jets import Jet2, compose_jet, partial_jet
from .manifolds import (ModelManifold, ScalarField, SmoothMap,
                        _coerce_coords, make_manifold, parameter_grid,
                        sample_points)
from .numerics import (cluster_labels, dedup_points, gauss_newton,
                       rk4_linear_path, segment_nodes, simpson_path)
from .structures import CotangentLcsStructure, _lift_base_field, cotangent_lcs

__all__ = [
    "ParametricEmbedding", "ExactnessCertificate", "LagrangianReport",
    "verify_lagrangian", "require_lagrangian", "solve_primitive",
    "translate_by_form", "beta_graph", "zero_section", "lift_legendrian",
    "jet_graph", "symplectization_immersion", "contact_lift_check",
    "genericity_check", "GenericityReport", "example_torus_1",
    "example_torus_2", "primitive_of", "base_preimages", "fiber_zeros",
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

    def parameter_samples(self, count: int = 512) -> np.ndarray:
        return sample_points(self.source, count)


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
                      tol: float = 1e-9) -> LagrangianReport:
    """Sup of the pulled-back twisted 2-form over samples; immersion checked."""
    params = (E.parameter_samples() if samples is None
              else _coerce_coords(E.source, samples))
    flat = params.reshape(-1, E.source.dim)
    J = E.chart.jacobian(flat)
    sv = np.linalg.svd(J, compute_uv=False)
    min_sv = float(sv[..., -1].min())
    if min_sv < 1e-8:
        worst = flat[int(np.argmin(sv[..., -1]))]
        raise ImmersionError("rank-deficient Jacobian at a sampled parameter",
                             min_singular_value=min_sv,
                             parameter=np.array2string(worst, precision=6))
    res = np.abs(pullback(E.chart, E.structure.omega).coefficients(flat))
    per_sample = res.max(axis=-1, initial=0.0)
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

# points of one chart evaluation in a path integrand: whole segments only
PATH_CHUNK = 65536


def _path_data(chart: SmoothMap, forms, start: np.ndarray, delta: np.ndarray,
               n_steps: int):
    """Path integrands of 1-forms pulled back along ``chart`` at RK4 nodes
    along straight parameter segments.

    ``start``/``delta`` have shape (..., k); returns ``(integrands, h)``:
    each pulled-back form's coefficients paired with ``delta``, one array
    per form with a node axis appended, and the node spacing h.  The chart
    is evaluated once per chunk of whole segments, and each chunk is reduced
    to its integrands right away.
    """
    s = segment_nodes(n_steps)
    k = delta.shape[-1]
    starts = np.broadcast_to(start, delta.shape).reshape(-1, k)
    deltas = delta.reshape(-1, k)
    out = [np.empty((deltas.shape[0], s.shape[0])) for _ in forms]
    per_chunk = max(1, PATH_CHUNK // s.shape[0])
    for lo in range(0, deltas.shape[0], per_chunk):
        d = deltas[lo:lo + per_chunk]
        pos = starts[lo:lo + per_chunk, None, :] + s[:, None] * d[:, None, :]
        coeffs = pullback_coefficients(chart, forms, pos.reshape(-1, k))
        for o, c in zip(out, coeffs):
            o[lo:lo + per_chunk] = np.einsum(
                "snk,sk->sn", c.reshape(pos.shape), d)
    return [o.reshape(delta.shape[:-1] + s.shape) for o in out], 1.0 / n_steps


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
    is its derivative, symmetrized.  ``fn`` wraps the incoming values and
    carries this jet through the incoming jets, so the primitive composes
    like any other field.
    """

    def __init__(self, embedding: ParametricEmbedding, grid: np.ndarray,
                 values: np.ndarray):
        super().__init__(embedding.source, fn=self._fn,
                         name=f"primitive[{embedding.name}]")
        self.embedding = embedding
        self.grid = grid
        self.grid_values = values
        self.chart = embedding.chart
        self.forms = (embedding.structure.beta, embedding.structure.lam)
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

    def _fn(self, jets):
        coords = np.stack([j.f for j in jets], axis=-1)
        return compose_jet(self.jet(coords, order=jets[0].order), jets)

    def _jet(self, coords: np.ndarray, order: int) -> Jet2:
        flat = coords.reshape(-1, coords.shape[-1])
        idx = self._nearest_node(flat)
        start = self.grid[idx]
        delta = flat - start  # short segments; no wrap needed
        (a, b), step = _path_data(self.chart, self.forms, start, delta, 8)
        f = rk4_linear_path(a, b, self.grid_values[idx], step).reshape(
            coords.shape[:-1])
        if order == 0:
            return Jet2(f)
        beta_j, lam_j = _pullback_jets(self.chart, self.forms, coords, 1)
        k = self.domain.dim
        g = np.stack([lam_j[i].f + f * beta_j[i].f for i in range(k)], axis=-1)
        if order == 1 or any(j.g is None for j in lam_j + beta_j):
            return Jet2(f, g)
        h = np.stack([lam_j[i].g + g * beta_j[i].f[..., None]
                      + f[..., None] * beta_j[i].g for i in range(k)], axis=-2)
        return Jet2(f, g, 0.5 * (h + np.swapaxes(h, -1, -2)))


def _fill_grid(chart: SmoothMap, forms, grid: np.ndarray, f0: float,
               axis_order, n_sub: int) -> np.ndarray:
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
            (a, b), h = _path_data(chart, forms, start, delta, n_sub)
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


def _loop_transport(chart: SmoothMap, forms, base: np.ndarray, axis: int,
                    steps: int):
    """Multiplicative holonomy H = exp(loop integral of i*beta) and the
    inhomogeneous part B of the affine return map f -> H f + B around the
    generator loop of a circle axis."""
    delta = np.zeros_like(base)
    delta[axis] = 2.0 * np.pi
    (a, b), h = _path_data(chart, forms, base, delta, steps)
    H = float(np.exp(simpson_path(a, h)))
    B = float(rk4_linear_path(a, b, 0.0, h))
    return H, B


def solve_primitive(E: ParametricEmbedding, base_point=None,
                    grid_shape=64, steps_per_loop: int = 2048,
                    tol: float = 1e-8) -> ExactnessCertificate:
    """Integrate the primitive ODE over a parameter grid and certify exactness.

    The primitive value at the base point is pinned by the affine return map
    of any generator loop whose multiplicative holonomy differs from 1
    (uniqueness); otherwise it is taken from the declared primitive (or 0).
    The certificate's ``residual_sup`` is the sup over grid nodes of the
    discrepancy between two independent integration orders, combined with the
    generator-loop defects; both vanish exactly when ``i*lambda - f i*beta``
    is closed, so this is the sampled content of the defining equation.
    """
    require_lagrangian(E)
    src = E.source
    if base_point is None:
        base = np.zeros(src.dim)
    else:
        base = _coerce_coords(src, base_point)
    forms = (E.structure.beta, E.structure.lam)

    grid = parameter_grid(src, grid_shape)
    dims = grid.shape[:-1]
    k = src.dim
    # generator loops: one per circle axis
    holonomies, inhomog = {}, {}
    for ax in range(k):
        if src.is_circle[ax]:
            H, B = _loop_transport(E.chart, forms, base, ax, steps_per_loop)
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
        (a, b), h = _path_data(E.chart, forms, base, hop, 256)
        f_origin = float(rk4_linear_path(a, b, f0, h))
    else:
        f_origin = f0

    n_sub = max(4, int(round(steps_per_loop / max(max(dims) - 1, 1))))
    vals_fwd = _fill_grid(E.chart, forms, grid, f_origin, list(range(k)),
                          n_sub)
    if k > 1:
        vals_rev = _fill_grid(E.chart, forms, grid, f_origin,
                              list(reversed(range(k))), n_sub)
        path_dep = float(np.abs(vals_fwd - vals_rev).max())
    else:
        path_dep = 0.0
    residual_sup = max(path_dep, max(defects.values(), default=0.0))

    primitive = IntegratedPrimitive(E, grid, vals_fwd)

    declared_res = declared_match = None
    if E.declared_primitive is not None:
        flat = grid.reshape(-1, k)
        fj = E.declared_primitive.jet(flat, order=1)
        beta_c, lam_c = pullback_coefficients(E.chart, forms, flat)
        resid = lam_c - (fj.g - fj.f[:, None] * beta_c)
        declared_res = float(np.abs(resid).max())
        declared_match = float(np.abs(fj.f - vals_fwd.reshape(-1)).max())

    return ExactnessCertificate(
        residual_sup=residual_sup, holonomy_defects=defects,
        holonomies=holonomies, solved_primitive=primitive,
        unique_primitive=unique, base_point=base, base_value=f0, tol=tol,
        declared_residual_sup=declared_res, declared_match_sup=declared_match)


def primitive_of(E: ParametricEmbedding, grid_shape=64) -> ScalarField:
    """The declared primitive of E, once E is checked Lagrangian, else the
    primitive solved on a ``grid_shape`` parameter grid."""
    if E.declared_primitive is None:
        return solve_primitive(E, grid_shape=grid_shape).solved_primitive
    require_lagrangian(E)
    return E.declared_primitive


# -------------------------------------------------------------- constructions

def translate_by_form(E: ParametricEmbedding, eta=None,
                      c: float = 0.0) -> ParametricEmbedding:
    """Fiber translation by ``c * eta`` for a 1-form eta on the base, given
    by one coefficient (a constant or a base field) per base coordinate.

    When ``eta`` is the structure's Lee form (``None`` or ``"beta"``) and E
    carries primitive f, the translate carries primitive ``f - c``
    (translation by +c*beta shifts the primitive down by c; the sign is
    fixed by ``d_beta(f - c) = d_beta f + c*beta``).  Any other eta, even one
    equal to beta, leaves the translate's primitive to be solved.
    """
    S = E.structure
    n = S.n
    by_beta = eta is None or (isinstance(eta, str) and eta == "beta")
    if by_beta:
        coeffs = S.beta_base_coeffs
    else:
        coeffs = [e if isinstance(e, ScalarField)
                  else ScalarField.constant(S.base, float(e)) for e in eta]
        if len(coeffs) != n:
            raise DimensionError("translation form needs one coefficient per "
                                 "base coordinate")
    inner = E.chart

    def fn(jets):
        comps = inner.fn(jets)
        base_jets = comps[:n]
        out = list(comps[:n])
        for i in range(n):
            out.append(comps[n + i] + coeffs[i].fn(base_jets) * c)
        return out

    primitive = E.declared_primitive
    if primitive is not None and c != 0.0:
        primitive = ScalarField(
            E.source, lambda jets, f=primitive: f.fn(jets) - c,
            name=f"{primitive.name}-{c}") if by_beta else None

    chart = SmoothMap(E.source, S.total, fn,
                      name=f"{E.name}+{c}*eta",
                      derivative_loss=inner.derivative_loss)
    return ParametricEmbedding(source=E.source, structure=S, chart=chart,
                               declared_primitive=primitive,
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


def lift_legendrian(Lambda: SmoothMap, Q: ModelManifold,
                    q_form: Sequence) -> ParametricEmbedding:
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
    pts = sample_points(Msrc, 256)
    res = np.abs(pullback(Lambda, alpha).coefficients(pts))
    if res.max(initial=0.0) > 1e-9:
        worst = pts[int(np.argmax(res.max(axis=-1)))]
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

    chart = SmoothMap(src, S.total, fn, name="legendrian-lift",
                      derivative_loss=Lambda.derivative_loss)

    def primitive_fn(jets):
        return Lambda.fn(jets[:nl])[2 * n_m]

    primitive = ScalarField(src, primitive_fn, name="lift-primitive",
                            derivative_loss=Lambda.derivative_loss)
    return ParametricEmbedding(source=src, structure=S, chart=chart,
                               declared_primitive=primitive,
                               name="legendrian-lift")


@dataclass
class SymplectizationReport:
    closedness_sup: float
    loop_integrals: dict
    passed: bool

    def as_dict(self) -> dict:
        return {"closedness_sup": self.closedness_sup,
                "loop_integrals": dict(self.loop_integrals),
                "passed": bool(self.passed)}


def symplectization_immersion(E: ParametricEmbedding,
                              f: ScalarField | None = None, samples=None):
    """Untwist a twisted-exact embedding: ``l -> (i1(l), i2(l) + f(l) beta)``.

    The image is an exact Lagrangian immersion for the untwisted form: the
    pullback of lambda equals df, checked through its exterior derivative and
    generator-loop integrals (within 1e-9 and 1e-6).  The immersion may fail
    to be injective.
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
    # d(i*lambda) = i*(d lambda), which needs one jet order less
    closed = pullback(jmap, exterior_d(S.lam)).coefficients(pts)
    sup = float(np.abs(closed).max(initial=0.0))
    loops = {}
    for ax in range(E.source.dim):
        if E.source.is_circle[ax]:
            base = np.zeros(E.source.dim)
            delta = np.zeros(E.source.dim)
            delta[ax] = 2 * np.pi
            (a,), h = _path_data(jmap, (S.lam,), base, delta, 512)
            loops[E.source.labels[ax]] = float(simpson_path(a, h))
    passed = sup <= 1e-9 and all(abs(v) <= 1e-6 for v in loops.values())
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
                       tol: float = 1e-10) -> ContactLiftReport:
    """On J1(M): the twisted contact form ``alpha + z beta`` has the same
    volume form as ``alpha`` (within ``tol`` on 100 samples) and that volume
    never vanishes."""
    j1 = M.jet1()
    n = M.dim
    alpha = _canonical_contact_form(M)
    coeffs = list(beta_coeffs) + [0.0] * (n - len(beta_coeffs))
    beta = SumForm([coordinate_differential(j1, i) * _lift_base_field(M, j1, c)
                    for i, c in enumerate(coeffs[:n])])
    alpha_p = alpha + beta * j1.coordinate_field(2 * n)

    vol = alpha.wedge(_wedge_power(exterior_d(alpha), n))
    vol_p = alpha_p.wedge(_wedge_power(exterior_d(alpha_p), n))
    pts = sample_points(j1, 100)
    a = vol.coefficients(pts)
    b = vol_p.coefficients(pts)
    sup = float(np.abs(a - b).max())
    min_abs = float(np.abs(b).min())
    return ContactLiftReport(equality_sup=sup, min_abs_coefficient=min_abs,
                             passed=bool(sup <= tol and min_abs > 0))


# ------------------------------------------------------ Newton on embeddings

def base_preimages(E: ParametricEmbedding, targets: np.ndarray,
                   params: np.ndarray, bases: np.ndarray,
                   nearest: int) -> tuple:
    """Parameters u with ``base(u) = q`` for every target q, one per
    preimage, normalized; returns ``(params, owner)`` with ``owner`` the
    index of each preimage's target in ``targets`` (shape (T, n)).

    Newton starts, for each target, from the grid ``params`` whose base
    points ``bases`` lie within the ``nearest + 1`` smallest distances to
    it; one batch solves every target.  Preimages come grouped by target, in
    target order.
    """
    S = E.structure
    n = S.n
    d = S.base.distance(bases[None], targets[:, None])      # (T, G)
    k = min(nearest, d.shape[1] - 1)
    kth = np.partition(d, k, axis=1)[:, k]
    owner, cols = np.nonzero(d <= kth[:, None] + 1e-9)

    def residual(u, rows):
        jets = E.chart.jet(u, order=1)
        vals = np.stack([c.f for c in jets[:n]], axis=-1)
        r = S.base.difference(S.base.normalize(vals), targets[owner[rows]])
        J = np.stack([c.g for c in jets[:n]], axis=-2)
        return r, J

    sol, _, ok = gauss_newton(residual, params[cols], tol=1e-13)
    good, owner = E.source.normalize(sol[ok]), owner[ok]
    # clusters never join two targets; keep each cluster's first member
    labels = cluster_labels(E.source.embed(good), 1e-6, keys=owner,
                            key_tol=0)
    first = np.unique(labels, return_index=True)[1]
    return good[first], owner[first]


def fiber_zeros(E: ParametricEmbedding, seeds: np.ndarray) -> np.ndarray:
    """Parameters where L meets the zero section (``fiber(u) = 0``), one per
    intersection, normalized; Newton from ``seeds``."""
    n = E.n

    def residual(u, _rows):
        jets = E.chart.jet(u, order=1)
        r = np.stack([c.f for c in jets[n:]], axis=-1)
        J = np.stack([c.g for c in jets[n:]], axis=-2)
        return r, J

    sol, _, ok = gauss_newton(residual, seeds, tol=1e-12)
    good = E.source.normalize(sol[ok])
    return good[dedup_points(E.source.embed(good), 1e-4)]


# ----------------------------------------------------------------- genericity

def _base_volume(E: ParametricEmbedding, params, order: int) -> Jet2:
    """Jet to ``order`` of the pullback of ``dq_1 ^ ... ^ dq_n`` along E's
    chart at ``params``: the Jacobian determinant of the base projection,
    read from the base components alone, so a chart's fiber components
    never cost it a derivative order."""
    coords = _coerce_coords(E.source, params)
    rows = [[partial_jet(c, m) for m in range(E.n)]
            for c in E.chart._jet(coords, order + 1)[:E.n]]
    return _jet_determinant(rows, E.n, coords.shape[:-1])


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


def genericity_check(E: ParametricEmbedding,
                     grid: int = 64) -> GenericityReport:
    """Sampled check of the three genericity conditions.

    (1) transversality to the zero section at detected intersections (margin
    = smallest singular value of the fiber block of the chart Jacobian),
    (2) the vertical-tangency locus, located as the zero set of the base
    volume (``_base_volume``), with the norm of its exact gradient as margin,
    (3) the minimum fiber norm over the located tangency locus.
    """
    src = E.source
    n = E.n
    params = parameter_grid(src, grid).reshape(-1, src.dim)
    fib = E.fiber_values(params)
    fib_norm = np.linalg.norm(fib, axis=-1)
    if fib_norm.max() <= 1e-8:
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

    # (2) vertical tangencies: zeros of the base volume along grid edges,
    # found by linear interpolation, then its exact zeros on the grid
    detb = _base_volume(E, params, 0).f.reshape((grid,) * src.dim)
    coords_nd = params.reshape((grid,) * src.dim + (src.dim,))
    tang = []
    for ax in range(src.dim):
        db = np.roll(detb, -1, axis=ax)
        cross = detb * db < 0
        a = coords_nd[cross]
        w = detb[cross] / (detb[cross] - db[cross])
        b = np.roll(coords_nd, -1, axis=ax)[cross]
        tang.append(src.normalize(a + w[:, None] * src.difference(b, a)))
    tang.append(coords_nd[np.abs(detb) <= 1e-8])
    tang = np.concatenate(tang)
    if tang.shape[0]:
        tang = tang[dedup_points(src.embed(tang), 1e-3)]

    tmargins = np.zeros(0)
    min_fiber = None
    if tang.shape[0]:
        tmargins = np.linalg.norm(_base_volume(E, tang, 1).g, axis=-1)
        min_fiber = float(np.linalg.norm(E.fiber_values(tang), axis=-1).min())

    ok1 = margins.size == 0 or margins.min() > 1e-6
    ok3 = min_fiber is None or min_fiber > 1e-6
    ok2 = tmargins.size == 0 or tmargins.min() > 1e-6
    return GenericityReport(False, inters, margins, min_trans, tang, tmargins,
                            min_fiber, bool(ok1 and ok2 and ok3))


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
