"""Constructive extension of a positive function with a radial growth bound.

Given an exact Lagrangian L in T*M with an unobstructed positive function h
near L, the pipeline builds a positive grid field g on the whole bundle with

  * g = h on a collar of L,
  * g identically 1 outside a compact shell,
  * radial logarithmic derivative (the slope of ln g along fiber rays,
    which is what the Euler field differentiates) strictly below 1.

Stages: a near-zero-section patch (constant max(h), blended to h where L
meets the section), log-linear interpolation along each fiber ray between the
patch and the values of h at the ray's crossings of L (the per-ray slopes are
exactly the chord mean-value ratios, so an obstructed chord is a rejected
ray), a compact-bump mollification, restoration of the exact values on the
collar, and an outer log-linear flattening to 1.

Fields live on a base x direction x radius grid with log-spaced radii, so
slopes are grid-uniform and the radial bound is a centered difference along
the radius axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
import numpy as np

from .chords import (OBSTRUCTED_RATIO, MvtReport, mvt_obstruction_report,
                     ray_log_slope)
from .errors import (DimensionError, DomainEvaluationError, ObstructionError,
                     PreconditionError)
from .lagrangians import ParametricEmbedding, base_preimages, fiber_zeros
from .manifolds import ScalarField, parameter_grid
from .structures import CotangentLcsStructure, smoothstep

__all__ = [
    "RadialField", "SqueezeProfile", "near_zero_extension", "InnerPatch",
    "radial_log_interpolation", "mollify", "outer_flatten",
    "verify_radial_bound", "RadialBoundReport", "squeeze_profile",
    "build_positive_extension", "ExtensionReport", "fiber_directions",
    "log_radii", "nearest_direction",
]


# ------------------------------------------------------------------ geometry

# The interpolation keeps exact h on [r / COLLAR_FACTOR, r * COLLAR_FACTOR]
# around each crossing r; the restored collar is its middle half in ln r.
# The patch blends to h within BLEND_RADIUS (base distance) of L meeting the
# section, the mollifier's bump spans KERNEL_CELLS grid cells each way, and
# the outer taper keeps its log-slope below 1 - FLATTEN_MARGIN.
COLLAR_FACTOR = 1.12
BLEND_RADIUS = 0.5
KERNEL_CELLS = 3
FLATTEN_MARGIN = 0.25


def fiber_directions(n: int, count: int = 256) -> np.ndarray:
    """Deterministic unit covector set: signs for 1-d fibers, a golden-angle
    circle set for 2-d fibers."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        golden = 2.0 * np.pi * (1.0 - 1.0 / ((1 + np.sqrt(5)) / 2))
        ang = np.sort(np.mod(golden * np.arange(count), 2 * np.pi))
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    raise DimensionError("direction sets implemented for fiber dim <= 2")


def nearest_direction(p: np.ndarray, r: np.ndarray,
                      directions: np.ndarray) -> np.ndarray:
    """Index of the direction nearest each covector p of norm r (direction
    0 up to norm 1e-12): the ray that ``_ray_crossings`` writes a crossing to
    and ``radial_field_to_scalar_field`` reads the field from."""
    idx = np.argmax((p / np.maximum(r, 1e-300)[..., None]) @ directions.T,
                    axis=-1)
    return np.where(r <= 1e-12, 0, idx)


def log_radii(r_min: float = 1e-3, r_max: float = 16.0,
              shells: int = 128) -> np.ndarray:
    return np.exp(np.linspace(np.log(r_min), np.log(r_max), shells))


def _grid_nodes(base_points: np.ndarray, directions: np.ndarray,
               radii: np.ndarray) -> np.ndarray:
    """Bundle coordinates (q, r v) of the base x direction x radius grid,
    shape (B, D, R, 2n)."""
    B, D, R = base_points.shape[0], directions.shape[0], radii.shape[0]
    n = base_points.shape[1]
    q = np.broadcast_to(base_points[:, None, None, :], (B, D, R, n))
    p = np.broadcast_to(directions[None, :, None, :]
                        * radii[None, None, :, None], (B, D, R, n))
    return np.concatenate([q, p], axis=-1)


@dataclass
class RadialField:
    """Positive sampled field organized by base x direction x radius."""

    base_points: np.ndarray      # (B, n)
    directions: np.ndarray       # (D, n)
    radii: np.ndarray            # (R,) log-spaced, increasing
    values: np.ndarray           # (B, D, R) positive

    def __post_init__(self):
        if self.values.shape != (self.base_points.shape[0],
                                 self.directions.shape[0],
                                 self.radii.shape[0]):
            raise DimensionError("value block does not match the axes")

    def check_positive(self) -> None:
        if not np.all(self.values > 0.0):
            raise DomainEvaluationError("radial field lost positivity")

    def log_slopes(self) -> np.ndarray:
        """Centered log-derivative along the radius axis, shape (B, D, R-2).

        On a log-spaced radius grid this is the sampled radial logarithmic
        derivative (the Euler field's action on ln g).
        """
        ln_v = np.log(self.values)
        ln_r = np.log(self.radii)
        return ((ln_v[..., 2:] - ln_v[..., :-2])
                / (ln_r[2:] - ln_r[:-2]))

    def base_axes(self) -> list:
        """The nodes of each base axis, sorted: the base points must be the
        full rectangular grid of these axes in C order, as ``parameter_grid``
        lays them out."""
        axes = [np.unique(col) for col in self.base_points.T]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        if not np.array_equal(grid.reshape(-1, len(axes)), self.base_points):
            raise PreconditionError(
                "base points do not form a full rectangular grid in C order")
        return axes

    def node_points(self) -> np.ndarray:
        """All grid nodes as bundle coordinates, shape (B, D, R, 2n)."""
        return _grid_nodes(self.base_points, self.directions, self.radii)

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "base_points": self.base_points.tolist(),
                "directions": self.directions.tolist(),
                "radii": self.radii.tolist(),
                "values": self.values.tolist(),
            }, fh, sort_keys=True)

    def to_csv(self, path: str) -> None:
        B, D, R = self.values.shape
        with open(path, "w") as fh:
            fh.write("base_index,direction_index,radius,value\n")
            for b in range(B):
                for d in range(D):
                    for r in range(R):
                        fh.write(f"{b},{d},{self.radii[r]:.12g},"
                                 f"{self.values[b, d, r]:.17g}\n")


# --------------------------------------------------------------- inner patch

@dataclass
class InnerPatch:
    """Near-section values: constant max(h) blended to h near L-section
    intersections (quintic-in-distance blending, a C^1 seam).

    ``everywhere`` marks the degenerate case (L is the section itself):
    the patch is then h outright.
    """

    structure: CotangentLcsStructure
    h: ScalarField
    h_max: float
    intersection_bases: np.ndarray     # (I, n)
    everywhere: bool = False

    def values(self, base_points: np.ndarray, directions: np.ndarray,
               radii: np.ndarray) -> np.ndarray:
        S = self.structure
        B, D, R = (base_points.shape[0], directions.shape[0], radii.shape[0])
        if not self.everywhere:
            out = np.full((B, D, R), self.h_max)
            if self.intersection_bases.shape[0] == 0:
                return out
            # blend weight from base distance to the nearest intersection
            d = np.min(np.stack(
                [S.base.distance(base_points, q)
                 for q in self.intersection_bases], axis=0), axis=0)
            # 1 at intersections
            w = 1.0 - smoothstep(np.clip(d / BLEND_RADIUS, 0.0, 1.0))
            if not np.any(w > 0):
                return out
        nodes = _grid_nodes(base_points, directions, radii)
        hv = self.h.value(nodes.reshape(-1, 2 * S.n)).reshape(B, D, R)
        if self.everywhere:
            return hv
        return (1.0 - w)[:, None, None] * out + w[:, None, None] * hv


def near_zero_extension(h: ScalarField, E: ParametricEmbedding) -> InnerPatch:
    """Extend h near the zero section.

    Away from the (transverse) intersections of L with the section the patch
    is the constant max(h); near them it blends to h.  The intersections are
    ``fiber_zeros`` on a 48-node parameter grid.  The patch does not scan
    chords: ``build_positive_extension`` refuses an obstructed L before it
    builds the patch.
    """
    S = E.structure
    pts = E.chart(parameter_grid(E.source, 64).reshape(-1, E.source.dim))
    hv = h.value(pts)
    if hv.min() <= 0.0:
        raise PreconditionError("h must be positive near L",
                                minimum=float(hv.min()))
    h_max = float(hv.max())

    # intersections with the zero section: Newton on fiber(u) = 0
    n = S.n
    params = parameter_grid(E.source, 48)
    fib_norm = np.linalg.norm(E.fiber_values(params), axis=-1)
    if fib_norm.max() <= 1e-12:
        # degenerate input: L is the section, the patch is h itself
        return InnerPatch(structure=S, h=h, h_max=h_max,
                          intersection_bases=np.zeros((0, n)),
                          everywhere=True)
    zeros = fiber_zeros(E, params, fib_norm)
    inters = E.base_values(zeros) if zeros.shape[0] else np.zeros((0, n))
    return InnerPatch(structure=S, h=h, h_max=h_max,
                      intersection_bases=inters)


# ------------------------------------------------------- ray interpolation

def _ray_crossings(E: ParametricEmbedding, h: ScalarField,
                   base_points: np.ndarray, directions: np.ndarray) -> tuple:
    """Crossings of the fiber rays with L, for fibers of any dimension.

    One Newton batch solves base(u) = q for every base point q.  Each
    preimage gives one crossing: its covector p picks its ray by
    ``nearest_direction``, at radius |p|, with the value of h at that point
    of L.  Returns flat arrays ``(ray, radius, value)`` with ``ray = b*D +
    d``, sorted by ray and then by radius.  Every crossing is returned, the
    ones near the zero section too: ``radial_log_interpolation`` decides
    which ones count.
    """
    src = E.source
    params = parameter_grid(src, 96).reshape(-1, src.dim)
    good, owner = base_preimages(E, base_points, params, E.base_values(params),
                                 nearest=8)
    pts = E.chart(good)
    fib = pts[:, E.n:]
    hv = h.value(pts)
    r = np.linalg.norm(fib, axis=-1)
    ray = owner * directions.shape[0] + nearest_direction(fib, r, directions)
    order = np.lexsort((r, ray))
    return ray[order], r[order], hv[order]


def radial_log_interpolation(inner: InnerPatch, crossings: tuple,
                             base_points: np.ndarray, directions: np.ndarray,
                             radii: np.ndarray, h: ScalarField) -> tuple:
    """Assemble the full radial field: patch below, exact h on collars,
    log-linear in between, constant above the last crossing.

    ``crossings`` are the flat arrays ``(ray, radius, value)`` of
    ``_ray_crossings``.  Per ray, the slope between consecutive crossing
    values is exactly the chord mean-value ratio; a slope reaching 1 names
    the ray and rejects, mirroring the chord classification.  Returns
    ``(field, collar, top)``: the (B, D, R) mask of the collar nodes whose
    exact values the mollified field gets back, and the largest crossing
    radius used (8 r_min when no crossing is used).
    """
    B, D, R = base_points.shape[0], directions.shape[0], radii.shape[0]
    l_prime = radii[0] * 4.0
    values = inner.values(base_points, directions, radii)
    ln_r = np.log(radii)
    i_lp = min(int(np.searchsorted(radii, l_prime)), R - 1)
    values[..., i_lp + 1:] = values[..., i_lp, None]  # the patch ends at l'
    collar = np.zeros((B, D, R), dtype=bool)
    ray, radius, value = crossings
    used = radius > l_prime * COLLAR_FACTOR
    ray, radius, value = ray[used], radius[used], value[used]
    top = float(radius.max()) if radius.size else radii[0] * 8
    half = np.sqrt(COLLAR_FACTOR)
    # one pass per ray that holds a used crossing, over its run [start, stop)
    first = np.flatnonzero(np.diff(ray, prepend=-1))
    for k, start, stop in zip(ray[first], first,
                              np.append(first[1:], ray.size)):
        bi, di = divmod(int(k), D)
        q, u = base_points[bi], directions[di]
        v = values[bi, di]
        # chord anchors (crossing radius, h there) drive the rejection:
        # their slope is exactly the chord mean-value ratio; the fill
        # itself runs between collar edges, exact h on the collars
        chord_anchor = (l_prime, float(v[i_lp]))
        fill_anchor = chord_anchor
        for c_r, c_v in zip(radius[start:stop].tolist(),
                            value[start:stop].tolist()):
            lo, hi = c_r / COLLAR_FACTOR, c_r * COLLAR_FACTOR
            slope = ray_log_slope(chord_anchor[1], chord_anchor[0], c_v, c_r)
            if slope >= OBSTRUCTED_RATIO:
                raise ObstructionError(
                    "ray rejected: radial log-slope reached 1 "
                    "(an obstructed chord pair)",
                    base_index=bi, direction_index=di, slope=float(slope),
                    inner_radius=float(chord_anchor[0]),
                    outer_radius=c_r)
            prev_r, prev_v = fill_anchor
            mask_between = (radii > prev_r) & (radii < lo)
            if mask_between.any() and lo > prev_r:
                w = ((ln_r[mask_between] - np.log(prev_r))
                     / (np.log(lo) - np.log(prev_r)))
                v_lo = float(h.value(np.concatenate([q, lo * u])))
                v[mask_between] = np.exp(
                    (1 - w) * np.log(prev_v) + w * np.log(v_lo))
            mask_collar = (radii >= lo) & (radii <= hi)
            if mask_collar.any():
                nodes = _grid_nodes(q[None], u[None], radii[mask_collar])
                v[mask_collar] = h.value(nodes[0, 0])
            # the restored collar: the middle half of [lo, hi] in ln r
            collar[bi, di] |= (radii >= c_r / half) & (radii <= c_r * half)
            v_hi = float(h.value(np.concatenate([q, hi * u])))
            chord_anchor = (c_r, c_v)
            fill_anchor = (hi, v_hi)
        # constant continuation above the last collar
        v[radii > fill_anchor[0]] = fill_anchor[1]
    field = RadialField(base_points, directions, radii, values)
    field.check_positive()
    return field, collar, top


# ------------------------------------------------------------- mollification

def _bump_kernel(half_width: int) -> np.ndarray:
    x = np.linspace(-1.0, 1.0, 2 * half_width + 1)
    k = np.clip(1.0 - x * x, 0.0, None) ** 3
    return k / k.sum()


def mollify(F: RadialField, is_circle) -> RadialField:
    """Convolve with a compactly supported positive bump, unit mass on the
    grid; smooths seams at grid scale.

    Convolution along the log-radius axis averages values with positive
    weights, so the radial log-slope of the output is a convex combination of
    nearby input slopes (the slope hull can only shrink).  Base axes flagged
    in ``is_circle`` convolve periodically; line axes replicate their end
    values, as the radius axis does.
    """
    k = _bump_kernel(KERNEL_CELLS)
    vals = F.values.copy()
    # radius axis: replicate edges (field is constant near both ends)
    pad = KERNEL_CELLS
    padded = np.concatenate([np.repeat(vals[..., :1], pad, axis=-1), vals,
                             np.repeat(vals[..., -1:], pad, axis=-1)], axis=-1)
    out = np.zeros_like(vals)
    for i, w in enumerate(k):
        out += w * padded[..., i:i + vals.shape[-1]]
    vals = out

    def convolve(a, axis, wrap):
        # the taps of np.roll(a, i - KERNEL_CELLS); a line axis clamps them
        # to its end nodes instead of wrapping
        idx = np.arange(a.shape[axis])
        acc = np.zeros_like(a)
        for i, w in enumerate(k):
            src = idx - (i - KERNEL_CELLS)
            src = src % idx.size if wrap else np.clip(src, 0, idx.size - 1)
            acc += w * np.take(a, src, axis=axis)
        return acc

    axes = F.base_axes()
    shaped = vals.reshape(tuple(a.size for a in axes) + vals.shape[1:])
    for ax, (_, circle) in enumerate(zip(axes, is_circle, strict=True)):
        shaped = convolve(shaped, ax, circle)
    vals = shaped.reshape(vals.shape)
    # direction axis: periodic on the circle of a 2-d fiber
    if F.directions.shape[1] == 2:
        vals = convolve(vals, 1, True)
    out_field = RadialField(F.base_points, F.directions, F.radii, vals)
    out_field.check_positive()
    return out_field


# ------------------------------------------------------------ outer flatten

def outer_flatten(F: RadialField, r_inner: float,
                  r_outer: float) -> RadialField:
    """Taper log-linearly to 1 between two radii; exactly 1 beyond.

    Admissibility per ray: |ln F(r_inner)| / ln(r_outer / r_inner) must stay
    below 1 - FLATTEN_MARGIN; rejection reports the minimal admissible outer
    radius.
    """
    radii = F.radii
    if r_outer <= r_inner:
        raise PreconditionError("need r_outer > r_inner")
    i_in = int(np.searchsorted(radii, r_inner))
    i_in = min(i_in, radii.shape[0] - 1)
    anchor = F.values[..., i_in]
    worst = float(np.abs(np.log(anchor)).max())
    denom = np.log(r_outer / radii[i_in])
    if worst / denom >= 1.0 - FLATTEN_MARGIN:
        minimal = float(radii[i_in] * np.exp(worst / (1.0 - FLATTEN_MARGIN)))
        raise PreconditionError(
            "outer radius too small for an admissible taper",
            minimal_admissible_r_outer=minimal, worst_log_value=worst)
    vals = F.values.copy()
    ln_rat = np.log(radii / radii[i_in])
    w = np.clip(ln_rat / denom, 0.0, 1.0)
    taper = np.exp(np.log(anchor)[..., None] * (1.0 - w[None, None, :]))
    outside = radii > radii[i_in]
    vals[..., outside] = taper[..., outside]
    vals[..., radii >= r_outer] = 1.0
    out = RadialField(F.base_points, F.directions, radii, vals)
    out.check_positive()
    return out


# ------------------------------------------------------------- verification

@dataclass
class RadialBoundReport:
    max_slope: float
    passed: bool
    outer_shell_is_one: bool
    collar_match_sup: float | None

    def as_dict(self) -> dict:
        return {"max_slope": self.max_slope, "passed": bool(self.passed),
                "outer_shell_is_one": bool(self.outer_shell_is_one),
                "collar_match_sup": self.collar_match_sup}


def verify_radial_bound(F: RadialField, h: ScalarField | None = None,
                        collar_nodes: np.ndarray | None = None
                        ) -> RadialBoundReport:
    """Max centered log-difference along the radius axis (the sampled radial
    logarithmic derivative); pass iff below 1.  Also checks the outer shell
    is exactly 1 and, given collar nodes, agreement with h there (within
    1e-6)."""
    max_slope = float(F.log_slopes().max())
    outer_one = bool(np.all(F.values[..., -1] == 1.0))
    collar_sup = None
    if h is not None and collar_nodes is not None and collar_nodes.any():
        mask = collar_nodes.astype(bool)
        nodes = F.node_points()[mask]
        hv = h.value(nodes)
        collar_sup = float(np.abs(F.values[mask] - hv).max())
    passed = max_slope < 1.0 and outer_one and (
        collar_sup is None or collar_sup <= 1e-6)
    return RadialBoundReport(max_slope=max_slope, passed=passed,
                             outer_shell_is_one=outer_one,
                             collar_match_sup=collar_sup)


# ----------------------------------------------------------- squeeze profile

@dataclass
class SqueezeProfile:
    """Radial squeeze: identity inside, smoothstep-blended seam, then a log
    profile compressing [r0, r] into [r0, r0 + epsilon]."""

    r0: float
    r: float
    epsilon: float

    def __post_init__(self):
        if not (0 < self.r0 < self.r):
            raise PreconditionError("need 0 < r0 < r")
        bound = (self.r - self.r0) / self.r
        if not np.log1p(self.epsilon / self.r0) < bound:
            raise PreconditionError(
                "inadmissible epsilon: need ln(1 + eps/r0) < (r - r0)/r",
                lhs=float(np.log1p(self.epsilon / self.r0)), rhs=float(bound))


def squeeze_profile(P: SqueezeProfile, t) -> tuple:
    """Profile value and derivative at radius t.

    Identity below r0 - eps; the smoothstep blend carries the derivative
    continuously onto the log profile ``r0 ((r0+eps)/r0)^{(t-r0)/(r-r0)}``,
    which squeezes [r0, r] into [r0, r0+eps]; seams are C^1 by construction.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    c = (P.r0 + P.epsilon) / P.r0
    slope_a = (P.r0 / (P.r - P.r0)) * np.log(c)
    alpha = np.empty_like(t)
    deriv = np.empty_like(t)

    zone1 = t <= P.r0 - P.epsilon
    alpha[zone1] = t[zone1]
    deriv[zone1] = 1.0

    zone2 = (t > P.r0 - P.epsilon) & (t < P.r0)
    if zone2.any():
        tt = t[zone2]
        u = (tt - P.r0 + P.epsilon) / P.epsilon
        H = smoothstep(u)
        Hp = 30.0 * (u * (1.0 - u)) ** 2
        A = P.r0 + (tt - P.r0) * slope_a
        alpha[zone2] = H * A + (1.0 - H) * tt
        deriv[zone2] = (Hp / P.epsilon) * (A - tt) + H * slope_a + (1.0 - H)

    zone3 = t >= P.r0
    if zone3.any():
        tt = t[zone3]
        val = P.r0 * c ** ((tt - P.r0) / (P.r - P.r0))
        alpha[zone3] = val
        deriv[zone3] = val * np.log(c) / (P.r - P.r0)

    if scalar:
        return float(alpha[0]), float(deriv[0])
    return alpha, deriv


# ------------------------------------------------------------- full pipeline

@dataclass
class ExtensionReport:
    stage_max_slopes: dict
    final: RadialBoundReport
    mvt: MvtReport = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {"stage_max_slopes": {k: float(v) for k, v in
                                     self.stage_max_slopes.items()},
                "final": self.final.as_dict(),
                "mvt": None if self.mvt is None else self.mvt.as_dict()}


def build_positive_extension(E: ParametricEmbedding, h: ScalarField,
                             base_grid: int = 64, shells: int = 128,
                             r_min: float = 1e-3, r_max: float = 16.0,
                             directions: int = 256) -> tuple:
    """Run the whole pipeline; refuse obstructed scenes citing the chord.

    Returns ``(RadialField, ExtensionReport)``; the report carries per-stage
    maxima of the radial log-slope, the mean-value report and the final
    bound verification (including exact-1 outer shell and collar
    agreement with h).
    """
    S = E.structure
    mvt = mvt_obstruction_report(E)
    if mvt.obstructed:
        mvt.refuse("extension refused: the mean-value bound obstructs")

    patch = near_zero_extension(h, E)

    base_points = parameter_grid(S.base, base_grid).reshape(-1, S.n)
    dirs = fiber_directions(S.n, directions)
    radii = log_radii(r_min, r_max, shells)

    crossings = _ray_crossings(E, h, base_points, dirs)
    interp, collar, top = radial_log_interpolation(
        patch, crossings, base_points, dirs, radii, h)
    stage = {"interpolation": float(interp.log_slopes().max())}

    smooth = mollify(interp, S.base.is_circle)
    stage["mollified"] = float(smooth.log_slopes().max())

    # restore the exact values of h on the collars (and keep them for the
    # final agreement check)
    smooth.values[collar] = interp.values[collar]
    stage["collar_restored"] = float(smooth.log_slopes().max())

    # outer flatten beyond every crossing
    r_inner = min(top * COLLAR_FACTOR * 2.0, radii[-3])
    flat = outer_flatten(smooth, r_inner=r_inner, r_outer=radii[-1])
    final = verify_radial_bound(flat, h=h, collar_nodes=collar)
    stage["flattened"] = final.max_slope
    report = ExtensionReport(stage_max_slopes=stage, final=final, mvt=mvt)
    return flat, report
