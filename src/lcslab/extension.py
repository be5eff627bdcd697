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
from scipy.spatial import cKDTree

from .chords import MvtReport, mvt_obstruction_report
from .errors import (DimensionError, DomainEvaluationError, ObstructionError,
                     PreconditionError)
from .lagrangians import (ExactnessCertificate, ParametricEmbedding,
                          base_preimages, closest_parameter, fiber_zeros,
                          solve_primitive)
from .manifolds import ScalarField, _coerce_coords, parameter_grid
from .numerics import central_difference, dedup_points
from .structures import CotangentLcsStructure, smoothstep

__all__ = [
    "CoreSkeleton", "RadialField", "SqueezeProfile", "build_core",
    "near_zero_extension", "InnerPatch", "radial_log_interpolation",
    "mollify", "outer_flatten", "verify_radial_bound", "RadialBoundReport",
    "squeeze_profile", "near_lagrangian_extension", "CollarField",
    "build_positive_extension", "ExtensionReport", "fiber_directions",
    "log_radii", "ray_log_slope",
]


# ------------------------------------------------------------------ geometry

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


def log_radii(r_min: float = 1e-3, r_max: float = 16.0,
              shells: int = 128) -> np.ndarray:
    return np.exp(np.linspace(np.log(r_min), np.log(r_max), shells))


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

    def copy(self) -> "RadialField":
        return RadialField(self.base_points, self.directions, self.radii,
                           self.values.copy())

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

    def node_points(self) -> np.ndarray:
        """All grid nodes as bundle coordinates, shape (B, D, R, 2n)."""
        B, D, R = self.values.shape
        q = np.broadcast_to(self.base_points[:, None, None, :],
                            (B, D, R, self.base_points.shape[1]))
        p = (self.directions[None, :, None, :]
             * self.radii[None, None, :, None])
        p = np.broadcast_to(p, (B, D, R, self.directions.shape[1]))
        return np.concatenate([q, p], axis=-1)

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

    @staticmethod
    def from_json(path: str) -> "RadialField":
        with open(path) as fh:
            data = json.load(fh)
        return RadialField(np.asarray(data["base_points"]),
                           np.asarray(data["directions"]),
                           np.asarray(data["radii"]),
                           np.asarray(data["values"]))


# ------------------------------------------------------------------ skeleton

@dataclass
class CoreSkeleton:
    """Sampled branches from the Lagrangian straight down to the section."""

    params: np.ndarray        # (P, k) parameters of branch endpoints on L
    base: np.ndarray          # (P, n)
    fiber: np.ndarray         # (P, n) nonzero covectors
    lengths: np.ndarray       # (P,) branch lengths |p|
    zero_grid: np.ndarray     # (B, n) zero-section grid
    stars: dict               # base cell index -> list of branch indices

    def branches_above(self, cell: int) -> np.ndarray:
        return np.asarray(self.stars.get(cell, []), dtype=int)

    def sheets_above(self, cell: int, tol: float = 0.3) -> int:
        """Number of distinct branches (sheets) over a star, clustering the
        sampled covectors at ``tol`` in fiber coordinates."""
        idx = self.branches_above(cell)
        if idx.size == 0:
            return 0
        return len(dedup_points(self.fiber[idx], tol))


def build_core(E: ParametricEmbedding, base_grid: int = 64,
               param_grid: int = 64,
               min_norm: float = 1e-3) -> CoreSkeleton:
    """Sample the branch set {(q, t p)} of an embedding plus the section grid.

    Branch endpoints with |p| below ``min_norm`` merge into the section (the
    zero section itself yields a skeleton with no branches).  Stars index
    branches by the nearest base grid cell.
    """
    S = E.structure
    params = parameter_grid(E.source, param_grid).reshape(-1, E.source.dim)
    pts = E.points(params)
    base, fiber = pts[:, :S.n], pts[:, S.n:]
    lengths = np.linalg.norm(fiber, axis=-1)
    keep = lengths >= min_norm
    params, base, fiber, lengths = (params[keep], base[keep], fiber[keep],
                                    lengths[keep])
    zero_grid = parameter_grid(S.base, base_grid).reshape(-1, S.n)
    stars: dict = {}
    if base.shape[0]:
        _, cells = cKDTree(S.base.embed(zero_grid)).query(S.base.embed(base))
        for i, c in enumerate(cells):
            stars.setdefault(int(c), []).append(i)
    return CoreSkeleton(params=params, base=base, fiber=fiber,
                        lengths=lengths, zero_grid=zero_grid, stars=stars)


# --------------------------------------------------------------- inner patch

@dataclass
class InnerPatch:
    """Near-section values: constant max(h) blended to h near L-section
    intersections (quintic-in-distance blending, a C^1 seam).

    ``everywhere`` marks the degenerate skeleton (L is the section itself):
    the patch is then h outright.
    """

    structure: CotangentLcsStructure
    h: ScalarField
    h_max: float
    intersection_bases: np.ndarray     # (I, n)
    blend_radius: float
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
            w = 1.0 - smoothstep(np.clip(d / self.blend_radius, 0.0, 1.0))
            if not np.any(w > 0):
                return out
        nodes = np.concatenate(
            [np.broadcast_to(base_points[:, None, None, :], (B, D, R, S.n)),
             directions[None, :, None, :] * radii[None, None, :, None]
             * np.ones((B, D, R, S.n))], axis=-1)
        hv = self.h.value(nodes.reshape(-1, 2 * S.n)).reshape(B, D, R)
        if self.everywhere:
            return hv
        return (1.0 - w)[:, None, None] * out + w[:, None, None] * hv


def near_zero_extension(h: ScalarField, E: ParametricEmbedding,
                        mvt: MvtReport | None = None,
                        blend_radius: float = 0.5,
                        certificate: ExactnessCertificate | None = None) -> InnerPatch:
    """Extend h near the zero section without creating an obstruction.

    Away from the (transverse) intersections of L with the section the patch
    is the constant max(h); near them it blends to h.  Requires the chord
    scan to report no obstruction; an obstructed input is rejected with the
    offending chord.
    """
    S = E.structure
    if mvt is None:
        mvt = mvt_obstruction_report(E, certificate=certificate)
    if mvt.obstructed:
        mvt.refuse("the mean-value bound obstructs this extension")
    pts = E.points(parameter_grid(E.source, 64).reshape(-1, E.source.dim))
    hv = h.value(pts)
    if hv.min() <= 0.0:
        raise PreconditionError("h must be positive near L",
                                minimum=float(hv.min()))
    h_max = float(hv.max())

    # intersections with the zero section: Newton on fiber(u) = 0
    n = S.n
    params = parameter_grid(E.source, 48).reshape(-1, E.source.dim)
    fib_norm = np.linalg.norm(E.fiber_values(params), axis=-1)
    if fib_norm.max() <= 1e-12:
        # degenerate input: L is the section, the patch is h itself
        return InnerPatch(structure=S, h=h, h_max=h_max,
                          intersection_bases=np.zeros((0, n)),
                          blend_radius=blend_radius, everywhere=True)
    zeros = fiber_zeros(
        E, params[fib_norm <= max(2 * fib_norm.min(), 1e-2)])
    inters = E.base_values(zeros) if zeros.shape[0] else np.zeros((0, n))
    return InnerPatch(structure=S, h=h, h_max=h_max,
                      intersection_bases=inters, blend_radius=blend_radius)


# ------------------------------------------------------- ray interpolation

def ray_log_slope(v0: float, r0: float, v1: float, r1: float) -> float:
    """Log-linear slope between two positive values at two radii.

    Same float arithmetic as the chord mean-value ratio (quotient of log
    ratios), so shared scenes classify identically here and in the scanner.
    """
    if v0 <= 0 or v1 <= 0:
        raise DomainEvaluationError("ray endpoint values must be positive")
    return float(np.log(v1 / v0) / np.log(r1 / r0))


@dataclass
class RayCrossing:
    radius: float
    value: float
    param: np.ndarray = None


def _ray_crossings_1d(E: ParametricEmbedding, h: ScalarField,
                      base_points: np.ndarray, directions: np.ndarray,
                      min_norm: float) -> list:
    """Exact crossings of fiber rays with L for 1-dimensional fibers.

    Newton solves base(u) = q; a crossing counts for the ray whose sign
    matches the covector.  Returns crossings[b][d] as lists sorted by radius.
    """
    src = E.source
    params = parameter_grid(src, 96).reshape(-1, src.dim)
    bases = E.base_values(params)
    out = [[[] for _ in range(directions.shape[0])]
           for _ in range(base_points.shape[0])]
    for bi, q in enumerate(base_points):
        good = base_preimages(E, q, params, bases, nearest=8)
        if good.shape[0] == 0:
            continue
        fib = E.fiber_values(good)
        hv = h.value(E.points(good))
        for u, p, val in zip(good, fib, hv):
            r = float(np.linalg.norm(p))
            if r < min_norm:
                continue
            di = int(np.argmax(directions @ (p / r)))
            if directions[di] @ (p / r) < 0.999999:
                continue
            out[bi][di].append(RayCrossing(radius=r, value=float(val),
                                           param=u))
    for bi in range(len(out)):
        for di in range(len(out[bi])):
            out[bi][di].sort(key=lambda c: c.radius)
    return out


def _ray_crossings_cloud(E: ParametricEmbedding, h: ScalarField,
                         base_points: np.ndarray, directions: np.ndarray,
                         radii: np.ndarray, collar_width: float,
                         min_norm: float) -> list:
    """Collar crossings from a point-cloud distance for 2-d fibers.

    Rays that dip inside the collar of L contribute a crossing at the radius
    of closest approach (parabolic refinement of the discrete minimum).
    """
    S = E.structure
    params = parameter_grid(E.source, 96).reshape(-1, E.source.dim)
    cloud = E.points(params)
    tree = cKDTree(S.total.embed(cloud))
    out = [[[] for _ in range(directions.shape[0])]
           for _ in range(base_points.shape[0])]
    R = radii.shape[0]
    for bi, q in enumerate(base_points):
        for di, v in enumerate(directions):
            nodes = np.concatenate(
                [np.repeat(q[None, :], R, axis=0), radii[:, None] * v[None, :]],
                axis=1)
            d, _ = tree.query(S.total.embed(nodes))
            jmins = [j for j in range(1, R - 1)
                     if d[j] <= d[j - 1] and d[j] <= d[j + 1]
                     and d[j] <= collar_width]
            for j in jmins:
                denom = d[j - 1] - 2 * d[j] + d[j + 1]
                off = 0.0 if abs(denom) < 1e-300 else \
                    0.5 * (d[j - 1] - d[j + 1]) / denom
                off = float(np.clip(off, -1.0, 1.0))
                lr = np.log(radii)
                r_star = float(np.exp(lr[j] + off * (lr[min(j + 1, R - 1)]
                                                     - lr[j])))
                if r_star < min_norm:
                    continue
                val = float(h.value(np.concatenate([q, r_star * v])))
                out[bi][di].append(RayCrossing(radius=r_star, value=val))
    return out


def radial_log_interpolation(inner: InnerPatch, crossings: list,
                             base_points: np.ndarray, directions: np.ndarray,
                             radii: np.ndarray, h: ScalarField,
                             collar_factor: float = 1.12,
                             inner_radius: float | None = None,
                             slope_guard: float = 1e-9) -> tuple:
    """Assemble the full radial field: patch below, exact h on collars,
    log-linear in between, constant above the last crossing.

    Per ray, the slope between consecutive crossing values is exactly the
    chord mean-value ratio; a slope reaching 1 names the ray and rejects,
    mirroring the chord classification.  Returns ``(field, ray_report)``
    where the report lists the segment radii (l', l) used per ray.
    """
    B, D, R = base_points.shape[0], directions.shape[0], radii.shape[0]
    l_prime = inner_radius if inner_radius is not None else radii[0] * 4.0
    values = inner.values(base_points, directions, radii)
    ln_r = np.log(radii)
    ray_report = []
    S = inner.structure
    i_lp = min(int(np.searchsorted(radii, l_prime)), R - 1)
    for bi in range(B):
        for di in range(D):
            v = values[bi, di].copy()
            v[i_lp + 1:] = v[i_lp]  # the patch only extends to l'
            cs = [c for c in crossings[bi][di]
                  if c.radius > l_prime * collar_factor]
            if not cs:
                values[bi, di] = v
                ray_report.append({"base_index": bi, "direction_index": di,
                                   "segments": []})
                continue
            # chord anchors (crossing radius, h there) drive the rejection:
            # their slope is exactly the chord mean-value ratio; the fill
            # itself runs between collar edges, exact h on the collars
            chord_anchor = (l_prime, float(v[i_lp]))
            fill_anchor = chord_anchor
            segs = []
            for c in cs:
                lo, hi = c.radius / collar_factor, c.radius * collar_factor
                slope = ray_log_slope(chord_anchor[1], chord_anchor[0],
                                      c.value, c.radius)
                if slope >= 1.0 - slope_guard:
                    raise ObstructionError(
                        "ray rejected: radial log-slope reached 1 "
                        "(an obstructed chord pair)",
                        base_index=bi, direction_index=di,
                        slope=float(slope),
                        inner_radius=float(chord_anchor[0]),
                        outer_radius=float(c.radius))
                segs.append({"l_prime": float(chord_anchor[0]),
                             "l": float(c.radius), "slope": float(slope)})
                prev_r, prev_v = fill_anchor
                mask_between = (radii > prev_r) & (radii < lo)
                if mask_between.any() and lo > prev_r:
                    w = ((ln_r[mask_between] - np.log(prev_r))
                         / (np.log(lo) - np.log(prev_r)))
                    v_lo = float(h.value(np.concatenate(
                        [base_points[bi], lo * directions[di]])))
                    v[mask_between] = np.exp(
                        (1 - w) * np.log(prev_v) + w * np.log(v_lo))
                mask_collar = (radii >= lo) & (radii <= hi)
                if mask_collar.any():
                    nodes = np.concatenate(
                        [np.repeat(base_points[bi][None, :],
                                   mask_collar.sum(), axis=0),
                         radii[mask_collar, None] * directions[di][None, :]],
                        axis=1)
                    v[mask_collar] = h.value(nodes)
                v_hi = float(h.value(np.concatenate(
                    [base_points[bi], hi * directions[di]])))
                chord_anchor = (c.radius, c.value)
                fill_anchor = (hi, v_hi)
            # constant continuation above the last collar
            last_r, last_v = fill_anchor
            v[radii > last_r] = last_v
            values[bi, di] = v
            ray_report.append({"base_index": bi, "direction_index": di,
                               "segments": segs})
    field = RadialField(base_points, directions, radii, values)
    field.check_positive()
    return field, ray_report


# ------------------------------------------------------------- mollification

def _bump_kernel(half_width: int) -> np.ndarray:
    x = np.linspace(-1.0, 1.0, 2 * half_width + 1)
    k = np.clip(1.0 - x * x, 0.0, None) ** 3
    return k / k.sum()


def mollify(F: RadialField, kernel_cells: int = 3,
            base_shape: tuple | None = None) -> RadialField:
    """Convolve with a compactly supported positive bump, unit mass on the
    grid; smooths seams at grid scale.

    Convolution along the log-radius axis averages values with positive
    weights, so the radial log-slope of the output is a convex combination of
    nearby input slopes (the slope hull can only shrink); base axes convolve
    periodically.
    """
    if kernel_cells < 2:
        raise PreconditionError("kernel radius must be at least 2 grid cells",
                                kernel_cells=kernel_cells)
    k = _bump_kernel(kernel_cells)
    vals = F.values.copy()
    # radius axis: replicate edges (field is constant near both ends)
    pad = kernel_cells
    padded = np.concatenate([np.repeat(vals[..., :1], pad, axis=-1), vals,
                             np.repeat(vals[..., -1:], pad, axis=-1)], axis=-1)
    out = np.zeros_like(vals)
    for i, w in enumerate(k):
        out += w * padded[..., i:i + vals.shape[-1]]
    vals = out

    def periodic(a, axis):
        rolled = np.zeros_like(a)
        for i, w in enumerate(k):
            rolled += w * np.roll(a, i - kernel_cells, axis=axis)
        return rolled

    # base axes: periodic convolution (single-chart tori)
    if base_shape:
        shaped = vals.reshape(tuple(base_shape) + vals.shape[1:])
        for ax in range(len(base_shape)):
            shaped = periodic(shaped, ax)
        vals = shaped.reshape(vals.shape)
    # direction axis: periodic for 2-d fibers (many directions)
    if F.directions.shape[0] > 8:
        vals = periodic(vals, 1)
    out_field = RadialField(F.base_points, F.directions, F.radii, vals)
    out_field.check_positive()
    return out_field


# ------------------------------------------------------------ outer flatten

def outer_flatten(F: RadialField, r_inner: float, r_outer: float,
                  margin: float = 0.0) -> RadialField:
    """Taper log-linearly to 1 between two radii; exactly 1 beyond.

    Admissibility per ray: |ln F(r_inner)| / ln(r_outer / r_inner) must stay
    below 1 - margin; rejection reports the minimal admissible outer radius.
    """
    radii = F.radii
    if r_outer <= r_inner:
        raise PreconditionError("need r_outer > r_inner")
    i_in = int(np.searchsorted(radii, r_inner))
    i_in = min(i_in, radii.shape[0] - 1)
    anchor = F.values[..., i_in]
    worst = float(np.abs(np.log(anchor)).max())
    denom = np.log(r_outer / radii[i_in])
    if worst / denom >= 1.0 - margin:
        minimal = float(radii[i_in] * np.exp(worst / max(1.0 - margin, 1e-12)))
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
    worst_node: tuple
    outer_shell_is_one: bool
    collar_match_sup: float | None

    def as_dict(self) -> dict:
        return {"max_slope": self.max_slope, "passed": bool(self.passed),
                "outer_shell_is_one": bool(self.outer_shell_is_one),
                "collar_match_sup": self.collar_match_sup}


def verify_radial_bound(F: RadialField, h: ScalarField | None = None,
                        collar_nodes: np.ndarray | None = None,
                        collar_tol: float = 1e-6) -> RadialBoundReport:
    """Max centered log-difference along the radius axis (the sampled radial
    logarithmic derivative); pass iff below 1.  Also checks the outer shell
    is exactly 1 and, given collar nodes, agreement with h there."""
    slopes = F.log_slopes()
    idx = np.unravel_index(int(np.argmax(slopes)), slopes.shape)
    max_slope = float(slopes[idx])
    outer_one = bool(np.all(F.values[..., -1] == 1.0))
    collar_sup = None
    if h is not None and collar_nodes is not None and collar_nodes.size:
        mask = collar_nodes.astype(bool)
        nodes = F.node_points()[mask]
        hv = h.value(nodes)
        collar_sup = float(np.abs(F.values[mask] - hv).max())
    passed = max_slope < 1.0 and outer_one and (
        collar_sup is None or collar_sup <= collar_tol)
    return RadialBoundReport(max_slope=max_slope, passed=passed,
                             worst_node=(int(idx[0]), int(idx[1]),
                                         int(idx[2]) + 1),
                             outer_shell_is_one=outer_one,
                             collar_match_sup=collar_sup)


# ----------------------------------------------------------- squeeze profile

@dataclass
class SqueezeProfile:
    """Radial squeeze: identity inside, bump-blended seam, then a log profile
    compressing [r0, r] into [r0, r0 + epsilon]."""

    r0: float
    r: float
    epsilon: float
    a: float = 1.0

    def __post_init__(self):
        if not (0 < self.r0 < self.r):
            raise PreconditionError("need 0 < r0 < r")
        bound = (self.r - self.r0) / self.r
        if not np.log1p(self.epsilon / self.r0) < bound:
            raise PreconditionError(
                "inadmissible epsilon: need ln(1 + eps/r0) < (r - r0)/r",
                lhs=float(np.log1p(self.epsilon / self.r0)), rhs=float(bound))
        u = np.linspace(0.0, 1.0, 4001)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            integrand = np.where(
                (u > 0) & (u < 1),
                np.exp(-self.a / np.maximum(u, 1e-300)
                       + self.a / np.minimum(u - 1.0, -1e-300)), 0.0)
        cumulative = np.concatenate(
            [[0.0], np.cumsum((integrand[1:] + integrand[:-1]) * 0.5
                              * (u[1] - u[0]))])
        self._b = 1.0 / cumulative[-1]
        # Hermite data: exact analytic derivative at the nodes keeps the
        # interpolated primitive consistent with ``bump_derivative``
        from scipy.interpolate import CubicHermiteSpline
        self._H_spline = CubicHermiteSpline(
            u, cumulative * self._b, integrand * self._b)

    def bump(self, u) -> np.ndarray:
        return self._H_spline(np.clip(u, 0.0, 1.0))

    def bump_derivative(self, u) -> np.ndarray:
        u = np.asarray(u, float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(
                (u > 0) & (u < 1),
                self._b * np.exp(-self.a / np.maximum(u, 1e-300)
                                 + self.a / np.minimum(u - 1.0, -1e-300)),
                0.0)
        return out


def squeeze_profile(P: SqueezeProfile, t) -> tuple:
    """Profile value and derivative at radius t.

    Identity below r0 - eps; the bump-primitive blend carries the derivative
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
        H = P.bump(u)
        Hp = P.bump_derivative(u)
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


# --------------------------------------------------- near-Lagrangian collar

class CollarField(ScalarField):
    """First-order extension of the primitive off the Lagrangian.

    At the closest point i(u) of L, the ambient Euler field (0, p) splits
    into a tangent part X_H and a normal part X_V; the extension grows
    linearly in the normal offset with rate ``-df(X_H)/|X_V|`` along the unit
    normal X_V/|X_V|, which kills the radial logarithmic derivative on L.
    The rate degenerates gracefully at tangencies (X_V = 0 forces the
    coefficient df(X_H) -> 0 there for exact pairs); we clamp to 0 below a
    threshold.  Derivatives are finite differences (step 1e-5): the collar
    contract is a 1e-1 scale bound, far above the FD noise floor.
    """

    def __init__(self, E: ParametricEmbedding, f: ScalarField,
                 width: float = 0.2, tangency_tol: float = 1e-8):
        super().__init__(E.structure.total, fn=None, name="collar-extension")
        self.embedding = E
        self.f = f
        self.width = width
        self.tangency_tol = tangency_tol

    def _extend_one(self, x: np.ndarray) -> float:
        E = self.embedding
        S = E.structure
        total = S.total
        params, dists = closest_parameter(E, x)
        u = params[0]
        if dists[0] > self.width:
            raise DomainEvaluationError(
                "point outside the tubular collar", point=x)
        pt = E.points(u[None, :])[0]
        J = E.chart.jacobian(u[None, :])[0]          # (2n, k)
        Z = np.concatenate([np.zeros(S.n), pt[S.n:]])
        Q, _ = np.linalg.qr(J)
        XH = Q @ (Q.T @ Z)
        XV = Z - XH
        nv = float(np.linalg.norm(XV))
        fj = self.f.jet(u[None, :], order=1)
        fval = float(fj.f[0])
        if fval <= 0.0:
            raise PreconditionError(
                "primitive must be positive on L; translate_by_form first",
                value=fval)
        if nv <= self.tangency_tol * (1.0 + np.linalg.norm(Z)):
            rate = 0.0
            normal = np.zeros_like(Z)
        else:
            coeffs = np.linalg.lstsq(J, XH, rcond=None)[0]
            dfXH = float(fj.g[0] @ coeffs)
            rate = -dfXH / nv
            normal = XV / nv
        nu = total.difference(x, pt)
        return fval + rate * float(normal @ nu)

    def value(self, points) -> np.ndarray:
        coords = _coerce_coords(self.domain, points)
        squeeze = coords.ndim == 1
        coords2 = coords.reshape(-1, coords.shape[-1])
        out = np.array([self._extend_one(x) for x in coords2])
        return out[0] if squeeze else out.reshape(coords.shape[:-1])

    def jet(self, points, order: int = 2):
        from .jets import Jet2
        coords = _coerce_coords(self.domain, points)
        if order == 0:
            return Jet2(self.value(coords))
        if order == 1:
            return Jet2(*central_difference(self.value, coords, 1e-5))
        raise DomainEvaluationError(
            "collar field exposes value and first derivatives only")

    def radial_log_derivative_fd(self, points, step: float = 1e-4) -> np.ndarray:
        """d ln(field)(Z) by symmetric fiber scaling, for the collar check."""
        coords = np.atleast_2d(_coerce_coords(self.domain, points))
        n = self.embedding.n
        up, dn = coords.copy(), coords.copy()
        up[:, n:] *= (1.0 + step)
        dn[:, n:] *= (1.0 - step)
        return ((np.log(self.value(up)) - np.log(self.value(dn)))
                / (2.0 * step))


def near_lagrangian_extension(E: ParametricEmbedding,
                              f: ScalarField | None = None,
                              width: float = 0.2,
                              certificate: ExactnessCertificate | None = None) -> CollarField:
    """Collar extension of a positive primitive with vanishing radial
    log-derivative on L (reported sup stays small on thin collars)."""
    if f is None:
        f = E.declared_primitive
    if f is None:
        if certificate is None:
            certificate = solve_primitive(E)
        f = certificate.solved_primitive
    pts = parameter_grid(E.source, 48).reshape(-1, E.source.dim)
    fmin = float(f.value(pts).min())
    if fmin <= 0.0:
        raise PreconditionError(
            "primitive must be positive; translate_by_form by c*beta first",
            minimum=fmin)
    return CollarField(E, f, width=width)


# ------------------------------------------------------------- full pipeline

@dataclass
class ExtensionReport:
    stage_max_slopes: dict
    final: RadialBoundReport
    ray_segments: list = field(repr=False, default=None)
    collar_nodes: np.ndarray = field(repr=False, default=None)
    mvt: MvtReport = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {"stage_max_slopes": {k: float(v) for k, v in
                                     self.stage_max_slopes.items()},
                "final": self.final.as_dict(),
                "mvt": None if self.mvt is None else self.mvt.as_dict()}


def build_positive_extension(E: ParametricEmbedding, h: ScalarField,
                             base_grid: int = 64, shells: int = 128,
                             r_min: float = 1e-3, r_max: float = 16.0,
                             directions: int = 256,
                             collar_factor: float = 1.12,
                             kernel_cells: int = 3,
                             flatten_margin: float = 0.25,
                             certificate: ExactnessCertificate | None = None,
                             mvt: MvtReport | None = None) -> tuple:
    """Run the whole pipeline; refuse obstructed scenes citing the chord.

    Returns ``(RadialField, ExtensionReport)``; the report carries per-stage
    maxima of the radial log-slope, the per-ray interpolation segments, and
    the final bound verification (including exact-1 outer shell and collar
    agreement with h).
    """
    S = E.structure
    if mvt is None:
        mvt = mvt_obstruction_report(E, certificate=certificate)
    if mvt.obstructed:
        mvt.refuse("extension refused: the mean-value bound obstructs")

    patch = near_zero_extension(h, E, mvt=mvt)

    base_points = parameter_grid(S.base, base_grid).reshape(-1, S.n)
    dirs = fiber_directions(S.n, directions)
    radii = log_radii(r_min, r_max, shells)

    if S.n == 1:
        crossings = _ray_crossings_1d(E, h, base_points, dirs,
                                      min_norm=4 * r_min)
    else:
        crossings = _ray_crossings_cloud(E, h, base_points, dirs, radii,
                                         collar_width=0.3, min_norm=4 * r_min)

    interp, ray_report = radial_log_interpolation(
        patch, crossings, base_points, dirs, radii, h,
        collar_factor=collar_factor)
    stage = {"interpolation": float(interp.log_slopes().max())}

    smooth = mollify(interp, kernel_cells=kernel_cells,
                     base_shape=(base_grid,) * S.n)
    stage["mollified"] = float(smooth.log_slopes().max())

    # restore the exact values of h on the collars (and keep them for the
    # final agreement check)
    collar_nodes = np.zeros(smooth.values.shape, dtype=bool)
    half = np.sqrt(collar_factor)
    for rec in ray_report:
        bi, di = rec["base_index"], rec["direction_index"]
        for seg in rec["segments"]:
            r_c = seg["l"]
            lo, hi = r_c / half, r_c * half
            mask = (radii >= lo) & (radii <= hi)
            collar_nodes[bi, di, mask] = True
    if collar_nodes.any():
        exact = interp.values[collar_nodes]
        smooth.values[collar_nodes] = exact
    stage["collar_restored"] = float(smooth.log_slopes().max())

    # outer flatten beyond every crossing
    top = max((seg["l"] for rec in ray_report for seg in rec["segments"]),
              default=radii[0] * 8)
    r_inner = min(top * collar_factor * 2.0, radii[-3])
    flat = outer_flatten(smooth, r_inner=r_inner, r_outer=radii[-1],
                         margin=flatten_margin)
    stage["flattened"] = float(flat.log_slopes().max())

    final = verify_radial_bound(flat, h=h, collar_nodes=collar_nodes)
    report = ExtensionReport(stage_max_slopes=stage, final=final,
                             ray_segments=ray_report,
                             collar_nodes=collar_nodes, mvt=mvt)
    return flat, report
