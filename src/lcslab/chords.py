"""Detection and classification of Liouville chords.

A chord is a pair of points on one or two exact Lagrangians lying on the same
fiber ray: same base point, positively proportional nonzero covectors.  The
scanner seeds candidate pairs from parameter grids (bucketed by base point),
refines each seed by damped Gauss-Newton on the coincidence system, and
deduplicates; 1-parameter families are reported through representatives with
a family flag.  Classification computes the scale t, the length ln(t), the
essentialness defect ``f2(end) - t f1(start)`` and the mean-value ratio
``(ln f2(end) - ln f1(start)) / ln t``.

Scale-free proportionality cannot be tested near the zero section, so
covectors with norm below ``MIN_FIBER_NORM`` (1e-3) are excluded and the
exclusion is recorded in every report.  Scans are deterministic: fixed
grids, stable ordering.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (DimensionError, DomainEvaluationError, ObstructionError,
                     PreconditionError)
from .forms import exterior_d, interior_product
from .lagrangians import ParametricEmbedding, \
    _canonical_contact_form, lift_legendrian, primitive_of
from .manifolds import (ModelManifold, ScalarField, SmoothMap,
                        make_manifold, parameter_grid, sample_points)
from .numerics import cluster_labels, dedup_points, gauss_newton

__all__ = [
    "LiouvilleChord", "ChordScanResult", "scan_chords", "classify_chord",
    "classify_chords", "mvt_obstruction_report", "MvtReport",
    "reeb_correspondence", "ReebReport", "chords_to_csv", "chords_to_json",
    "ray_log_slope",
]


@dataclass
class LiouvilleChord:
    """A fiber-ray coincidence with its classification data."""

    start_param: np.ndarray
    end_param: np.ndarray
    start_point: np.ndarray
    end_point: np.ndarray
    scale: float                  # fiber ratio t > 0
    length: float                 # ln t
    sign: str                     # "positive" (t > 1) or "negative" (t < 1)
    defect: float | None = None   # f2(end) - t f1(start)
    mvt_ratio: float | None = None
    ratio_defined: bool = False
    essential: bool | None = None
    family_id: int | None = None
    family: bool = False

    def as_dict(self) -> dict:
        return {
            "start_param": self.start_param.tolist(),
            "end_param": self.end_param.tolist(),
            "start_point": self.start_point.tolist(),
            "end_point": self.end_point.tolist(),
            "scale": self.scale, "length": self.length, "sign": self.sign,
            "defect": self.defect, "mvt_ratio": self.mvt_ratio,
            "ratio_defined": bool(self.ratio_defined),
            "essential": self.essential,
            "family_id": self.family_id, "family": bool(self.family),
        }


# Fixed scanner thresholds: the shortest scanned covector, the degenerate
# band |ln t|, the dedup radius, the angle of a chord's rays (refined) and
# of a seed pair, and the slack of the essentialness sign.
MIN_FIBER_NORM = 1e-3
EXCLUSION_BAND = 1e-3
DEDUP_RADIUS = 1e-4
ANGLE_TOL = 1e-6
SEED_ANGLE = 0.35
DEFECT_TOL = 1e-9
# a mean-value ratio or ray slope this large obstructs (1, within 1e-9)
OBSTRUCTED_RATIO = 1.0 - 1e-9


def ray_log_slope(v0: float, r0: float, v1: float, r1: float) -> float:
    """Log-linear slope between two positive values at two radii: a chord
    of scale t has mean-value ratio ``ray_log_slope(f1, 1, f2, t)``."""
    if v0 <= 0 or v1 <= 0:
        raise DomainEvaluationError("ray endpoint values must be positive")
    return float(np.log(v1 / v0) / np.log(r1 / r0))


@dataclass
class ChordScanResult:
    chords: list
    unresolved_seeds: list
    seed_count: int
    grid: int

    def as_dict(self) -> dict:
        return {
            "chords": [c.as_dict() for c in self.chords],
            "unresolved_seed_count": len(self.unresolved_seeds),
            "seed_count": self.seed_count,
            "min_fiber_norm": MIN_FIBER_NORM,
            "exclusion_band": EXCLUSION_BAND,
            "grid": self.grid,
            "family_count": len({c.family_id for c in self.chords}),
        }


def _ray_coincidence_scan(map1: SmoothMap, map2: SmoothMap,
                          base_idx: Sequence[int], ray_idx: Sequence[int],
                          grid: int, same: bool, min_ray_norm: float):
    """Shared scanner: same selected base coordinates, positively
    proportional ray blocks.  Returns the unclassified deduplicated chords,
    the unresolved seeds and the seed count."""
    from scipy.spatial import cKDTree
    target = map1.target
    src1, src2 = map1.source, map2.source
    g1 = parameter_grid(src1, grid).reshape(-1, src1.dim)
    g2 = g1 if same else parameter_grid(src2, grid).reshape(-1, src2.dim)
    x1 = map1(g1)
    x2 = x1 if same else map2(g2)
    p1 = x1[:, ray_idx]
    p2 = x2[:, ray_idx]
    n1 = np.linalg.norm(p1, axis=-1)
    n2 = np.linalg.norm(p2, axis=-1)

    emb1 = target.embed(x1, base_idx)
    emb2 = emb1 if same else target.embed(x2, base_idx)
    # bucket radius: a bit over the worst base grid spacing
    spacing = 2.0 * np.pi / grid
    tree = cKDTree(emb2)
    pairs = tree.query_ball_point(emb1, r=1.8 * spacing)

    # every (i1, i2) pair in query order, then the ray-norm and angle filters
    counts = np.fromiter(map(len, pairs), dtype=np.intp, count=len(pairs))
    i1 = np.repeat(np.arange(len(pairs)), counts)
    i2 = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.intp,
                     count=int(counts.sum()))
    strong = (n1[i1] >= min_ray_norm) & (n2[i2] >= min_ray_norm)
    i1, i2 = i1[strong], i2[strong]
    dot = (p1[i1] * p2[i2]).sum(axis=-1)
    aligned = (dot > 0.0) & (dot / (n1[i1] * n2[i2]) >= np.cos(SEED_ANGLE))
    seeds = np.concatenate([g1[i1[aligned]], g2[i2[aligned]]], axis=1)
    unresolved = []
    if not seeds.shape[0]:
        return [], unresolved, 0

    d1, d2 = src1.dim, src2.dim
    nb = len(base_idx)
    nr = len(ray_idx)
    cross_pairs = [(i, j) for i in range(nr) for j in range(i + 1, nr)]
    base_circle = np.asarray([target.is_circle[i] for i in base_idx])

    def residual(w, _rows):
        u, v = w[:, :d1], w[:, d1:]
        j1 = map1.jet(u, order=1)
        j2 = map2.jet(v, order=1)
        y1 = np.stack([c.f for c in j1], axis=-1)
        y2 = np.stack([c.f for c in j2], axis=-1)
        J1 = np.stack([c.g for c in j1], axis=-2)
        J2 = np.stack([c.g for c in j2], axis=-2)
        B = w.shape[0]
        m = nb + len(cross_pairs)
        r = np.zeros((B, m))
        J = np.zeros((B, m, d1 + d2))
        db = y1[:, base_idx] - y2[:, base_idx]
        db[:, base_circle] = np.mod(db[:, base_circle] + np.pi,
                                    2 * np.pi) - np.pi
        r[:, :nb] = db
        J[:, :nb, :d1] = J1[:, base_idx, :]
        J[:, :nb, d1:] = -J2[:, base_idx, :]
        q1 = y1[:, ray_idx]
        q2 = y2[:, ray_idx]
        N1 = np.linalg.norm(q1, axis=-1)
        N2 = np.linalg.norm(q2, axis=-1)
        N1 = np.maximum(N1, 1e-300)
        N2 = np.maximum(N2, 1e-300)
        G1 = J1[:, ray_idx, :]
        G2 = J2[:, ray_idx, :]
        for row, (i, j) in enumerate(cross_pairs):
            c = (q1[:, i] * q2[:, j] - q1[:, j] * q2[:, i]) / (N1 * N2)
            r[:, nb + row] = c
            du = (G1[:, i, :] * q2[:, j, None] - G1[:, j, :] * q2[:, i, None])
            du = du / (N1 * N2)[:, None]
            du -= c[:, None] * np.einsum("bk,bki->bi", q1, G1) / (N1 ** 2)[:, None]
            dv = (q1[:, i, None] * G2[:, j, :] - q1[:, j, None] * G2[:, i, :])
            dv = dv / (N1 * N2)[:, None]
            dv -= c[:, None] * np.einsum("bk,bki->bi", q2, G2) / (N2 ** 2)[:, None]
            J[:, nb + row, :d1] = du
            J[:, nb + row, d1:] = dv
        return r, J

    sol, norms, ok = gauss_newton(residual, seeds, max_iter=60, tol=1e-12,
                                  step_cap=0.5)
    for s, nrm, good in zip(seeds, norms, ok):
        if not good:
            unresolved.append({"seed": s.tolist(), "residual": float(nrm)})

    sol = sol[ok]
    if sol.shape[0] == 0:
        return [], unresolved, seeds.shape[0]

    # normalize and filter
    u = src1.normalize(sol[:, :d1])
    v = src2.normalize(sol[:, d1:])
    y1 = map1(u)
    y2 = map2(v)
    q1 = y1[:, ray_idx]
    q2 = y2[:, ray_idx]
    N1 = np.linalg.norm(q1, axis=-1)
    N2 = np.linalg.norm(q2, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosang = np.einsum("bi,bi->b", q1, q2) / np.maximum(N1 * N2, 1e-300)
    scale = N2 / np.maximum(N1, 1e-300)
    keep = ((N1 >= min_ray_norm) & (N2 >= min_ray_norm)
            & (cosang > 0) & (np.arccos(np.clip(cosang, -1, 1)) <= ANGLE_TOL)
            & (np.abs(np.log(np.maximum(scale, 1e-300))) >= EXCLUSION_BAND))
    u, v, scale = u[keep], v[keep], scale[keep]
    y1, y2 = y1[keep], y2[keep]

    # dedup in product parameter space (circle-aware, via the plane embedding
    # of circle coordinates: chord and arc distance agree at dedup scale)
    order = np.lexsort(tuple(np.concatenate([u, v], axis=1).T[::-1]))
    u, v, y1, y2 = u[order], v[order], y1[order], y2[order]
    scale = scale[order]
    emb = np.concatenate([src1.embed(u), src2.embed(v)], axis=1)
    reps = dedup_points(emb, DEDUP_RADIUS)

    # family grouping: representatives adjacent at seed-grid scale with
    # matching scale belong to one chord family
    group_radius = max(10 * DEDUP_RADIUS, 1.6 * spacing)
    assigned = cluster_labels(emb[reps], group_radius,
                              keys=np.log(scale[reps]), key_tol=1e-3)
    sizes = np.bincount(assigned)
    chords = []
    for i, g in zip(reps, assigned.tolist()):
        t = float(scale[i])
        chords.append(LiouvilleChord(
            start_param=u[i], end_param=v[i], start_point=y1[i],
            end_point=y2[i], scale=t, length=float(np.log(t)),
            sign="positive" if t > 1.0 else "negative",
            family_id=g, family=bool(sizes[g] > 1)))
    return chords, unresolved, seeds.shape[0]


def scan_chords(E1: ParametricEmbedding, E2: ParametricEmbedding | None = None,
                grid: int = 64) -> ChordScanResult:
    """All fiber-ray coincidences between E1 and E2 (or E1 with itself) up to
    grid resolution.

    Newton-stalled seeds are reported as unresolved diagnostics, never
    silently dropped.  Chords inside the degenerate band ``|ln t| <
    EXCLUSION_BAND`` are excluded, as are covectors below ``MIN_FIBER_NORM``.
    """
    same = E2 is None or E2 is E1
    E2 = E1 if same else E2
    if E1.structure.total.labels != E2.structure.total.labels:
        raise DimensionError("embeddings live in different bundles")
    n = E1.n
    chords, unresolved, seed_count = _ray_coincidence_scan(
        E1.chart, E2.chart, base_idx=list(range(n)),
        ray_idx=list(range(n, 2 * n)), grid=grid, same=same,
        min_ray_norm=MIN_FIBER_NORM)
    return ChordScanResult(chords=chords, unresolved_seeds=unresolved,
                           seed_count=seed_count, grid=grid)


def classify_chord(c: LiouvilleChord, f1: ScalarField,
                   f2: ScalarField) -> LiouvilleChord:
    """Fill defect, essentialness and the mean-value ratio of one chord."""
    classify_chords([c], f1, f2)
    return c


def classify_chords(chords: Sequence[LiouvilleChord], f1: ScalarField,
                    f2: ScalarField) -> tuple:
    """Fill defect, essentialness and the mean-value ratio of every chord
    from one evaluation of ``f1`` at all starts and one of ``f2`` at all ends.

    Positive chords are essential when the defect is >= 0, negative chords
    when it is <= 0, both within ``DEFECT_TOL``; the ratio is defined only
    when both primitive values are positive.  Returns the defined ratios and
    whether one reaches ``OBSTRUCTED_RATIO``.
    """
    if not chords:
        return [], False
    v1s = f1.value(np.stack([c.start_param for c in chords]))
    v2s = f2.value(np.stack([c.end_param for c in chords]))
    for c, v1, v2 in zip(chords, v1s.tolist(), v2s.tolist()):
        c.defect = v2 - c.scale * v1
        c.essential = bool(c.defect >= -DEFECT_TOL if c.sign == "positive"
                           else c.defect <= DEFECT_TOL)
        c.ratio_defined = v1 > 0.0 and v2 > 0.0
        c.mvt_ratio = (ray_log_slope(v1, 1.0, v2, c.scale)
                       if c.ratio_defined else None)
    ratios = [c.mvt_ratio for c in chords if c.ratio_defined]
    return ratios, any(r >= OBSTRUCTED_RATIO for r in ratios)


@dataclass
class MvtReport:
    obstructed: bool
    extremal_ratio: float | None
    ratios: list
    chord_count: int
    scan: ChordScanResult = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {"obstructed": bool(self.obstructed),
                "extremal_ratio": self.extremal_ratio,
                "ratios": list(self.ratios),
                "chord_count": self.chord_count,
                "margin": 0.0}

    def refuse(self, message: str):
        """Raise ObstructionError citing the chord of the largest ratio."""
        worst = max((c for c in self.scan.chords if c.ratio_defined),
                    key=lambda c: c.mvt_ratio)
        raise ObstructionError(message, ratio=worst.mvt_ratio,
                               chord=worst.as_dict())


def mvt_obstruction_report(E: ParametricEmbedding,
                           grid: int = 64) -> MvtReport:
    """Scan self-chords and decide whether the mean-value bound obstructs
    extending the primitive radially.

    A chord with ratio >= ``OBSTRUCTED_RATIO`` obstructs: the boundary case
    ratio = 1 is classified as obstructed, since the extension and
    straightening pipelines need the strict inequality.  Requires a positive
    primitive (``primitive_of``); a nonpositive one raises with the minimum
    value and the suggestion to translate the embedding by a multiple of the
    Lee form first.
    """
    scan = scan_chords(E, grid=grid)
    if not scan.chords:
        # single sheet per fiber ray: vacuously unobstructed for any f
        return MvtReport(obstructed=False, extremal_ratio=None, ratios=[],
                         chord_count=0, scan=scan)
    f = primitive_of(E, min(grid, 64))
    params = sample_points(E.source, 512)
    fmin = float(f.value(params).min())
    if fmin <= 0.0:
        raise PreconditionError(
            "primitive is not positive; translate_by_form by c*beta with "
            "c <= -min before scanning", minimum=fmin)
    ratios, obstructed = classify_chords(scan.chords, f, f)
    return MvtReport(obstructed=obstructed,
                     extremal_ratio=max(ratios) if ratios else None,
                     ratios=sorted(ratios), chord_count=len(scan.chords),
                     scan=scan)


# --------------------------------------------------------------------- Reeb

@dataclass
class ReebReport:
    reeb_identity_sup: float
    contraction_sup: float
    reeb_chords: list
    lift_chords: list
    matched: list
    all_matched: bool
    all_essential: bool
    max_defect: float | None


def reeb_correspondence(legendrians: Sequence[SmoothMap], M: ModelManifold,
                        eps: float = 0.25, grid: int = 32,
                        samples: int = 100) -> ReebReport:
    """Check the Reeb field identities for ``alpha/s`` on J1(M) and match the
    Reeb chords of Legendrians in ``{s >= eps}`` with the Liouville chords of
    their circle lifts.

    ``R = p d/dp + s d/ds`` flows by ``(q, e^t p, e^t s)``, so Reeb chords are
    exactly ray coincidences in the (p, s) block.  Each matched chord must be
    essential with zero defect: the lift's primitive is the s-coordinate, and
    endpoints on the same ray scale both the covector and s by the same t.
    """
    j1 = M.jet1()
    n = M.dim
    sidx = 2 * n

    # s bounded below on the Legendrians
    for L in legendrians:
        pts = sample_points(L.source, 128)
        sval = L(pts)[:, sidx]
        if sval.min() < eps:
            raise PreconditionError("Legendrian leaves the region s >= eps",
                                    min_s=float(sval.min()), eps=eps)

    # identities at low-discrepancy points with s in [0.5, 4]
    alpha = _canonical_contact_form(M)
    sinv = ScalarField(j1, lambda jets: jets[sidx].reciprocal(), name="1/s")
    alpha_s = alpha * sinv

    def R_fn(jets):
        zero = jets[0] * 0.0
        return [zero] * n + list(jets[n:sidx]) + [jets[sidx]]

    from .manifolds import VectorField
    R = VectorField(j1, R_fn, name="R")
    pts = sample_points(j1, samples, ranges={sidx: (0.5, 4.0)})
    pairing = interior_product(R, alpha_s).coefficients(pts)
    id_sup = float(np.abs(pairing - 1.0).max())
    contraction = interior_product(R, exterior_d(alpha_s)).coefficients(pts)
    con_sup = float(np.abs(contraction).max())

    # per ordered Legendrian pair: its Reeb chords (ray coincidences in the
    # (p, s) block) and the Liouville chords of the circle lifts; a Reeb
    # chord matches the first lift chord of the same scale whose M-part of
    # the start parameter lies near the Reeb start parameter
    Q = make_manifold(1, 0, labels=("theta",))
    lifts = [lift_legendrian(L, Q, [1.0]) for L in legendrians]
    pairs = [(a, b) for a in range(len(legendrians))
             for b in range(len(legendrians))
             if a != b or len(legendrians) == 1]
    reeb, lift_chords, matched = [], [], []
    reeb_keys, matched_keys = set(), set()
    for a, b in pairs:
        found, _, _ = _ray_coincidence_scan(
            legendrians[a], legendrians[b], base_idx=list(range(n)),
            ray_idx=list(range(n, 2 * n + 1)), grid=grid, same=(a == b),
            min_ray_norm=eps / 2)
        scan = scan_chords(lifts[a], None if a == b else lifts[b], grid=grid)
        classify_chords(scan.chords, lifts[a].declared_primitive,
                        lifts[b].declared_primitive)
        src = legendrians[a].source
        for r in found:
            key = (a, b, round(r.length, 5))
            reeb_keys.add(key)
            c = next((c for c in scan.chords
                      if abs(c.length - r.length) <= 1e-6
                      and np.linalg.norm(src.difference(
                          c.start_param[:src.dim], r.start_param))
                      <= 2.5 * (2 * np.pi / grid)), None)
            if c is not None:
                matched.append((r, c))
                matched_keys.add(key)
        reeb.extend(found)
        lift_chords.extend(scan.chords)
    return ReebReport(
        reeb_identity_sup=id_sup, contraction_sup=con_sup,
        reeb_chords=reeb, lift_chords=lift_chords, matched=matched,
        all_matched=reeb_keys == matched_keys,
        all_essential=all(c.essential for c in lift_chords),
        max_defect=max((abs(c.defect) for c in lift_chords), default=None))


# ------------------------------------------------------------------- export

CSV_COLUMNS = ["base", "start_fiber", "t", "length", "ratio", "defect",
               "essential", "family_id"]


def chords_to_csv(chords: Sequence[LiouvilleChord], path: str,
                  n_base: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for c in chords:
            w.writerow([
                " ".join(f"{x:.12g}" for x in c.start_point[:n_base]),
                " ".join(f"{x:.12g}" for x in c.start_point[n_base:]),
                f"{c.scale:.12g}", f"{c.length:.12g}",
                "" if c.mvt_ratio is None else f"{c.mvt_ratio:.12g}",
                "" if c.defect is None else f"{c.defect:.12g}",
                "" if c.essential is None else str(bool(c.essential)).lower(),
                "" if c.family_id is None else c.family_id,
            ])


def chords_to_json(chords: Sequence[LiouvilleChord], path: str) -> None:
    with open(path, "w") as fh:
        json.dump([c.as_dict() for c in chords], fh, indent=2, sort_keys=True)
