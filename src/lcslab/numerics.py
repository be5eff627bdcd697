"""Shared numerical kernels: linear path ODE steps, Simpson sums, damped
Gauss-Newton on periodic charts, radius neighbours and clustering of point
sets, the finiteness check, and the central-difference oracle."""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import DomainEvaluationError

__all__ = ["rk4_linear_path", "simpson_path", "gauss_newton",
           "cluster_labels", "dedup_points", "neighbour_pairs",
           "require_finite", "segment_nodes", "central_difference"]


def segment_nodes(n_steps: int) -> np.ndarray:
    """Endpoint and midpoint abscissae for ``n_steps`` RK4 steps on [0, 1]."""
    return np.linspace(0.0, 1.0, 2 * n_steps + 1)


def rk4_linear_path(a: np.ndarray, b: np.ndarray, f0, h: float) -> np.ndarray:
    """Integrate ``f' = b(s) + a(s) f`` along a path.

    ``a`` and ``b`` carry values at the ``2*n_steps + 1`` endpoint/midpoint
    nodes in their last axis; ``h`` is the step in the path parameter.
    Classical RK4; exactness of the linear structure keeps this order 4.
    """
    # nodes first: on one path each node is a numpy scalar (same IEEE ops)
    a = np.moveaxis(np.asarray(a, float), -1, 0)
    b = np.moveaxis(np.asarray(b, float), -1, 0)
    n_steps = (a.shape[0] - 1) // 2
    f = np.broadcast_to(np.asarray(f0, float), a.shape[1:]).astype(float).copy()
    for i in range(n_steps):
        a0, am, a1 = a[2 * i], a[2 * i + 1], a[2 * i + 2]
        b0, bm, b1 = b[2 * i], b[2 * i + 1], b[2 * i + 2]
        k1 = b0 + a0 * f
        k2 = bm + am * (f + 0.5 * h * k1)
        k3 = bm + am * (f + 0.5 * h * k2)
        k4 = b1 + a1 * (f + h * k3)
        f = f + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return f


def simpson_path(vals: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson over endpoint/midpoint node values (last axis)."""
    v0 = vals[..., 0:-1:2]
    vm = vals[..., 1::2]
    v1 = vals[..., 2::2]
    return (h / 6.0) * (v0 + 4.0 * vm + v1).sum(axis=-1)


def gauss_newton(residual: Callable[[np.ndarray, np.ndarray], tuple],
                 seeds: np.ndarray, max_iter: int = 40, tol: float = 1e-12,
                 step_cap: float = 1.0):
    """Damped Gauss-Newton for (possibly underdetermined) systems.

    ``residual(u, rows)`` returns ``(r, J)`` with r shape (B, m) and J shape
    (B, m, k); ``rows`` holds the seed indices of the B iterates ``u``, so a
    residual can give each seed its own target.  Runs the whole seed batch
    simultaneously; converged seeds leave the active set, so the cost is
    driven by the stragglers.  Returns the final iterates, residual norms,
    and a convergence mask.
    """
    u = np.array(seeds, dtype=float, copy=True)
    B = u.shape[0]
    final_norms = np.full(B, np.inf)
    active = np.arange(B)
    for _ in range(max_iter):
        if active.size == 0:
            break
        r, J = residual(u[active], active)
        norms = np.linalg.norm(r, axis=-1)
        final_norms[active] = norms
        done = norms <= tol
        if done.any():
            active = active[~done]
            r, J = r[~done], J[~done]
            if active.size == 0:
                break
        JT = np.swapaxes(J, -1, -2)
        H = JT @ J[...] + 1e-10 * np.eye(u.shape[-1])
        g = np.einsum("bij,bj->bi", JT, r)
        try:
            step = np.linalg.solve(H, g[..., None])[..., 0]
        except np.linalg.LinAlgError:  # pragma: no cover
            step = np.einsum("bij,bj->bi", np.linalg.pinv(H), g)
        lengths = np.linalg.norm(step, axis=-1, keepdims=True)
        scale = np.minimum(1.0, step_cap / np.maximum(lengths, 1e-300))
        u[active] = u[active] - step * scale
    if active.size:
        r, _ = residual(u[active], active)
        final_norms[active] = np.linalg.norm(r, axis=-1)
    return u, final_norms, final_norms <= max(tol, 1e-9)


# A neighbour query with at most this many candidate pairs scans them all in
# numpy (temporaries <= 1 MB), a larger one builds a cKDTree.  At 2**17 pairs
# in 2-8 coordinates the scan takes 1.7-4.7 ms against cKDTree's 0.5-1.1 ms,
# under 1% of the 0.35-0.43 s import of scipy.spatial it saves (2-CPU VM).
BRUTE_FORCE_PAIRS = 2 ** 17


def require_finite(values: np.ndarray, rows: np.ndarray, what: str) -> None:
    """Refuse ``values`` (N, ...) holding an inf or NaN, naming the first
    bad row and its entry of ``rows``."""
    bad = np.flatnonzero(~np.isfinite(values).all(
        axis=tuple(range(1, values.ndim))))
    if bad.size:
        raise DomainEvaluationError(f"non-finite {what} in row {bad[0]}",
                                    point=np.asarray(rows[bad[0]]).tolist())


def neighbour_pairs(a: np.ndarray, b: np.ndarray, radius: float) -> tuple:
    """Index arrays ``(i, j)`` of every pair with ``|a[i] - b[j]| <= radius``,
    i ascending, then j ascending.  Refuses a non-finite point."""
    for points in (a, b):
        require_finite(points, points, "point")
    if a.shape[0] * b.shape[0] <= BRUTE_FORCE_PAIRS:
        # squares summed one coordinate at a time, in cKDTree's order
        d2 = sum(np.subtract.outer(a[:, k], b[:, k]) ** 2
                 for k in range(a.shape[1]))
        return np.nonzero(d2 <= radius * radius)
    from scipy.spatial import cKDTree
    pairs = cKDTree(b).query_ball_point(a, r=radius)
    i = np.repeat(np.arange(len(pairs)), list(map(len, pairs)))
    j = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.intp,
                    count=i.size)
    return i, j


def cluster_labels(points: np.ndarray, radius: float, keys=None,
                   key_tol: float = 0.0) -> np.ndarray:
    """Connected components of the graph joining points within ``radius``.

    ``points`` are Euclidean coordinates (see ``ModelManifold.embed`` for
    circle coordinates).  Given ``keys``, a pair is joined only when its keys
    also differ by at most ``key_tol``.  Labels number the clusters in the
    order of their first member.  Refuses a non-finite point.
    """
    n = points.shape[0]
    if n * n <= BRUTE_FORCE_PAIRS:
        i, j = neighbour_pairs(points, points, radius)
        i, j = i[i < j], j[i < j]
    else:
        from scipy.spatial import cKDTree
        require_finite(points, points, "point")
        i, j = cKDTree(points).query_pairs(radius, output_type="ndarray").T
    if keys is not None:
        joined = np.abs(keys[i] - keys[j]) <= key_tol
        i, j = i[joined], j[joined]
    # min-label propagation with pointer jumping lowers each label to its
    # component's least index, which np.unique ranks by first member
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def dedup_points(points: np.ndarray, radius: float) -> np.ndarray:
    """Indices of cluster representatives (the first member of each
    ``cluster_labels`` cluster), in increasing order."""
    return np.unique(cluster_labels(points, radius), return_index=True)[1]


def central_difference(fn: Callable[[np.ndarray], np.ndarray], x, h: float,
                       diff=np.subtract) -> tuple:
    """Values and central-difference Jacobian of ``fn`` at the points ``x``.

    ``fn`` maps (N, m) points to (N, ...) values.  It is called once, on the
    points stacked with their 2m shifted copies: block 0 holds ``x``, blocks
    1 + 2i and 2 + 2i the shifts by +h and -h along coordinate i.  Returns
    ``(fn(x), J)`` with ``J[..., i] = diff(f(x + h e_i), f(x - h e_i)) / (2h)``
    (``diff`` may be circle-aware), shaped ``x.shape[:-1] + out + (m,)``.
    """
    x = np.asarray(x, float)
    m = x.shape[-1]
    stencil = np.repeat(x[None], 2 * m + 1, axis=0)
    for i in range(m):
        stencil[1 + 2 * i, ..., i] += h
        stencil[2 + 2 * i, ..., i] -= h
    vals = np.asarray(fn(stencil.reshape(-1, m)))
    vals = vals.reshape(stencil.shape[:-1] + vals.shape[1:])
    jac = diff(vals[1::2], vals[2::2]) / (2 * h)
    return vals[0], np.moveaxis(jac, 0, -1)
