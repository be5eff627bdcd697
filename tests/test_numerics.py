"""Radius clustering against a greedy reference on well-separated clusters,
the numpy neighbour scan against the cKDTree path, and the central-difference
oracle against exact jets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from field_strategies import grammar_fields

from lcslab import numerics
from lcslab.errors import DomainEvaluationError
from lcslab.manifolds import make_manifold
from lcslab.numerics import (central_difference, cluster_labels, dedup_points,
                             gauss_newton, neighbour_pairs)

CELLS = 6                      # cluster centers sit on a 6^k grid of cells
CELL = 2.0 * np.pi / CELLS


def greedy_reference(points, radius, difference, keys=None, key_tol=0.0):
    """Labels and representatives by the greedy first-fit rule: a point joins
    the first earlier representative within ``radius`` (and ``key_tol``)."""
    reps, labels = [], []
    for i, x in enumerate(points):
        for label, j in enumerate(reps):
            if (np.linalg.norm(difference(x, points[j])) <= radius
                    and (keys is None or abs(keys[i] - keys[j]) <= key_tol)):
                labels.append(label)
                break
        else:
            labels.append(len(reps))
            reps.append(i)
    return np.array(labels, dtype=int), reps


@st.composite
def clustered(draw, circles: bool, key_groups: int = 1):
    """Points of well-separated clusters, interleaved, plus per-point keys.

    Centers are distinct grid cells with offsets below a fifth of a cell;
    cell 0 of a circle axis straddles the 0/2*pi seam.  Spreads stay below
    radius / 4 per axis, so each cluster is a clique at ``radius`` and
    clusters are more than ``radius`` apart in arc and in plane distance.
    """
    k = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([1e-6, 1e-4, 1e-2, 0.2]))
    count = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(*[st.integers(0, CELLS - 1)] * k),
                          min_size=count, max_size=count, unique=True))
    # offset 0 puts a cell-0 cluster right on the seam
    offsets = st.one_of(st.just(0.0), st.floats(-0.2 * CELL, 0.2 * CELL))
    jitter = st.floats(-radius / 4, radius / 4)
    points, keys = [], []
    for cell in cells:
        center = np.array(cell) * CELL + np.array(
            draw(st.lists(offsets, min_size=k, max_size=k)))
        for _ in range(draw(st.integers(1, 5))):
            g = draw(st.integers(0, key_groups - 1))
            points.append(center + np.array(
                draw(st.lists(jitter, min_size=k, max_size=k))))
            keys.append(g + draw(st.floats(0.0, 4e-4)))
    order = draw(st.permutations(range(len(points))))
    points = np.array(points)[order]
    M = make_manifold(k, 0) if circles else make_manifold(0, k)
    points = M.normalize(points)
    return M, points, radius, np.array(keys)[order]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), circles=st.booleans())
def test_dedup_matches_greedy_reference(data, circles):
    M, points, radius, _ = data.draw(clustered(circles))
    labels, reps = greedy_reference(points, radius, M.difference)
    assert np.array_equal(cluster_labels(M.embed(points), radius), labels)
    assert dedup_points(M.embed(points), radius).tolist() == reps


@settings(max_examples=150, deadline=None)
@given(data=st.data(), circles=st.booleans())
def test_family_labels_with_key_filter_match_greedy_reference(data, circles):
    # the chord family use: spatial neighbors join only when their scales
    # (log t) agree, so one spatial cluster may split into several families
    M, points, radius, keys = data.draw(clustered(circles, key_groups=2))
    labels, _ = greedy_reference(points, radius, M.difference, keys, 1e-3)
    got = cluster_labels(M.embed(points), radius, keys=keys, key_tol=1e-3)
    assert np.array_equal(got, labels)


def test_plain_points_cluster_without_embedding():
    # fiber covectors are plain Euclidean coordinates; chains join
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.2, 0.0], [0.4, 0.0]])
    assert cluster_labels(pts, 0.25).tolist() == [0, 1, 0, 0]
    assert dedup_points(pts, 0.25).tolist() == [0, 1]
    assert dedup_points(np.zeros((0, 2)), 0.25).size == 0


# ------------------------------------------------ the two neighbour paths

def on_tree_path(query, *args, **kwargs):
    """``query`` with every neighbour query sent to the cKDTree path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BRUTE_FORCE_PAIRS", 0)
        return query(*args, **kwargs)


@st.composite
def point_sets(draw):
    """Two sets of up to 40 points in 1 to 8 coordinates and a radius:
    random floats, or dyadic lattice points, whose squared distances are
    exact, so that many pairs sit at exactly the radius."""
    d = draw(st.sampled_from([1, 2, 3, 4, 8]))
    n, m = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    if draw(st.booleans()):
        step = draw(st.sampled_from([0.25, 0.5, 1.0]))
        cells = st.integers(-3, 3)
        a = draw(hnp.arrays(np.int64, (n, d), elements=cells)) * step
        b = draw(hnp.arrays(np.int64, (m, d), elements=cells)) * step
        radius = step * draw(st.sampled_from([1.0, 2.0, 3.0]))
    else:
        coords = st.floats(-2.0, 2.0)
        a = draw(hnp.arrays(float, (n, d), elements=coords))
        b = draw(hnp.arrays(float, (m, d), elements=coords))
        radius = draw(st.floats(0.01, 1.5))
    return a, b, radius


@settings(max_examples=200, deadline=None)
@given(sets=point_sets())
def test_small_neighbour_queries_match_the_tree_path(sets):
    # pairs and their order (i ascending, then j): a mutant whose
    # numpy path lists each i's partners in reverse j order fails here
    a, b, radius = sets
    got = neighbour_pairs(a, b, radius)
    want = on_tree_path(neighbour_pairs, a, b, radius)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def csgraph_labels(points, radius, keys=None, key_tol=0.0):
    """The scipy reference: cKDTree pairs, csgraph components, labels
    ranked by first member."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree
    n = points.shape[0]
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    if keys is not None:
        pairs = pairs[np.abs(keys[pairs[:, 0]] - keys[pairs[:, 1]])
                      <= key_tol]
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


@settings(max_examples=200, deadline=None)
@given(sets=point_sets(), key_tol=st.sampled_from([None, 0.0, 0.3]))
def test_clusterings_on_both_paths_match_csgraph(sets, key_tol):
    # min-label propagation against scipy's connected components, on pairs
    # from the numpy scan and from the tree: a mutant that lowers only
    # the i end of each pair fails here
    a, _, radius = sets
    keys = None if key_tol is None else np.round(a.sum(axis=-1) * 0.1, 1)
    kwargs = {"keys": keys, "key_tol": key_tol or 0.0}
    want = csgraph_labels(a, radius, **kwargs)
    assert np.array_equal(cluster_labels(a, radius, **kwargs), want)
    assert np.array_equal(on_tree_path(cluster_labels, a, radius, **kwargs),
                          want)


def test_pairs_at_exactly_the_radius_join_on_both_paths():
    # a 5 x 5 lattice of step 0.25: each ordered pair of axis neighbours
    # sits at exactly the radius, 2 axes x 5 lines x 4 gaps x 2 orders
    grid = np.stack(np.meshgrid(*[0.25 * np.arange(5)] * 2, indexing="ij"),
                    axis=-1).reshape(-1, 2)
    i, j = neighbour_pairs(grid, grid, 0.25)
    assert np.count_nonzero(i != j) == 80
    tree = on_tree_path(neighbour_pairs, grid, grid, 0.25)
    assert np.array_equal(i, tree[0]) and np.array_equal(j, tree[1])
    labels = cluster_labels(grid, 0.25)
    assert labels.tolist() == [0] * 25
    assert np.array_equal(on_tree_path(cluster_labels, grid, 0.25), labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bound", [0, numerics.BRUTE_FORCE_PAIRS],
                         ids=["tree", "numpy"])
def test_both_neighbour_paths_refuse_a_non_finite_point(bad, bound,
                                                        monkeypatch):
    # cKDTree raised its own ValueError, and the numpy scan would drop a
    # NaN point without a word
    monkeypatch.setattr(numerics, "BRUTE_FORCE_PAIRS", bound)
    pts = np.arange(12.0).reshape(6, 2)
    pts[2, 1] = bad
    for query in (lambda: neighbour_pairs(pts[::-1], pts, 1.0),
                  lambda: neighbour_pairs(pts, pts[:1], 1.0),
                  lambda: cluster_labels(pts, 1.0)):
        with pytest.raises(DomainEvaluationError,
                           match=r"non-finite point in row [23]"):
            query()


# ------------------------------------------------------ central differences

R2 = make_manifold(0, 2)


@settings(max_examples=60, deadline=None)
@given(field_bound=grammar_fields(R2),
       x=hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(2)),
                    elements=st.floats(-1.0, 1.0)),
       h=st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_central_difference_matches_exact_jets(field_bound, x, h):
    field, bound = field_bound
    center, jac = central_difference(field.value, x, h)
    assert np.array_equal(center, field.value(x))
    exact = field.jet(x, order=1).g
    assert jac.shape == exact.shape
    # truncation h^2/6 f''' (the box grows by h), plus rounding of f over h
    tol = h * h / 6 * bound * np.exp(2 * h) + 1e-13 * (1 + bound) / h
    assert np.abs(jac - exact).max() <= tol


def test_central_difference_shapes_and_block_layout():
    calls = []

    def fn(pts):
        calls.append(pts.copy())
        return np.stack([pts[:, 0] * pts[:, 1], 3.0 * pts[:, 1]], axis=-1)

    x = np.arange(24, dtype=float).reshape(3, 4, 2) / 10
    center, jac = central_difference(fn, x, 0.5)
    assert len(calls) == 1 and calls[0].shape == (5 * 12, 2)
    blocks = calls[0].reshape(5, 3, 4, 2)
    assert np.array_equal(blocks[0], x)
    assert np.array_equal(blocks[1][..., 0], x[..., 0] + 0.5)
    assert np.array_equal(blocks[4][..., 1], x[..., 1] - 0.5)
    assert center.shape == (3, 4, 2) and jac.shape == (3, 4, 2, 2)
    assert np.allclose(jac[..., 0, 0], x[..., 1])
    assert np.allclose(jac[..., 0, 1], x[..., 0])
    assert np.allclose(jac[..., 1, :], [0.0, 3.0])
    # a single point keeps its own shape
    center, jac = central_difference(fn, x[0, 0], 0.5)
    assert center.shape == (2,) and jac.shape == (2, 2)


def test_central_difference_takes_a_circle_aware_difference():
    # the identity of the circle, wrapped: a shift across the seam jumps by
    # 2 pi unless the difference is circle-aware
    T1 = make_manifold(1, 0)
    x = np.array([[2 * np.pi - 1e-6], [1.0]])
    _, plain = central_difference(T1.normalize, x, 1e-5)
    _, wrapped = central_difference(T1.normalize, x, 1e-5,
                                    diff=T1.difference)
    assert abs(plain[0, 0, 0]) > 1e4
    assert np.allclose(wrapped[..., 0, 0], 1.0)


def test_gauss_newton_passes_the_seed_indices_of_its_rows():
    # u^2 = target per seed: seeds 0 and 3 start exact and leave at once,
    # seed 1 starts farther out than seed 2, so the active set shrinks twice
    targets = np.array([4.0, 9.0, 2.0, 16.0])
    seen = []

    def residual(u, rows):
        seen.append(rows.tolist())
        return u ** 2 - targets[rows, None], 2.0 * u[:, None, :]

    sol, _, ok = gauss_newton(residual, [[2.0], [30.0], [1.5], [4.0]])
    assert ok.all()
    assert np.allclose(sol[:, 0], np.sqrt(targets), rtol=0, atol=1e-12)
    assert seen[0] == [0, 1, 2, 3] and seen[1] == [1, 2]
    assert seen[-1] == [1]
    for before, after in zip(seen, seen[1:]):
        assert set(after) <= set(before)
