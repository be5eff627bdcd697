"""Radius clustering against a greedy reference on well-separated clusters."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lcslab.manifolds import make_manifold
from lcslab.numerics import cluster_labels, dedup_points

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
