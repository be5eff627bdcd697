"""Radius clustering against a greedy reference on well-separated clusters,
and the central-difference oracle against exact jets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lcslab.expressions import compile_field
from lcslab.manifolds import make_manifold
from lcslab.numerics import central_difference, cluster_labels, dedup_points

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


# ------------------------------------------------------ central differences

R2 = make_manifold(0, 2)
COEFFS = st.floats(-1.5, 1.5).map(lambda c: round(c, 3))


@st.composite
def grammar_fields(draw):
    """A sum of terms ``c*fn(a*q1 + b*q2)`` from the scene grammar, with the
    bound ``sum |c| (|a|+|b|)^3 e^(|a|+|b|)`` on its third derivatives over
    the unit box (the factor e^(...) covers ``exp``)."""
    terms, bound = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        c, a, b = draw(COEFFS), draw(COEFFS), draw(COEFFS)
        fn = draw(st.sampled_from(["sin", "cos", "exp"]))
        terms.append(f"{c}*{fn}({a}*q1 + {b}*q2)")
        bound += abs(c) * (abs(a) + abs(b)) ** 3 * np.exp(abs(a) + abs(b))
    return compile_field(" + ".join(terms), R2), bound


@settings(max_examples=60, deadline=None)
@given(field_bound=grammar_fields(),
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
