"""Coordinate models of the manifolds in play.

Every manifold here is a product of circles and lines with one global chart;
circle coordinates live in ``[0, 2*pi)``.  Cotangent bundles and 1-jet spaces
are derived by appending fiber (line) coordinates, so T*M carries coordinates
``(q_1..q_n, p_1..p_n)`` and J1(M) carries ``(q, p, z)``.

Fields are thin wrappers around jet-evaluating callables: a scalar field maps
the coordinate jets of a batch of points to one :class:`~lcslab.jets.Jet2`,
which makes every derivative used downstream exact.

Public evaluation (``jet``, ``value``, ``__call__``, ``jacobian``) normalizes
its points once; internal evaluation (``_jet``) takes normalized coordinates
and does not wrap them again.  An ``fn`` must accept coordinates outside
``[0, 2*pi)``: composed maps hand it component jets unwrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, DomainEvaluationError
from .jets import Jet2, constant_jet, seed_jets

TWO_PI = 2.0 * np.pi

__all__ = [
    "ModelManifold", "Point", "ScalarField", "VectorField", "SmoothMap",
    "make_manifold", "sample_points", "parameter_grid",
]


@dataclass(frozen=True)
class ModelManifold:
    """Product of circles and lines, described coordinate by coordinate."""

    is_circle: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.is_circle) != len(self.labels):
            raise DimensionError("labels must match coordinate count")
        if len(self.is_circle) < 1:
            raise DimensionError("manifold must have dimension >= 1")

    @property
    def dim(self) -> int:
        return len(self.is_circle)

    @property
    def circle_count(self) -> int:
        return int(sum(self.is_circle))

    @property
    def line_count(self) -> int:
        return self.dim - self.circle_count

    def cotangent(self) -> "ModelManifold":
        """T*M: base coordinates followed by one line fiber coordinate each."""
        fiber_labels = tuple(f"p{i + 1}" for i in range(self.dim))
        return ModelManifold(self.is_circle + (False,) * self.dim,
                             self.labels + fiber_labels)

    def jet1(self) -> "ModelManifold":
        """J1(M) = T*M with one extra line coordinate z."""
        cot = self.cotangent()
        return ModelManifold(cot.is_circle + (False,), cot.labels + ("z",))

    def product(self, other: "ModelManifold") -> "ModelManifold":
        labels = self.labels + tuple(
            lb if lb not in self.labels else f"{lb}'" for lb in other.labels)
        return ModelManifold(self.is_circle + other.is_circle, labels)

    # ------------------------------------------------------------ coordinates

    def normalize(self, coords: np.ndarray) -> np.ndarray:
        """Wrap circle coordinates into [0, 2*pi); idempotent.

        Returns a new array; the input is left unmodified.  A column already
        in range skips ``np.mod`` with the same bits: ``+ 0.0`` turns -0.0
        into 0.0 as ``np.mod`` does.
        """
        coords = np.array(coords, dtype=float, copy=True)
        for i, circ in enumerate(self.is_circle):
            if circ:
                col = coords[..., i]
                if col.size and col.min() >= 0.0 and col.max() < TWO_PI:
                    col += 0.0
                else:
                    np.mod(col, TWO_PI, out=col)
                    # a tiny negative value rounds up to 2*pi itself
                    col[col == TWO_PI] = 0.0
        return coords

    def difference(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Shortest representative of ``a - b`` (circle-aware)."""
        d = np.subtract(a, b, dtype=float)
        for i, circ in enumerate(self.is_circle):
            if circ:
                col = d[..., i]
                col += np.pi
                np.mod(col, TWO_PI, out=col)
                col -= np.pi
        return d

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.difference(a, b), axis=-1)

    def embed(self, coords: np.ndarray, idx: Sequence[int] | None = None
              ) -> np.ndarray:
        """Euclidean coordinates of the columns ``idx`` (all by default) for
        KD-tree queries: circles via the plane (cos, sin), lines as-is.

        Plane and arc distances agree to second order at small scale.
        """
        cols = []
        for i in range(self.dim) if idx is None else idx:
            if self.is_circle[i]:
                cols.append(np.cos(coords[:, i]))
                cols.append(np.sin(coords[:, i]))
            else:
                cols.append(coords[:, i])
        return np.stack(cols, axis=-1)

    def coordinate_field(self, index: int) -> "ScalarField":
        if not 0 <= index < self.dim:
            raise DimensionError(f"coordinate index {index} out of range")
        return ScalarField(self, lambda jets, i=index: jets[i],
                           name=self.labels[index])

    def __repr__(self) -> str:  # pragma: no cover
        return f"ModelManifold({'x'.join('S1' if c else 'R' for c in self.is_circle)})"


def make_manifold(circle_count: int, line_count: int,
                  labels: Sequence[str] | None = None) -> ModelManifold:
    """Build the torus-times-lines model ``T^a x R^b`` (circles first)."""
    if circle_count < 0 or line_count < 0:
        raise DimensionError("coordinate counts must be nonnegative")
    if circle_count + line_count < 1:
        raise DimensionError("manifold must have dimension >= 1")
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(circle_count + line_count))
    return ModelManifold((True,) * circle_count + (False,) * line_count,
                         tuple(labels))


@dataclass(frozen=True)
class Point:
    """A point of a model manifold; circle coordinates stored normalized."""

    manifold: ModelManifold
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float).reshape(-1)
        if c.shape[0] != self.manifold.dim:
            raise DimensionError(
                f"expected {self.manifold.dim} coordinates, got {c.shape[0]}")
        object.__setattr__(self, "coords", self.manifold.normalize(c))

    def __repr__(self) -> str:  # pragma: no cover
        vals = ", ".join(f"{x:.6g}" for x in self.coords)
        return f"Point({vals})"


def _coerce_coords(manifold: ModelManifold, points) -> np.ndarray:
    """Accept a Point, a coordinate vector or a (B, n) batch; normalize."""
    if isinstance(points, Point):
        coords = points.coords
    else:
        coords = np.asarray(points, dtype=float)
    if coords.shape[-1] != manifold.dim:
        raise DimensionError(
            f"expected {manifold.dim} coordinates, got shape {coords.shape}")
    return manifold.normalize(coords)


def _as_jets(comps, dim: int, batch: tuple, order: int) -> list[Jet2]:
    """Components with each constant one promoted to its jet of ``order``."""
    return [c if isinstance(c, Jet2) else constant_jet(c, dim, batch, order)
            for c in comps]


def _component_jets(fn, coords: np.ndarray, order: int,
                    derivative_loss: int, count: int) -> list[Jet2]:
    """The ``count`` jets ``fn`` returns on coordinate jets seeded at
    normalized ``coords`` to order ``min(2, order + derivative_loss)``; a
    constant component becomes the constant jet of ``order``.  An
    evaluation out of its domain names its first failing row."""
    jets = seed_jets(coords, order=min(2, order + derivative_loss))
    try:
        comps = fn(jets)
    except DomainEvaluationError as exc:
        if exc.point is not None:
            raise
        rows, at = coords.reshape(-1, coords.shape[-1]), exc.index
        point = rows[at] if at is not None and at < len(rows) else coords
        raise DomainEvaluationError(str(exc), point=point) from None
    comps = _as_jets(comps, coords.shape[-1], coords.shape[:-1], order)
    if len(comps) != count:
        raise DimensionError(
            f"{len(comps)} components where {count} are expected")
    return comps


class ScalarField:
    """Deterministic scalar field evaluated through coordinate jets.

    ``derivative_loss`` plays the same role as for maps: fields whose
    evaluator reads derivatives of an inner field declare it so evaluation
    over-seeds accordingly.
    """

    def __init__(self, domain: ModelManifold,
                 fn: Callable[[Sequence[Jet2]], Jet2], name: str = "",
                 derivative_loss: int = 0):
        self.domain = domain
        self.fn = fn
        self.name = name
        self.derivative_loss = derivative_loss

    def jet(self, points, order: int = 2) -> Jet2:
        return self._jet(_coerce_coords(self.domain, points), order)

    def _jet(self, coords: np.ndarray, order: int) -> Jet2:
        (out,) = _component_jets(lambda jets: (self.fn(jets),), coords,
                                 order, self.derivative_loss, 1)
        return out.symmetrized()

    def value(self, points) -> np.ndarray:
        return self.jet(points, order=0).f

    @staticmethod
    def constant(domain: ModelManifold, value: float) -> "ScalarField":
        return ScalarField(domain, lambda jets: jets[0] * 0.0 + float(value),
                           name=f"{value}")


class VectorField:
    """Vector field: one jet-valued component per coordinate."""

    def __init__(self, domain: ModelManifold,
                 fn: Callable[[Sequence[Jet2]], Sequence[Jet2]], name: str = ""):
        self.domain = domain
        self.fn = fn
        self.name = name

    def jet(self, points, order: int = 2) -> list[Jet2]:
        return self._jet(_coerce_coords(self.domain, points), order)

    def _jet(self, coords: np.ndarray, order: int) -> list[Jet2]:
        return _component_jets(self.fn, coords, order, 0, self.domain.dim)

    def values(self, points) -> np.ndarray:
        return np.stack([c.f for c in self.jet(points, order=0)], axis=-1)


class SmoothMap:
    """Map between model manifolds with jets of every component.

    ``derivative_loss`` declares how many jet orders the component functions
    consume internally (1 for charts built from field gradients, e.g. graphs
    of twisted differentials); evaluation over-seeds by that amount so the
    requested order is delivered whenever the global order-2 cap allows.
    """

    def __init__(self, source: ModelManifold, target: ModelManifold,
                 fn: Callable[[Sequence[Jet2]], Sequence[Jet2]], name: str = "",
                 derivative_loss: int = 0):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name
        self.derivative_loss = derivative_loss

    def jet(self, points, order: int = 2) -> list[Jet2]:
        return self._jet(_coerce_coords(self.source, points), order)

    def _jet(self, coords: np.ndarray, order: int) -> list[Jet2]:
        return _component_jets(self.fn, coords, order, self.derivative_loss,
                               self.target.dim)

    def __call__(self, points) -> np.ndarray:
        comps = self.jet(points, order=0)
        return self.target.normalize(np.stack([c.f for c in comps], axis=-1))

    def jacobian(self, points) -> np.ndarray:
        """Shape ``(..., target_dim, source_dim)``."""
        comps = self.jet(points, order=1)
        return np.stack([c.g for c in comps], axis=-2)

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        if inner.target.labels != self.source.labels:
            raise DimensionError("composition domain mismatch")

        def fn(jets):
            mids = inner.fn(jets)
            return self.fn(mids)

        return SmoothMap(inner.source, self.target, fn,
                         name=f"{self.name}*{inner.name}",
                         derivative_loss=self.derivative_loss
                         + inner.derivative_loss)

    @staticmethod
    def identity(manifold: ModelManifold) -> "SmoothMap":
        return SmoothMap(manifold, manifold, lambda jets: list(jets), name="id")


def _halton(dim: int, start: int, n: int) -> np.ndarray:
    """Unscrambled Halton points of indices ``start .. start + n - 1``,
    shape ``(n, dim)``: coordinate j is the radical inverse of the index in
    the j-th prime base, summed digit by digit from the lowest."""
    primes = []
    k = 2
    while len(primes) < dim:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    out = np.zeros((n, dim))
    for j, base in enumerate(primes):
        index = np.arange(start, start + n, dtype=np.int64)
        scale = 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            out[:, j] += digit * scale
            scale /= base
    return out


def sample_points(manifold: ModelManifold, n: int, radius: float = 4.0,
                  seed: int = 0, ranges: dict | None = None) -> np.ndarray:
    """Deterministic low-discrepancy sample of the chart, shape ``(n, dim)``.

    Circle coordinates cover ``[0, 2*pi)``; line coordinates cover
    ``[-radius, radius]`` unless overridden per index through ``ranges``.
    ``seed`` picks the block of ``n`` Halton points that starts at index
    ``1 + seed * n`` (index 0 is the degenerate all-zeros point), so
    distinct seeds give distinct (still reproducible) sets; a negative seed
    is refused.
    """
    if seed < 0:
        raise ValueError(f"sample seed must be nonnegative, got {seed}")
    u = _halton(manifold.dim, 1 + seed * n, n)
    coords = np.empty_like(u)
    for i, circ in enumerate(manifold.is_circle):
        lo, hi = (0.0, TWO_PI) if circ else (-radius, radius)
        if ranges and i in ranges:
            lo, hi = ranges[i]
        coords[:, i] = lo + (hi - lo) * u[:, i]
    return coords


def parameter_grid(manifold: ModelManifold, shape) -> np.ndarray:
    """Rectangular grid on the chart, shape ``shape + (dim,)``.

    Circle axes carry ``m`` equispaced nodes on ``[0, 2*pi)`` (endpoint
    excluded); line axes carry ``m`` nodes on ``[-4, 4]``.
    """
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),) * manifold.dim
    if len(shape) != manifold.dim:
        raise DimensionError("grid shape rank != manifold dimension")
    axes = []
    for m, circ in zip(shape, manifold.is_circle):
        if circ:
            axes.append(np.linspace(0.0, TWO_PI, m, endpoint=False))
        else:
            axes.append(np.linspace(-4.0, 4.0, m))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)
