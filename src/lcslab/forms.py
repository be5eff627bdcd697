"""Differential forms as expression trees with exact pointwise evaluation.

A k-form on an n-dimensional chart is stored by its coefficients over the
strictly increasing multi-indices of length k (antisymmetry is structural:
only one representative per index set ever exists).  Evaluation produces a
:class:`~lcslab.jets.Jet2` per coefficient, so the exterior derivative and the
twisted derivative ``d_beta = d - beta ^ .`` are computed from exact gradients
rather than finite differences.

Derivative order degrades along the tree: one exterior derivative consumes one
jet order, a pullback consumes one order of the map.  Wedge products, sums and
contractions keep the minimum order of their operands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, PreconditionError
from .jets import Jet2, compose_jet, constant_jet
from .manifolds import ModelManifold, ScalarField, SmoothMap, VectorField, \
    _coerce_coords, sample_points

__all__ = [
    "FormExpression", "constant_form", "coordinate_differential",
    "field_form", "exterior_d", "lichnerowicz_d", "pullback",
    "pullback_coefficients", "interior_product", "check_nondegenerate",
    "NondegeneracyReport", "increasing_indices",
]


# --------------------------------------------------------------- multi-indices

def increasing_indices(n: int, k: int) -> list[tuple]:
    return list(itertools.combinations(range(n), k))


def _index_positions(n: int, k: int) -> dict:
    return {idx: pos for pos, idx in enumerate(increasing_indices(n, k))}


def merge_with_sign(I: tuple, J: tuple):
    """Sorted concatenation of disjoint index tuples and the sort sign.

    Returns ``(None, 0)`` when the tuples share an index.
    """
    combined = I + J
    if len(set(combined)) != len(combined):
        return None, 0
    inversions = sum(a > b for a, b in itertools.combinations(combined, 2))
    return tuple(sorted(combined)), -1 if inversions % 2 else 1


def _values(jets: list, batch: tuple) -> np.ndarray:
    """Stack coefficient jets' values, shape ``batch + (C,)``."""
    if not jets:
        return np.zeros(batch + (0,))
    return np.stack([j.f for j in jets], axis=-1)


# ----------------------------------------------------------------- base class

class FormExpression:
    """Base class; subclasses implement ``_jets(coords, order)``.

    ``jets`` and ``coefficients`` normalize their points once; ``_jets``
    reads normalized coordinates and hands them on without wrapping them
    again.  A form whose degree exceeds its chart's dimension is the zero
    form with no coefficients.
    """

    domain: ModelManifold
    degree: int

    def __init__(self, domain: ModelManifold, degree: int):
        if degree < 0:
            raise DimensionError(f"negative degree {degree}")
        self.domain = domain
        self.degree = degree

    @property
    def n_coefficients(self) -> int:
        return len(increasing_indices(self.domain.dim, self.degree))

    def _jets(self, coords: np.ndarray, order: int) -> list[Jet2]:
        raise NotImplementedError

    def jets(self, points, order: int = 2) -> list[Jet2]:
        return self._jets(_coerce_coords(self.domain, points), order)

    def coefficients(self, points) -> np.ndarray:
        """Coefficient values over increasing multi-indices, shape (..., C)."""
        coords = _coerce_coords(self.domain, points)
        return _values(self._jets(coords, 0), coords.shape[:-1])

    # ----------------------------------------------------------- form algebra

    def __add__(self, other: "FormExpression") -> "FormExpression":
        return SumForm([self, other])

    def __sub__(self, other: "FormExpression") -> "FormExpression":
        return SumForm([self, ScaledForm(-1.0, other)])

    def __mul__(self, factor) -> "FormExpression":
        return ScaledForm(factor, self)

    __rmul__ = __mul__

    def wedge(self, other: "FormExpression") -> "FormExpression":
        return WedgeForm(self, other)


class CoefficientForm(FormExpression):
    """Form given by its coefficients over the increasing multi-indices,
    each a constant or a ScalarField on the chart, evaluated as it is."""

    def __init__(self, domain: ModelManifold, degree: int, coeffs):
        super().__init__(domain, degree)
        coeffs = [c if isinstance(c, ScalarField) else float(c)
                  for c in np.ravel(coeffs)]
        if len(coeffs) != self.n_coefficients:
            raise DimensionError("coefficient count mismatch")
        if any(isinstance(c, ScalarField) and c.domain.labels != domain.labels
               for c in coeffs):
            raise DimensionError("field and form live on different charts")
        self._coeffs = coeffs

    def _jets(self, coords, order):
        batch = coords.shape[:-1]
        return [c._jet(coords, min(order, 2)) if isinstance(c, ScalarField)
                else constant_jet(c, self.domain.dim, batch, order)
                for c in self._coeffs]


def constant_form(domain, degree, coeffs) -> CoefficientForm:
    return CoefficientForm(domain, degree, coeffs)


def coordinate_differential(domain: ModelManifold,
                            index: int) -> CoefficientForm:
    """The 1-form ``dx_index``."""
    coeffs = np.zeros(domain.dim)
    coeffs[index] = 1.0
    return CoefficientForm(domain, 1, coeffs)


def field_form(f: ScalarField) -> "FieldForm":
    return FieldForm(f)


class FieldForm(FormExpression):
    """A scalar field viewed as a 0-form."""

    def __init__(self, f: ScalarField):
        super().__init__(f.domain, 0)
        self.field = f

    def _jets(self, coords, order):
        return [self.field._jet(coords, min(order, 2))]


class ScaledForm(FormExpression):
    """Scalar-field (or constant) multiple of a form."""

    def __init__(self, factor, base: FormExpression):
        super().__init__(base.domain, base.degree)
        if isinstance(factor, ScalarField):
            if factor.domain.labels != base.domain.labels:
                raise DimensionError("field and form live on different charts")
        self.factor = factor
        self.base = base

    def _jets(self, coords, order):
        base = self.base._jets(coords, order)
        if isinstance(self.factor, ScalarField):
            fac = self.factor._jet(coords, min(order, 2))
            return [fac * c for c in base]
        return [c * float(self.factor) for c in base]


class SumForm(FormExpression):
    def __init__(self, terms: Sequence[FormExpression]):
        terms = list(terms)
        if not terms:
            raise DimensionError("empty sum")
        deg = terms[0].degree
        dom = terms[0].domain
        for t in terms[1:]:
            if t.degree != deg:
                raise DimensionError("cannot add forms of different degree")
            if t.domain.labels != dom.labels:
                raise DimensionError("cannot add forms on different charts")
        super().__init__(dom, deg)
        self.terms = terms

    def _jets(self, coords, order):
        acc = self.terms[0]._jets(coords, order)
        for t in self.terms[1:]:
            nxt = t._jets(coords, order)
            acc = [a + b for a, b in zip(acc, nxt)]
        return acc


class WedgeForm(FormExpression):
    """Wedge product; degree adds, graded commutativity is structural."""

    def __init__(self, left: FormExpression, right: FormExpression):
        if left.domain.labels != right.domain.labels:
            raise DimensionError("wedge of forms on different charts")
        super().__init__(left.domain, left.degree + right.degree)
        self.left = left
        self.right = right

    def _jets(self, coords, order):
        n = self.domain.dim
        lj = self.left._jets(coords, order)
        rj = self.right._jets(coords, order)
        li = increasing_indices(n, self.left.degree)
        ri = increasing_indices(n, self.right.degree)
        pos = _index_positions(n, self.degree)
        batch = coords.shape[:-1]
        out = [constant_jet(0.0, n, batch, order) for _ in pos]
        for a, I in enumerate(li):
            for b, J in enumerate(ri):
                K, sign = merge_with_sign(I, J)
                if K is None:
                    continue
                out[pos[K]] = out[pos[K]] + (lj[a] * rj[b]) * float(sign)
        return out


class ExteriorD(FormExpression):
    """Exterior derivative; consumes one jet order of the operand."""

    def __init__(self, base: FormExpression):
        super().__init__(base.domain, base.degree + 1)
        self.base = base

    def _jets(self, coords, order):
        n = self.domain.dim
        base = self.base._jets(coords, min(order + 1, 2))
        src = increasing_indices(n, self.base.degree)
        out_idx = increasing_indices(n, self.degree)
        out = []
        for K in out_idx:
            f = None
            g = None
            have_g = all(c.h is not None for c in base)
            for j, l in enumerate(K):
                rest = K[:j] + K[j + 1:]
                pos = src.index(rest)
                c = base[pos]
                if c.g is None:
                    raise DimensionError(
                        "exterior derivative needs first derivatives of the "
                        "operand's coefficients; jet order exhausted")
                term_f = ((-1) ** j) * c.g[..., l]
                f = term_f if f is None else f + term_f
                if have_g:
                    term_g = ((-1) ** j) * c.h[..., l, :]
                    g = term_g if g is None else g + term_g
            out.append(Jet2(f, g, None))
        return out


class PullbackForm(FormExpression):
    """Pullback of a form along a smooth map."""

    def __init__(self, phi: SmoothMap, base: FormExpression):
        if phi.target.labels != base.domain.labels:
            raise DimensionError("pullback target does not match form domain")
        super().__init__(phi.source, base.degree)
        self.phi = phi
        self.base = base

    def _jets(self, coords, order):
        return _pullback_jets(self.phi, (self.base,), coords, order)[0]


def _pullback_jets(phi: SmoothMap, forms, coords, order,
                   axes: Sequence[int] | None = None) -> list:
    """Jets of the pullbacks of ``forms`` along one evaluation of ``phi`` at
    normalized source coordinates, seeded in the source ``axes`` (all by
    default); a form above their count is the zero form, and when all are,
    the map is never evaluated."""
    n_src = phi.source.dim if axes is None else len(axes)
    if all(form.degree > n_src for form in forms):
        return [[] for _ in forms]
    phi_jets = phi._jet(coords, min(order + 1, 2), axes)
    target_coords = phi.target.normalize(
        np.stack([c.f for c in phi_jets], axis=-1))
    # Jacobian entries as jets of the source coordinates (order <= 1).
    jac = [[Jet2(c.g[..., m],
                 None if c.h is None else c.h[..., m, :], None)
            for m in range(n_src)] for c in phi_jets]
    batch = coords.shape[:-1]
    out = []
    for form in forms:
        k = form.degree
        base_composed = [compose_jet(c, phi_jets)
                         for c in form._jets(target_coords, min(order, 2))]
        tgt_idx = increasing_indices(form.domain.dim, k)
        pulled = []
        for J in increasing_indices(n_src, k):
            acc = constant_jet(0.0, n_src, batch, order)
            for coeff, I in zip(base_composed, tgt_idx):
                # a coefficient zero to the requested order adds nothing,
                # and its minor may carry one order less (derivative loss)
                if coeff.order >= order and not any(
                        np.any(x) for x in (coeff.f, coeff.g, coeff.h)
                        if x is not None):
                    continue
                minor = _jet_determinant(
                    [[jac[i][j] for j in J] for i in I], n_src, batch)
                acc = acc + coeff * minor
            pulled.append(acc)
        out.append(pulled)
    return out


def _jet_determinant(rows, dim, batch) -> Jet2:
    """Determinant of a small matrix of jets by cofactor expansion."""
    k = len(rows)
    if k == 0:
        return constant_jet(1.0, dim, batch, 2)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(k):
        minor = [[rows[i][jj] for jj in range(k) if jj != j]
                 for i in range(1, k)]
        term = rows[0][j] * _jet_determinant(minor, dim, batch)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


class InteriorProduct(FormExpression):
    """Contraction with a vector field in the first slot."""

    def __init__(self, X: VectorField, base: FormExpression):
        if base.degree < 1:
            raise DimensionError("cannot contract a 0-form")
        if X.domain.labels != base.domain.labels:
            raise DimensionError("vector field and form on different charts")
        super().__init__(base.domain, base.degree - 1)
        self.X = X
        self.base = base

    def _jets(self, coords, order):
        n = self.domain.dim
        xj = self.X._jet(coords, min(order, 2))
        bj = self.base._jets(coords, order)
        src = _index_positions(n, self.base.degree)
        batch = coords.shape[:-1]
        out = []
        for J in increasing_indices(n, self.degree):
            acc = constant_jet(0.0, n, batch, order)
            for l in range(n):
                K, sign = merge_with_sign((l,), J)
                if K is None:
                    continue
                acc = acc + (xj[l] * bj[src[K]]) * float(sign)
            out.append(acc)
        return out


# ------------------------------------------------------------- named builders

def exterior_d(alpha: FormExpression) -> FormExpression:
    return ExteriorD(alpha)


def lichnerowicz_d(alpha: FormExpression, beta: FormExpression,
                   validate: bool = True) -> FormExpression:
    """Twisted derivative ``d(alpha) - beta ^ alpha`` for a closed 1-form beta.

    Closedness of ``beta`` is a contract checked by sampling ``d(beta)`` on
    1024 low-discrepancy points (fiber radius 4), within 1e-9.
    """
    if beta.degree != 1:
        raise DimensionError("the twisting form must be a 1-form")
    if beta.domain.labels != alpha.domain.labels:
        raise DimensionError("alpha and beta live on different charts")
    if validate:
        samples = sample_points(beta.domain, 1024)
        residual = np.abs(ExteriorD(beta).coefficients(samples))
        worst = float(residual.max(initial=0.0))
        if worst > 1e-9:
            flat = residual.max(axis=-1)
            at = samples[int(np.argmax(flat))]
            raise PreconditionError(
                "twisting form is not closed on the sample set",
                worst_residual=worst, point=np.array2string(at, precision=6))
    return SumForm([ExteriorD(alpha), ScaledForm(-1.0, WedgeForm(beta, alpha))])


def pullback(phi: SmoothMap, alpha: FormExpression) -> FormExpression:
    return PullbackForm(phi, alpha)


def pullback_coefficients(phi: SmoothMap, forms: Sequence[FormExpression],
                          points, axes: Sequence[int] | None = None) -> list:
    """Coefficients of the pullbacks of several forms along ``phi``, one
    array of shape (..., C) per form, from one evaluation of ``phi``; with
    ``axes``, over those source axes alone (a 1-form's columns ``axes``)."""
    if any(phi.target.labels != form.domain.labels for form in forms):
        raise DimensionError("pullback target does not match form domain")
    coords = _coerce_coords(phi.source, points)
    return [_values(jets, coords.shape[:-1])
            for jets in _pullback_jets(phi, forms, coords, 0, axes)]


def interior_product(X: VectorField, alpha: FormExpression) -> FormExpression:
    return InteriorProduct(X, alpha)


# --------------------------------------------------------------- degeneracy

@dataclass
class NondegeneracyReport:
    min_abs_determinant: float
    nondegenerate: bool
    tol: float
    worst_point: np.ndarray = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "min_abs_determinant": self.min_abs_determinant,
            "nondegenerate": bool(self.nondegenerate),
            "tol": self.tol,
        }


def check_nondegenerate(omega: FormExpression, samples,
                        tol: float = 1e-9) -> NondegeneracyReport:
    """Determinant test of a 2-form's coefficient matrix over samples."""
    if omega.degree != 2:
        raise DimensionError("nondegeneracy test expects a 2-form")
    n = omega.domain.dim
    if n % 2 != 0:
        raise DimensionError("nondegeneracy is tested on even-dimensional charts")
    coords = _coerce_coords(omega.domain, samples)
    coeffs = _values(omega._jets(coords, 0), coords.shape[:-1])
    mat = np.zeros(coords.shape[:-1] + (n, n))
    for pos, (i, j) in enumerate(increasing_indices(n, 2)):
        mat[..., i, j] = coeffs[..., pos]
        mat[..., j, i] = -coeffs[..., pos]
    absdets = np.abs(np.linalg.det(mat))
    imin = int(np.argmin(absdets.reshape(-1)))
    return NondegeneracyReport(
        min_abs_determinant=float(absdets.reshape(-1)[imin]),
        nondegenerate=bool(absdets.min() > tol),
        tol=tol,
        worst_point=coords.reshape(-1, n)[imin],
    )
