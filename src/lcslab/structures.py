"""Canonical twisted structures on cotangent bundles.

The bundle T*M carries the tautological 1-form ``lambda = sum p_i dq_i`` and a
Lee form ``beta`` pulled back from the base.  Together with the twisted
2-form ``omega = d(lambda) - beta ^ lambda`` they form the structure every
other module consumes.  Also here: the fiber Euler (Liouville) vector field
and its flow, and the radial log-derivative criterion that controls when
``lambda/g`` is still a Liouville form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainEvaluationError
from .forms import CoefficientForm, FormExpression, lichnerowicz_d
from .jets import Jet2
from .manifolds import ModelManifold, ScalarField, VectorField, _coerce_coords

__all__ = [
    "CotangentLcsStructure", "cotangent_lcs", "liouville_vector_field",
    "liouville_flow", "criterion_radial_log_derivative",
    "RadialCriterionReport", "radial_blend", "smoothstep",
]


def _lift_base_field(base: ModelManifold, total: ModelManifold, f) -> ScalarField:
    """Read a base-coordinate field through the bundle projection."""
    if isinstance(f, ScalarField):
        if f.domain.labels == total.labels:
            return f
        if f.domain.labels != base.labels:
            raise DimensionError("coefficient field lives on the wrong chart")
        return ScalarField(total, lambda jets: f.fn(jets[:base.dim]),
                           name=f.name)
    value = float(f)
    return ScalarField.constant(total, value)


@dataclass(frozen=True)
class CotangentLcsStructure:
    """Chart model of (T*M, lambda, beta) with beta pulled back from M."""

    base: ModelManifold
    total: ModelManifold
    lam: FormExpression
    beta: FormExpression
    omega: FormExpression
    beta_base_coeffs: tuple

    @property
    def n(self) -> int:
        return self.base.dim


def cotangent_lcs(base: ModelManifold,
                  beta_coeffs: Sequence = ()) -> CotangentLcsStructure:
    """Canonical structure on T*(base) with ``beta = sum c_i(q) dq_i``.

    ``beta_coeffs`` holds one coefficient per base coordinate, each a constant
    or a :class:`ScalarField` on the base; missing entries default to zero.
    ``lichnerowicz_d`` checks that beta is closed.
    """
    total = base.cotangent()
    n = base.dim
    coeffs = list(beta_coeffs) + [0.0] * (n - len(beta_coeffs))
    if len(coeffs) != n:
        raise DimensionError("more beta coefficients than base coordinates")

    lam = CoefficientForm(total, 1, [total.coordinate_field(n + i)
                                     for i in range(n)] + [0.0] * n)
    lifted = tuple(_lift_base_field(base, total, c) for c in coeffs)
    beta = CoefficientForm(total, 1, list(lifted) + [0.0] * n)

    omega = lichnerowicz_d(lam, beta)
    return CotangentLcsStructure(base=base, total=total, lam=lam, beta=beta,
                                 omega=omega, beta_base_coeffs=lifted)


def liouville_vector_field(S: CotangentLcsStructure) -> VectorField:
    """Fiber Euler field ``sum p_i d/dp_i``; contracts d(lambda) to lambda."""
    n = S.n

    def fn(jets):
        zero = jets[0] * 0.0
        return [zero] * n + list(jets[n:])

    return VectorField(S.total, fn, name="Z_lambda")


def liouville_flow(S: CotangentLcsStructure, x, t: float):
    """Time-t flow of the Liouville field: ``(q, p) -> (q, e^t p)``, exact,
    on one coordinate vector or a batch of them."""
    out = _coerce_coords(S.total, x)
    out[..., S.n:] *= np.exp(t)
    return out


@dataclass
class RadialCriterionReport:
    sup: float
    passed: bool
    worst_point: np.ndarray


def criterion_radial_log_derivative(g: ScalarField, S: CotangentLcsStructure,
                                    samples) -> RadialCriterionReport:
    """Supremum of ``d ln g (Z)`` over samples, compared against 1.

    This is the sampled form of the bound under which ``lambda/g`` stays a
    Liouville form.  A field that is not positive on the samples is
    refused, naming the first such sample.  Only dg/dp is read, so g's jet
    is seeded in the fiber coordinates only.
    """
    coords = _coerce_coords(S.total, samples).reshape(-1, S.total.dim)
    jet = g._jet(coords, 1, range(S.n, 2 * S.n))
    if not np.all(jet.f > 0.0):     # a NaN value fails too
        raise DomainEvaluationError("log-derivative of a nonpositive field",
                                    point=coords[np.argmin(jet.f > 0.0)])
    vals = np.einsum("bi,bi->b", jet.g, coords[:, S.n:]) / jet.f
    i = int(np.argmax(vals))
    sup = float(vals[i])
    return RadialCriterionReport(sup=sup, passed=bool(sup < 1.0),
                                 worst_point=coords[i])


def smoothstep(x):
    """Quintic smoothstep ``6x^5 - 15x^4 + 10x^3`` (0 at 0, 1 at 1, C^2);
    acts on arrays and on jets alike."""
    return x * x * x * (x * (x * 6.0 - 15.0) + 10.0)


def radial_blend(p: Sequence[Jet2], r_in: float, r_out: float) -> tuple:
    """Fiber radius ``r = |p|`` and the quintic blend of it, as jets.

    The blend is 0 for ``r <= r_in``, 1 for ``r >= r_out`` and
    ``smoothstep((r - r_in) / (r_out - r_in))`` in between.  ``r^2`` below
    1e-16 is shifted by 1e-16, so sqrt keeps its derivatives on the zero
    section.
    """
    r2 = None
    for c in p:
        r2 = c * c if r2 is None else r2 + c * c
    r = Jet2.where(r2.f > 1e-16, r2, r2 + 1e-16).sqrt()
    s = smoothstep((r - r_in) * (1.0 / (r_out - r_in)))
    blend = Jet2.where(r.f <= r_in, r * 0.0,
                       Jet2.where(r.f >= r_out, r * 0.0 + 1.0, s))
    return r, blend
