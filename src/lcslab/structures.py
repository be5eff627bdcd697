"""Canonical twisted structures on cotangent bundles.

The bundle T*M carries the tautological 1-form ``lambda = sum p_i dq_i`` and a
Lee form ``beta`` pulled back from the base.  Together with the twisted
2-form ``omega = d(lambda) - beta ^ lambda`` they form the structure every
other module consumes.  Also here: the fiber Euler (Liouville) vector field
and its flow, gauge transformations and the radial log-derivative criterion
that controls when ``lambda/g`` is still a Liouville form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainEvaluationError
from .forms import (FormExpression, SumForm, coordinate_differential,
                    exterior_d, field_form, lichnerowicz_d, zero_form)
from .jets import Jet2
from .manifolds import (ModelManifold, Point, ScalarField, VectorField,
                        _coerce_coords, sample_points)

__all__ = [
    "CotangentLcsStructure", "GaugeTransform", "LcsPair", "cotangent_lcs",
    "liouville_vector_field", "liouville_flow",
    "criterion_radial_log_derivative", "gauge_apply", "RadialCriterionReport",
    "structure_scene_fragment", "radial_blend", "smoothstep",
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

    def point(self, coords) -> Point:
        return Point(self.total, coords)

    def samples(self, count: int = 4096, fiber_radius: float = 4.0,
                seed: int = 0) -> np.ndarray:
        """Default verification grid: low-discrepancy, bounded fiber norm."""
        return sample_points(self.total, count, radius=fiber_radius, seed=seed)


def structure_scene_fragment(S: CotangentLcsStructure) -> dict:
    """Scene-file fragment describing this structure.

    Coefficient fields carry their defining expression in ``name`` when they
    were built from one (scene-compiled fields always are); hand-built
    lambdas serialize by name too, which may not re-parse.
    """
    return {
        "manifold": {"circles": S.base.circle_count,
                     "lines": S.base.line_count},
        "structure": {"beta": [c.name for c in S.beta_base_coeffs]},
    }


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

    lam_terms = [coordinate_differential(total, i) * total.coordinate_field(n + i)
                 for i in range(n)]
    lam = SumForm(lam_terms)

    lifted = tuple(_lift_base_field(base, total, c) for c in coeffs)
    beta_terms = [coordinate_differential(total, i) * lifted[i]
                  for i in range(n)]
    beta = SumForm(beta_terms) if beta_terms else zero_form(total, 1)

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
    """Time-t flow of the Liouville field: ``(q, p) -> (q, e^t p)``, exact;
    a Point or one coordinate vector flows to a Point, a batch to an array."""
    out = _coerce_coords(S.total, x)
    out[..., S.n:] *= np.exp(t)
    if isinstance(x, Point) or np.ndim(x) == 1:
        return Point(S.total, out)
    return out


@dataclass
class RadialCriterionReport:
    sup: float
    passed: bool
    threshold: float
    worst_point: np.ndarray
    sample_count: int

    def as_dict(self) -> dict:
        return {"sup": self.sup, "passed": bool(self.passed),
                "threshold": self.threshold,
                "sample_count": self.sample_count}


def criterion_radial_log_derivative(g: ScalarField, S: CotangentLcsStructure,
                                    samples=None) -> RadialCriterionReport:
    """Supremum of ``d ln g (Z)`` over samples, compared against 1.

    This is the sampled form of the bound under which ``lambda/g`` stays a
    Liouville form.  A field that is not positive on the samples is
    refused, naming the first such sample.
    """
    coords = _coerce_coords(S.total, S.samples() if samples is None
                            else samples).reshape(-1, S.total.dim)
    jet = g._jet(coords, 1)
    if np.any(jet.f <= 0.0):
        raise DomainEvaluationError("log-derivative of a nonpositive field",
                                    point=coords[np.argmax(jet.f <= 0.0)])
    vals = np.einsum("bi,bi->b", jet.g[:, S.n:], coords[:, S.n:]) / jet.f
    i = int(np.argmax(vals))
    sup = float(vals[i])
    return RadialCriterionReport(sup=sup, passed=bool(sup < 1.0),
                                 threshold=1.0, worst_point=coords[i],
                                 sample_count=int(vals.size))


@dataclass(frozen=True)
class GaugeTransform:
    """Acts by ``(lambda, beta) -> (e^g (lambda + d_beta f), beta + dg)``."""

    g: ScalarField
    f_shift: ScalarField | None = None


@dataclass(frozen=True)
class LcsPair:
    """A (possibly non-canonical) twisted pair with its derived 2-form."""

    total: ModelManifold
    lam: FormExpression
    beta: FormExpression
    omega: FormExpression


def gauge_apply(T: GaugeTransform, S: CotangentLcsStructure) -> LcsPair:
    """New pair under a gauge transform; the 2-form rescales by ``e^g``."""
    eg = ScalarField(S.total, lambda jets: T.g.fn(jets).exp(),
                     name=f"exp({T.g.name})")
    lam_inner = S.lam
    if T.f_shift is not None:
        lam_inner = lam_inner + lichnerowicz_d(field_form(T.f_shift), S.beta,
                                               validate=False)
    new_lam = lam_inner * eg
    new_beta = S.beta + exterior_d(field_form(T.g))
    new_omega = lichnerowicz_d(new_lam, new_beta, validate=False)
    return LcsPair(total=S.total, lam=new_lam, beta=new_beta, omega=new_omega)


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
