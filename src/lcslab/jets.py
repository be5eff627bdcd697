"""Second-order forward-mode jets.

A :class:`Jet2` carries the value, gradient and Hessian of a scalar quantity
with respect to a fixed set of coordinates.  All fields are batched: ``f`` has
shape ``(...,)``, ``g`` shape ``(..., n)`` and ``h`` shape ``(..., n, n)``, so
one arithmetic pass evaluates a whole grid of points at once.

Derivative order degrades gracefully: ``g`` or ``h`` may be ``None`` when that
order is no longer available (for example the coefficients of a twice-applied
exterior derivative only have values).  Binary operations return the minimum
order of their operands; the chain rule is applied exactly, so gradients and
Hessians are accurate to rounding, not to a finite-difference step.

A Python or numpy scalar operand of ``+``, ``-``, ``*`` or ``/`` acts on
``f``, ``g`` and ``h`` directly: no zero gradient or Hessian is allocated for
the constant, and the result equals that of the constant's full jet.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainEvaluationError

__all__ = ["Jet2", "seed_jets", "constant_jet", "compose_jet", "partial_jet"]


# operands that take the constant fast path of the arithmetic dunders
_SCALARS = (int, float, np.integer, np.floating)


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _check_domain(bad: np.ndarray, message: str) -> None:
    """Raise a DomainEvaluationError indexing the first True of ``bad``."""
    if np.any(bad):
        exc = DomainEvaluationError(message)
        exc.index = int(np.argmax(bad))
        raise exc


class Jet2:
    """Value / gradient / Hessian triple propagated by exact chain rules."""

    __slots__ = ("f", "g", "h")

    def __init__(self, f, g=None, h=None):
        self.f = _as_array(f)
        self.g = None if g is None else _as_array(g)
        self.h = None if h is None else _as_array(h)

    # ------------------------------------------------------------------ basics

    @property
    def order(self) -> int:
        if self.h is not None:
            return 2
        if self.g is not None:
            return 1
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Jet2(order={self.order}, f={self.f!r})"

    # -------------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2(_as_array(other) * np.ones_like(self.f),
                    None if self.g is None else np.zeros_like(self.g),
                    None if self.h is None else np.zeros_like(self.h))

    def __neg__(self) -> "Jet2":
        return Jet2(-self.f,
                    None if self.g is None else -self.g,
                    None if self.h is None else -self.h)

    def __add__(self, other) -> "Jet2":
        if isinstance(other, _SCALARS):
            # "+ 0.0" copies and, like adding the constant's zero
            # derivatives, turns -0.0 into 0.0
            return Jet2(self.f + float(other),
                        None if self.g is None else self.g + 0.0,
                        None if self.h is None else self.h + 0.0)
        o = self._coerce(other)
        g = None if (self.g is None or o.g is None) else self.g + o.g
        h = None if (self.h is None or o.h is None) else self.h + o.h
        return Jet2(self.f + o.f, g, h)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if isinstance(other, _SCALARS):
            return Jet2(self.f - float(other),
                        None if self.g is None else self.g.copy(),
                        None if self.h is None else self.h.copy())
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet2":
        if isinstance(other, _SCALARS):
            return Jet2(float(other) - self.f,
                        None if self.g is None else 0.0 - self.g,
                        None if self.h is None else 0.0 - self.h)
        return (-self) + other

    def __mul__(self, other) -> "Jet2":
        if isinstance(other, _SCALARS):
            return self._scaled(float(other))
        o = self._coerce(other)
        f = self.f * o.f
        g = h = None
        if self.g is not None and o.g is not None:
            g = self.g * o.f[..., None] + o.g * self.f[..., None]
            if self.h is not None and o.h is not None:
                outer = self.g[..., :, None] * o.g[..., None, :]
                h = (self.h * o.f[..., None, None]
                     + o.h * self.f[..., None, None]
                     + outer + np.swapaxes(outer, -1, -2))
        return Jet2(f, g, h)

    __rmul__ = __mul__

    def _scaled(self, c: float) -> "Jet2":
        return Jet2(self.f * c,
                    None if self.g is None else self.g * c,
                    None if self.h is None else self.h * c)

    def reciprocal(self) -> "Jet2":
        _check_domain(self.f == 0.0, "division by a zero value")
        inv = 1.0 / self.f
        return self.chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __truediv__(self, other) -> "Jet2":
        if isinstance(other, _SCALARS):
            if other == 0:
                raise DomainEvaluationError("division by a zero value")
            # multiply by the reciprocal, as the constant's jet would
            return self._scaled(1.0 / float(other))
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        if isinstance(other, _SCALARS):
            return self.reciprocal() * other
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent) -> "Jet2":
        if isinstance(exponent, Jet2):
            return (exponent * self.log()).exp()
        if isinstance(exponent, (int, np.integer)) or float(exponent).is_integer():
            k = int(exponent)
            if k == 0:
                return self._coerce(1.0)
            if k < 0:
                return self.reciprocal() ** (-k)
            f = self.f ** k
            # k - 1.0: a huge integer exponent overflows to inf, not raises
            return self.chain(f, k * self.f ** (k - 1),
                              k * (k - 1.0) * self.f ** (k - 2) if k >= 2
                              else np.zeros_like(self.f))
        _check_domain(self.f <= 0, "non-integer power of a nonpositive value")
        r = float(exponent)
        f = self.f ** r
        return self.chain(f, r * self.f ** (r - 1), r * (r - 1) * self.f ** (r - 2))

    # ---------------------------------------------------------------- unaries

    def chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Jet2":
        """Jet of ``phi(self)`` given ``phi``, ``phi'``, ``phi''`` at the value."""
        g = h = None
        if self.g is not None:
            g = f1[..., None] * self.g
            if self.h is not None:
                outer = self.g[..., :, None] * self.g[..., None, :]
                h = f2[..., None, None] * outer + f1[..., None, None] * self.h
        return Jet2(f0, g, h)

    def exp(self) -> "Jet2":
        e = np.exp(self.f)
        return self.chain(e, e, e)

    def log(self) -> "Jet2":
        _check_domain(self.f <= 0.0, "log of a nonpositive value")
        return self.chain(np.log(self.f), 1.0 / self.f, -1.0 / self.f ** 2)

    def sin(self) -> "Jet2":
        s, c = np.sin(self.f), np.cos(self.f)
        return self.chain(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = np.sin(self.f), np.cos(self.f)
        return self.chain(c, -s, -c)

    def sqrt(self) -> "Jet2":
        _check_domain(self.f <= 0.0, "sqrt of a nonpositive value")
        r = np.sqrt(self.f)
        return self.chain(r, 0.5 / r, -0.25 / self.f / r)

    # ---------------------------------------------------------------- helpers

    @staticmethod
    def where(mask, a: "Jet2", b: "Jet2") -> "Jet2":
        """Elementwise branch selection; unselected branches may hold NaNs."""
        mask = np.asarray(mask, dtype=bool)
        f = np.where(mask, a.f, b.f)
        g = h = None
        if a.g is not None and b.g is not None:
            g = np.where(mask[..., None], a.g, b.g)
            if a.h is not None and b.h is not None:
                h = np.where(mask[..., None, None], a.h, b.h)
        return Jet2(f, g, h)

    def symmetrized(self) -> "Jet2":
        if self.h is None:
            return self
        return Jet2(self.f, self.g, 0.5 * (self.h + np.swapaxes(self.h, -1, -2)))


def constant_jet(value, dim: int, batch_shape=(), order: int = 2) -> Jet2:
    """Constant field jet: zero gradient and Hessian."""
    f = np.broadcast_to(_as_array(value), batch_shape).copy()
    g = np.zeros(batch_shape + (dim,)) if order >= 1 else None
    h = np.zeros(batch_shape + (dim, dim)) if order >= 2 else None
    return Jet2(f, g, h)


def seed_jets(coords: np.ndarray, order: int = 2,
              axes: Sequence[int] | None = None) -> list[Jet2]:
    """Coordinate jets at ``coords`` of shape ``(..., n)``.

    The i-th jet has value ``coords[..., i]``, gradient ``e_i`` and zero
    Hessian, so evaluating a composite expression on these seeds yields the
    exact first and second derivatives of the expression.

    ``axes`` (all by default) lists the coordinates that are differentiated:
    derivatives have width ``len(axes)``, coordinate ``axes[j]`` carries
    ``e_j`` and the others are constants with zero derivatives.  An
    expression whose arithmetic computes each gradient column from the same
    column of its operands then yields exactly the columns ``axes`` of the
    full-width gradient.
    """
    coords = _as_array(coords)
    n = coords.shape[-1]
    axes = list(range(n) if axes is None else axes)
    m = len(axes)
    batch = coords.shape[:-1]
    out = []
    for i in range(n):
        g = h = None
        if order >= 1:
            g = np.zeros(batch + (m,))
            if i in axes:
                g[..., axes.index(i)] = 1.0
        if order >= 2:
            h = np.zeros(batch + (m, m))
        out.append(Jet2(coords[..., i], g, h))
    return out


def partial_jet(j: Jet2, i: int) -> Jet2:
    """Jet of the i-th partial derivative of ``j`` (one order lower)."""
    if j.g is None:
        raise ValueError("jet order exhausted: no gradient available")
    return Jet2(j.g[..., i], None if j.h is None else j.h[..., i, :], None)


def compose_jet(outer: Jet2, inner: Sequence[Jet2]) -> Jet2:
    """Chain rule for ``u(phi(x))``.

    ``outer`` holds derivatives of ``u`` with respect to target coordinates
    ``y_1..y_m`` (at ``y = phi(x)``); ``inner`` are the jets of the target
    coordinates with respect to the source coordinates.  The result carries
    derivatives with respect to the source coordinates.
    """
    m = len(inner)
    f = outer.f
    if outer.g is None or any(c.g is None for c in inner):
        return Jet2(f)
    g = sum(outer.g[..., l, None] * inner[l].g for l in range(m))
    if outer.h is None or any(c.h is None for c in inner):
        return Jet2(f, g)
    h = sum(outer.g[..., l, None, None] * inner[l].h for l in range(m))
    for l in range(m):
        for k in range(m):
            h = h + (outer.h[..., l, k, None, None]
                     * inner[l].g[..., :, None] * inner[k].g[..., None, :])
    return Jet2(f, g, h)


