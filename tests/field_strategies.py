"""Hypothesis strategies shared by the property tests: random scalar fields
written in the scene expression grammar."""

import numpy as np
from hypothesis import strategies as st

from lcslab.expressions import compile_field

COEFFS = st.floats(-1.5, 1.5).map(lambda c: round(c, 3))


@st.composite
def grammar_fields(draw, M):
    """A sum of terms ``c*fn(a1*x1 + ... + am*xm)`` from the scene grammar on
    the coordinates of M, with the bound ``sum |c| (sum |ai|)^3 e^(sum |ai|)``
    on its third derivatives over the unit box (the factor e^(...) covers
    ``exp``).

    Circle coordinates enter only ``sin`` and ``cos`` terms, with integer
    frequencies, so every drawn field is periodic along the circle axes.
    """
    terms, bound = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        c = draw(COEFFS)
        a = [draw(st.integers(-2, 2) if circle else COEFFS)
             for circle in M.is_circle]
        fn = draw(st.sampled_from(["sin", "cos", "exp"]))
        if fn == "exp":
            a = [0 if circle else ai for ai, circle in zip(a, M.is_circle)]
        arg = " + ".join(f"{ai}*{label}" for ai, label in zip(a, M.labels))
        terms.append(f"{c}*{fn}({arg})")
        size = sum(abs(ai) for ai in a)
        bound += abs(c) * size ** 3 * np.exp(size)
    return compile_field(" + ".join(terms), M), bound
