"""Tiny expression grammar for scene files.

Grammar (deliberately minimal): identifiers, numbers, ``+ - * / ^``,
parentheses, the functions ``sin cos exp log`` and the constants ``pi`` and
``e``.  The parser compiles as it reads: each node becomes a closure over
coordinate jets, with identifiers bound to the chart's coordinate indices
there and then, so every field built from a scene file has exact derivatives
and a name the chart lacks is refused before the first evaluation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import SceneError
from .manifolds import ModelManifold, ScalarField

__all__ = ["compile_field"]

# exponent forms first: ordered alternation would otherwise split 1.5e-3
_TOKEN = re.compile(r"\s*(?:(\d+\.\d*[eE][+-]?\d+|\.\d+[eE][+-]?\d+"
                    r"|\d+\.\d*|\.\d+|\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*/^]))")

# Deepest expression a scene may hold, in nesting levels and in tree height.
# Parsing and evaluation recurse once per level, so this fixed bound keeps
# both far inside the interpreter's stack.
MAX_DEPTH = 100

_FUNCTIONS = {"sin", "cos", "exp", "log"}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}


def _binary(op, a, b):
    """The closure of the node ``op(a, b)``, left operand first."""
    return lambda jets: op(a(jets), b(jets))


@dataclass
class _Tok:
    kind: str   # num | name | op
    text: str
    pos: int


def _tokenize(src: str, pointer: str) -> list:
    out, i = [], 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if not m or m.end() == i:
            if src[i:].strip() == "":
                break
            raise SceneError(f"bad token at position {i}: {src[i:i+8]!r}",
                             pointer)
        num, name, op = m.groups()
        if num is not None:
            out.append(_Tok("num", num, i))
        elif name is not None:
            out.append(_Tok("name", name, i))
        else:
            out.append(_Tok("op", "^" if op == "**" else op, i))
        i = m.end()
    return out


class _Parser:
    """Recursive descent: sum > product > unary > power > atom.

    Each rule returns a node ``(fn, height, value)``: the closure that
    evaluates it on the coordinate jets, its tree height, and its value when
    the node is a constant (else None).
    """

    def __init__(self, src: str, labels, pointer: str):
        self.toks = _tokenize(src, pointer)
        self.src = src
        self.pointer = pointer
        self.index = {nm: i for i, nm in enumerate(labels)}
        self.i = 0
        self.depth = 0

    def error(self, message: str):
        raise SceneError(message, self.pointer)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            self.error(f"unexpected end of expression: {self.src!r}")
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t.kind != "op" or t.text != op:
            self.error(f"expected {op!r} at position {t.pos} in {self.src!r}")

    def parse(self):
        fn, _, _ = self.sum()
        if (t := self.peek()) is not None:
            self.error(f"trailing input at position {t.pos} in {self.src!r}")
        return fn

    def check_depth(self, levels: int):
        if levels > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels "
                       f"(starts {self.src[:40]!r})")

    def node(self, fn, *children, value=None):
        """A node over ``children``, its height checked as it is built."""
        height = 1 + max((c[1] for c in children), default=0)
        self.check_depth(height)
        return fn, height, value

    def chain(self, ops: str, operand):
        """Operands joined by the left-associative operators ``ops``."""
        node = operand()
        while (t := self.peek()) and t.kind == "op" and t.text in ops:
            self.next()
            rhs = operand()
            node = self.node(_binary(_BINARY[t.text], node[0], rhs[0]),
                             node, rhs)
        return node

    def sum(self):
        return self.chain("+-", self.product)

    def product(self):
        return self.chain("*/", self.unary)

    def unary(self):
        # every recursion of the descent passes here: bound its depth
        self.depth += 1
        self.check_depth(self.depth)
        t = self.peek()
        if t and t.kind == "op" and t.text in "+-":
            self.next()
            node = self.unary()
            if t.text == "-":
                a = node[0]
                node = self.node(lambda jets: -a(jets), node)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        t = self.peek()
        if not (t and t.kind == "op" and t.text == "^"):
            return base
        self.next()
        exp = self.unary()  # right associative
        a, v = base[0], exp[2]
        if v is not None:   # a constant exponent stays a float for Jet2
            return self.node(lambda jets: a(jets) ** v, base, exp)
        return self.node(_binary(operator.pow, a, exp[0]), base, exp)

    def atom(self):
        t = self.next()
        if t.kind == "num" or t.text in _CONSTANTS:
            v = float(t.text) if t.kind == "num" else _CONSTANTS[t.text]
            return self.node(lambda jets: jets[0] * 0.0 + v, value=v)
        if t.kind == "op" and t.text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        if t.kind == "name" and t.text in _FUNCTIONS:
            self.expect_op("(")
            arg = self.sum()
            self.expect_op(")")
            call, a = operator.methodcaller(t.text), arg[0]
            return self.node(lambda jets: call(a(jets)), arg)
        if t.kind == "name":
            if t.text not in self.index:
                self.error(f"unknown identifier {t.text!r}; "
                           f"expected one of {sorted(self.index)}")
            k = self.index[t.text]
            return self.node(lambda jets: jets[k])
        self.error(f"unexpected token {t.text!r} at position {t.pos} "
                   f"in {self.src!r}")


def compile_field(src: str, domain: ModelManifold,
                  pointer: str = "") -> ScalarField:
    """Compile an expression into a scalar field on ``domain``; identifiers
    bind to coordinates by the manifold's labels.  Every error is a
    ``SceneError`` at ``pointer``, the expression's place in its scene."""
    return ScalarField(domain, _Parser(src, domain.labels, pointer).parse(),
                       name=src)
