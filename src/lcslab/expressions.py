"""Tiny expression grammar for scene files.

Grammar (deliberately minimal): identifiers, numbers, ``+ - * / ^``,
parentheses, the functions ``sin cos exp log`` and the constants ``pi`` and
``e``.  Expressions compile to jet-evaluating callables, so every field built
from a scene file has exact derivatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import SceneError
from .jets import Jet2
from .manifolds import ModelManifold, ScalarField

__all__ = ["parse_expression", "compile_field"]

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


@dataclass
class _Tok:
    kind: str   # num | name | op
    text: str
    pos: int


def _tokenize(src: str) -> list:
    out, i = [], 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if not m or m.end() == i:
            if src[i:].strip() == "":
                break
            raise SceneError(f"bad token at position {i}: {src[i:i+8]!r}")
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
    """Recursive descent: sum > product > unary > power > atom."""

    def __init__(self, tokens: list, source: str):
        self.toks = tokens
        self.src = source
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise SceneError(f"unexpected end of expression: {self.src!r}")
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise SceneError(f"expected {op!r} at position {t.pos} "
                             f"in {self.src!r}")

    def parse(self):
        node = self.sum()
        if self.peek() is not None:
            t = self.peek()
            raise SceneError(f"trailing input at position {t.pos} "
                             f"in {self.src!r}")
        self.check_depth(_height(node))
        return node

    def check_depth(self, levels: int):
        if levels > MAX_DEPTH:
            raise SceneError(f"expression nests deeper than {MAX_DEPTH} "
                             f"levels (starts {self.src[:40]!r})")

    def sum(self):
        node = self.product()
        while (t := self.peek()) and t.kind == "op" and t.text in "+-":
            self.next()
            rhs = self.product()
            node = ("add" if t.text == "+" else "sub", node, rhs)
        return node

    def product(self):
        node = self.unary()
        while (t := self.peek()) and t.kind == "op" and t.text in "*/":
            self.next()
            rhs = self.unary()
            node = ("mul" if t.text == "*" else "div", node, rhs)
        return node

    def unary(self):
        # every recursion of the descent passes here: bound its depth
        self.depth += 1
        self.check_depth(self.depth)
        t = self.peek()
        if t and t.kind == "op" and t.text in "+-":
            self.next()
            node = self.unary()
            if t.text == "-":
                node = ("neg", node)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        t = self.peek()
        if t and t.kind == "op" and t.text == "^":
            self.next()
            return ("pow", base, self.unary())  # right associative
        return base

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return ("const", float(t.text))
        if t.kind == "op" and t.text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        if t.kind == "name":
            if t.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return ("call", t.text, arg)
            if t.text in _CONSTANTS:
                return ("const", _CONSTANTS[t.text])
            return ("var", t.text)
        raise SceneError(f"unexpected token {t.text!r} at position {t.pos} "
                         f"in {self.src!r}")


def _height(node) -> int:
    """Height of an AST, counted level by level without recursion."""
    height, level = 0, [node]
    while level:
        height += 1
        level = [c for nd in level for c in nd[1:] if isinstance(c, tuple)]
    return height


def parse_expression(src: str):
    """Parse to an AST of nested tuples; raises SceneError on bad input,
    including expressions nested deeper than ``MAX_DEPTH``."""
    return _Parser(_tokenize(src), src).parse()


def _evaluate(node, env: dict) -> Jet2:
    kind = node[0]
    if kind == "const":
        some = next(iter(env.values()))
        return some * 0.0 + node[1]
    if kind == "var":
        if node[1] not in env:
            raise SceneError(f"unknown identifier {node[1]!r}; "
                             f"expected one of {sorted(env)}")
        return env[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], env)
    if kind == "add":
        return _evaluate(node[1], env) + _evaluate(node[2], env)
    if kind == "sub":
        return _evaluate(node[1], env) - _evaluate(node[2], env)
    if kind == "mul":
        return _evaluate(node[1], env) * _evaluate(node[2], env)
    if kind == "div":
        return _evaluate(node[1], env) / _evaluate(node[2], env)
    if kind == "pow":
        base = _evaluate(node[1], env)
        exp = node[2]
        if exp[0] == "const":
            return base ** exp[1]
        return base ** _evaluate(exp, env)
    if kind == "call":
        arg = _evaluate(node[2], env)
        return getattr(arg, node[1])()
    raise SceneError(f"unknown node {kind!r}")  # pragma: no cover


def compile_field(src: str, domain: ModelManifold) -> ScalarField:
    """Compile an expression into a scalar field on ``domain``; identifiers
    bind to coordinates by the manifold's labels."""
    ast = parse_expression(src)

    def fn(jets):
        env = {nm: j for nm, j in zip(domain.labels, jets)}
        return _evaluate(ast, env)

    return ScalarField(domain, fn, name=src)
