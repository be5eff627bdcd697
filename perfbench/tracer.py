"""Outside-in tracer for the benchmark's traced run.

The tracer changes no file of the program.  While installed it replaces the
public functions and methods of each ``lcslab`` layer module with wrappers
that record a span per call, and it rebinds every ``lcslab.*`` namespace that
imported one of those names, so calls through ``from .numerics import
gauss_newton`` are seen too.  ``uninstall`` puts every original object back,
so an untraced run measures the unmodified program.

Spans stay in memory with a link to their parent; a span's self time is its
duration minus the time of its child spans.  ``Jet2`` arithmetic is far too
frequent for one span per operation (about a million calls on the ``flow``
workload), so jets calls are aggregated into the span that made them: count,
batch points, calls with a scalar operand, and time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from time import perf_counter

import numpy as np

# Layer modules of ``lcslab``, bottom up; the layer of a span is its module.
LAYERS = ("jets", "manifolds", "forms", "structures", "lagrangians",
          "numerics", "chords", "extension", "moser", "expressions", "scenes")

# Private names wrapped as well, because a layer's work or a counted event
# happens there: expression trees are evaluated by ``_evaluate`` (called from
# compiled fields' closures), and every embedding passes ``__post_init__``.
PRIVATE = {"expressions": ("_evaluate",),
           "lagrangians": ("ParametricEmbedding.__post_init__",)}

# Jet2 arithmetic that promotes a non-jet operand through ``Jet2._coerce``.
_COERCING = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__"})
_SCALARS = (int, float, np.number)
# Operators count as public methods.
_OPERATORS = _COERCING | {"__neg__", "__pow__", "__call__"}

EXTENSION_STAGES = ("build_core", "near_zero_extension",
                    "radial_log_interpolation", "mollify", "outer_flatten",
                    "verify_radial_bound")


class Span:
    __slots__ = ("id", "parent", "key", "layer", "start", "end", "child_s",
                 "jets_calls", "jets_points", "jets_scalar", "jets_s")

    def __init__(self, id_, parent, key, layer):
        self.id = id_
        self.parent = parent
        self.key = key
        self.layer = layer
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.jets_calls = self.jets_points = self.jets_scalar = 0
        self.jets_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _public(name: str, private=(), owner: str = "") -> bool:
    return (not name.startswith("_") or name in _OPERATORS
            or (f"{owner}.{name}" if owner else name) in private)


def _rows(points) -> int:
    shape = np.shape(getattr(points, "coords", points))
    return math.prod(shape[:-1]) if shape else 1


def _batch_points(out) -> int:
    f = getattr(out, "f", None)
    if f is None and isinstance(out, (list, tuple)) and out:
        f = getattr(out[0], "f", None)
    return 0 if f is None else int(np.size(f))


class Tracer:
    """Install with :meth:`install`, run, then :meth:`uninstall`."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[Span] = []
        self._in_jets = False
        self._restore: list[tuple] = []   # (namespace, name, original)
        self._hooked: list[type] = []     # classes given __init_subclass__
        self._post = {
            "forms.FormExpression.jets": self._count_form_points,
            "forms.FormExpression.coefficients": self._count_form_points,
            "chords.scan_chords": self._count_chords,
            "moser.integrate_flow": self._count_halvings,
            "lagrangians.ParametricEmbedding.__post_init__":
                self._count_embedding,
        }
        self._flow_signature = None

    # -------------------------------------------------------------- spans

    def root(self, key: str) -> Span:
        """Open a top-level span (one per command run)."""
        span = Span(len(self.spans), None, key, "bench")
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError("spans closed out of order")

    def _span_wrapper(self, fn, key: str, layer: str):
        tracer = self
        post = self._post.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or not stack or stack[-1].key == key:
                # untraced, outside a command, or direct recursion
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(len(tracer.spans), parent.id, key, layer)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                parent.child_s += span.end - span.start
            if post is not None:
                post(parent, args, kwargs, out)
            return out

        return wrapper

    def _jet_wrapper(self, fn, coercing: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_jets or not tracer.active or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._in_jets = True
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_jets = False
                span = tracer._stack[-1]
                span.jets_calls += 1
                span.jets_s += dt
                span.child_s += dt
                span.jets_points += _batch_points(out)
                if coercing and isinstance(args[1], _SCALARS):
                    span.jets_scalar += 1
            return out

        return wrapper

    # ------------------------------------------------------------ counters

    def _add(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _count_form_points(self, parent, args, kwargs, out):
        if not parent.key.startswith("forms.FormExpression."):
            self._add("forms.points",
                      _rows(args[1] if len(args) > 1 else kwargs["points"]))

    def _count_chords(self, parent, args, kwargs, out):
        self._add("chords.seeds", out.seed_count)
        self._add("chords.found", len(out.chords))
        self._add("chords.unresolved", len(out.unresolved_seeds))

    def _count_halvings(self, parent, args, kwargs, out):
        bound = self._flow_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self._add("moser.richardson_halvings",
                  round(math.log2(bound.arguments["step"] / out.step)))

    def _count_embedding(self, parent, args, kwargs, out):
        self._add("lagrangians.embeddings_built", 1)

    # ------------------------------------------------------------- install

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"lcslab.{name}")
                   for name in LAYERS}
        self._flow_signature = inspect.signature(
            modules["moser"].integrate_flow)
        for layer, mod in modules.items():
            private = PRIVATE.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer, private)
                    if "jet" in vars(obj) and obj.__bases__ == (object,):
                        self._hook_subclasses(obj)
                elif inspect.isfunction(obj) and _public(name, private):
                    self._wrap_function(name, obj, layer)
        self.active = True

    def _wrapper(self, fn, key, layer, attr):
        if layer == "jets":
            return self._jet_wrapper(fn, attr in _COERCING)
        return self._span_wrapper(fn, key, layer)

    def _wrap_function(self, name, fn, layer) -> None:
        wrapper = self._wrapper(fn, f"{layer}.{name}", layer, name)
        for ns_name, ns in list(sys.modules.items()):
            if ((ns_name == "lcslab" or ns_name.startswith("lcslab."))
                    and vars(ns).get(name) is fn):
                self._restore.append((ns, name, fn))
                setattr(ns, name, wrapper)

    def _wrap_class(self, cls, layer, private=()) -> None:
        for attr, raw in list(vars(cls).items()):
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not (inspect.isfunction(fn)
                    and _public(attr, private, cls.__name__)):
                continue   # private helpers, properties, class attributes
            wrapper = self._wrapper(fn, f"{layer}.{cls.__name__}.{attr}",
                                    layer, attr)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def _hook_subclasses(self, base) -> None:
        """Wrap subclasses of ``base`` created while tracing, such as the
        field class that moser builds inside a function to override ``jet``."""
        tracer = self

        def hook(cls, **kwargs):
            super(base, cls).__init_subclass__(**kwargs)
            layer = cls.__module__.rpartition(".")[2]
            if tracer.active and layer in LAYERS:
                tracer._wrap_class(cls, layer)

        base.__init_subclass__ = classmethod(hook)
        self._hooked.append(base)

    def uninstall(self) -> None:
        self.active = False
        for ns, name, original in reversed(self._restore):
            setattr(ns, name, original)
        for cls in self._hooked:
            del cls.__init_subclass__
        self._restore.clear()
        self._hooked.clear()

    # -------------------------------------------------------------- output

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, key, start, end, self_s,
        jets calls, jets points, jets scalar-operand calls, jets time."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.id, s.parent, s.key, round(s.start - t0, 9),
                    round(s.end - t0, 9), round(s.self_s, 9), s.jets_calls,
                    s.jets_points, s.jets_scalar, round(s.jets_s, 9)]) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics over every span recorded so far; zero where a
        layer was idle.

        ``<layer>.calls`` counts entries into the layer from another layer;
        ``<name>.calls`` counts every call of that function.  A ``total_s``
        sums only the outermost of nested spans of the same functions.
        """
        by_id = {s.id: s for s in self.spans}
        by_key: dict[str, list[Span]] = {}
        out = {f"{layer}.{m}": 0 for layer in LAYERS[1:]
               for m in ("calls", "self_s")}
        jets = [0, 0, 0, 0.0]
        for s in self.spans:
            jets[0] += s.jets_calls
            jets[1] += s.jets_points
            jets[2] += s.jets_scalar
            jets[3] += s.jets_s
            if s.layer == "bench":
                continue
            by_key.setdefault(s.key, []).append(s)
            out[f"{s.layer}.self_s"] += s.self_s
            if by_id[s.parent].layer != s.layer:
                out[f"{s.layer}.calls"] += 1

        def count(key):
            return len(by_key.get(key, ()))

        def total(*keys):
            t = 0.0
            for key in keys:
                for s in by_key.get(key, ()):
                    p = by_id.get(s.parent)
                    while p is not None and p.key not in keys:
                        p = by_id.get(p.parent)
                    if p is None:
                        t += s.duration
            return t

        def counter(name):
            return self.counters.get(name, 0)

        normalize = "manifolds.ModelManifold.normalize"
        out.update({
            "jets.calls": jets[0],
            "jets.points": jets[1],
            "jets.points_per_call": jets[1] / jets[0] if jets[0] else 0.0,
            "jets.scalar_operand_calls": jets[2],
            "jets.self_s": jets[3],
            "manifolds.normalize.calls": count(normalize),
            "manifolds.normalize.self_s": sum(
                s.self_s for s in by_key.get(normalize, ())),
            "forms.points": counter("forms.points"),
            "lagrangians.solve_primitive.calls":
                count("lagrangians.solve_primitive"),
            "lagrangians.solve_primitive.total_s":
                total("lagrangians.solve_primitive"),
            "lagrangians.embeddings_built":
                counter("lagrangians.embeddings_built"),
            "numerics.gauss_newton.calls": count("numerics.gauss_newton"),
            "numerics.rk4_linear_path.calls":
                count("numerics.rk4_linear_path"),
            "chords.scan.calls": count("chords.scan_chords"),
            "chords.scan.total_s": total("chords.scan_chords"),
            "chords.seeds": counter("chords.seeds"),
            "chords.found": counter("chords.found"),
            "chords.yield": (counter("chords.found") / counter("chords.seeds")
                             if counter("chords.seeds") else 0.0),
            "chords.unresolved": counter("chords.unresolved"),
            "extension.build.calls":
                count("extension.build_positive_extension"),
            "extension.build.total_s":
                total("extension.build_positive_extension"),
            "moser.integrate_flow.calls": count("moser.integrate_flow"),
            "moser.integrate_flow.total_s": total("moser.integrate_flow"),
            "moser.verify_pullback.total_s":
                total("moser.verify_conformal_pullback"),
            "moser.straighten.total_s": total("moser.straighten_lagrangian"),
            "moser.richardson_halvings":
                counter("moser.richardson_halvings"),
            "expressions.compile.calls": count("expressions.compile_field"),
            "scenes.load.total_s": total("scenes.load_scene"),
            # canonical JSON plus digest; the digest calls the writer
            "scenes.report.total_s": total("scenes.canonical_report_json",
                                           "scenes.report_digest"),
        })
        for stage in EXTENSION_STAGES:
            out[f"extension.stage.{stage}.total_s"] = total(
                f"extension.{stage}")
        return out
