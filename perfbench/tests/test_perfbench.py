"""Tests of the benchmark itself: span arithmetic, failure accounting, and
that tracing leaves the program as it found it.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

import tracer as tracer_mod
import worker
from tracer import LAYERS, Tracer

REPO = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeJet:
    def __init__(self, size):
        self.f = [0.0] * size


def test_self_time_on_a_nested_call_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", clock)
    t = Tracer()
    t.active = True

    def jet_mul(a, b):
        clock.advance(0.125)
        return FakeJet(8)

    mul = t._jet_wrapper(jet_mul, coercing=True)
    leaf = t._span_wrapper(lambda: clock.advance(2.0), "forms.leaf", "forms")

    def mid_body(depth=0):
        clock.advance(1.0)
        mul(FakeJet(8), 2.0)       # scalar operand
        mul(FakeJet(8), FakeJet(8))
        leaf()
        if depth == 0:
            mid(depth=1)           # direct recursion stays in one span
        clock.advance(0.5)

    mid = t._span_wrapper(mid_body, "manifolds.mid", "manifolds")
    inner = t._span_wrapper(lambda: clock.advance(0.75),
                            "scenes.canonical_report_json", "scenes")

    def digest_body():
        clock.advance(0.25)
        inner()

    digest = t._span_wrapper(digest_body, "scenes.report_digest", "scenes")

    root = t.root("command scene")
    clock.advance(0.25)
    mid()
    digest()
    t.close(root)

    m = t.layer_metrics()
    # mid: 2 x (1.0 + 0.5) own time; 4 jets calls and 2 leaves are children
    assert m["manifolds.self_s"] == pytest.approx(3.0)
    assert m["manifolds.calls"] == 1
    assert m["forms.self_s"] == pytest.approx(4.0)
    assert m["forms.calls"] == 2
    assert m["jets.calls"] == 4
    assert m["jets.points"] == 32
    assert m["jets.points_per_call"] == 8
    assert m["jets.scalar_operand_calls"] == 2
    assert m["jets.self_s"] == pytest.approx(0.5)
    # the digest calls the canonical writer: only the outer span counts
    assert m["scenes.report.total_s"] == pytest.approx(1.0)
    assert m["scenes.self_s"] == pytest.approx(1.0)
    assert root.self_s == pytest.approx(0.25)
    assert root.duration == pytest.approx(
        0.25 + 3.0 + 4.0 + 0.5 + 1.0)
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) \
        == pytest.approx(root.duration - root.self_s)


def _report(passed, verdicts):
    return {"passed": passed, "scene": "s", "command": "c", "digest": "d",
            "verdicts": {k: {"passed": v} for k, v in verdicts.items()}}


def test_fail_share_counts_raising_and_mismatched_runs(tmp_path):
    from lcslab.errors import PreconditionError, SceneError

    def raises(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    def returns(report):
        return lambda *args, **kwargs: report

    exit1 = {"scene": "s", "command": "c", "outcome": "scene-error",
             "verdicts": None}
    exit2 = {"scene": "s", "command": "c", "outcome": "fail",
             "verdicts": {"a": True, "b": False}}
    outcomes = [
        worker.run_entry(exit1, tmp_path, 0, raises(SceneError("bad"))),
        worker.run_entry(exit2, tmp_path, 0,
                         returns(_report(False, {"a": True, "b": False}))),
        # a crash is counted and recorded, not raised
        worker.run_entry(exit2, tmp_path, 0,
                         raises(PreconditionError("no flow", step=1e-3))),
        # right outcome class, wrong verdict map
        worker.run_entry(exit2, tmp_path, 0,
                         returns(_report(False, {"a": False, "b": False}))),
        # a scene error where verdicts were expected
        worker.run_entry(exit2, tmp_path, 0, raises(SceneError("bad"))),
    ]
    assert [o.failed for o in outcomes] == [False, False, True, True, True]
    assert outcomes[0].outcome == "scene-error"
    assert outcomes[1].outcome == "fail"
    assert outcomes[2].error == "PreconditionError: no flow (step=0.001)"
    assert worker.fail_share(outcomes) == pytest.approx(3 / 5)
    assert worker.fail_share(outcomes[:2]) == 0.0


def _snapshot():
    """Every name bound in an lcslab module or class namespace."""
    import inspect
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "lcslab" or name.startswith("lcslab."):
            for attr, obj in vars(mod).items():
                snap[(name, attr)] = obj
                if inspect.isclass(obj):
                    for cattr, cobj in vars(obj).items():
                        snap[(name, attr, cattr)] = cobj
    return snap


def test_traced_run_restores_every_wrapped_name(tmp_path, monkeypatch):
    import lcslab  # noqa: F401  (imports every layer)
    from lcslab import scenes
    from lcslab.manifolds import ScalarField
    from lcslab.numerics import gauss_newton

    monkeypatch.setattr(worker, "SCENES", REPO / "scenes")
    entries = [e for e in worker.load_workloads()["catalog"]
               if e["command"] == "projection-degree"]
    before = _snapshot()
    t = Tracer()
    t.install()
    try:
        assert scenes.run_command is not before[("lcslab.scenes",
                                                  "run_command")]
        assert sys.modules["lcslab.moser"].gauss_newton is not gauss_newton

        class Field(ScalarField):   # made while tracing, as moser does
            __module__ = "lcslab.moser"

            def jet(self, points, order=2):
                return super().jet(points, order)

        assert hasattr(Field.__dict__["jet"], "__wrapped__")
        _, _, outcomes = worker.sweep(entries, 0, tmp_path, t)
    finally:
        t.uninstall()
    assert not any(o.failed for o in outcomes)
    assert t.layer_metrics()["numerics.gauss_newton.calls"] >= 1
    assert "__wrapped__" not in vars(Field.__dict__["jet"])
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
