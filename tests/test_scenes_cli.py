"""Scene schema, CLI exit codes, artifact files, and report determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcslab import lagrangians, scenes
from lcslab.cli import main
from lcslab.errors import SceneError
from lcslab.expressions import compile_field
from lcslab.manifolds import make_manifold, sample_points
from lcslab.scenes import load_scene, report_digest, run_command

SCENES = Path(__file__).resolve().parent.parent / "scenes"


# -------------------------------------------------------------- expressions

def test_expression_parser_basics():
    t2 = make_manifold(2, 0)
    f = compile_field("sin(q1)*cos(q2) + q1^2/4 - e", t2)
    pts = sample_points(t2, 32)
    expected = (np.sin(pts[:, 0]) * np.cos(pts[:, 1])
                + pts[:, 0] ** 2 / 4 - np.e)
    assert np.abs(f.value(pts) - expected).max() <= 1e-12


def test_expression_unary_minus_and_pi():
    t1 = make_manifold(1, 0)
    f = compile_field("-cos(q1 - pi)", t1)
    assert f.value(np.array([0.0])) == pytest.approx(1.0)


def test_expression_jets_are_exact():
    t1 = make_manifold(1, 0)
    f = compile_field("exp(sin(q1))", t1)
    jet = f.jet(np.array([0.4]))
    s, c = np.sin(0.4), np.cos(0.4)
    assert jet.f == pytest.approx(np.exp(s))
    assert jet.g[0] == pytest.approx(np.exp(s) * c)
    assert jet.h[0, 0] == pytest.approx(np.exp(s) * (c * c - s))


def test_expression_errors():
    t1 = make_manifold(1, 0)
    with pytest.raises(SceneError):
        compile_field("sin(q1", t1)
    with pytest.raises(SceneError):
        compile_field("q1 + * 2", t1)
    # a name the chart lacks is refused when compiled, not when evaluated
    with pytest.raises(SceneError, match="unknown identifier 'nope'"):
        compile_field("nope + 1", t1)


@pytest.mark.parametrize("src, by_hand", [
    ("2.5", lambda q1, q2: q1 * 0.0 + 2.5),
    ("pi", lambda q1, q2: q1 * 0.0 + np.pi),
    ("e", lambda q1, q2: q1 * 0.0 + np.e),
    ("q2", lambda q1, q2: q2),
    ("-q1", lambda q1, q2: -q1),
    ("q1 + q2", lambda q1, q2: q1 + q2),
    ("q1 - q2", lambda q1, q2: q1 - q2),
    ("q1 * q2", lambda q1, q2: q1 * q2),
    ("q1 / q2", lambda q1, q2: q1 / q2),
    ("q2 ^ 3", lambda q1, q2: q2 ** 3.0),
    ("q2 ^ q1", lambda q1, q2: q2 ** q1),
    ("q2 ^ q1 ^ 2", lambda q1, q2: q2 ** (q1 ** 2.0)),
    ("sin(q1)", lambda q1, q2: q1.sin()),
    ("cos(q1)", lambda q1, q2: q1.cos()),
    ("exp(q1)", lambda q1, q2: q1.exp()),
    ("log(q2)", lambda q1, q2: q2.log()),
    ("(q1 - q2) * q2", lambda q1, q2: (q1 - q2) * q2),
], ids=["number", "pi", "e", "coordinate", "neg", "add", "sub", "mul", "div",
        "constant-power", "expression-power", "right-associative-power",
        "sin", "cos", "exp", "log", "parentheses"])
def test_compiled_closures_apply_the_jet_operations(src, by_hand):
    # bit for bit the Jet2 operations of the node, in the same order
    from lcslab.jets import seed_jets
    t2 = make_manifold(2, 0)
    coords = np.array([[0.7, 2.0], [3.0, 0.4], [1.3, 1.1]])
    got = compile_field(src, t2).fn(seed_jets(coords))
    want = by_hand(*seed_jets(coords))
    for part in ("f", "g", "h"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


# ------------------------------------------------------------------- schema

def test_bad_scene_reports_json_pointer():
    with pytest.raises(SceneError) as err:
        load_scene(SCENES / "bad-schema.json")
    assert err.value.pointer.startswith("/")
    assert "manifold" in err.value.pointer or "embedding" in err.value.pointer


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(SceneError):
        run_command("no-such-command", SCENES / "example1.json", tmp_path)


# ---------------------------------------------------------------- commands

def test_cli_verify_lagrangian_example1(tmp_path):
    code = main(["verify-lagrangian", str(SCENES / "example1.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "example1-verify-lagrangian.json").read_text())
    assert rep["passed"]
    assert rep["verdicts"]["exactness"]["holonomies"]["phi"] == pytest.approx(
        np.exp(2 * np.pi), rel=1e-6)


def test_cli_scan_chords_translated_exit_2(tmp_path):
    code = main(["scan-chords", str(SCENES / "example1-translated.json"),
                 "--out", str(tmp_path)])
    assert code == 2  # obstructed at ratio 1: strictness fails the verdict
    rep = json.loads(
        (tmp_path / "example1-translated-scan-chords.json").read_text())
    assert not rep["verdicts"]["mvt_strictness"]["passed"]
    assert rep["verdicts"]["mvt_strictness"]["extremal_ratio"] == \
        pytest.approx(1.0, abs=1e-6)
    csv_path = tmp_path / "example1-translated-chords.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("base,start_fiber,t,length,ratio,defect,"
                        "essential,family_id")
    assert len(lines) > 1
    scales = sorted({round(float(l.split(",")[2]), 4) for l in lines[1:]})
    assert scales == [round(1 / 3, 4), 3.0]


def test_cli_zero_section_scan_empty(tmp_path):
    rep = run_command("scan-chords", SCENES / "zero-section.json", tmp_path)
    assert rep["passed"]
    assert rep["results"]["chords"] == []


def test_cli_moser_identity(tmp_path):
    code = main(["moser-deform", str(SCENES / "moser-identity.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(
        (tmp_path / "moser-identity-moser-deform.json").read_text())
    assert rep["verdicts"]["zero_displacement"]["passed"]
    assert rep["results"]["max_displacement"] <= 1e-12


def test_cli_moser_constant_ball(tmp_path):
    rep = run_command("moser-deform", SCENES / "moser-constant-ball.json",
                      tmp_path)
    assert rep["passed"]
    assert rep["results"]["pullback"]["residual"] <= 1e-4


def moser_ball_variant(tmp_path, name, **moser):
    """``moser-constant-ball`` with its ``moser`` block updated."""
    scene = json.loads((SCENES / "moser-constant-ball.json").read_text())
    scene["name"] = name
    scene["moser"].update(moser)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scene))
    return path


@pytest.fixture
def flow_calls(monkeypatch):
    """The problems that ``lcslab.moser.integrate_flow`` is called with,
    also through a binding that ``lcslab.scenes`` would import."""
    import lcslab.moser as moser
    import lcslab.scenes as scenes
    flow = moser.integrate_flow
    calls = []

    def counted(P, seeds, *args, **kwargs):
        calls.append(P)
        return flow(P, seeds, *args, **kwargs)

    monkeypatch.setattr(moser, "integrate_flow", counted)
    monkeypatch.setattr(scenes, "integrate_flow", counted, raising=False)
    return calls


@pytest.mark.parametrize("seed, checked", [(0, 256), (1, 255)])
def test_moser_deform_flows_once(tmp_path, flow_calls, seed, checked):
    # the pullback check rides in the command's own flow batch: one flow,
    # and the seed rows it reports are a flow of the seeds alone, bit for
    # bit (at seed 1 one of the 256 seeds lies within 1e-2 of the zero
    # section and is left out of the check)
    from lcslab.moser import integrate_flow
    scene = moser_ball_variant(tmp_path, "ball")
    rep = run_command("moser-deform", scene, tmp_path, seed=seed)
    assert rep["passed"]
    assert len(flow_calls) == 1
    assert rep["results"]["pullback"]["sample_count"] == checked
    P = flow_calls[0]
    seeds = sample_points(P.structure.total, 256, radius=3.0, seed=seed)
    want = integrate_flow(P, seeds, step=1e-3)
    rows = (tmp_path / "ball-flow.csv").read_text().splitlines()[1:]
    got = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert np.array_equal(got[:, :2].view(np.int64), seeds.view(np.int64))
    assert np.array_equal(got[:, 2:4].view(np.int64),
                          want.images.view(np.int64))
    assert np.array_equal(got[:, 4].view(np.int64),
                          want.scales.view(np.int64))


def test_moser_deform_checks_its_own_seeds(tmp_path, flow_calls):
    # at seed 7 the check covers the flowed seeds, not the seed-0 samples
    from lcslab.moser import verify_conformal_pullback
    rep = run_command("moser-deform", SCENES / "moser-constant-ball.json",
                      tmp_path, seed=7)
    P = flow_calls[0]
    seeds = sample_points(P.structure.total, 256, radius=3.0, seed=7)
    assert rep["results"]["pullback"]["residual"] == \
        verify_conformal_pullback(P, seeds[:256])["residual"]
    assert rep["results"]["pullback"]["residual"] != \
        verify_conformal_pullback(P, 256)["residual"]


def test_cli_moser_deform_fails_a_perturbed_flow(tmp_path, monkeypatch):
    # the oracle through the command: a time-1 map whose fiber scale is 1%
    # off must fail conformal_pullback with exit 2
    import lcslab.moser as moser
    flow = moser.integrate_flow

    def perturbed_flow(P, seeds, *args, **kwargs):
        res = flow(P, seeds, *args, **kwargs)
        res.images[:, P.structure.n:] *= 1.01
        return res

    monkeypatch.setattr(moser, "integrate_flow", perturbed_flow)
    code = main(["moser-deform", str(SCENES / "moser-constant-ball.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads(
        (tmp_path / "moser-constant-ball-moser-deform.json").read_text())
    verdict = rep["verdicts"]["conformal_pullback"]
    assert not verdict["passed"] and verdict["residual"] > 1e-4
    assert rep["verdicts"]["fiber_drift"]["passed"]


def test_cli_moser_deform_with_no_seed_to_check(tmp_path):
    # the one seed at --seed 363 lies within 1e-2 of the zero section
    scene = moser_ball_variant(tmp_path, "one-seed", seeds=1)
    code = main(["moser-deform", str(scene), "--seed", "363",
                 "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "one-seed-moser-deform.json").read_text())
    assert not rep["passed"]
    verdict = rep["verdicts"]["numeric_error"]
    assert verdict["type"] == "PreconditionError"
    assert verdict["message"].startswith(
        "no seed with fiber norm above 1e-2 to check")


def test_cli_lift_legendrian_pair(tmp_path):
    rep = run_command("lift-legendrian", SCENES / "legendrian-lift-pair.json",
                      tmp_path)
    assert rep["passed"]
    assert rep["verdicts"]["lift_law"]["max_defect"] <= 1e-8


def test_cli_projection_degrees(tmp_path):
    for scene, expected in [("example1.json", 2), ("zero-section.json", 1),
                            ("example2.json", 0)]:
        rep = run_command("projection-degree", SCENES / scene, tmp_path)
        assert rep["results"]["degree"] == expected
        assert rep["passed"]


def test_cli_build_extension_refusal(tmp_path):
    code = main(["build-extension", str(SCENES / "extension-obstructed.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path /
                      "extension-obstructed-build-extension.json").read_text())
    assert rep["results"]["refused"]
    assert rep["results"]["chord"] is not None
    assert rep["results"]["chord"]["mvt_ratio"] == pytest.approx(1.0,
                                                                 abs=1e-6)


def test_cli_build_extension_over_the_zero_section(tmp_path):
    # no crossing of L lies outside the inner patch, so no collar node is
    # restored: the collar check has nothing to compare and reports null
    scene = {"version": "scene-v1", "name": "zero-section-extension",
             "manifold": {"circles": 1, "lines": 0},
             "structure": {"beta": ["1"]},
             "embedding": {"library": "zero-section"},
             "extension": {"h": "2 + 0.3*sin(q1)", "base_grid": 16,
                           "shells": 32}}
    path = tmp_path / "zero-section-extension.json"
    path.write_text(json.dumps(scene))
    code = main(["build-extension", str(path), "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "zero-section-extension-build-extension"
                      ".json").read_text())
    final = rep["results"]["final"]
    assert final["passed"] and final["collar_match_sup"] is None


def test_cli_tol_override_changes_verdict(tmp_path):
    # an absurdly small exactness tolerance must flip the verdict: the
    # path-dependence residual is rounding-level but not exactly zero
    code = main(["verify-lagrangian", str(SCENES / "example1.json"),
                 "--out", str(tmp_path), "--tol-override",
                 "primitive=1e-30"])
    assert code == 2


def test_cli_negative_seed_exit_1(tmp_path, capsys):
    code = main(["moser-deform", str(SCENES / "moser-constant-ball.json"),
                 "--seed", "-1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("scene error:") and "seed must be nonnegative" in err
    with pytest.raises(SceneError, match="seed"):
        run_command("moser-deform", SCENES / "moser-constant-ball.json",
                    tmp_path, seed=-1)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [2 ** 32, 2 ** 55, 99999999999999999999])
def test_cli_seed_from_2_32_exit_1(seed, tmp_path, capsys):
    # past int64 the Halton block's index would wrap negative (a digit loop
    # that never ends) or overflow (a traceback); every seed from 2**32 on
    # is refused before any work, and nothing is written
    out = tmp_path / "out"
    code = main(["moser-deform", str(SCENES / "moser-identity.json"),
                 "--seed", str(seed), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("scene error:") and "below 2**32" in err
    assert not out.exists()
    code = main(["moser-deform", str(SCENES / "moser-identity.json"),
                 "--seed", str(2 ** 32 - 1), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("name", ["../escaped", "sub/dir", ".hidden", "",
                                  "trailing\n"])
def test_cli_scene_name_must_be_one_path_component(name, tmp_path, capsys):
    # the name prefixes every output path, so it may not leave --out
    scene = json.loads((SCENES / "zero-section.json").read_text())
    scene["name"] = name
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "out"
    code = main(["validate-structure", str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("scene error: /name:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.json"]


@pytest.mark.parametrize("command, scene_file, block, key, value", [
    ("full-pipeline", "beta-graph-pipeline.json", "extension", "base_grid", 0),
    ("full-pipeline", "beta-graph-pipeline.json", "extension", "base_grid", 1),
    ("build-extension", "beta-graph-pipeline.json", "extension", "shells", 0),
    ("build-extension", "beta-graph-pipeline.json", "extension", "shells", 2),
    ("build-extension", "beta-graph-pipeline.json", "extension",
     "directions", 0),
    ("moser-deform", "moser-constant-ball.json", "moser", "seeds", 0),
    ("moser-deform", "moser-constant-ball.json", "moser", "outside_radius",
     -3.0),
    ("moser-deform", "moser-constant-ball.json", "moser", "outside_radius",
     0.0),
    ("build-extension", "extension-tube.json", "extension", "r_min", 0),
    ("build-extension", "extension-tube.json", "extension", "r_min", -1),
    ("build-extension", "extension-tube.json", "extension", "r_max", 0),
    ("build-extension", "extension-tube.json", "extension", "r_min", 16.0),
])
def test_cli_grid_too_small_is_a_scene_error(command, scene_file, block, key,
                                             value, tmp_path, capsys):
    # a grid too small to compute with, or an empty radius range (a Moser
    # far field at a radius of at most 0 among them), is refused with its
    # pointer before any numerics run
    scene = json.loads((SCENES / scene_file).read_text())
    scene[block][key] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scene error: /{block}/{key}:")
    assert not out.exists()


@pytest.mark.parametrize("command, scene_file, block, key, value", [
    ("moser-deform", "moser-constant-ball.json", "moser", "step", 1e-3),
    ("moser-deform", "moser-constant-ball.json", "moser", "verify_pullback",
     True),
    ("validate-structure", "zero-section.json", "grids", "samples", 1024),
    ("validate-structure", "zero-section.json", "grids", "fiber_radius", 4.0),
    ("verify-lagrangian", "example1.json", "embedding", "q_manifold",
     {"circles": 1}),
], ids=["moser-step", "moser-verify_pullback", "grids-samples",
        "grids-fiber_radius", "embedding-q_manifold"])
def test_cli_unknown_scene_key_is_refused_at_its_block(
        command, scene_file, block, key, value, tmp_path, capsys):
    # keys no command reads are unknown keys, even at their old defaults
    scene = json.loads((SCENES / scene_file).read_text())
    scene[block][key] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scene error: /{block}: Additional properties")
    assert f"'{key}' was unexpected" in err
    assert not out.exists()


def test_cli_nan_outside_radius_fails_the_far_field_check(tmp_path):
    # a NaN radius never passes the check that g is 1 outside it: a failed
    # verdict with the report written, not a pass
    path = moser_ball_variant(tmp_path, "ball", outside_radius=float("nan"))
    out = tmp_path / "out"
    code = main(["moser-deform", str(path), "--out", str(out)])
    assert code == 2
    report = json.loads((out / "ball-moser-deform.json").read_text())
    error = report["verdicts"]["numeric_error"]
    assert error["type"] == "PreconditionError"
    assert error["message"].startswith(
        "conformal factor must equal 1 outside the stated radius")


def test_cli_scene_error_quotes_a_long_value_in_part(tmp_path, capsys):
    # jsonschema's message quotes the whole offending value: the line keeps
    # its pointer, both ends of the message and the failing keyword
    path = write_scene(tmp_path, "zero-section.json",
                       legendrians=[list(range(100_000))])
    out = tmp_path / "out"
    code = main(["validate-structure", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("scene error: /legendrians/0: [0, 1, 2, ")
    assert err.rstrip().endswith("is not of type 'string' (keyword 'type')")
    assert len(err.encode()) < 1024
    assert not out.exists()


LONG = 100_000


@pytest.mark.parametrize("expression", [
    "q1" + " " * LONG + "q2",
    "q1 +" + " " * LONG,
    "x" * LONG,
    "sin(q1" + " " * LONG + "q2)",
    ")" + " " * LONG,
], ids=["trailing-input", "unexpected-end", "unknown-identifier",
        "expected-paren", "unexpected-token"])
def test_cli_long_expression_error_is_one_short_line(expression, tmp_path,
                                                     capsys):
    # every scene error over 300 characters keeps only its two ends
    path = write_scene(tmp_path, "zero-section.json",
                       structure={"beta": [expression, "0"]})
    out = tmp_path / "out"
    code = main(["validate-structure", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("scene error: /structure/beta/0: ")
    assert err.count("\n") == 1
    assert len(err.encode()) < 1024
    assert not out.exists()


def test_cli_moser_seeds_above_2_to_the_20_is_a_scene_error(
        tmp_path, capsys, monkeypatch):
    # 2**40 seeds at --seed 2**24 once left the int64 Halton index in a
    # traceback; 2**20 seeds keep (seed + 1) * seeds below 2**53
    assert load_scene(moser_ball_variant(tmp_path, "most",
                                         seeds=2 ** 20))["moser"]["seeds"]
    # a million seeds must never be drawn, even without the bound
    monkeypatch.setattr(scenes, "sample_points",
                        lambda *a, **k: pytest.fail("seeds were sampled"))
    path = moser_ball_variant(tmp_path, "many", seeds=2 ** 20 + 1)
    out = tmp_path / "out"
    code = main(["moser-deform", str(path), "--out", str(out),
                 "--seed", str(2 ** 24)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "scene error: /moser/seeds: 1048577 is greater than the maximum")
    assert not out.exists()


BAD = "1 + #"
EXPRESSION_KEYS = [
    ("validate-structure", "zero-section.json",
     {"structure": {"beta": [BAD, "0"]}}, "/structure/beta/0"),
    ("verify-lagrangian", "beta-graph-pipeline.json",
     {"embedding": {"library": "beta-graph", "f": BAD}}, "/embedding/f"),
    ("verify-lagrangian", "legendrian-lift-pair.json",
     {"embedding": {"library": "legendrian-lift", "jet_function": BAD}},
     "/embedding/jet_function"),
    ("verify-lagrangian", "legendrian-lift-pair.json",
     {"embedding": {"library": "legendrian-lift", "jet_function": "1",
                    "q_form": [BAD]}}, "/embedding/q_form/0"),
    ("verify-lagrangian", "extension-tube.json",
     {"embedding": {"components": ["u1", BAD], "source": {"circles": 1}}},
     "/embedding/components/1"),
    ("verify-lagrangian", "extension-tube.json",
     {"embedding": {"components": ["u1", "0.3"], "source": {"circles": 1},
                    "primitive": BAD}}, "/embedding/primitive"),
    ("verify-lagrangian", "example1-translated.json",
     {"embedding": {"library": "example-torus-1",
                    "translate": {"c": -2.0, "eta": [BAD, "1"]}}},
     "/embedding/translate/eta/0"),
    ("moser-deform", "moser-identity.json",
     {"moser": {"g": {"expression": BAD}}}, "/moser/g/expression"),
    ("build-extension", "extension-tube.json",
     {"extension": {"h": BAD}}, "/extension/h"),
    ("lift-legendrian", "legendrian-lift-pair.json",
     {"legendrians": [BAD, "2"]}, "/legendrians/0"),
    ("full-pipeline", "beta-graph-pipeline.json",
     {"moser": {"eta_prime": [BAD]}}, "/moser/eta_prime/0"),
    ("scan-chords", "two-graphs.json",
     {"second_embedding": {"library": "beta-graph", "f": BAD}},
     "/second_embedding/f"),
]


@pytest.mark.parametrize("command, base, changes, pointer", EXPRESSION_KEYS,
                         ids=[case[-1] for case in EXPRESSION_KEYS])
def test_cli_expression_error_names_its_pointer(command, base, changes,
                                                pointer, tmp_path, capsys):
    path = write_scene(tmp_path, base, **changes)
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"scene error: {pointer}: bad token at position 3: ' #'")
    assert not out.exists()


def test_cli_unknown_identifier_is_refused_before_the_chord_scan(
        tmp_path, capsys, monkeypatch):
    # compiling h binds its names: a typo is refused before the extension
    # scans L for obstructing chords, not at h's first evaluation after it
    import lcslab.chords as chords
    scans = []
    scan = chords.scan_chords
    monkeypatch.setattr(chords, "scan_chords",
                        lambda *a, **k: scans.append(1) or scan(*a, **k))
    path = write_scene(tmp_path, "extension-tube.json",
                       extension={"h": "1 + 0.2*sin(x1)"})
    out = tmp_path / "out"
    code = main(["build-extension", str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "scene error: /extension/h: unknown identifier 'x1'")
    assert not scans
    assert not out.exists()


@pytest.mark.parametrize("keys, value, pointer", [
    (("moser", "g", "constant_ball", "r_in"), 2.0, "/moser/g/constant_ball"),
    (("tolerances",), {"pulback": 1e-30}, "/tolerances"),
], ids=["empty-blend-shell", "misspelt-tolerance"])
def test_cli_inconsistent_moser_scene_is_a_scene_error(keys, value, pointer,
                                                       tmp_path, capsys):
    # an empty blend shell and a misspelt tolerance name are refused with
    # their pointer, not run
    scene = json.loads((SCENES / "moser-constant-ball.json").read_text())
    block = scene
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "out"
    code = main(["moser-deform", str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scene error: {pointer}:")
    assert not out.exists()


def test_cli_unknown_tol_override_is_a_scene_error(tmp_path, capsys):
    code = main(["moser-deform", str(SCENES / "moser-constant-ball.json"),
                 "--out", str(tmp_path), "--tol-override", "pulback=1e-30"])
    assert code == 1
    assert "'pulback'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_scan_chords_checks_a_declared_primitive(tmp_path):
    # the graph of q2 dq1 is not Lagrangian (d(q2 dq1) != 0): its declared
    # primitive is refused as a solved one would be
    scene = {"version": "scene-v1", "name": "bent-graph",
             "manifold": {"circles": 2, "lines": 0},
             "structure": {"beta": ["0", "0"]},
             "embedding": {"components": ["u1", "u2", "u2", "0"],
                           "primitive": "1"},
             "grids": {"chord_grid": 8}}
    path = tmp_path / "bent-graph.json"
    path.write_text(json.dumps(scene))
    code = main(["scan-chords", str(path), "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "bent-graph-scan-chords.json").read_text())
    error = report["verdicts"]["numeric_error"]
    assert "not Lagrangian" in error["message"]


def write_scene(tmp_path, base, **changes):
    """A copy of the fixture scene ``base`` with top-level keys replaced."""
    scene = json.loads((SCENES / base).read_text())
    scene.update(changes)
    path = tmp_path / f"{scene['name']}.json"
    path.write_text(json.dumps(scene))
    return path


@pytest.mark.parametrize("second, pointer", [
    ({"library": "beta-graph"}, "/second_embedding/f"),
    ({"components": ["u1"]}, "/second_embedding/components"),
    ({}, "/second_embedding"),
], ids=["f", "components", "kind"])
def test_second_embedding_errors_point_at_it(second, pointer, tmp_path):
    path = write_scene(tmp_path, "two-graphs.json", second_embedding=second)
    with pytest.raises(SceneError) as err:
        run_command("scan-chords", path, tmp_path / "out")
    assert err.value.pointer == pointer


def test_cli_validate_structure_zero_section(tmp_path):
    code = main(["validate-structure", str(SCENES / "zero-section.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(
        (tmp_path / "zero-section-validate-structure.json").read_text())
    assert sorted(rep["verdicts"]) == ["euler_contraction",
                                       "lee_form_closed",
                                       "omega_nondegenerate"]
    assert all(v["passed"] for v in rep["verdicts"].values())


def test_cli_legendrian_lift_library_embedding(tmp_path):
    path = write_scene(
        tmp_path, "legendrian-lift-pair.json", name="lift",
        embedding={"library": "legendrian-lift",
                   "jet_function": "2 + 0.5*sin(q1)"},
        grids={"parameter": 32})
    rep = run_command("verify-lagrangian", path, tmp_path)
    assert rep["passed"]
    assert rep["verdicts"]["lagrangian"]["passed"]
    assert rep["verdicts"]["exactness"]["passed"]


@pytest.mark.parametrize("embedding", [
    # eta spelled out as beta's coefficients: the declared primitive is
    # dropped, and the translate's primitive is solved
    {"library": "example-torus-1", "translate": {"c": -2.0,
                                                 "eta": ["0", "1"]}},
    # the same translate written out as components, with no primitive
    {"components": ["2*u1", "u2", "cos(u1)/2", "-sin(u1) - 2"]},
], ids=["translate-eta", "components"])
def test_cli_scan_chords_with_a_solved_primitive(embedding, tmp_path):
    default = run_command("scan-chords", SCENES / "example1-translated.json",
                          tmp_path / "default")
    path = write_scene(tmp_path, "example1-translated.json",
                       embedding=embedding)
    rep = run_command("scan-chords", path, tmp_path / "solved")
    assert not rep["passed"]
    for name, verdict in default["verdicts"].items():
        assert rep["verdicts"][name]["passed"] == verdict["passed"], name
    assert rep["verdicts"]["mvt_strictness"]["extremal_ratio"] == \
        pytest.approx(1.0, abs=1e-6)


def test_cli_mvt_report_refuses_a_nonpositive_primitive(tmp_path):
    # translated by +2 beta the primitive is sin(theta) - 2, down to -3
    path = write_scene(tmp_path, "example1-translated.json",
                       embedding={"library": "example-torus-1",
                                  "translate": {"c": 2.0}})
    code = main(["mvt-report", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads(
        (tmp_path / "example1-translated-mvt-report.json").read_text())
    assert not rep["passed"] and list(rep["verdicts"]) == ["numeric_error"]
    verdict = rep["verdicts"]["numeric_error"]
    assert not verdict["passed"]
    assert verdict["type"] == "PreconditionError"
    assert verdict["message"].startswith("primitive is not positive")
    assert verdict["details"]["minimum"] == pytest.approx(-3.0, abs=1e-3)


def test_cli_full_pipeline_stops_at_a_nonpositive_primitive(tmp_path):
    # no extension block: the pipeline's own MVT step ends the run with the
    # one numeric_error verdict, the verify step's verdicts dropped with it
    path = write_scene(tmp_path, "example1-translated.json",
                       embedding={"library": "example-torus-1",
                                  "translate": {"c": 2.0}})
    code = main(["full-pipeline", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads(
        (tmp_path / "example1-translated-full-pipeline.json").read_text())
    assert list(rep["verdicts"]) == ["numeric_error"]
    assert rep["results"] == {} and rep["artifacts"] == []
    verdict = rep["verdicts"]["numeric_error"]
    assert verdict["message"].startswith("primitive is not positive")
    assert verdict["details"]["minimum"] == pytest.approx(-3.0, abs=1e-3)


def two_torus_pipeline_scene(tmp_path, f):
    """A full-pipeline scene on T^2 with the exact Lee class beta =
    d(0.3 sin q1 + 0.2 sin q2), the beta-graph of ``f`` and h = f."""
    scene = {"version": "scene-v1", "name": "two-torus-graph",
             "manifold": {"circles": 2, "lines": 0},
             "structure": {"beta": ["0.3*cos(q1)", "0.2*cos(q2)"]},
             "embedding": {"library": "beta-graph", "f": f},
             "grids": {"parameter": 16, "chord_grid": 16},
             "extension": {"h": f, "base_grid": 8, "shells": 32,
                           "directions": 16, "r_max": 16.0},
             "moser": {"eta_prime": []}}
    path = tmp_path / "two-torus-graph.json"
    path.write_text(json.dumps(scene))
    return path


def test_cli_full_pipeline_refuses_a_fiber_segment_past_the_radial_bound(
        tmp_path):
    # the extension passes its sampled bound, but between chart points and
    # their images d ln g(Z) reaches 1.2, where (q, p) -> (q, p/g) is no
    # longer a diffeomorphism of the fiber ray: the straightened chart
    # refuses, naming the slope and the point
    path = two_torus_pipeline_scene(tmp_path,
                                    "1.5 + 0.2*sin(q1) + 0.1*cos(q2)")
    code = main(["full-pipeline", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads(
        (tmp_path / "two-torus-graph-full-pipeline.json").read_text())
    assert list(rep["verdicts"]) == ["numeric_error"]
    verdict = rep["verdicts"]["numeric_error"]
    assert verdict["type"] == "PreconditionError"
    assert verdict["message"].startswith("d ln g(Z) reaches 1")
    assert verdict["details"]["slope"] >= 1.0
    assert verdict["details"]["point"].startswith("[4.712389e+00 2.552544e+00")


def test_cli_full_pipeline_q1_only_two_torus_fails_only_its_closedness(
        tmp_path):
    # without the 0.1*cos(q2) term no segment reaches the bound: the
    # straightening runs, and only its closedness fails, on the extension's
    # mismatch with h along L
    path = two_torus_pipeline_scene(tmp_path, "1.5 + 0.2*sin(q1)")
    code = main(["full-pipeline", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads(
        (tmp_path / "two-torus-graph-full-pipeline.json").read_text())
    failed = [k for k, v in rep["verdicts"].items() if not v["passed"]]
    assert failed == ["straightened_exact"]
    closedness = rep["verdicts"]["straightened_exact"]["closedness_sup"]
    assert closedness == pytest.approx(0.0633, abs=5e-4)


def test_cli_nonexistent_scene(tmp_path):
    code = main(["verify-lagrangian", str(SCENES / "missing.json"),
                 "--out", str(tmp_path)])
    assert code == 1


def test_cli_scene_that_is_a_directory(tmp_path, capsys):
    code = main(["verify-lagrangian", str(SCENES), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21]")


@pytest.mark.parametrize("out, errno", [("taken", 17), ("taken/sub", 20)],
                         ids=["file", "under-a-file"])
def test_cli_unwritable_out_fails_before_the_command(out, errno, tmp_path,
                                                      capsys, monkeypatch):
    # --out naming a file, or a path under one, fails before any work: the
    # command is replaced by None, which would raise if it were called
    import lcslab.scenes as scenes
    monkeypatch.setitem(scenes.COMMANDS, "verify-lagrangian", None)
    (tmp_path / "taken").write_text("")
    code = main(["verify-lagrangian", str(SCENES / "example1.json"),
                 "--out", str(tmp_path / out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno}]")


def test_cli_scene_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["validate-structure", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    b'{"version": "scene-v1", "name": "\xff\xfe"}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf-8", "too-deep"])
def test_cli_unparseable_scene_is_a_scene_error(text, tmp_path, capsys):
    # bytes that are not UTF-8, or nesting past the parser's recursion
    # limit, are refused at the root like any other malformed JSON
    path = tmp_path / "scene.json"
    path.write_bytes(text)
    out = tmp_path / "out"
    code = main(["validate-structure", str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("scene error: /: not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize("command, base, changes, pointer", [
    ("moser-deform", "moser-constant-ball.json",
     {"moser": {"g": {}, "seeds": 8}}, "/moser/g"),
    ("verify-lagrangian", "legendrian-lift-pair.json",
     {"embedding": {"library": "legendrian-lift"}}, "/embedding/jet_function"),
    ("verify-lagrangian", "moser-identity.json", {}, "/embedding"),
    ("build-extension", "example1.json", {}, "/extension"),
    ("lift-legendrian", "example1.json", {}, "/legendrians"),
], ids=["moser-g", "jet-function", "embedding", "extension", "legendrians"])
def test_cli_missing_scene_block_names_its_pointer(command, base, changes,
                                                   pointer, tmp_path, capsys):
    path = write_scene(tmp_path, base, name="refused", **changes)
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scene error: {pointer}:")
    assert not out.exists()


@pytest.mark.parametrize("command, base, block, key, value, message", [
    ("moser-deform", "moser-constant-ball.json", "moser", "g",
     {"expression": "0.5"},
     "conformal factor must equal 1 outside the stated radius"),
    ("moser-deform", "moser-constant-ball.json", "moser", "g",
     {"expression": "0 - 1"},
     "log-derivative of a nonpositive field at point ["),
    ("build-extension", "extension-tube.json", "extension", "h", "0 - 1",
     "h must be positive near L"),
], ids=["g-not-one-outside", "g-negative", "h-negative"])
def test_cli_refused_factor_writes_a_report(command, base, block, key, value,
                                            message, tmp_path):
    scene = json.loads((SCENES / base).read_text())
    scene["name"] = "refused"
    scene[block][key] = value
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(scene))
    code = main([command, str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / f"refused-{command}.json").read_text())
    verdict = rep["verdicts"]["numeric_error"]
    assert not rep["passed"] and not verdict["passed"]
    assert verdict["message"].startswith(message)


def exit_code(argv):
    """The exit code of the CLI on ``argv``, returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, message", [
    (["validate-structure"], "error: no scene file given"),
    (["validate-structure", "zero-section.json", "--tol-override",
      "lagrangian"], "error: bad --tol-override"),
    (["validate-structure", "zero-section.json", "--tol-override",
      "lagrangian=abc"], "error: --tol-override value not a number"),
    (["validate-structure", "zero-section.json", "--seed", "abc"],
     "lcslab validate-structure: error: argument --seed: invalid int"),
    (["validate-structure", "zero-section.json", "--threads", "x"],
     "lcslab validate-structure: error: argument --threads: invalid int"),
    (["validate-structure", "zero-section.json", "--no-such-flag"],
     "lcslab: error: unrecognized arguments: --no-such-flag"),
    (["no-such-command", "zero-section.json"],
     "lcslab: error: argument command: invalid choice: 'no-such-command'"),
], ids=["no-scene", "no-value", "not-a-number", "seed-not-int",
        "threads-not-int", "unknown-flag", "unknown-command"])
def test_cli_bad_arguments_exit_1(args, message, tmp_path, capsys):
    # a usage error exits 1, as a scene error does: exit 2 is kept for a
    # failed verdict whose report was written; argparse prints its usage
    # line first, so the message is the last line
    args = [str(SCENES / a) if a.endswith(".json") else a for a in args]
    code = exit_code([*args, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["--help"],
                                  ["validate-structure", "--help"]])
def test_cli_help_exits_0(args, capsys):
    assert exit_code(args) == 0
    assert capsys.readouterr().out.startswith("usage: lcslab")


@pytest.mark.parametrize("command, base, expected, pointer", [
    ("projection-degree", "zero-section.json", {"projection_degree": "abc"},
     "/expected/projection_degree"),
    ("projection-degree", "zero-section.json", {"projection_degree": 1.7},
     "/expected/projection_degree"),
    ("moser-deform", "moser-identity.json", {"zero_displacement": "no"},
     "/expected/zero_displacement"),
    ("projection-degree", "zero-section.json", {"degree": 1}, "/expected"),
], ids=["degree-string", "degree-fraction", "displacement-string",
        "unknown-key"])
def test_cli_malformed_expected_block_is_a_scene_error(command, base, expected,
                                                       pointer, tmp_path,
                                                       capsys):
    path = write_scene(tmp_path, base, name="refused", expected=expected)
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scene error: {pointer}:")
    assert not out.exists()


@pytest.mark.parametrize("command, base, changes, pointer", [
    ("verify-lagrangian", "example1.json",
     {"structure": {"beta": ["0", "0"]}}, "/structure/beta"),
    ("verify-lagrangian", "example2.json", {"structure": {}},
     "/structure/beta"),
    ("verify-lagrangian", "example1.json", {"manifold": {"circles": 1}},
     "/manifold"),
    ("verify-lagrangian", "example2.json",
     {"manifold": {"circles": 2, "lines": 1}}, "/manifold"),
    ("scan-chords", "two-graphs.json",
     {"second_embedding": {"library": "example-torus-2"}}, "/structure/beta"),
    ("verify-lagrangian", "legendrian-lift-pair.json",
     {"embedding": {"library": "legendrian-lift", "jet_function": "1"},
      "structure": {"beta": ["0"]}}, "/structure"),
], ids=["torus-1-beta", "torus-2-no-beta", "torus-1-circle",
        "torus-2-extra-line", "torus-2-second", "lift-structure"])
def test_cli_library_embedding_refuses_a_foreign_structure(
        command, base, changes, pointer, tmp_path, capsys):
    # the example tori live in (T*T^2, d q2) and a Legendrian lift takes its
    # Lee form from q_form: a scene declaring anything else is refused, not
    # run on a structure it does not declare
    path = write_scene(tmp_path, base, name="refused", **changes)
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scene error: {pointer}:")
    assert not out.exists()



@pytest.mark.parametrize("command, base, changes, pointer, message", [
    ("validate-structure", "zero-section.json",
     {"structure": {"beta": ["1", "0", "0"]}}, "/structure/beta",
     "3 coefficients for a base of dimension 2"),
    ("verify-lagrangian", "legendrian-lift-pair.json",
     {"embedding": {"library": "legendrian-lift", "jet_function": "1",
                    "q_form": ["1", "0"]}}, "/embedding/q_form",
     "2 coefficients for Q, the circle theta1"),
    ("verify-lagrangian", "example1-translated.json",
     {"embedding": {"library": "example-torus-1",
                    "translate": {"c": -2.0, "eta": ["1"]}}},
     "/embedding/translate/eta", "1 coefficients for a base of dimension 2"),
], ids=["beta", "q-form", "translate-eta"])
def test_cli_coefficient_list_of_the_wrong_length_is_a_scene_error(
        command, base, changes, pointer, message, tmp_path, capsys):
    # the count is known from the scene alone: refused while building, at
    # its pointer, before any numerics run
    path = write_scene(tmp_path, base, name="refused", **changes)
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"scene error: {pointer}: {message}")
    assert not out.exists()


def test_cli_bad_schema_exit_1(tmp_path):
    code = main(["validate-structure", str(SCENES / "bad-schema.json"),
                 "--out", str(tmp_path)])
    assert code == 1


def test_cli_numeric_error_writes_report_exit_2(tmp_path):
    # d ln g(Z) reaches 1 for g = 2 + sin(p1): the Moser problem refuses g
    scene = {"version": "scene-v1", "name": "bad-g",
             "manifold": {"circles": 1, "lines": 0},
             "structure": {"beta": ["0"]},
             "moser": {"g": {"expression": "2 + sin(p1)"}, "seeds": 8}}
    path = tmp_path / "bad-g.json"
    path.write_text(json.dumps(scene))
    code = main(["moser-deform", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "bad-g-moser-deform.json").read_text())
    assert not rep["passed"]
    verdict = rep["verdicts"]["numeric_error"]
    assert not verdict["passed"]
    assert verdict["type"] == "ObstructionError"
    assert "Liouville" in verdict["message"]
    assert verdict["details"]["worst"] >= 1.0


def test_cli_domain_error_names_the_failing_point(tmp_path):
    # log(p1) leaves its domain on the samples with p1 <= 0: the message
    # names the first such row, not the whole batch
    scene = {"version": "scene-v1", "name": "log-g",
             "manifold": {"circles": 1, "lines": 0},
             "structure": {"beta": ["0"]},
             "moser": {"g": {"expression": "log(p1)"}, "seeds": 8}}
    path = tmp_path / "log-g.json"
    path.write_text(json.dumps(scene))
    code = main(["moser-deform", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "log-g-moser-deform.json").read_text())
    verdict = rep["verdicts"]["numeric_error"]
    assert verdict["type"] == "DomainEvaluationError"
    head, _, point = verdict["message"].partition(" at point ")
    assert head == "log of a nonpositive value"
    q1, p1 = (float(x) for x in point.strip("[]").split())
    assert 0.0 <= q1 < 2 * np.pi and p1 <= 0.0


def test_cli_non_finite_values_become_null(tmp_path):
    # an infinite tolerance passes, but the report stays strict JSON
    code = main(["verify-lagrangian", str(SCENES / "example1.json"),
                 "--tol-override", "lagrangian=inf", "--out", str(tmp_path)])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    rep = json.loads((tmp_path / "example1-verify-lagrangian.json")
                     .read_text(), parse_constant=reject)
    assert rep["verdicts"]["lagrangian"]["tol"] is None
    assert rep["non_finite"] == ["/verdicts/lagrangian/tol"]
    assert rep["passed"]


WORKLOADS = json.loads((SCENES.parent / "perfbench" / "workloads.json")
                       .read_text())["workloads"]


@pytest.mark.parametrize(
    "entry", [e for entries in WORKLOADS.values() for e in entries],
    ids=lambda e: f"{e['command']}-{e['scene']}")
def test_seed0_report_digest_is_pinned(entry, tmp_path, monkeypatch):
    # reports are byte-identical to the recorded ones, not only repeatable
    scene = SCENES / entry["scene"]
    if entry["outcome"] == "scene-error":
        with pytest.raises(SceneError):
            run_command(entry["command"], scene, tmp_path, seed=0, threads=1)
        return
    encodings = _count_encodings(monkeypatch)
    rep = run_command(entry["command"], scene, tmp_path, seed=0, threads=1)
    assert encodings == [1]
    assert rep["digest"] == entry["digest_seed0"]
    _assert_spliced_report(rep, tmp_path)


def _count_encodings(monkeypatch) -> list:
    count = [0]
    encode = scenes.canonical_report_json

    def counted(report):
        count[0] += 1
        return encode(report)

    monkeypatch.setattr(scenes, "canonical_report_json", counted)
    return count


def _assert_spliced_report(rep, out_dir):
    # the digest and timestamp lines spliced into the one encoding give the
    # canonical JSON of the full report, and the digest is report_digest's
    text = (out_dir / f"{rep['scene']}-{rep['command']}.json").read_text()
    assert text == json.dumps(rep, sort_keys=True, indent=1, allow_nan=False)
    written = json.loads(text)
    assert written["digest"] == report_digest(
        {k: v for k, v in written.items() if k != "digest"})


def test_non_finite_report_is_spliced(tmp_path, monkeypatch):
    encodings = _count_encodings(monkeypatch)
    rep = run_command("verify-lagrangian", SCENES / "example1.json", tmp_path,
                      tol_overrides={"lagrangian": float("inf")})
    assert encodings == [2]      # strict JSON refuses the first encoding
    assert rep["non_finite"] == ["/verdicts/lagrangian/tol"]
    _assert_spliced_report(rep, tmp_path)


@pytest.mark.parametrize("scene, command, tol, count", [
    ("example1.json", "verify-lagrangian", None, 1),
    ("legendrian-lift-pair.json", "lift-legendrian", None, 2),
    ("example1.json", "verify-lagrangian", float("inf"), 2)])
def test_lagrangian_check_runs_once_per_embedding(scene, command, tol, count,
                                                  tmp_path, monkeypatch):
    # solve_primitive reuses the command's passing check; one at an
    # infinite tolerance proves nothing, so the 256-sample check runs too
    calls = []
    check = lagrangians.verify_lagrangian

    def counted(E, *args, **kwargs):
        calls.append(E)
        return check(E, *args, **kwargs)

    monkeypatch.setattr(lagrangians, "verify_lagrangian", counted)
    monkeypatch.setattr(scenes, "verify_lagrangian", counted)
    overrides = None if tol is None else {"lagrangian": tol}
    rep = run_command(command, SCENES / scene, tmp_path,
                      tol_overrides=overrides)
    assert rep["passed"]
    assert len(calls) == count


def test_lift_legendrian_honours_tolerance_overrides(tmp_path, monkeypatch):
    # both lifts are checked at the scene's own tolerances; the Lagrangian
    # residual of a lift is exactly 0, so its tolerance is read off the call
    tols = []
    check = scenes.verify_lagrangian

    def recorded(E, *args, tol=1e-9, **kwargs):
        tols.append(tol)
        return check(E, *args, tol=tol, **kwargs)

    monkeypatch.setattr(scenes, "verify_lagrangian", recorded)
    rep = run_command("lift-legendrian", SCENES / "legendrian-lift-pair.json",
                      tmp_path, tol_overrides={"primitive": 1e-30,
                                               "lagrangian": 1e-20})
    assert tols == [1e-20, 1e-20]
    for name in ("lift_0_exact", "lift_1_exact"):
        assert rep["verdicts"][name]["tol"] == 1e-30
        assert not rep["verdicts"][name]["passed"]
    assert not rep["passed"]


def test_determinism_double_run(tmp_path):
    # every fixture scene run twice with seed 0 produces byte-identical
    # reports modulo the timestamp field
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for scene, cmd in [("example1.json", "verify-lagrangian"),
                       ("example1-translated.json", "scan-chords"),
                       ("moser-identity.json", "moser-deform"),
                       ("zero-section.json", "projection-degree")]:
        r1 = run_command(cmd, SCENES / scene, out1, seed=0)
        r2 = run_command(cmd, SCENES / scene, out2, seed=0)
        assert report_digest(r1) == report_digest(r2)
        name = scene.replace(".json", "")
        t1 = json.loads((out1 / f"{name}-{cmd}.json").read_text())
        t2 = json.loads((out2 / f"{name}-{cmd}.json").read_text())
        t1.pop("generated_at")
        t2.pop("generated_at")
        assert t1 == t2
        # artifacts byte-identical too
        for art in r1["artifacts"]:
            assert (out1 / art).read_bytes() == (out2 / art).read_bytes()


def test_threads_flag_accepted_and_recorded(tmp_path):
    rep = run_command("build-extension", SCENES / "extension-tube.json",
                      tmp_path, threads=2)
    assert rep["threads"] == 2
    assert rep["passed"]


def test_cli_two_lagrangian_scan(tmp_path):
    # two parallel twisted-constant graphs: a scale-2 family over the whole
    # torus, with ratio exactly 1 (the strictness verdict fails)
    code = main(["scan-chords", str(SCENES / "two-graphs.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "two-graphs-scan-chords.json").read_text())
    chords = json.loads((tmp_path / "two-graphs-chords.json").read_text())
    assert chords
    for c in chords:
        assert c["scale"] == pytest.approx(2.0, abs=1e-8)
        assert c["defect"] == pytest.approx(0.0, abs=1e-10)
        assert c["essential"]
    assert rep["verdicts"]["mvt_strictness"]["extremal_ratio"] == \
        pytest.approx(1.0, abs=1e-9)


def test_cli_full_pipeline_end_to_end(tmp_path):
    code = main(["full-pipeline", str(SCENES / "beta-graph-pipeline.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(
        (tmp_path / "beta-graph-pipeline-full-pipeline.json").read_text())
    assert rep["passed"]
    for key in ("lagrangian", "exactness", "mvt_unobstructed", "extension",
                "straightened_exact"):
        assert rep["verdicts"][key]["passed"], key
    assert rep["results"]["straighten"]["holonomy_sup"] <= 1e-6


def test_expression_scientific_notation():
    t1 = make_manifold(1, 0)
    for src, val in [("1.5e-3", 1.5e-3), ("2e3", 2000.0), (".5e2", 50.0),
                     ("1e-3 + q1*0", 1e-3)]:
        f = compile_field(src, t1)
        assert f.value(np.array([0.7])) == pytest.approx(val, rel=1e-15)


@pytest.mark.parametrize("beta", ["(" * 200 + "1" + ")" * 200,
                                  "-" * 5000 + "1",
                                  "+".join(["q1"] * 1500)],
                         ids=["parentheses", "unary-minus", "long-sum"])
def test_cli_deep_expression_is_a_scene_error(beta, tmp_path, capsys):
    # these once overflowed the parser's or the evaluator's recursion
    scene = json.loads((SCENES / "zero-section.json").read_text())
    scene["structure"]["beta"] = [beta, "0"]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(scene))
    code = main(["validate-structure", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "scene error:" in capsys.readouterr().err
    with pytest.raises(SceneError, match="deeper than"):
        compile_field(beta, make_manifold(2, 0))


def test_expression_depth_bound_is_inclusive():
    from lcslab.expressions import MAX_DEPTH
    t1 = make_manifold(1, 0)
    for src in ["(" * (MAX_DEPTH - 1) + "q1" + ")" * (MAX_DEPTH - 1),
                "+".join(["q1"] * MAX_DEPTH)]:
        f = compile_field(src, t1)
        assert np.isfinite(f.value(np.array([0.7])))
    with pytest.raises(SceneError):
        compile_field("+".join(["q1"] * (MAX_DEPTH + 1)), t1)


EXPRESSION_TOKENS = ["q1", "q2", "x", "1", "2.5", "1e3", "9e99", ".5", "pi",
                     "e", "sin", "cos", "exp", "log", "(", ")", "+", "-",
                     "*", "/", "^", "**", " ", "#"]


def _nested(n_open):
    n, opener = n_open
    closer = ")" if opener.endswith("(") else ""
    return opener * n + "q1" + closer * n


def _chain(n_op):
    n, op = n_op
    return op.join(["q2"] * n)


EXPRESSION_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(EXPRESSION_TOKENS), max_size=30).map("".join),
    st.tuples(st.integers(0, 400),
              st.sampled_from(["(", "sin(", "-", "+", "2^"])).map(_nested),
    st.tuples(st.integers(1, 400),
              st.sampled_from(["+", "-", "*", "/", "^"])).map(_chain))


@settings(max_examples=300, deadline=None)
@given(src=EXPRESSION_TEXT)
@example(src="q1^1e300")       # an integer power once overflowed the jets
def test_expression_fuzz_parses_or_raises_scene_error(src):
    from lcslab.errors import DomainEvaluationError
    t2 = make_manifold(2, 0)
    try:
        f = compile_field(src, t2)
    except SceneError:
        return
    # whatever parses evaluates: unknown names and values outside a
    # function's domain are the only errors
    with np.errstate(all="ignore"):
        try:
            f.jet(np.array([[0.7, 2.0], [3.0, 0.1]]), order=2)
        except (SceneError, DomainEvaluationError):
            pass


def test_asymmetric_straightening_is_pinned(tmp_path):
    # f = h = 1.5 + 0.2 sin q1 + 0.15 cos q1 breaks the symmetry
    # (q, p) -> (3 pi - q, -p) under which beta-graph-pipeline's loop
    # integral vanishes whatever the flow scales are, so this report moves
    # with them; the translation eta' = 1.885e-4 cancels the holonomy class
    rep = run_command("full-pipeline", SCENES / "beta-graph-asymmetric.json",
                      tmp_path, seed=0, threads=1)
    assert rep["passed"]
    assert rep["digest"] == ("bc62f0a58cae71bf4a3ec3c047e9b1c7"
                             "32a5cb0cecd2f9ec7afa3e6d569fe888")


def test_asymmetric_straightening_without_translation_fails(tmp_path):
    # without eta' the straightened loop keeps its holonomy, read to 1e-9
    # off the flow scales of the exact interpolant jets
    scene = json.loads((SCENES / "beta-graph-asymmetric.json").read_text())
    scene["moser"]["eta_prime"] = []
    path = tmp_path / "untranslated.json"
    path.write_text(json.dumps(scene))
    rep = run_command("full-pipeline", path, tmp_path, seed=0, threads=1)
    assert not rep["verdicts"]["straightened_exact"]["passed"]
    assert rep["results"]["straighten"]["holonomy_sup"] == pytest.approx(
        1.1843793496623491e-3, abs=1e-9)


def test_cli_full_pipeline_refuses_eta_prime_longer_than_the_base(tmp_path):
    # three coefficients of a 1-form on T^1: a numeric error with a written
    # report, not an IndexError in the holonomy loop
    scene = json.loads((SCENES / "beta-graph-pipeline.json").read_text())
    scene["moser"]["eta_prime"] = ["0", "1", "2"]
    path = tmp_path / "long-eta.json"
    path.write_text(json.dumps(scene))
    code = main(["full-pipeline", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads(
        (tmp_path / "beta-graph-pipeline-full-pipeline.json").read_text())
    error = rep["verdicts"]["numeric_error"]
    assert list(rep["verdicts"]) == ["numeric_error"]
    assert error["type"] == "DimensionError"
    assert "eta_prime has 3 coefficients" in error["message"]
