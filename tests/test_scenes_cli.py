"""Scene schema, CLI exit codes, artifact files, and report determinism."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcslab.cli import main
from lcslab.errors import SceneError
from lcslab.expressions import compile_field, parse_expression
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


def test_expression_custom_variable_names():
    t2 = make_manifold(2, 0, labels=("theta", "phi"))
    f = compile_field("2*u1 + u2", t2, var_names=("u1", "u2"))
    assert f.value(np.array([1.0, 2.0])) == pytest.approx(4.0)


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
        parse_expression("sin(q1")
    with pytest.raises(SceneError):
        parse_expression("q1 + * 2")
    f = compile_field("nope + 1", t1)
    with pytest.raises(SceneError):
        f.value(np.array([0.0]))


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
    ("moser-deform", "moser-constant-ball.json", "moser", "step", 0.0),
    ("build-extension", "extension-tube.json", "extension", "r_min", 0),
    ("build-extension", "extension-tube.json", "extension", "r_min", -1),
    ("build-extension", "extension-tube.json", "extension", "r_max", 0),
    ("build-extension", "extension-tube.json", "extension", "r_min", 16.0),
])
def test_cli_grid_too_small_is_a_scene_error(command, scene_file, block, key,
                                             value, tmp_path, capsys):
    # a grid or step too small to compute with, or an empty radius range,
    # is refused with its pointer before any numerics run
    scene = json.loads((SCENES / scene_file).read_text())
    scene[block][key] = value
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    out = tmp_path / "out"
    code = main([command, str(path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scene error: /{block}/{key}:")
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
    verdict = rep["verdicts"]["mvt_unobstructed"]
    assert not verdict["passed"]
    assert "primitive is not positive" in verdict["error"]
    minimum = float(verdict["error"].rpartition("minimum=")[2].rstrip(")"))
    assert minimum == pytest.approx(-3.0, abs=1e-3)


def test_cli_nonexistent_scene(tmp_path):
    code = main(["verify-lagrangian", str(SCENES / "missing.json"),
                 "--out", str(tmp_path)])
    assert code == 1


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
def test_seed0_report_digest_is_pinned(entry, tmp_path):
    # reports are byte-identical to the recorded ones, not only repeatable
    scene = SCENES / entry["scene"]
    if entry["outcome"] == "scene-error":
        with pytest.raises(SceneError):
            run_command(entry["command"], scene, tmp_path, seed=0, threads=1)
        return
    rep = run_command(entry["command"], scene, tmp_path, seed=0, threads=1)
    assert rep["digest"] == entry["digest_seed0"]


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


def test_structure_scene_fragment_roundtrip(tmp_path):
    from lcslab.scenes import _build_structure
    from lcslab.structures import structure_scene_fragment
    scene = load_scene(SCENES / "beta-graph-pipeline.json")
    S = _build_structure(scene)
    frag = structure_scene_fragment(S)
    assert frag["manifold"] == {"circles": 1, "lines": 0}
    assert frag["structure"]["beta"] == ["0.3*cos(q1)"]
    # the fragment rebuilds the same structure
    scene2 = dict(scene)
    scene2.update(frag)
    S2 = _build_structure(scene2)
    pts = sample_points(S.total, 32)
    assert np.abs(S.beta.coefficients(pts)
                  - S2.beta.coefficients(pts)).max() == 0.0


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
        parse_expression(beta)


def test_expression_depth_bound_is_inclusive():
    from lcslab.expressions import MAX_DEPTH
    t1 = make_manifold(1, 0)
    for src in ["(" * (MAX_DEPTH - 1) + "q1" + ")" * (MAX_DEPTH - 1),
                "+".join(["q1"] * MAX_DEPTH)]:
        f = compile_field(src, t1)
        assert np.isfinite(f.value(np.array([0.7])))
    with pytest.raises(SceneError):
        parse_expression("+".join(["q1"] * (MAX_DEPTH + 1)))


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
