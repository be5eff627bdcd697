"""Chord detection ground truths derived by closed-form fiber analysis.

The double-cover torus has sheets theta and theta + pi over each base point
with opposite covectors, so the untranslated scan is empty.  Translating by
-2 d(phi) moves the covectors to (0,-1) and (0,-3) at cos(theta) = 0, which
produces the scale-3 chord family with mean-value ratio exactly 1.
"""

import numpy as np
import pytest

from lcslab.chords import (classify_chord, chords_to_csv, chords_to_json,
                           mvt_obstruction_report, reeb_correspondence,
                           scan_chords)
from lcslab.errors import PreconditionError
from lcslab.lagrangians import (beta_graph, example_torus_1, example_torus_2,
                                jet_graph, lift_legendrian,
                                translate_by_form)
from lcslab.manifolds import ScalarField, make_manifold
from lcslab.structures import cotangent_lcs

T1 = make_manifold(1, 0)
T2 = make_manifold(2, 0)


def test_untranslated_double_cover_has_no_chords():
    scan = scan_chords(example_torus_1(), grid=48)
    assert scan.chords == []
    assert scan.unresolved_seeds == []


def test_translated_double_cover_scale_3_family():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    scan = scan_chords(E, grid=48)
    assert len(scan.chords) > 0
    f = E.declared_primitive
    for c in scan.chords:
        assert abs(c.scale - 3.0) <= 1e-6 or abs(c.scale - 1 / 3.0) <= 1e-6
        # chords sit over cos(theta) = 0 on both sheets
        assert abs(np.cos(c.start_param[0])) <= 1e-6
        classify_chord(c, f, f)
        assert abs(c.defect) <= 1e-6
        assert c.essential
        assert c.ratio_defined and abs(c.mvt_ratio - 1.0) <= 1e-6
    # both orientations are present (scale 3 and its reverse 1/3)
    scales = sorted({round(c.scale, 3) for c in scan.chords})
    assert scales == [round(1 / 3.0, 3), 3.0]
    # the scale-3 chords run from covector (0,-1) to (0,-3)
    up = [c for c in scan.chords if c.scale > 1]
    for c in up:
        assert np.allclose(c.start_point[2:], [0.0, -1.0], atol=1e-6)
        assert np.allclose(c.end_point[2:], [0.0, -3.0], atol=1e-6)
        assert c.family  # one chord for every phi


def test_chord_symmetry_reversed_scan():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    scan = scan_chords(E, grid=48)
    ups = [c for c in scan.chords if c.scale > 1]
    downs = [c for c in scan.chords if c.scale < 1]
    assert len(ups) > 0 and len(downs) > 0
    f = E.declared_primitive
    for c in scan.chords:
        classify_chord(c, f, f)
    ratios_up = {round(c.mvt_ratio, 6) for c in ups}
    ratios_down = {round(c.mvt_ratio, 6) for c in downs}
    assert ratios_up == ratios_down  # r = r' for reversed chords


def test_translated_example_2_chords():
    E = translate_by_form(example_torus_2(), "beta", -2.0)
    scan = scan_chords(E, grid=48)
    f = E.declared_primitive
    ups = [c for c in scan.chords if c.scale > 1]
    assert len(ups) > 0
    for c in ups:
        assert abs(c.scale - 3.0) <= 1e-6
        assert abs(np.cos(c.start_param[0])) <= 1e-6
        classify_chord(c, f, f)
        assert abs(c.mvt_ratio - 1.0) <= 1e-6


def test_scan_completeness_against_brute_force():
    # oracle: brute-force double loop over the parameter grid
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    grid = 32
    scan = scan_chords(E, grid=grid)
    from lcslab.manifolds import parameter_grid
    params = parameter_grid(E.source, grid).reshape(-1, 2)
    pts = E.points(params)
    base, fib = pts[:, :2], pts[:, 2:]
    db = base[:, None, :] - base[None, :, :]
    db = np.mod(db + np.pi, 2 * np.pi) - np.pi
    close = np.linalg.norm(db, axis=-1) <= 0.15
    norms = np.linalg.norm(fib, axis=-1)
    dots = fib @ fib.T
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = dots / np.outer(norms, norms)
        t_mat = norms[None, :] / norms[:, None]
    ok = (close & (norms[:, None] >= 1e-3) & (norms[None, :] >= 1e-3)
          & (cos >= np.cos(0.2)) & (np.abs(np.log(t_mat)) >= 1e-3))
    np.fill_diagonal(ok, False)
    found_pairs = [(params[i], params[j], t_mat[i, j])
                   for i, j in np.argwhere(ok)]
    assert found_pairs, "oracle should see the chord family at grid scale"
    # every brute-force hit lies near some scanned chord family
    for u, v, t in found_pairs:
        dist = min(
            np.linalg.norm(E.source.difference(u, c.start_param))
            + abs(np.log(t) - c.length)
            for c in scan.chords)
        assert dist <= 0.5


def test_classify_synthetic_values():
    # synthetic chord with primitives (1, 2) and scale 3: defect -1,
    # non-essential, ratio ln2/ln3
    from lcslab.chords import LiouvilleChord
    c = LiouvilleChord(
        start_param=np.array([0.0]), end_param=np.array([0.0]),
        start_point=np.array([0.0, 1.0]), end_point=np.array([0.0, 3.0]),
        scale=3.0, length=np.log(3.0), sign="positive")
    S = cotangent_lcs(T1, [1.0])
    f1 = ScalarField.constant(T1, 1.0)
    f2 = ScalarField.constant(T1, 2.0)
    classify_chord(c, f1, f2)
    assert np.isclose(c.defect, -1.0)
    assert not c.essential
    assert np.isclose(c.mvt_ratio, np.log(2) / np.log(3))


def test_lift_pair_scale_2_family():
    # lifts of the constant jets 1 and 2: exactly the scale-2 family
    L1 = lift_legendrian(jet_graph(ScalarField.constant(T1, 1.0), T1),
                         make_manifold(1, 0, labels=("theta",)), [1.0])
    L2 = lift_legendrian(jet_graph(ScalarField.constant(T1, 2.0), T1),
                         make_manifold(1, 0, labels=("theta",)), [1.0])
    scan = scan_chords(L1, L2, grid=24)
    assert len(scan.chords) > 0
    f1, f2 = L1.declared_primitive, L2.declared_primitive
    for c in scan.chords:
        assert abs(c.scale - 2.0) <= 1e-8
        classify_chord(c, f1, f2)
        assert abs(c.defect) <= 1e-8
        assert c.essential
    fams = {c.family_id for c in scan.chords}
    assert len(fams) == 1  # a single 2-parameter family


def test_mvt_report_beta_graph_unobstructed():
    S = cotangent_lcs(T2, [0.0, 1.0])
    f = ScalarField(T2, lambda j: j[0].cos() + 2.0)
    rep = mvt_obstruction_report(beta_graph(f, S), grid=32)
    assert not rep.obstructed
    assert rep.chord_count == 0


def test_mvt_report_translated_example_1_obstructed():
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    rep = mvt_obstruction_report(E, grid=48)
    assert rep.obstructed
    assert abs(rep.extremal_ratio - 1.0) <= 1e-6


def test_mvt_report_translated_example_2_obstructed():
    E = translate_by_form(example_torus_2(), "beta", -2.0)
    rep = mvt_obstruction_report(E, grid=48)
    assert rep.obstructed
    assert abs(rep.extremal_ratio - 1.0) <= 1e-6


def test_mvt_report_rejects_nonpositive_primitive():
    # +2 beta gives the same chord family but primitive sin(theta) - 2 < 0
    E = translate_by_form(example_torus_1(), "beta", 2.0)
    with pytest.raises(PreconditionError) as err:
        mvt_obstruction_report(E, grid=32)
    assert "translate_by_form" in str(err.value)
    assert err.value.details["minimum"] == pytest.approx(-3.0, abs=1e-6)


def test_mvt_report_no_chords_any_primitive_sign():
    # a single sheet per fiber ray is vacuously unobstructed even when the
    # primitive changes sign
    rep = mvt_obstruction_report(example_torus_1(), grid=32)
    assert not rep.obstructed and rep.chord_count == 0


def test_reeb_identities_and_matching():
    rep = reeb_correspondence(
        [jet_graph(ScalarField.constant(T1, 1.0), T1),
         jet_graph(ScalarField.constant(T1, 2.0), T1)],
        T1, eps=0.5, grid=16)
    assert rep.reeb_identity_sup <= 1e-12
    assert rep.contraction_sup <= 1e-12
    assert len(rep.reeb_chords) > 0
    assert rep.all_matched
    assert rep.all_essential
    assert rep.max_defect <= 1e-8


def test_reeb_single_sheet_no_chords():
    rep = reeb_correspondence(
        [jet_graph(ScalarField.constant(T1, 1.5), T1)], T1, eps=0.5, grid=16)
    assert rep.reeb_chords == []
    assert rep.all_matched and rep.all_essential


def test_chord_exports(tmp_path):
    E = translate_by_form(example_torus_1(), "beta", -2.0)
    scan = scan_chords(E, grid=32)
    f = E.declared_primitive
    for c in scan.chords:
        classify_chord(c, f, f)
    csv_path = tmp_path / "chords.csv"
    json_path = tmp_path / "chords.json"
    chords_to_csv(scan.chords, str(csv_path), n_base=2)
    chords_to_json(scan.chords, str(json_path))
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("base,start_fiber,t,")
    assert len(text) == len(scan.chords) + 1
    import json as j
    data = j.loads(json_path.read_text())
    assert len(data) == len(scan.chords)


def test_ratio_arithmetic_matches_ray_slope_exactly():
    # the chord mean-value ratio and the interpolation ray slope are the
    # same float arithmetic on the same inputs
    from lcslab.chords import LiouvilleChord
    from lcslab.extension import ray_log_slope
    rng = np.random.default_rng(5)
    for _ in range(25):
        v1, v2 = np.exp(rng.normal(size=2))
        r1 = float(np.exp(rng.normal()))
        t = float(np.exp(rng.normal()))
        if abs(np.log(t)) < 1e-3:
            continue
        r2 = r1 * t
        c = LiouvilleChord(
            start_param=np.zeros(1), end_param=np.zeros(1),
            start_point=np.array([0.0, r1]), end_point=np.array([0.0, r2]),
            scale=r2 / r1, length=float(np.log(r2 / r1)),
            sign="positive" if r2 > r1 else "negative")
        classify_chord(c, ScalarField.constant(T1, v1),
                       ScalarField.constant(T1, v2))
        assert c.mvt_ratio == ray_log_slope(v1, r1, v2, r2)


def test_reeb_correspondence_nonconstant_legendrian():
    # j1 of a varying function within {s >= eps}: still a single sheet, so
    # no chords, but the lift machinery sees nonzero covectors
    f = ScalarField(T1, lambda j: j[0].sin() * 0.3 + 1.5)
    rep = reeb_correspondence([jet_graph(f, T1)], T1, eps=1.0, grid=12)
    assert rep.reeb_identity_sup <= 1e-12
    assert rep.all_matched and rep.all_essential


def _no_solve(*args, **kwargs):
    raise AssertionError("solve_primitive called with a declared primitive")


def test_mvt_report_reads_a_declared_primitive_without_solving(monkeypatch):
    from lcslab import chords
    monkeypatch.setattr(chords, "solve_primitive", _no_solve)
    E = translate_by_form(example_torus_2(), "beta", -2.0)
    assert E.declared_primitive is not None
    rep = mvt_obstruction_report(E, grid=48)
    assert rep.obstructed and rep.chord_count > 0


def test_mvt_report_refuses_a_non_lagrangian_declared_embedding(monkeypatch):
    # the same chart and primitive under 1.3 d(phi): the chords stay (the
    # scan reads only the chart) but the embedding is no longer Lagrangian
    from lcslab import chords
    from lcslab.lagrangians import ParametricEmbedding
    monkeypatch.setattr(chords, "solve_primitive", _no_solve)
    E = translate_by_form(example_torus_2(), "beta", -2.0)
    bent = ParametricEmbedding(source=E.source,
                               structure=cotangent_lcs(T2, [0.0, 1.3]),
                               chart=E.chart,
                               declared_primitive=E.declared_primitive)
    with pytest.raises(PreconditionError) as err:
        mvt_obstruction_report(bent, grid=48)
    assert "not Lagrangian" in str(err.value)
    assert err.value.details["residual_sup"] > 1e-3
