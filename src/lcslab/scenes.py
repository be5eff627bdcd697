"""Declarative scene files and deterministic report assembly.

A scene is a JSON document naming a base manifold, a Lee form, embeddings
(library names or explicit coordinate expressions), grids and tolerances, and
per-pipeline options.  Validation errors carry a JSON pointer to the failing
field.  Reports are canonical JSON: sorted keys and repr floats, so the same
scene and seed reproduce byte-identical output up to the timestamp field,
which is excluded from the digest.
"""

from __future__ import annotations

import bisect
import datetime as _dt
import hashlib
import json
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from .chords import (chords_to_csv, chords_to_json, classify_chords,
                     mvt_obstruction_report, scan_chords)
from .errors import (DimensionError, DomainEvaluationError, ObstructionError,
                     PreconditionError, SceneError)
from .expressions import compile_field
from .extension import build_positive_extension
from .forms import check_nondegenerate, exterior_d, interior_product
from .lagrangians import (beta_graph, example_torus_1, example_torus_2,
                          jet_graph, lift_legendrian, primitive_of,
                          solve_primitive, translate_by_form,
                          verify_lagrangian, zero_section)
from .manifolds import ScalarField, SmoothMap, make_manifold, sample_points
from .moser import (MoserProblem, flow_and_check, projection_degree,
                    straighten_lagrangian)
from .structures import cotangent_lcs, liouville_vector_field, radial_blend

__all__ = ["load_scene", "run_command", "report_digest", "SCENE_SCHEMA",
           "COMMANDS"]

_MANIFOLD = {
    "type": "object",
    "properties": {
        "circles": {"type": "integer", "minimum": 0},
        "lines": {"type": "integer", "minimum": 0},
    },
    "required": ["circles"],
    "additionalProperties": False,
}

_EMBEDDING = {
    "type": "object",
    "properties": {
        "library": {"type": "string",
                    "enum": ["example-torus-1", "example-torus-2",
                             "beta-graph", "legendrian-lift",
                             "zero-section"]},
        "components": {"type": "array", "items": {"type": "string"}},
        "source": _MANIFOLD,
        "primitive": {"type": "string"},
        "f": {"type": "string"},
        "jet_function": {"type": "string"},
        "q_form": {"type": "array", "items": {"type": "string"}},
        "translate": {
            "type": "object",
            "properties": {
                "c": {"type": "number"},
                "eta": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["c"],
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# each tolerance _tol reads, with its default
TOLERANCES = {"nondegenerate": 1e-9, "closed": 1e-9, "lagrangian": 1e-9,
              "primitive": 1e-8, "pullback": 1e-4}

SCENE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "version": {"const": "scene-v1"},
        # the name prefixes every output file, so it is one path component;
        # (?!\n) keeps Python's $ from accepting a trailing newline
        "name": {"type": "string",
                 "pattern": "^[A-Za-z0-9][A-Za-z0-9._-]*(?!\n)$"},
        "manifold": _MANIFOLD,
        "structure": {
            "type": "object",
            "properties": {
                "beta": {"type": "array", "items": {"type": "string"}},
            },
            "additionalProperties": False,
        },
        "embedding": _EMBEDDING,
        "second_embedding": _EMBEDDING,
        "grids": {
            "type": "object",
            "properties": {
                "parameter": {"type": "integer", "minimum": 4},
                "chord_grid": {"type": "integer", "minimum": 4},
            },
            "additionalProperties": False,
        },
        "tolerances": {"type": "object",
                       "properties": {name: {"type": "number"}
                                      for name in TOLERANCES},
                       "additionalProperties": False},
        "extension": {
            "type": "object",
            "properties": {
                "h": {"type": "string"},
                "base_grid": {"type": "integer", "minimum": 2},
                "shells": {"type": "integer", "minimum": 3},
                "r_min": {"type": "number", "exclusiveMinimum": 0},
                "r_max": {"type": "number", "exclusiveMinimum": 0},
                "directions": {"type": "integer", "minimum": 1},
            },
            "required": ["h"],
            "additionalProperties": False,
        },
        "moser": {
            "type": "object",
            "properties": {
                "g": {"type": "object",
                      "properties": {
                          "identity": {"type": "boolean"},
                          "expression": {"type": "string"},
                          "constant_ball": {
                              "type": "object",
                              "properties": {"c": {"type": "number"},
                                             "r_in": {"type": "number"},
                                             "r_out": {"type": "number"}},
                              "required": ["c"],
                              "additionalProperties": False},
                      },
                      "additionalProperties": False},
                "outside_radius": {"type": "number", "exclusiveMinimum": 0},
                "seeds": {"type": "integer", "minimum": 1},
                "eta_prime": {"type": "array", "items": {"type": "string"}},
            },
            "additionalProperties": False,
        },
        "legendrians": {"type": "array", "items": {"type": "string"}},
        "expected": {
            "type": "object",
            "properties": {
                "projection_degree": {"type": "integer"},
                "zero_displacement": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["version", "name", "manifold"],
    "additionalProperties": False,
}

_VALIDATOR = Draft202012Validator(SCENE_SCHEMA)


def load_scene(path) -> dict:
    """Parse and validate a scene file; errors carry a JSON pointer."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SceneError(f"not valid JSON: {exc}") from None
    errors = sorted(_VALIDATOR.iter_errors(data),
                    key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        m = e.message
        if len(m) > 300:        # jsonschema quotes the whole instance
            m = f"{m[:150]} ... {m[-100:]} (keyword {e.validator!r})"
        raise SceneError(m, pointer=pointer)
    return data


# ------------------------------------------------------------- construction

def _tol(scene: dict, key: str) -> float:
    return float(scene.get("tolerances", {}).get(key, TOLERANCES[key]))


def _manifold(spec: dict, prefix: str | None = None):
    """The model manifold of a ``{"circles", "lines"}`` spec, its coordinates
    labelled ``prefix1, prefix2, ...`` when a prefix is given."""
    circles, lines = spec["circles"], spec.get("lines", 0)
    labels = None if prefix is None else tuple(
        f"{prefix}{i + 1}" for i in range(circles + lines))
    return make_manifold(circles, lines, labels)


def _build_structure(scene: dict):
    base = _manifold(scene["manifold"])
    beta_exprs = scene.get("structure", {}).get("beta", [])
    if len(beta_exprs) > base.dim:
        raise SceneError(f"{len(beta_exprs)} coefficients for a base of "
                         f"dimension {base.dim}", pointer="/structure/beta")
    coeffs = [compile_field(e, base) for e in beta_exprs]
    return cotangent_lcs(base, coeffs)


def _require_library_structure(scene: dict, lib: str, library, structure):
    """Refuse a scene whose manifold or Lee form is not the one ``library``
    embeds into; ``structure`` is the scene's, built when None."""
    if _manifold(scene["manifold"]).is_circle != library.base.is_circle:
        raise SceneError(f"{lib} lives over two circles", pointer="/manifold")
    S = structure if structure is not None else _build_structure(scene)
    pts = sample_points(S.total, 64)
    if not np.allclose(S.beta.coefficients(pts),
                       library.beta.coefficients(pts), rtol=0.0, atol=1e-12):
        raise SceneError(f'{lib} needs the Lee form d(q2): beta ["0", "1"]',
                         pointer="/structure/beta")


def _build_embedding(scene: dict, pointer: str = "/embedding",
                     structure=None):
    """The embedding the scene spells out at ``pointer``, one of
    ``/embedding`` and ``/second_embedding``."""
    spec = scene.get(pointer[1:])
    if spec is None:
        raise SceneError("scene has no embedding", pointer=pointer)
    lib = spec.get("library")
    if lib in ("example-torus-1", "example-torus-2"):
        E = (example_torus_1 if lib == "example-torus-1"
             else example_torus_2)()
        _require_library_structure(scene, lib, E.structure, structure)
    elif lib == "zero-section":
        S = structure if structure is not None else _build_structure(scene)
        E = zero_section(S)
    elif lib == "beta-graph":
        S = structure if structure is not None else _build_structure(scene)
        if "f" not in spec:
            raise SceneError("beta-graph needs an 'f' expression",
                             pointer=f"{pointer}/f")
        E = beta_graph(compile_field(spec["f"], S.base), S)
    elif lib == "legendrian-lift":
        if "structure" in scene:
            raise SceneError("legendrian-lift takes its Lee form from "
                             "q_form; the scene declares a structure",
                             pointer="/structure")
        base = _manifold(scene["manifold"])
        if "jet_function" not in spec:
            raise SceneError("legendrian-lift needs 'jet_function'",
                             pointer=f"{pointer}/jet_function")
        leg = jet_graph(compile_field(spec["jet_function"], base), base)
        Q = make_manifold(1, 0, ("theta1",))
        q_form = [compile_field(e, Q) for e in spec.get("q_form", ["1"])]
        if len(q_form) != Q.dim:
            raise SceneError(f"{len(q_form)} coefficients for Q, the circle "
                             "theta1",
                             pointer=f"{pointer}/q_form")
        E = lift_legendrian(leg, Q, q_form)
    elif "components" in spec:
        S = structure if structure is not None else _build_structure(scene)
        src_spec = spec.get("source", scene["manifold"])
        src = _manifold(src_spec, "u")
        comps = spec["components"]
        if len(comps) != S.total.dim:
            raise SceneError(
                f"need {S.total.dim} components, got {len(comps)}",
                pointer=f"{pointer}/components")
        fields = [compile_field(c, src) for c in comps]

        def fn(jets):
            return [f.fn(jets) for f in fields]

        from .lagrangians import ParametricEmbedding
        chart = SmoothMap(src, S.total, fn, name=scene["name"])
        E = ParametricEmbedding(source=src, structure=S, chart=chart,
                                name=scene["name"])
    else:
        raise SceneError("embedding needs 'library' or 'components'",
                         pointer=pointer)

    if "primitive" in spec:
        E.declared_primitive = compile_field(spec["primitive"], E.source)
    tr = spec.get("translate")
    if tr:
        eta = ([compile_field(e, E.structure.base) for e in tr["eta"]]
               if "eta" in tr else None)
        if eta is not None and len(eta) != E.structure.n:
            raise SceneError(f"{len(eta)} coefficients for a base of "
                             f"dimension {E.structure.n}",
                             pointer=f"{pointer}/translate/eta")
        E = translate_by_form(E, eta, float(tr["c"]))
    return E


def _build_moser_g(scene: dict, S):
    spec = scene.get("moser", {}).get("g", {"identity": True})
    if spec.get("identity"):
        return ScalarField.constant(S.total, 1.0)
    if "expression" in spec:
        return compile_field(spec["expression"], S.total)
    if "constant_ball" in spec:
        cb = spec["constant_ball"]
        c = float(cb["c"])
        r_in = float(cb.get("r_in", 1.0))
        r_out = float(cb.get("r_out", 2.0))
        if r_in >= r_out:
            raise SceneError(f"need r_in < r_out, got {r_in} and {r_out}",
                             pointer="/moser/g/constant_ball")
        n = S.n

        def fn(jets):
            _, w = radial_blend(jets[n:], r_in, r_out)
            return (1.0 - w) * c + w * 1.0

        return ScalarField(S.total, fn, name=f"ball({c})")
    raise SceneError("moser.g must be identity, expression or constant_ball",
                     pointer="/moser/g")


# ------------------------------------------------------------------ running

def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def canonical_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1, allow_nan=False,
                      default=_json_default)


def _null_non_finite(obj, pointer: str, found: list):
    """Copy of a report value with each non-finite float replaced by None;
    the JSON pointer of every replaced float is appended to ``found``."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _null_non_finite(
            v, pointer + "/" + str(k).replace("~", "~0").replace("/", "~1"),
            found) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v, f"{pointer}/{i}", found)
                for i, v in enumerate(obj)]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        found.append(pointer)
        return None
    return obj


def report_digest(report: dict) -> str:
    stripped = {k: v for k, v in report.items() if k != "generated_at"}
    return hashlib.sha256(
        canonical_report_json(stripped).encode()).hexdigest()


def _splice_top_level(text: str, keys, entries: dict) -> str:
    """``canonical_report_json`` of a dict with ``keys``, given as ``text``,
    extended by the scalar ``entries`` without encoding it again.  Top-level
    keys are the only lines indented by one space, so each entry goes in
    before the first key that sorts after it ("passed" is in every report,
    so one does)."""
    lines = text.split("\n")
    tops = [i for i, line in enumerate(lines) if line.startswith(' "')]
    keys = sorted(keys)
    for k in sorted(entries, reverse=True):
        lines.insert(tops[bisect.bisect(keys, k)],
                     f" {json.dumps(k)}: {json.dumps(entries[k])},")
    return "\n".join(lines)


def _scene_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _verdict(passed: bool, /, **evidence) -> dict:
    evidence.pop("passed", None)  # the verdict flag wins over report copies
    out = {"passed": bool(passed)}
    out.update(evidence)
    return out


def _cmd_validate_structure(scene, options):
    S = _build_structure(scene)
    samples = sample_points(S.total, 1024, seed=options["seed"])
    closed = float(np.abs(exterior_d(S.beta).coefficients(samples)).max())
    rep = check_nondegenerate(S.omega, samples,
                              tol=_tol(scene, "nondegenerate"))
    Z = liouville_vector_field(S)
    contraction = float(np.abs(
        interior_product(Z, exterior_d(S.lam)).coefficients(samples)
        - S.lam.coefficients(samples)).max())
    verdicts = {
        "lee_form_closed": _verdict(closed <= _tol(scene, "closed"),
                                    residual=closed),
        "omega_nondegenerate": _verdict(rep.nondegenerate, **rep.as_dict()),
        "euler_contraction": _verdict(contraction <= 1e-10,
                                      residual=contraction),
    }
    return {"results": {"sample_count": int(samples.shape[0])},
            "verdicts": verdicts}, {}


def _cmd_verify_lagrangian(scene, options, E):
    grid = int(scene.get("grids", {}).get("parameter", 64))
    from .manifolds import parameter_grid
    params = parameter_grid(E.source, grid).reshape(-1, E.source.dim)
    rep = verify_lagrangian(E, samples=params,
                            tol=_tol(scene, "lagrangian"))
    cert = solve_primitive(E, grid_shape=min(grid, 128),
                           tol=_tol(scene, "primitive"), lagrangian=rep)
    verdicts = {
        "lagrangian": _verdict(rep.passed, **rep.as_dict()),
        "exactness": _verdict(cert.valid, **cert.as_dict()),
    }
    return {"results": {"holonomies": cert.holonomies,
                        "unique_primitive": cert.unique_primitive},
            "verdicts": verdicts}, {}


def _cmd_scan_chords(scene, options):
    E1 = _build_embedding(scene)
    E2 = None
    if "second_embedding" in scene:
        E2 = _build_embedding(scene, "/second_embedding", E1.structure)
    grid = int(scene.get("grids", {}).get("chord_grid", 48))
    scan = scan_chords(E1, E2, grid=grid)
    f1 = primitive_of(E1)
    f2 = f1 if E2 is None else primitive_of(E2)
    ratios, obstructed = classify_chords(scan.chords, f1, f2)
    artifacts = {"chords.csv": lambda p: chords_to_csv(scan.chords, p,
                                                       n_base=E1.n),
                 "chords.json": lambda p: chords_to_json(scan.chords, p)}
    verdicts = {
        "all_seeds_resolved": _verdict(not scan.unresolved_seeds,
                                       unresolved=len(scan.unresolved_seeds)),
        "mvt_strictness": _verdict(not obstructed,
                                   extremal_ratio=max(ratios) if ratios
                                   else None),
    }
    return {"results": scan.as_dict(), "verdicts": verdicts}, artifacts


def _cmd_mvt_report(scene, options, E):
    grid = int(scene.get("grids", {}).get("chord_grid", 48))
    rep = mvt_obstruction_report(E, grid=grid)
    verdicts = {"mvt_unobstructed": _verdict(not rep.obstructed,
                                             **rep.as_dict())}
    return {"results": rep.as_dict(), "verdicts": verdicts}, {}


def _cmd_build_extension(scene, options, E):
    return _extension(scene, options, E)[:2]


def _extension(scene, options, E):
    """Build the scene's extension; returns ``(body, artifacts, field)``,
    with ``field`` None when the extension is refused."""
    ext = scene.get("extension")
    if ext is None:
        raise SceneError("scene has no extension block", pointer="/extension")
    r_min = float(ext.get("r_min", 1e-3))
    r_max = float(ext.get("r_max", 16.0))
    if r_min >= r_max:
        raise SceneError(f"need r_min < r_max, got {r_min} and {r_max}",
                         pointer="/extension/r_min")
    h = compile_field(ext["h"], E.structure.total)
    try:
        field, rep = build_positive_extension(
            E, h,
            base_grid=int(ext.get("base_grid", 64)),
            shells=int(ext.get("shells", 128)), r_min=r_min, r_max=r_max,
            directions=int(ext.get("directions", 256)))
    except ObstructionError as exc:
        return {"results": {"refused": True, "reason": str(exc),
                            "details": {k: v for k, v in exc.details.items()
                                        if k != "chord"},
                            "chord": exc.details.get("chord")},
                "verdicts": {"extension": _verdict(False,
                                                   refused=True,
                                                   reason=str(exc))}}, {}, None
    artifacts = {"extension-field.json": field.to_json,
                 "extension-field.csv": field.to_csv}
    verdicts = {"radial_bound": _verdict(rep.final.passed,
                                         **rep.final.as_dict())}
    return ({"results": rep.as_dict(), "verdicts": verdicts}, artifacts,
            field)


def _cmd_moser_deform(scene, options):
    S = _build_structure(scene)
    mo = scene.get("moser", {})
    g = _build_moser_g(scene, S)
    P = MoserProblem(structure=S, g=g,
                     outside_radius=float(mo.get("outside_radius", 8.0)))
    n_seeds = int(mo.get("seeds", 256))
    seeds = sample_points(S.total, n_seeds, radius=3.0,
                          seed=options["seed"])
    # one flow: the pullback check rides in it on the first 256 seeds
    res, vrep = flow_and_check(P, seeds, 1e-3, 256, _tol(scene, "pullback"))
    displacement = float(np.abs(res.images - res.seeds).max())
    results = {"flow": res.as_dict(), "max_displacement": displacement,
               "pullback": vrep}

    def write_flow_csv(path):
        n = S.n
        with open(path, "w") as fh:
            cols = ([f"seed_{lb}" for lb in S.total.labels]
                    + [f"image_{lb}" for lb in S.total.labels] + ["scale"])
            fh.write(",".join(cols) + "\n")
            for s_row, i_row, sc in zip(res.seeds, res.images, res.scales):
                fh.write(",".join(f"{x:.17g}" for x in s_row)
                         + "," + ",".join(f"{x:.17g}" for x in i_row)
                         + f",{sc:.17g}\n")
    verdicts = {"fiber_drift": _verdict(res.max_fiber_drift <= 1e-8,
                                        drift=res.max_fiber_drift),
                "conformal_pullback": _verdict(vrep["passed"], **vrep)}
    if scene.get("expected", {}).get("zero_displacement"):
        verdicts["zero_displacement"] = _verdict(displacement <= 1e-12,
                                                 displacement=displacement)
    return ({"results": results, "verdicts": verdicts},
            {"flow.csv": write_flow_csv})


def _cmd_lift_legendrian(scene, options):
    base = _manifold(scene["manifold"])
    exprs = scene.get("legendrians")
    if not exprs:
        raise SceneError("scene has no legendrians", pointer="/legendrians")
    legs = [jet_graph(compile_field(e, base), base) for e in exprs]
    Q = make_manifold(1, 0, labels=("theta",))
    lifts = [lift_legendrian(leg, Q, [1.0]) for leg in legs]
    verdicts = {}
    results = {"lift_count": len(lifts)}
    for i, L in enumerate(lifts):
        rep = verify_lagrangian(L, tol=_tol(scene, "lagrangian"))
        cert = solve_primitive(L, grid_shape=32,
                               tol=_tol(scene, "primitive"),
                               lagrangian=rep)
        verdicts[f"lift_{i}_exact"] = _verdict(rep.passed and cert.valid,
                                               residual=rep.residual_sup,
                                               **cert.as_dict())
    artifacts = {}
    if len(lifts) == 2:
        scan = scan_chords(lifts[0], lifts[1],
                           grid=int(scene.get("grids", {})
                                    .get("chord_grid", 24)))
        classify_chords(scan.chords, lifts[0].declared_primitive,
                        lifts[1].declared_primitive)
        defects = [abs(c.defect) for c in scan.chords]
        results["chords"] = scan.as_dict()
        verdicts["lift_law"] = _verdict(
            bool(scan.chords) and max(defects) <= 1e-8
            and all(c.essential for c in scan.chords),
            max_defect=max(defects) if defects else None,
            chord_count=len(scan.chords))
        artifacts["chords.csv"] = lambda p: chords_to_csv(
            scan.chords, p, n_base=lifts[0].n)
    return {"results": results, "verdicts": verdicts}, artifacts


def _cmd_projection_degree(scene, options, E):
    deg = projection_degree(E, seed=options["seed"])
    expected = scene.get("expected", {}).get("projection_degree")
    verdicts = {}
    if expected is not None:
        verdicts["projection_degree"] = _verdict(deg == int(expected),
                                                 degree=deg,
                                                 expected=int(expected))
    return {"results": {"degree": deg}, "verdicts": verdicts}, {}


def _cmd_full_pipeline(scene, options, E):
    report, artifacts = _cmd_verify_lagrangian(scene, options, E)
    verdicts = dict(report["verdicts"])
    results = {"verify": report["results"]}

    mvt_rep, _ = _cmd_mvt_report(scene, options, E)
    verdicts.update(mvt_rep["verdicts"])
    results["mvt"] = mvt_rep["results"]

    if "extension" in scene:
        ext_rep, ext_art, field = _extension(scene, options, E)
        verdicts["extension"] = ext_rep["verdicts"].get(
            "radial_bound", ext_rep["verdicts"].get("extension"))
        results["extension"] = ext_rep["results"]
        artifacts.update(ext_art)
        if "moser" in scene and verdicts["extension"]["passed"]:
            eta = [compile_field(e, E.structure.base)
                   for e in scene["moser"].get("eta_prime", [])]
            _, srep = straighten_lagrangian(E, field, eta_prime=eta, grid=32)
            verdicts["straightened_exact"] = _verdict(srep.passed,
                                                      **srep.as_dict())
            results["straighten"] = srep.as_dict()
    return {"results": results, "verdicts": verdicts}, artifacts


def _with_embedding(command):
    """Adapt a command body that takes the scene's embedding."""
    return lambda scene, options: command(scene, options,
                                          _build_embedding(scene))


COMMANDS = {
    "validate-structure": _cmd_validate_structure,
    "verify-lagrangian": _with_embedding(_cmd_verify_lagrangian),
    "scan-chords": _cmd_scan_chords,
    "mvt-report": _with_embedding(_cmd_mvt_report),
    "build-extension": _with_embedding(_cmd_build_extension),
    "moser-deform": _cmd_moser_deform,
    "lift-legendrian": _cmd_lift_legendrian,
    "projection-degree": _with_embedding(_cmd_projection_degree),
    "full-pipeline": _with_embedding(_cmd_full_pipeline),
}


def run_command(command: str, scene_path, out_dir, seed: int = 0,
                threads: int = 1, tol_overrides: dict | None = None) -> dict:
    """Run one subcommand on a scene; returns the full report dict.

    The report is deterministic for a fixed scene and seed (the timestamp is
    excluded from the digest); artifacts (CSV/JSON side files) land in
    ``out_dir``.  A numeric error (a failed precondition, an evaluation out
    of its domain, inconsistent dimensions) becomes one failed
    ``numeric_error`` verdict with the error's type, message and details;
    scene errors propagate, an unknown ``tol_overrides`` name among them.
    Reports are strict JSON: a non-finite float is written as null and its
    JSON pointer listed under ``non_finite``.
    """
    scene = load_scene(scene_path)
    if tol_overrides:
        unknown = sorted(set(tol_overrides) - set(TOLERANCES))
        if unknown:
            raise SceneError(f"unknown tolerance override {unknown[0]!r}; "
                             f"expected one of {sorted(TOLERANCES)}",
                             pointer="/tolerances")
        scene.setdefault("tolerances", {}).update(tol_overrides)
    if command not in COMMANDS:
        raise SceneError(f"unknown command {command!r}; "
                         f"expected one of {sorted(COMMANDS)}")
    options = {"seed": int(seed)}
    if options["seed"] < 0:
        raise SceneError(f"seed must be nonnegative, got {seed}")
    if options["seed"] >= 2 ** 32:
        raise SceneError(f"seed must be below 2**32, got {seed}")
    # a bad out_dir fails here, before any work; a scene error found by the
    # command removes the directories made for it, so it writes nothing
    out_dir = Path(out_dir)
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        body, artifacts = COMMANDS[command](scene, options)
    except SceneError:
        for p in made:
            p.rmdir()
        raise
    except (PreconditionError, DomainEvaluationError, DimensionError) as exc:
        # a numeric failure is a failed verdict: the report is still written
        error = _verdict(False, type=type(exc).__name__, message=str(exc),
                         details=getattr(exc, "details", {}))
        body = {"results": {}, "verdicts": {"numeric_error": error}}
        artifacts = {}

    artifact_paths = []
    for name, writer in artifacts.items():
        path = out_dir / f"{scene['name']}-{name}"
        writer(str(path))
        artifact_paths.append(str(path.name))

    passed = all(v.get("passed", False) for v in body["verdicts"].values()) \
        if body["verdicts"] else True
    report = {
        "schema": "report-v1",
        "command": command,
        "scene": scene["name"],
        "scene_digest": _scene_digest(scene_path),
        "seed": int(seed),
        "threads": int(threads),
        "results": body["results"],
        "verdicts": body["verdicts"],
        "artifacts": sorted(artifact_paths),
        "passed": bool(passed),
    }
    try:
        text = canonical_report_json(report)
    except ValueError:
        # strict JSON refused a non-finite float (an infinite tolerance, an
        # inf residual norm): write each as null and list its pointer
        non_finite = []
        report = _null_non_finite(report, "", non_finite)
        report["non_finite"] = non_finite
        text = canonical_report_json(report)
    # one encoding serves the digest (``report_digest``'s bytes) and the file
    stamp = {"digest": hashlib.sha256(text.encode()).hexdigest(),
             "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat()}
    text = _splice_top_level(text, report, stamp)
    report.update(stamp)
    report_path = out_dir / f"{scene['name']}-{command}.json"
    with open(report_path, "w") as fh:
        fh.write(text)
    return report
