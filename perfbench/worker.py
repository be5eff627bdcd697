"""Workload process of the benchmark: one fresh process per workload run.

``run.py`` starts this file with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``, from the root of a checkout.  Modes:

``setup``   import lcslab, load and validate the workload's scenes, report
            the set-up time and exit;
``run``     set up, then run the workload's command list back to back
            (closed loop, one client, ``threads=1``) and report the result;
``record``  print the expected outcomes of every workload entry at seed 0,
            in the format of ``workloads.json``, from the program as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCENES = ROOT / "scenes"
OUT = ROOT / ".perfbench"

# Exit-code classes of the command line: 0 all verdicts passed, 2 a verdict
# failed, 1 the scene was refused (SceneError).
PASS, FAIL, SCENE_ERROR = "pass", "fail", "scene-error"


def load_workloads() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)["workloads"]


@dataclass
class Outcome:
    """One command run, checked against its expected outcome."""

    entry: dict
    failed: bool
    outcome: str | None = None
    verdicts: dict | None = None
    digest: str | None = None
    error: str | None = None
    report_bytes: int = 0


def run_entry(entry: dict, out_dir, seed: int, run=None) -> Outcome:
    """Run one workload entry; never raises for a failure of the program.

    A run fails when it raises anything but ``SceneError``, or when its
    outcome class or verdict map (name -> passed) differs from the expected
    one.
    """
    from lcslab import scenes
    from lcslab.errors import SceneError
    run = run or scenes.run_command   # looked up now, so a tracer sees it
    try:
        report = run(entry["command"], SCENES / entry["scene"], out_dir,
                     seed=seed, threads=1)
    except SceneError:
        got = Outcome(entry, False, SCENE_ERROR)
    except Exception as exc:   # counted as a failed run; the sweep goes on
        return Outcome(entry, True, error=f"{type(exc).__name__}: {exc}")
    else:
        got = Outcome(entry, False, PASS if report["passed"] else FAIL,
                      {k: bool(v["passed"])
                       for k, v in report["verdicts"].items()},
                      report["digest"])
        path = Path(out_dir) / f"{report['scene']}-{report['command']}.json"
        if path.is_file():
            got.report_bytes = path.stat().st_size
    got.failed = (got.outcome != entry["outcome"]
                  or got.verdicts != entry["verdicts"])
    return got


def fail_share(outcomes) -> float:
    return (sum(o.failed for o in outcomes) / len(outcomes)
            if outcomes else 0.0)


def setup(entries) -> None:
    """What every command line invocation pays: import lcslab and load and
    validate the scenes (a malformed scene is refused here as well)."""
    from lcslab.errors import SceneError
    from lcslab.scenes import load_scene
    for scene in dict.fromkeys(e["scene"] for e in entries):
        try:
            load_scene(SCENES / scene)
        except SceneError:
            pass


def sweep(entries, seed: int, out_dir, tracer=None):
    """Run the command list once; returns wall s, CPU s and the outcomes."""
    outcomes = []
    t0, c0 = time.perf_counter(), time.process_time()
    for entry in entries:
        span = tracer.root(f"{entry['command']} {entry['scene']}") \
            if tracer else None
        try:
            outcomes.append(run_entry(entry, out_dir, seed))
        finally:
            if span is not None:
                tracer.close(span)
    return time.perf_counter() - t0, time.process_time() - c0, outcomes


def environment() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # older numpy, other build layouts
        blas = "unknown"
    return {
        "cpu_model": cpu or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads": 1,
    }


def _failures(outcomes) -> list:
    return [{"scene": o.entry["scene"], "command": o.entry["command"],
             "expected": o.entry["outcome"], "got": o.outcome,
             "verdicts": o.verdicts, "error": o.error}
            for o in outcomes if o.failed]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Sweep untraced for about ``seconds`` (once when tracing, then once
    traced) and check every outcome."""
    entries = load_workloads()[name]
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="reports-", dir=OUT)
    try:
        walls, cpus, outcomes, digests = [], [], [], []
        start = time.perf_counter()
        # closed loop: start another sweep only while it should end in time
        while not walls or (not trace and time.perf_counter() - start
                            + statistics.median(walls) <= seconds):
            wall, cpu, got = sweep(entries, seed, out_dir)
            walls.append(wall)
            cpus.append(cpu)
            outcomes += got
            digests.append([o.digest for o in got])
        result = {
            "sweep_samples": walls,
            "cpu_samples": cpus,
            "sweep_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if trace:
            traced, layers, spans = traced_sweep(name, entries, seed, out_dir)
            layers["trace.overhead_s"] = layers["trace.sweep_s"] - walls[0]
            result.update(layers=layers, spans=spans)
            outcomes += traced
            digests.append([o.digest for o in traced])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = sum(o.failed for o in outcomes)
    # every sweep, traced or not, must reproduce the same reports
    deterministic = all(d == digests[0] for d in digests)
    return dict(result, attempted=len(outcomes), failed=failed,
                fail_share=fail_share(outcomes), deterministic=deterministic,
                correct=failed == 0 and deterministic,
                failures=_failures(outcomes))


def traced_sweep(name, entries, seed, out_dir):
    """One sweep under the tracer; returns outcomes, per-layer metrics and
    the number of spans, which are written to ``.perfbench``."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        wall, _, outcomes = sweep(entries, seed, out_dir, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT / f"{name}-seed{seed}.spans.jsonl")
    layers = tracer.layer_metrics()
    layers.update({
        "scenes.report_bytes": sum(o.report_bytes for o in outcomes),
        "scenes.digest_match": sum(
            seed == 0 and o.digest is not None
            and o.digest == o.entry["digest_seed0"] for o in outcomes),
        "trace.sweep_s": wall,
    })
    return outcomes, layers, len(tracer.spans)


def record() -> dict:
    """Expected outcomes of every entry at seed 0, from the current program."""
    workloads = load_workloads()
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        for entries in workloads.values():
            for entry in entries:
                got = run_entry(dict(entry, outcome=None, verdicts=None),
                                out_dir, seed=0)
                if got.error:
                    raise RuntimeError(f"{entry}: {got.error}")
                entry.update(outcome=got.outcome, verdicts=got.verdicts,
                             digest_seed0=got.digest)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "record"),
                        required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float,
                        help="time.time() just before this process started")
    args = parser.parse_args(argv)
    if args.mode == "record":
        print(json.dumps({"workloads": record()}, indent=1))
        return 0
    entries = load_workloads()[args.workload]
    setup(entries)
    setup_s = time.time() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode == "run":
        out.update(run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace)))
        out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
