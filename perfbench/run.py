"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(``worker.py``) with BLAS pinned to one thread and ``src`` first on
``PYTHONPATH``, so the checkout's own ``lcslab`` is measured:

* ``--trace 0``: a few set-up probes, then one workload process that sweeps
  the workload's command list back to back for about ``--seconds``; prints
  the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: one workload process that sweeps once untraced and once
  under the outside-in tracer; prints the per-layer metrics.

Every verdict is checked against ``workloads.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The lines before it restate the metrics for a reader and
record the environment; the full result is also written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# Fresh processes that only set up; with the workload process itself they
# give the samples whose median is ``setup_s``.
SETUP_PROBES = 2
# Every run must end within this many seconds.
DEADLINE_S = 170.0
# lcslab's sample_points fast-forwards its Halton sequence by generating
# seed x n points, so memory grows with the seed: seed 10**6 needs about 4 GB
# on moser-constant-ball.  Seeds are therefore taken modulo this range.
SEED_RANGE = 1000


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run the worker and return the JSON object it prints last."""
    cmd = [sys.executable, str(WORKER), "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd + args, stdout=subprocess.PIPE,
                            env=worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {args} ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.time() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "lcslab" / "scenes.py").is_file() \
            or not (root / "scenes").is_dir():
        print(f"error: {root} holds no lcslab checkout (src/lcslab, scenes)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload]
    setups = []
    if not args.trace:
        setups = [spawn(common + ["--mode", "setup"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    seed = args.seed % SEED_RANGE
    res = spawn(common + ["--mode", "run", "--seed", str(seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    setups.append(res["setup_s"])

    if args.trace:
        values, wanted = res["layers"], spec["per_layer"]
    else:
        values = {"sweep_s": res["sweep_s"], "cpu_s": res["cpu_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    res.update(setup_samples=setups, program_seed=seed)
    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(res, metrics=metrics), indent=1))

    print(f"environment: {json.dumps(res['environment'])}")
    for failure in res["failures"]:
        print(f"failed run: {json.dumps(failure)}")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(res['sweep_samples'])} untraced sweep(s), "
          f"{res['attempted']} runs")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_share':48s} {res['fail_share']:.6g} share")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
