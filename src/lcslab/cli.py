"""Command-line front door.

One scene per invocation; subcommands select the pipeline.  Exit codes:
0 when every verdict passes, 1 on usage errors, on scene/schema errors (the
message carries a JSON pointer) and on scene or output paths the system
refuses, 2 when a numeric verdict fails (the report is still written).

The default output directory comes from the LCSLAB_OUT environment variable
(falling back to ./reports).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import SceneError
from .scenes import COMMANDS, run_command

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: exit 2 means a failed
    verdict whose report was written.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcslab",
        description="scene-driven checks for twisted cotangent geometry")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("scene_pos", nargs="?", metavar="SCENE",
                       help="scene file (alternative to --scene)")
        p.add_argument("--scene", help="scene file path")
        p.add_argument("--out", default=None,
                       help="output directory (default $LCSLAB_OUT or "
                            "./reports)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in the report only; every command "
                            "runs single-threaded")
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="KEY=VAL",
                       help="override a named tolerance, repeatable")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scene = args.scene or args.scene_pos
    if not scene:
        print("error: no scene file given", file=sys.stderr)
        return 1
    out = args.out or os.environ.get("LCSLAB_OUT", "reports")
    overrides = {}
    for item in args.tol_override:
        if "=" not in item:
            print(f"error: bad --tol-override {item!r}", file=sys.stderr)
            return 1
        key, val = item.split("=", 1)
        try:
            overrides[key] = float(val)
        except ValueError:
            print(f"error: --tol-override value not a number: {item!r}",
                  file=sys.stderr)
            return 1
    try:
        report = run_command(args.command, scene, out, seed=args.seed,
                             threads=args.threads, tol_overrides=overrides)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, verdict in report["verdicts"].items():
        state = "pass" if verdict.get("passed") else "FAIL"
        print(f"[{state}] {name}")
    print(f"report: {out}/{report['scene']}-{report['command']}.json")
    return 0 if report["passed"] else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
