"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload state_chain --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``--smoke`` shrinks every workload to a few-second check.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (and, when
traced, every span) is written under ``perfbench/out/``.

BLAS is pinned to one thread before numpy is imported; a run whose
libraries do not confirm one thread is refused with exit code 3.  The
program is imported from ``src/`` of the same checkout and nowhere else;
without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "leangrape" / "__init__.py").is_file():
        print(f"refused: no program source at {src}/leangrape", file=sys.stderr)
        return 2
    for var in PIN_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import leangrape

    if Path(leangrape.__file__).resolve().parent != (src / "leangrape").resolve():
        print(f"refused: leangrape was imported from {leangrape.__file__}", file=sys.stderr)
        return 2
    import envinfo
    import harness
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    env = envinfo.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    if not env["blas_pinned"]:
        print(
            f"refused: BLAS threads in effect are {env['blas_threads'] or 'unknown'}, not 1",
            file=sys.stderr,
        )
        return 3
    result = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, HERE / "out", env
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
