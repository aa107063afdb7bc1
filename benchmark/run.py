"""docrecs benchmark: one command for every workload, untraced or traced.

    python3 benchmark/run.py --workload all_arms_xml --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. ``--trace 0`` drives the real CLI
and HTTP entry points and prints the end-to-end metrics; ``--trace 1`` replays
the same inputs in process with spans around each layer's public functions
and prints the per-layer metrics. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORK_DIR = ".bench_work"  # scratch stores and logs, removed when the run ends
OUT_DIR = ".bench_out"  # span files and steadiness series, kept


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the `finally` blocks that stop the servers


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    if not (root / "src" / "docrecs" / "__init__.py").is_file() or not (root / "tests" / "support.py").is_file():
        print("run.py: no src/docrecs or tests/support.py here; run it from the root of a docrecs checkout",
              file=sys.stderr)
        return 2
    # the program under test, and the test suite's corpus generator
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import gen

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    # One CPU for the client and every process it starts: a request's round
    # trip then needs no wake-up on another CPU, which a hypervisor delays
    # whenever it has taken that CPU away.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    import e2e

    workload = gen.WORKLOADS[args.workload]
    try:
        if args.trace:
            import traced

            result = traced.run(root / OUT_DIR, work, workload, args.seed, args.seconds)
        else:
            result = e2e.run(root, work, workload, args.seed, args.seconds)
    except e2e.PhaseError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
