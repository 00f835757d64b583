"""Run ``fireimpact.cli.main`` once in this fresh process and record it.

    python3 perfbench/child.py RESULT.json TRACE RUN_ID CPU -- <cli arguments>

The process first pins itself to CPU. Imports happen before the clock
starts. The result file holds the exit
code, the wall time of ``main``, this process's peak RSS and, when TRACE
is 1, the spans and counts of the run.

Peak RSS is read from VmHWM in /proc/self/status. ``ru_maxrss`` is not
used: when the parent starts this process with vfork, the kernel carries
the parent's peak over into the child's ``ru_maxrss``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fireimpact import cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    result_path, trace, run_id, cpu, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.stderr.write(__doc__)
        return 2
    os.sched_setaffinity(0, {int(cpu)})
    tracer = Tracer(run_id) if trace == "1" else None
    missing = tracer.install() if tracer else []
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    record = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "untraced_functions": missing,
    }
    if tracer:
        record["trace"] = tracer.export()
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
