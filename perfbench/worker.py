"""One benchmark iteration, run in a fresh interpreter.

Usage: ``python worker.py '<job JSON>'``.  The job names the CLI argument
lists to pass to ``imbindex.cli.main`` in order, the ``src`` directory
imbindex must be imported from, where to write the result, and, for a traced
iteration, where to write the spans.  The result file holds the wall time of
the calls (import excluded), their exit codes and the peak resident memory of
this process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``getrusage``'s ``ru_maxrss`` is not used: Linux carries the parent's peak
    over into it across ``exec``.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(raw_job: str) -> int:
    job = json.loads(raw_job)
    import imbindex.cli as cli

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"imbindex was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["spans"]:
        from spans import Tracer

        tracer = Tracer.install()

    start = time.perf_counter()
    codes = [cli.main(argv) for argv in job["calls"]]
    wall_s = time.perf_counter() - start

    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.dump(job["spans"], job["run_id"])
    Path(job["result"]).write_text(
        json.dumps({"wall_s": wall_s, "exit_codes": codes, "peak_rss_mb": peak_rss_mb})
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
