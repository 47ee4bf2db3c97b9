"""imbindex benchmark: four CLI workloads, end-to-end metrics and a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit_paper --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each iteration is one fresh interpreter (``worker.py``) that imports
``imbindex.cli`` from ``src/`` and makes the workload's CLI calls through
``imbindex.cli.main``; iterations run one after another (a closed loop with
one client) until ``--seconds`` have passed.  Every iteration's outputs are
checked.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics derived from the traced iterations' spans.

Times are reported at reference speed, because the speed of a shared machine
drifts by tens of percent over tens of seconds.  A fixed calibration loop,
run in this process and never in the program's, samples the machine's speed
right before and right after every timed interval.  Each measured time is
scaled by ``CALIBRATION_REFERENCE_S`` over the mean of its two samples, so it
reads as it would on a machine where the loop takes exactly that long.  Raw
times and calibration samples go into the run record.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record: commit, versions, nproc, seed and the sample count behind each
metric.  Exit code 1 means an output check failed; 2 means the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import spans as spans_mod
import workloads
from workloads import sha256_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170  # a single-workload run must end within 180 s
SETUP_SAMPLES = 7
CALIBRATION_REFERENCE_S = 0.1

WORKLOADS = ("audit_paper", "bound_scan", "simulate_specs", "label_eval")


def calibration_s() -> float:
    """Time a fixed loop of the interpreter work imbindex does: Fractions, tuples, dicts."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 30_000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        table[i, i % 13] = (i, i + 1)
    return time.perf_counter() - start


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("IMBINDEX_SEED", None)  # the CLI's default seed must not depend on the caller
    # Users import from cached byte code, so the warm-up writes it into the
    # checkout and timed interpreters read it from there.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


class Runner:
    """Runs jobs in fresh interpreters before a shared deadline and tallies failures."""

    def __init__(self, work: Path, deadline: float | None):
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrations: list[float] = []

    def past_deadline(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline

    def _timeout(self) -> float | None:
        if self.deadline is None:
            return None
        return max(1.0, self.deadline - time.perf_counter())

    def _speed(self, before: float, after: float) -> float:
        """Factor turning seconds measured between two calibration samples into
        reference-speed seconds."""
        self.calibrations += [before, after]
        return CALIBRATION_REFERENCE_S / ((before + after) / 2)

    def setup_sample(self) -> tuple[float, float]:
        """Spawn-to-exit seconds of a fresh interpreter importing ``imbindex.cli``,
        raw and at reference speed."""
        before = calibration_s()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import imbindex.cli"], env=self.env, cwd=self.work,
            check=True, timeout=self._timeout(),
        )
        elapsed = time.perf_counter() - start
        return elapsed, elapsed * self._speed(before, calibration_s())

    def iterate(self, job, spans: Path | None = None, run_id: int = 0) -> dict | None:
        """One iteration of ``job``: run it, check its outputs, record any failure.

        Returns the worker's result plus ``ref_wall_s`` (its ``wall_s`` at
        reference speed), ``units`` and ``digests``, or None when the worker
        itself did not finish.
        """
        self.attempted += 1
        job.out.mkdir(parents=True, exist_ok=True)
        for name in job.outputs:
            (job.out / name).unlink(missing_ok=True)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {"calls": job.calls, "src": str(SRC), "result": str(result_path),
                "spans": str(spans) if spans else None, "run_id": run_id}
        before = calibration_s()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired:
            return self.fail(["iteration did not finish before the run's deadline"])
        speed = self._speed(before, calibration_s())
        if proc.returncode != 0 or not result_path.exists():
            return self.fail([f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
        result = json.loads(result_path.read_text())
        result["ref_wall_s"] = result["wall_s"] * speed

        problems = [f"CLI call {i} exited {code}" for i, code in enumerate(result["exit_codes"])
                    if code != 0]
        try:
            result["digests"] = {name: sha256_of(job.out / name) for name in job.outputs}
            result["units"], found = job.check(job.out)
            problems += found
        except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
            result.setdefault("digests", {})
            result["units"] = 0
            problems.append(f"output check could not read the outputs: {err!r}")
        if job.digests is not None and result["digests"] != job.digests:
            changed = sorted(n for n in job.outputs
                             if result["digests"].get(n) != job.digests.get(n))
            problems.append(f"outputs differ from the recorded digests: {changed}")
        if problems:
            self.fail(problems)
        return result

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)
        return None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_timed(name, seed, seconds, runner: Runner):
    """End-to-end metrics of one workload, tracing off: {metric: (value, samples)}."""
    job, references = getattr(workloads, name)(seed, runner.work)
    runner.setup_sample()  # warm-up: byte-code caches, page cache
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    for reference in references:
        runner.iterate(reference)

    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and not runner.past_deadline():
        result = runner.iterate(job)
        if result is not None:
            results.append(result)
    metrics = {
        "setup_s": (_median([ref for _, ref in setup]), len(setup)),
        "wall_s": (_median([r["ref_wall_s"] for r in results]), len(results)),
        "work_per_s": (_median([r["units"] / r["ref_wall_s"] for r in results]), len(results)),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in results]), len(results)),
    }
    raw = {"raw_setup_s": [t for t, _ in setup], "raw_wall_s": [r["wall_s"] for r in results]}
    return metrics, {"work_unit": job.unit, **raw}


def run_traced(name, seed, seconds, runner: Runner):
    """Per-layer metrics of one workload from alternating untraced and traced iterations."""
    job, _ = getattr(workloads, name)(seed, runner.work)
    units = _declared("per_layer")
    spans_file = OUT / f"spans-{name}.npz"
    untraced, traced, layers = [], [], []
    untraced_digests, traced_digests = set(), set()
    start = time.perf_counter()
    k = 0
    # Run on past ``seconds`` until there is at least one iteration of each kind.
    while ((time.perf_counter() - start < seconds or not (untraced and traced) and k < 4)
           and not runner.past_deadline()):
        spans = spans_file if k % 2 else None
        result = runner.iterate(job, spans=spans, run_id=k)
        k += 1
        if result is None:
            continue
        digest = json.dumps(result["digests"], sort_keys=True)
        if spans is None:
            untraced.append(result["ref_wall_s"])
            untraced_digests.add(digest)
            continue
        traced.append(result["ref_wall_s"])
        traced_digests.add(digest)
        speed = result["ref_wall_s"] / result["wall_s"]
        scale = {"s": speed, "1/s": 1 / speed}
        layers.append({metric: value * scale.get(units[metric], 1)
                       for metric, value in spans_mod.layer_metrics(spans).items()})
    if untraced_digests != traced_digests:
        runner.fail(["traced outputs hash differently from untraced outputs"])

    metrics = {
        metric: (_median([layer[metric] for layer in layers]), len(layers))
        for metric in units if not metric.startswith("trace.") or metric == "trace.spans"
    }
    metrics["trace.wall_s"] = (_median(traced), len(traced))
    metrics["trace.untraced_wall_s"] = (_median(untraced), len(untraced))
    metrics["trace.overhead_s"] = (_median(traced) - _median(untraced),
                                   min(len(traced), len(untraced)))
    return metrics, {"spans_file": str(spans_file.relative_to(ROOT))}


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "imbindex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float | None):
    """Measure one workload; returns {metric: (value, unit, samples)} and the run record."""
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        runner = Runner(Path(tmp), deadline)
        measure = run_traced if trace else run_timed
        measured, extra = measure(name, seed, seconds, runner)
    declared = _declared("per_layer" if trace else "end_to_end")
    if set(measured) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(measured) ^ set(declared))} "
                           "differ from those BENCHMARK.json declares")
    metrics = {m: (measured[m][0], unit, measured[m][1]) for m, unit in declared.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "samples": {metric: n for metric, (_, _, n) in metrics.items()},
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems[:20],
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "calibration_s": runner.calibrations, **extra,
    }
    (OUT / f"record-{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    return metrics, record


def _print_block(metrics, record) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"commit {record['commit'][:12]}  python {record['python']}  "
          f"numpy {record['numpy']}  nproc {record['nproc']}")
    for metric, (value, unit, n) in metrics.items():
        print(f"  {metric:44s} {value:16.6g} {unit:6s} (n={n})")
    print(f"  {'failed_frac':44s} {record['failed_frac']:16.6g} {'':6s} "
          f"({record['failed']}/{record['attempted']} iterations)")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DIGEST_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "imbindex" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'imbindex'} or {ROOT / 'BENCHMARK.json'} is missing; "
              "run from a checkout of the imbindex repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks use imbindex's exact oracle

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + RUN_LIMIT_S if len(names) == 1 else None
    results = {}
    for name in names:
        metrics, record = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        _print_block(metrics, record)
        results[name] = (metrics, record)

    prefix = len(names) > 1
    records = [record for _, record in results.values()]
    summary = {
        "correct": all(record["failed"] == 0 for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, (metrics, _) in results.items()
            for metric, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(records[0] if len(records) == 1 else records))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
