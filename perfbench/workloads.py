"""The benchmark's four workloads.

Each workload turns a seed into inputs and a :class:`Job`: the CLI calls one
iteration makes, the files those calls write, and a check that reads the files
and returns the iteration's units of work and any problems found.  A workload
may also return reference jobs, run once per timed run, whose outputs must
match the sha256 digests in ``digests.json``, recorded at ``DIGEST_SEED``.

Why these four (one per ROADMAP end-to-end path):

- ``audit_paper``: the paper's headline run; condition 1 exercises the
  ``Fraction`` oracle and random sampling, condition 2 a small enumeration.
- ``bound_scan``: the ``--c 2..6`` bound audit, nearly all enumeration,
  validation and float evaluation; the oracle barely runs.  No randomness.
- ``simulate_specs``: the ``lab`` layer on the five bundled specs: Gaussian
  generation, point resampling, the threshold tally and CSV writing.
- ``label_eval``: the only path through CSV parsing and ``ingest_labels``, on
  a million label rows; float evaluation runs once.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC_DIR = HERE.parent / "specs"
DIGEST_SEED = 1729  # the program's default seed; digests.json was recorded at it
FLOAT_TOL = 1e-12
LABEL_ROWS = 1_000_000
LABEL_NAMES = ("c0", "c1", "c2", "c3")
LABEL_PRIORS = (0.70, 0.18, 0.09, 0.03)
# Row i: how often a true-class-i row is predicted as each class.
LABEL_CONFUSION = (
    (0.90, 0.06, 0.03, 0.01),
    (0.15, 0.75, 0.07, 0.03),
    (0.10, 0.10, 0.70, 0.10),
    (0.20, 0.05, 0.15, 0.60),
)

# On a row-rescaling schedule, the indices whose expected condition-1 verdict
# is Invariant (plus recall and specificity, which are row rates) keep a
# schedule std of exactly 0; those with a Violated verdict move.
MIX_INVARIANT = frozenset({
    "gmean2", "auroc", "recall", "specificity", "m_precision", "m_aurpc",
    "gmean_c", "acsa", "auroc_ovo", "m_aurpc_ova",
})
MIX_VARIANT = frozenset({"precision", "aurpc", "auroc_ova", "n_auroc_ova", "aurpc_ova"})

Check = Callable[[Path], tuple[int, list[str]]]


@dataclass
class Job:
    calls: list[list[str]]  # CLI argument lists, passed in order to one process
    out: Path  # directory the calls write into
    outputs: list[str]  # names of the files the calls write in ``out``
    check: Check  # out -> (units of work, problems)
    unit: str  # what ``check`` counts as one unit of work
    digests: dict[str, str] | None = None  # expected sha256 per output


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded_digests(workload: str) -> dict[str, str]:
    recorded = json.loads((HERE / "digests.json").read_text())
    if recorded["seed"] != DIGEST_SEED:
        raise ValueError(f"digests.json was recorded at seed {recorded['seed']}, not {DIGEST_SEED}")
    return recorded[workload]


# ---------------------------------------------------------------------------
# audits


def _bound_problems(reports) -> list[str]:
    problems = []
    for report in reports:
        for row in (report.get("condition2") or {}).get("table", []):
            if (row["enumerated_min"] < row["theoretical_min"] - FLOAT_TOL
                    or row["enumerated_max"] > row["theoretical_max"] + FLOAT_TOL):
                problems.append(
                    f"{report['index']} at C={row['class_count']}: enumerated "
                    f"[{row['enumerated_min']}, {row['enumerated_max']}] crosses closed form "
                    f"[{row['theoretical_min']}, {row['theoretical_max']}]"
                )
    return problems


def _check_audit_paper(out: Path) -> tuple[int, list[str]]:
    """Units: index-matrix evaluations, counted from the report."""
    reports = json.loads((out / "audit.json").read_text())
    units = 0
    for report in reports:
        c1 = report.get("condition1")
        if c1 is not None:
            run = c1["witness"]["trial"] + 1 if c1["witness"] else c1["trials"]
            units += 2 * run + c1["resampled_undefined"]  # matrix and its rescaling
        for row in (report.get("condition2") or {}).get("table", []):
            units += row["matrix_count"]
        c3 = report.get("condition3")
        if c3 is not None:
            units += len(c3["values"])
    return units, _bound_problems(reports)


def _audit_job(seed: int, out: Path, digests=None) -> Job:
    return Job(
        calls=[["audit", "--all", "--check-paper", "--seed", str(seed),
                "--output", str(out / "audit.json")]],
        out=out, outputs=["audit.json"], check=_check_audit_paper, digests=digests,
        unit="index-matrix evaluations",
    )


def audit_paper(seed: int, work: Path) -> tuple[Job, list[Job]]:
    reference = _audit_job(DIGEST_SEED, work / "reference", recorded_digests("audit_paper"))
    return _audit_job(seed, work / "out"), [reference]


def _check_bound_scan(out: Path) -> tuple[int, list[str]]:
    """Units: matrices enumerated, summed over the class counts."""
    reports = json.loads((out / "scan.json").read_text())
    tables = [r["condition2"]["table"] for r in reports if r["condition2"]["table"]]
    if not tables:
        return 0, ["no condition-2 table in the report"]
    return sum(row["matrix_count"] for row in tables[0]), _bound_problems(reports)


def bound_scan(seed: int, work: Path) -> tuple[Job, list[Job]]:
    # The scan has no randomness: the seed is recorded but not passed, so every
    # iteration's report must match the recorded digest.
    del seed
    out = work / "out"
    job = Job(
        calls=[["audit", "--all", "--cond", "2", "--c", "2..6", "--check-paper",
                "--output", str(out / "scan.json")]],
        out=out, outputs=["scan.json"], check=_check_bound_scan,
        digests=recorded_digests("bound_scan"), unit="matrices enumerated",
    )
    return job, []


# ---------------------------------------------------------------------------
# distortion experiments


def _spec_copies(seed: int, dest: Path) -> list[tuple[Path, str]]:
    """Copies of the bundled specs with ``seed`` replaced; (path, experiment) each."""
    dest.mkdir(parents=True, exist_ok=True)
    copies = []
    for path in sorted(SPEC_DIR.glob("*.json")):
        spec = json.loads(path.read_text())
        spec["seed"] = seed
        target = dest / path.name
        target.write_text(json.dumps(spec, indent=2))
        copies.append((target, spec["experiment"]))
    return copies


def _check_simulate(out: Path, experiments: list[str]) -> tuple[int, list[str]]:
    """Units: rows of the long CSVs."""
    units = 0
    for name in experiments:
        with (out / f"{name}_long.csv").open(newline="") as fh:
            units += sum(1 for _ in fh) - 1
    problems = []
    with (out / "rrt_stability_matrix_summary.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["statistic"] != "std":
                continue
            index, raw = row["index"], row["value"]
            value = None if raw == "UNDEFINED" else float(raw)
            if index in MIX_INVARIANT and value != 0.0:
                problems.append(f"rrt_stability_matrix: {index} schedule std {value} != 0")
            elif index in MIX_VARIANT and not (value is not None and value > 0.0):
                problems.append(f"rrt_stability_matrix: {index} schedule std {value} is not > 0")
    return units, problems


def _simulate_job(seed: int, work: Path, out: Path, digests=None) -> Job:
    copies = _spec_copies(seed, work / f"specs-{seed}")
    experiments = [name for _, name in copies]
    return Job(
        calls=[["simulate", str(path), "--output-dir", str(out)] for path, _ in copies],
        out=out,
        outputs=[f"{name}_{kind}.csv" for name in experiments for kind in ("long", "summary")],
        check=lambda o: _check_simulate(o, experiments),
        digests=digests, unit="long-CSV rows",
    )


def simulate_specs(seed: int, work: Path) -> tuple[Job, list[Job]]:
    reference = _simulate_job(DIGEST_SEED, work, work / "reference",
                              recorded_digests("simulate_specs"))
    return _simulate_job(seed, work, work / "out"), [reference]


# ---------------------------------------------------------------------------
# label evaluation


def write_label_file(seed: int, path: Path) -> list[list[int]]:
    """Write ``LABEL_ROWS`` imbalanced 4-class ``true,predicted`` rows.

    Returns the tally in the order the CLI uses without ``--classes``: first
    appearance over the rows, true label before predicted label.
    """
    rng = np.random.default_rng(seed)
    k = len(LABEL_NAMES)
    true = rng.choice(k, size=LABEL_ROWS, p=LABEL_PRIORS)
    cumulative = np.cumsum(LABEL_CONFUSION, axis=1)
    cumulative[:, -1] = 1.0
    pred = (rng.random(LABEL_ROWS)[:, None] >= cumulative[true]).sum(axis=1)
    cells = true * k + pred
    pair_text = np.array([f"{a},{b}" for a in LABEL_NAMES for b in LABEL_NAMES])
    path.write_text("true,predicted\n" + "\n".join(pair_text[cells].tolist()) + "\n")

    sequence = np.empty(2 * LABEL_ROWS, dtype=np.int64)
    sequence[0::2], sequence[1::2] = true, pred
    labels, first = np.unique(sequence, return_index=True)
    order = labels[np.argsort(first)]
    counts = np.bincount(cells, minlength=k * k).reshape(k, k)
    return [[int(counts[i, j]) for j in order] for i in order]


def _check_label_eval(out: Path, expected: list[list[int]]) -> tuple[int, list[str]]:
    """Units: label rows.  The saved matrix must equal the generator's tally
    and each index value the exact oracle's, within FLOAT_TOL."""
    from imbindex.confusion import ConfusionMatrix
    from imbindex.registry import exact

    problems = []
    with (out / "matrix.csv").open(newline="") as fh:
        saved = [[int(cell) for cell in row] for row in csv.reader(fh) if row]
    if saved != expected:
        problems.append(f"saved matrix {saved} != generated tally {expected}")
    results = json.loads((out / "eval.json").read_text())
    if not results:
        problems.append("eval reported no indices")
    matrix = ConfusionMatrix(tuple(tuple(row) for row in expected))
    for result in results:
        oracle = exact(result["index"], matrix)
        want = None if oracle is None else oracle.value
        got = result["value"]
        if (want is None) != (got is None) or (
                want is not None and abs(got - want) > FLOAT_TOL):
            problems.append(f"{result['index']}: value {got} != exact {want}")
    return LABEL_ROWS, problems


def label_eval(seed: int, work: Path) -> tuple[Job, list[Job]]:
    labels = work / "labels.csv"
    expected = write_label_file(seed, labels)
    out = work / "out"
    job = Job(
        calls=[["eval", "--labels", str(labels), "--format", "json",
                "--save-matrix", str(out / "matrix.csv"), "--output", str(out / "eval.json")]],
        out=out, outputs=["matrix.csv", "eval.json"],
        check=lambda o: _check_label_eval(o, expected), unit="label rows",
    )
    return job, []
