"""Synthetic distortion experiments: Gaussian data, threshold classifiers,
test-mix resampling, and index-stability summaries.

Two resampling modes are provided.  Point mode subsamples labeled points
(never oversamples) and mirrors a real experiment, so it carries sampling
noise.  Matrix mode rescales confusion-matrix rows by exact rational factors,
which changes the test mix while provably preserving the row profile; it
isolates the distortion an index suffers from the mix change alone.

Experiments are declarative (frozen dataclass specs, loadable from JSON) and
deterministic: trial ``t`` of an experiment with seed ``s`` draws all its
randomness from a stream derived from ``(s, t)``.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .confusion import (
    ConfusionMatrix,
    EmptyRowError,
    IntegralityError,
    MatrixError,
    apply_scaling,
    even_error_matrix,
    to_fraction,
)
from .registry import DEFAULT_SEED, evaluate, get_index

STATUS_OK = "ok"


class UnachievableRRTError(MatrixError):
    """The requested test-mix ratio cannot be reached by subsampling."""


class SpecError(ValueError):
    """An experiment spec failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class GaussianClassSpec:
    """One 2-D Gaussian class: mean, diagonal covariance, and sample count."""

    label: str
    mean: tuple[float, float]
    variances: tuple[float, float]
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "mean", (float(self.mean[0]), float(self.mean[1])))
        object.__setattr__(
            self, "variances", (float(self.variances[0]), float(self.variances[1]))
        )
        if self.variances[0] <= 0 or self.variances[1] <= 0:
            raise SpecError(f"class {self.label!r}: variances must be positive")
        if self.sample_count < 1:
            raise SpecError(f"class {self.label!r}: sample_count must be >= 1")


@dataclass(frozen=True)
class PointSet:
    """Labeled 2-D points: each label maps to its (n, 2) float64 points in
    generation order."""

    classes: dict[str, np.ndarray]

    def class_counts(self) -> dict[str, int]:
        return {label: len(xy) for label, xy in self.classes.items()}


def generate_gaussian_dataset(
    specs: Sequence[GaussianClassSpec], seed: int | np.random.Generator
) -> PointSet:
    """Sample every class spec in order from one seeded stream; specs that
    share a label are stacked under it."""
    rng = np.random.default_rng(seed)
    blocks: dict[str, list[np.ndarray]] = {}
    for spec in specs:
        std = np.sqrt(np.asarray(spec.variances))
        block = np.asarray(spec.mean) + rng.standard_normal((spec.sample_count, 2)) * std
        blocks.setdefault(spec.label, []).append(block)
    return PointSet({label: np.vstack(b) for label, b in blocks.items()})


def threshold_classifier_confusion(
    points: PointSet,
    threshold: float,
    positive_label: str,
    positive_side: str = "greater",
) -> ConfusionMatrix:
    """Tally a vertical-line decision rule at ``x = threshold`` into a 2x2 matrix.

    Row 0 is the positive class.  ``positive_side`` selects which half-plane
    is predicted positive: ``"greater"`` means x > threshold, ``"less"``
    means x < threshold.
    """
    classes = points.classes
    if len(classes) != 2:
        raise MatrixError(f"threshold classifier needs exactly 2 classes, got {sorted(classes)}")
    if positive_label not in classes:
        raise MatrixError(f"positive label {positive_label!r} not present in {sorted(classes)}")
    if positive_side not in ("greater", "less"):
        raise MatrixError(f"positive_side must be 'greater' or 'less', got {positive_side!r}")
    (negative_label,) = [k for k in classes if k != positive_label]
    pos, neg = classes[positive_label][:, 0], classes[negative_label][:, 0]
    if len(pos) == 0 or len(neg) == 0:
        raise EmptyRowError("a class has no points")
    predicts_pos = np.greater if positive_side == "greater" else np.less
    tp = int(np.count_nonzero(predicts_pos(pos, threshold)))
    fp = int(np.count_nonzero(predicts_pos(neg, threshold)))
    return ConfusionMatrix(((tp, len(pos) - tp), (fp, len(neg) - fp)))


# ---------------------------------------------------------------------------
# test-mix resampling


def resample_points_to_rrt(
    points: PointSet,
    target,
    majority_label: str,
    seed: int | np.random.Generator,
) -> PointSet:
    """Subsample a two-class point set to the requested majority/minority ratio.

    The ratio is counted as ``n(majority_label) / n(other)``.  When the target
    is reachable by shrinking the minority class the majority is kept intact;
    otherwise the majority is shrunk.  Points are never duplicated, and each
    class keeps its generation order.
    """
    target = to_fraction(target)
    if target <= 0:
        raise UnachievableRRTError(f"target ratio {target} is not positive")
    counts = points.class_counts()
    if len(counts) != 2:
        raise MatrixError(f"point-mode resampling needs 2 classes, got {sorted(counts)}")
    if majority_label not in counts:
        raise MatrixError(f"majority label {majority_label!r} not present")
    (minority_label,) = [k for k in counts if k != majority_label]
    n_maj = counts[majority_label]
    n_min = counts[minority_label]

    want_min = round(n_maj / target)
    if 0 < want_min <= n_min:
        keep = {majority_label: n_maj, minority_label: want_min}
    else:
        want_maj = round(n_min * target)
        if not 0 < want_maj <= n_maj:
            raise UnachievableRRTError(
                f"ratio {target} unreachable from counts {n_maj}/{n_min} by subsampling"
            )
        keep = {majority_label: want_maj, minority_label: n_min}

    rng = np.random.default_rng(seed)
    kept = {}
    for label, k in keep.items():
        xy = points.classes[label]
        if k < len(xy):
            xy = xy[np.sort(rng.choice(len(xy), size=k, replace=False))]
        kept[label] = xy
    return PointSet(kept)


def rescale_matrix_to_rrt(m: ConfusionMatrix, target) -> ConfusionMatrix:
    """Exactly rescale a 2-class matrix so row sums realize the target ratio.

    Row 0 (the minority/positive row) is kept fixed and row 1 is scaled to
    ``target * row_sum(0)``; the result is equivalent to the input.  Raises
    when the scaling breaks integrality.
    """
    if m.class_count != 2:
        raise MatrixError("rrt rescaling applies to 2-class matrices; pass counts for C > 2")
    target = to_fraction(target)
    if target <= 0:
        raise UnachievableRRTError(f"target ratio {target} is not positive")
    new_majority = target * m.row_sums[0]
    if new_majority.denominator != 1:
        raise IntegralityError(
            f"target {target} with minority row sum {m.row_sums[0]} is not an integer count"
        )
    factor = Fraction(int(new_majority), m.row_sums[1])
    return apply_scaling(m, (1, factor))


def rescale_matrix_to_counts(m: ConfusionMatrix, per_class_counts: Sequence[int]) -> ConfusionMatrix:
    """Exactly rescale each row to the requested per-class count."""
    if len(per_class_counts) != m.class_count:
        raise MatrixError(
            f"{len(per_class_counts)} target counts for a {m.class_count}-class matrix"
        )
    factors = []
    for target, current in zip(per_class_counts, m.row_sums):
        target = int(target)
        if target <= 0:
            raise MatrixError("target counts must be positive")
        factors.append(Fraction(target, current))
    return apply_scaling(m, factors)


def synthetic_multiclass_confusion(
    class_count: int,
    accuracy,
    profile: Sequence[int],
) -> ConfusionMatrix:
    """Matrix with per-class accuracy ``accuracy`` and uniform off-diagonal errors.

    ``accuracy * n_i`` must be an integer for every class (pick profiles
    accordingly); the off-diagonal remainder of each row goes to the
    lowest-indexed other class.
    """
    accuracy = to_fraction(accuracy)
    if not 0 <= accuracy <= 1:
        raise MatrixError(f"accuracy {accuracy} outside [0, 1]")
    profile = tuple(int(v) for v in profile)
    if len(profile) != class_count:
        raise MatrixError(f"profile has {len(profile)} counts, class_count is {class_count}")
    if any(n_i <= 0 for n_i in profile):
        raise MatrixError("profile counts must be positive")
    return even_error_matrix([accuracy] * class_count, profile)


# ---------------------------------------------------------------------------
# experiment specs


@dataclass(frozen=True)
class Type1SweepSpec:
    """Two-class threshold sweep over a schedule of test-mix ratios."""

    experiment: str
    generators: tuple[GaussianClassSpec, ...]
    positive_label: str
    positive_side: str
    majority_label: str
    thresholds: tuple[float, ...]
    rrt_schedule: tuple[Fraction, ...]
    indices: tuple[str, ...]
    trials: int
    seed: int

    kind = "type1_sweep"


@dataclass(frozen=True)
class GrowthStep:
    class_count: int
    profile: tuple[int, ...]


@dataclass(frozen=True)
class Type2GrowthSpec:
    """Accuracy-profiled matrices over a growing class count."""

    experiment: str
    steps: tuple[GrowthStep, ...]
    accuracy_sweep: tuple[Fraction, ...]
    indices: tuple[str, ...]
    seed: int

    kind = "type2_growth"


@dataclass(frozen=True)
class MatrixStabilityDataset:
    """Matrix-mode stability dataset: exact row rescaling along the schedule.

    Schedule entries are ratios for 2-class matrices or per-class count lists
    for larger matrices.
    """

    dataset_id: str
    matrix: ConfusionMatrix
    schedule: tuple
    indices: tuple[str, ...]

    mode = "matrix"


@dataclass(frozen=True)
class PointStabilityDataset:
    """Point-mode stability dataset: seeded subsampling then a fixed classifier."""

    dataset_id: str
    generators: tuple[GaussianClassSpec, ...]
    threshold: float
    positive_label: str
    positive_side: str
    majority_label: str
    schedule: tuple[Fraction, ...]
    trials: int
    indices: tuple[str, ...]

    mode = "point"


@dataclass(frozen=True)
class RRTStabilitySpec:
    """Index stability across a test-mix schedule, per dataset."""

    experiment: str
    datasets: tuple
    seed: int

    kind = "rrt_stability"


ExperimentSpec = Type1SweepSpec | Type2GrowthSpec | RRTStabilitySpec


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecError(f"{where}.{key}: missing required field")
    return obj[key]


def _list(obj: dict, key: str, where: str, entries: type | None = None) -> list:
    """The JSON array at ``obj[key]``; with ``entries`` (``dict`` or ``list``)
    every entry must be a JSON object or array."""
    field = f"{where}.{key}"
    value = _need(obj, key, where)
    if not isinstance(value, list):
        raise SpecError(f"{field}: expected a JSON array, got {value!r}")
    if entries is not None:
        kind = "object" if entries is dict else "array"
        for k, entry in enumerate(value):
            if not isinstance(entry, entries):
                raise SpecError(f"{field}[{k}]: expected a JSON {kind}, got {entry!r}")
    return value


def _int(value, where: str) -> int:
    """A JSON integer; a float or a bool is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where}: expected an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """A finite JSON number; a bool, a string or a non-finite value is an error."""
    # NaN fails the comparison; an int past the float range fails it exactly
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise SpecError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _ratio(value, where: str) -> Fraction:
    try:
        return to_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SpecError(f"{where}: {value!r} is not a ratio") from None


def _pair(obj: dict, key: str, where: str) -> tuple[float, float]:
    values = _list(obj, key, where)
    if len(values) != 2:
        raise SpecError(f"{where}.{key}: expected 2 numbers, got {len(values)}")
    return tuple(_number(v, f"{where}.{key}") for v in values)


def _generators(obj: dict, where: str) -> tuple[GaussianClassSpec, ...]:
    out = []
    for g_idx, g in enumerate(_list(obj, "generators", where, dict)):
        spot = f"{where}.generators[{g_idx}]"
        out.append(
            GaussianClassSpec(
                label=str(_need(g, "label", spot)),
                mean=_pair(g, "mean", spot),
                variances=_pair(g, "variances", spot),
                sample_count=_int(_need(g, "sample_count", spot), f"{spot}.sample_count"),
            )
        )
    return tuple(out)


def _index_list(obj: dict, where: str) -> tuple[str, ...]:
    ids = tuple(str(i) for i in _list(obj, "indices", where))
    if not ids:
        raise SpecError(f"{where}.indices: at least one index required")
    for i in ids:
        get_index(i)
    return ids


def _point_sweep(raw: dict, where: str, schedule_field: str) -> dict:
    """The fields a ``type1_sweep`` and a point dataset share, checked by one rule:
    a non-empty schedule of positive ratios, at least one trial, generators
    giving exactly two distinct labels, a positive and a majority label among
    them, and a positive side of ``greater`` or ``less``."""
    field = f"{where}.{schedule_field}"
    schedule = tuple(_ratio(v, field) for v in _list(raw, schedule_field, where))
    if not schedule:
        raise SpecError(f"{field}: must be non-empty")
    if any(v <= 0 for v in schedule):
        raise SpecError(f"{field}: entries must be positive")
    trials = _int(raw.get("trials", 1), f"{where}.trials")
    if trials < 1:
        raise SpecError(f"{where}.trials: must be >= 1")
    generators = _generators(raw, where)
    labels = sorted({g.label for g in generators})
    if len(labels) != 2:
        raise SpecError(f"{where}.generators: need exactly 2 distinct labels, got {labels}")
    named = {key: str(_need(raw, key, where)) for key in ("positive_label", "majority_label")}
    for key, label in named.items():
        if label not in labels:
            raise SpecError(f"{where}.{key}: {label!r} is not a generator label {labels}")
    side = str(raw.get("positive_side", "greater"))
    if side not in ("greater", "less"):
        raise SpecError(f"{where}.positive_side: expected 'greater' or 'less', got {side!r}")
    return dict(named, generators=generators, positive_side=side, trials=trials,
                **{schedule_field: schedule})


def load_spec(source) -> ExperimentSpec:
    """Parse an experiment spec from a dict or a JSON file path."""
    raw = json.loads(Path(source).read_text()) if isinstance(source, (str, Path)) else source
    if not isinstance(raw, dict):
        raise SpecError("spec: expected a JSON object")

    kind = _need(raw, "kind", "spec")
    experiment = _need(raw, "experiment", "spec")
    # the name prefixes the output file names, so it must stay in the output directory
    bad_name = not isinstance(experiment, str) or experiment in ("", ".", "..")
    if bad_name or "/" in experiment or "\\" in experiment:
        raise SpecError(
            f"spec.experiment: {experiment!r} is not a file name (it must be a "
            "non-empty string, not '.' or '..', and contain no '/' or '\\')"
        )
    seed = _int(raw.get("seed", DEFAULT_SEED), "spec.seed")
    if seed < 0:
        raise SpecError("spec.seed: must be >= 0")

    if kind == "type1_sweep":
        sweep = _point_sweep(raw, "spec", "rrt_schedule")
        thresholds = tuple(_number(t, "spec.thresholds") for t in _list(raw, "thresholds", "spec"))
        if not thresholds:
            raise SpecError("spec.thresholds: must be non-empty")
        return Type1SweepSpec(
            experiment=experiment,
            thresholds=thresholds,
            indices=_index_list(raw, "spec"),
            seed=seed,
            **sweep,
        )

    if kind == "type2_growth":
        steps = []
        for s_idx, s in enumerate(_list(raw, "steps", "spec", dict)):
            spot = f"spec.steps[{s_idx}]"
            profile = tuple(_int(v, f"{spot}.profile") for v in _list(s, "profile", spot))
            class_count = _int(s.get("class_count", len(profile)), f"{spot}.class_count")
            if class_count != len(profile):
                raise SpecError(f"{spot}.profile: {len(profile)} counts for C={class_count}")
            steps.append(GrowthStep(class_count, profile))
        if not steps:
            raise SpecError("spec.steps: at least one step required")
        sweep = tuple(
            _ratio(a, "spec.accuracy_sweep") for a in _list(raw, "accuracy_sweep", "spec")
        )
        if not sweep:
            raise SpecError("spec.accuracy_sweep: at least one accuracy required")
        return Type2GrowthSpec(
            experiment=experiment,
            steps=tuple(steps),
            accuracy_sweep=sweep,
            indices=_index_list(raw, "spec"),
            seed=seed,
        )

    if kind == "rrt_stability":
        datasets = []
        for d_idx, d in enumerate(_list(raw, "datasets", "spec", dict)):
            spot = f"spec.datasets[{d_idx}]"
            mode = str(_need(d, "mode", spot))
            dataset_id = str(_need(d, "id", spot))
            indices = _index_list(d, spot)
            if mode == "matrix":
                matrix = ConfusionMatrix(tuple(tuple(r) for r in _list(d, "matrix", spot, list)))
                field = f"{spot}.schedule"
                schedule = tuple(
                    tuple(_int(v, field) for v in entry) if isinstance(entry, (list, tuple))
                    else _ratio(entry, field)
                    for entry in _list(d, "schedule", spot)
                )
                if not schedule:
                    raise SpecError(f"{field}: must be non-empty")
                datasets.append(MatrixStabilityDataset(dataset_id, matrix, schedule, indices))
            elif mode == "point":
                datasets.append(
                    PointStabilityDataset(
                        dataset_id=dataset_id,
                        threshold=_number(_need(d, "threshold", spot), f"{spot}.threshold"),
                        indices=indices,
                        **_point_sweep(d, spot, "schedule"),
                    )
                )
            else:
                raise SpecError(f"{spot}.mode: expected 'matrix' or 'point', got {mode!r}")
        if not datasets:
            raise SpecError("spec.datasets: at least one dataset required")
        ids = [d.dataset_id for d in datasets]
        if len(set(ids)) != len(ids):
            raise SpecError("spec.datasets: dataset ids must be unique")
        return RRTStabilitySpec(experiment=experiment, datasets=tuple(datasets), seed=seed)

    raise SpecError(f"spec.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment results


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    trial: int
    setting: str
    rrt_or_c: str
    index: str
    value: float | None
    status: str


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    setting: str
    index: str
    rrt_or_c: str
    statistic: str
    value: float | None
    status: str


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    rows: tuple[ResultRow, ...]
    summary: tuple[SummaryRow, ...]

    def stds(self) -> dict[tuple[str, str], float | None]:
        """(setting, index) -> standard deviation over the schedule."""
        return {
            (r.setting, r.index): r.value
            for r in self.summary
            if r.statistic == "std"
        }

    def mins(self) -> dict[tuple[str, str], float | None]:
        """(rrt_or_c, index) -> minimum over the sweep (growth experiments)."""
        return {
            (r.rrt_or_c, r.index): r.value
            for r in self.summary
            if r.statistic == "min"
        }

    def means(self) -> dict[tuple[str, str, str], float | None]:
        """(setting, index, rrt_or_c) -> mean over trials."""
        return {
            (r.setting, r.index, r.rrt_or_c): r.value
            for r in self.summary
            if r.statistic == "mean"
        }

    def digest(self) -> dict[str, float | None]:
        """Per index: mean of the schedule standard deviations across settings."""
        per_index: dict[str, list[float]] = {}
        seen: set[str] = set()
        for r in self.summary:
            if r.statistic != "std":
                continue
            seen.add(r.index)
            if r.value is not None:
                per_index.setdefault(r.index, []).append(r.value)
        return {
            i: (statistics.fmean(vals) if (vals := per_index.get(i)) else None)
            for i in sorted(seen)
        }

    def write_csv(self, output_dir) -> tuple[Path, Path]:
        """Write ``<experiment>_long.csv`` and ``<experiment>_summary.csv``: one
        column per row field, in declaration order, with ``None`` as ``UNDEFINED``."""
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for suffix, rows, row_type in (
            ("long", self.rows, ResultRow), ("summary", self.summary, SummaryRow)
        ):
            names = [f.name for f in fields(row_type)]
            path = output_dir / f"{self.experiment}_{suffix}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(names)
                for r in rows:
                    writer.writerow(
                        "UNDEFINED" if (v := getattr(r, n)) is None else v for n in names
                    )
            paths.append(path)
        return tuple(paths)


def _attempt(build, *args):
    """``build(*args)``, or the ``MatrixError`` it raised."""
    try:
        return build(*args)
    except MatrixError as err:
        return err


def _result_rows(experiment: str, cells, indices: Sequence[str]) -> list[ResultRow]:
    """One row per index for each ``(trial, setting, rrt_or_c, matrix)`` cell.

    A cell whose matrix is a ``MatrixError`` gives every index an undefined row
    whose status names the error.
    """
    rows: list[ResultRow] = []
    for trial, setting, rrt_or_c, matrix in cells:
        if isinstance(matrix, MatrixError):
            reason = f"{type(matrix).__name__}: {matrix}"
            rows.extend(
                ResultRow(experiment, trial, setting, rrt_or_c, i, None, reason) for i in indices
            )
            continue
        for index_id in indices:
            iv = evaluate(index_id, matrix)
            rows.append(
                ResultRow(experiment, trial, setting, rrt_or_c, index_id, iv.value,
                          STATUS_OK if iv.defined else iv.reason)
            )
    return rows


def _schedule_key(entry) -> str:
    if isinstance(entry, tuple):
        return "x".join(str(v) for v in entry)
    return str(entry)


def _mean_and_std_summary(
    experiment: str,
    rows: Sequence[ResultRow],
    indices: Sequence[str],
    settings: Sequence[str],
    schedule_keys: Sequence[str],
) -> list[SummaryRow]:
    """Per (setting, index, schedule entry): mean over trials; then the
    standard deviation of those means over the schedule."""
    summary: list[SummaryRow] = []
    cells: dict[tuple[str, str, str], list[float]] = {}
    missing: dict[tuple[str, str, str], str] = {}
    for r in rows:
        key = (r.setting, r.index, r.rrt_or_c)
        if r.value is None:
            missing.setdefault(key, r.status)
        else:
            cells.setdefault(key, []).append(r.value)
    for setting in settings:
        for index_id in indices:
            means: list[float] = []
            broken: str | None = None
            for sched in schedule_keys:
                key = (setting, index_id, sched)
                if key in missing:
                    status = missing[key]
                    summary.append(
                        SummaryRow(experiment, setting, index_id, sched, "mean", None, status)
                    )
                    broken = broken or f"undefined at {sched}"
                    continue
                vals = cells.get(key)
                if not vals:
                    continue
                mean = statistics.fmean(vals)
                means.append(mean)
                summary.append(
                    SummaryRow(experiment, setting, index_id, sched, "mean", mean, STATUS_OK)
                )
            complete = broken is None and len(means) == len(schedule_keys)
            summary.append(
                SummaryRow(
                    experiment, setting, index_id, "", "std",
                    statistics.pstdev(means) if complete else None,
                    STATUS_OK if complete else broken or "incomplete schedule",
                )
            )
    return summary


def _point_cells(seed_prefix: tuple, sweep, schedule, classifiers):
    """Cells of a point-mode sweep: Gaussian points, subsampled to each ratio,
    then tallied by each ``(setting, threshold)`` classifier.

    Trial ``t`` draws its points from ``seed_prefix + (t,)`` and its subsample
    for schedule entry ``s`` from ``seed_prefix + (t, s)``.  ``sweep`` supplies
    the generators, labels, side and trial count.
    """
    for trial in range(sweep.trials):
        points = generate_gaussian_dataset(
            sweep.generators, np.random.default_rng([*seed_prefix, trial])
        )
        for s_idx, ratio in enumerate(schedule):
            resampled = _attempt(
                resample_points_to_rrt, points, ratio, sweep.majority_label,
                np.random.default_rng([*seed_prefix, trial, s_idx]),
            )
            for setting, threshold in classifiers:
                matrix = resampled if isinstance(resampled, MatrixError) else _attempt(
                    threshold_classifier_confusion, resampled, threshold,
                    sweep.positive_label, sweep.positive_side,
                )
                yield trial, setting, str(ratio), matrix


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run a declarative experiment; per-cell failures become undefined rows."""
    if isinstance(spec, Type1SweepSpec):
        settings = [f"t={t:g}" for t in spec.thresholds]
        classifiers = list(zip(settings, spec.thresholds))
        cells = _point_cells((spec.seed,), spec, spec.rrt_schedule, classifiers)
        rows = _result_rows(spec.experiment, cells, spec.indices)
        summary = _mean_and_std_summary(
            spec.experiment, rows, spec.indices, settings, [str(r) for r in spec.rrt_schedule]
        )
    elif isinstance(spec, Type2GrowthSpec):
        cells = (
            (0, f"a={accuracy}", str(step.class_count),
             _attempt(synthetic_multiclass_confusion, step.class_count, accuracy, step.profile))
            for step in spec.steps
            for accuracy in spec.accuracy_sweep
        )
        rows = _result_rows(spec.experiment, cells, spec.indices)
        summary = _min_summary(spec, rows)
    elif isinstance(spec, RRTStabilitySpec):
        rows, summary = [], []
        for d_idx, dataset in enumerate(spec.datasets):
            schedule_keys = [_schedule_key(e) for e in dataset.schedule]
            if isinstance(dataset, MatrixStabilityDataset):
                cells = (
                    (0, dataset.dataset_id, key,
                     _attempt(rescale_matrix_to_counts, dataset.matrix, entry)
                     if isinstance(entry, tuple)
                     else _attempt(rescale_matrix_to_rrt, dataset.matrix, entry))
                    for entry, key in zip(dataset.schedule, schedule_keys)
                )
            else:
                cells = _point_cells(
                    (spec.seed, d_idx), dataset, dataset.schedule,
                    [(dataset.dataset_id, dataset.threshold)],
                )
            dataset_rows = _result_rows(spec.experiment, cells, dataset.indices)
            rows.extend(dataset_rows)
            summary.extend(
                _mean_and_std_summary(
                    spec.experiment, dataset_rows, dataset.indices,
                    [dataset.dataset_id], schedule_keys,
                )
            )
    else:
        raise SpecError(f"unknown experiment spec type {type(spec).__name__}")
    return ExperimentResult(spec.experiment, tuple(rows), tuple(summary))


def _min_summary(spec: Type2GrowthSpec, rows: Sequence[ResultRow]) -> list[SummaryRow]:
    """Per (class count, index): the minimum over the accuracy sweep."""
    summary: list[SummaryRow] = []
    for step in spec.steps:
        rrt_or_c = str(step.class_count)
        for index_id in spec.indices:
            values = [
                r.value for r in rows
                if r.rrt_or_c == rrt_or_c and r.index == index_id and r.value is not None
            ]
            summary.append(
                SummaryRow(spec.experiment, "sweep", index_id, rrt_or_c, "min",
                           min(values, default=None),
                           STATUS_OK if values else "undefined on entire sweep")
            )
    return summary
