"""Synthetic distortion experiments: Gaussian data, threshold classifiers,
test-mix resampling, and index-stability summaries.

Two resampling modes are provided.  Point mode subsamples labeled points
(never oversamples) and mirrors a real experiment, so it carries sampling
noise.  Matrix mode rescales confusion-matrix rows by exact rational factors,
which changes the test mix while provably preserving the row profile; it
isolates the distortion an index suffers from the mix change alone.

A point set is a dict from each label to its ``(n, 2)`` float64 points in
generation order, or to their x column alone, the one coordinate the
vertical-line classifiers read.

Experiments are declarative (frozen dataclasses, loadable from JSON) and
deterministic.  Every spec loads into one :class:`Experiment`, a name and a
tuple of sweeps that one loop runs in order: each sweep's cells, built in one
place, become rows, and its summary is read from those rows.  A
``type1_sweep`` spec and a point dataset of an ``rrt_stability`` spec both
parse into one :class:`PointSweep`, which carries its random stream: ``(s,)``
for the spec with seed ``s`` and ``(s, d)`` for the dataset at position
``d``.  Trial ``t`` draws all its randomness from that stream extended by
``t``.  Growth sweeps and matrix datasets draw nothing at random.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .confusion import (
    ConfusionMatrix,
    DimensionMismatchError,
    EmptyRowError,
    IntegralityError,
    MatrixError,
    apply_scaling,
    even_error_matrix,
    to_fraction,
)
from .registry import DEFAULT_SEED, get_index
from .values import Undefined

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


def generate_gaussian_dataset(
    specs: Sequence[GaussianClassSpec], seed: int | np.random.Generator
) -> dict[str, np.ndarray]:
    """Sample every class spec in order from one seeded stream; specs that
    share a label are stacked under it."""
    rng = np.random.default_rng(seed)
    blocks: dict[str, list[np.ndarray]] = {}
    for spec in specs:
        # scaled and shifted in place: the same doubles as mean + draw * std
        block = rng.standard_normal((spec.sample_count, 2))
        block *= np.sqrt(spec.variances)
        block += spec.mean
        blocks.setdefault(spec.label, []).append(block)
    return {label: b[0] if len(b) == 1 else np.vstack(b) for label, b in blocks.items()}


def threshold_classifier_confusion(
    points: dict[str, np.ndarray],
    threshold: float,
    positive_label: str,
    positive_side: str = "greater",
) -> ConfusionMatrix:
    """Tally a vertical-line decision rule at ``x = threshold`` into a 2x2 matrix.

    Row 0 is the positive class.  ``positive_side`` selects which half-plane
    is predicted positive: ``"greater"`` means x > threshold, ``"less"``
    means x < threshold.  A label's array is its ``(n, 2)`` points, or their
    x column alone when it is 1-D.
    """
    if len(points) != 2:
        raise MatrixError(f"threshold classifier needs exactly 2 classes, got {sorted(points)}")
    if positive_label not in points:
        raise MatrixError(f"positive label {positive_label!r} not present in {sorted(points)}")
    if positive_side not in ("greater", "less"):
        raise MatrixError(f"positive_side must be 'greater' or 'less', got {positive_side!r}")
    (negative_label,) = [k for k in points if k != positive_label]
    pos, neg = (xs if xs.ndim == 1 else xs[:, 0]
                for xs in (points[positive_label], points[negative_label]))
    if len(pos) == 0 or len(neg) == 0:
        raise EmptyRowError("a class has no points")
    predicts_pos = np.greater if positive_side == "greater" else np.less
    tp = int(np.count_nonzero(predicts_pos(pos, threshold)))
    fp = int(np.count_nonzero(predicts_pos(neg, threshold)))
    return ConfusionMatrix(((tp, len(pos) - tp), (fp, len(neg) - fp)))


# ---------------------------------------------------------------------------
# test-mix resampling


def resample_points_to_rrt(
    points: dict[str, np.ndarray],
    target,
    majority_label: str,
    seed: int | np.random.Generator,
) -> dict[str, np.ndarray]:
    """Subsample a two-class point set to the requested majority/minority ratio.

    The ratio is counted as ``n(majority_label) / n(other)``.  When the target
    is reachable by shrinking the minority class the majority is kept intact;
    otherwise the majority is shrunk.  Points are never duplicated, and each
    class keeps its generation order.  A class's array may be its x column
    alone: the draws depend only on the class counts.
    """
    target = to_fraction(target)
    if target <= 0:
        raise UnachievableRRTError(f"target ratio {target} is not positive")
    counts = {label: len(xy) for label, xy in points.items()}
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
        xy = points[label]
        if k < len(xy):
            xy = xy[np.sort(rng.choice(len(xy), size=k, replace=False))]
        kept[label] = xy
    return kept


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
    """Exactly rescale each row to the requested per-class count, which
    :func:`~imbindex.confusion.apply_scaling` rejects unless positive."""
    if len(per_class_counts) != m.class_count:
        raise MatrixError(
            f"{len(per_class_counts)} target counts for a {m.class_count}-class matrix"
        )
    return apply_scaling(m, [Fraction(int(t), n) for t, n in zip(per_class_counts, m.row_sums)])


# ---------------------------------------------------------------------------
# experiment specs


@dataclass(frozen=True)
class PointSweep:
    """Two-class point-mode sweep: each trial draws Gaussian points, subsamples
    them to every test-mix ratio of ``schedule`` (``n(majority) / n(other)``),
    and tallies each subsample with every ``(setting, threshold)`` classifier.

    A ``type1_sweep`` spec is one, threshold ``t`` being the classifier
    ``("t=<t:g>", t)``; so is a point dataset of an ``rrt_stability`` spec,
    with the single classifier ``(id, threshold)``.  Trial ``t`` draws from
    ``stream + (t,)``.
    """

    generators: tuple[GaussianClassSpec, ...]
    positive_label: str
    positive_side: str
    majority_label: str
    schedule: tuple[Fraction, ...]
    classifiers: tuple[tuple[str, float], ...]
    trials: int
    indices: tuple[str, ...]
    stream: tuple[int, ...]


@dataclass(frozen=True)
class GrowthSweep:
    """Accuracy-profiled matrices over a growing class count; each step is the
    per-class test counts of its class count."""

    steps: tuple[tuple[int, ...], ...]
    accuracy_sweep: tuple[Fraction, ...]
    indices: tuple[str, ...]


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


@dataclass(frozen=True)
class Experiment:
    """What every spec loads into: its sweeps, run in order, and the name that
    heads every row and prefixes the output files."""

    experiment: str
    sweeps: tuple[PointSweep | MatrixStabilityDataset | GrowthSweep, ...]


def _known(obj: dict, where: str, *fields: str) -> None:
    """Reject a key of ``obj`` that is not among ``fields``, naming its path: a
    misspelt optional field would otherwise fall back to its default unseen."""
    for key in obj:
        if key not in fields:
            raise SpecError(f"{where}.{key}: unknown field")


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
        _known(g, spot, "label", "mean", "variances", "sample_count")
        args = (
            str(_need(g, "label", spot)), _pair(g, "mean", spot), _pair(g, "variances", spot),
            _int(_need(g, "sample_count", spot), f"{spot}.sample_count"),
        )
        try:
            out.append(GaussianClassSpec(*args))
        except SpecError as exc:
            raise SpecError(f"{spot}: {exc}") from None
    return tuple(out)


def _index_list(obj: dict, where: str) -> tuple[str, ...]:
    ids = tuple(str(i) for i in _list(obj, "indices", where))
    if not ids:
        raise SpecError(f"{where}.indices: at least one index required")
    for i in ids:
        get_index(i)
    return ids


def _two_class_rule(field: str, indices: Sequence[str], class_count: int, what: str) -> None:
    """Reject a two-class index among ``indices`` when ``what`` has
    ``class_count`` classes, not 2; the error names ``field``, the id and the count."""
    two_class = [i for i in indices if get_index(i).binary_only]
    if two_class and class_count != 2:
        raise SpecError(
            f"{field}: {two_class[0]!r} is a two-class index, but {what} has {class_count} classes"
        )


def _matrix_schedule_rule(field: str, entry, class_count: int) -> None:
    """Reject a schedule entry that cannot rescale a ``class_count``-class
    matrix: a count list of another length, a ratio on more than two classes,
    or an entry that is not positive."""
    if isinstance(entry, tuple) and len(entry) != class_count:
        raise SpecError(f"{field}: {list(entry)} has {len(entry)} counts for {class_count} classes")
    if not isinstance(entry, tuple) and class_count != 2:
        raise SpecError(f"{field}: ratio {entry} needs a 2-class matrix, got {class_count} classes")
    if min(entry if isinstance(entry, tuple) else (entry,)) <= 0:
        raise SpecError(f"{field}: entries must be positive")


# the fields a ``type1_sweep`` and a point dataset share, besides their schedule
_POINT_SWEEP_FIELDS = (
    "generators", "positive_label", "positive_side", "majority_label", "trials", "indices",
)


def _point_sweep(raw: dict, where: str, schedule_field: str) -> dict:
    """The :class:`PointSweep` fields a ``type1_sweep`` and a point dataset
    share, checked by one rule: a non-empty schedule of positive ratios, at
    least one trial, generators giving exactly two distinct labels, a positive
    and a majority label among them, and a positive side of ``greater`` or
    ``less``."""
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
                schedule=schedule)


def load_spec(source) -> Experiment:
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

    top_level = ("kind", "experiment", "seed")
    if kind == "type1_sweep":
        _known(raw, "spec", *top_level, "rrt_schedule", "thresholds", *_POINT_SWEEP_FIELDS)
        sweep = _point_sweep(raw, "spec", "rrt_schedule")
        thresholds = tuple(_number(t, "spec.thresholds") for t in _list(raw, "thresholds", "spec"))
        if not thresholds:
            raise SpecError("spec.thresholds: must be non-empty")
        classifiers = tuple((f"t={t:g}", t) for t in thresholds)
        # the name keys a classifier's trials, so two thresholds may not share one
        first: dict[str, float] = {}
        for name, t in classifiers:
            if name in first:
                raise SpecError(
                    f"spec.thresholds: {first[name]!r} and {t!r} share the classifier name {name!r}"
                )
            first[name] = t
        sweeps = [PointSweep(classifiers=classifiers, indices=_index_list(raw, "spec"),
                             stream=(seed,), **sweep)]

    elif kind == "type2_growth":
        _known(raw, "spec", *top_level, "steps", "accuracy_sweep", "indices")
        # the class count keys a step's rows, so two steps may not share one
        steps = []
        first_step: dict[int, str] = {}
        for s_idx, s in enumerate(_list(raw, "steps", "spec", dict)):
            spot = f"spec.steps[{s_idx}]"
            _known(s, spot, "class_count", "profile")
            profile = tuple(_int(v, f"{spot}.profile") for v in _list(s, "profile", spot))
            class_count = _int(s.get("class_count", len(profile)), f"{spot}.class_count")
            if class_count != len(profile):
                raise SpecError(f"{spot}.profile: {len(profile)} counts for C={class_count}")
            if any(n <= 0 for n in profile):
                raise SpecError(f"{spot}.profile: counts must be positive")
            if class_count in first_step:
                raise SpecError(
                    f"{first_step[class_count]} and {spot} share the class count {class_count}"
                )
            first_step[class_count] = spot
            steps.append(profile)
        if not steps:
            raise SpecError("spec.steps: at least one step required")
        accuracies = tuple(
            _ratio(a, "spec.accuracy_sweep") for a in _list(raw, "accuracy_sweep", "spec")
        )
        if not accuracies:
            raise SpecError("spec.accuracy_sweep: at least one accuracy required")
        for accuracy in accuracies:
            if not 0 <= accuracy <= 1:
                raise SpecError(f"spec.accuracy_sweep: {accuracy} is outside [0, 1]")
        indices = _index_list(raw, "spec")
        for s_idx, profile in enumerate(steps):
            _two_class_rule("spec.indices", indices, len(profile), f"spec.steps[{s_idx}]")
        sweeps = [GrowthSweep(tuple(steps), accuracies, indices)]

    elif kind == "rrt_stability":
        _known(raw, "spec", *top_level, "datasets")
        # the id names a dataset's setting, so two datasets may not share one
        sweeps, first_id = [], {}
        for d_idx, d in enumerate(_list(raw, "datasets", "spec", dict)):
            spot = f"spec.datasets[{d_idx}]"
            mode = str(_need(d, "mode", spot))
            dataset_id = str(_need(d, "id", spot))
            if dataset_id in first_id:
                raise SpecError(f"{first_id[dataset_id]} and {spot} share the id {dataset_id!r}")
            first_id[dataset_id] = spot
            indices = _index_list(d, spot)
            if mode == "matrix":
                _known(d, spot, "id", "mode", "indices", "matrix", "schedule")
                rows = tuple(tuple(r) for r in _list(d, "matrix", spot, list))
                try:
                    matrix = ConfusionMatrix(rows)
                except MatrixError as exc:
                    raise SpecError(f"{spot}.matrix: {exc}") from None
                _two_class_rule(f"{spot}.indices", indices, matrix.class_count, f"{spot}.matrix")
                field = f"{spot}.schedule"
                schedule = tuple(
                    tuple(_int(v, field) for v in entry) if isinstance(entry, (list, tuple))
                    else _ratio(entry, field)
                    for entry in _list(d, "schedule", spot)
                )
                if not schedule:
                    raise SpecError(f"{field}: must be non-empty")
                for entry in schedule:
                    _matrix_schedule_rule(field, entry, matrix.class_count)
                sweeps.append(MatrixStabilityDataset(dataset_id, matrix, schedule, indices))
            elif mode == "point":
                _known(d, spot, "id", "mode", "threshold", "schedule", *_POINT_SWEEP_FIELDS)
                threshold = _number(_need(d, "threshold", spot), f"{spot}.threshold")
                sweeps.append(PointSweep(classifiers=((dataset_id, threshold),), indices=indices,
                                         stream=(seed, d_idx), **_point_sweep(d, spot, "schedule")))
            else:
                raise SpecError(f"{spot}.mode: expected 'matrix' or 'point', got {mode!r}")
        if not sweeps:
            raise SpecError("spec.datasets: at least one dataset required")

    else:
        raise SpecError(f"spec.kind: unknown kind {kind!r}")
    return Experiment(experiment, tuple(sweeps))


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

    def _statistic(self, statistic: str, *key: str) -> dict[tuple, float | None]:
        """The values of the ``statistic`` summary rows, keyed by the ``key`` fields."""
        get = attrgetter(*key)
        return {get(r): r.value for r in self.summary if r.statistic == statistic}

    def stds(self) -> dict[tuple[str, str], float | None]:
        """(setting, index) -> standard deviation over the schedule."""
        return self._statistic("std", "setting", "index")

    def mins(self) -> dict[tuple[str, str], float | None]:
        """(rrt_or_c, index) -> minimum over the sweep (growth experiments)."""
        return self._statistic("min", "rrt_or_c", "index")

    def means(self) -> dict[tuple[str, str, str], float | None]:
        """(setting, index, rrt_or_c) -> mean over trials."""
        return self._statistic("mean", "setting", "index", "rrt_or_c")

    def digest(self) -> dict[str, float | None]:
        """Per index: mean of the schedule standard deviations across settings."""
        per_index: dict[str, list[float]] = {}
        for r in self.summary:
            if r.statistic == "std":
                defined = per_index.setdefault(r.index, [])
                if r.value is not None:
                    defined.append(r.value)
        return {i: statistics.fmean(v) if v else None for i, v in sorted(per_index.items())}

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
                writer.writerows(
                    tuple("UNDEFINED" if v is None else v for v in t) if None in t else t
                    for t in map(attrgetter(*names), rows)
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
    whose status names the error.  Each index's formula is called directly,
    with the two-class check of :func:`~imbindex.registry.evaluate` made once
    per cell; a loaded spec never fails it (see :func:`load_spec`).
    """
    specs = [get_index(i) for i in indices]
    two_class = any(spec.binary_only for spec in specs)
    rows: list[ResultRow] = []
    for trial, setting, rrt_or_c, matrix in cells:
        if isinstance(matrix, MatrixError):
            reason = f"{type(matrix).__name__}: {matrix}"
            rows.extend(
                ResultRow(experiment, trial, setting, rrt_or_c, i, None, reason) for i in indices
            )
            continue
        if two_class and matrix.class_count != 2:
            raise DimensionMismatchError(
                f"two-class index requires a 2-class matrix, got {matrix.class_count} classes"
            )
        for spec in specs:
            try:
                value, status = float(spec.formula(matrix)), STATUS_OK
            except Undefined as err:
                value, status = None, str(err)
            rows.append(
                ResultRow(experiment, trial, setting, rrt_or_c, spec.index_id, value, status)
            )
    return rows


def _schedule_key(entry) -> str:
    if isinstance(entry, tuple):
        return "x".join(str(v) for v in entry)
    return str(entry)


def _point_cells(sweep: PointSweep):
    """Cells of a point sweep: trial ``t`` draws its points from
    ``sweep.stream + (t,)`` and its subsample for schedule entry ``s`` from
    ``sweep.stream + (t, s)``.  The classifiers read only x, so each class is
    resampled as its x column, copied out once per trial: every tally reads
    contiguous memory, and the ``(n, 2)`` points are freed before the first
    subsample."""
    for trial in range(sweep.trials):
        points = generate_gaussian_dataset(
            sweep.generators, np.random.default_rng([*sweep.stream, trial])
        )
        xs = {label: np.ascontiguousarray(xy[:, 0]) for label, xy in points.items()}
        del points
        for s_idx, ratio in enumerate(sweep.schedule):
            resampled = _attempt(
                resample_points_to_rrt, xs, ratio, sweep.majority_label,
                np.random.default_rng([*sweep.stream, trial, s_idx]),
            )
            for setting, threshold in sweep.classifiers:
                matrix = resampled if isinstance(resampled, MatrixError) else _attempt(
                    threshold_classifier_confusion, resampled, threshold,
                    sweep.positive_label, sweep.positive_side,
                )
                yield trial, setting, str(ratio), matrix


def _cells(sweep: PointSweep | MatrixStabilityDataset | GrowthSweep):
    """The ``(trial, setting, rrt_or_c, matrix)`` cells of a sweep, in row
    order.  A point sweep's are :func:`_point_cells`; a growth cell is
    :func:`even_error_matrix` with the cell's accuracy on every row; a matrix
    dataset's cell for each schedule entry is its matrix rescaled exactly to
    that entry."""
    if isinstance(sweep, PointSweep):
        return _point_cells(sweep)
    if isinstance(sweep, GrowthSweep):
        return (
            (0, f"a={accuracy}", str(len(profile)),
             _attempt(even_error_matrix, (accuracy,) * len(profile), profile))
            for profile in sweep.steps
            for accuracy in sweep.accuracy_sweep
        )
    return (
        (0, sweep.dataset_id, _schedule_key(entry), _attempt(
            rescale_matrix_to_counts if isinstance(entry, tuple) else rescale_matrix_to_rrt,
            sweep.matrix, entry,
        ))
        for entry in sweep.schedule
    )


def _schedule_summary(
    experiment: str, sweep: PointSweep | MatrixStabilityDataset, rows: Sequence[ResultRow]
) -> list[SummaryRow]:
    """Summary of a sweep over a test-mix schedule: per (setting, index,
    schedule entry) the mean over trials, then per (setting, index) the
    standard deviation of those means over the schedule.  Settings come in
    the order the rows first name them."""
    values: dict[tuple[str, str, str], list[float]] = {}
    missing: dict[tuple[str, str, str], str] = {}
    for r in rows:
        key = (r.setting, r.index, r.rrt_or_c)
        if r.value is None:
            missing.setdefault(key, r.status)
        else:
            values.setdefault(key, []).append(r.value)
    summary: list[SummaryRow] = []
    for setting in dict.fromkeys(r.setting for r in rows):
        for index_id in sweep.indices:
            means: list[float] = []
            broken: str | None = None
            for sched in map(_schedule_key, sweep.schedule):
                key = (setting, index_id, sched)
                if key in missing:
                    mean = None
                    broken = broken or f"undefined at {sched}"
                else:
                    mean = statistics.fmean(values[key])
                    means.append(mean)
                summary.append(SummaryRow(experiment, setting, index_id, sched, "mean", mean,
                                          missing.get(key, STATUS_OK)))
            summary.append(SummaryRow(experiment, setting, index_id, "", "std",
                                      None if broken else statistics.pstdev(means),
                                      broken or STATUS_OK))
    return summary


def run_experiment(spec: Experiment) -> ExperimentResult:
    """Run every sweep of an experiment in order: its :func:`_cells` become
    rows, and its summary is read from those rows.  Per-cell failures become
    undefined rows."""
    rows, summary = [], []
    for sweep in spec.sweeps:
        sweep_rows = _result_rows(spec.experiment, _cells(sweep), sweep.indices)
        summarize = _min_summary if isinstance(sweep, GrowthSweep) else _schedule_summary
        rows.extend(sweep_rows)
        summary.extend(summarize(spec.experiment, sweep, sweep_rows))
    return ExperimentResult(spec.experiment, tuple(rows), tuple(summary))


def _min_summary(
    experiment: str, sweep: GrowthSweep, rows: Sequence[ResultRow]
) -> list[SummaryRow]:
    """Per (class count, index): the minimum over the accuracy sweep."""
    defined: dict[tuple[str, str], list[float]] = {}
    for r in rows:
        if r.value is not None:
            defined.setdefault((r.rrt_or_c, r.index), []).append(r.value)
    summary: list[SummaryRow] = []
    for profile in sweep.steps:
        rrt_or_c = str(len(profile))
        for index_id in sweep.indices:
            values = defined.get((rrt_or_c, index_id), [])
            summary.append(
                SummaryRow(experiment, "sweep", index_id, rrt_or_c, "min",
                           min(values, default=None),
                           STATUS_OK if values else "undefined on entire sweep")
            )
    return summary
