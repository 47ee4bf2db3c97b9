"""Distortion lab: generators, classifiers, resampling, and experiment runs."""

import dataclasses
import hashlib
import json
import math
import re
import statistics
from fractions import Fraction

import numpy as np
import pytest

from imbindex import ConfusionMatrix, DimensionMismatchError, MatrixError, evaluate
from imbindex.confusion import IntegralityError, even_error_matrix
from conftest import SPEC_DIR
from imbindex import lab
from imbindex.lab import (
    Experiment,
    GaussianClassSpec,
    GrowthSweep,
    MatrixStabilityDataset,
    PointSweep,
    ResultRow,
    SpecError,
    UnachievableRRTError,
    generate_gaussian_dataset,
    load_spec,
    rescale_matrix_to_counts,
    rescale_matrix_to_rrt,
    resample_points_to_rrt,
    run_experiment,
    threshold_classifier_confusion,
)

TYPE1_GENERATORS = (
    GaussianClassSpec("right", (7.5, 3.0), (0.25, 0.25), 5000),
    GaussianClassSpec("left", (3.0, 3.0), (0.45, 0.45), 5000),
)


def class_counts(points):
    return {label: len(xy) for label, xy in points.items()}


def small_generators(n=600):
    return (
        GaussianClassSpec("right", (7.5, 3.0), (0.25, 0.25), n),
        GaussianClassSpec("left", (3.0, 3.0), (0.45, 0.45), n),
    )


class TestGaussianDataset:
    def test_counts_and_labels(self):
        points = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        assert {k: xy.shape for k, xy in points.items()} == {
            "right": (5000, 2), "left": (5000, 2),
        }
        assert class_counts(points) == {"left": 5000, "right": 5000}

    def test_deterministic_under_seed(self):
        a = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        b = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        assert list(a) == list(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_empirical_means_close_to_spec(self):
        points = generate_gaussian_dataset(TYPE1_GENERATORS, 11)
        for spec in TYPE1_GENERATORS:
            block = points[spec.label]
            for axis in (0, 1):
                sigma = math.sqrt(spec.variances[axis])
                margin = 3 * sigma / math.sqrt(spec.sample_count)
                assert abs(block[:, axis].mean() - spec.mean[axis]) < margin

    def test_single_point_classes(self):
        tiny = (
            GaussianClassSpec("a", (0, 0), (1, 1), 1),
            GaussianClassSpec("b", (5, 5), (1, 1), 1),
        )
        assert class_counts(generate_gaussian_dataset(tiny, 3)) == {"a": 1, "b": 1}

    def test_shared_label_stacks_blocks_in_spec_order(self):
        specs = (
            GaussianClassSpec("a", (0, 0), (1, 1), 2),
            GaussianClassSpec("b", (5, 5), (1, 1), 3),
            GaussianClassSpec("a", (9, 9), (4, 4), 4),
        )
        points = generate_gaussian_dataset(specs, 3)
        rng = np.random.default_rng(3)
        blocks = [
            np.asarray(s.mean) + rng.standard_normal((s.sample_count, 2)) * np.sqrt(s.variances)
            for s in specs
        ]
        assert list(points) == ["a", "b"]
        assert np.array_equal(points["a"], np.vstack([blocks[0], blocks[2]]))
        assert np.array_equal(points["b"], blocks[1])

    def test_validation(self):
        with pytest.raises(SpecError):
            GaussianClassSpec("bad", (0, 0), (0.0, 1.0), 5)
        with pytest.raises(SpecError):
            GaussianClassSpec("bad", (0, 0), (1.0, 1.0), 0)


class TestThresholdClassifier:
    def test_against_manual_tally(self):
        points = generate_gaussian_dataset(small_generators(), 13)
        m = threshold_classifier_confusion(points, 5.0, "right", "greater")
        right, left = points["right"][:, 0], points["left"][:, 0]
        assert m.counts[0][0] == int(np.sum(right > 5.0))
        assert m.counts[0][1] == int(np.sum(right <= 5.0))
        assert m.counts[1][0] == int(np.sum(left > 5.0))
        assert m.counts[1][1] == int(np.sum(left <= 5.0))

    def test_degenerate_threshold_predicts_everything_positive(self):
        points = generate_gaussian_dataset(small_generators(), 13)
        m = threshold_classifier_confusion(points, -100.0, "right", "greater")
        assert m.counts[0][1] == 0 and m.counts[1][1] == 0

    def test_positive_side_less(self):
        points = generate_gaussian_dataset(small_generators(), 13)
        m = threshold_classifier_confusion(points, 5.0, "left", "less")
        assert m.counts[0][0] > m.counts[0][1]

    def test_point_on_the_threshold_is_predicted_negative(self):
        points = {
            "p": np.array([[1.0, 0.0], [2.0, 0.0]]), "n": np.array([[2.0, 0.0], [3.0, 0.0]]),
        }
        assert threshold_classifier_confusion(points, 2.0, "p", "greater").to_lists() == [
            [0, 2], [1, 1],
        ]
        assert threshold_classifier_confusion(points, 2.0, "p", "less").to_lists() == [
            [1, 1], [0, 2],
        ]

    @pytest.mark.parametrize("positive, side", [("right", "greater"), ("left", "less")])
    def test_x_columns_match_points(self, positive, side):
        points = generate_gaussian_dataset(small_generators(), 13)
        xs = {label: xy[:, 0] for label, xy in points.items()}
        for threshold in (3.0, 5.0, 7.5, -100.0):
            assert threshold_classifier_confusion(xs, threshold, positive, side) == (
                threshold_classifier_confusion(points, threshold, positive, side)
            )

    def test_rejects_unknown_label(self):
        points = generate_gaussian_dataset(small_generators(), 13)
        with pytest.raises(MatrixError):
            threshold_classifier_confusion(points, 5.0, "middle")

    def test_checks_name_the_sorted_labels(self):
        points = generate_gaussian_dataset(small_generators(), 13)
        with pytest.raises(MatrixError, match=re.escape(
            "positive label 'middle' not present in ['left', 'right']"
        )):
            threshold_classifier_confusion(points, 5.0, "middle")
        with pytest.raises(MatrixError, match="got 'up'$"):
            threshold_classifier_confusion(points, 5.0, "right", "up")
        three = {**points, "middle": points["left"]}
        with pytest.raises(MatrixError, match=re.escape(
            "needs exactly 2 classes, got ['left', 'middle', 'right']"
        )):
            threshold_classifier_confusion(three, 5.0, "right")


class TestPointResampling:
    def test_shrinks_minority_for_large_ratio(self):
        points = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        out = resample_points_to_rrt(points, 10, "left", 7)
        assert class_counts(out) == {"left": 5000, "right": 500}

    def test_shrinks_majority_for_small_ratio(self):
        points = generate_gaussian_dataset(small_generators(100), 7)
        out = resample_points_to_rrt(points, "1/2", "left", 7)
        assert class_counts(out) == {"left": 50, "right": 100}

    def test_ratio_one_keeps_balanced_set(self):
        points = generate_gaussian_dataset(small_generators(100), 7)
        out = resample_points_to_rrt(points, 1, "left", 7)
        assert class_counts(out) == {"left": 100, "right": 100}

    def test_unachievable_ratio(self):
        points = generate_gaussian_dataset(small_generators(10), 7)
        with pytest.raises(UnachievableRRTError):
            resample_points_to_rrt(points, 1000, "left", 7)

    def test_subsample_is_subset_and_deterministic(self):
        points = generate_gaussian_dataset(small_generators(200), 9)
        a = resample_points_to_rrt(points, 4, "left", 21)
        b = resample_points_to_rrt(points, 4, "left", 21)
        for label in ("left", "right"):
            assert np.array_equal(a[label], b[label])
            original = {tuple(row) for row in points[label]}
            assert all(tuple(row) in original for row in a[label])

    @pytest.mark.parametrize("ratio, kept", [
        (4, {"left": 200, "right": 50}),  # shrinks the minority
        ("1/2", {"left": 100, "right": 200}),  # shrinks the majority
        (1, {"left": 200, "right": 200}),  # neither
    ])
    def test_x_columns_give_the_x_column_of_the_subsample(self, ratio, kept):
        points = generate_gaussian_dataset(small_generators(200), 9)
        xs = {label: xy[:, 0] for label, xy in points.items()}
        sub_points = resample_points_to_rrt(points, ratio, "left", 21)
        sub_xs = resample_points_to_rrt(xs, ratio, "left", 21)
        assert class_counts(sub_xs) == kept
        assert list(sub_xs) == list(sub_points)
        for label in sub_points:
            assert sub_xs[label].ndim == 1
            assert np.array_equal(sub_xs[label], sub_points[label][:, 0])

    def test_draws_match_global_index_reference(self):
        # the same draws as a subsample by global point position: one label
        # per point in generation order, majority class drawn first
        points = generate_gaussian_dataset(small_generators(200), 9)
        xy = np.vstack([points["right"], points["left"]])
        labels = np.array(["right"] * 200 + ["left"] * 200)
        for ratio in (4, "1/2", 1):  # shrinks the minority, the majority, neither
            out = resample_points_to_rrt(points, ratio, "left", 21)
            rng = np.random.default_rng(21)
            kept = []
            for label in ("left", "right"):
                idx = np.flatnonzero(labels == label)
                k = class_counts(out)[label]
                if k < len(idx):
                    idx = np.sort(rng.choice(idx, size=k, replace=False))
                kept.append(idx)
            order = np.sort(np.concatenate(kept))
            for label in ("left", "right"):
                assert np.array_equal(out[label], xy[order][labels[order] == label])


class TestMatrixRescaling:
    def test_reference_rescale(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        assert rescale_matrix_to_rrt(m, 2).to_lists() == [[8, 2], [2, 18]]

    def test_ratio_schedule_stays_integral(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        for ratio in (1, 2, 4, 6, 8, 10):
            out = rescale_matrix_to_rrt(m, ratio)
            assert out.row_sums == (10, 10 * ratio)

    def test_non_integral_rescale_rejected(self):
        from imbindex import NonIntegerScalingError

        m = ConfusionMatrix([[8, 2], [10, 90]])
        with pytest.raises(NonIntegerScalingError):
            rescale_matrix_to_rrt(m, "1/2")
        with pytest.raises(IntegralityError):
            rescale_matrix_to_rrt(m, "1/3")  # fractional target count

    def test_counts_rescale(self):
        m = ConfusionMatrix([[8, 1, 1], [1, 8, 1], [2, 2, 6]])
        out = rescale_matrix_to_counts(m, (20, 10, 30))
        assert out.row_sums == (20, 10, 30)
        assert out.counts[0] == (16, 2, 2)

    def test_counts_rescale_rejects_non_integral(self):
        from imbindex import NonIntegerScalingError

        m = ConfusionMatrix([[8, 1, 1], [1, 8, 1], [2, 2, 6]])
        with pytest.raises(
            NonIntegerScalingError, match=r"^row 1, column 2: 3/2 \* 1 is not an integer$"
        ):
            rescale_matrix_to_counts(m, (15, 10, 30))


class TestSyntheticMatrices:
    def test_uniform_three_class(self):
        m = even_error_matrix([Fraction(3, 5)] * 3, (10, 10, 10))
        assert m.to_lists() == [[6, 2, 2], [2, 6, 2], [2, 2, 6]]

    def test_perfect_accuracy_is_diagonal(self):
        m = even_error_matrix([Fraction(1)] * 3, (10, 20, 30))
        assert evaluate("gmean_c", m).value == 1.0
        assert m.counts[0] == (10, 0, 0)

    def test_hexagon_profile_reference_values(self):
        profile = (5000, 1500, 4000, 500, 3500, 4500)
        m = even_error_matrix([Fraction(3, 5)] * 6, profile)
        assert evaluate("auroc_ova", m).value == pytest.approx(0.76, abs=1e-12)
        assert evaluate("acsa", m).value == pytest.approx(0.6, abs=1e-12)

    def test_remainder_to_lowest_indexed_class(self):
        m = even_error_matrix([Fraction(3, 5)] * 4, (5000, 1500, 4000, 500))
        # row 0 spreads 2000 errors as 666 each plus remainder 2
        assert m.counts[0] == (3000, 668, 666, 666)
        assert m.row_sums == (5000, 1500, 4000, 500)

    def test_integrality_guard(self):
        with pytest.raises(IntegralityError):
            even_error_matrix([Fraction(3, 5)] * 3, (10, 10, 11))


class TestType1Sweep:
    def build_spec(self, trials=3, thresholds=(4.0,), schedule=("1", "10")):
        return Experiment("t1", (PointSweep(
            generators=small_generators(2000),
            positive_label="right",
            positive_side="greater",
            majority_label="left",
            classifiers=tuple((f"t={t:g}", t) for t in thresholds),
            schedule=tuple(Fraction(s) for s in schedule),
            indices=("precision", "m_precision", "gmean2"),
            trials=trials,
            stream=(1729,),
        ),))

    def test_precision_falls_with_ratio_while_gmean_holds(self):
        result = run_experiment(self.build_spec())
        means = result.means()
        assert means[("t=4", "precision", "1")] > means[("t=4", "precision", "10")] + 0.2
        assert means[("t=4", "gmean2", "1")] == pytest.approx(
            means[("t=4", "gmean2", "10")], abs=0.05
        )

    def test_rows_cover_every_cell(self):
        spec = self.build_spec(trials=2, thresholds=(3.0, 4.0))
        result = run_experiment(spec)
        assert len(result.rows) == 2 * 2 * 2 * 3  # trials x schedule x thresholds x indices

    def test_bit_identical_reruns(self):
        spec = self.build_spec(trials=2)
        a, b = run_experiment(spec), run_experiment(spec)
        assert a == b


class TestType2Growth:
    def test_ova_value_grows_with_class_count_at_fixed_accuracy(self):
        hexagon = (5000, 1500, 4000, 500, 3500, 4500)
        spec = Experiment("t2", (GrowthSweep(
            steps=tuple(hexagon[:c] for c in (3, 4, 5, 6)),
            accuracy_sweep=(Fraction(3, 5),),
            indices=("auroc_ova", "acsa"),
        ),))
        result = run_experiment(spec)
        mins = result.mins()
        ova = [mins[(str(c), "auroc_ova")] for c in (3, 4, 5, 6)]
        assert ova[0] == pytest.approx(0.70, abs=1e-12)
        assert all(a < b for a, b in zip(ova, ova[1:]))
        assert all(mins[(str(c), "acsa")] == pytest.approx(0.6, abs=1e-12) for c in (3, 4, 5, 6))

    @pytest.mark.parametrize("accuracies", [("1/2", "3/5", "1"), ("1/2", "3/5")])
    def test_min_summary_matches_a_rescan_per_key(self, accuracies):
        # at C = 3 only accuracy 1 gives integer counts, so without it every
        # C = 3 cell is an error row and the minimum is undefined
        spec = Experiment("t2", (GrowthSweep(
            steps=((10, 10, 11), (10, 20, 30, 40), (30, 10)),
            accuracy_sweep=tuple(Fraction(a) for a in accuracies),
            indices=("aurpc_ova", "acsa", "aurpc_ova"),  # an id twice gives two equal rows
        ),))
        result = run_experiment(spec)
        expected = []
        for profile in spec.sweeps[0].steps:
            c = str(len(profile))
            for index_id in spec.sweeps[0].indices:
                values = [r.value for r in result.rows
                          if r.rrt_or_c == c and r.index == index_id and r.value is not None]
                expected.append(("min", c, index_id, min(values, default=None),
                                 "ok" if values else "undefined on entire sweep"))
        assert [(r.statistic, r.rrt_or_c, r.index, r.value, r.status)
                for r in result.summary] == expected
        undefined = ("min", "3", "acsa", None, "undefined on entire sweep")
        assert (undefined in expected) == ("1" not in accuracies)


class TestStability:
    def test_matrix_mode_invariant_indices_have_exactly_zero_std(self):
        spec = load_spec(SPEC_DIR / "rrt_stability_matrix.json")
        result = run_experiment(spec)
        stds = result.stds()
        for index_id in ("gmean2", "auroc", "m_precision", "m_aurpc"):
            assert stds[("binary_base", index_id)] == 0.0
        for index_id in ("gmean_c", "acsa", "auroc_ovo", "m_aurpc_ova"):
            assert stds[("triclass_skew", index_id)] == 0.0
        for setting, index_id in (
            ("binary_base", "precision"),
            ("binary_base", "aurpc"),
            ("triclass_skew", "auroc_ova"),
            ("triclass_skew", "aurpc_ova"),
        ):
            assert stds[(setting, index_id)] > 0.0

    def test_point_mode_profiles_converge_to_source(self):
        # subsampling must keep per-class behavior: the classifier's row
        # rates on the subsampled class match the full-set rates within
        # 3 sigma of the 20-trial mean
        points = generate_gaussian_dataset(small_generators(2000), 5)
        full = threshold_classifier_confusion(points, 7.0, "right", "greater")
        full_rate = full.counts[0][0] / full.row_sums[0]
        rates = []
        for trial in range(20):
            sub = resample_points_to_rrt(points, 4, "left", np.random.default_rng([5, trial]))
            m = threshold_classifier_confusion(sub, 7.0, "right", "greater")
            assert m.row_sums == (500, 2000)
            rates.append(m.counts[0][0] / m.row_sums[0])
        sigma_mean = math.sqrt(full_rate * (1 - full_rate) / 500) / math.sqrt(20)
        assert abs(np.mean(rates) - full_rate) < 3 * sigma_mean + 1e-9

    def test_error_cells_recorded_as_undefined(self):
        dataset = MatrixStabilityDataset(
            dataset_id="undef",
            matrix=ConfusionMatrix([[0, 5], [0, 5]]),
            schedule=(Fraction(1),),
            indices=("precision", "gmean2"),
        )
        spec = Experiment("u", (dataset,))
        result = run_experiment(spec)
        statuses = {(r.index): r.status for r in result.rows}
        assert statuses["precision"] != "ok"
        assert statuses["gmean2"] == "ok"

    def test_rows_match_registry_evaluate(self):
        # the row builder calls each formula directly; registry.evaluate is
        # the reference for every value and undefined reason
        cells = [
            (0, "s", "1", ConfusionMatrix([[0, 5], [0, 5]])),
            (1, "s", "2", ConfusionMatrix([[8, 2], [10, 90]])),
            (2, "s", "3", UnachievableRRTError("ratio 3 unreachable")),
        ]
        ids = ("precision", "gmean2", "aurpc", "m_precision", "specificity")
        rows = lab._result_rows("e", cells, ids)
        expected = []
        for trial, setting, rrt, matrix in cells:
            for i in ids:
                if isinstance(matrix, MatrixError):
                    value, status = None, "UnachievableRRTError: ratio 3 unreachable"
                else:
                    iv = evaluate(i, matrix)
                    value, status = iv.value, "ok" if iv.defined else iv.reason
                expected.append(ResultRow("e", trial, setting, rrt, i, value, status))
        assert rows == expected
        assert any(r.value is None for r in rows[:5])  # precision has no positive predictions


class TestSpecLoading:
    def test_bundled_specs_parse(self):
        for name in (
            "example1_type1", "example1_type2",
            "rrt_stability_matrix", "rrt_stability_point", "class_count_effect",
        ):
            spec = load_spec(SPEC_DIR / f"{name}.json")
            assert spec.experiment == name

    def test_missing_field_names_path(self):
        with pytest.raises(SpecError, match="spec.generators"):
            load_spec({"kind": "type1_sweep", "experiment": "x", "positive_label": "a",
                       "majority_label": "b", "thresholds": [1], "rrt_schedule": ["1"],
                       "indices": ["gmean2"]})

    @pytest.mark.parametrize("name, path, field", [
        ("example1_type1", (), "trails"),
        ("example1_type1", ("generators", 1), "sample_size"),
        ("example1_type2", (), "trials"),
        ("example1_type2", ("steps", 2), "classes"),
        ("rrt_stability_matrix", (), "seeds"),
        ("rrt_stability_matrix", ("datasets", 1), "threshold"),
        ("rrt_stability_point", ("datasets", 0), "matrix"),
        ("rrt_stability_point", ("datasets", 0, "generators", 0), "labels"),
    ], ids=["type1", "generator", "type2", "step", "rrt", "matrix-dataset", "point-dataset",
            "dataset-generator"])
    def test_unknown_field_names_its_path(self, name, path, field):
        raw = json.loads((SPEC_DIR / f"{name}.json").read_text())
        obj = raw
        for step in path:
            obj = obj[step]
        obj[field] = 1
        where = "spec" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        with pytest.raises(SpecError, match=rf"^{re.escape(where)}\.{field}: unknown field$"):
            load_spec(raw)

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="spec.kind"):
            load_spec({"kind": "nope", "experiment": "x"})

    def test_unknown_index_rejected(self):
        with pytest.raises(Exception):
            load_spec({
                "kind": "type2_growth", "experiment": "x",
                "steps": [{"profile": [10, 10]}], "accuracy_sweep": ["1/2"],
                "indices": ["f1"],
            })

    def test_duplicate_dataset_ids_rejected(self):
        raw = {
            "kind": "rrt_stability", "experiment": "x", "datasets": [
                {"id": "d", "mode": "matrix", "matrix": [[1, 1], [1, 1]],
                 "schedule": ["1"], "indices": ["gmean2"]},
                {"id": "d", "mode": "matrix", "matrix": [[1, 1], [1, 1]],
                 "schedule": ["1"], "indices": ["gmean2"]},
            ],
        }
        message = r"^spec\.datasets\[0\] and spec\.datasets\[1\] share the id 'd'$"
        with pytest.raises(SpecError, match=message):
            load_spec(raw)

    def test_repeated_id_names_both_positions_across_modes(self):
        raw = point_raw()
        raw["datasets"] += [matrix_raw(["1"])["datasets"][0], dict(raw["datasets"][0])]
        message = r"^spec\.datasets\[0\] and spec\.datasets\[2\] share the id 'pts'$"
        with pytest.raises(SpecError, match=message):
            load_spec(raw)

    @pytest.mark.parametrize("field, value, message", [
        ("variances", [0.25, 0.0], "class 'left': variances must be positive"),
        ("variances", [-1.0, 0.25], "class 'left': variances must be positive"),
        ("sample_count", 0, "class 'left': sample_count must be >= 1"),
    ])
    def test_generator_rule_names_the_generator(self, field, value, message):
        generators = [GENERATORS_RAW[0], dict(GENERATORS_RAW[1], **{field: value})]
        with pytest.raises(SpecError, match=rf"^spec\.generators\[1\]: {message}$"):
            load_spec(type1_raw(generators=generators))
        with pytest.raises(SpecError, match=rf"^spec\.datasets\[0\]\.generators\[1\]: {message}$"):
            load_spec(point_raw(generators=generators))


GENERATORS_RAW = [
    {"label": "right", "mean": [7.5, 3.0], "variances": [0.25, 0.25], "sample_count": 10},
    {"label": "left", "mean": [3.0, 3.0], "variances": [0.45, 0.45], "sample_count": 10},
]


def type1_raw(**fields):
    raw = {
        "kind": "type1_sweep", "experiment": "t1", "generators": GENERATORS_RAW,
        "positive_label": "right", "majority_label": "left", "thresholds": [4],
        "rrt_schedule": ["1", "2"], "indices": ["gmean2"], "trials": 1, "seed": 5,
    }
    raw.update(fields)
    return raw


def point_raw(**fields):
    dataset = {
        "id": "pts", "mode": "point", "generators": GENERATORS_RAW, "threshold": 4,
        "positive_label": "right", "majority_label": "left",
        "schedule": ["1", "2"], "indices": ["gmean2"], "trials": 1,
    }
    dataset.update(fields)
    return {"kind": "rrt_stability", "experiment": "pt", "datasets": [dataset], "seed": 5}


class TestPointSweepValidation:
    """Both point-mode spec forms are checked by the same rule."""

    @pytest.mark.parametrize("field, value, message", [
        ("schedule", [], "must be non-empty"),
        ("schedule", ["1", "0"], "entries must be positive"),
        ("schedule", ["-2"], "entries must be positive"),
        ("trials", 0, "must be >= 1"),
        pytest.param(
            "generators", [GENERATORS_RAW[0], GENERATORS_RAW[0]],
            re.escape("need exactly 2 distinct labels, got ['right']"), id="duplicate-label",
        ),
        pytest.param(
            "generators", [*GENERATORS_RAW, dict(GENERATORS_RAW[0], label="middle")],
            re.escape("need exactly 2 distinct labels, got ['left', 'middle', 'right']"),
            id="third-label",
        ),
        pytest.param(
            "generators", [], re.escape("need exactly 2 distinct labels, got []"),
            id="no-generators",
        ),
        pytest.param(
            "positive_label", "nope",
            re.escape("'nope' is not a generator label ['left', 'right']"), id="positive-label",
        ),
        pytest.param(
            "majority_label", "nope",
            re.escape("'nope' is not a generator label ['left', 'right']"), id="majority-label",
        ),
        pytest.param(
            "positive_side", "up", "expected 'greater' or 'less', got 'up'", id="positive-side",
        ),
    ])
    def test_same_rule_for_both_forms(self, field, value, message):
        type1_field = "rrt_schedule" if field == "schedule" else field
        with pytest.raises(SpecError, match=rf"^spec\.{type1_field}: {message}"):
            load_spec(type1_raw(**{type1_field: value}))
        with pytest.raises(SpecError, match=rf"^spec\.datasets\[0\]\.{field}: {message}"):
            load_spec(point_raw(**{field: value}))

    def test_both_forms_parse_into_one_point_sweep(self):
        (type1,) = load_spec(type1_raw(thresholds=[4, 5])).sweeps
        (dataset,) = load_spec(point_raw()).sweeps
        assert type(dataset) is PointSweep and type(type1) is PointSweep
        shared = [f.name for f in dataclasses.fields(PointSweep)
                  if f.name not in ("classifiers", "stream")]
        assert {n: getattr(type1, n) for n in shared} == {n: getattr(dataset, n) for n in shared}
        assert type1.classifiers == (("t=4", 4.0), ("t=5", 5.0))
        assert dataset.classifiers == (("pts", 4.0),)
        assert (type1.stream, dataset.stream) == ((5,), (5, 0))

    def test_generators_sharing_a_label_are_stacked(self):
        generators = [*GENERATORS_RAW, dict(GENERATORS_RAW[1], mean=[2.0, 3.0])]
        for raw in (type1_raw(generators=generators), point_raw(generators=generators)):
            result = run_experiment(load_spec(raw))
            assert {r.status for r in result.rows} == {"ok"}

    def test_type1_thresholds_non_empty(self):
        with pytest.raises(SpecError, match=r"^spec\.thresholds: must be non-empty"):
            load_spec(type1_raw(thresholds=[]))

    def test_type1_thresholds_with_one_name_rejected(self):
        message = r"^spec\.thresholds: 4\.0 and 4\.0000001 share the classifier name 't=4'$"
        with pytest.raises(SpecError, match=message):
            load_spec(type1_raw(thresholds=[4, 4.0000001, 6]))
        with pytest.raises(SpecError, match=r"^spec\.thresholds: 6\.0 and 6\.0 share"):
            load_spec(type1_raw(thresholds=[6, 4, 6]))

    def test_missing_file_is_not_read_as_json_text(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError):
            load_spec('{"kind": "type2_growth"}')


def type2_raw(**step):
    return {
        "kind": "type2_growth", "experiment": "t2", "accuracy_sweep": ["3/5"],
        "steps": [{"class_count": 3, "profile": [10, 10, 10], **step}], "indices": ["acsa"],
    }


def matrix_raw(schedule, **fields):
    dataset = {"id": "m", "mode": "matrix", "matrix": [[8, 2], [10, 90]],
               "schedule": schedule, "indices": ["gmean2"], **fields}
    return {"kind": "rrt_stability", "experiment": "mt", "datasets": [dataset]}


class TestSpecFieldTypes:
    """Integer fields take JSON integers only, list fields JSON arrays, and a
    bad value names its field."""

    @pytest.mark.parametrize("raw, field", [
        pytest.param(type1_raw(generators=3), "spec.generators", id="type1-generators"),
        pytest.param(type1_raw(thresholds=3), "spec.thresholds", id="type1-thresholds"),
        pytest.param(type1_raw(rrt_schedule=3), "spec.rrt_schedule", id="type1-rrt_schedule"),
        pytest.param(type1_raw(indices="gmean2"), "spec.indices", id="type1-indices"),
        pytest.param(point_raw(generators={}), "spec.datasets[0].generators",
                     id="point-generators"),
        pytest.param(point_raw(schedule="12"), "spec.datasets[0].schedule", id="point-schedule"),
        pytest.param(point_raw(indices="gmean2"), "spec.datasets[0].indices", id="point-indices"),
        pytest.param({**type2_raw(), "steps": 3}, "spec.steps", id="type2-steps"),
        pytest.param(type2_raw(profile=10), "spec.steps[0].profile", id="type2-profile"),
        pytest.param({**type2_raw(), "accuracy_sweep": "3/5"}, "spec.accuracy_sweep",
                     id="type2-accuracy_sweep"),
        pytest.param({**point_raw(), "datasets": 3}, "spec.datasets", id="datasets"),
        pytest.param(matrix_raw("1"), "spec.datasets[0].schedule", id="matrix-schedule"),
        pytest.param(matrix_raw(["1"], matrix=3), "spec.datasets[0].matrix", id="matrix-matrix"),
    ])
    def test_list_fields(self, raw, field):
        with pytest.raises(SpecError, match=rf"^{re.escape(field)}: expected a JSON array, got "):
            load_spec(raw)

    @pytest.mark.parametrize("raw, message", [
        pytest.param([], "spec: expected a JSON object", id="not-an-object"),
        pytest.param({**point_raw(), "datasets": []},
                     "spec.datasets: at least one dataset required", id="no-datasets"),
        pytest.param(matrix_raw(["1"], mode="grid"),
                     "spec.datasets[0].mode: expected 'matrix' or 'point', got 'grid'",
                     id="unknown-mode"),
        pytest.param(matrix_raw([]), "spec.datasets[0].schedule: must be non-empty",
                     id="empty-matrix-schedule"),
        pytest.param(matrix_raw(["1"], indices=[]),
                     "spec.datasets[0].indices: at least one index required", id="no-indices"),
        pytest.param({**type2_raw(), "steps": []}, "spec.steps: at least one step required",
                     id="no-steps"),
        pytest.param({**type2_raw(), "accuracy_sweep": []},
                     "spec.accuracy_sweep: at least one accuracy required", id="no-accuracies"),
    ])
    def test_rejection_names_its_field(self, raw, message):
        with pytest.raises(SpecError, match=rf"^{re.escape(message)}$"):
            load_spec(raw)

    @pytest.mark.parametrize("raw, entry, kind", [
        pytest.param(type1_raw(generators=[GENERATORS_RAW[0], 3]), "spec.generators[1]",
                     "object", id="type1-generator"),
        pytest.param(point_raw(generators=[["right"], GENERATORS_RAW[1]]),
                     "spec.datasets[0].generators[0]", "object", id="point-generator"),
        pytest.param({**type2_raw(), "steps": [[10, 10]]}, "spec.steps[0]", "object",
                     id="type2-step"),
        pytest.param({**point_raw(), "datasets": ["pts"]}, "spec.datasets[0]", "object",
                     id="dataset"),
        pytest.param(matrix_raw(["1"], matrix=[[8, 2], 100]), "spec.datasets[0].matrix[1]",
                     "array", id="matrix-row"),
    ])
    def test_list_entries(self, raw, entry, kind):
        with pytest.raises(SpecError, match=rf"^{re.escape(entry)}: expected a JSON {kind}, got "):
            load_spec(raw)

    @pytest.mark.parametrize("value, message", [
        pytest.param([1.0], "expected 2 numbers, got 1", id="one"),
        pytest.param([7.5, 3.0, 99], "expected 2 numbers, got 3", id="three"),
        pytest.param(7.5, "expected a JSON array, got 7.5", id="scalar"),
    ])
    def test_mean_and_variances_take_two_numbers(self, value, message):
        for field in ("mean", "variances"):
            generators = [GENERATORS_RAW[0], dict(GENERATORS_RAW[1], **{field: value})]
            with pytest.raises(SpecError, match=rf"^spec\.generators\[1\]\.{field}: {message}$"):
                load_spec(type1_raw(generators=generators))

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2"])
    def test_trials(self, value):
        with pytest.raises(SpecError, match=r"^spec\.trials: expected an integer"):
            load_spec(type1_raw(trials=value))
        with pytest.raises(SpecError, match=r"^spec\.datasets\[0\]\.trials: expected an integer"):
            load_spec(point_raw(trials=value))

    @pytest.mark.parametrize("value", [1729.5, False])
    def test_seed(self, value):
        with pytest.raises(SpecError, match=r"^spec\.seed: expected an integer"):
            load_spec(type1_raw(seed=value))

    @pytest.mark.parametrize("raw", [
        type1_raw(), point_raw(), type2_raw(), matrix_raw(["1", "2"]),
    ], ids=["type1_sweep", "point", "type2_growth", "matrix"])
    def test_negative_seed(self, raw):
        with pytest.raises(SpecError, match=r"^spec\.seed: must be >= 0$"):
            load_spec({**raw, "seed": -1})
        (sweep,) = load_spec({**raw, "seed": 0}).sweeps
        if isinstance(sweep, PointSweep):  # growth and matrix runs draw nothing at random
            assert sweep.stream[0] == 0

    @pytest.mark.parametrize(
        "value", ["abc", True, None, math.nan, -math.inf, 10**400],
        ids=["str", "bool", "null", "nan", "-inf", "huge-int"],
    )
    def test_numbers(self, value):
        rest = rf": expected a finite number, got {re.escape(repr(value))}$"
        with pytest.raises(SpecError, match=r"^spec\.thresholds" + rest):
            load_spec(type1_raw(thresholds=[3, value]))
        with pytest.raises(SpecError, match=r"^spec\.datasets\[0\]\.threshold" + rest):
            load_spec(point_raw(threshold=value))
        for field in ("mean", "variances"):
            generators = [GENERATORS_RAW[0], dict(GENERATORS_RAW[1], **{field: [1.0, value]})]
            with pytest.raises(SpecError, match=rf"^spec\.generators\[1\]\.{field}" + rest):
                load_spec(type1_raw(generators=generators))

    def test_numbers_accept_ints_and_floats(self):
        spec = load_spec(type1_raw(thresholds=[3, 4.5])).sweeps[0]
        assert spec.classifiers == (("t=3", 3.0), ("t=4.5", 4.5))
        assert [type(t) for _setting, t in spec.classifiers] == [float, float]
        assert spec.generators[0].mean == (7.5, 3.0)
        (classifier,) = load_spec(point_raw(threshold=4)).sweeps[0].classifiers
        assert classifier == ("pts", 4.0) and type(classifier[1]) is float

    def test_sample_count(self):
        generators = [dict(GENERATORS_RAW[0], sample_count=10.5), GENERATORS_RAW[1]]
        with pytest.raises(
            SpecError, match=r"^spec\.generators\[0\]\.sample_count: expected an integer"
        ):
            load_spec(type1_raw(generators=generators))

    def test_type2_profile_and_class_count(self):
        with pytest.raises(SpecError, match=r"^spec\.steps\[0\]\.profile: expected an integer"):
            load_spec(type2_raw(profile=[10, 10.5, 10]))
        with pytest.raises(
            SpecError, match=r"^spec\.steps\[0\]\.class_count: expected an integer"
        ):
            load_spec(type2_raw(class_count=3.0))
        with pytest.raises(SpecError, match=r"^spec\.steps\[0\]\.profile: 3 counts for C=4$"):
            load_spec(type2_raw(class_count=4))
        raw = type2_raw()
        del raw["steps"][0]["class_count"]
        assert load_spec(raw).sweeps[0].steps == ((10, 10, 10),)

    def test_type2_steps_with_one_class_count_rejected(self):
        # the class count keys a step's summary rows, so two steps at C = 3
        # would pool into one rrt_or_c
        raw = type2_raw()
        raw["steps"] += [{"profile": [5, 5]}, {"class_count": 3, "profile": [5, 20, 5]}]
        message = r"^spec\.steps\[0\] and spec\.steps\[2\] share the class count 3$"
        with pytest.raises(SpecError, match=message):
            load_spec(raw)

    def test_matrix_mode_count_vector(self):
        with pytest.raises(
            SpecError, match=r"^spec\.datasets\[0\]\.schedule: expected an integer"
        ):
            load_spec(matrix_raw([[10, 90], [20, 90.5]]))

    @pytest.mark.parametrize("value", ["abc", "1/0", True, None])
    def test_malformed_ratio_names_its_field(self, value):
        message = rf": {re.escape(repr(value))} is not a ratio$"
        with pytest.raises(SpecError, match=r"^spec\.rrt_schedule" + message):
            load_spec(type1_raw(rrt_schedule=["1", value]))
        with pytest.raises(SpecError, match=r"^spec\.datasets\[0\]\.schedule" + message):
            load_spec(point_raw(schedule=["1", value]))
        with pytest.raises(SpecError, match=r"^spec\.datasets\[0\]\.schedule" + message):
            load_spec(matrix_raw(["1", value]))
        with pytest.raises(SpecError, match=r"^spec\.accuracy_sweep" + message):
            load_spec(dict(type2_raw(), accuracy_sweep=[value]))


class TestStaticSpecRules:
    """An accuracy, a profile or a matrix-mode schedule entry that no run
    could use is rejected at load, naming its field; a ratio that
    subsampling cannot reach stays an undefined cell."""

    @pytest.mark.parametrize("value, shown", [("3/2", "3/2"), (-0.2, "-1/5")])
    def test_accuracy_outside_unit_interval(self, value, shown):
        message = rf"^spec\.accuracy_sweep: {shown} is outside \[0, 1\]$"
        with pytest.raises(SpecError, match=message):
            load_spec(dict(type2_raw(), accuracy_sweep=["3/5", value]))
        spec = load_spec(dict(type2_raw(), accuracy_sweep=["0", "1"]))
        assert spec.sweeps[0].accuracy_sweep == (0, 1)

    @pytest.mark.parametrize("profile", [[10, 0, 10], [10, 10, -3]])
    def test_profile_count_not_positive(self, profile):
        message = r"^spec\.steps\[0\]\.profile: counts must be positive$"
        with pytest.raises(SpecError, match=message):
            load_spec(type2_raw(profile=profile))

    TRI = [[5, 1, 1], [1, 5, 1], [1, 1, 5]]

    @pytest.mark.parametrize("matrix, entry, message", [
        pytest.param(TRI, [7, 7], r"\[7, 7\] has 2 counts for 3 classes", id="short"),
        pytest.param(TRI, [7, 7, 7, 7], r"\[7, 7, 7, 7\] has 4 counts for 3 classes", id="long"),
        pytest.param(TRI, "2", r"ratio 2 needs a 2-class matrix, got 3 classes", id="ratio"),
        pytest.param(TRI, [7, 0, 7], r"entries must be positive", id="zero-count"),
        pytest.param(TRI, [7, -7, 7], r"entries must be positive", id="negative-count"),
        pytest.param([[8, 2], [10, 90]], [10, 0], r"entries must be positive", id="two-class"),
        pytest.param([[8, 2], [10, 90]], "0", r"entries must be positive", id="zero-ratio"),
    ])
    def test_matrix_schedule_entry(self, matrix, entry, message):
        raw = matrix_raw([[14, 21, 7][:len(matrix)], entry], matrix=matrix, indices=["acsa"])
        with pytest.raises(SpecError, match=rf"^spec\.datasets\[0\]\.schedule: {message}$"):
            load_spec(raw)

    def test_unreachable_ratio_stays_an_undefined_cell(self):
        # 1/3 of the 2-point minority row is not a whole count: a run-time cell error
        raw = matrix_raw(["1", "1/3"], matrix=[[1, 1], [5, 5]], indices=["acsa"])
        rows = run_experiment(load_spec(raw)).rows
        assert [r.value is None for r in rows] == [False, True]
        assert rows[1].status.startswith("IntegralityError: ")


class TestTwoClassRule:
    """A two-class index on more than two classes is rejected at load, naming
    the field, the id and the class count; a spec built directly fails when
    it runs."""

    MESSAGE = "two-class index requires a 2-class matrix, got 3 classes"

    def test_matrix_dataset(self):
        raw = matrix_raw([[14, 21, 7]], matrix=[[5, 1, 1], [1, 5, 1], [1, 1, 5]],
                         indices=["acsa", "precision", "gmean2"])
        message = (r"^spec\.datasets\[0\]\.indices: 'precision' is a two-class index, "
                   r"but spec\.datasets\[0\]\.matrix has 3 classes$")
        with pytest.raises(SpecError, match=message):
            load_spec(raw)
        load_spec(matrix_raw(["1"], indices=["acsa", "precision"]))

    def test_type2_growth_step(self):
        raw = {**type2_raw(), "indices": ["acsa", "specificity"]}
        raw["steps"] = [{"profile": [10, 10]}, {"profile": [10, 10, 10]}]
        message = (r"^spec\.indices: 'specificity' is a two-class index, "
                   r"but spec\.steps\[1\] has 3 classes$")
        with pytest.raises(SpecError, match=message):
            load_spec(raw)
        raw["steps"] = [{"profile": [10, 10]}]
        assert load_spec(raw).sweeps[0].indices == ("acsa", "specificity")

    def test_specs_built_directly_fail_at_run_time(self):
        tri = ConfusionMatrix([[5, 1, 1], [1, 5, 1], [1, 1, 5]])
        dataset = MatrixStabilityDataset("tri", tri, ((14, 21, 7),), ("acsa", "precision"))
        growth = GrowthSweep(((10, 10, 10),), (Fraction(3, 5),), ("acsa", "recall"))
        for spec in (Experiment("m", (dataset,)), Experiment("t2", (growth,))):
            with pytest.raises(DimensionMismatchError, match=f"^{self.MESSAGE}$"):
                run_experiment(spec)


class TestPointSweepErrorCells:
    """An unreachable ratio gives error rows and an undefined schedule std."""

    INDICES = ["gmean2", "precision"]

    def check(self, result, settings, trials):
        bad = [r for r in result.rows if r.rrt_or_c == "1000"]
        assert sorted((r.trial, r.setting, r.index) for r in bad) == sorted(
            (t, s, i) for t in range(trials) for s in settings for i in self.INDICES
        )
        for r in bad:
            assert r.value is None
            assert r.status.startswith("UnachievableRRTError: ratio 1000 unreachable")
        good = [r for r in result.rows if r.rrt_or_c == "1"]
        assert len(good) == trials * len(settings) * len(self.INDICES)
        assert all(r.status == "ok" for r in good)
        stds = [r for r in result.summary if r.statistic == "std"]
        assert sorted((r.setting, r.index) for r in stds) == sorted(
            (s, i) for s in settings for i in self.INDICES
        )
        for r in stds:
            assert r.value is None and r.status == "undefined at 1000"

    def test_type1_sweep(self):
        spec = load_spec(type1_raw(
            thresholds=[4, 5], rrt_schedule=["1", "1000"], indices=self.INDICES, trials=2,
        ))
        self.check(run_experiment(spec), ["t=4", "t=5"], trials=2)

    def test_point_dataset(self):
        spec = load_spec(point_raw(schedule=["1", "1000"], indices=self.INDICES, trials=2))
        self.check(run_experiment(spec), ["pts"], trials=2)


class TestResultFiles:
    def test_csv_outputs_and_digest(self, tmp_path):
        dataset = MatrixStabilityDataset(
            "undef", ConfusionMatrix([[0, 5], [0, 5]]),
            (Fraction(1), Fraction(2)), ("precision", "gmean2"),
        )
        result = run_experiment(Experiment("files", (dataset,)))
        long_path, summary_path = result.write_csv(tmp_path)
        long_text = long_path.read_text()
        assert "experiment,trial,setting,rrt_or_c,index,value,status" in long_text
        assert "UNDEFINED" in long_text  # precision has no positive predictions
        summary_text = summary_path.read_text()
        assert "statistic" in summary_text
        digest = result.digest()
        assert digest["gmean2"] == 0.0
        assert digest["precision"] is None

    def test_digest_skips_undefined_stds_and_sorts_by_id(self):
        schedule, indices = (Fraction(1), Fraction(2)), ("precision", "gmean2")
        datasets = (
            MatrixStabilityDataset("undef", ConfusionMatrix([[0, 5], [0, 5]]), schedule, indices),
            MatrixStabilityDataset("def", ConfusionMatrix([[8, 2], [10, 90]]), schedule, indices),
        )
        digest = run_experiment(Experiment("two", datasets)).digest()
        # precision is 8/9 at ratio 1 ([[8, 2], [1, 9]]) and 8/10 at ratio 2
        assert digest == {"gmean2": 0.0, "precision": statistics.pstdev([8 / 9, 8 / 10])}
        assert list(digest) == ["gmean2", "precision"]


# sha256 of every bundled spec's CSVs with its seed set to 7, recorded at c21cf03
SEED7_DIGESTS = {
    "class_count_effect_long.csv":
        "8538f05c16b8048279dbea4f24823e87c341fa66b1cf310dc72fb657b87d62de",
    "class_count_effect_summary.csv":
        "8100f03a71c9ad6d7645b4cbd89fca0fc4d1bf676be73451cb755bc116dcc2e0",
    "example1_type1_long.csv":
        "902446f1a9114f53a4512360ad0119f65fd56a0f6b5494d1c58a3ad4a18ea281",
    "example1_type1_summary.csv":
        "d8d98d2df6aeb03b1f5fe476794477d32937e9af17778cf21811959c667dab45",
    "example1_type2_long.csv":
        "0ca6b45f78397274738ed7534d0ac6faaf46097d70eb15567c00fda864b9239b",
    "example1_type2_summary.csv":
        "10f2397432bc13048098884feb5f455fe59a5cd57ab03e400d6554826357a181",
    "rrt_stability_matrix_long.csv":
        "98823ab8a66f79814015b2b82f6eeb657223760cade4a16d014d1e0a43f046e0",
    "rrt_stability_matrix_summary.csv":
        "e08e63fce1c5f52c9deb9f491fe10f2278c202f0152ad28c080e2ef975e1660b",
    "rrt_stability_point_long.csv":
        "c6d89060b6794341d67afc9c380e284442d4398f4f5a15ee5402af0ef9ecfb8b",
    "rrt_stability_point_summary.csv":
        "dfd2cbeb0c8f00902dd5c7069f24f6a5df1686719e1eba554d971dccb3c07a60",
}


# the same at seed 99, recorded at 40b9bb0
SEED99_DIGESTS = {
    "class_count_effect_long.csv":
        "8538f05c16b8048279dbea4f24823e87c341fa66b1cf310dc72fb657b87d62de",
    "class_count_effect_summary.csv":
        "8100f03a71c9ad6d7645b4cbd89fca0fc4d1bf676be73451cb755bc116dcc2e0",
    "example1_type1_long.csv":
        "96f2d125db7a702b400e96bdcdfbec4e9368021f9546018993ff53ffdfe5cfab",
    "example1_type1_summary.csv":
        "d4be6a2a834f9329e50307c15869c4459e68b7aadc2d1683e29634d20d4ed560",
    "example1_type2_long.csv":
        "0ca6b45f78397274738ed7534d0ac6faaf46097d70eb15567c00fda864b9239b",
    "example1_type2_summary.csv":
        "10f2397432bc13048098884feb5f455fe59a5cd57ab03e400d6554826357a181",
    "rrt_stability_matrix_long.csv":
        "98823ab8a66f79814015b2b82f6eeb657223760cade4a16d014d1e0a43f046e0",
    "rrt_stability_matrix_summary.csv":
        "e08e63fce1c5f52c9deb9f491fe10f2278c202f0152ad28c080e2ef975e1660b",
    "rrt_stability_point_long.csv":
        "814dd66e9724c2050795a1277f05453ed8f7e050e3ca48640f4fb2941b47b43c",
    "rrt_stability_point_summary.csv":
        "e56f4fd6da8eeba16813d329f3c0bfa3448a3fd5c05001e4cde22b7eaf0a9d89",
}


def bundled_csv_digests(seed, output_dir):
    for spec_path in sorted(SPEC_DIR.glob("*.json")):
        raw = dict(json.loads(spec_path.read_text()), seed=seed)
        run_experiment(load_spec(raw)).write_csv(output_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(output_dir.glob("*.csv"))
    }


def test_bundled_specs_at_seed_7_match_recorded_digests(tmp_path):
    assert bundled_csv_digests(7, tmp_path) == SEED7_DIGESTS


def test_bundled_specs_at_seed_99_match_recorded_digests(tmp_path):
    assert bundled_csv_digests(99, tmp_path) == SEED99_DIGESTS
