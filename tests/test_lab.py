"""Distortion lab: generators, classifiers, resampling, and experiment runs."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from imbindex import MatrixError, evaluate, validate
from imbindex.confusion import IntegralityError
from conftest import SPEC_DIR
from imbindex.lab import (
    GaussianClassSpec,
    GrowthStep,
    MatrixStabilityDataset,
    PointSet,
    RRTStabilitySpec,
    SpecError,
    Type1SweepSpec,
    Type2GrowthSpec,
    UnachievableRRTError,
    generate_gaussian_dataset,
    load_spec,
    rescale_matrix_to_counts,
    rescale_matrix_to_rrt,
    resample_points_to_rrt,
    run_experiment,
    synthetic_multiclass_confusion,
    threshold_classifier_confusion,
)

TYPE1_GENERATORS = (
    GaussianClassSpec("right", (7.5, 3.0), (0.25, 0.25), 5000),
    GaussianClassSpec("left", (3.0, 3.0), (0.45, 0.45), 5000),
)


def small_generators(n=600):
    return (
        GaussianClassSpec("right", (7.5, 3.0), (0.25, 0.25), n),
        GaussianClassSpec("left", (3.0, 3.0), (0.45, 0.45), n),
    )


class TestGaussianDataset:
    def test_counts_and_labels(self):
        points = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        assert {k: xy.shape for k, xy in points.classes.items()} == {
            "right": (5000, 2), "left": (5000, 2),
        }
        assert points.class_counts() == {"left": 5000, "right": 5000}

    def test_deterministic_under_seed(self):
        a = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        b = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        assert list(a.classes) == list(b.classes)
        assert all(np.array_equal(a.classes[k], b.classes[k]) for k in a.classes)

    def test_empirical_means_close_to_spec(self):
        points = generate_gaussian_dataset(TYPE1_GENERATORS, 11)
        for spec in TYPE1_GENERATORS:
            block = points.classes[spec.label]
            for axis in (0, 1):
                sigma = math.sqrt(spec.variances[axis])
                margin = 3 * sigma / math.sqrt(spec.sample_count)
                assert abs(block[:, axis].mean() - spec.mean[axis]) < margin

    def test_single_point_classes(self):
        tiny = (
            GaussianClassSpec("a", (0, 0), (1, 1), 1),
            GaussianClassSpec("b", (5, 5), (1, 1), 1),
        )
        assert generate_gaussian_dataset(tiny, 3).class_counts() == {"a": 1, "b": 1}

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
        assert list(points.classes) == ["a", "b"]
        assert np.array_equal(points.classes["a"], np.vstack([blocks[0], blocks[2]]))
        assert np.array_equal(points.classes["b"], blocks[1])

    def test_validation(self):
        with pytest.raises(SpecError):
            GaussianClassSpec("bad", (0, 0), (0.0, 1.0), 5)
        with pytest.raises(SpecError):
            GaussianClassSpec("bad", (0, 0), (1.0, 1.0), 0)


class TestThresholdClassifier:
    def test_against_manual_tally(self):
        points = generate_gaussian_dataset(small_generators(), 13)
        m = threshold_classifier_confusion(points, 5.0, "right", "greater")
        right, left = points.classes["right"][:, 0], points.classes["left"][:, 0]
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
        points = PointSet({
            "p": np.array([[1.0, 0.0], [2.0, 0.0]]), "n": np.array([[2.0, 0.0], [3.0, 0.0]]),
        })
        assert threshold_classifier_confusion(points, 2.0, "p", "greater").to_lists() == [
            [0, 2], [1, 1],
        ]
        assert threshold_classifier_confusion(points, 2.0, "p", "less").to_lists() == [
            [1, 1], [0, 2],
        ]

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
        three = PointSet({**points.classes, "middle": points.classes["left"]})
        with pytest.raises(MatrixError, match=re.escape(
            "needs exactly 2 classes, got ['left', 'middle', 'right']"
        )):
            threshold_classifier_confusion(three, 5.0, "right")


class TestPointResampling:
    def test_shrinks_minority_for_large_ratio(self):
        points = generate_gaussian_dataset(TYPE1_GENERATORS, 7)
        out = resample_points_to_rrt(points, 10, "left", 7)
        assert out.class_counts() == {"left": 5000, "right": 500}

    def test_shrinks_majority_for_small_ratio(self):
        points = generate_gaussian_dataset(small_generators(100), 7)
        out = resample_points_to_rrt(points, "1/2", "left", 7)
        assert out.class_counts() == {"left": 50, "right": 100}

    def test_ratio_one_keeps_balanced_set(self):
        points = generate_gaussian_dataset(small_generators(100), 7)
        out = resample_points_to_rrt(points, 1, "left", 7)
        assert out.class_counts() == {"left": 100, "right": 100}

    def test_unachievable_ratio(self):
        points = generate_gaussian_dataset(small_generators(10), 7)
        with pytest.raises(UnachievableRRTError):
            resample_points_to_rrt(points, 1000, "left", 7)

    def test_subsample_is_subset_and_deterministic(self):
        points = generate_gaussian_dataset(small_generators(200), 9)
        a = resample_points_to_rrt(points, 4, "left", 21)
        b = resample_points_to_rrt(points, 4, "left", 21)
        for label in ("left", "right"):
            assert np.array_equal(a.classes[label], b.classes[label])
            original = {tuple(row) for row in points.classes[label]}
            assert all(tuple(row) in original for row in a.classes[label])

    def test_draws_match_global_index_reference(self):
        # the same draws as a subsample by global point position: one label
        # per point in generation order, majority class drawn first
        points = generate_gaussian_dataset(small_generators(200), 9)
        xy = np.vstack([points.classes["right"], points.classes["left"]])
        labels = np.array(["right"] * 200 + ["left"] * 200)
        for ratio in (4, "1/2", 1):  # shrinks the minority, the majority, neither
            out = resample_points_to_rrt(points, ratio, "left", 21)
            rng = np.random.default_rng(21)
            kept = []
            for label in ("left", "right"):
                idx = np.flatnonzero(labels == label)
                k = out.class_counts()[label]
                if k < len(idx):
                    idx = np.sort(rng.choice(idx, size=k, replace=False))
                kept.append(idx)
            order = np.sort(np.concatenate(kept))
            for label in ("left", "right"):
                assert np.array_equal(out.classes[label], xy[order][labels[order] == label])


class TestMatrixRescaling:
    def test_reference_rescale(self):
        m = validate([[8, 2], [10, 90]])
        assert rescale_matrix_to_rrt(m, 2).to_lists() == [[8, 2], [2, 18]]

    def test_ratio_schedule_stays_integral(self):
        m = validate([[8, 2], [10, 90]])
        for ratio in (1, 2, 4, 6, 8, 10):
            out = rescale_matrix_to_rrt(m, ratio)
            assert out.row_sums == (10, 10 * ratio)

    def test_non_integral_rescale_rejected(self):
        from imbindex import NonIntegerScalingError

        m = validate([[8, 2], [10, 90]])
        with pytest.raises(NonIntegerScalingError):
            rescale_matrix_to_rrt(m, "1/2")
        with pytest.raises(IntegralityError):
            rescale_matrix_to_rrt(m, "1/3")  # fractional target count

    def test_counts_rescale(self):
        m = validate([[8, 1, 1], [1, 8, 1], [2, 2, 6]])
        out = rescale_matrix_to_counts(m, (20, 10, 30))
        assert out.row_sums == (20, 10, 30)
        assert out.counts[0] == (16, 2, 2)

    def test_counts_rescale_rejects_non_integral(self):
        from imbindex import NonIntegerScalingError

        m = validate([[8, 1, 1], [1, 8, 1], [2, 2, 6]])
        with pytest.raises(
            NonIntegerScalingError, match=r"^row 1, column 2: 3/2 \* 1 is not an integer$"
        ):
            rescale_matrix_to_counts(m, (15, 10, 30))


class TestSyntheticMatrices:
    def test_uniform_three_class(self):
        m = synthetic_multiclass_confusion(3, "3/5", (10, 10, 10))
        assert m.to_lists() == [[6, 2, 2], [2, 6, 2], [2, 2, 6]]

    def test_perfect_accuracy_is_diagonal(self):
        m = synthetic_multiclass_confusion(3, 1, (10, 20, 30))
        assert evaluate("gmean_c", m).value == 1.0
        assert m.counts[0] == (10, 0, 0)

    def test_hexagon_profile_reference_values(self):
        profile = (5000, 1500, 4000, 500, 3500, 4500)
        m = synthetic_multiclass_confusion(6, "3/5", profile)
        assert evaluate("auroc_ova", m).value == pytest.approx(0.76, abs=1e-12)
        assert evaluate("acsa", m).value == pytest.approx(0.6, abs=1e-12)

    def test_remainder_to_lowest_indexed_class(self):
        m = synthetic_multiclass_confusion(4, "3/5", (5000, 1500, 4000, 500))
        # row 0 spreads 2000 errors as 666 each plus remainder 2
        assert m.counts[0] == (3000, 668, 666, 666)
        assert m.row_sums == (5000, 1500, 4000, 500)

    def test_integrality_guard(self):
        with pytest.raises(IntegralityError):
            synthetic_multiclass_confusion(3, "3/5", (10, 10, 11))


class TestType1Sweep:
    def build_spec(self, trials=3, thresholds=(4.0,), schedule=("1", "10")):
        return Type1SweepSpec(
            experiment="t1",
            generators=small_generators(2000),
            positive_label="right",
            positive_side="greater",
            majority_label="left",
            thresholds=tuple(thresholds),
            rrt_schedule=tuple(Fraction(s) for s in schedule),
            indices=("precision", "m_precision", "gmean2"),
            trials=trials,
            seed=1729,
        )

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
        spec = Type2GrowthSpec(
            experiment="t2",
            steps=tuple(GrowthStep(c, hexagon[:c]) for c in (3, 4, 5, 6)),
            accuracy_sweep=(Fraction(3, 5),),
            indices=("auroc_ova", "acsa"),
            seed=1,
        )
        result = run_experiment(spec)
        mins = result.mins()
        ova = [mins[(str(c), "auroc_ova")] for c in (3, 4, 5, 6)]
        assert ova[0] == pytest.approx(0.70, abs=1e-12)
        assert all(a < b for a, b in zip(ova, ova[1:]))
        assert all(mins[(str(c), "acsa")] == pytest.approx(0.6, abs=1e-12) for c in (3, 4, 5, 6))


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
            matrix=validate([[0, 5], [0, 5]]),
            schedule=(Fraction(1),),
            indices=("precision", "gmean2"),
        )
        spec = RRTStabilitySpec(experiment="u", datasets=(dataset,), seed=0)
        result = run_experiment(spec)
        statuses = {(r.index): r.status for r in result.rows}
        assert statuses["precision"] != "ok"
        assert statuses["gmean2"] == "ok"


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
        with pytest.raises(SpecError, match="unique"):
            load_spec(raw)


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

    def test_generators_sharing_a_label_are_stacked(self):
        generators = [*GENERATORS_RAW, dict(GENERATORS_RAW[1], mean=[2.0, 3.0])]
        for raw in (type1_raw(generators=generators), point_raw(generators=generators)):
            result = run_experiment(load_spec(raw))
            assert {r.status for r in result.rows} == {"ok"}

    def test_type1_thresholds_non_empty(self):
        with pytest.raises(SpecError, match=r"^spec\.thresholds: must be non-empty"):
            load_spec(type1_raw(thresholds=[]))

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
        assert load_spec({**raw, "seed": 0}).seed == 0

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
        spec = load_spec(type1_raw(thresholds=[3, 4.5]))
        assert spec.thresholds == (3.0, 4.5)
        assert spec.generators[0].mean == (7.5, 3.0)
        assert load_spec(point_raw(threshold=4)).datasets[0].threshold == 4.0

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
            "undef", validate([[0, 5], [0, 5]]),
            (Fraction(1), Fraction(2)), ("precision", "gmean2"),
        )
        result = run_experiment(RRTStabilitySpec("files", (dataset,), 0))
        long_path, summary_path = result.write_csv(tmp_path)
        long_text = long_path.read_text()
        assert "experiment,trial,setting,rrt_or_c,index,value,status" in long_text
        assert "UNDEFINED" in long_text  # precision has no positive predictions
        summary_text = summary_path.read_text()
        assert "statistic" in summary_text
        digest = result.digest()
        assert digest["gmean2"] == 0.0
        assert digest["precision"] is None
