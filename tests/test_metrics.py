"""Tests for the confusion-matrix scalar metrics and defined/undefined propagation."""

import random
import re
from fractions import Fraction

import pytest

from clfmetrics import (
    ClassWeights,
    ConfusionMatrix,
    InvalidWeightsError,
    MetricValue,
    UndefinedReason,
    accuracy,
    balanced_accuracy,
    balanced_accuracy_weighted,
    evaluate,
    harmonic_f1,
    macro_f1,
    macro_precision,
    micro_f1,
    misclassification_rate,
    per_class,
)
from conftest import random_matrix

PERFECT = ConfusionMatrix.from_grid(("a", "b", "c"), ((3, 0, 0), (0, 4, 0), (0, 0, 5)))


class TestMetricValue:
    def test_exactly_one_side_must_be_set(self):
        with pytest.raises(ValueError):
            MetricValue()
        with pytest.raises(ValueError):
            MetricValue(value=Fraction(1), reason=UndefinedReason.EMPTY_DENOMINATOR)

    def test_unwrap_undefined_raises(self):
        v = MetricValue.undefined(UndefinedReason.EMPTY_DENOMINATOR)
        assert not v.is_defined
        with pytest.raises(ValueError, match="empty_denominator"):
            v.unwrap()

    def test_defined_accessors(self):
        v = MetricValue.defined(Fraction(1, 4))
        assert v.is_defined
        assert v.unwrap() == Fraction(1, 4)
        assert v.as_float() == 0.25


class TestAccuracy:
    def test_four_class_value(self, four_class_matrix):
        assert accuracy(four_class_matrix).unwrap() == Fraction(37, 52)
        assert abs(accuracy(four_class_matrix).as_float() - 0.711538) < 1e-6

    def test_perfect(self):
        assert accuracy(PERFECT).unwrap() == 1

    def test_zero_matrix_undefined(self, zero_matrix):
        v = accuracy(zero_matrix)
        assert v.reason is UndefinedReason.EMPTY_DENOMINATOR

    def test_complement_is_misclassification_rate(self, four_class_matrix):
        assert misclassification_rate(four_class_matrix).unwrap() == Fraction(15, 52)
        assert misclassification_rate(PERFECT).unwrap() == 0
        total = accuracy(four_class_matrix).unwrap() + misclassification_rate(four_class_matrix).unwrap()
        assert total == 1

    def test_misclassification_undefined_on_zero(self, zero_matrix):
        assert not misclassification_rate(zero_matrix).is_defined


class TestPerClass:
    def test_binary_example(self, binary_matrix):
        pc = per_class(binary_matrix)
        assert pc.precision[0].unwrap() == Fraction(20, 30)
        assert pc.recall[0].unwrap() == Fraction(20, 25)
        assert pc.f1[0].unwrap() == Fraction(8, 11)

    def test_never_predicted_class_has_undefined_precision(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((3, 0), (2, 0)))
        pc = per_class(m)
        assert pc.precision[1].reason is UndefinedReason.EMPTY_DENOMINATOR
        assert pc.recall[1].unwrap() == 0

    def test_low_recall_row(self):
        # class a: 5 units kept, 57 spread over the other classes
        m = ConfusionMatrix.from_grid(
            ("a", "b", "c", "d"),
            ((5, 30, 20, 7), (2, 40, 5, 3), (1, 2, 60, 2), (0, 1, 2, 30)),
        )
        assert per_class(m).recall[0].unwrap() == Fraction(5, 62)

    def test_f1_degenerate_when_both_rates_are_zero(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((0, 2), (3, 5)))
        pc = per_class(m)
        assert pc.precision[0].unwrap() == 0
        assert pc.recall[0].unwrap() == 0
        assert pc.f1[0].reason is UndefinedReason.DEGENERATE_ZERO_OVER_ZERO

    def test_f1_inherits_undefined_inputs(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((3, 0), (2, 0)))
        assert per_class(m).f1[1].reason is UndefinedReason.EMPTY_DENOMINATOR


class TestBalancedAccuracy:
    def test_four_class_value(self, four_class_matrix):
        expected = (Fraction(6, 9) + Fraction(9, 14) + Fraction(10, 13) + Fraction(12, 16)) / 4
        assert balanced_accuracy(four_class_matrix).unwrap() == expected

    def test_perfect(self):
        assert balanced_accuracy(PERFECT).unwrap() == 1

    def test_equals_accuracy_when_row_totals_are_equal(self):
        rng = random.Random(21)
        for _ in range(25):
            k = rng.randint(2, 4)
            total = rng.randint(1, 12)
            grid = []
            for _ in range(k):
                row = [0] * k
                for _ in range(total):
                    row[rng.randrange(k)] += 1
                grid.append(tuple(row))
            m = ConfusionMatrix.from_grid(tuple(f"c{i}" for i in range(k)), tuple(grid))
            assert balanced_accuracy(m).unwrap() == accuracy(m).unwrap()

    def test_strict_undefined_on_empty_row(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((0, 0), (1, 3)))
        assert balanced_accuracy(m).reason is UndefinedReason.EMPTY_DENOMINATOR

    def test_lenient_averages_defined_rows_only(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((0, 0), (1, 3)))
        assert balanced_accuracy(m, lenient=True).unwrap() == Fraction(3, 4)


class TestBalancedAccuracyWeighted:
    def test_frequency_weights_recover_accuracy(self, four_class_matrix):
        w = ClassWeights.from_actual_frequencies(four_class_matrix)
        v = balanced_accuracy_weighted(four_class_matrix, w)
        assert v.unwrap() == accuracy(four_class_matrix).unwrap() == Fraction(37, 52)

    def test_uniform_weights_recover_balanced_accuracy(self, four_class_matrix):
        w = ClassWeights.uniform(4)
        assert (
            balanced_accuracy_weighted(four_class_matrix, w).unwrap()
            == balanced_accuracy(four_class_matrix).unwrap()
        )

    def test_one_hot_weight_selects_one_recall(self, four_class_matrix):
        w = ClassWeights((Fraction(0), Fraction(0), Fraction(1), Fraction(0)))
        assert balanced_accuracy_weighted(four_class_matrix, w).unwrap() == Fraction(10, 13)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidWeightsError):
            ClassWeights((Fraction(-1), Fraction(2)))

    @pytest.mark.parametrize("entry", [0.1, 1.0, True, False, "1", None])
    def test_non_exact_entry_rejected(self, entry):
        with pytest.raises(InvalidWeightsError, match=re.escape(repr(entry))):
            ClassWeights((Fraction(1), entry))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(InvalidWeightsError):
            ClassWeights((Fraction(0), Fraction(0)))

    def test_weight_count_must_match_classes(self, four_class_matrix):
        with pytest.raises(InvalidWeightsError, match="expected 4"):
            balanced_accuracy_weighted(four_class_matrix, ClassWeights.uniform(3))

    def test_positive_weight_on_undefined_recall_is_strictly_undefined(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((0, 0), (1, 3)))
        v = balanced_accuracy_weighted(m, ClassWeights.uniform(2))
        assert v.reason is UndefinedReason.EMPTY_DENOMINATOR

    def test_zero_weight_on_undefined_recall_is_fine(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((0, 0), (1, 3)))
        w = ClassWeights((Fraction(0), Fraction(1)))
        assert balanced_accuracy_weighted(m, w).unwrap() == Fraction(3, 4)

    def test_lenient_drops_undefined_and_renormalizes(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((0, 0), (1, 3)))
        v = balanced_accuracy_weighted(m, ClassWeights.uniform(2), lenient=True)
        assert v.unwrap() == Fraction(3, 4)


class TestMacroAverages:
    def test_macro_precision_binary_example(self, binary_matrix):
        assert macro_precision(binary_matrix).unwrap() == Fraction(95, 132)

    def test_macro_recall_equals_balanced_accuracy(self, four_class_matrix):
        assert (
            evaluate(four_class_matrix).metric("macro_recall").unwrap()
            == balanced_accuracy(four_class_matrix).unwrap()
        )

    def test_perfect_matrix_macros(self):
        assert macro_precision(PERFECT).unwrap() == 1
        assert balanced_accuracy(PERFECT).unwrap() == 1
        assert macro_f1(PERFECT).unwrap() == 1

    def test_strict_goes_undefined_with_a_silent_class(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((3, 0), (2, 0)))
        assert macro_precision(m).reason is UndefinedReason.EMPTY_DENOMINATOR
        assert macro_precision(m, lenient=True).unwrap() == Fraction(3, 5)

    def test_macro_f1_is_harmonic_mean_of_macros(self, four_class_matrix):
        mp = macro_precision(four_class_matrix).unwrap()
        mr = balanced_accuracy(four_class_matrix).unwrap()
        assert macro_f1(four_class_matrix).unwrap() == 2 * mp * mr / (mp + mr)


class TestHarmonicF1:
    def test_equal_inputs_pass_through(self):
        assert harmonic_f1(Fraction(4, 5), Fraction(4, 5)).unwrap() == Fraction(4, 5)

    def test_worked_pair(self):
        assert harmonic_f1(Fraction(3, 5), Fraction(1)).unwrap() == Fraction(3, 4)

    def test_zero_pair_is_degenerate(self):
        v = harmonic_f1(Fraction(0), Fraction(0))
        assert v.reason is UndefinedReason.DEGENERATE_ZERO_OVER_ZERO

    def test_undefined_operand_propagates(self):
        undef = MetricValue.undefined(UndefinedReason.EMPTY_DENOMINATOR)
        assert harmonic_f1(undef, Fraction(1)).reason is UndefinedReason.EMPTY_DENOMINATOR


class TestMicroF1:
    def test_four_class_equals_accuracy(self, four_class_matrix):
        assert micro_f1(four_class_matrix).unwrap() == Fraction(37, 52)

    def test_random_matrices_equal_accuracy_exactly(self):
        rng = random.Random(13)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(2, 5))
            assert micro_f1(m).unwrap() == accuracy(m).unwrap()

    def test_zero_matrix_undefined(self, zero_matrix):
        assert not micro_f1(zero_matrix).is_defined


class TestEvaluate:
    def test_four_class_report(self, four_class_matrix):
        report = evaluate(four_class_matrix, dataset="demo")
        assert report.metric("accuracy").unwrap() == Fraction(37, 52)
        assert report.metric("micro_f1").unwrap() == report.metric("accuracy").unwrap()
        assert abs(report.metric("balanced_accuracy").as_float() - 0.707189) < 1e-6
        assert report.total_units == 52
        assert report.labels == ("a", "b", "c", "d")

    def test_zero_matrix_report_is_well_formed(self, zero_matrix):
        report = evaluate(zero_matrix)
        for name, value in report.metrics.items():
            assert not value.is_defined, name
        assert len(report.per_class.precision) == 2

    def test_deterministic(self, four_class_matrix):
        assert evaluate(four_class_matrix, dataset="x") == evaluate(four_class_matrix, dataset="x")

    def test_lenient_mode_records_skipped_classes(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((3, 0), (2, 0)))
        report = evaluate(m, lenient=True)
        assert report.mode == "lenient"
        assert report.skipped_classes["macro_precision"] == 1
        assert report.skipped_classes["macro_recall"] == 0
        strict = evaluate(m)
        assert strict.skipped_classes is None
        assert not strict.metric("macro_precision").is_defined

    @pytest.mark.parametrize("lenient", [False, True])
    @pytest.mark.parametrize("custom_weights", [False, True])
    def test_per_class_breakdown_is_built_once(self, four_class_matrix, monkeypatch, lenient, custom_weights):
        from clfmetrics import metrics

        calls = []

        def counting(m):
            calls.append(m)
            return per_class(m)

        monkeypatch.setattr(metrics, "per_class", counting)
        weights = ClassWeights((1, 0, 2, 3)) if custom_weights else None
        evaluate(four_class_matrix, weights, lenient=lenient)
        assert calls == [four_class_matrix]

    @pytest.mark.parametrize("lenient", [False, True])
    def test_shared_breakdown_matches_the_standalone_metrics(self, lenient, zero_matrix):
        rng = random.Random(3)
        cases = []
        for _ in range(40):
            k = rng.randint(2, 5)
            grid = [[rng.choice((0, 0, 1, 4)) for _ in range(k)] for _ in range(k)]
            m = ConfusionMatrix.from_grid(tuple(f"c{i}" for i in range(k)), grid)
            cases.append((m, ClassWeights(tuple(rng.randint(0, 3) for _ in range(k - 1)) + (1,))))
        cases.append((zero_matrix, ClassWeights((0, 1))))
        for m, custom in cases:
            for weights in (custom, None):
                report = evaluate(m, weights, lenient=lenient)
                assert report.metric("balanced_accuracy") == balanced_accuracy(m, lenient)
                assert report.metric("macro_recall") == balanced_accuracy(m, lenient)
                assert report.metric("macro_precision") == macro_precision(m, lenient)
                assert report.metric("macro_f1") == macro_f1(m, lenient)
                weighted = report.metric("balanced_accuracy_weighted")
                if weights is not None:
                    assert weighted == balanced_accuracy_weighted(m, weights, lenient)
                elif m.grand_total > 0:
                    assert weighted == balanced_accuracy_weighted(m, ClassWeights.from_actual_frequencies(m), lenient)
                else:
                    assert weighted.reason is UndefinedReason.EMPTY_DENOMINATOR
                if lenient:
                    undefined_recalls = [not v.is_defined for v in per_class(m).recall]
                    assert report.skipped_classes == {
                        "balanced_accuracy": sum(undefined_recalls),
                        "balanced_accuracy_weighted": sum(
                            u and w > 0 for u, w in zip(undefined_recalls, weights.w)
                        ) if weights is not None else 0,
                        "macro_precision": sum(not v.is_defined for v in per_class(m).precision),
                        "macro_recall": sum(undefined_recalls),
                    }

    def test_default_weights_never_build_frequency_weights(self, four_class_matrix, zero_matrix, monkeypatch):
        def refuse(cls, m):
            raise AssertionError("evaluate built frequency weights")

        monkeypatch.setattr(ClassWeights, "from_actual_frequencies", classmethod(refuse))
        for m in (four_class_matrix, zero_matrix):
            for lenient in (False, True):
                report = evaluate(m, lenient=lenient)
                assert report.metric("balanced_accuracy_weighted") == report.metric("accuracy")
                assert report.weights_source == "frequency"
