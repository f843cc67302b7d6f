"""Tests for probability records, cross-entropy and the hardening rule."""

import math
import random

import pytest

from clfmetrics import (
    ClassRegistry,
    EmptyDatasetError,
    InvalidRecordError,
    MixedDimensionsError,
    ProbRecord,
    XentOptions,
    accuracy,
    argmax_rule,
    score_records,
    xent_unit,
)

MINUS_LN_04 = 0.916290731874155  # ln 2 - ln 5, frozen independently
AB, ABC, ABCD = ClassRegistry(("a", "b")), ClassRegistry(("a", "b", "c")), ClassRegistry(("a", "b", "c", "d"))


class TestProbRecord:
    def test_valid_record(self):
        r = ProbRecord(true_class=1, probs=(0.2, 0.5, 0.3))
        assert r.k == 3

    @pytest.mark.parametrize(
        "probs",
        [(-0.1, 1.1), (0.5, 0.6), (0.1, 0.1), (float("nan"), 1.0), ()],
    )
    def test_invalid_vectors_rejected(self, probs):
        with pytest.raises(InvalidRecordError):
            ProbRecord(true_class=0, probs=probs)

    def test_true_class_out_of_range(self):
        with pytest.raises(InvalidRecordError):
            ProbRecord(true_class=2, probs=(0.5, 0.5))
        with pytest.raises(InvalidRecordError):
            ProbRecord(true_class=-1, probs=(0.5, 0.5))

    @pytest.mark.parametrize("true_class", [1.0, 0.0, True, False, "0", None])
    def test_true_class_that_is_not_an_int_rejected(self, true_class):
        """Else score_records and xent_unit would index the vector with it and raise a bare TypeError."""
        with pytest.raises(InvalidRecordError, match="true class must be an int"):
            ProbRecord(true_class, (0.5, 0.5))

    def test_sum_tolerance_is_tight_but_not_zero(self):
        ProbRecord(true_class=0, probs=(0.5 + 4e-7, 0.5))  # inside tolerance
        with pytest.raises(InvalidRecordError):
            ProbRecord(true_class=0, probs=(0.51, 0.5))


class TestXentOptions:
    def test_defaults(self):
        opts = XentOptions()
        assert opts.epsilon == 1e-15
        assert opts.reduce == "mean"

    @pytest.mark.parametrize("epsilon", [0.0, -1e-9, 1e-5, 0.5, float("nan"), "1e-9", None])
    def test_epsilon_bounds(self, epsilon):
        with pytest.raises(ValueError):
            XentOptions(epsilon=epsilon)

    def test_reduce_values(self):
        XentOptions(reduce="sum")
        with pytest.raises(ValueError):
            XentOptions(reduce="median")


class TestXentUnit:
    def test_one_hot_on_true_class_is_zero(self):
        assert xent_unit(ProbRecord(0, (1.0, 0.0, 0.0))) == 0.0

    def test_point_four_true_class(self):
        r = ProbRecord(2, (0.3, 0.3, 0.4))
        assert abs(xent_unit(r) - MINUS_LN_04) < 1e-12

    def test_zero_probability_is_clipped_finite(self):
        r = ProbRecord(0, (0.0, 1.0))
        v = xent_unit(r)
        assert v == -math.log(1e-15)
        assert math.isfinite(v)

    def test_depends_only_on_true_class_probability(self):
        a = ProbRecord(1, (0.6, 0.4, 0.0))
        b = ProbRecord(1, (0.0, 0.4, 0.6))
        assert xent_unit(a) == xent_unit(b)

    def test_monotone_decreasing_in_true_class_probability(self):
        values = [xent_unit(ProbRecord(0, (p, 1.0 - p))) for p in (0.1, 0.3, 0.5, 0.9, 1.0)]
        assert values == sorted(values, reverse=True)
        assert all(v >= 0 for v in values)


class TestXentDataset:
    def test_identical_records_mean_equals_unit(self):
        r = ProbRecord(1, (0.25, 0.5, 0.25))
        assert score_records([r] * 7, ABC)[1] == xent_unit(r)

    def test_sum_reduction(self):
        r = ProbRecord(1, (0.25, 0.5, 0.25))
        opts = XentOptions(reduce="sum")
        assert score_records([r] * 4, ABC, opts)[1] == pytest.approx(4 * xent_unit(r), abs=1e-12)

    def test_one_hot_correct_dataset_is_zero(self):
        records = [ProbRecord(i % 3, tuple(1.0 if j == i % 3 else 0.0 for j in range(3))) for i in range(9)]
        assert score_records(records, ABC)[1] == 0.0

    def test_order_independent(self):
        rng = random.Random(37)
        records = []
        for _ in range(200):
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            records.append(ProbRecord(rng.randrange(4), tuple(x / total for x in raw)))
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert score_records(records, ABCD)[1] == score_records(shuffled, ABCD)[1]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            score_records([], AB)

    def test_mixed_dimensions_rejected(self):
        records = [ProbRecord(0, (0.5, 0.5)), ProbRecord(0, (0.4, 0.3, 0.3))]
        with pytest.raises(MixedDimensionsError):
            score_records(records, AB)

    def test_consumes_a_stream(self):
        r = ProbRecord(0, (0.7, 0.3))
        assert score_records(iter([r, r]), AB)[1] == xent_unit(r)


class TestArgmaxRule:
    def test_highest_probability_wins(self):
        assert argmax_rule((0.1, 0.2, 0.4, 0.1, 0.1, 0.05, 0.05)) == 2

    def test_uniform_vector_breaks_ties_to_lowest_index(self):
        assert argmax_rule((0.25, 0.25, 0.25, 0.25)) == 0

    def test_tie_between_middle_classes(self):
        assert argmax_rule((0.1, 0.4, 0.4, 0.1)) == 1

    def test_one_hot(self):
        assert argmax_rule((0.0, 0.0, 1.0)) == 2

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            argmax_rule((1.0,))


class TestHarden:
    def test_one_hot_correct_records_give_diagonal(self):
        reg = ClassRegistry(("a", "b", "c"))
        records = [ProbRecord(i, tuple(1.0 if j == i else 0.0 for j in range(3))) for i in (0, 1, 2, 1)]
        m = score_records(records, reg)[0]
        assert m.counts == ((1, 0, 0), (0, 2, 0), (0, 0, 1))

    def test_misleading_mass_lands_off_diagonal(self):
        # true class 2 but the rule picks class 6
        reg = ClassRegistry(tuple("abcdefg"))
        probs = [0.05, 0.05, 0.4, 0.0, 0.0, 0.0, 0.5]
        m = score_records([ProbRecord(2, tuple(probs))], reg)[0]
        assert m.counts[2][6] == 1
        assert m.grand_total == 1

    def test_total_matches_record_count(self):
        rng = random.Random(41)
        reg = ClassRegistry(("a", "b", "c"))
        records = []
        for _ in range(50):
            raw = [rng.random() for _ in range(3)]
            total = sum(raw)
            records.append(ProbRecord(rng.randrange(3), tuple(x / total for x in raw)))
        assert score_records(records, reg)[0].grand_total == 50

    def test_hardened_accuracy_counts_argmax_hits(self):
        rng = random.Random(43)
        reg = ClassRegistry(("a", "b", "c"))
        records = []
        for _ in range(80):
            raw = [rng.random() for _ in range(3)]
            total = sum(raw)
            records.append(ProbRecord(rng.randrange(3), tuple(x / total for x in raw)))
        hits = sum(1 for r in records if argmax_rule(r.probs) == r.true_class)
        m = score_records(records, reg)[0]
        from fractions import Fraction

        assert accuracy(m).unwrap() == Fraction(hits, 80)

    def test_registry_width_mismatch(self):
        reg = ClassRegistry(("a", "b", "c"))
        with pytest.raises(MixedDimensionsError):
            score_records([ProbRecord(0, (0.5, 0.5))], reg)


class TestScoreRecords:
    def test_matrix_and_cross_entropy_from_one_stream(self):
        reg = ClassRegistry(("a", "b"))
        records = [ProbRecord(0, (0.7, 0.3)), ProbRecord(1, (0.6, 0.4)), ProbRecord(1, (0.2, 0.8))]
        matrix, xent = score_records(iter(records), reg)
        assert matrix.counts == ((1, 0), (1, 1))
        assert xent == math.fsum(map(xent_unit, records)) / 3

    def test_empty_stream_has_no_cross_entropy(self):
        with pytest.raises(EmptyDatasetError):
            score_records(iter([]), ClassRegistry(("a", "b")))

    def test_registry_width_mismatch(self):
        with pytest.raises(MixedDimensionsError):
            score_records([ProbRecord(0, (0.5, 0.5))], ClassRegistry(("a", "b", "c")))

    def test_single_class_records_have_no_registry_to_score_against(self):
        """A registry needs 2 classes, so K=1 records meet a wider one and are refused, as the CLI refuses K=1."""
        with pytest.raises(ValueError, match="at least 2 classes"):
            ClassRegistry(("a",))
        with pytest.raises(MixedDimensionsError):
            score_records([ProbRecord(0, (1.0,))], AB)
