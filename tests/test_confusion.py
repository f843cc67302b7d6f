"""Tests for confusion-matrix construction, marginals, tiling and merging."""

import random
from collections import Counter

import pytest

from clfmetrics import (
    ClassOutOfRangeError,
    ClassRegistry,
    ConfusionMatrix,
    EmptyInputError,
    RegistryMismatchError,
    UnknownLabelError,
    from_pairs,
)
from clfmetrics.confusion import from_tally
from conftest import FOUR_CLASS_GRID, random_matrix


class TestClassRegistry:
    def test_index_is_a_bijection(self):
        reg = ClassRegistry(("a", "b", "c"))
        assert [reg.index(lab) for lab in reg.labels] == [0, 1, 2]
        assert reg.k == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ClassRegistry(("a", "a"))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ClassRegistry(("a",))

    def test_unknown_label(self):
        reg = ClassRegistry(("a", "b"))
        with pytest.raises(UnknownLabelError):
            reg.index("z")
        assert "a" in reg and "z" not in reg


class TestFromPairs:
    def test_direct_tally(self):
        m = from_pairs([("a", "a"), ("a", "b"), ("b", "b")])
        assert m.counts == ((1, 1), (0, 1))
        assert m.grand_total == 3

    def test_empty_with_registry_gives_zero_matrix(self):
        reg = ClassRegistry(("a", "b"))
        m = from_pairs([], registry=reg)
        assert m.counts == ((0, 0), (0, 0))
        assert m.grand_total == 0

    def test_empty_without_registry_raises(self):
        with pytest.raises(EmptyInputError):
            from_pairs([])

    def test_label_outside_registry_raises(self):
        reg = ClassRegistry(("a", "b"))
        with pytest.raises(UnknownLabelError):
            from_pairs([("a", "z")], registry=reg)

    def test_inferred_registry_is_sorted(self):
        m = from_pairs([("b", "c"), ("a", "b"), ("c", "a")])
        assert m.registry.labels == ("a", "b", "c")

    def test_single_distinct_label_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            from_pairs([("a", "a"), ("a", "a")])

    def test_registry_classes_absent_from_data_are_kept(self):
        reg = ClassRegistry(("a", "b", "c"))
        m = from_pairs([("a", "a")], registry=reg)
        assert m.k == 3
        assert m.row_totals == (1, 0, 0)
        assert m.col_totals == (1, 0, 0)

    def test_fifty_two_pairs_reproduce_marginals(self):
        labels = ("a", "b", "c", "d")
        pairs = []
        for i, row in enumerate(FOUR_CLASS_GRID):
            for j, count in enumerate(row):
                pairs.extend([(labels[i], labels[j])] * count)
        assert len(pairs) == 52
        rng = random.Random(7)
        rng.shuffle(pairs)
        m = from_pairs(pairs)
        assert m.counts == FOUR_CLASS_GRID
        assert tuple(m.counts[i][i] for i in range(4)) == (6, 9, 10, 12)
        assert m.row_totals == (9, 14, 13, 16)
        assert m.grand_total == 52

    def test_from_tally_lays_out_the_counts_from_pairs_would(self):
        pairs = [("b", "a"), ("a", "a"), ("b", "a"), ("c", "b")]
        assert from_tally(Counter(pairs)) == from_pairs(pairs)
        reg = ClassRegistry(("a", "b", "c", "d"))
        assert from_tally({("b", "a"): 2}, registry=reg) == from_pairs([("b", "a")] * 2, registry=reg)
        with pytest.raises(EmptyInputError):
            from_tally({})

    def test_consumes_a_lazy_stream(self):
        pairs = iter([("a", "b"), ("b", "a"), ("a", "a")])
        m = from_pairs(pairs)
        assert m.grand_total == 3

    def test_first_unknown_pair_in_input_order_is_named_after_the_stream_ends(self):
        reg = ClassRegistry(("a", "b"))
        pulled = []

        def pairs():
            for pair in [("a", "a"), ("b", "y"), ("a", "a"), ("x", "b"), ("b", "y")]:
                pulled.append(pair)
                yield pair

        with pytest.raises(UnknownLabelError, match="'y'"):
            from_pairs(pairs(), registry=reg)
        assert len(pulled) == 5
        with pytest.raises(UnknownLabelError, match="'x'"):
            from_pairs([("a", "b"), ("x", "y"), ("b", "y")], registry=reg)


class TestMatrixValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionMatrix.from_grid(("a", "b"), ((1, -1), (0, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ConfusionMatrix.from_grid(("a", "b"), ((1, 2, 3), (0, 2, 1)))

    def test_float_count_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            ConfusionMatrix.from_grid(("a", "b"), ((1.0, 2), (0, 2)))

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError, match="integers, got True"):
            ConfusionMatrix.from_grid(("a", "b"), ((1, 2), (True, 2)))

    def test_int_subclass_count_accepted(self):
        class Count(int):
            pass

        m = ConfusionMatrix.from_grid(("a", "b"), ((Count(3), 1), (0, Count(2))))
        assert m.counts == ((3, 1), (0, 2))
        assert (m.row_totals, m.col_totals, m.grand_total) == ((4, 2), (3, 3), 6)

    def test_first_bad_cell_in_row_major_order_is_named(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            ConfusionMatrix.from_grid(("a", "b"), ((1, -1), (2.5, 2)))
        with pytest.raises(ValueError, match="integers, got 2.5"):
            ConfusionMatrix.from_grid(("a", "b"), ((1, 2.5), (-1, 2)))

    def test_marginals(self, four_class_matrix):
        m = four_class_matrix
        assert m.row_totals[1] == 14
        assert m.col_totals[0] == 11
        assert sum(m.row_totals) == sum(m.col_totals) == m.grand_total == 52
        assert m.trace == 37


class TestOneVsRest:
    def test_binary_example_reference_class(self, binary_matrix):
        o = binary_matrix.one_vs_rest(0)
        assert (o.tp, o.fp, o.fn, o.tn) == (20, 10, 5, 17)

    def test_perfect_diagonal_has_no_errors(self):
        m = ConfusionMatrix.from_grid(("a", "b", "c"), ((3, 0, 0), (0, 4, 0), (0, 0, 5)))
        for k in range(3):
            o = m.one_vs_rest(k)
            assert o.fp == 0 and o.fn == 0

    def test_tiles_partition_all_units(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(2, 5))
            for k in range(m.k):
                o = m.one_vs_rest(k)
                assert o.total == m.grand_total
                assert o.tp == m.counts[k][k]
                assert o.fp == m.col_totals[k] - o.tp
                assert o.fn == m.row_totals[k] - o.tp

    def test_index_out_of_range(self, binary_matrix):
        with pytest.raises(ClassOutOfRangeError):
            binary_matrix.one_vs_rest(2)
        with pytest.raises(ClassOutOfRangeError):
            binary_matrix.one_vs_rest(-1)


class TestMerge:
    def test_zero_matrix_is_identity(self, four_class_matrix):
        zero = ConfusionMatrix.zeros(four_class_matrix.registry)
        assert four_class_matrix + zero == four_class_matrix
        assert zero + four_class_matrix == four_class_matrix

    def test_merge_matches_single_pass_tally(self):
        p1 = [("a", "a"), ("a", "b"), ("b", "b")]
        p2 = [("b", "a"), ("a", "a"), ("b", "b")]
        reg = ClassRegistry(("a", "b"))
        merged = from_pairs(p1, reg) + from_pairs(p2, reg)
        assert merged == from_pairs(p1 + p2, reg)

    def test_commutative(self):
        rng = random.Random(3)
        a = random_matrix(rng, 3)
        b = ConfusionMatrix(a.registry, random_matrix(rng, 3).counts)
        assert a + b == b + a

    def test_marginals_are_conserved(self):
        rng = random.Random(4)
        a = random_matrix(rng, 4)
        b = ConfusionMatrix(a.registry, random_matrix(rng, 4).counts)
        c = a + b
        assert c.row_totals == tuple(x + y for x, y in zip(a.row_totals, b.row_totals))
        assert c.col_totals == tuple(x + y for x, y in zip(a.col_totals, b.col_totals))
        assert c.grand_total == a.grand_total + b.grand_total

    def test_registry_mismatch(self):
        a = from_pairs([("a", "b"), ("b", "a")])
        b = from_pairs([("x", "y"), ("y", "x")])
        with pytest.raises(RegistryMismatchError):
            a + b

    @pytest.mark.parametrize("other", [1, 0, None, {(0, 0): 1}])
    def test_a_non_matrix_operand_is_a_type_error(self, four_class_matrix, other):
        with pytest.raises(TypeError, match="unsupported operand"):
            four_class_matrix + other
        with pytest.raises(TypeError, match="unsupported operand"):
            other + four_class_matrix


class TestPermutation:
    def test_relabeling_permutes_tiles_and_preserves_total(self):
        rng = random.Random(5)
        m = random_matrix(rng, 4)
        order = [2, 0, 3, 1]
        p = m.permuted(order)
        assert p.grand_total == m.grand_total
        assert p.registry.labels == tuple(m.registry.labels[i] for i in order)
        for new_k, old_k in enumerate(order):
            assert p.one_vs_rest(new_k) == m.one_vs_rest(old_k)

    def test_non_permutation_rejected(self, binary_matrix):
        with pytest.raises(ValueError):
            binary_matrix.permuted([0, 0])
