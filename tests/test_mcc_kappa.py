"""Tests for the correlation-style agreement scores and their degenerate conventions."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from clfmetrics import (
    ConfusionMatrix,
    OneVsRest,
    UndefinedReason,
    accuracy,
    kappa_binary,
    kappa_multiclass,
    mcc_binary,
    mcc_multiclass,
    per_class,
)
from conftest import all_2x2_grids, random_matrix


def kappa_oracle(tp: int, fp: int, fn: int, tn: int) -> float:
    """Independent float implementation of observed vs expected agreement."""
    n = tp + fp + fn + tn
    po = (tp + tn) / n
    p_pos = ((tp + fn) / n) * ((tp + fp) / n)
    p_neg = ((tn + fp) / n) * ((tn + fn) / n)
    pe = p_pos + p_neg
    return (po - pe) / (1 - pe)


class TestMccBinary:
    def test_one_column_prediction_scores_zero(self):
        # every unit predicted as the first class, actual split 80/20
        m = ConfusionMatrix.from_grid(("a", "b"), ((80, 0), (20, 0)))
        o = m.one_vs_rest(0)
        assert accuracy(m).unwrap() == Fraction(4, 5)
        assert per_class(m).recall[0].unwrap() == 1
        assert mcc_binary(o).unwrap() == 0

    def test_perfect_diagonal(self):
        assert mcc_binary(OneVsRest(tp=7, fp=0, fn=0, tn=3)).unwrap() == 1

    def test_systematically_swapped_labels(self):
        assert mcc_binary(OneVsRest(tp=0, fp=4, fn=6, tn=0)).unwrap() == -1

    def test_known_float_value(self, binary_matrix):
        o = binary_matrix.one_vs_rest(0)
        expected = (20 * 17 - 10 * 5) / math.sqrt(25 * 30 * 22 * 27)
        assert mcc_binary(o).unwrap() == expected

    def test_empty_tiling_undefined(self):
        v = mcc_binary(OneVsRest(0, 0, 0, 0))
        assert v.reason is UndefinedReason.EMPTY_DENOMINATOR


class TestMccMulticlass:
    def test_perfect_diagonal(self):
        m = ConfusionMatrix.from_grid(("a", "b", "c"), ((2, 0, 0), (0, 5, 0), (0, 0, 3)))
        assert mcc_multiclass(m).unwrap() == 1

    def test_single_predicted_column_scores_zero(self):
        m = ConfusionMatrix.from_grid(("a", "b", "c"), ((4, 0, 0), (3, 0, 0), (2, 0, 0)))
        assert mcc_multiclass(m).unwrap() == 0

    def test_zero_matrix_undefined(self, zero_matrix):
        assert mcc_multiclass(zero_matrix).reason is UndefinedReason.EMPTY_DENOMINATOR

    def test_matches_binary_form_on_2x2(self):
        for m in all_2x2_grids(4):
            binary = mcc_binary(m.one_vs_rest(0))
            multi = mcc_multiclass(m)
            assert binary == multi, m.counts

    def test_value_in_range_on_random_matrices(self):
        rng = random.Random(17)
        for _ in range(100):
            v = mcc_multiclass(random_matrix(rng, rng.randint(2, 5)))
            assert -1 <= v.unwrap() <= 1


class TestKappaBinary:
    def test_worked_agreement_example(self):
        o = OneVsRest(tp=45, fp=15, fn=25, tn=15)
        p_positive = Fraction(45 + 25, 100) * Fraction(45 + 15, 100)
        assert p_positive == Fraction(21, 50)  # 0.42
        v = kappa_binary(o)
        assert v.unwrap() == Fraction(3, 23)
        assert abs(v.as_float() - kappa_oracle(45, 15, 25, 15)) < 1e-12

    def test_perfect_agreement(self):
        assert kappa_binary(OneVsRest(tp=6, fp=0, fn=0, tn=4)).unwrap() == 1

    def test_point_mass_marginals_degenerate_to_one(self):
        # all units on one diagonal cell: both marginals concentrate, Pe = 1
        assert kappa_binary(OneVsRest(tp=5, fp=0, fn=0, tn=0)).unwrap() == 1

    def test_empty_tiling_undefined(self):
        assert not kappa_binary(OneVsRest(0, 0, 0, 0)).is_defined


class TestKappaMulticlass:
    def test_matches_binary_form_on_2x2(self):
        for m in all_2x2_grids(4):
            assert kappa_binary(m.one_vs_rest(0)) == kappa_multiclass(m), m.counts

    def test_perfect_diagonal(self):
        m = ConfusionMatrix.from_grid(("a", "b", "c"), ((2, 0, 0), (0, 5, 0), (0, 0, 3)))
        assert kappa_multiclass(m).unwrap() == 1

    def test_degenerate_denominator_with_perfect_agreement(self):
        m = ConfusionMatrix.from_grid(("a", "b"), ((5, 0), (0, 0)))
        assert kappa_multiclass(m).unwrap() == 1

    def test_value_is_exact_rational(self, four_class_matrix):
        assert kappa_multiclass(four_class_matrix).unwrap() == Fraction(19, 31)

    def test_value_in_range_on_random_matrices(self):
        rng = random.Random(19)
        for _ in range(100):
            v = kappa_multiclass(random_matrix(rng, rng.randint(2, 5)))
            assert -1 <= v.unwrap() <= 1


class TestSharedStructure:
    def test_numerator_sign_agreement(self):
        rng = random.Random(23)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(2, 4))
            c, s = m.trace, m.grand_total
            numerator = c * s - sum(p * t for p, t in zip(m.col_totals, m.row_totals))
            mcc = mcc_multiclass(m)
            kappa = kappa_multiclass(m)
            if not (mcc.is_defined and kappa.is_defined) or numerator == 0:
                continue
            assert (mcc.unwrap() > 0) == (numerator > 0)
            assert (kappa.unwrap() > 0) == (numerator > 0)

    def test_kappa_magnitude_never_exceeds_mcc(self):
        rng = random.Random(29)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(2, 4))
            mcc = mcc_multiclass(m)
            kappa = kappa_multiclass(m)
            c, s = m.trace, m.grand_total
            numerator = c * s - sum(p * t for p, t in zip(m.col_totals, m.row_totals))
            if not (mcc.is_defined and kappa.is_defined) or numerator == 0:
                continue
            r1 = s * s - sum(p * p for p in m.col_totals)
            r2 = s * s - sum(t * t for t in m.row_totals)
            if r1 == 0 or r2 == 0:
                continue
            assert abs(float(kappa.unwrap())) <= abs(float(mcc.unwrap())) + 1e-12

    def test_scale_invariance(self):
        rng = random.Random(31)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(2, 4))
            scaled = m.scaled(3)
            assert kappa_multiclass(m) == kappa_multiclass(scaled)
            a, b = mcc_multiclass(m).unwrap(), mcc_multiclass(scaled).unwrap()
            assert math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-15)


def root_ratio_decimal(numerator: int, radicand: int, digits: int = 80) -> float:
    """Reference numerator / sqrt(radicand) in decimal arithmetic, 80 digits by default."""
    with localcontext() as ctx:
        ctx.prec = digits
        return float(Decimal(numerator) / Decimal(radicand).sqrt())


def test_binary_mcc_is_correctly_rounded_near_float_overflow():
    """A radicand of ~9.9e307: the last bit is that of the exact value, not of a float root and division."""
    o = OneVsRest(tp=6 * 10**76 + 1, fp=4 * 10**76, fn=5 * 10**76, tn=5 * 10**76 + 3)
    radicand = (o.tp + o.fn) * (o.tp + o.fp) * (o.tn + o.fn) * (o.tn + o.fp)
    expected = root_ratio_decimal(o.tp * o.tn - o.fp * o.fn, radicand, digits=400)
    assert expected == 0.10050378152592121
    assert mcc_binary(o).unwrap() == expected


class TestCountsBeyondFloatRange:
    """Radicands past ~1.8e308, which math.sqrt cannot take."""

    E = 10**200
    TILES = (
        OneVsRest(tp=E, fp=3, fn=7, tn=5 * E // 10),
        OneVsRest(tp=3, fp=E, fn=5 * E // 10, tn=7),  # negative correlation
        OneVsRest(tp=3 * E, fp=E, fn=2 * E, tn=5 * E + 1),
        OneVsRest(tp=E, fp=E, fn=E, tn=E + 1),  # MCC 2.5e-201: squaring the ratio underflows to 0
    )

    def test_binary_matches_decimal_reference(self):
        for o in self.TILES:
            factors = (o.tp + o.fn, o.tp + o.fp, o.tn + o.fn, o.tn + o.fp)
            expected = root_ratio_decimal(o.tp * o.tn - o.fp * o.fn, math.prod(factors))
            assert math.isclose(mcc_binary(o).as_float(), expected, rel_tol=1e-15), o

    def test_multiclass_matches_decimal_reference(self):
        rng = random.Random(308)
        for _ in range(50):
            k = rng.randint(2, 5)
            grid = tuple(tuple(rng.randint(0, 10**rng.randint(0, 250)) for _ in range(k)) for _ in range(k))
            m = ConfusionMatrix.from_grid(tuple("abcde"[:k]), grid)
            c, s = m.trace, m.grand_total
            sum_pt = sum(p * t for p, t in zip(m.col_totals, m.row_totals))
            r1 = s * s - sum(p * p for p in m.col_totals)
            r2 = s * s - sum(t * t for t in m.row_totals)
            got = mcc_multiclass(m).as_float()
            if r1 == 0 or r2 == 0:
                assert got == 0
                continue
            assert math.isclose(got, root_ratio_decimal(c * s - sum_pt, r1 * r2), rel_tol=1e-15), grid
