"""Acceptance suite: one test per contract criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Expected values are frozen from independent arithmetic (exact fractions
computed by hand, a separately coded agreement oracle, brute-force searches);
none of them are produced by the code paths they check.
"""

import math
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from clfmetrics import (
    ClassWeights,
    ConfusionMatrix,
    OneVsRest,
    accuracy,
    balanced_accuracy,
    balanced_accuracy_weighted,
    evaluate,
    harmonic_f1,
    kappa_binary,
    kappa_multiclass,
    mcc_binary,
    mcc_multiclass,
    micro_f1,
    per_class,
    render_text,
    score_probs,
    score_records,
    xent_unit,
)
from conftest import FOUR_CLASS_GRID, all_2x2_grids, random_matrix


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {number:02d}: {title}")
        raise
    print(f"PASS {number:02d}: {title}")


def test_01_four_class_reference_values(four_class_matrix):
    with criterion(1, "four-class reference matrix: exact accuracy and balanced accuracy"):
        acc = accuracy(four_class_matrix)
        assert acc.unwrap() == Fraction(37, 52)
        assert abs(acc.as_float() - 0.711538) < 1e-6
        assert abs(acc.as_float() - 37 / 52) < 1e-9

        # independent high-precision oracle, straight from the recall ratios
        oracle = (Fraction(6, 9) + Fraction(9, 14) + Fraction(10, 13) + Fraction(12, 16)) / 4
        ba = balanced_accuracy(four_class_matrix)
        assert ba.unwrap() == oracle
        assert abs(ba.as_float() - float(oracle)) < 1e-9

        # the exact value survives into the serialized rational field
        from clfmetrics import render_json

        assert '"rational": "37/52"' in render_json(evaluate(four_class_matrix, dataset="r"))


def test_02_binary_worked_example(binary_matrix):
    with criterion(2, "binary worked example: precision 20/30, recall 20/25, F1 = 8/11"):
        pc = per_class(binary_matrix)
        assert pc.precision[0].unwrap() == Fraction(20, 30)
        assert pc.recall[0].unwrap() == Fraction(20, 25)
        f1 = pc.f1[0]
        assert f1.unwrap() == Fraction(8, 11)
        assert abs(f1.as_float() - 0.727273) < 1e-6
        assert abs(f1.as_float() - 0.72) < 0.01


def test_03_harmonic_mean_pairs():
    with criterion(3, "harmonic mean: (0.8, 0.8) gives 0.8 and (0.6, 1.0) gives 0.75, exactly"):
        assert harmonic_f1(Fraction(4, 5), Fraction(4, 5)).unwrap() == Fraction(4, 5)
        assert harmonic_f1(Fraction(3, 5), Fraction(1)).unwrap() == Fraction(3, 4)


def test_04_micro_f1_is_accuracy_everywhere():
    with criterion(4, "micro F1 equals accuracy: 2401 exhaustive 2x2 plus 1000 random matrices"):
        cases = 0
        for m in all_2x2_grids(6):
            cases += 1
            left, right = micro_f1(m), accuracy(m)
            assert left.is_defined == right.is_defined
            if left.is_defined:
                assert left.unwrap() == right.unwrap()
        assert cases == 2401
        rng = random.Random(104)
        for _ in range(1000):
            m = random_matrix(rng, rng.randint(3, 6))
            assert micro_f1(m).unwrap() == accuracy(m).unwrap()


def test_05_frequency_weighted_identity():
    with criterion(5, "frequency-weighted recall mean equals accuracy on 1000 random matrices"):
        rng = random.Random(105)
        for _ in range(1000):
            m = random_matrix(rng, rng.randint(2, 6))
            weighted = balanced_accuracy_weighted(m, ClassWeights.from_actual_frequencies(m))
            assert weighted.unwrap() == accuracy(m).unwrap()
            assert abs(weighted.as_float() - accuracy(m).as_float()) < 1e-12


def test_06_low_recall_row_prints_at_four_decimals():
    with criterion(6, "a 5-of-62 recall row is exactly 5/62 and prints as 0.0806"):
        m = ConfusionMatrix.from_grid(
            ("a", "b", "c", "d"),
            ((5, 30, 20, 7), (2, 40, 5, 3), (1, 2, 60, 2), (0, 1, 2, 30)),
        )
        recall = per_class(m).recall[0]
        assert recall.unwrap() == Fraction(5, 62)
        assert f"{recall.as_float():.4f}" == "0.0806"
        text = render_text(evaluate(m, dataset="skewed"))
        class_row = next(line for line in text.splitlines() if line.startswith("a "))
        assert "0.0806" in class_row


def test_07_single_column_prediction_zeroes_the_correlation():
    with criterion(7, "all-one-column prediction: accuracy 0.80 and recall 1.0 but correlation 0"):
        m = ConfusionMatrix.from_grid(("a", "b"), ((80, 0), (20, 0)))
        assert accuracy(m).unwrap() == Fraction(4, 5)
        assert per_class(m).recall[0].unwrap() == 1
        assert mcc_binary(m.one_vs_rest(0)).unwrap() == 0
        assert mcc_multiclass(m).unwrap() == 0


def kappa_float_oracle(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float]:
    """Hand-coded observed/expected agreement, independent of the library."""
    n = tp + fp + fn + tn
    po = (tp + tn) / n
    pe = ((tp + fn) / n) * ((tp + fp) / n) + ((tn + fp) / n) * ((tn + fn) / n)
    return pe, (po - pe) / (1 - pe)


def test_08_agreement_worked_example():
    with criterion(8, "agreement example (45,15,25,15): P_positive 0.42, Pe 0.54, kappa 0.130435"):
        o = OneVsRest(tp=45, fp=15, fn=25, tn=15)
        p_positive = Fraction(45 + 25, 100) * Fraction(45 + 15, 100)
        assert p_positive == Fraction(42, 100)
        pe, kappa_expected = kappa_float_oracle(45, 15, 25, 15)
        assert abs(pe - 0.54) < 1e-12
        v = kappa_binary(o)
        assert abs(v.as_float() - kappa_expected) < 1e-9
        assert abs(v.as_float() - 0.130435) < 1e-6
        assert v.unwrap() == Fraction(3, 23)


def test_09_correlation_and_agreement_structure():
    with criterion(9, "correlation/agreement structure: 2x2 forms agree, shared numerator, |kappa| <= |mcc|"):
        def check(m):
            c, s = m.trace, m.grand_total
            numerator = c * s - sum(p * t for p, t in zip(m.col_totals, m.row_totals))
            mcc = mcc_multiclass(m)
            kappa = kappa_multiclass(m)
            if m.k == 2:
                o = m.one_vs_rest(0)
                assert mcc_binary(o) == mcc
                assert kappa_binary(o) == kappa
            if not (mcc.is_defined and kappa.is_defined):
                return
            # both scores must reconstruct the same integer numerator from their denominators
            sum_pt = sum(p * t for p, t in zip(m.col_totals, m.row_totals))
            kappa_denominator = s * s - sum_pt
            if kappa_denominator != 0:
                assert kappa.unwrap() * kappa_denominator == numerator
            r1 = s * s - sum(p * p for p in m.col_totals)
            r2 = s * s - sum(t * t for t in m.row_totals)
            if r1 > 0 and r2 > 0:
                radicand = r1 * r2
                root = math.isqrt(radicand)
                if root * root == radicand:
                    assert mcc.unwrap() * root == numerator
                else:
                    rebuilt = float(mcc.unwrap()) * math.sqrt(radicand)
                    assert abs(rebuilt - numerator) <= 1e-9 * max(1.0, abs(numerator))
            if numerator == 0:
                return
            assert (float(mcc.unwrap()) > 0) == (numerator > 0)
            assert (float(kappa.unwrap()) > 0) == (numerator > 0)
            assert abs(float(kappa.unwrap())) <= abs(float(mcc.unwrap())) + 1e-12

        for m in all_2x2_grids(6):
            check(m)
        rng = random.Random(109)
        for _ in range(1000):
            check(random_matrix(rng, rng.randint(3, 6)))


def test_10_cross_entropy_suite(tmp_path):
    with criterion(10, "cross-entropy: zero at certainty, -ln 0.4 value, true-column dependence, order-free"):
        from clfmetrics import ClassRegistry, ProbRecord

        one_hot = [
            ProbRecord(i % 3, tuple(1.0 if j == i % 3 else 0.0 for j in range(3)))
            for i in range(12)
        ]
        assert score_records(one_hot, ClassRegistry(("a", "b", "c")))[1] == 0.0

        r = ProbRecord(2, (0.35, 0.25, 0.4))
        assert abs(xent_unit(r) - 0.916290731874155) < 1e-12  # ln 2 - ln 5, frozen

        # two files that agree on every true-class probability, differ elsewhere
        file_a = tmp_path / "a.csv"
        file_b = tmp_path / "b.csv"
        rows_a = ["a,0.5,0.2,0.3\n", "b,0.3,0.4,0.3\n", "c,0.1,0.3,0.6\n"]
        file_a.write_text("actual,a,b,c\n" + "".join(rows_a), encoding="utf-8")
        file_b.write_text(
            "actual,a,b,c\na,0.5,0.4,0.1\nb,0.6,0.4,0.0\nc,0.2,0.2,0.6\n",
            encoding="utf-8",
        )
        xent_a = score_probs(str(file_a))[1]
        assert xent_a == score_probs(str(file_b))[1]

        rng = random.Random(110)
        shuffled = rows_a[:]
        file_s = tmp_path / "shuffled.csv"
        for _ in range(10):
            rng.shuffle(shuffled)
            file_s.write_text("actual,a,b,c\n" + "".join(shuffled), encoding="utf-8")
            assert abs(score_probs(str(file_s))[1] - xent_a) < 1e-12


def test_11_shuffled_predictions_average_to_chance():
    with criterion(11, "kappa of shuffled predictions averages to 0 within 0.02 over 10000 trials"):
        rng = random.Random(111)
        actual = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        predicted = ["a"] * 25 + ["b"] * 15 + ["c"] * 20
        labels = ("a", "b", "c")
        index = {lab: i for i, lab in enumerate(labels)}
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            rng.shuffle(predicted)
            grid = [[0] * 3 for _ in range(3)]
            for act, pred in zip(actual, predicted):
                grid[index[act]][index[pred]] += 1
            m = ConfusionMatrix.from_grid(labels, tuple(tuple(row) for row in grid))
            total += float(kappa_multiclass(m).unwrap())
        assert abs(total / trials) < 0.02


def test_12_cli_json_output_is_byte_identical(tmp_path):
    with criterion(12, "CLI JSON evaluation is byte-identical across runs and carries 37/52"):
        matrix_file = tmp_path / "fourclass.csv"
        matrix_file.write_text(
            ",a,b,c,d\na,6,1,1,1\nb,2,9,2,1\nc,1,1,10,1\nd,2,1,1,12\n",
            encoding="utf-8",
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        command = [
            sys.executable,
            "-m",
            "clfmetrics",
            "evaluate",
            "--kind",
            "matrix",
            "--format",
            "json",
            str(matrix_file),
        ]
        first = subprocess.run(command, capture_output=True, env=env)
        second = subprocess.run(command, capture_output=True, env=env)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert b'"37/52"' in first.stdout


def test_four_class_report_consistency(four_class_matrix):
    # cross-check: the aggregate report agrees with each individual metric
    report = evaluate(four_class_matrix, dataset="reference")
    assert report.metric("accuracy").unwrap() == Fraction(37, 52)
    assert report.metric("micro_f1").unwrap() == Fraction(37, 52)
    assert report.metric("balanced_accuracy") == balanced_accuracy(four_class_matrix)
    assert report.metric("mcc") == mcc_multiclass(four_class_matrix)
    assert report.metric("kappa") == kappa_multiclass(four_class_matrix)
    assert ConfusionMatrix.from_grid(("a", "b", "c", "d"), FOUR_CLASS_GRID) == four_class_matrix
