"""Golden tests: the full text of every table the text renderers print.

Each expected string is the complete report, so a change to column widths,
padding, the compare marker or the colour escape shows up as a failure
here, not only a missing substring.
"""

from fractions import Fraction

from clfmetrics import (
    ClassRegistry,
    ClassWeights,
    ConfusionMatrix,
    ProbRecord,
    XentOptions,
    compare_reports,
    evaluate,
    render_comparison_text,
    render_text,
    score_records,
)

FOUR_CLASS_GRID = ((6, 1, 1, 1), (2, 9, 2, 1), (1, 1, 10, 1), (2, 1, 1, 12))
VERSION = "golden"

STRICT = """\
clfmetrics golden
dataset: demo
classes (4): a, b, c, d
units: 52
options: mode=strict weights=frequency epsilon=1e-15 reduce=mean

metric                      value   exact
accuracy                    0.7115  37/52
misclassification_rate      0.2885  15/52
balanced_accuracy           0.7072  3089/4368
balanced_accuracy_weighted  0.7115  37/52
macro_precision             0.7024  4327/6160
macro_recall                0.7072  3089/4368
macro_f1                    0.7048  13366103/18964288
micro_f1                    0.7115  37/52
mcc                         0.6144
kappa                       0.6129  19/31

class  precision  recall  f1
a      0.5455     0.6667  0.6000
b      0.7500     0.6429  0.6923
c      0.7143     0.7692  0.7407
d      0.8000     0.7500  0.7742
"""

LENIENT = """\
clfmetrics golden
dataset: skewed
classes (3): a, b, long-class
units: 5
options: mode=lenient weights=frequency epsilon=1e-15 reduce=mean

metric                      value   exact
accuracy                    0.6000  3/5
misclassification_rate      0.4000  2/5
balanced_accuracy           0.5000  1/2
balanced_accuracy_weighted  0.6000  3/5
macro_precision             0.6000  3/5
macro_recall                0.5000  1/2
macro_f1                    0.5455  6/11
micro_f1                    0.6000  3/5
mcc                         0.0000  0
kappa                       0.0000  0

class       precision                 recall                    f1
a           0.6000                    1.0000                    0.7500
b           undef(empty_denominator)  0.0000                    undef(empty_denominator)
long-class  undef(empty_denominator)  undef(empty_denominator)  undef(empty_denominator)

lenient averaging skipped undefined classes: balanced_accuracy=1 balanced_accuracy_weighted=0 macro_precision=2 macro_recall=1
"""

PROBS = """\
clfmetrics golden
dataset: p.csv
classes (3): a, b, c
units: 4
options: mode=strict weights=file:w.csv epsilon=1e-15 reduce=mean

metric                      value                     exact
accuracy                    0.7500                    3/4
misclassification_rate      0.2500                    1/4
balanced_accuracy           0.6667                    2/3
balanced_accuracy_weighted  0.3333                    1/3
macro_precision             undef(empty_denominator)
macro_recall                0.6667                    2/3
macro_f1                    undef(empty_denominator)
micro_f1                    0.7500                    3/4
mcc                         0.6708
kappa                       0.6000                    3/5
cross_entropy               0.6192

class  precision                 recall  f1
a      0.5000                    1.0000  0.6667
b      1.0000                    1.0000  1.0000
c      undef(empty_denominator)  0.0000  undef(empty_denominator)
"""

FLAGGED = """\
clfmetrics golden
compare: A=A  B=B
class registries match: yes

metric                      A       B       delta
accuracy                    0.8000  0.8000  +0.0000
misclassification_rate      0.2000  0.2000  +0.0000
balanced_accuracy           0.7619  0.7143  -0.0476
balanced_accuracy_weighted  0.8000  0.8000  +0.0000
macro_precision             0.7619  0.7812  +0.0193
macro_recall                0.7619  0.7143  -0.0476
macro_f1                    0.7619  0.7463  -0.0156
micro_f1                    0.8000  0.8000  +0.0000
mcc                         0.5238  0.4910  -0.0328
\x1b[33mkappa                       0.5238  0.4737  -0.0501  << differs at equal accuracy\x1b[0m

per-class deltas (B - A):
class  precision  recall   f1
x      -0.0446    +0.0714  +0.0095
y      +0.0833    -0.1667  -0.0667

notes:
  - equal accuracy but different kappa: the two models distribute their errors differently across classes; side A agrees more beyond chance.
"""

MISMATCH = """\
clfmetrics golden
compare: A=A  B=C
class registries match: no

metric                      A       B       delta
accuracy                    0.8000  0.7500  -0.0500
misclassification_rate      0.2000  0.2500  +0.0500
balanced_accuracy           0.7619  0.7778  +0.0159
balanced_accuracy_weighted  0.8000  0.7500  -0.0500
macro_precision             0.7619  0.7778  +0.0159
macro_recall                0.7619  0.7778  +0.0159
macro_f1                    0.7619  0.7778  +0.0159
micro_f1                    0.8000  0.7500  -0.0500
mcc                         0.5238  0.6429  +0.1190
kappa                       0.5238  0.6279  +0.1041

notes:
  - class registries differ; per-class deltas are suppressed. kappa subtracts the agreement expected from the marginals alone, so it remains comparable across different datasets.
"""

UNDEFINED_DELTAS = """\
clfmetrics golden
compare: A=A  B=B
class registries match: yes

metric                      A       B                         delta
accuracy                    0.7115  0.7209                    +0.0094
misclassification_rate      0.2885  0.2791                    -0.0094
balanced_accuracy           0.7072  undef(empty_denominator)  undef(operand_undefined)
balanced_accuracy_weighted  0.7115  0.7209                    +0.0094
macro_precision             0.7024  0.6111                    -0.0913
macro_recall                0.7072  undef(empty_denominator)  undef(operand_undefined)
macro_f1                    0.7048  undef(empty_denominator)  undef(operand_undefined)
micro_f1                    0.7115  0.7209                    +0.0094
mcc                         0.6144  0.6132                    -0.0012
kappa                       0.6129  0.6037                    -0.0092

per-class deltas (B - A):
class  precision  recall                    f1
a      -0.5455    undef(operand_undefined)  undef(operand_undefined)
b      +0.0682    +0.0000                   +0.0277
c      +0.0549    +0.0000                   +0.0285
d      +0.0571    +0.0000                   +0.0258
"""


def _report(labels, grid, dataset, **kwargs):
    m = ConfusionMatrix.from_grid(labels, grid)
    return evaluate(m, dataset=dataset, tool_version=VERSION, **kwargs)


def _kappa_pair():
    a = _report(("x", "y"), ((60, 10), (10, 20)), "A")
    b = _report(("x", "y"), ((65, 5), (15, 15)), "B")
    return a, b


def test_strict_report():
    assert render_text(_report(("a", "b", "c", "d"), FOUR_CLASS_GRID, "demo")) == STRICT


def test_lenient_report_with_skipped_line():
    grid = ((3, 0, 0), (2, 0, 0), (0, 0, 0))
    report = _report(("a", "b", "long-class"), grid, "skewed", lenient=True)
    assert render_text(report) == LENIENT


def test_probability_report_with_custom_weights_and_cross_entropy():
    registry = ClassRegistry(("a", "b", "c"))
    records = [
        ProbRecord(0, (0.7, 0.2, 0.1)),
        ProbRecord(1, (0.3, 0.4, 0.3)),
        ProbRecord(2, (0.5, 0.2, 0.3)),
        ProbRecord(1, (0.0, 1.0, 0.0)),
    ]
    m, xent = score_records(records, registry, XentOptions())
    weights = ClassWeights((Fraction(1), Fraction(0), Fraction(2)))
    report = evaluate(
        m, weights, dataset="p.csv", weights_source="file:w.csv",
        cross_entropy=xent, tool_version=VERSION,
    )
    assert render_text(report) == PROBS


def test_flagged_comparison_in_colour():
    a, b = _kappa_pair()
    assert render_comparison_text(compare_reports(a, b), color=True) == FLAGGED


def test_flagged_comparison_without_colour_has_no_escapes():
    a, b = _kappa_pair()
    plain = FLAGGED.replace("\x1b[33m", "").replace("\x1b[0m", "")
    assert render_comparison_text(compare_reports(a, b)) == plain


def test_comparison_across_registries():
    a, _ = _kappa_pair()
    c = _report(("p", "q", "r"), ((2, 0, 0), (0, 2, 1), (1, 0, 2)), "C")
    assert render_comparison_text(compare_reports(a, c)) == MISMATCH


def test_comparison_with_undefined_deltas():
    labels = ("a", "b", "c", "d")
    a = _report(labels, FOUR_CLASS_GRID, "A")
    b = _report(labels, ((0, 0, 0, 0),) + FOUR_CLASS_GRID[1:], "B")
    assert render_comparison_text(compare_reports(a, b)) == UNDEFINED_DELTAS
