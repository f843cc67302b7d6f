"""
The metric suite, exactly
=========================

Every confusion-matrix score on one four-class example, computed in exact
rational arithmetic: 37/52 means 37/52, not 0.7115384615384616-ish.
"""

from clfmetrics import (
    ConfusionMatrix,
    accuracy,
    balanced_accuracy,
    evaluate,
    kappa_multiclass,
    macro_f1,
    mcc_multiclass,
    micro_f1,
    per_class,
    render_text,
)

# Four classes, 52 units, with one class predicted noticeably worse.
m = ConfusionMatrix.from_grid(
    ("a", "b", "c", "d"),
    (
        (6, 1, 1, 1),
        (2, 9, 2, 1),
        (1, 1, 10, 1),
        (2, 1, 1, 12),
    ),
)

# Accuracy is the diagonal share of all units; it stays a Fraction.
print("accuracy:            ", accuracy(m).unwrap())

# Balanced accuracy averages the per-class recalls instead, so each class
# counts equally no matter how many units it has.
print("balanced accuracy:   ", balanced_accuracy(m).unwrap())

# Per-class precision/recall/F1 come from the one-vs-rest tiles.
breakdown = per_class(m)
for i, label in enumerate(m.registry.labels):
    print(
        f"  class {label}: precision={breakdown.precision[i].unwrap()} "
        f"recall={breakdown.recall[i].unwrap()} f1={breakdown.f1[i].unwrap()}"
    )

# Pooling all units before dividing (micro averaging): every false positive of
# one class is a false negative of another, so pooled F1 equals accuracy.
print("micro F1 == accuracy:", micro_f1(m).unwrap() == accuracy(m).unwrap())
print("macro F1:            ", macro_f1(m).unwrap())

# The two association scores share a numerator; the correlation-style score
# divides by a geometric mean of marginals, the agreement score by the
# chance-agreement gap. Kappa stays rational, the correlation may not.
print("mcc:                 ", mcc_multiclass(m).unwrap())
print("kappa:               ", kappa_multiclass(m).unwrap())

# evaluate() bundles everything into one report; render_text shows values at
# four decimals next to their exact fractions.
print()
print(render_text(evaluate(m, dataset="four-class demo")))
