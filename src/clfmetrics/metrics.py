"""Confusion-matrix scalar metrics with explicit defined/undefined propagation.

Every metric keeps its numerator and denominator as exact integers (or exact
rationals built from them) and divides once at the end, so values like 37/52
are reproducible bit for bit. A metric whose denominator vanishes is returned
as an explicit Undefined value carrying a machine-readable reason; it is never
silently coerced to 0 or NaN. Each metric has one formula: the two-class
Matthews correlation and kappa are the K-class ones on a tiling's 2 x 2 matrix.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .confusion import ConfusionMatrix, OneVsRest, _Frozen

Numeric = Union[Fraction, float]
# The cross-entropy options live here, with the report that carries them, so that a run without probabilities
# loads no probability module.
DEFAULT_EPSILON = 1e-15
MAX_EPSILON = 1e-6


class UndefinedReason(Enum):
    EMPTY_DENOMINATOR = "empty_denominator"
    DEGENERATE_ZERO_OVER_ZERO = "degenerate_zero_over_zero"


class InvalidWeightsError(ValueError):
    """Class weights hold a negative entry or sum to zero."""


class MetricValue(_Frozen):
    """A computed scalar that is either Defined(value) or Undefined(reason).

    Defined values are exact Fractions wherever the metric is a ratio of
    integer tallies; only square-root-based metrics may fall back to float,
    and cross-entropy, a sum of logarithms, is always a float.
    """

    __slots__ = __match_args__ = ("value", "reason")

    def __init__(self, value: Numeric | None = None, reason: UndefinedReason | None = None) -> None:
        if (value is None) == (reason is None):
            raise ValueError("exactly one of value and reason must be set")
        object.__setattr__(self, "value", value)  # not _fill: evaluate makes ~3 per class, and this is faster
        object.__setattr__(self, "reason", reason)

    @classmethod
    def defined(cls, value: Numeric) -> "MetricValue":
        return cls(value=value)

    @classmethod
    def undefined(cls, reason: UndefinedReason) -> "MetricValue":
        return cls(reason=reason)

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    def unwrap(self) -> Numeric:
        if self.value is None:
            raise ValueError(f"metric is undefined ({self.reason.value})")
        return self.value

    def as_float(self) -> float:
        return float(self.unwrap())


_UNDEF_EMPTY = MetricValue.undefined(UndefinedReason.EMPTY_DENOMINATOR)
_UNDEF_ZERO_OVER_ZERO = MetricValue.undefined(UndefinedReason.DEGENERATE_ZERO_OVER_ZERO)


def _ratio(numerator: int, denominator: int) -> MetricValue:
    """The exact ratio of two tallies, Undefined when the denominator vanishes."""
    return MetricValue.defined(Fraction(numerator, denominator)) if denominator else _UNDEF_EMPTY


class ClassWeights(_Frozen):
    """Non-negative per-class weights with a positive sum.

    Entries must be ints or Fractions: a float such as 0.1 is not the decimal
    it was written as, and would leak its binary rounding into exact metrics.
    """

    __slots__ = __match_args__ = ("w",)

    def __init__(self, w: tuple[Fraction, ...]) -> None:
        w = tuple(w)
        for x in w:
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise InvalidWeightsError(f"weights must be ints or Fractions, got {x!r}")
        converted = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in w)
        if any(x < 0 for x in converted):
            raise InvalidWeightsError(f"weights must be non-negative, got {w!r}")
        if exact_sum(converted) == 0:
            raise InvalidWeightsError("weights must not all be zero")
        self._fill(converted)

    @property
    def total(self) -> Fraction:
        return exact_sum(self.w)

    @classmethod
    def uniform(cls, k: int) -> "ClassWeights":
        return cls(tuple(Fraction(1) for _ in range(k)))

    @classmethod
    def from_actual_frequencies(cls, m: ConfusionMatrix) -> "ClassWeights":
        """Weight each class by its share of the actual (row) totals."""
        s = m.grand_total
        if s == 0:
            raise InvalidWeightsError("cannot derive frequency weights from an empty matrix")
        return cls(tuple(Fraction(t, s) for t in m.row_totals))


class PerClassBreakdown(_Frozen):
    """Positionally class-aligned precision, recall and F1 vectors."""

    __slots__ = __match_args__ = ("precision", "recall", "f1")

    def __init__(
        self, precision: tuple[MetricValue, ...], recall: tuple[MetricValue, ...], f1: tuple[MetricValue, ...]
    ) -> None:
        self._fill(precision, recall, f1)


def accuracy(m: ConfusionMatrix) -> MetricValue:
    """Fraction of all units on the main diagonal, trace/total."""
    return _ratio(m.trace, m.grand_total)


def _complement(v: MetricValue) -> MetricValue:
    return MetricValue.defined(1 - v.value) if v.is_defined else v


def misclassification_rate(m: ConfusionMatrix) -> MetricValue:
    """The quantity missing from accuracy to reach 1."""
    return _complement(accuracy(m))


def harmonic_f1(precision: MetricValue | Numeric, recall: MetricValue | Numeric) -> MetricValue:
    """Harmonic mean of a precision and a recall, 2pr/(p+r).

    Undefined reasons propagate; two defined zeros are a degenerate 0/0.
    """
    if isinstance(precision, MetricValue):
        if not precision.is_defined:
            return precision
        precision = precision.unwrap()
    if isinstance(recall, MetricValue):
        if not recall.is_defined:
            return recall
        recall = recall.unwrap()
    denom = precision + recall
    if denom == 0:
        return _UNDEF_ZERO_OVER_ZERO
    return MetricValue.defined(2 * precision * recall / denom)


def per_class(m: ConfusionMatrix) -> PerClassBreakdown:
    """One-vs-rest precision, recall and F1 for every class, from its integer tallies.

    With tp the diagonal cell, col the column total and row the row total,
    precision is tp/col, recall tp/row and F1 is 2tp/(row + col), which equals
    the harmonic mean 2pr/(p + r) whenever both are defined. The undefined
    precedence is that of harmonic_f1: a never-predicted class has undefined
    precision, a class absent from the actual labels undefined recall, F1
    inherits the first of those, and a class with tp = 0 has a degenerate 0/0 F1.
    Classes with equal tallies share one value, made once: most do at large K with few units a class.
    """
    cells, rows, cols = m.cells, m.row_totals, m.col_totals
    made: dict[tuple[int, int], MetricValue] = {}  # by (numerator, denominator)

    def ratio(numerator: int, denominator: int) -> MetricValue:
        value = made.get((numerator, denominator))
        if value is None:
            value = made[numerator, denominator] = MetricValue.defined(Fraction(numerator, denominator))
        return value

    precision, recall, f1 = [], [], []
    for k in range(m.k):
        tp, row, col = cells.get((k, k), 0), rows[k], cols[k]
        precision.append(ratio(tp, col) if col else _UNDEF_EMPTY)
        recall.append(ratio(tp, row) if row else _UNDEF_EMPTY)
        if not (row and col):
            f1.append(_UNDEF_EMPTY)
        else:
            f1.append(ratio(2 * tp, row + col) if tp else _UNDEF_ZERO_OVER_ZERO)
    return PerClassBreakdown(tuple(precision), tuple(recall), tuple(f1))


def exact_sum(terms: Iterable[int | Fraction]) -> Fraction:
    """The exact sum of ints and Fractions.

    Numerators are added per denominator, then the distinct denominators'
    Fractions are added in a balanced pairwise tree, so no running sum drags
    an ever-growing denominator through every term (the cost of a left-to-right
    loop), and no common denominator of all terms is formed at once (the cost
    of math.lcm over many coprime denominators).
    """
    by_denominator: dict[int, int] = {}
    for t in terms:
        d = t.denominator
        by_denominator[d] = by_denominator.get(d, 0) + t.numerator
    parts = [Fraction(n, d) for d, n in by_denominator.items()]
    while len(parts) > 1:
        # Add neighbours pairwise; an odd last part waits for the next round.
        parts = [a + b for a, b in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1 :]
    return parts[0] if parts else Fraction(0)


def _mean_of(
    values: Sequence[MetricValue], lenient: bool, weights: ClassWeights | None = None
) -> tuple[MetricValue, int]:
    """Weighted mean sum(w_k * v_k) / sum(w_k) of per-class values, and how many were skipped.

    Weights default to 1 each, and a zero-weight class never counts. Strict
    mode refuses to average past an undefined value; lenient mode skips it
    and renormalizes the weight sum over the classes kept. Both sums are exact.
    """
    if weights is None:
        weights_k: Sequence[Numeric] = (1,) * len(values)
    elif len(weights.w) == len(values):
        weights_k = weights.w
    else:
        raise InvalidWeightsError(f"expected {len(values)} weights, got {len(weights.w)}")
    terms, kept, skipped = [], [], 0
    for w_k, v in zip(weights_k, values):
        if w_k == 0:
            continue
        if not v.is_defined:
            if not lenient:
                return v, 0
            skipped += 1
        else:
            terms.append(v.unwrap() if weights is None else w_k * v.unwrap())
            kept.append(w_k)
    if not kept:
        return _UNDEF_EMPTY, skipped
    return MetricValue.defined(exact_sum(terms) / exact_sum(kept)), skipped


def balanced_accuracy(m: ConfusionMatrix, lenient: bool = False) -> MetricValue:
    """Unweighted mean of per-class recalls: also the macro recall, which the report lists as macro_recall."""
    return _mean_of(per_class(m).recall, lenient)[0]


def balanced_accuracy_weighted(
    m: ConfusionMatrix, weights: ClassWeights, lenient: bool = False
) -> MetricValue:
    """Weighted mean of per-class recalls, sum(w_k * recall_k) / sum(w_k).

    A zero-weight class never forces the result undefined; in lenient mode
    undefined-recall classes are dropped and the weight sum is renormalized
    over the classes kept. With the actual class frequencies as weights the
    result is the accuracy, so evaluate's default reports that (see there).
    """
    return _mean_of(per_class(m).recall, lenient, weights)[0]


def macro_precision(m: ConfusionMatrix, lenient: bool = False) -> MetricValue:
    """Unweighted mean of per-class precisions."""
    return _mean_of(per_class(m).precision, lenient)[0]


def macro_f1(m: ConfusionMatrix, lenient: bool = False) -> MetricValue:
    """Harmonic mean of macro precision and macro recall (balanced_accuracy)."""
    breakdown = per_class(m)
    return harmonic_f1(_mean_of(breakdown.precision, lenient)[0], _mean_of(breakdown.recall, lenient)[0])


def micro_f1(m: ConfusionMatrix) -> MetricValue:
    """Pooled F1 over all units, which is the accuracy.

    Pooled, every false positive of one class is a false negative of another,
    so micro precision, micro recall and micro F1 all equal trace/total.
    """
    return accuracy(m)


def _root_ratio(numerator: int, radicand: int) -> Numeric:
    """numerator / sqrt(radicand) with one division at the end.

    Returns an exact Fraction when the radicand is a perfect square (perfect
    predictions, fully swapped labels, symmetric marginals), a float otherwise.
    """
    root = math.isqrt(radicand)
    if root * root == radicand:
        return Fraction(numerator, root)
    try:
        return numerator / math.sqrt(radicand)
    except OverflowError:
        # The radicand is past float range. int / int rounds once and cannot
        # overflow, since |MCC| <= 1 means |numerator| <= root; and root, above
        # 10**154 here, is within 1 part in 10**154 of the true square root.
        return numerator / root


def _mcc(c: int, s: int, p: Sequence[int], t: Sequence[int]) -> MetricValue:
    """Matthews correlation from the trace c, total s, column totals p and row totals t.

    (c*s - sum p_k t_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2)), in exact integers until the
    final division. A zero radicand factor means a point-mass marginal: 0 by convention.
    """
    if s == 0:
        return _UNDEF_EMPTY
    r1 = s * s - sum(pk * pk for pk in p)
    r2 = s * s - sum(tk * tk for tk in t)
    if r1 == 0 or r2 == 0:
        return MetricValue.defined(Fraction(0))
    return MetricValue.defined(_root_ratio(c * s - sum(pk * tk for pk, tk in zip(p, t)), r1 * r2))


def _kappa(c: int, s: int, p: Sequence[int], t: Sequence[int]) -> MetricValue:
    """Cohen's kappa from the trace c, total s, column totals p and row totals t.

    (c*s - sum p_k t_k) / (s^2 - sum p_k t_k) is (Po - Pe)/(1 - Pe) with Po = c/s, Pe = sum p_k t_k / s^2.
    A zero denominator means both marginals are point masses on one class: 1 if c = s, else 0.
    """
    if s == 0:
        return _UNDEF_EMPTY
    sum_pt = sum(pk * tk for pk, tk in zip(p, t))
    denominator = s * s - sum_pt
    if denominator == 0:
        return MetricValue.defined(Fraction(1) if c == s else Fraction(0))
    return MetricValue.defined(Fraction(c * s - sum_pt, denominator))


def _tiles(o: OneVsRest) -> tuple[int, int, tuple[int, int], tuple[int, int]]:
    """Trace, total, column and row totals of the tiling's 2 x 2 matrix [[tp, fn], [fp, tn]]."""
    return o.tp + o.tn, o.total, (o.tp + o.fp, o.fn + o.tn), (o.tp + o.fn, o.fp + o.tn)


def mcc_binary(o: OneVsRest) -> MetricValue:
    """Matthews correlation of a two-class tiling: (tp*tn - fp*fn) / sqrt((tp+fn)(tp+fp)(tn+fn)(tn+fp)).

    This is mcc_multiclass of the tiling's 2 x 2 matrix, 0 when a factor under the root is 0.
    """
    return _mcc(*_tiles(o))


def mcc_multiclass(m: ConfusionMatrix) -> MetricValue:
    """Matthews correlation for K classes, from the trace, total and marginals."""
    return _mcc(m.trace, m.grand_total, m.col_totals, m.row_totals)


def kappa_binary(o: OneVsRest) -> MetricValue:
    """Chance-corrected agreement of a two-class tiling: kappa_multiclass of its 2 x 2 matrix."""
    return _kappa(*_tiles(o))


def kappa_multiclass(m: ConfusionMatrix) -> MetricValue:
    """Chance-corrected agreement for K classes, from the trace, total and marginals."""
    return _kappa(m.trace, m.grand_total, m.col_totals, m.row_totals)


class XentOptions(_Frozen):
    """Cross-entropy settings: the log clipping floor and the dataset reduction."""

    __slots__ = __match_args__ = ("epsilon", "reduce")

    def __init__(self, epsilon: float = DEFAULT_EPSILON, reduce: str = "mean") -> None:
        try:
            in_range = 0.0 < epsilon <= MAX_EPSILON
        except TypeError:  # not a number
            in_range = False
        if not in_range:
            raise ValueError(f"epsilon must be in (0, {MAX_EPSILON}], got {epsilon!r}")
        if reduce not in ("mean", "sum"):
            raise ValueError(f"reduce must be 'mean' or 'sum', got {reduce!r}")
        self._fill(epsilon, reduce)


class EvaluationReport(_Frozen):
    """Every metric for one dataset/model pair, plus the options that produced it."""

    __slots__ = __match_args__ = (
        "dataset", "labels", "total_units", "metrics", "per_class", "mode", "weights_source", "epsilon", "reduce",
        "skipped_classes", "tool_version",
    )

    def __init__(
        self, dataset: str, labels: tuple[str, ...], total_units: int, metrics: dict[str, MetricValue],
        per_class: PerClassBreakdown, mode: str = "strict", weights_source: str = "frequency",
        epsilon: float = DEFAULT_EPSILON, reduce: str = "mean", skipped_classes: dict[str, int] | None = None,
        tool_version: str = "",
    ) -> None:
        self._fill(
            dataset, labels, total_units, metrics, per_class, mode, weights_source, epsilon, reduce, skipped_classes,
            tool_version,
        )

    @property
    def k(self) -> int:
        return len(self.labels)

    def metric(self, name: str) -> MetricValue:
        return self.metrics[name]


def evaluate(
    m: ConfusionMatrix,
    weights: ClassWeights | None = None,
    *,
    lenient: bool = False,
    dataset: str = "",
    weights_source: str | None = None,
    epsilon: float = DEFAULT_EPSILON,
    reduce: str = "mean",
    cross_entropy: float | None = None,
    tool_version: str | None = None,
) -> EvaluationReport:
    """Compute the full metric suite for one matrix.

    Weights default to the actual-class frequencies. Degenerate inputs
    propagate as Undefined entries; the report is always well-formed. In
    lenient mode the macro averages skip undefined classes and the number
    skipped per metric is recorded in the report. A given cross-entropy is
    reported as the last metric, "cross_entropy".
    """
    from . import __version__

    if weights_source is None:
        weights_source = "frequency" if weights is None else "custom"
    acc = accuracy(m)
    breakdown = per_class(m)
    precision, precision_skipped = _mean_of(breakdown.precision, lenient)
    recall, recall_skipped = _mean_of(breakdown.recall, lenient)  # also the balanced accuracy
    # A frequency weight t_k/s is zero exactly where recall tp_k/t_k is undefined, so no
    # class is refused or skipped, and sum (t_k/s)(tp_k/t_k) / sum t_k/s = trace/s: the
    # accuracy, Undefined(empty_denominator) on an empty matrix.
    weighted, weighted_skipped = (acc, 0) if weights is None else _mean_of(breakdown.recall, lenient, weights)
    values: dict[str, MetricValue] = {
        "accuracy": acc,
        "misclassification_rate": _complement(acc),
        "balanced_accuracy": recall,
        "balanced_accuracy_weighted": weighted,
        "macro_precision": precision,
        "macro_recall": recall,
        "macro_f1": harmonic_f1(precision, recall),
        "micro_f1": acc,
        "mcc": mcc_multiclass(m),
        "kappa": kappa_multiclass(m),
    }
    if cross_entropy is not None:
        values["cross_entropy"] = MetricValue.defined(cross_entropy)
    skipped = {
        "balanced_accuracy": recall_skipped,
        "balanced_accuracy_weighted": weighted_skipped,
        "macro_precision": precision_skipped,
        "macro_recall": recall_skipped,
    }

    return EvaluationReport(
        dataset=dataset,
        labels=m.registry.labels,
        total_units=m.grand_total,
        metrics=values,
        per_class=breakdown,
        mode="lenient" if lenient else "strict",
        weights_source=weights_source,
        epsilon=epsilon,
        reduce=reduce,
        skipped_classes=skipped if lenient else None,
        tool_version=tool_version if tool_version is not None else __version__,
    )
