"""Probability-space evaluation: cross-entropy and hardening probability vectors to labels.

Cross-entropy is computed straight from the per-unit probability vectors and
never touches the confusion matrix; it looks only at the probability assigned
to the unit's true class. Hardening applies the highest-probability rule to
bridge probability outputs into the confusion-matrix world.

score_block is the one scorer of probability rows, in blocks: it checks, hardens and
sums cross-entropy exactly. score_records and ingest.score_probs (a file read in steps
or as the row stream) feed it blocks of rows, and both end in score_tally.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from typing import Iterable, Sequence

from .confusion import ClassRegistry, ConfusionMatrix, _Frozen
from .metrics import DEFAULT_EPSILON, MAX_EPSILON, XentOptions  # noqa: F401  also importable from here

# check_probs passes a sum when |fsum(probs) - 1| <= PROB_SUM_TOLERANCE. score_block first tries the plain sum(probs)
# of K values already known to lie in [0, 1]. No partial sum exceeds the last, which the band keeps below 2, so each
# of the K - 1 roundings errs by at most 2**-53, as do fsum's one rounding and each band edge (plus ~2**-73): under
# (K + 3) * 2**-53 in all, less than the slack K * 2**-50. So a plain sum within 1 +- (PROB_SUM_TOLERANCE - slack)
# passes; only rows outside it take fsum. A compensated sum (Python 3.12's) errs less. Past K ~ 1.1e9 it is empty.
PROB_SUM_TOLERANCE = 1e-6
# Fields per score_block call of the row stream and of score_records, or one row if wider: each is held at once.
_BLOCK_FIELDS = 1 << 12


class InvalidRecordError(ValueError):
    """A probability record violates its invariants."""


class EmptyDatasetError(ValueError):
    """A dataset reduction was requested over zero records."""


class MixedDimensionsError(ValueError):
    """Records in one dataset disagree on the number of classes."""


class ProbRecord(_Frozen):
    """One unit: its true class index and the predicted probability for each class.

    Each probability is stored as float(p), so numeric text is parsed here.
    Probabilities must each lie in [0, 1] and sum to 1 within a small
    tolerance. Vectors are deliberately never renormalized: a sum that is off
    signals an upstream bug and must fail loudly.
    """

    __slots__ = __match_args__ = ("true_class", "probs")

    def __init__(self, true_class: int, probs: tuple[float, ...]) -> None:
        probs = tuple(map(float, probs))
        self.check_probs(probs)
        if type(true_class) is not int or not 0 <= true_class < len(probs):  # type, as a bool is an int too
            raise InvalidRecordError(f"true class must be an int in [0, {len(probs)}), got {true_class!r}")
        self._fill(true_class, probs)

    @staticmethod
    def check_probs(probs: tuple[float, ...]) -> None:
        """Raise InvalidRecordError unless every value lies in [0, 1] and they sum to 1 within PROB_SUM_TOLERANCE.

        A valid vector costs three C-level calls. Their order rejects NaN: min
        and max may pass over a NaN, but then the sum is NaN, and a NaN fails
        the `<= PROB_SUM_TOLERANCE` test. Only a rejected vector is walked value
        by value, so the message names its first value out of range, else its sum.
        """
        if probs and 0.0 <= min(probs) and max(probs) <= 1.0 and abs(math.fsum(probs) - 1.0) <= PROB_SUM_TOLERANCE:
            return
        for p in probs:
            if not 0.0 <= p <= 1.0:  # also false for NaN
                raise InvalidRecordError(f"probability {p!r} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOLERANCE:
            raise InvalidRecordError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOLERANCE}")

    @property
    def k(self) -> int:
        return len(self.probs)


_DEFAULT_OPTIONS = XentOptions()


def xent_unit(record: ProbRecord, options: XentOptions = _DEFAULT_OPTIONS) -> float:
    """Cross-entropy of one unit: -log of the probability predicted for its true class.

    Natural log; the probability is floored at epsilon so a hard zero stays
    finite. Always non-negative, and zero exactly when the true class got
    probability one.
    """
    return -math.log(max(record.probs[record.true_class], options.epsilon))


Scores = tuple[dict[tuple[int, int], int], int]


def score_block(fields: list, index: dict[str, int], k: int, epsilon: float, tally: Counter) -> int:
    """Add the (true, argmax) pairs of rows of fields, which it empties, to tally; their cross-entropy in exact_steps.

    Each row is k + 1 fields laid end to end: a label in index, then k probabilities, as text or floats. A fixed
    number of C-level passes, whatever the row count, raise KeyError or ValueError before tally changes unless
    every label is known and every vector parses and passes ProbRecord.check_probs, which only rows whose plain
    sum lies outside a band (see PROB_SUM_TOLERANCE) need to call. Block sums add exactly; round_steps rounds once.
    """
    trues = [*map(index.__getitem__, fields[:: k + 1])]
    del fields[:: k + 1]
    floats = [*map(float, fields)]
    fields.clear()  # a block's largest object: emptied before the row passes, which bounds peak memory
    rows = [*zip(*[iter(floats)] * k)]
    tops = [*map(max, rows)]  # each row's maximum, for the range check and the argmax
    band = PROB_SUM_TOLERANCE - k * 2.0**-50
    sums, low, high = [*map(sum, rows)], 1.0 - band, 1.0 + band
    # min and max may pass over a NaN, but then its row's sum is NaN, and so is sum(sums).
    if not (0.0 <= min(floats) and max(tops) <= 1.0 and not math.isnan(sum(sums))):
        raise InvalidRecordError("a probability outside [0, 1]")
    near = [*compress(rows, map(low.__gt__, sums))] if min(sums) < low else []
    near += compress(rows, map(high.__lt__, sums)) if max(sums) > high else ()
    for probs in near:
        ProbRecord.check_probs(probs)
    tally.update(zip(trues, map(tuple.index, rows, tops)))  # argmax_rule of each row
    picked = [*map(tuple.__getitem__, rows, trues)]
    if min(picked) < epsilon:
        picked = [*map(max, picked, repeat(epsilon))]
    return -exact_sum_steps(map(math.log, picked))


def exact_steps(x: float) -> int:
    """The integer n with x == n * 2**-1074, which every finite float has; exact_sum_steps sums many at once."""
    a, b = x.as_integer_ratio()  # b is 2**e with e <= 1074; a shift, not a division
    return a << (1075 - b.bit_length())


def exact_sum_steps(values: Iterable[float]) -> int:
    """sum(map(exact_steps, values)) of finite floats, in a few math.fsum passes rather than a call per value.

    Each pass takes out s, the rounded remainder, leaving under half an ulp of s; only a zero remainder rounds to 0.0.
    """
    values, total = [*values], 0
    while s := math.fsum(values):
        total += exact_steps(s)
        values.append(-s)
    return total


def round_steps(total: int) -> float:
    """A sum of exact_steps or exact_sum_steps counts rounded once to the nearest float: math.fsum of the floats."""
    return float(Fraction(total, 1 << 1074))


def score_records(
    records: Iterable[ProbRecord], registry: ClassRegistry, options: XentOptions = _DEFAULT_OPTIONS
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy (exactly rounded, so order-free) of records read once."""
    labels, k, tally, total, records = registry.labels, registry.k, Counter(), 0, iter(records)
    while block := [*islice(records, max(1, _BLOCK_FIELDS // (k + 1)))]:
        for record in block:
            if record.k != k:  # every record has the registry's width
                raise MixedDimensionsError(f"record has {record.k} classes, expected {k}")
        fields = [*chain.from_iterable((labels[record.true_class], *record.probs) for record in block)]
        total += score_block(fields, registry._index, k, options.epsilon, tally)
    return score_tally(registry, (tally, total), options)


def score_tally(
    registry: ClassRegistry, scores: Scores, options: XentOptions = _DEFAULT_OPTIONS
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy of score_block sums; EmptyDatasetError for zero units."""
    tally, total = scores
    matrix = ConfusionMatrix._proven(registry, dict(tally))  # proven by score_block; a kept Counter would show in repr
    if matrix.grand_total == 0:
        raise EmptyDatasetError("cross-entropy over zero records")
    return matrix, round_steps(total) / matrix.grand_total if options.reduce == "mean" else round_steps(total)


def argmax_rule(probs: Sequence[float]) -> int:
    """Index of the highest probability; ties break to the lowest index."""
    if len(probs) < 2:
        raise ValueError(f"need at least 2 classes, got {len(probs)}")
    return probs.index(max(probs))


