"""Probability-space evaluation: cross-entropy and hardening probability vectors to labels.

Cross-entropy is computed straight from the per-unit probability vectors and
never touches the confusion matrix; it looks only at the probability assigned
to the unit's true class. Hardening applies the highest-probability rule to
bridge probability outputs into the confusion-matrix world.

score_records scores records in memory and ingest.score_probs a file: both
run score_pairs, one pass that hardens and sums, then score_tally.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .confusion import ClassRegistry, ConfusionMatrix, _Frozen

# check_probs passes a sum when |fsum(probs) - 1| <= PROB_SUM_TOLERANCE. halves.py first tries the plain sum(probs)
# of K values already known to lie in [0, 1]. No partial sum exceeds the last, which the band keeps below 2, so each
# of the K - 1 roundings errs by at most 2**-53, as do fsum's one rounding and each band edge (plus ~2**-73): under
# (K + 3) * 2**-53 in all, less than the slack K * 2**-50. So a plain sum within 1 +- (PROB_SUM_TOLERANCE - slack)
# passes; only rows outside it take fsum. A compensated sum (Python 3.12's) errs less. Past K ~ 1.1e9 it is empty.
PROB_SUM_TOLERANCE = 1e-6
DEFAULT_EPSILON = 1e-15
MAX_EPSILON = 1e-6


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
        if not 0 <= true_class < len(probs):
            raise InvalidRecordError(f"true class {true_class} out of range for {len(probs)} classes")
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


class XentOptions(_Frozen):
    """Cross-entropy settings: the log clipping floor and the dataset reduction."""

    __slots__ = __match_args__ = ("epsilon", "reduce")

    def __init__(self, epsilon: float = DEFAULT_EPSILON, reduce: str = "mean") -> None:
        if not 0.0 < epsilon <= MAX_EPSILON:
            raise ValueError(f"epsilon must be in (0, {MAX_EPSILON}], got {epsilon!r}")
        if reduce not in ("mean", "sum"):
            raise ValueError(f"reduce must be 'mean' or 'sum', got {reduce!r}")
        self._fill(epsilon, reduce)


_DEFAULT_OPTIONS = XentOptions()


def xent_unit(record: ProbRecord, options: XentOptions = _DEFAULT_OPTIONS) -> float:
    """Cross-entropy of one unit: -log of the probability predicted for its true class.

    Natural log; the probability is floored at epsilon so a hard zero stays
    finite. Always non-negative, and zero exactly when the true class got
    probability one.
    """
    return -math.log(max(record.probs[record.true_class], options.epsilon))


Scores = tuple[dict[tuple[int, int], int], int, int]


def score_pairs(pairs: Iterable[tuple[int, tuple[float, ...]]], epsilon: float) -> Scores:
    """(true, argmax) index-pair tally, exact per-unit cross-entropy sum and count of (true class, vector) pairs.

    Every finite float is an integer multiple of 2**-1074, so the sum is kept
    as an integer count of that step: the sums of two parts of a stream add
    exactly, and round_steps rounds the whole once. Memory is the distinct
    index pairs, however many pairs stream past.
    """
    # A defaultdict, not a Counter: a Counter's `+= 1` costs several times more per pair.
    tally: defaultdict[tuple[int, int], int] = defaultdict(int)
    total = count = 0
    log = math.log
    for true, probs in pairs:
        tally[true, probs.index(max(probs))] += 1  # argmax_rule, without its width check
        total += exact_steps(-log(max(probs[true], epsilon)))
        count += 1
    return tally, total, count


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
    k = registry.k

    def pairs() -> Iterator[tuple[int, tuple[float, ...]]]:
        for record in records:
            if len(record.probs) != k:  # every record has the registry's width
                raise MixedDimensionsError(f"record has {record.k} classes, expected {k}")
            yield record.true_class, record.probs

    return score_tally(registry, score_pairs(pairs(), options.epsilon), options)


def score_tally(
    registry: ClassRegistry, scores: Scores, options: XentOptions = _DEFAULT_OPTIONS
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy of a score_pairs result; EmptyDatasetError for zero units."""
    tally, total, count = scores
    if count == 0:
        raise EmptyDatasetError("cross-entropy over zero records")
    cross_entropy = round_steps(total)
    return ConfusionMatrix(registry, tally), cross_entropy / count if options.reduce == "mean" else cross_entropy


def argmax_rule(probs: Sequence[float]) -> int:
    """Index of the highest probability; ties break to the lowest index."""
    if len(probs) < 2:
        raise ValueError(f"need at least 2 classes, got {len(probs)}")
    return probs.index(max(probs))


