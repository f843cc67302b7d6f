"""Probability-space evaluation: cross-entropy and hardening probability vectors to labels.

Cross-entropy is computed straight from the per-unit probability vectors and
never touches the confusion matrix; it looks only at the probability assigned
to the unit's true class. Hardening applies the highest-probability rule to
bridge probability outputs into the confusion-matrix world.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .confusion import ClassRegistry, ConfusionMatrix

PROB_SUM_TOLERANCE = 1e-6
DEFAULT_EPSILON = 1e-15
MAX_EPSILON = 1e-6


class InvalidRecordError(ValueError):
    """A probability record violates its invariants."""


class EmptyDatasetError(ValueError):
    """A dataset reduction was requested over zero records."""


class MixedDimensionsError(ValueError):
    """Records in one dataset disagree on the number of classes."""


@dataclass(frozen=True, slots=True)
class ProbRecord:
    """One unit: its true class index and the predicted probability for each class.

    Each probability is stored as float(p), so numeric text is parsed here.
    Probabilities must each lie in [0, 1] and sum to 1 within a small
    tolerance. Vectors are deliberately never renormalized: a sum that is off
    signals an upstream bug and must fail loudly.
    """

    true_class: int
    probs: tuple[float, ...]

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

    @classmethod
    def _from_checked(cls, true_class: int, probs: tuple[float, ...]) -> ProbRecord:
        """A record of a float vector that check_probs passed, with a true class in range: not checked again."""
        record = object.__new__(cls)
        object.__setattr__(record, "true_class", true_class)
        object.__setattr__(record, "probs", probs)
        return record

    def __post_init__(self) -> None:
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "probs", probs)
        self.check_probs(probs)
        if not 0 <= self.true_class < len(probs):
            raise InvalidRecordError(
                f"true class {self.true_class} out of range for {len(probs)} classes"
            )

    @property
    def k(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class XentOptions:
    """Cross-entropy settings: the log clipping floor and the dataset reduction."""

    epsilon: float = DEFAULT_EPSILON
    reduce: str = "mean"

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= MAX_EPSILON:
            raise ValueError(f"epsilon must be in (0, {MAX_EPSILON}], got {self.epsilon!r}")
        if self.reduce not in ("mean", "sum"):
            raise ValueError(f"reduce must be 'mean' or 'sum', got {self.reduce!r}")


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
    """The integer n with x == n * 2**-1074, which every finite float has."""
    a, b = x.as_integer_ratio()  # b is 2**e with e <= 1074; a shift, not a division
    return a << (1075 - b.bit_length())


def round_steps(total: int) -> float:
    """A sum of exact_steps counts rounded once to the nearest float: the bits math.fsum gives for the floats."""
    return float(Fraction(total, 1 << 1074))


def _one_pass(records: Iterable[ProbRecord], registry: ClassRegistry | None, options: XentOptions) -> Scores:
    """score_pairs over records that must all have the registry's width, or, without one, the first record's."""
    width = registry.k if registry is not None else None

    def pairs() -> Iterator[tuple[int, tuple[float, ...]]]:
        nonlocal width
        for record in records:
            if len(record.probs) != width:
                if width is not None:
                    raise MixedDimensionsError(f"record has {record.k} classes, expected {width}")
                width = record.k
            yield record.true_class, record.probs

    return score_pairs(pairs(), options.epsilon)


def score_tally(
    registry: ClassRegistry, scores: Scores, options: XentOptions = _DEFAULT_OPTIONS
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy of a score_pairs result."""
    tally, total, count = scores
    return ConfusionMatrix(registry, tally), _reduce(total, count, options)


def _reduce(total: int, count: int, options: XentOptions) -> float:
    if count == 0:
        raise EmptyDatasetError("cross-entropy over zero records")
    cross_entropy = round_steps(total)
    return cross_entropy / count if options.reduce == "mean" else cross_entropy


def xent_dataset(records: Iterable[ProbRecord], options: XentOptions = _DEFAULT_OPTIONS) -> float:
    """Cross-entropy over a dataset: mean of the per-unit values (or their plain sum).

    Consumes the records as a stream in one pass. Summation is exactly
    rounded, as by math.fsum, so the result does not depend on record order.
    """
    _, total, count = _one_pass(records, None, options)
    return _reduce(total, count, options)


def argmax_rule(probs: Sequence[float]) -> int:
    """Index of the highest probability; ties break to the lowest index."""
    if len(probs) < 2:
        raise ValueError(f"need at least 2 classes, got {len(probs)}")
    return probs.index(max(probs))


def harden(records: Iterable[ProbRecord], registry: ClassRegistry) -> ConfusionMatrix:
    """Apply the highest-probability rule to every record and tally the matrix."""
    return ConfusionMatrix(registry, _one_pass(records, registry, _DEFAULT_OPTIONS)[0])


def score_records(
    records: Iterable[ProbRecord], registry: ClassRegistry, options: XentOptions = _DEFAULT_OPTIONS
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy of one record stream, read once."""
    return score_tally(registry, _one_pass(records, registry, options), options)
