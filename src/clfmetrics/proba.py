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
from typing import Iterable, Sequence

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

    def __post_init__(self) -> None:
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "probs", probs)
        for p in probs:
            if not 0.0 <= p <= 1.0:  # also false for NaN
                raise InvalidRecordError(f"probability {p!r} outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOLERANCE:
            raise InvalidRecordError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOLERANCE}")
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


def _one_pass(records: Iterable[ProbRecord], registry: ClassRegistry | None, options: XentOptions):
    """(hardened (true, argmax) index-pair tally, fsum of per-unit cross-entropy, record count) in one pass.

    Without a registry nothing is tallied and the first record fixes the
    width. Memory is the distinct index pairs, however many records stream past.
    """
    width = registry.k if registry is not None else None
    # A defaultdict, not a Counter: a Counter's `+= 1` costs several times more per record.
    tally: defaultdict[tuple[int, int], int] | None = defaultdict(int) if registry is not None else None
    count = 0

    def terms() -> Iterable[float]:
        nonlocal width, count
        for record in records:
            if len(record.probs) != width:
                if width is not None:
                    raise MixedDimensionsError(f"record has {record.k} classes, expected {width}")
                width = record.k
            if tally is not None:
                tally[record.true_class, argmax_rule(record.probs)] += 1
            count += 1
            yield xent_unit(record, options)

    total = math.fsum(terms())
    return tally, total, count


def _reduce(total: float, count: int, options: XentOptions) -> float:
    if count == 0:
        raise EmptyDatasetError("cross-entropy over zero records")
    return total / count if options.reduce == "mean" else total


def xent_dataset(records: Iterable[ProbRecord], options: XentOptions = _DEFAULT_OPTIONS) -> float:
    """Cross-entropy over a dataset: mean of the per-unit values (or their plain sum).

    Consumes the records as a stream in one pass. Summation is exactly
    rounded (math.fsum), so the result does not depend on record order.
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
    tally, total, count = _one_pass(records, registry, options)
    return ConfusionMatrix(registry, tally), _reduce(total, count, options)
