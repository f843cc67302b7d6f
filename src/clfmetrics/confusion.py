"""Confusion-matrix data model: construction, marginals, one-vs-rest tiles, merging with +.

Orientation is fixed throughout the package: rows are the actual (true)
classes, columns are the predicted classes. Counts are plain Python ints,
so tallies and every marginal stay exact no matter how large they grow.

a + b sums two tallies over one registry; the marginals are the public
row_totals and col_totals tuples.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class UnknownLabelError(ValueError):
    """A label does not belong to the class registry in use."""


class EmptyInputError(ValueError):
    """No pairs were supplied and no registry was given, so the class set cannot be inferred."""


class ClassOutOfRangeError(IndexError):
    """A class index is outside 0..K-1."""


class RegistryMismatchError(ValueError):
    """Two matrices do not share an identical class registry."""


class _Frozen:
    """A read-only value, equal, hashed and pickled by its constructor's fields, __match_args__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the fields _fill sets and repr shows, in order, if not __match_args__

    def _fill(self, *values: object) -> None:
        for name, value in zip(self._fields or self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields or self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # the class and its constructor's arguments
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ClassRegistry(_Frozen):
    """Ordered set of distinct class names. Index order is stable for the registry's lifetime."""

    __slots__ = ("labels", "_index")
    __match_args__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"class labels must be unique, got {labels!r}")
        if len(labels) < 2:
            raise ValueError(f"at least 2 classes are required, got {len(labels)}")
        self._fill(labels)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def k(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} is not in the registry {self.labels!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)


class OneVsRest(_Frozen):
    """TP/FP/FN/TN tiling of a matrix for one reference class.

    tp is the diagonal cell of the reference class, fp the rest of its
    column, fn the rest of its row, tn everything else; the four tiles
    always partition the full matrix.
    """

    __slots__ = __match_args__ = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int, fp: int, fn: int, tn: int) -> None:
        self._fill(tp, fp, fn, tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class ConfusionMatrix(_Frozen):
    """Cross-table of (actual, predicted) counts over a class registry, stored sparsely.

    Takes a mapping (i, j) -> count or a dense K x K grid and keeps only the nonzero
    cells, read-only: a build costs the distinct pairs, not K x K. Equality and hashing
    compare the registry and those cells; the totals and the trace come from one pass
    over them. Immutable and safe to share across threads. No __slots__: counts caches the grid in __dict__.
    """

    __match_args__ = ("registry", "cells")
    _fields = ("registry", "cells", "row_totals", "col_totals", "trace", "grand_total")

    def __init__(self, registry: ClassRegistry, cells: Mapping[tuple[int, int], int]) -> None:
        k = registry.k
        if not isinstance(cells, Mapping):
            if len(cells) != k or any(len(row) != k for row in cells):
                raise ValueError(f"counts must be a {k}x{k} grid to match the registry")
            # Row-major, so the first bad cell is named; plain zeros need no check.
            cells = {(i, j): n for i, row in enumerate(cells) for j, n in enumerate(row) if n or type(n) is not int}
        nonzero, rows, cols, trace = {}, [0] * k, [0] * k, 0
        for (i, j), n in cells.items():
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"counts must be integers, got {n!r}")
            if n < 0:
                raise ValueError(f"counts must be non-negative, got {n}")
            if not (0 <= i < k and 0 <= j < k):
                raise ClassOutOfRangeError(f"cell {(i, j)} out of range for K={k}")
            if n:
                nonzero[i, j] = n
                rows[i] += n
                cols[j] += n
                trace += n if i == j else 0
        self._fill(registry, MappingProxyType(nonzero), tuple(rows), tuple(cols), trace, sum(rows))

    def __hash__(self) -> int:
        return hash((self.registry, frozenset(self.cells.items())))

    def __reduce__(self):  # a read-only mapping does not pickle; its dict does
        return type(self), (self.registry, dict(self.cells))

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """The dense K x K grid, rows actual and columns predicted; built on first read, at a cost of K x K cells."""
        return tuple(tuple(self.cells.get((i, j), 0) for j in range(self.k)) for i in range(self.k))

    @classmethod
    def zeros(cls, registry: ClassRegistry) -> "ConfusionMatrix":
        return cls(registry, {})

    @classmethod
    def from_grid(cls, labels: Sequence[str], grid: Sequence[Sequence[int]]) -> "ConfusionMatrix":
        return cls(ClassRegistry(tuple(labels)), tuple(tuple(row) for row in grid))

    @property
    def k(self) -> int:
        return self.registry.k

    def one_vs_rest(self, k: int) -> OneVsRest:
        """Collapse the matrix to the four tiles seen from reference class k, an index in 0..K-1."""
        if not 0 <= k < self.k:
            raise ClassOutOfRangeError(f"class index {k} out of range for K={self.k}")
        tp = self.cells.get((k, k), 0)
        fp = self.col_totals[k] - tp
        fn = self.row_totals[k] - tp
        tn = self.grand_total - tp - fp - fn
        return OneVsRest(tp=tp, fp=fp, fn=fn, tn=tn)

    def permuted(self, order: Sequence[int]) -> "ConfusionMatrix":
        """Relabel classes: apply the same index permutation to rows and columns."""
        if sorted(order) != list(range(self.k)):
            raise ValueError(f"order must be a permutation of 0..{self.k - 1}")
        labels = tuple(self.registry.labels[i] for i in order)
        new = {old: new for new, old in enumerate(order)}
        return ConfusionMatrix(ClassRegistry(labels), {(new[i], new[j]): n for (i, j), n in self.cells.items()})

    def scaled(self, factor: int) -> "ConfusionMatrix":
        """Multiply every cell by a positive integer factor."""
        if not isinstance(factor, int) or factor < 1:
            raise ValueError(f"factor must be a positive integer, got {factor!r}")
        return ConfusionMatrix(self.registry, {cell: n * factor for cell, n in self.cells.items()})

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Elementwise sum of two matrices sharing an identical registry.

        Associative and commutative, with the zero matrix as identity; this is
        the combine step for parallel or chunked ingestion.
        """
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        if self.registry != other.registry:
            raise RegistryMismatchError(f"registries differ: {self.registry.labels!r} vs {other.registry.labels!r}")
        return ConfusionMatrix(self.registry, Counter(self.cells) + Counter(other.cells))


def from_pairs(
    pairs: Iterable[tuple[str, str]],
    registry: ClassRegistry | None = None,
) -> ConfusionMatrix:
    """Tally (actual, predicted) label pairs into a confusion matrix.

    The pairs may be any iterable, including a lazy stream: tallying is
    single-pass and keeps one counter per distinct pair. When no registry
    is supplied, the class set is inferred as the lexicographically sorted
    union of all labels seen, which keeps output deterministic across runs.

    Raises UnknownLabelError if a pair holds a label outside a supplied
    registry (the first such pair in input order, once the stream is
    consumed), and EmptyInputError if there are no pairs and no registry.
    """
    return from_tally(Counter(pairs), registry)


def from_tally(
    tally: Mapping[tuple[str, str], int],
    registry: ClassRegistry | None = None,
) -> ConfusionMatrix:
    """Lay out a count per distinct (actual, predicted) pair as a confusion matrix.

    The registry is inferred, and errors are raised, as in from_pairs.
    """
    if registry is None:
        if not tally:
            raise EmptyInputError("empty input: no label pairs and no registry to infer classes from")
        registry = ClassRegistry(tuple(sorted({label for pair in tally for label in pair})))
    index = registry.index  # first-seen order: the first bad pair raises
    return ConfusionMatrix(registry, {(index(actual), index(pred)): n for (actual, pred), n in tally.items()})
