import pprint
import random
import sys

import pytest

from clfmetrics import ClassRegistry, ConfusionMatrix

# Canonical four-class example: diagonal (6, 9, 10, 12), row totals
# (9, 14, 13, 16), 52 units in total. The off-diagonal spread is one fixed
# completion; tests only assert values that depend on the diagonal and the
# marginals.
FOUR_CLASS_GRID = (
    (6, 1, 1, 1),
    (2, 9, 2, 1),
    (1, 1, 10, 1),
    (2, 1, 1, 12),
)

# Binary worked example: 20 true positives, 5 false negatives, 10 false
# positives, completed with 17 true negatives.
BINARY_GRID = ((20, 5), (10, 17))


@pytest.fixture
def four_class_matrix() -> ConfusionMatrix:
    return ConfusionMatrix.from_grid(("a", "b", "c", "d"), FOUR_CLASS_GRID)


@pytest.fixture
def binary_matrix() -> ConfusionMatrix:
    return ConfusionMatrix.from_grid(("pos", "neg"), BINARY_GRID)


@pytest.fixture
def zero_matrix() -> ConfusionMatrix:
    return ConfusionMatrix.zeros(ClassRegistry(("a", "b")))


def random_matrix(rng: random.Random, k: int, max_entry: int = 9) -> ConfusionMatrix:
    """A random K x K matrix with at least one unit."""
    labels = tuple(f"c{i}" for i in range(k))
    while True:
        grid = tuple(
            tuple(rng.randint(0, max_entry) for _ in range(k)) for _ in range(k)
        )
        if any(any(row) for row in grid):
            return ConfusionMatrix.from_grid(labels, grid)


def all_2x2_grids(max_entry: int = 6):
    """Every 2 x 2 matrix with entries in 0..max_entry, zero matrix included."""
    values = range(max_entry + 1)
    for a in values:
        for b in values:
            for c in values:
                for d in values:
                    yield ConfusionMatrix.from_grid(("x", "y"), ((a, b), (c, d)))


def assert_equal_short_diff(actual, expected, what="values"):
    """assert actual == expected, naming only the first line at which their texts differ.

    On a failed `==` of two ~1 MB reports pytest's assertion rewriting diffs
    them whole, which takes tens of seconds. Strings are compared as they are,
    bytes decoded as UTF-8 and anything else through pprint.pformat, with
    ints of any length written out.
    """
    if actual == expected:
        return
    texts = []
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python 3.11 and later cap str(int)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for value in (actual, expected):
            if isinstance(value, bytes):
                value = value.decode("utf-8", errors="backslashreplace")
            texts.append(value if isinstance(value, str) else pprint.pformat(value))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if texts[0] == texts[1]:
        pytest.fail(f"{what} differ, but their texts are equal", pytrace=False)
    ours, theirs = (text.splitlines(keepends=True) for text in texts)
    line = next((n for n, (a, b) in enumerate(zip(ours, theirs)) if a != b), min(len(ours), len(theirs)))
    a, b = (lines[line] if line < len(lines) else "<end of text>" for lines in (ours, theirs))
    column = next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    start = max(0, column - 60)
    pytest.fail(
        f"{what} differ ({len(ours)} against {len(theirs)} lines); first at line {line + 1}, column {column + 1}:\n"
        f"  actual:   {a[start : column + 60]!r}\n  expected: {b[start : column + 60]!r}",
        pytrace=False,
    )
