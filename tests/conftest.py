import contextlib
import os
import pprint
import random
import signal
import sys
import threading

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


# A matrix file whose counts are each 4,300 nines, within CPython's default int-to-str limit of 4,300
# digits, but whose unit total and per-class denominators (N + 1 = 10**4300) run past it.
LONG_COUNT = "9" * 4300
LONG_COUNTS_CSV = f",a,b\na,{LONG_COUNT},{LONG_COUNT}\nb,1,{LONG_COUNT}\n"
LONG_COUNTS_GRID = ((int(LONG_COUNT), int(LONG_COUNT)), (1, int(LONG_COUNT)))


@contextlib.contextmanager
def no_int_digit_limit():
    """Lift the int-to-str digit limit of Python 3.11 and later for the block, then restore it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


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
    with no_int_digit_limit():
        for value in (actual, expected):
            if isinstance(value, bytes):
                value = value.decode("utf-8", errors="backslashreplace")
            texts.append(value if isinstance(value, str) else pprint.pformat(value))
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


def default_sigint():
    """Give a child SIGINT's default action before it execs, so Python installs its handler as a shell's start does.

    Pass it as subprocess's preexec_fn: a shell that runs the suite as a background job starts it with SIGINT
    ignored, and children inherit that.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def feed(fd, data):
    """Write data to a pipe's write end, then close it."""
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    except BrokenPipeError:  # the reader stopped early
        pass
    finally:
        os.close(fd)


def through_a_pipe(data, use):
    """use(name) for the /dev/fd name of a pipe that a thread feeds with data: input that can be read only once."""
    r, w = os.pipe()
    writer = threading.Thread(target=feed, args=(w, data))
    writer.start()
    try:
        return use(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()
