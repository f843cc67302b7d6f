import contextlib
import gc
import io
import os
import pprint
import random
import signal
import sys
import threading
from unittest import mock

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


def run(argv):
    """The exit code, stdout and stderr of `clfmetrics *argv`, run in this process."""
    from clfmetrics.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def refused(*args):
    """A step reader that refuses whatever it is given, so that the row stream reads the file."""
    from clfmetrics.ingest import _SerialOnly

    raise _SerialOnly("refused")


def open_descriptors():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


# A label file whose bad row is on line 5, and its bad byte on line 7, in the same block of the row stream's decoder.
SHORT_LABELS = b"a,b\n" * 4 + b"a,b,c\na,b\na,\xffb\n"
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
# The claim queue forks a child only where it may run on a second CPU; every_path counts descriptors in /proc/self/fd.
SPLITS = hasattr(os, "fork") and len(CPUS) > 1 and os.path.isdir("/proc/self/fd")
splits = pytest.mark.skipif(not SPLITS, reason="the claim queue needs os.fork and two CPUs, and /proc/self/fd")
# Bytes per piece of the claim queue in every_path: piece edges then fall inside lines, on line ends and in runs of
# blank lines.
FEW_BYTES = 5


def every_path(work, kind, data, argv, pieces=(FEW_BYTES,), via=("steps", "pipe")):
    """The one (exit code, stdout, stderr) of `clfmetrics *argv` on input bytes, read by every path, and whether each
    stepped run completed: {path: [completed, one for each input]}.

    data is a file's bytes, or a list of them, each written to a file in work and named after argv. The paths:
    - the row stream, with the step reader of a labels or probs kind refused;
    - steps in this process, with the size from which a forked child claims pieces too out of reach;
    - the claim queue, forked, that size at 0, in pieces of each size in pieces;
    - a pipe for each input, that size at 0, where /dev/fd names one.
    via names the paths held to the row stream's outcome: "steps" (the second and third; the test is skipped without
    os.fork, two CPUs and /proc/self/fd), "pipe", or both. Each input's name is written <input N> in the outcomes. A
    path whose outcome is not the row stream's fails the test, named; so does a run that leaves a child unreaped or
    leaves one descriptor open or closed that was not, a pipe read in steps, or a claim queue whose steps all complete
    with other than one fork for each.
    """
    from clfmetrics import claims, ingest, probfile

    inputs = [data] if isinstance(data, bytes) else data
    names = [str(work / f"input{i}.csv") for i in range(len(inputs))]
    for name, each in zip(names, inputs):
        with open(name, "wb") as out:
            out.write(each)
    readers = {"labels": (ingest, "_tally_distinct_lines"), "probs": (probfile, "score_steps")}
    module, reader = readers.get(kind, (None, None))
    ways = {"the row stream": (refused, 1 << 62, claims._PIECE)}
    if reader and "steps" in via:
        if not SPLITS:
            pytest.skip(splits.kwargs["reason"])
        steps = getattr(module, reader)
        ways["steps in one process"] = (steps, 1 << 62, claims._PIECE)
        ways.update({f"the claim queue in {piece}-byte pieces": (steps, 0, piece) for piece in pieces})
    if "pipe" in via and os.path.isdir("/dev/fd"):
        ways["a pipe"] = (refused, 0, claims._PIECE)
    outcomes, completed = {}, {}
    for way, (reads, threshold, piece) in ways.items():
        done = completed.setdefault(way, [])

        def counted(*args, reads=reads, done=done):
            done.append(False)
            result = reads(*args)
            done[-1] = True
            return result

        forked = mock.Mock(wraps=claims._fork_claims)
        with (
            no_collection(),  # in which an earlier test's garbage could close a descriptor mid-run
            mock.patch.object(ingest, "PARALLEL_MIN_BYTES", threshold),
            mock.patch.multiple(claims, _PIECE=piece, _fork_claims=forked),
            mock.patch.object(module, reader, counted) if reader else contextlib.nullcontext(),
        ):
            before = open_descriptors()
            if way == "a pipe":
                outcomes[way] = _piped(inputs, lambda pipes: _renamed(run([*argv, *pipes]), pipes))
            else:
                outcomes[way] = _renamed(run([*argv, *names]), names)
            assert open_descriptors() == before, f"{way} left a descriptor open, or closed one"
        with pytest.raises(ChildProcessError):  # no child left unreaped
            os.waitpid(-1, os.WNOHANG)
        if way.startswith("the claim queue") and all(done):
            assert forked.call_count == len(done), f"{way} did not fork once for each input"
    expected = outcomes.pop("the row stream")
    for way, outcome in outcomes.items():
        assert_equal_short_diff(outcome, expected, f"the outcomes of {way} and of the row stream")
    assert completed.pop("a pipe", []) == [], "a pipe was read in steps"
    del completed["the row stream"]
    return expected, completed


@contextlib.contextmanager
def no_collection():
    """No cyclic garbage collection inside, so that only the code run there opens or closes a descriptor."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _renamed(outcome, names):
    """An outcome with each input's name written <input N>."""
    code, out, err = outcome
    for i, name in enumerate(names):
        out, err = out.replace(name, f"<input {i}>"), err.replace(name, f"<input {i}>")
    return code, out, err


def _piped(inputs, use, names=()):
    """use(names) for the /dev/fd names of pipes, each fed one of inputs by a thread."""
    if len(names) == len(inputs):
        return use(list(names))
    return through_a_pipe(inputs[len(names)], lambda name: _piped(inputs, use, (*names, name)))
