"""Score a probability file in blocks of whole lines: in this process, or in two forked halves.

score_steps is the step reader ingest._steps_or_rows runs for score_probs, in
a module of its own so that only a probability run compiles and loads it.
Each step is scored as one block of C-level passes, which accept it or refuse
it with _SerialOnly; the row stream alone names errors. Here too are the
fork, the pipe and the merge of a large file's two halves.
"""

from __future__ import annotations

import csv
import marshal
import math
import os
import signal
import threading
from collections import Counter
from itertools import compress, repeat
from typing import Iterable

from .confusion import ClassRegistry
from .ingest import _line_end, _range_steps, _read_header, _SerialOnly, _split_lines
from .proba import PROB_SUM_TOLERANCE, Scores, exact_sum_steps

# A probability file this large is scored in two processes: forking costs a few ms.
PARALLEL_MIN_BYTES = 1 << 20
# Bytes per read step of a probability file; larger steps only raise peak memory.
_PROB_STEP = 1 << 16


def score_steps(fd: int, start: int, size: int, delimiter: str, epsilon: float) -> tuple[ClassRegistry, Scores]:
    """The registry and scores of a probability file's bytes start..size, or _SerialOnly.

    From PARALLEL_MIN_BYTES on, with os.fork, two CPUs and one thread, a forked
    child scores the data after the first newline past its midpoint.
    """
    data_start = _line_end(fd, start, size)
    registry = _plain_header(os.pread(fd, data_start - start, start), delimiter)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    # A forked child would hold only this thread, and perhaps a lock another thread held.
    if size < PARALLEL_MIN_BYTES or not hasattr(os, "fork") or len(cpus) < 2 or threading.active_count() != 1:
        return registry, _score_steps(_range_steps(fd, data_start, size, _PROB_STEP), registry, delimiter, epsilon)
    middle = _line_end(fd, (data_start + size) // 2, size)
    return registry, _fork_halves(fd, (data_start, middle), (middle, size), registry, delimiter, epsilon)


def _plain_header(line: bytes, delimiter: str) -> ClassRegistry:
    """The registry of a first line that is a whole header row in itself, else _SerialOnly."""
    text = line.decode("utf-8")
    if not text.endswith("\n"):
        raise _SerialOnly("a header without a line end")
    text = text[:-1].removesuffix("\r")
    if '"' in text or "\r" in text or not text:
        raise _SerialOnly("a quote or a bare carriage return in the header, or a blank first line")
    return _read_header(iter([(1, next(csv.reader([text], delimiter=delimiter)))]))[1]


def _fork_halves(
    fd: int, first: tuple[int, int], second: tuple[int, int], registry: ClassRegistry, delimiter: str, epsilon: float
) -> Scores:
    """Score the first byte range here and the second in a forked child; the merged scores."""
    read_end, write_end = os.pipe()
    # SIGINT is held over the fork: the child never takes it, and the parent only in the try that ends the child.
    held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        raise
    if pid == 0:  # the child: it leaves only through os._exit, whatever happens
        code = 1
        try:
            os.close(read_end)
            tally, total = _score_steps(_range_steps(fd, *second, _PROB_STEP), registry, delimiter, epsilon)
            reply = memoryview(marshal.dumps((dict(tally), total)))
            while reply:
                reply = reply[os.write(write_end, reply):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            tally, total = _score_steps(_range_steps(fd, *first, _PROB_STEP), registry, delimiter, epsilon)
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitpid(pid, 0)[1] != 0:
        raise _SerialOnly("the child failed")
    try:
        their_tally, their_total = marshal.loads(reply)
    except (EOFError, TypeError, ValueError):  # a short or malformed reply
        raise _SerialOnly("the child's reply") from None
    for pair, n in their_tally.items():
        tally[pair] += n
    return tally, total + their_total


def _score_steps(steps: Iterable[str], registry: ClassRegistry, delimiter: str, epsilon: float) -> Scores:
    """score_pairs of the row stream's rows of texts that each end a line, or _SerialOnly."""
    index = {label: i for i, label in enumerate(registry.labels)}
    tally: Counter[tuple[int, int]] = Counter()
    return tally, sum(_score_step(text, index, delimiter, epsilon, tally) for text in steps)


def _score_step(text: str, index: dict[str, int], delimiter: str, epsilon: float, tally: Counter) -> int:
    """Add the (true, argmax) pairs of a text's non-blank lines to tally; their cross-entropy sum, by exact_sum_steps.

    A fixed number of C-level passes, whatever the row count, that accept
    exactly the texts whose rows the row stream accepts: no quote or NUL,
    K + 1 fields on each line, none past csv.field_size_limit(), known labels
    and vectors that ProbRecord.check_probs passes. Any other raises _SerialOnly.
    The sum test is a plain-sum band (see PROB_SUM_TOLERANCE); only the rows outside
    it, near the edge, take the exact math.fsum, so it accepts what check_probs does.
    """
    if '"' in text or "\0" in text:
        raise _SerialOnly("a quote or a NUL")
    lines = _split_lines(text)
    if "" in lines:  # a blank line, which csv skips
        lines = [*filter(None, lines)]
    if not lines:
        return 0
    k = len(index)
    counts = [*map(str.count, lines, repeat(delimiter))]
    if counts.count(k) != len(counts):
        raise _SerialOnly("a row of the wrong width")
    fields = delimiter.join(lines).split(delimiter)
    del lines
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:
        raise _SerialOnly("a field past csv.field_size_limit()")
    try:
        trues = [*map(index.__getitem__, fields[:: k + 1])]
        del fields[:: k + 1]
        floats = [*map(float, fields)]
    except (KeyError, ValueError):
        raise _SerialOnly("an unknown label or a bad float") from None
    del fields  # a step's largest object: dropped before the row passes, which bounds peak memory
    rows = [*zip(*[iter(floats)] * k)]
    tops = [*map(max, rows)]  # each row's maximum, for the range check and the argmax
    # check_probs on every row: min and max may pass over a NaN, but then its row's sum is NaN, and so is sum(sums).
    band = PROB_SUM_TOLERANCE - k * 2.0**-50  # the plain-sum band of PROB_SUM_TOLERANCE: only rows outside it take fsum
    sums, low, high = [*map(sum, rows)], 1.0 - band, 1.0 + band
    near = [*compress(rows, map(low.__gt__, sums))] if min(sums) < low else []
    near += compress(rows, map(high.__lt__, sums)) if max(sums) > high else ()
    fsums_ok = map(PROB_SUM_TOLERANCE.__ge__, map(abs, map(float.__sub__, map(math.fsum, near), repeat(1.0))))
    if not (0.0 <= min(floats) and max(tops) <= 1.0 and not math.isnan(sum(sums)) and all(fsums_ok)):
        raise _SerialOnly("a probability out of range or a sum off")
    tally.update(zip(trues, map(tuple.index, rows, tops)))
    # -log(max(p[true], epsilon)) of each row: the negated exact sum of the logs.
    picked = [*map(tuple.__getitem__, rows, trues)]
    if min(picked) < epsilon:
        picked = [*map(max, picked, repeat(epsilon))]
    return -exact_sum_steps(map(math.log, picked))
