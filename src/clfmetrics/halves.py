"""Score a probability file in blocks of whole lines, in pieces claimed from one queue by one process or two.

score_steps is the step reader ingest._steps_or_rows runs for score_probs, in
a module of its own so that only a probability run compiles and loads it.
Each step's fields, quoted labels read as csv reads them, are scored as one
block by proba.score_block, or refused with _SerialOnly; the row stream alone
names errors. Here too are the queue, the fork, the reply pipe and the merge.
"""

from __future__ import annotations

import csv
import marshal
import os
import signal
import threading
from collections import Counter
from itertools import repeat
from typing import BinaryIO, Iterable, Iterator

from .confusion import ClassRegistry
from .ingest import _line_end, _range_steps, _read_header, _SerialOnly, _split_lines
from .proba import Scores, score_block

# A probability file this large is scored in two processes: forking costs a few ms.
PARALLEL_MIN_BYTES = 1 << 20
# Bytes per read step of a probability file; larger steps only raise peak memory.
_PROB_STEP = 1 << 16
# Bytes per piece a process claims: smaller pieces even out when two processes finish, but each costs two probes.
_PIECE = 1 << 18


def score_steps(fd: int, start: int, size: int, delimiter: str, epsilon: float) -> tuple[ClassRegistry, Scores]:
    """The registry and scores of a probability file's bytes start..size, or _SerialOnly.

    The data is cut into pieces, each the lines that start in its bytes, whose
    indices are claimed from a pipe until it is empty: by this process alone,
    or from PARALLEL_MIN_BYTES on, with os.fork, two CPUs and one thread, by a
    forked child too, so that the faster process scores more of the file.
    """
    data_start = _line_end(fd, start, size)
    registry = _plain_header(os.pread(fd, data_start - start, start), delimiter)
    piece, indices = _pieces(size - data_start)
    read_end, write_end = os.pipe()
    with open(read_end, "rb", buffering=0) as queue:
        with open(write_end, "wb", buffering=0) as filling:  # closed before any claim: an empty queue reads as its end
            filling.write(indices)
        steps = _claimed_steps(queue, fd, data_start, size, piece)
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
        # A forked child would hold only this thread, and perhaps a lock another thread held.
        if size < PARALLEL_MIN_BYTES or not hasattr(os, "fork") or len(cpus) < 2 or threading.active_count() != 1:
            return registry, _score_steps(steps, registry, delimiter, epsilon)
        return registry, _fork_claims(queue, steps, registry, delimiter, epsilon)


def _pieces(span: int) -> tuple[int, bytes]:
    """Bytes per piece of span bytes, and the pieces' 4-byte indices: at most 1024, the 4 KiB a pipe surely holds."""
    piece = max(_PIECE, -(-span // 1024))
    return piece, b"".join(i.to_bytes(4, "little") for i in range(-(-span // piece)))


def _claimed_steps(queue: BinaryIO, fd: int, start: int, size: int, piece: int) -> Iterator[str]:
    """The steps of each piece claimed from the queue until it is empty: the lines that start in the piece's bytes."""
    while claim := queue.read(4):
        low = start + int.from_bytes(claim, "little") * piece
        high = min(low + piece, size)
        begin = _line_end(fd, low - 1, high)  # the first line start from low on; byte start - 1 ends the header
        if begin < high:
            yield from _range_steps(fd, begin, _line_end(fd, high - 1, size), _PROB_STEP)


def _plain_header(line: bytes, delimiter: str) -> ClassRegistry:
    """The registry of a first line that is a whole header row to strict csv, which refuses a quote left open."""
    text = line.decode("utf-8")
    if not text.endswith("\n"):
        raise _SerialOnly("a header without a line end")
    text = text[:-1].removesuffix("\r")
    if not text:
        raise _SerialOnly("a blank first line")
    return _read_header(iter([(1, next(csv.reader([text], delimiter=delimiter, strict=True)))]))[1]


def _fork_claims(
    queue: BinaryIO, steps: Iterator[str], registry: ClassRegistry, delimiter: str, epsilon: float
) -> Scores:
    """Score the claimed steps here and in a forked child that claims from the same queue; the merged scores."""
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
            tally, total = _score_steps(steps, registry, delimiter, epsilon)
            reply = memoryview(marshal.dumps((dict(tally), total)))
            while reply:
                reply = reply[os.write(write_end, reply):]
            code = 0
        except Exception:  # a refusal: the pieces left are claimed here, so the parent stops and falls back at once
            queue.read()
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            tally, total = _score_steps(steps, registry, delimiter, epsilon)
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
    """The scores of texts that each end a line, as the row stream gives them, or _SerialOnly."""
    index = {name: i for name, i in registry._index.items() if '"' not in name}  # each name bare, if it holds none
    index.update(('"' + name.replace('"', '""') + '"', i) for name, i in registry._index.items())  # and quoted, as csv
    tally: Counter[tuple[int, int]] = Counter()
    return tally, sum(_score_step(text, index, registry.k, delimiter, epsilon, tally) for text in steps)


def _score_step(text: str, index: dict[str, int], k: int, delimiter: str, epsilon: float, tally: Counter) -> int:
    """score_block of the fields of a text's non-blank lines, or _SerialOnly.

    A fixed number of C-level passes, whatever the row count, that split the
    text into the fields the row stream reads from it, for exactly the texts
    where the two agree: no NUL, K + 1 fields on each line, none past
    csv.field_size_limit(), and quotes only in labels spelt as in index, each
    a whole field; a quote elsewhere fails a float, the lookup or the width.
    Any other text, or one whose rows score_block refuses, raises _SerialOnly.
    """
    if "\0" in text:
        raise _SerialOnly("a NUL")
    lines = _split_lines(text)
    if "" in lines:  # a blank line, which csv skips
        lines = [*filter(None, lines)]
    if not lines:
        return 0
    counts = [*map(str.count, lines, repeat(delimiter))]
    if counts.count(k) != len(counts):
        raise _SerialOnly("a row of the wrong width")
    fields = delimiter.join(lines).split(delimiter)
    del lines
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:
        raise _SerialOnly("a field past csv.field_size_limit()")
    try:
        return score_block(fields, index, k, epsilon, tally)
    except (KeyError, ValueError):
        raise _SerialOnly("an unknown label, a bad float, a probability out of range or a sum off") from None
