"""Score a large probability file in two processes, with the serial stream's result.

score_halves is ingest.score_probs's first try; it is a module of its own so
that only a run that scores a probability file compiles and loads it.
"""

from __future__ import annotations

import csv
import io
import marshal
import os
import signal
import stat
import threading
from typing import Iterator

from .confusion import ClassRegistry
from .ingest import IngestError, _prob_rows, _read_header
from .proba import Scores, score_pairs

# A probability file this large is scored in two processes: forking costs a few ms.
PARALLEL_MIN_BYTES = 1 << 20
# Bytes each process reads per step of its half; larger steps only raise peak memory.
_HALF_CHUNK = 1 << 16


class _SerialOnly(Exception):
    """The two halves cannot give the serial result, for the reason given."""


def score_halves(path: str, delimiter: str, epsilon: float) -> tuple[ClassRegistry, Scores] | None:
    """The registry and merged scores of a probability file scored in two processes, or None (see score_probs)."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    # A forked child would hold only this thread, and perhaps a lock another thread held.
    if not hasattr(os, "fork") or len(cpus) < 2 or threading.active_count() != 1:
        return None
    try:
        info = os.stat(path)  # before opening: a named pipe opened here would lose what it holds
        if not stat.S_ISREG(info.st_mode) or info.st_size < PARALLEL_MIN_BYTES:
            return None
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None  # the serial stream reports it
    try:
        size = os.fstat(fd).st_size
        data_start = _line_end(fd, 0, size)
        registry = _plain_header(os.pread(fd, data_start, 0), delimiter)
        if registry is None:
            return None
        middle = _line_end(fd, (data_start + size) // 2, size)
        return registry, _fork_halves(fd, (data_start, middle), (middle, size), registry, delimiter, epsilon)
    except (_SerialOnly, IngestError, csv.Error, EOFError, OSError, TypeError, ValueError):
        return None  # any error: the serial stream from the first byte reports it, or finds none
    finally:
        os.close(fd)


def _line_end(fd: int, start: int, end: int) -> int:
    """The offset just past the first newline at or after start, else end."""
    while start < end:
        block = os.pread(fd, _HALF_CHUNK, start)
        if not block:
            raise _SerialOnly("the file shrank")
        found = block.find(b"\n")
        if found >= 0:
            return start + found + 1
        start += len(block)
    return end


def _plain_header(line: bytes, delimiter: str) -> ClassRegistry | None:
    """The registry of a first line that is a whole header row in itself, else None."""
    text = line.decode("utf-8").removeprefix("\ufeff")
    if not text.endswith("\n"):
        return None
    text = text[:-1].removesuffix("\r")
    if '"' in text or "\r" in text:
        return None
    row = next(csv.reader([text], delimiter=delimiter))
    return _read_header(iter([(1, row)]))[1] if row else None


def _fork_halves(
    fd: int, first: tuple[int, int], second: tuple[int, int], registry: ClassRegistry, delimiter: str, epsilon: float
) -> Scores:
    """Score the first byte range here and the second in a forked child; the merged scores."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child: it leaves only through os._exit, whatever happens
        code = 1
        try:
            os.close(read_end)
            tally, total, count = _score_range(fd, *second, registry, delimiter, epsilon)
            reply = memoryview(marshal.dumps((dict(tally), total, count)))
            while reply:
                reply = reply[os.write(write_end, reply):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            tally, total, count = _score_range(fd, *first, registry, delimiter, epsilon)
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitpid(pid, 0)[1] != 0:
        raise _SerialOnly("the child failed")
    their_tally, their_total, their_count = marshal.loads(reply)  # a short reply raises EOFError or ValueError
    for pair, n in their_tally.items():
        tally[pair] += n
    return tally, total + their_total, count + their_count


def _score_range(fd: int, start: int, end: int, registry: ClassRegistry, delimiter: str, epsilon: float) -> Scores:
    return score_pairs(_prob_rows(_range_rows(fd, start, end, delimiter), registry), epsilon)


def _range_rows(fd: int, start: int, end: int, delimiter: str) -> Iterator[tuple[None, list[str]]]:
    """The non-blank CSV rows, without line numbers, of the bytes start..end of a file that end a line.

    Reads at most _HALF_CHUNK bytes per step (more only for a longer line) and
    parses each step's whole lines apart, which is the serial stream's
    parse as long as no quote can join lines: a quote raises _SerialOnly.
    """
    pending: list[bytes] = []  # read since the last line end
    while start < end:
        block = os.pread(fd, min(_HALF_CHUNK, end - start), start)
        if not block:
            raise _SerialOnly("the file shrank")
        start += len(block)
        # A cut between the CR and LF of one line end leaves a blank line, which is skipped.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1 if start < end else len(block)
        if not cut:
            pending.append(block)
            continue
        lines = b"".join([*pending, block[:cut]])
        pending = [block[cut:]]
        if b'"' in lines:
            raise _SerialOnly("a quote")
        for row in csv.reader(io.StringIO(lines.decode("utf-8"), newline=""), delimiter=delimiter):
            if row:
                yield None, row
