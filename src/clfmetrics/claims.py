"""The claim queue: a file's bytes read in two processes, this one and a forked child, claiming pieces from one queue.

ingest._read_in_steps imports this module only for a file of PARALLEL_MIN_BYTES or more on two CPUs, so that any
other run neither compiles nor loads it, nor the signal module it needs.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import BinaryIO, Callable, Iterator

from . import ingest  # its step readers are looked up at each call, as a patched one must be
from .ingest import _Part

# Bytes per piece a process claims: smaller pieces even out when two processes finish, but each costs two probes.
_PIECE = 1 << 18


def read_in_two(fd: int, start: int, size: int, work: Callable[..., _Part], cpus: set[int], *step: float) -> list[_Part]:
    """work(steps) of a file's bytes start..size, read by ingest._range_steps(..., *step), here and in a forked child,
    both claiming pieces, each the lines that start in its bytes, from one queue, so that the faster reads more."""
    piece, indices = _pieces(size - start)
    read_end, write_end = os.pipe()
    with open(read_end, "rb", buffering=0) as queue:
        with open(write_end, "wb", buffering=0) as filling:  # closed before any claim: an empty queue ends
            filling.write(indices)
        return _fork_claims(queue, _claimed_steps(queue, fd, start, size, piece, *step), work, cpus)


def _pieces(span: int) -> tuple[int, bytes]:
    """Bytes per piece of span bytes, and the pieces' 4-byte indices: at most 1024, the 4 KiB a pipe surely holds."""
    piece = max(_PIECE, -(-span // 1024))
    return piece, b"".join(i.to_bytes(4, "little") for i in range(-(-span // piece)))


def _claimed_steps(queue: BinaryIO, fd: int, start: int, size: int, piece: int, *step: float) -> Iterator[str]:
    """The steps of each piece claimed from the queue until it is empty: the lines that start in the piece's bytes."""
    while claim := queue.read(4):
        low = start + int.from_bytes(claim, "little") * piece
        high = min(low + piece, size)
        begin = ingest._line_end(fd, low - 1, high) if low > start else start  # lines start after a CR or an LF
        if begin < high:
            yield from ingest._range_steps(fd, begin, ingest._line_end(fd, high - 1, size), *step)


def _fork_claims(queue: BinaryIO, steps: Iterator[str], work: Callable[..., _Part], cpus: set[int]) -> list[_Part]:
    """work(steps) here and in a forked child that claims from the same queue: both results, the child's marshalled.

    A child starts on its parent's CPU, where a scheduler may leave it a while: so this process is on its first CPU
    across the fork, and the child moves off that CPU at once; then both may run on any of cpus again.
    """
    read_end, write_end = os.pipe()
    # SIGINT is held over the fork: the child never takes it, and the parent only in the try that ends the child.
    held = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    first = min(cpus)
    _set_cpus({first})
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        _set_cpus(cpus)
        raise
    if pid == 0:  # the child: it leaves only through os._exit, whatever happens
        code = 1
        try:
            _set_cpus(cpus - {first}, cpus)
            os.close(read_end)
            reply = memoryview(marshal.dumps(work(steps)))
            while reply:
                reply = reply[os.write(write_end, reply):]
            code = 0
        except Exception:  # a refusal: the pieces left are claimed here, so the parent stops and falls back at once
            queue.read()
        finally:
            os._exit(code)
    _set_cpus(cpus)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            mine = work(steps)
            reply = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitpid(pid, 0)[1] != 0:
        raise ingest._SerialOnly("the child failed")
    try:
        return [mine, marshal.loads(reply)]
    except (EOFError, TypeError, ValueError):  # a short or malformed reply
        raise ingest._SerialOnly("the child's reply") from None


def _set_cpus(*masks: set[int]) -> None:
    """Set this process's CPU affinity to each mask in turn, where it can be set; a refusal changes nothing."""
    for mask in masks:
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass
