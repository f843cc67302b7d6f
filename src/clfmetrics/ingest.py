"""CSV readers for prediction data, in three file shapes.

Label files:       ``actual,predicted`` rows, optional header.
Probability files: header ``actual,<class1>,...,<classK>``, then one row per
                   unit with its actual label and K probabilities.
Matrix files:      header ``,<class1>,...,<classK>``, then row i as
                   ``<classi>,n_i1,...,n_iK`` with rows = actual classes.
                   Row names must repeat the header names in the same order,
                   which catches silently transposed matrices.

Probability and matrix headers share one reader and its rules: a first cell,
then at least 2 class names, none empty and none repeated.

One entry per job: tally_labels, score_probs and read_matrix read the three
shapes, read_weights class weights. stream_labels yields a label file's pairs
row by row: the reference tally_labels agrees with, and its fallback.

Every reader takes UTF-8 text (LF or CRLF, with or without a byte-order mark)
and opens its file once. A file's report, error and exit code never depend on
which way it was read, a pipe included: every error carries the 1-based line
number it was raised on, a byte that is not UTF-8 included, counting LF, CR and
CRLF as one line end each, as csv does. tally_labels and score_probs read a
file in steps or as the row stream; _steps_or_rows alone decides which. Either
way score_probs scores blocks of rows in probfile.py. In steps, a header is
found by _first_row alone, and a line ends at each CR or LF. Steps are read by
_read_in_steps for both: in one process, or from PARALLEL_MIN_BYTES on in two,
which claim pieces of the file from one queue (claims.py, loaded only then).
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

from .confusion import ClassRegistry, ConfusionMatrix, from_tally
from .metrics import XentOptions

_Number = TypeVar("_Number", int, Fraction)
_Read = TypeVar("_Read")  # what a file read in steps or as rows gives: a pair tally, or a registry and scores
_Part = TypeVar("_Part")  # what one process gives of the steps it reads: line counts, or a tally and a total
# The only number forms read, in ASCII digits. A minus sign passes the grammar so
# that a negative value meets its own, clearer error further on.
_COUNT = re.compile(r"-?[0-9]+")
# Each digit run has one place to go, so a failed match backtracks in linear time.
_WEIGHT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+|/[0-9]+)?|\.[0-9]+)")  # 2, 0.1, .5 or 1/3
# Bytes per read while scanning a file for a line end, which in a probability piece lies a few hundred bytes on.
_RESCAN_CHUNK = 1 << 12
# What errors="surrogateescape" decodes each byte that is not UTF-8 to, and nothing else.
_ESCAPED = re.compile("[\udc80-\udcff]")
_last_escape = [object()]  # new at each call of _escape, in any thread; no store puts back one that a reader holds
_ROW_BLOCK = 1 << 13  # characters, about, of the lines in each block the row stream reads
# Bytes per read step of a label file; larger steps only raise peak memory.
_LABEL_STEP = 1 << 14
# A file this large is read in two processes: forking costs a few ms.
PARALLEL_MIN_BYTES = 1 << 20


class _SerialOnly(Exception):
    """A fast path cannot give the row stream's result (a refused step, a shrunk file, a failed child)."""


class IngestError(Exception):
    """Base class for file ingestion failures, tagged with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class ParseError(IngestError):
    """A row or field could not be parsed."""


class EmptyLabelError(IngestError):
    """A label field is the empty string."""


class ProbSumOutOfToleranceError(IngestError):
    """A probability row does not sum to 1 within tolerance."""

    def __init__(self, message: str, line: int | None = None, total: float | None = None):
        super().__init__(message, line=line)
        self.total = total


class UnknownActualLabelError(IngestError):
    """An actual label is not among the header classes."""


class NonSquareError(IngestError):
    """A matrix file does not describe a K x K grid."""


class NegativeEntryError(IngestError):
    """A matrix file holds a negative count, or a weights file a negative weight."""


class NameMismatchError(IngestError):
    """Matrix row names do not match the header class names in order."""


def _parse_number(
    grammar: re.Pattern[str], convert: Callable[[str], _Number], text: str, what: str, line: int, column: int
) -> _Number:
    """convert(text) for text in the grammar, else a ParseError naming the field."""
    try:
        if grammar.fullmatch(text):
            return convert(text)
    except (ValueError, ZeroDivisionError):  # an int past the digit limit, or a ratio over 0
        pass
    raise ParseError(f"bad {what} {_quote(text)}", line=line, column=column)


def _quote(field: str, short: object = None) -> str:
    """An input field as an error message quotes it: its repr, or short if given; past 40 characters, as the text
    report writes a long rational, the repr of its first 12 and its length."""
    if len(field) > 40:
        return f"{field[:12]!r}...({len(field)} characters)"
    return repr(field) if short is None else str(short)


def _open_text(path: str) -> TextIO:
    return open(path, "r", encoding="utf-8-sig", errors="clfmetrics.escape", newline="")  # drops a leading BOM


def _escape(error: UnicodeDecodeError) -> tuple[str, int]:  # _open_text's errors: "surrogateescape", marked
    _last_escape[0] = object()
    return codecs.lookup_error("surrogateescape")(error)


codecs.register_error("clfmetrics.escape", _escape)


def _rows(handle: TextIO, delimiter: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank CSV rows of an open file, each with its 1-based line number.

    The file is read once, in blocks of lines. A byte that is not UTF-8 ends
    the rows at its line, after those before it, so an earlier row's fault is named first.
    """
    reader = csv.reader(chain.from_iterable(_blocks(handle)), delimiter=delimiter)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:  # an oversized field, say
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    except UnicodeDecodeError as exc:  # csv has read each line before the byte's; a row left open there is dropped
        error = f"input is not valid UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
        raise ParseError(error, line=reader.line_num + 1) from None


def _blocks(handle: TextIO) -> Iterator[list[str]]:
    """An open file's lines in blocks, up to the first holding a byte _open_text escaped; then the decoding error."""
    began = _last_escape[0]
    while block := handle.readlines(_ROW_BLOCK):
        if _last_escape[0] is not began:  # a byte was escaped: in this block, one not yet read, or another reader's
            for at, text in enumerate(block):
                if _ESCAPED.search(text):
                    yield block[:at]
                    text.encode("utf-8", "surrogateescape").decode("utf-8")  # raises, as the line is not UTF-8
        yield block


def _line_end(fd: int, start: int, end: int) -> int:
    """The offset just past the first CR or LF at or after start, else end."""
    while start < end:
        block = os.pread(fd, _RESCAN_CHUNK, start)
        if not block:
            raise _SerialOnly("the file shrank")
        found = re.search(b"[\r\n]", block)
        if found:
            return start + found.end()
        start += len(block)
    return end


def _first_row(fd: int, start: int, size: int, delimiter: str, longest: float = math.inf) -> tuple[list[str], int]:
    """The fields of a file's first non-blank line from start, ended at its first CR or LF, as strict csv reads them
    (a quote left open is an error), and the offset just past that line end: a CRLF's LF starts a blank line. Refuses,
    reading nothing into memory, a file with no such line, or a line longer than longest."""
    while (block := os.pread(fd, _RESCAN_CHUNK, start)) and not block.lstrip(b"\r\n"):  # a run of blank lines
        start += len(block)
    start += len(block) - len(block.lstrip(b"\r\n"))
    end = _line_end(fd, start, size)
    if not start < end <= start + longest:
        raise _SerialOnly("no first row, or one too long for a valid row")
    line = os.pread(fd, end - start, start)
    if len(line) < end - start:
        raise _SerialOnly("the file shrank")
    return next(csv.reader([line.decode("utf-8")], delimiter=delimiter, strict=True)), end


def _range_steps(fd: int, start: int, end: int, step: int, longest: float = math.inf) -> Iterator[str]:
    """The text of bytes start..end of a file in steps that end a line: step bytes, more for a line up to longest."""
    pending: list[bytes] = []  # read since the last line end
    while start < end:
        block = os.pread(fd, min(step, end - start), start)
        if not block:
            raise _SerialOnly("the file shrank")
        start += len(block)
        # A cut between the CR and LF of one line end leaves a blank line, which is skipped.
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1 if start < end else len(block)
        if not cut:
            pending.append(block)
            if sum(map(len, pending)) > longest:  # refused before it is joined or decoded
                raise _SerialOnly("a line too long for a valid row")
            continue
        text, pending = b"".join([*pending, block[:cut]]).decode("utf-8"), [block[cut:]]
        yield text


def _read_in_steps(fd: int, start: int, size: int, work: Callable[[Iterator[str]], _Part], *step: float) -> list[_Part]:
    """work(steps) of a file's bytes start..size, read by _range_steps(..., *step), for each process that reads them:
    this one alone, or from PARALLEL_MIN_BYTES on, with os.fork, two CPUs and one thread, a forked child too, both
    claiming pieces from the queue of claims.py, the one module that forks."""
    cpus = os.sched_getaffinity(0) if size >= PARALLEL_MIN_BYTES and hasattr(os, "sched_getaffinity") else ()
    if len(cpus) > 1 and hasattr(os, "fork"):
        import threading  # loaded only for a file this large

        if threading.active_count() == 1:  # a forked child would hold only this thread, and perhaps a lock another held
            from .claims import read_in_two  # its own module: a smaller file neither compiles nor loads it

            return read_in_two(fd, start, size, work, cpus, *step)
    return [work(_range_steps(fd, start, size, *step))]


def _steps_or_rows(path: str, by_steps: Callable[..., _Read], by_rows: Callable[..., _Read], *args: object) -> _Read:
    """by_steps(fd, start, size, *args) of a file read in steps, else by_rows(handle, *args) of its row stream.

    The one place that decides how tally_labels and score_probs read a file,
    which is opened once. A file that can be read twice, where os.pread
    exists, is first read in steps of whole lines with os.pread, which leaves
    the handle's offset alone: from start, just past one leading byte-order
    mark, up to the size it had when opened. A step reader refuses by raising
    _SerialOnly(reason); an IngestError, csv.Error, OSError or ValueError (a
    byte that is not UTF-8, say) is a refusal too. On a refusal, or if the
    file then holds more than size bytes (it grew, or its size is not its
    length), the same handle is read from its first byte as the row stream,
    which names every error with its line, or finds none, as it does for a
    pipe, which cannot be read twice. So whichever way a file is read, a pipe
    included, its report, error and exit code are the same.
    """
    with _open_text(path) as handle:
        if handle.seekable() and hasattr(os, "pread"):
            fd = handle.fileno()
            try:
                size, start = os.fstat(fd).st_size, 3 * (os.pread(fd, 3, 0) == codecs.BOM_UTF8)
                result = by_steps(fd, start, size, *args)
                if os.pread(fd, 1, size):
                    raise _SerialOnly("the file grew")
                return result
            except (_SerialOnly, IngestError, csv.Error, OSError, ValueError):
                pass
        return by_rows(handle, *args)


def _split_lines(text: str) -> list[str]:
    """The lines of a text, cut only at csv's line ends: str.splitlines would also cut at \x85 and others."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n")


def _open_rows(path: str, delimiter: str) -> Iterator[tuple[int, list[str]]]:
    with _open_text(path) as handle:
        yield from _rows(handle, delimiter)


def stream_labels(
    path: str, *, delimiter: str = ",", has_header: bool = False
) -> Iterator[tuple[str, str]]:
    """Yield (actual, predicted) label pairs from a two-column file, lazily."""
    with _open_text(path) as handle:
        yield from _label_pairs(handle, delimiter, has_header)


def _label_pairs(handle: TextIO, delimiter: str, has_header: bool) -> Iterator[tuple[str, str]]:
    rows = _rows(handle, delimiter)
    if has_header:
        next(rows, None)
    for line, row in rows:
        yield _label_pair(row, line)


def _label_pair(row: list[str], line: int | None) -> tuple[str, str]:
    """The (actual, predicted) pair of a non-blank label row; raises the row's IngestError."""
    if len(row) != 2:
        raise ParseError(f"expected 2 fields, got {len(row)}", line=line)
    actual, predicted = row
    if actual == "":
        raise EmptyLabelError("empty actual label", line=line, column=1)
    if predicted == "":
        raise EmptyLabelError("empty predicted label", line=line, column=2)
    return actual, predicted


def _read_header(rows: Iterator[tuple[int, list[str]]]) -> tuple[int, ClassRegistry]:
    """The line and classes of a probability or matrix header: a first cell, then 2 or more distinct names."""
    try:
        line, header = next(rows)
    except StopIteration:
        raise ParseError("missing header row", line=1) from None
    names = header[1:]
    if len(names) < 2:
        raise ParseError(f"header needs a first cell and 2 or more class names, got {len(header)} fields", line=line)
    for pos, name in enumerate(names, start=2):
        if name == "":
            raise ParseError("empty class name in header", line=line, column=pos)
    if len(set(names)) != len(names):
        raise ParseError("duplicate class columns in header", line=line)
    return line, ClassRegistry(tuple(names))


def score_probs(
    path: str, *, delimiter: str = ",", options: XentOptions = XentOptions()
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy of a probability file.

    Read as _steps_or_rows says: in steps by probfile.score_steps, in two processes
    from PARALLEL_MIN_BYTES on; else as the row stream, probfile._score_rows. Each
    step or block of rows is scored by proba.score_block. Memory holds the
    distinct (actual, predicted) pairs and a block, not the rows.
    """
    from .proba import score_tally  # with probfile, loaded only by a probability run
    from .probfile import _score_rows, score_steps

    return score_tally(*_steps_or_rows(path, score_steps, _score_rows, delimiter, options.epsilon), options)


def read_matrix(path: str, *, delimiter: str = ",") -> ConfusionMatrix:
    """Read a pre-tallied confusion matrix file.

    The grid must be square, non-negative integers in ASCII digits, with the
    leading column of row names matching the header class names in the same order.
    """
    rows = _open_rows(path, delimiter)
    last_line, registry = _read_header(rows)
    names = registry.labels
    cells: dict[tuple[int, int], int] = {}
    i = 0  # data rows read
    for line, row in rows:
        last_line = line
        if i >= registry.k:
            raise NonSquareError(
                f"expected {registry.k} data rows, found more", line=line
            )
        if len(row) != registry.k + 1:
            raise NonSquareError(
                f"expected {registry.k + 1} fields, got {len(row)}", line=line
            )
        if row[0] != names[i]:
            raise NameMismatchError(
                f"row name {_quote(row[0])} does not match header class {_quote(names[i])}", line=line
            )
        for pos, text in enumerate(row[1:], start=2):
            value = _parse_number(_COUNT, int, text, "count", line, pos)
            if value < 0:
                raise NegativeEntryError(f"negative count {_quote(text, value)}", line=line, column=pos)
            if value:
                cells[i, pos - 2] = value
        i += 1
    if i != registry.k:
        raise NonSquareError(
            f"expected {registry.k} data rows, got {i}", line=last_line
        )
    return ConfusionMatrix._proven(registry, cells)  # each cell a positive int at an in-range index pair


def tally_labels(
    path: str, *, delimiter: str = ",", has_header: bool = False
) -> ConfusionMatrix:
    """Tally a label file into a confusion matrix, parsing each distinct line once.

    Read as _steps_or_rows says: in steps by _tally_distinct_lines, in two
    processes from PARALLEL_MIN_BYTES on, which refuses a quoted field that
    runs across lines or a line longer than any valid row; else as the
    stream_labels row stream. Memory stays bounded by the number of distinct
    lines, not by the file's length.
    """
    return from_tally(_steps_or_rows(path, _tally_distinct_lines, _tally_rows, delimiter, has_header))


def _tally_rows(handle: TextIO, delimiter: str, has_header: bool) -> Counter[tuple[str, str]]:
    """The pair counts of a label file's row stream; each error names its line."""
    return Counter(_label_pairs(handle, delimiter, has_header))


def _tally_distinct_lines(
    fd: int, start: int, size: int, delimiter: str, has_header: bool
) -> dict[tuple[str, str], int]:
    """Pair counts of a label file's lines from start: each step's lines counted in C, each distinct one parsed once.

    The lines after a header are read as _read_in_steps reads them; each process's line counts are added.
    """
    longest = 8 * csv.field_size_limit() + 6  # a valid row: 2 fields, a delimiter, 4 bytes a character, a line end
    start = _first_row(fd, start, size, delimiter, longest)[1] if has_header else start  # steps follow a header
    lines: Counter[str] = Counter()
    for counts in _read_in_steps(fd, start, size, _count_lines, _LABEL_STEP, longest):
        lines.update(counts)
    tally: dict[tuple[str, str], int] = {}
    # A quoted field that runs across lines is refused, in any line order: open at the last line, as strict csv's
    # error; else it joins lines, and zip's ValueError refuses the shortfall. So each row is its line's.
    for row, n in zip(csv.reader(lines, delimiter=delimiter, strict=True), lines.values(), strict=True):
        if row:
            pair = _label_pair(row, None)
            tally[pair] = tally.get(pair, 0) + n
    return tally


def _count_lines(steps: Iterable[str]) -> dict[str, int]:
    """How many times each line of texts that each end a line occurs: a plain dict, which marshal sends."""
    lines: Counter[str] = Counter()
    for text in steps:
        lines.update(_split_lines(text))
    return dict(lines)


def read_weights(
    path: str, *, delimiter: str = ",", registry: ClassRegistry | None = None
) -> list[tuple[str, Fraction]]:
    """Read class,weight rows, in file order, as exact fractions: 0.1 is 1/10. Duplicate classes are rejected.

    A weight is a non-negative ASCII decimal (2, 0.1, .5) or ratio (1/3);
    exponents, signs, spaces and non-ASCII digits are rejected. Given a
    registry, a class outside it is rejected at its line.
    """
    out: list[tuple[str, Fraction]] = []
    seen: set[str] = set()
    for line, row in _open_rows(path, delimiter):
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", line=line)
        label, text = row
        if label == "":
            raise EmptyLabelError("empty class name", line=line, column=1)
        if label in seen:
            raise ParseError(f"duplicate weight for class {_quote(label)}", line=line)
        seen.add(label)
        weight = _parse_number(_WEIGHT, Fraction, text, "weight", line, 2)
        if registry is not None and label not in registry:
            raise ParseError(f"weight for unknown class {_quote(label)}", line=line, column=1)
        if weight < 0:
            raise NegativeEntryError(f"negative weight {_quote(text, text)}", line=line, column=2)
        out.append((label, weight))
    return out
