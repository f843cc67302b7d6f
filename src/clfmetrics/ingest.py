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

Every reader takes UTF-8 text (LF or CRLF, with or without a byte-order
mark), and every error carries the 1-based line number it was raised on,
counting LF, CR and CRLF as one line end each, as csv does, save a byte that
is not UTF-8 in input that cannot be read twice, such as a pipe. The row
streams open their file once and read it once. Two readers may read a file
that can be read twice a second time, from the start, as that row stream:
tally_labels, after its count of the lines, read in steps, gives up (on a
quote or a bad row), and score_probs, after scoring two halves of a large
regular file in two processes gives up. A file with a byte that is not UTF-8
is decoded again to find its line.
"""

from __future__ import annotations

import codecs
import csv
import math
import os
import re
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

from .confusion import ClassRegistry, ConfusionMatrix, UnknownLabelError, from_pairs, from_tally
from .proba import ProbRecord, XentOptions, score_pairs, score_tally

_Number = TypeVar("_Number", int, Fraction)
# The only number forms read, in ASCII digits. A minus sign passes the grammar so
# that a negative value meets its own, clearer error further on.
_COUNT = re.compile(r"-?[0-9]+")
# Each digit run has one place to go, so a failed match backtracks in linear time.
_WEIGHT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+|/[0-9]+)?|\.[0-9]+)")  # 2, 0.1, .5 or 1/3
# Bytes per read while scanning a file for a line end or for its first invalid UTF-8 byte.
_RESCAN_CHUNK = 1 << 16
# Bytes per read step of a label file; larger steps only raise peak memory.
_LABEL_STEP = 1 << 14


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
    raise ParseError(f"bad {what} {text!r}", line=line, column=column)


def _open_text(path: str) -> TextIO:
    return open(path, "r", encoding="utf-8-sig", newline="")  # drops a leading BOM


def _rows(handle: TextIO, delimiter: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank CSV rows of an open file, each with its 1-based line number."""
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:  # an oversized field, say
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise _undecodable(handle, exc) from None


def _undecodable(handle: TextIO, exc: UnicodeDecodeError) -> ParseError:
    """Name the first invalid UTF-8 byte of an open file, with its line if the file can be read again.

    The decoder's error counts its position from the start of its own block,
    so a seekable file's raw bytes are decoded again from the start, in
    bounded chunks, to find the first bad byte and count the line ends before
    it as csv does: LF, CR and CRLF, one each, even a CRLF split by a chunk.
    """
    line = None
    if handle.seekable():
        raw = handle.buffer
        raw.seek(0)
        decoder = codecs.getincrementaldecoder("utf-8")()
        ends, cr = 0, False  # cr: the last chunk ended in a CR, so an LF that starts this one ends no line
        while True:
            chunk = raw.read(_RESCAN_CHUNK)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as found:  # its object is this chunk, after any bytes of a split character
                head = found.object[: found.start]
                exc, line = found, ends + 1 + _line_ends(head) - (cr and head.startswith(b"\n"))
                break
            if not chunk:
                break
            ends += _line_ends(chunk) - (cr and chunk.startswith(b"\n"))
            cr = chunk.endswith(b"\r")
    return ParseError(f"input is not valid UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})", line=line)


def _line_ends(data: bytes) -> int:
    """The line ends in data as csv counts them: LF, CR and CRLF, one each."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _line_end(fd: int, start: int, end: int) -> int:
    """The offset just past the first newline at or after start, else end."""
    while start < end:
        block = os.pread(fd, _RESCAN_CHUNK, start)
        if not block:
            raise _SerialOnly("the file shrank")
        found = block.find(b"\n")
        if found >= 0:
            return start + found + 1
        start += len(block)
    return end


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


def _prob_row_error(row: list[str], line: int) -> IngestError:
    """Say why a probability row was rejected: its first bad field, else its sum."""
    for pos, text in enumerate(row[1:], start=2):
        try:
            value = float(text)
        except ValueError:
            return ParseError(f"bad probability {text!r}", line=line, column=pos)
        if not 0.0 <= value <= 1.0:
            return ParseError(f"probability {value!r} outside [0, 1]", line=line, column=pos)
    total = math.fsum(map(float, row[1:]))
    return ProbSumOutOfToleranceError(f"probabilities sum to {total!r}", line=line, total=total)


def _prob_rows(
    rows: Iterable[tuple[int | None, list[str]]], registry: ClassRegistry
) -> Iterator[tuple[int, tuple[float, ...]]]:
    """(true class index, probabilities) of each data row, vetted by ProbRecord.check_probs.

    A bad row raises its IngestError, with its line and its first bad field.
    """
    k = registry.k
    check_probs = ProbRecord.check_probs
    for line, row in rows:
        if len(row) != k + 1:
            raise ParseError(f"expected {k + 1} fields, got {len(row)}", line=line)
        try:
            true = registry.index(row[0])
        except UnknownLabelError:
            raise UnknownActualLabelError(f"actual label {row[0]!r} is not a header class", line=line) from None
        try:
            probs = tuple(map(float, row[1:]))
            check_probs(probs)
        except ValueError:  # a bad float, or InvalidRecordError
            raise _prob_row_error(row, line) from None
        yield true, probs


def score_probs(
    path: str, *, delimiter: str = ",", options: XentOptions = XentOptions()
) -> tuple[ConfusionMatrix, float]:
    """The hardened matrix and the dataset cross-entropy of a probability file.

    A regular file of at least halves.PARALLEL_MIN_BYTES is scored in two
    processes when os.fork exists, the process may run on two CPUs and runs no
    other thread, and the file's first line is its header with no quote and no
    bare carriage return. The data after the header is split at the first
    newline after its midpoint, and a forked child scores the second half
    while this process scores the first; each reads its own byte range with
    os.pread, so no file offset is shared, in steps of whole lines, and
    scores each step as one block of C-level passes rather than row by row.
    A block is accepted only when it gives exactly the serial stream's rows.
    The child sends back its tally and its exact_sum_steps total, which add
    to the serial result bit for bit. A refused block (a quote, a NUL, a field
    past the csv limit, or any row the serial stream would reject) in either
    half, any other error in either process, or a short reply from the child
    ends the child and scores the file serially from its first byte, so every
    error is the serial stream's, with its line. Either way each process holds
    the distinct (actual, predicted) pairs, not the rows.
    """
    from .halves import score_halves  # its own module: runs on other kinds neither compile nor load it

    halves = score_halves(path, delimiter, options.epsilon)
    if halves is not None:
        return score_tally(*halves, options)
    rows = _open_rows(path, delimiter)
    registry = _read_header(rows)[1]
    return score_tally(registry, score_pairs(_prob_rows(rows, registry), options.epsilon), options)


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
                f"row name {row[0]!r} does not match header class {names[i]!r}", line=line
            )
        for pos, text in enumerate(row[1:], start=2):
            value = _parse_number(_COUNT, int, text, "count", line, pos)
            if value < 0:
                raise NegativeEntryError(f"negative count {value}", line=line, column=pos)
            if value:
                cells[i, pos - 2] = value
        i += 1
    if i != registry.k:
        raise NonSquareError(
            f"expected {registry.k} data rows, got {i}", line=last_line
        )
    return ConfusionMatrix(registry, cells)


def tally_labels(
    path: str, *, delimiter: str = ",", has_header: bool = False
) -> ConfusionMatrix:
    """Tally a label file into a confusion matrix, parsing each distinct line once.

    A file that can be read twice is read in steps of whole lines, each split
    into lines in C and counted, then each distinct line is parsed once and
    its count added to its pair, so memory stays bounded by the number of
    distinct lines, not by the file's length. A file this cannot read line by
    line (one with a quote, which may open a field spanning lines, a row
    error, an oversized field or an undecodable byte, or one that shrinks
    while read) is read again from the start as the stream_labels row stream,
    which names the fault with its line. So is any input that cannot be read
    twice, such as a pipe, from its first byte, and any file where os.pread
    is missing.
    """
    with _open_text(path) as handle:
        by_steps = handle.seekable() and hasattr(os, "pread")
        tally = _tally_distinct_lines(handle.fileno(), delimiter, has_header) if by_steps else None
        if tally is not None:
            return from_tally(tally)
        return from_pairs(_label_pairs(handle, delimiter, has_header))


def _tally_distinct_lines(fd: int, delimiter: str, has_header: bool) -> dict[tuple[str, str], int] | None:
    """Pair counts of a label file whose every line parses alone to a valid row or a blank, else None."""
    size, bom = os.fstat(fd).st_size, os.pread(fd, 3, 0) == codecs.BOM_UTF8
    lines: Counter[str] = Counter()
    longest = 8 * csv.field_size_limit() + 6  # a valid row: 2 fields, a delimiter, 4 bytes a character, a line end
    try:
        for text in _range_steps(fd, 3 * bom, size, _LABEL_STEP, longest):
            if '"' in text:
                return None
            lines.update(_split_lines(text))
        if os.pread(fd, 1, size):  # the file grew, or its size is not its length
            return None
        # Without quotes every line is a CSV row of its own: the header is the first non-blank line.
        header = next(filter(None, lines), None) if has_header else None
        if header is not None:
            lines[header] -= 1
            if not lines[header]:
                del lines[header]
        tally: dict[tuple[str, str], int] = {}
        for row, n in zip(csv.reader(lines, delimiter=delimiter), lines.values()):
            if row:
                pair = _label_pair(row, None)
                tally[pair] = tally.get(pair, 0) + n
    except (IngestError, _SerialOnly, csv.Error, UnicodeDecodeError):
        return None
    return tally


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
            raise ParseError(f"duplicate weight for class {label!r}", line=line)
        seen.add(label)
        weight = _parse_number(_WEIGHT, Fraction, text, "weight", line, 2)
        if registry is not None and label not in registry:
            raise ParseError(f"weight for unknown class {label!r}", line=line, column=1)
        if weight < 0:
            raise NegativeEntryError(f"negative weight {text}", line=line, column=2)
        out.append((label, weight))
    return out
