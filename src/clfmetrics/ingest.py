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

Every reader takes UTF-8 text (LF or CRLF, with or without a byte-order
mark), and every error carries the 1-based line number it was raised on,
save a byte that is not UTF-8 in input that cannot be read twice, such as a
pipe. The row streams open their file once and read it once. Two readers may
read a file that can be read twice a second time, from the start, as that
row stream: tally_labels, after its one counting pass over the lines gives
up (on a quote, looked for in the first 16K characters first, or on a bad
row), and score_probs, after scoring two halves of a large regular file in
two processes gives up. A file with a byte that is not UTF-8 is decoded
again to find its line.
"""

from __future__ import annotations

import codecs
import csv
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import starmap
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

from .confusion import ClassRegistry, ConfusionMatrix, UnknownLabelError, from_pairs, from_tally
from .proba import ProbRecord, XentOptions, score_pairs, score_tally

_Number = TypeVar("_Number", int, Fraction)
# The only number forms read, in ASCII digits. A minus sign passes the grammar so
# that a negative value meets its own, clearer error further on.
_COUNT = re.compile(r"-?[0-9]+")
# Each digit run has one place to go, so a failed match backtracks in linear time.
_WEIGHT = re.compile(r"-?(?:[0-9]+(?:\.[0-9]+|/[0-9]+)?|\.[0-9]+)")  # 2, 0.1, .5 or 1/3
# Bytes decoded per step while looking for the first invalid UTF-8 byte of a file.
_RESCAN_CHUNK = 1 << 16


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
    bounded chunks, to find the first bad byte and count the lines before it.
    """
    line = None
    if handle.seekable():
        raw = handle.buffer
        raw.seek(0)
        decoder = codecs.getincrementaldecoder("utf-8")()
        newlines = 0
        while True:
            chunk = raw.read(_RESCAN_CHUNK)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as found:  # its object is this chunk, after any bytes of a split character
                exc, line = found, newlines + 1 + found.object.count(b"\n", 0, found.start)
                break
            if not chunk:
                break
            newlines += chunk.count(b"\n")
    return ParseError(f"input is not valid UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})", line=line)


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


def read_labels(
    path: str, *, delimiter: str = ",", has_header: bool = False
) -> list[tuple[str, str]]:
    """Read a label file into a list of (actual, predicted) pairs, in file order."""
    return list(stream_labels(path, delimiter=delimiter, has_header=has_header))


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


def stream_probs(path: str, *, delimiter: str = ",") -> tuple[ClassRegistry, Iterator[ProbRecord]]:
    """Open a probability file: the header registry plus a lazy record stream.

    The stream reads the file once and holds one record at a time, so
    hardening and cross-entropy run in memory bounded by the distinct (actual,
    predicted) pairs, not by N. Each row is parsed and vetted once, by the row
    loop score_probs also runs, before it becomes a ProbRecord; its errors
    carry the line and the first bad field's column.
    """
    rows = _open_rows(path, delimiter)
    registry = _read_header(rows)[1]
    return registry, starmap(ProbRecord._from_checked, _prob_rows(rows, registry))


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
    os.pread, so no file offset is shared. The child sends back its tally and
    its exact cross-entropy sum, which add to the serial result bit for bit. A
    quote in either half, any error in either process, or a short reply from
    the child ends the child and scores the file serially from its first
    byte, so every error is the serial stream's, with its line. Either way
    each process holds the distinct (actual, predicted) pairs, not the rows.
    """
    from .halves import score_halves  # its own module: runs on other kinds neither compile nor load it

    halves = score_halves(path, delimiter, options.epsilon)
    if halves is not None:
        return score_tally(*halves, options)
    rows = _open_rows(path, delimiter)
    registry = _read_header(rows)[1]
    return score_tally(registry, score_pairs(_prob_rows(rows, registry), options.epsilon), options)


def read_probs(path: str, *, delimiter: str = ",") -> tuple[ClassRegistry, list[ProbRecord]]:
    """Read a probability file eagerly: (registry, records)."""
    registry, records = stream_probs(path, delimiter=delimiter)
    return registry, list(records)


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

    One pass counts the file's lines in C, then each distinct line is parsed
    once and its count added to its pair, so memory stays bounded by the
    number of distinct lines, not by the file's length. A file this cannot
    read line by line (one with a quote, which may open a field spanning
    lines, a row error, an oversized field or an undecodable byte) is read
    again from the start as the stream_labels row stream, which names the
    fault with its line; the first 16K characters are checked for a quote
    before the rest is counted, so a file that quotes its fields gives up
    early. So is any input that cannot be read twice, such as a pipe, from
    its first byte.
    """
    with _open_text(path) as handle:
        if handle.seekable():
            tally = _tally_distinct_lines(handle, delimiter, has_header)
            if tally is not None:
                return from_tally(tally)
            handle.seek(0)
        return from_pairs(_label_pairs(handle, delimiter, has_header))


def _tally_distinct_lines(handle: TextIO, delimiter: str, has_header: bool) -> dict[tuple[str, str], int] | None:
    """Pair counts of a label file whose every line parses alone to a valid row or a blank, else None."""
    try:
        if has_header:
            next(filter(None, csv.reader(handle, delimiter=delimiter)), None)
        lines: Counter[str] = Counter()
        # The first 16K characters, then the rest: a file that quotes its fields mostly shows it early.
        for block in (handle.readlines(1 << 14), handle):
            lines.update(block)
            if '"' in "".join(lines):
                return None
        tally: dict[tuple[str, str], int] = {}
        # Without quotes every line is a CSV row of its own.
        for row, n in zip(csv.reader(lines, delimiter=delimiter), lines.values()):
            if row:
                pair = _label_pair(row, None)
                tally[pair] = tally.get(pair, 0) + n
    except (IngestError, csv.Error, UnicodeDecodeError):
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
