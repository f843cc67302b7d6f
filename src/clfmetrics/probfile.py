"""Score a probability file in blocks of whole lines: its step scorer and its row stream.

score_steps and _score_rows, the step reader and the row stream that ingest._steps_or_rows runs for score_probs,
are in a module of their own so that only a probability run compiles and loads them. score_steps takes the header
from ingest._first_row and the data from ingest._read_in_steps, in one process or from its claim queue in two. Each
step's fields, quoted labels read as csv reads them, are scored as one block by proba.score_block, or refused with
_SerialOnly; the row stream alone names errors, walking a refused block row by row.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from itertools import chain, islice, repeat
from typing import Iterable, NoReturn, TextIO

from .confusion import ClassRegistry
from .ingest import IngestError, ParseError, ProbSumOutOfToleranceError, UnknownActualLabelError, _first_row
from .ingest import _quote, _rows, _read_header, _read_in_steps, _SerialOnly, _split_lines
from .proba import _BLOCK_FIELDS, PROB_SUM_TOLERANCE, Scores, score_block

# Bytes per read step of a probability file; larger steps only raise peak memory.
_PROB_STEP = 1 << 16


def score_steps(fd: int, start: int, size: int, delimiter: str, epsilon: float) -> tuple[ClassRegistry, Scores]:
    """The registry and scores of a probability file's bytes start..size, or _SerialOnly: the scores of each process
    that ingest._read_in_steps reads the data in, added."""
    header, start = _first_row(fd, start, size, delimiter)
    registry = _read_header(iter([(1, header)]))[1]
    parts = _read_in_steps(fd, start, size, lambda steps: _score_steps(steps, registry, delimiter, epsilon), _PROB_STEP)
    tally: Counter[tuple[int, int]] = Counter()
    for part, _ in parts:
        tally.update(part)
    return registry, (tally, sum(total for _, total in parts))


def _score_steps(steps: Iterable[str], registry: ClassRegistry, delimiter: str, epsilon: float) -> Scores:
    """The scores of texts that each end a line, as the row stream gives them, or _SerialOnly; a tally marshal sends."""
    index = {name: i for name, i in registry._index.items() if '"' not in name}  # each name bare, if it holds none
    index.update(('"' + name.replace('"', '""') + '"', i) for name, i in registry._index.items())  # and quoted, as csv
    tally: Counter[tuple[int, int]] = Counter()
    total = sum(_score_step(text, index, registry.k, delimiter, epsilon, tally) for text in steps)
    return dict(tally), total


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


def _score_rows(handle: TextIO, delimiter: str, epsilon: float) -> tuple[ClassRegistry, Scores]:
    """The registry and scores of a probability file's row stream, in blocks of rows; each error names its line."""
    rows = _rows(handle, delimiter)
    registry = _read_header(rows)[1]
    k, tally, total = registry.k, Counter(), 0
    while True:
        block: list[tuple[int, list[str]]] = []
        try:
            block.extend(islice(rows, max(1, _BLOCK_FIELDS // (k + 1))))  # keeps the rows read before a fault
        except IngestError as fault:
            _raise_a_bad_row(block, registry, fault)  # a bad row before the fault is named first
        if not block:
            return registry, (tally, total)
        try:
            if {len(row) for _, row in block} != {k + 1}:
                raise ValueError("a row of the wrong width")
            total += score_block([*chain.from_iterable(row for _, row in block)], registry._index, k, epsilon, tally)
        except (KeyError, ValueError):
            _raise_a_bad_row(block, registry, ParseError("rows refused, but none is bad", line=block[0][0]))


def _raise_a_bad_row(block: list[tuple[int, list[str]]], registry: ClassRegistry, fault: IngestError) -> NoReturn:
    """Raise the IngestError of a block's first bad probability row, with its line and first bad field, else fault."""
    for line, row in block:
        if len(row) != registry.k + 1:
            raise ParseError(f"expected {registry.k + 1} fields, got {len(row)}", line=line)
        if row[0] not in registry:
            raise UnknownActualLabelError(f"actual label {_quote(row[0])} is not a header class", line=line)
        for pos, text in enumerate(row[1:], start=2):
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad probability {_quote(text)}", line=line, column=pos) from None
            if not 0.0 <= value <= 1.0:
                raise ParseError(f"probability {value!r} outside [0, 1]", line=line, column=pos)
        total = math.fsum(map(float, row[1:]))
        if abs(total - 1.0) > PROB_SUM_TOLERANCE:
            raise ProbSumOutOfToleranceError(f"probabilities sum to {total!r}", line=line, total=total)
    raise fault
