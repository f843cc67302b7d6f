"""Every path that reads an input gives its one stdout, stderr and exit code.

A file's report, error and exit code never depend on which way it was read:
in steps in one process, in two from the claim queue, as the row stream, or
through a pipe; every error names its line, a byte that is not UTF-8
included. conftest.every_path runs one CLI command by each path, in process,
on each case of PATH_CASES, one table of label, probability, matrix and
weights files, and names the path that disagrees. Then the tool runs as it is
shipped, on label and probability files over the split threshold, from a
file, through a pipe and on one CPU. The other tests hold a stalled or
refusing child, a short reply, a file that grows, a named pipe opened once,
SIGINT, and the CPU affinity of a forked label tally.
"""

import csv
import errno
import gc
import io
import json
import marshal
import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

from clfmetrics import claims, ingest, probfile
from clfmetrics.ingest import _SerialOnly
from conftest import CPUS, FEW_BYTES, SHORT_LABELS, default_sigint, every_path, open_descriptors, refused, run, splits

HEADER = b"actual,a,b,c\n"
ROWS = [b"a,0.7,0.2,0.1\n", b"b,0.1,0.8,0.1\n", b"c,0.3,0.3,0.4\n", b"b,0.4,0.4,0.2\n", b"c,0,0,1\n", b"a,0.0,1,0\n"]
BODY = b"".join(ROWS) * 20  # 120 rows
# Over 256 KiB of data, so a piece of it reads several 64 KiB steps.
BIG_BODY = b"".join(ROWS) * 4_000
SMALL_PIECE = 1 << 14  # BIG_BODY holds 21 pieces of this size
LABELS = b"a,b\nb,b\nc,a\n" * 20_000  # 240 KB: 15 pieces of SMALL_PIECE
WIDE_HEADER = b"actual," + b",".join(b"class_with_a_long_name_%04d" % i for i in range(3_000)) + b"\n"


def quote_nonnumeric(data):
    """A file's rows as csv.QUOTE_NONNUMERIC writes them: every label and class name quoted, each number a float."""
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    rows = csv.reader(io.StringIO(data.decode(), newline=""))
    writer.writerow(next(rows))
    writer.writerows([label, *map(float, probs)] for label, *probs in rows)
    return out.getvalue().encode()


# Class a renamed a"x, quoted as csv quotes it, in the header and every row.
QUOTE_HEADER, QUOTE_BODY = (text.replace(b"a,", b'"a""x",') for text in (HEADER, BODY))

# name -> (file bytes, whether each stepped run must complete without falling back, exit code)
CORPUS = {
    "plain": (HEADER + BODY, True, 0),
    "big": (HEADER + BIG_BODY, True, 0),
    "crlf": (HEADER.replace(b"\n", b"\r\n") + BODY.replace(b"\n", b"\r\n"), True, 0),
    "bom": (b"\xef\xbb\xbf" + HEADER + BODY, True, 0),
    # The row stream drops one BOM; the second is part of the header's first cell, which names no class.
    "two_boms": (b"\xef\xbb\xbf" * 2 + HEADER + BODY, True, 0),
    "blank_lines": (HEADER + b"\n" + BODY.replace(b"c,0,0,1\n", b"c,0,0,1\n\n\r\n") + b"\n\n", True, 0),
    "crlf_bom_blank_lines": (b"\xef\xbb\xbf" + (HEADER + b"\n" + BODY + b"\n").replace(b"\n", b"\r\n"), True, 0),
    "no_final_newline": (HEADER + BODY + b"a,0.5,0.25,0.25", True, 0),
    "bom_in_the_data": (HEADER + BODY + b"\xef\xbb\xbfa,0.5,0.5,0\n", False, 2),
    "one_row": (HEADER + ROWS[0], True, 0),
    "lines_longer_than_a_read_step": (
        WIDE_HEADER
        + (b"class_with_a_long_name_0007," + b",".join(b"1" if i == 3 else b"0" * 22 for i in range(3_000)) + b"\n") * 6,
        True,
        0,
    ),
    # Each line is longer than csv.field_size_limit() (131072), but no field is.
    "lines_longer_than_the_field_limit": (
        WIDE_HEADER
        + (b"class_with_a_long_name_0007," + b",".join(b"1" if i == 3 else b"0" * 50 for i in range(3_000)) + b"\n") * 3,
        True,
        0,
    ),
    # csv keeps \x85 and U+2028 inside a field; str.splitlines would end a line at each.
    "unicode_line_breaks_in_a_label": ((HEADER + BODY).replace(b"b,", "b\x85\u2028b,".encode()), True, 0),
    "header_only": (HEADER, True, 2),
    "bad_float_in_the_first_half": (HEADER + b"a,0.5,oops,0.5\n" + BODY, False, 2),
    "bad_float_in_the_second_half": (HEADER + BIG_BODY + b"b,0.5,0.5,oops\n" + BODY, False, 2),
    "bad_float_at_the_end_crlf": ((HEADER + BIG_BODY + b"b,0.5,0.5,oops\n").replace(b"\n", b"\r\n"), False, 2),
    "out_of_range_in_the_second_half": (HEADER + BODY + b"a,1.2,-0.2,0\n", False, 2),
    "nan_in_the_second_half": (HEADER + BODY + b"a,0.5,nan,0.5\n", False, 2),
    "nan_in_the_first_column": (HEADER + b"a,nan,0.5,0.5\n" + BODY, False, 2),
    "nan_in_the_last_column": (HEADER + BODY + b"a,0.5,0.5,nan\n", False, 2),
    # The row's maximum is NaN, which hides the 1.5 from the range check; the row's NaN sum refuses it.
    "nan_before_a_value_above_one": (HEADER + BODY + b"a,nan,1.5,0\n" + BODY, False, 2),
    "inf": (HEADER + BODY + b"a,inf,0,0\n" + BODY, False, 2),
    "sum_just_past_the_tolerance": (HEADER + BODY + b"a,0.5,0.5,1.0000001e-6\n" + BODY, False, 2),
    # On Python 3.10 and 3.11 the first row's plain sum is just past the tolerance and its fsum just inside, and the
    # second's is 1e-6 off exactly: near the edge the block scorer takes the exact sum, as the serial stream does.
    "sums_at_the_tolerance_edge": (
        HEADER + (b"a,0.09026548956892363,0.3429273877975787,0.5668081226334977\nc,0.5,0.5,1e-6\n" + BODY) * 200,
        True,
        0,
    ),
    # The reverse: its plain sum is just inside the tolerance and its fsum just past it.
    "sum_just_inside_the_plain_band": (
        HEADER + (BODY + b"b,0.23362314422711547,0.2890842078803234,0.4772916478925611\n") * 200,
        False,
        2,
    ),
    "nul": (HEADER + BODY + b"a,0.5,0.5,0\x00\n" + BODY, False, 2),
    "sum_off_in_the_second_half": (HEADER + BODY + b"a,0.4,0.4,0.1\n", False, 2),
    "unknown_actual_label": (HEADER + BODY + b"z,0.5,0.5,0\n", False, 2),
    "wrong_field_count": (HEADER + BODY + b"a,0.5,0.5\n", False, 2),
    "undecodable_in_the_second_half": (HEADER + BIG_BODY + b"a,0.5,0.\xff,0.5\n", False, 2),
    "undecodable_header": (b"actual,\xff,b\n" + BODY, False, 2),
    # The row stream decodes the bad byte's block before it parses the bad row, but names the row first.
    "bad_row_before_an_undecodable_byte": (HEADER + ROWS[0] * 4 + b"a,0.5,0.5\n" + ROWS[0] + b"a,\xff,0,1\n", False, 2),
    "oversized_field": (HEADER + BODY + b"a," + b"1" * 200_000 + b",0,0\n", False, 2),
    # A valid number, but longer than csv.field_size_limit(): the serial stream refuses it.
    "valid_oversized_field": (HEADER + BODY + b"a,0.5" + b"0" * 140_000 + b",0.5,0\n" + BODY, False, 2),
    "quote_in_the_first_half": (HEADER + b'"a",0.5,0.5,0\n' + BIG_BODY, True, 0),
    "quote_in_the_second_half": (HEADER + BIG_BODY + b'"b",0.5,0.5,0\n', True, 0),
    "quoted_field_spanning_the_midpoint": (HEADER + BODY + b'a,0.5,0.5,"0\n\n' + BODY + b'"\n' + BODY, False, 2),
    "quoted_header": (b'actual,"a",b,c\n' + BODY, True, 0),
    "all_quoted_as_quote_nonnumeric_writes_it": (quote_nonnumeric(HEADER + BIG_BODY), True, 0),
    "quoted_class_name_with_a_doubled_quote": (QUOTE_HEADER + QUOTE_BODY, True, 0),
    # csv reads a"x bare as itself, but the steps look up only a name with no quote bare.
    "class_name_with_a_quote_written_bare": (QUOTE_HEADER + QUOTE_BODY + b'a"x,0.5,0.5,0\n' + QUOTE_BODY, False, 0),
    # The quoted delimiter gives the line one delimiter too many for the steps' width check.
    "quoted_label_holding_the_delimiter": ((HEADER + BODY).replace(b"a,", b'"a,x",'), False, 0),
    "quoted_header_name_spanning_lines": (b'actual,"a\nx",b,c\n' + BODY.replace(b"a,", b'"a\nx",'), False, 0),
    # The header's open quote runs into the next line, where csv reads on to duplicate class names. A csv reader
    # that is not strict would close the quote at the line end and leave classes a, b, c and a valid first row.
    "header_quote_left_open_at_its_line_end": (b'actual,a,b,"c\n"c",0.5,0.5,0\n' + BODY, False, 2),
    # The header ends at its first CR or LF, and the data starts just past it, as csv reads the file.
    "bare_cr_header": (HEADER.replace(b"\n", b"\r") + BODY, True, 0),
    "bare_cr_rows": (HEADER + BIG_BODY.replace(b"\n", b"\r"), True, 0),
    "bare_cr_only": ((HEADER + BIG_BODY).replace(b"\n", b"\r"), True, 0),
    "header_without_a_line_end": (HEADER.rstrip(), True, 2),
    "crlf_split_across_read_steps": (HEADER + BIG_BODY.replace(b"\n", b"\r\r\n"), True, 0),
    "blank_first_line": (b"\n" + HEADER + BODY, True, 0),
    "blank_lines_past_a_scan_chunk": (b"\r\n" * 3_000 + HEADER + BODY, True, 0),
    "duplicate_class_columns": (b"actual,a,a,c\n" + BODY, False, 2),
    "empty_class_name": (b"actual,a,,c\n" + BODY, False, 2),
    "one_class_header": (b"actual,a\n" + BODY, False, 2),
    "empty": (b"", False, 2),
}

CLEAN_LINES = b"a,b\nb,a\nc,c\n" * 4
# The four ways a quote makes label lines that steps cannot read alone, as in test_ingest's
# test_quotes_that_steps_cannot_read_alone_give_the_row_stream_result, with the exit code of each.
QUOTE_TRAPS = {
    "quote_open_at_the_end": (b'z",w\nx,"y\nz",w\n', 2),
    "quoted_crlf": (b'a,b\n"c","d\r\ne"\na,b\n', 0),
    "header_spanning_lines": (b'"act\nual",x\na,b\na,b\n', 0),
    "text_after_a_closing_quote": (b'a,"b"c\na,b\n"a","b"\n', 0),
}
# name -> (file bytes, whether each stepped run completes, exit code): each a pair, without and with --has-header
LABEL_CASES = {
    "bom_crlf_blank_lines": (b"\xef\xbb\xbf" + b"a,b\r\n\r\nb,a\r\n\n" * 20 + b"c,c", (True, True), (0, 0)),
    "bare_cr": (b"a,b\rb,b\r" * 20, (True, True), (0, 0)),
    "bare_cr_over_many_pieces": (b"h,h\r" + LABELS.replace(b"\n", b"\r"), (True, True), (0, 0)),
    # A first line of 600,000 short fields, longer than any valid label row: a header the row stream skips.
    "header_longer_than_any_valid_row": (b",".join([b"h"] * 600_000) + b"\n" + CLEAN_LINES, (False, False), (2, 0)),
    "header_after_blank_lines": (b"\n\r\n\rh,h\r\n" + CLEAN_LINES + b"\n" + CLEAN_LINES, (True, True), (0, 0)),
    "all_quoted": (CLEAN_LINES.replace(b"a", b'"a"').replace(b"b", b'"b""x"') * 3, (True, True), (0, 0)),
    "header_only": (b"\r\nh,h\r\n", (True, True), (2, 2)),
    "empty": (b"", (True, False), (2, 2)),  # no header in the first step: the row stream finds none either
    **{name: (trap, (False, False), (code, code)) for name, (trap, code) in QUOTE_TRAPS.items()},
    **{
        f"{name}_late": (CLEAN_LINES + trap + CLEAN_LINES, (False, False), (code, code))
        for name, (trap, code) in QUOTE_TRAPS.items()
    },
    "quoted_field_spanning_lines": (b'a,"x\ny,z"\nb,b\n', (False, False), (0, 2)),
    "quote_past_the_first_chunk": (b"a,a\nb,a\n" * 5_000 + b'b,"b"\n', (True, True), (0, 0)),
    "bad_row_past_the_first_chunk": (b"a,b\n" * 10_000 + b"a,b,c\n", (False, False), (2, 2)),
    "bad_row_in_a_small_file": (b"a,a\n,b\n", (False, False), (2, 2)),
    "bom_header_and_clean_rows": (b"\xef\xbb\xbfh,h\n" + b"a,b\nb,a\n\n" * 5_000, (True, True), (0, 0)),
    "undecodable_past_the_first_chunk": (b"a,a\n" * 5_000 + b"\xff,b\n", (False, False), (2, 2)),
    "bad_row_before_an_undecodable_byte": (SHORT_LABELS, (False, False), (2, 2)),
}
FOUR_CLASSES = b",a,b\na,3,1\nb,2,4\n"
# kind -> case -> (input bytes, or a list of them, whether each stepped run completes, exit code), each case run
# with each command of ARGVS[kind] and the input's names after it
PATH_CASES = {
    "probs": CORPUS,
    "labels": LABEL_CASES,
    "matrix": {
        "plain": (FOUR_CLASSES, False, 0),
        "undecodable": (b",a,b\na,1,2\nb,3,\xff\n", False, 2),
        "bad_row_before_an_undecodable_byte": (b",a,b\na,1\nb,3,\xff\n", False, 2),
    },
    "weights": {
        "plain": ([b"a,1\nb,2\n", FOUR_CLASSES], False, 0),
        "undecodable": ([b"a,1\n\xffb,2\n", FOUR_CLASSES], False, 2),
        "bad_weight_before_an_undecodable_byte": ([b"a,x\n\xffb,2\n", FOUR_CLASSES], False, 2),
        "undecodable_matrix": ([b"a,1\nb,2\n", FOUR_CLASSES + b"\xff\n"], False, 2),
    },
}
LABELS_JSON = ["evaluate", "--kind", "labels", "--format", "json"]
ARGVS = {
    "probs": {
        "text": ["evaluate", "--kind", "probs"],
        "json_sum": ["evaluate", "--kind", "probs", "--format", "json", "--reduce", "sum", "--epsilon", "1e-9"],
    },
    "labels": {"json": LABELS_JSON, "has_header": [*LABELS_JSON, "--has-header"]},
    "matrix": {"text": ["evaluate", "--kind", "matrix"]},
    "weights": {"text": ["evaluate", "--kind", "matrix", "--weights"]},  # the weights file, then the matrix
}


def piece_edges(data):
    """The kind of place each piece of a file's data but the first begins at, with the pieces of the split runs."""
    start = re.search(rb"[^\r\n]+[\r\n]?", data).end()  # just past the header's first CR or LF
    piece = claims._pieces(len(data) - start)[0]
    for edge in range(start + piece, len(data), piece):
        pair = data[edge - 1 : edge + 1]
        if pair == b"\r\n":
            yield "between a CR and its LF"
        elif not pair.strip(b"\r\n"):
            yield "in a run of blank lines"
        else:
            yield "on an LF" if b"\n" in pair else "on a CR" if b"\r" in pair else "inside a line"


def test_few_byte_pieces_put_edges_in_every_kind_of_place(monkeypatch):
    monkeypatch.setattr(claims, "_PIECE", FEW_BYTES)
    edges = {kind for data, completes, _ in CORPUS.values() if completes for kind in piece_edges(data)}
    assert edges >= {"inside a line", "on an LF", "between a CR and its LF", "in a run of blank lines"}


VIAS = {"labels": ("steps", "pipe"), "probs": ("steps", "pipe"), "matrix": ("pipe",), "weights": ("pipe",)}


@pytest.mark.parametrize(
    "kind, case, argv, via", [(k, c, a, v) for k in ARGVS for c in PATH_CASES[k] for a in ARGVS[k] for v in VIAS[k]]
)
def test_every_path_gives_one_outcome(tmp_path, kind, case, argv, via):
    """Each case gives the row stream's outcome and its exit code in steps (labels and probabilities) and through a
    pipe, its steps completing by each stepped path, or not; label files are claimed in 1-byte pieces too, and read
    with and without a header row."""
    data, completes, code = PATH_CASES[kind][case]
    if kind == "labels":
        completes, code = completes[argv == "has_header"], code[argv == "has_header"]
    pieces = (1, FEW_BYTES) if kind == "labels" else (FEW_BYTES,)
    outcome, completed = every_path(tmp_path, kind, data, ARGVS[kind][argv], pieces, (via,))
    assert outcome[0] == code
    assert completed == dict.fromkeys(completed, [completes])


@splits
def test_tab_delimited_file_is_split(tmp_path):
    data = (HEADER + BIG_BODY).replace(b",", b"\t")
    outcome, completed = every_path(tmp_path, "probs", data, ["evaluate", "--kind", "probs", "--delimiter", "tab"])
    assert (outcome[0], completed) == (0, dict.fromkeys(completed, [True]))


@splits
def test_compare_splits_each_side(tmp_path):
    data = [HEADER + BIG_BODY, HEADER + BODY + BIG_BODY]
    outcome, completed = every_path(tmp_path, "probs", data, ["compare", "--kind", "probs", "--format", "json"])
    assert (outcome[0], completed) == (0, dict.fromkeys(completed, [True, True]))


@pytest.mark.parametrize("fields", [1, 12], ids=["one_row", "three_rows"])
@pytest.mark.parametrize("case", CORPUS)
def test_row_stream_blocks_of_any_size_give_the_same_run(tmp_path, monkeypatch, case, fields):
    """The row stream's blocks patched to 1 row, the old row-by-row stream, and to 3 rows of a 3-class file.

    So a fault at a block edge, or a bad row before an undecodable byte in the
    same block, is named as with the default blocks.
    """
    path = tmp_path / "p.csv"
    path.write_bytes(CORPUS[case][0])
    argv = [*ARGVS["probs"]["json_sum"], str(path)]
    monkeypatch.setattr(probfile, "score_steps", refused)
    default = run(argv)
    monkeypatch.setattr(probfile, "_BLOCK_FIELDS", fields)
    assert run(argv) == default


def record_claims(tmp_path, monkeypatch, first_claim):
    """Make split runs claim small pieces, each recorded as (process, first byte) where the claim loop reads it.

    first_claim(who, claimed) runs in each process at its first claim, where
    claimed() reads every record so far, from both processes. Returns claimed.
    """
    log = tmp_path / "claims"
    log.touch()
    steps, here, first = ingest._range_steps, os.getpid(), []

    def claimed():
        return [(who, int(begin)) for who, begin in map(str.split, log.read_text().splitlines())]

    def recorded(fd, begin, end, step):
        who = "parent" if os.getpid() == here else "child"
        with open(log, "a") as out:
            out.write(f"{who} {begin}\n")
        if not first:
            first.append(who)
            first_claim(who, claimed)
        return steps(fd, begin, end, step)

    monkeypatch.setattr(ingest, "_range_steps", recorded)
    monkeypatch.setattr(claims, "_PIECE", SMALL_PIECE)
    monkeypatch.setattr(ingest, "PARALLEL_MIN_BYTES", 0)
    return claimed


def hold(until):
    """Wait until until() is true, or 30 s: a wrong claim loop then fails the test's assertions, not the run."""
    deadline = time.monotonic() + 30
    while not until() and time.monotonic() < deadline:
        time.sleep(0.001)


def split_and_rows(monkeypatch, argv):
    """The outcome of a split run, whether it completed, and the outcome of the row stream."""
    score_steps, completed = probfile.score_steps, []

    def counted(*args):
        result = score_steps(*args)
        completed.append(True)
        return result

    monkeypatch.setattr(probfile, "score_steps", counted)
    split = run(argv)
    monkeypatch.setattr(probfile, "score_steps", refused)
    return split, completed == [True], run(argv)


@splits
@pytest.mark.parametrize(
    "stalled, end", [("child", b"\n"), ("parent", b"\n"), ("parent", b"\r")], ids=["child", "parent", "bare_cr"]
)
def test_a_stalled_process_leaves_its_pieces_to_the_other(tmp_path, monkeypatch, stalled, end):
    """While one process holds its first piece, the other claims every other piece; the report is the row stream's.

    The stalled process holds its first piece until every piece is claimed;
    the other holds its own first until the stalled one has claimed, so that
    neither can take every piece before the other starts.
    """
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + BIG_BODY.replace(b"\n", end))
    pieces = -(-len(BIG_BODY) // SMALL_PIECE)

    def first_claim(who, claimed):
        hold((lambda: len(claimed()) == pieces) if who == stalled else (lambda: stalled in dict(claimed())))

    claimed = record_claims(tmp_path, monkeypatch, first_claim)
    split, completed, rows = split_and_rows(monkeypatch, ["evaluate", "--kind", "probs", "--format", "json", str(path)])
    assert (split, completed) == (rows, True)
    begins = {"child": set(), "parent": set()}
    for who, begin in claimed():
        begins[who].add(begin)
    other = "parent" if stalled == "child" else "child"
    assert (len(begins[stalled]), len(begins[other]), len(begins[stalled] | begins[other])) == (1, pieces - 1, pieces)


@splits
def test_a_refusal_in_the_child_leaves_the_parent_no_piece_to_claim(tmp_path, monkeypatch):
    """A child whose piece is refused claims the pieces left, so the parent falls back without scoring them.

    The child refuses only once the parent has claimed its first piece, or it
    could drain the queue before the parent claims any; the parent holds that
    piece until the child has exited, unreaped.
    """
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + BIG_BODY)

    def first_claim(who, claimed):
        if who == "child":
            hold(lambda: "parent" in dict(claimed()))
            raise _SerialOnly("refused")
        hold(lambda: os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None)

    claimed = record_claims(tmp_path, monkeypatch, first_claim)
    split, completed, rows = split_and_rows(monkeypatch, ["evaluate", "--kind", "probs", str(path)])
    assert (split, completed) == (rows, False)
    assert sorted(who for who, _ in claimed()) == ["child", "parent"]


def test_the_indices_of_a_terabyte_fit_in_one_pipe_page():
    """A pipe past its user's quota holds one 4 KiB page: more indices would block their write before the fork."""
    piece, indices = claims._pieces(1 << 40)
    count = len(indices) // 4
    assert count <= 1024 and len(indices) <= 4096
    assert (count - 1) * piece < 1 << 40 <= count * piece
    assert indices[-4:] == (count - 1).to_bytes(4, "little")


@splits
def test_a_short_reply_from_the_child_falls_back(tmp_path, monkeypatch):
    class Truncating:
        dumps = staticmethod(lambda value: marshal.dumps(value)[:-3])
        loads = staticmethod(marshal.loads)

    monkeypatch.setattr(claims, "marshal", Truncating)
    outcome, completed = every_path(tmp_path, "probs", HEADER + BIG_BODY, ["evaluate", "--kind", "probs"])
    assert (outcome[0], completed) == (0, {"steps in one process": [True], "the claim queue in 5-byte pieces": [False]})


@splits
@pytest.mark.parametrize("threshold", [1 << 62, 0], ids=["steps", "split"])
def test_a_file_that_grows_while_read_in_steps_is_read_whole(tmp_path, monkeypatch, threshold):
    """A row appended after this process's first step is scored: the stepped run gives up for the row stream."""
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + BIG_BODY)
    steps, here, grown = ingest._range_steps, os.getpid(), []

    def growing(*args):  # called once for each piece claimed
        for text in steps(*args):
            yield text
            if not grown and os.getpid() == here:  # not in a forked child
                grown.append(True)
                with open(path, "ab") as tail:
                    tail.write(b"a,0.5,0.5,0\n")

    monkeypatch.setattr(ingest, "_range_steps", growing)
    monkeypatch.setattr(ingest, "PARALLEL_MIN_BYTES", threshold)
    grown = run(["evaluate", "--kind", "probs", str(path)])
    assert "units: 24001\n" in grown[1]
    monkeypatch.setattr(probfile, "score_steps", refused)
    assert grown == run(["evaluate", "--kind", "probs", str(path)])


@splits
def test_a_named_pipe_is_opened_once(tmp_path):
    """The split path must not open a named pipe: data written to that first reader would be lost."""
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)
    code = (
        "import sys; from clfmetrics import ingest; ingest.PARALLEL_MIN_BYTES = 0; from clfmetrics.cli import main; "
        "sys.exit(main(['evaluate', '--kind', 'probs', sys.argv[1]]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(probfile.__file__)))
    cli = subprocess.Popen([sys.executable, "-c", code, str(fifo)], stdout=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while True:  # a non-blocking open fails until the tool has opened the pipe to read
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as exc:
                if exc.errno != errno.ENXIO or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        os.set_blocking(writer, True)
        with open(writer, "wb") as pipe:
            pipe.write(HEADER + BODY)
        out, _ = cli.communicate(timeout=60)
    finally:
        cli.kill()
        cli.wait()
        cli.stdout.close()
    assert cli.returncode == 0
    assert b"classes (3): a, b, c" in out


# Run as a script on a file of a kind: a split run in which each process waits before its first step, so that a signal
# finds both at work. After main returns, it writes its code, whether a child is left unreaped and whether its
# descriptors and CPU affinity are those it started with to the file named by its third argument, and exits with the
# code.
HELD_SPLIT = """
import json, os, sys, time
from clfmetrics import ingest
from clfmetrics.cli import main

steps = ingest._range_steps

def held(*args):
    time.sleep(60)
    yield from steps(*args)

ingest._range_steps, ingest.PARALLEL_MIN_BYTES = held, 0
before = sorted(os.listdir("/proc/self/fd")), os.sched_getaffinity(0)
code = main(["evaluate", "--kind", sys.argv[2], sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
    unreaped = True
except ChildProcessError:
    unreaped = False
same = (sorted(os.listdir("/proc/self/fd")), os.sched_getaffinity(0)) == before
with open(sys.argv[3], "w") as out:
    json.dump([code, unreaped, same], out)
sys.exit(code)
"""


@splits
@pytest.mark.skipif(
    not os.path.exists(f"/proc/self/task/{os.getpid()}/children"), reason="needs /proc/<pid>/task/<tid>/children"
)
@pytest.mark.parametrize("kind", ["probs", "labels"])
def test_sigint_during_a_split_run_exits_130_and_leaves_no_child_or_descriptor(tmp_path, kind):
    path = tmp_path / "input.csv"
    path.write_bytes(HEADER + BIG_BODY if kind == "probs" else LABELS)
    after = tmp_path / "after.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(probfile.__file__)))
    argv = [sys.executable, "-c", HELD_SPLIT, str(path), kind, str(after)]
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(argv, env=env, start_new_session=True, preexec_fn=default_sigint, **pipes) as cli:
        try:
            deadline = time.monotonic() + 60
            with open(f"/proc/{cli.pid}/task/{cli.pid}/children") as children:
                while not children.read().split():  # the fork has not happened yet
                    assert time.monotonic() < deadline, "the run never forked"
                    time.sleep(0.01)
                    children.seek(0)
            os.killpg(cli.pid, signal.SIGINT)  # its group alone: the tool and its forked child
            code = cli.wait(timeout=60)
        finally:
            cli.kill()
        assert (code, cli.stdout.read(), cli.stderr.read()) == (130, b"", b"")
    assert json.loads(after.read_text()) == [130, False, True]


def split_threshold_files():
    """name -> (bytes of about 1 to 2 MB, over the 1 MiB split threshold, the arguments after evaluate, exit code)."""
    rng = random.Random(7)
    names = [f"c{i}" for i in range(10)]
    rows = []
    for _ in range(10_000):
        weights = [rng.random() for _ in names]
        total = sum(weights)
        rows.append(rng.choice(names) + "," + ",".join(repr(w / total) for w in weights) + "\r\n")
    header = "actual," + ",".join(names) + "\r\n"
    body, last = "".join(rows[:-3]), "".join(rows[-3:])
    probs = ["--kind", "probs"]
    files = {
        "split": (header + body + last, probs, 0),
        "split-bad": (header + body + "c1,oops" + ",0.1" * 9 + "\r\n" + last, probs, 2),
        "split-cr": (header + (body + last).replace("\r\n", "\r"), probs, 0),
        "split-tab": ((header + body + last).replace(",", "\t"), [*probs, "--delimiter", "tab"], 0),
        # A valid number longer than csv.field_size_limit().
        "split-long": (header + body + "c1,0.1" + "0" * 140_000 + ",0.1" * 9 + "\r\n" + last, probs, 2),
    }
    # Label files with a header, written with a byte-order mark: about 1 MB, or 1.2 MB all distinct.
    rng, rows = random.Random(11), []
    for i in range(150_000):  # two classes first appear in the last rows
        pool = names + ["late1", "late2"] if i > 149_000 else names
        rows.append(rng.choice(pool) + "," + rng.choice(pool) + ("\r\n" if i % 3 else "\n") + "\n" * (i % 97 == 0))
    quoted = ['"' + row.rstrip("\r\n").replace(",", '","') + '"' + row[len(row.rstrip("\r\n")) :] for row in rows]
    bodies = {
        "labels": (rows, 0),
        "labels-quoted": (quoted, 0),
        "labels-distinct": ([f"c{i % 1000},c{(i // 1000 + i) % 1000}\n" for i in range(100_000)], 0),
        "labels-bad": (rows[:-5] + ["c1,c2,c3\n"] + rows[-5:], 2),
    }
    for name, (body, code) in bodies.items():
        files[name] = ("\ufeffactual,predicted\r\n" + "".join(body), ["--kind", "labels", "--has-header"], code)
    return {name: (text.encode(), args, code) for name, (text, args, code) in files.items()}


SPLIT_THRESHOLD_FILES = split_threshold_files()


# Run as a script with the CLI's arguments: pins itself to one CPU, then runs the tool as `python -m clfmetrics` does.
ONE_CPU = (
    "import os, runpy; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    "runpy.run_module('clfmetrics', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize("name", SPLIT_THRESHOLD_FILES)
def test_a_file_read_as_stdin_gives_the_pipe_run(tmp_path, name):
    """From a file, /dev/stdin is a regular file, read in steps and perhaps split; a pipe takes the row stream.

    A third run reads the file on one CPU, so in steps in one process. Without
    two CPUs the first run is not split either, and the test still holds.
    """
    data, args, code = SPLIT_THRESHOLD_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "clfmetrics", "evaluate", "--format", "json", *args, "/dev/stdin"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(probfile.__file__)))
    with open(path, "rb") as stdin:
        from_file = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=120)
    through_pipe = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=120)
    runs = [from_file, through_pipe]
    if hasattr(os, "sched_setaffinity"):
        with open(path, "rb") as stdin:
            one_cpu = [sys.executable, "-c", ONE_CPU, *argv[3:]]
            runs.append(subprocess.run(one_cpu, stdin=stdin, capture_output=True, env=env, timeout=120))
    outcomes = [(each.stdout, each.stderr, each.returncode) for each in runs]
    assert outcomes[1:] == outcomes[:1] * (len(runs) - 1)
    assert from_file.returncode == code


def record_affinity(tmp_path, monkeypatch, refuse=False):
    """Record each process's os.sched_setaffinity masks, sorted; refuse=True makes each call fail as a kernel may.

    Returns a function that reads the records as {process: [mask, ...]}.
    """
    calls, here, set_affinity = tmp_path / "affinity", os.getpid(), os.sched_setaffinity
    calls.touch()

    def recorded(pid, mask):
        with open(calls, "a") as out:
            out.write(json.dumps(["parent" if os.getpid() == here else "child", sorted(mask)]) + "\n")
        if refuse:
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        set_affinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)

    def masks():
        out = {"child": [], "parent": []}
        for who, mask in map(json.loads, calls.read_text().splitlines()):
            out[who].append(mask)
        return out

    return masks


@splits
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("fault", ["none", "child_refusal", "short_reply", "affinity_refused"])
def test_a_forked_label_tally_moves_the_child_and_restores_the_affinity(tmp_path, monkeypatch, fault):
    """The parent waits on its first CPU across the fork, and the child moves off it; then both may use every CPU.

    Whatever fails, the report is the row stream's, and the run leaves this
    process's CPU affinity, children and descriptors as it found them. A
    refused sched_setaffinity changes nothing else: the run still completes
    in two processes.
    """
    path = tmp_path / "l.csv"
    path.write_bytes(LABELS)
    argv = ["evaluate", "--kind", "labels", "--format", "json", str(path)]
    monkeypatch.setattr(ingest, "_tally_distinct_lines", refused)
    rows = run(argv)
    monkeypatch.undo()
    masks = record_affinity(tmp_path, monkeypatch, refuse=fault == "affinity_refused")
    monkeypatch.setattr(ingest, "PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(claims, "_PIECE", SMALL_PIECE)
    if fault == "child_refusal":
        steps, here = ingest._range_steps, os.getpid()
        monkeypatch.setattr(ingest, "_range_steps", lambda *args: steps(*args) if os.getpid() == here else refused())
    if fault == "short_reply":

        class Truncating:
            dumps = staticmethod(lambda value: marshal.dumps(value)[:-3])
            loads = staticmethod(marshal.loads)

        monkeypatch.setattr(claims, "marshal", Truncating)
    tally_distinct_lines, completed = ingest._tally_distinct_lines, []

    def counted(*args):
        result = tally_distinct_lines(*args)
        completed.append(True)
        return result

    monkeypatch.setattr(ingest, "_tally_distinct_lines", counted)
    gc.collect()  # or an earlier test's garbage, collected mid-run, may close a descriptor off the snapshot
    before = open_descriptors(), os.sched_getaffinity(0)
    assert run(argv) == rows
    assert (open_descriptors(), os.sched_getaffinity(0)) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert completed == ([True] if fault in ("none", "affinity_refused") else [])
    first, every = [min(CPUS)], sorted(CPUS)
    assert masks() == {"parent": [first, every], "child": [sorted(CPUS - {min(CPUS)}), every]}
