"""Tests for the three CSV readers and their error reporting."""

import csv
import errno
import os
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmetrics import (
    ClassRegistry,
    EmptyLabelError,
    IngestError,
    NameMismatchError,
    NegativeEntryError,
    NonSquareError,
    ParseError,
    ProbRecord,
    ProbSumOutOfToleranceError,
    UnknownActualLabelError,
    XentOptions,
    from_pairs,
    read_matrix,
    read_weights,
    score_probs,
    stream_labels,
    tally_labels,
    ingest,
    xent_unit,
)
from conftest import SHORT_LABELS, every_path, splits, through_a_pipe


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def outcome(read):
    """What read() returns, or the type, text, line and column of the error it raises."""
    try:
        return read()
    except (IngestError, ValueError) as exc:  # ValueError: too few classes
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def assert_tally_matches_stream(path, **kwargs):
    """tally_labels gives the matrix, or the error, that tallying stream_labels gives."""
    fast = outcome(lambda: tally_labels(path, **kwargs))
    assert fast == outcome(lambda: from_pairs(stream_labels(path, **kwargs)))
    return fast


class TestReadLabels:
    """Each case that reads a file also checks that tally_labels agrees with tallying the row stream."""

    def test_three_rows_no_header(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\na,b\nb,b\n")
        assert list(stream_labels(path)) == [("a", "a"), ("a", "b"), ("b", "b")]
        assert_tally_matches_stream(path)

    def test_header_skipped_when_requested(self, tmp_path):
        path = write(tmp_path, "l.csv", "actual,predicted\na,a\n")
        assert list(stream_labels(path, has_header=True)) == [("a", "a")]
        # without the flag the header row is data
        assert list(stream_labels(path))[0] == ("actual", "predicted")
        assert_tally_matches_stream(path)
        assert_tally_matches_stream(path, has_header=True)  # one class left: the same error
        path = write(tmp_path, "l2.csv", "actual,predicted\na,a\nb,a\n")
        assert_tally_matches_stream(path, has_header=True)

    def test_three_fields_is_a_parse_error_with_line(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\na,b,c\n")
        with pytest.raises(ParseError) as err:
            list(stream_labels(path))
        assert err.value.line == 2
        assert "2 fields" in str(err.value)
        assert_tally_matches_stream(path)

    def test_empty_label_reports_line_and_column(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\n,b\n")
        with pytest.raises(EmptyLabelError) as err:
            list(stream_labels(path))
        assert err.value.line == 2
        assert err.value.column == 1
        assert_tally_matches_stream(path)

    def test_tab_delimiter(self, tmp_path):
        path = write(tmp_path, "l.tsv", "a\tb\nb\tb\n")
        assert list(stream_labels(path, delimiter="\t")) == [("a", "b"), ("b", "b")]
        assert_tally_matches_stream(path, delimiter="\t")

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"a,a\r\nb,b\r\n")
        assert list(stream_labels(str(path))) == [("a", "a"), ("b", "b")]
        assert_tally_matches_stream(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\n\nb,b\n")
        assert len(list(stream_labels(path))) == 2
        assert_tally_matches_stream(path)

    def test_stream_is_lazy(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\nb,b\n")
        stream = stream_labels(path)
        assert next(stream) == ("a", "a")

    def test_tally_straight_to_matrix(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\na,b\nb,b\n")
        m = tally_labels(path)
        assert m.counts == ((1, 1), (0, 1))


LABEL_TOKENS = st.sampled_from(
    [b"a", b"b", "\u00e9".encode(), b" ", b",", b"\t", b'"', b"\r", b"\n", b"\r\n", b"\xff"]
)
# A few short lines, often with one quote each, drawn again and again: a tally that reads a field spanning
# two lines as two rows shifts each later line's count onto the row before it, which shows only on repeats.
LABEL_FILES = st.lists(
    st.lists(st.sampled_from([b"a", b"b", b",", b'"']), max_size=5).map(lambda tokens: b"".join(tokens) + b"\n"),
    min_size=1,
    max_size=4,
).flatmap(lambda lines: st.lists(st.sampled_from(lines), max_size=20).map(b"".join))

# Labels that may outrun a step of a few bytes, or hold a BOM, \x85 or U+2028, which csv keeps inside a field.
STEP_LABELS = st.lists(
    st.sampled_from([b"a", b"b", "\u00e9".encode(), "\x85".encode(), "\u2028".encode(), b"\xef\xbb\xbf", b"x" * 20]),
    min_size=1,
    max_size=3,
).map(b"".join)


@st.composite
def stepped_label_files(draw):
    """A delimiter and a label file of a few lines drawn again and again: 0-2 BOMs, perhaps a header, then the body,
    then perhaps a late quoted field spanning lines or an undecodable byte. Lines end in LF, CR or CRLF, some blank;
    labels are bare or quoted."""
    delimiter = draw(st.sampled_from([b",", b"\t"]))
    # Labels quoted as csv quotes them, some holding a doubled quote or the delimiter, so that quotes meet step edges.
    quoted_label = st.lists(st.sampled_from([b"a", b'"', delimiter, "\u00e9".encode()]), min_size=1, max_size=3).map(
        lambda tokens: b'"' + b"".join(tokens).replace(b'"', b'""') + b'"'
    )
    label = st.one_of(STEP_LABELS, quoted_label)
    row = st.builds(lambda actual, predicted: actual + delimiter + predicted, label, label)
    line = st.builds(bytes.__add__, st.one_of(row, row, st.just(b"")), st.sampled_from([b"\n", b"\r", b"\r\n"]))
    lines = draw(st.lists(line, min_size=1, max_size=4))
    # Blank lines before a header, a header wider than 2 fields, and one that is a data line too.
    wide = delimiter.join([b"actual", b"predicted", b"weight"]) + b"\r"
    header = draw(st.sampled_from([b"", b"\n\r\nh" + delimiter + b"h\n", wide, lines[0]]))
    body = b"".join(draw(st.lists(st.sampled_from(lines), max_size=30)))
    quoted = b"a" + delimiter + b'"b\r\n' + lines[-1] + b'"\n'  # a field spanning lines: a row of its own repeated
    late = draw(st.sampled_from([b"", quoted, b"a" + delimiter + b"\xffb\n"]))
    return delimiter.decode(), b"\xef\xbb\xbf" * draw(st.integers(0, 2)) + header + body + late


class TestTallyLabels:
    """tally_labels counts distinct lines but must agree with the row stream on every file."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("tally")

    def test_quoted_field_spanning_lines_is_one_label(self, tmp_path):
        path = write(tmp_path, "l.csv", 'a,"x\ny,z"\nb,b\n')
        m = tally_labels(path)
        assert m.registry.labels == ("a", "b", "x\ny,z")
        assert m == from_pairs([("a", "x\ny,z"), ("b", "b")])

    @pytest.mark.parametrize("has_header", [False, True])
    def test_an_all_quoted_file_is_tallied_in_steps(self, tmp_path, has_header):
        """csv.QUOTE_ALL and R's write.csv quote every field: the steps read them as the row stream does."""
        rows = [("actual", "predicted")] + [(f"c{i % 7}", f'say "{i % 5}", then' + "\t" * (i % 2)) for i in range(3_000)]
        path = tmp_path / "l.csv"
        with open(path, "w", newline="") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(rows)
        with open(path, "rb") as handle:  # the step reader itself: a refusal would raise _SerialOnly or another error
            tally = ingest._tally_distinct_lines(handle.fileno(), 0, os.path.getsize(path), ",", has_header)
        assert tally == Counter(stream_labels(str(path), has_header=has_header))
        assert sum(tally.values()) == 3_000 + (not has_header)

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize(
        "data",
        [
            b'z",w\nx,"y\nz",w\n',  # a quote opened on the last distinct line: csv without strict would close it
            b'a,b\n"c","d\r\ne"\na,b\n',  # a quoted line end inside a field
            b'"act\nual",x\na,b\na,b\n',  # a quoted header spanning lines
            b'a,"b"c\na,b\n"a","b"\n',  # text after a closing quote, which only strict csv refuses
        ],
        ids=["quote_open_at_the_end", "quoted_crlf", "header_spanning_lines", "text_after_a_closing_quote"],
    )
    def test_quotes_that_steps_cannot_read_alone_give_the_row_stream_result(self, tmp_path, data, has_header):
        path = tmp_path / "l.csv"
        path.write_bytes(data)
        assert_tally_matches_stream(str(path), has_header=has_header)

    def test_bad_row_after_100k_valid_rows_is_reported_at_its_line(self, tmp_path):
        rows = "".join(f"{'abc'[i % 3]},{'abc'[i * 7 % 3]}\n" for i in range(100_000))
        path = write(tmp_path, "l.csv", rows + "a,b,c\nb,b\n")
        with pytest.raises(ParseError, match="expected 2 fields, got 3") as err:
            tally_labels(path)
        assert err.value.line == 100_001

    def test_row_error_wins_over_a_later_undecodable_byte(self, tmp_path):
        path = tmp_path / "l.csv"
        # The tally's count meets the byte and gives up; the stream meets the bad row first, as
        # the byte lies past the 8 KiB it decodes first.
        path.write_bytes(b"a,a\na,b,c\n" + b"b,b\n" * 3_000 + b"\xff,a\n")
        with pytest.raises(ParseError) as err:
            tally_labels(str(path))
        assert err.value.line == 2

    def test_undecodable_byte_is_the_streams_decode_error(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"a,b\n" * 20_000 + b"\xff,a\n")
        error = ParseError, "line 20001: input is not valid UTF-8: byte 0xff (invalid start byte)", 20_001, None
        assert assert_tally_matches_stream(str(path)) == error

    @pytest.mark.parametrize("field", ["x" * 200_000, '"' + "x" * 200_000 + '"'])
    def test_over_long_field_is_a_parse_error_with_line(self, tmp_path, field):
        path = write(tmp_path, "l.csv", "a,a\nb," + field + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            tally_labels(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("has_header", [False, True])
    def test_many_chunks_with_late_classes_and_mixed_line_ends(self, tmp_path, has_header):
        rows = "".join(f"c{i % 37},c{i * i % 41}" + ("\r\n" if i % 5 else "\n") for i in range(60_000))
        path = tmp_path / "l.csv"
        path.write_bytes(("\nh,h\n" + rows + "\nlate,arrival").encode())
        m = tally_labels(str(path), has_header=has_header)
        assert m == from_pairs(stream_labels(str(path), has_header=has_header))
        assert m.grand_total == 60_001 + (not has_header)
        assert "arrival" in m.registry
        # A field that spans lines, quoted in one of the last read steps; parsed as a row of its own,
        # its two lines would shift the counts of the repeated line after it.
        path.write_bytes(("\nh,h\n" + rows + 'late,"arr\r\nival"\n' + "late,arr\n" * 3).encode())
        quoted = assert_tally_matches_stream(str(path), has_header=has_header)
        assert "arr\r\nival" in quoted.registry

    def test_a_file_that_grows_while_counted_is_read_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "l.csv"
        path.write_bytes(b"a,b\n" * 20_000)
        steps = ingest._range_steps

        def growing(*args):
            for i, text in enumerate(steps(*args)):
                yield text
                if i == 0:
                    with open(path, "ab") as tail:
                        tail.write(b"c,c\n")

        monkeypatch.setattr(ingest, "_range_steps", growing)
        assert tally_labels(str(path)) == from_pairs([("a", "b")] * 20_000 + [("c", "c")])

    def test_a_read_error_in_steps_falls_back_to_the_row_stream(self, tmp_path, monkeypatch):
        path = tmp_path / "l.csv"
        path.write_bytes(b"a,b\nb,b\n" * 5_000)
        pread = os.pread

        def failing(fd, length, offset):
            if offset >= ingest._LABEL_STEP:  # the second step fails
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", failing)
        assert tally_labels(str(path)) == from_pairs(stream_labels(str(path)))

    @given(
        body=st.one_of(st.lists(LABEL_TOKENS, max_size=60).map(b"".join), LABEL_FILES),
        bom=st.booleans(),
        header=st.sampled_from([b"", b"actual,predicted\n", b'"act\nual",x\n']),
        has_header=st.booleans(),
        delimiter=st.sampled_from([",", "\t"]),
    )
    @example(body=b'a,"x\ny,z"\nb,b\n', bom=False, header=b"", has_header=False, delimiter=",")
    @example(body=b'a,"x\ny"\nb,b\nb,b\n', bom=False, header=b"", has_header=False, delimiter=",")
    @settings(max_examples=300, deadline=None)
    def test_tally_matches_the_stream_on_any_file(self, work, body, bom, header, has_header, delimiter):
        path = work / "l.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + header + body)
        assert_tally_matches_stream(str(path), delimiter=delimiter, has_header=has_header)

    @given(case=stepped_label_files(), step=st.integers(1, 8), has_header=st.booleans())
    @example(case=(",", b"\xef\xbb\xbf\r\nh,h\r\na,b\r\nh,h\r\na,b\r\n"), step=4, has_header=True)
    @settings(max_examples=300, deadline=None)
    def test_tally_matches_the_stream_across_step_edges(self, work, case, step, has_header):
        delimiter, data = case
        path = work / "s.csv"
        path.write_bytes(data)
        held, ingest._LABEL_STEP = ingest._LABEL_STEP, step  # steps of a few bytes: most lines cross a step edge
        try:
            assert_tally_matches_stream(str(path), delimiter=delimiter, has_header=has_header)
        finally:
            ingest._LABEL_STEP = held


@splits
class TestForkedTally:
    """Label files of any size give one outcome by every path, the claim queue's in pieces of a few bytes included."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("forked")

    @given(
        case=st.one_of(stepped_label_files(), LABEL_FILES.map(lambda body: (",", body))),
        piece=st.integers(1, 8),
        step=st.integers(1, 8),
        has_header=st.booleans(),
    )
    @example(case=(",", b"\xef\xbb\xbf\r\n\nh,h\r\na,b\r\nh,h\r\na,b\r\n"), piece=3, step=4, has_header=True)
    @settings(max_examples=150, deadline=None)
    def test_a_forked_tally_of_any_file_matches_the_stream(self, work, case, piece, step, has_header):
        delimiter, data = case
        delimiter = {",": "comma", "\t": "tab"}[delimiter]
        argv = ["evaluate", "--kind", "labels", "--format", "json", "--delimiter", delimiter]
        with mock.patch.object(ingest, "_LABEL_STEP", step):  # steps of a few bytes too
            every_path(work, "labels", data, [*argv, *["--has-header"] * has_header], pieces=(piece,))


HEADER_FAULTS = {  # file text: the line, message and column of its ParseError
    "missing_header": ("", (1, "missing header row", None)),
    "one_class": ("\nx,a\n", (2, "header needs a first cell and 2 or more class names, got 2 fields", None)),
    "empty_class_name": ("\nx,a,,b\n", (2, "empty class name in header", 3)),
    "duplicate_class": ("\nx,a,b,a\n", (2, "duplicate class columns in header", None)),
}


@pytest.mark.parametrize("read", [score_probs, read_matrix], ids=["read_probs", "read_matrix"])
@pytest.mark.parametrize("case", HEADER_FAULTS)
def test_probability_and_matrix_headers_share_one_set_of_rules(tmp_path, read, case):
    text, (line, message, column) = HEADER_FAULTS[case]
    with pytest.raises(ParseError) as err:
        read(write(tmp_path, "h.csv", text))
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).endswith(message)


class TestReadProbs:
    def test_header_fixes_registry_and_order(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b,c\nb,0.2,0.5,0.3\n")
        matrix, xent = score_probs(path)
        assert matrix.registry.labels == ("a", "b", "c")
        assert matrix.cells == {(1, 1): 1}  # true class b, and the highest probability is b's
        assert xent == xent_unit(ProbRecord(1, ("0.2", "0.5", "0.3")))

    def test_sum_out_of_tolerance(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\na,0.4,0.5\n")
        with pytest.raises(ProbSumOutOfToleranceError) as err:
            score_probs(path)
        assert err.value.line == 2
        assert abs(err.value.total - 0.9) < 1e-12

    def test_unknown_actual_label(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\nz,0.5,0.5\n")
        with pytest.raises(UnknownActualLabelError) as err:
            score_probs(path)
        assert err.value.line == 2

    def test_duplicate_class_columns_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,a\na,0.5,0.5\n")
        with pytest.raises(ParseError, match="duplicate"):
            score_probs(path)

    def test_bad_float_reports_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\na,0.5,oops\n")
        with pytest.raises(ParseError) as err:
            score_probs(path)
        assert err.value.line == 2
        assert err.value.column == 3

    def test_probability_out_of_range(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\na,1.2,-0.2\n")
        with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
            score_probs(path)

    def test_out_of_range_reports_line_and_column(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\na,1.2,-0.2\n")
        with pytest.raises(ParseError) as err:
            score_probs(path)
        assert (err.value.line, err.value.column) == (2, 2)

    def test_first_bad_field_in_the_row_is_reported(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b,c\na,0.5,0.5,0.0\nb,nan,1.2,oops\n")
        with pytest.raises(ParseError, match=r"nan outside \[0, 1\]") as err:
            score_probs(path)
        assert (err.value.line, err.value.column) == (3, 2)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "")
        with pytest.raises(ParseError, match="header"):
            score_probs(path)

    def test_too_few_columns(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a\na,1.0\n")
        with pytest.raises(ParseError):
            score_probs(path)

    def test_row_width_must_match_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\na,0.5,0.3,0.2\n")
        with pytest.raises(ParseError) as err:
            score_probs(path)
        assert err.value.line == 2

    def test_stream_is_lazy(self, tmp_path):
        path = write(tmp_path, "p.csv", "actual,a,b\na,1.0,0.0\nb,0.5,0.5\n")
        matrix, xent = score_probs(path, options=XentOptions(reduce="sum"))
        assert matrix.k == 2
        assert matrix.cells == {(0, 0): 1, (1, 0): 1}
        assert xent == xent_unit(ProbRecord(1, (0.5, 0.5)))


class TestReadMatrix:
    def test_binary_example_file(self, tmp_path):
        path = write(tmp_path, "m.csv", ",pos,neg\npos,20,5\nneg,10,17\n")
        m = read_matrix(path)
        assert m.registry.labels == ("pos", "neg")
        assert m.counts == ((20, 5), (10, 17))
        assert m.grand_total == 52

    def test_four_class_file(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            ",a,b,c,d\na,6,1,1,1\nb,2,9,2,1\nc,1,1,10,1\nd,2,1,1,12\n",
        )
        m = read_matrix(path)
        assert tuple(m.counts[i][i] for i in range(4)) == (6, 9, 10, 12)
        assert m.row_totals == (9, 14, 13, 16)
        assert m.grand_total == 52

    def test_rectangular_grid_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b,c\na,1,2,3\nb,4,5,6\n")
        with pytest.raises(NonSquareError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_row_with_wrong_width_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\na,1,2,3\nb,4,5\n")
        with pytest.raises(NonSquareError) as err:
            read_matrix(path)
        assert err.value.line == 2

    def test_negative_entry(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\na,1,-2\nb,0,3\n")
        with pytest.raises(NegativeEntryError) as err:
            read_matrix(path)
        assert err.value.line == 2

    def test_row_name_mismatch(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\nb,1,2\na,0,3\n")
        with pytest.raises(NameMismatchError) as err:
            read_matrix(path)
        assert err.value.line == 2

    def test_non_integer_count(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\na,1.5,2\nb,0,3\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.column == 2

    @pytest.mark.parametrize(
        "text", ["+1", "1_000", " 2", "2 ", "\u0663", "--1", "-", pytest.param("1" * 4301, id="4301-digits")]
    )
    def test_count_outside_the_grammar_reports_column(self, tmp_path, text):
        path = write(tmp_path, "m.csv", f",a,b\na,1,{text}\nb,0,3\n")
        with pytest.raises(ParseError, match="bad count") as err:
            read_matrix(path)
        assert (err.value.line, err.value.column) == (2, 3)
        assert len(str(err.value)) < 80  # a long count is quoted by its first 12 digits and its length

    def test_negative_zero_is_a_zero_count(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\na,1,-0\nb,0,3\n")
        assert read_matrix(path).counts == ((1, 0), (0, 3))

    def test_extra_rows_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\na,1,2\nb,0,3\nb,0,3\n")
        with pytest.raises(NonSquareError):
            read_matrix(path)

    def test_header_first_cell_is_ignored(self, tmp_path):
        path = write(tmp_path, "m.csv", "actual,a,b\na,1,2\nb,0,3\n")
        assert read_matrix(path).registry.labels == ("a", "b")


class TestReadWeights:
    def test_pairs_in_file_order(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,0.5\nb,2\n")
        assert read_weights(path) == [("a", 0.5), ("b", 2.0)]

    def test_duplicate_class_rejected(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,0.5\na,1\n")
        with pytest.raises(ParseError) as err:
            read_weights(path)
        assert err.value.line == 2

    def test_bad_weight_value(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,heavy\n")
        with pytest.raises(ParseError) as err:
            read_weights(path)
        assert err.value.column == 2

    def test_decimal_weights_are_exact(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,0.1\nb,1/3\nc,.2\n")
        assert read_weights(path) == [("a", Fraction(1, 10)), ("b", Fraction(1, 3)), ("c", Fraction(1, 5))]

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1/0"])
    def test_non_finite_weight_reports_column(self, tmp_path, text):
        path = write(tmp_path, "w.csv", f"a,{text}\n")
        with pytest.raises(ParseError) as err:
            read_weights(path)
        assert (err.value.line, err.value.column) == (1, 2)

    # Forms outside the weight grammar; Fraction() took all but "2.", "0.5/2" and "1/-3".
    # The long digit runs would take minutes if the grammar backtracked quadratically.
    @pytest.mark.parametrize(
        "text",
        [
            "2e-1", "1e1000000", "1E3", "+1", " 1", "1 ", "1_000", "\u0663", "2.", "0.5/2", "1/-3",
            pytest.param("1" * 100_000 + "x", id="long-digits-x"),
            pytest.param("1" * 100_000 + ".x", id="long-digits-dot-x"),
            pytest.param("1" * 100_000 + "/x", id="long-digits-slash-x"),
        ],
    )
    def test_weight_outside_the_grammar_reports_column(self, tmp_path, text):
        path = write(tmp_path, "w.csv", f"a,{text}\n")
        with pytest.raises(ParseError, match="bad weight") as err:
            read_weights(path)
        assert (err.value.line, err.value.column) == (1, 2)

    @pytest.mark.parametrize("text", ["-1", "-.5", "-1/3"])
    def test_negative_weight_is_rejected_at_its_line(self, tmp_path, text):
        path = write(tmp_path, "w.csv", f"a,1\nb,{text}\n")
        with pytest.raises(NegativeEntryError, match=f"negative weight {text}") as err:
            read_weights(path)
        assert (err.value.line, err.value.column) == (2, 2)
        path = write(tmp_path, "w0.csv", "a,-0\n")
        assert read_weights(path) == [("a", 0)]

    def test_class_outside_the_registry_is_rejected_at_its_line(self, tmp_path):
        path = write(tmp_path, "w.csv", "a,1\nzz,2\n")
        with pytest.raises(ParseError, match="weight for unknown class 'zz'") as err:
            read_weights(path, registry=ClassRegistry(("a", "b")))
        assert (err.value.line, err.value.column) == (2, 1)
        assert read_weights(path) == [("a", 1), ("zz", 2)]

    def test_empty_class_name(self, tmp_path):
        path = write(tmp_path, "w.csv", ",1\n")
        with pytest.raises(EmptyLabelError):
            read_weights(path)


# Each message that quotes an input field, F: a reader, the file with F in it, and the message before and after F.
QUOTED_FIELDS = {
    "count": (read_matrix, ",a,b\na,1,{}\nb,0,3\n", "line 2, column 3: bad count ", ""),
    "weight": (read_weights, "a,{}\n", "line 1, column 2: bad weight ", ""),
    "probability": (score_probs, "actual,a,b\na,{},0.5\n", "line 2, column 2: bad probability ", ""),
    "actual-label": (score_probs, "actual,a,b\n{},0.5,0.5\n", "line 2: actual label ", " is not a header class"),
    "row-name": (read_matrix, ",a,b\n{},1,2\nb,0,3\n", "line 2: row name ", " does not match header class 'a'"),
    "header-name": (read_matrix, ",{},b\na,1,2\nb,0,3\n", "line 2: row name 'a' does not match header class ", ""),
    "duplicate-class": (read_weights, "{0},1\n{0},2\n", "line 2: duplicate weight for class ", ""),
    "unknown-class": (
        lambda path: read_weights(path, registry=ClassRegistry(("a", "b"))), "{},1\n",
        "line 1, column 1: weight for unknown class ", "",
    ),
}


@pytest.mark.parametrize("case", QUOTED_FIELDS)
@pytest.mark.parametrize(
    "field, quoted",
    [("x" * 40, repr("x" * 40)), ("x" * 41, "'xxxxxxxxxxxx'...(41 characters)"),
     ("x" * 100_000, "'xxxxxxxxxxxx'...(100000 characters)")],
    ids=["40", "41", "100000"],
)
def test_an_error_quotes_a_field_past_40_characters_by_its_first_12(tmp_path, case, field, quoted):
    read, text, before, after = QUOTED_FIELDS[case]
    path = write(tmp_path, "f.csv", text.format(field))
    with pytest.raises(IngestError) as err:
        read(path)
    assert str(err.value) == before + quoted + after


@pytest.mark.parametrize(
    "read, text, before",
    [
        (read_matrix, ",a,b\na,1,{}\nb,0,3\n", "line 2, column 3: negative count "),
        (read_weights, "a,{}\n", "line 1, column 2: negative weight "),
    ],
    ids=["count", "weight"],
)
@pytest.mark.parametrize(
    "nines, shown",
    [(39, "-" + "9" * 39), (40, "'-99999999999'...(41 characters)"), (4000, "'-99999999999'...(4001 characters)")],
    ids=["40", "41", "4001"],
)
def test_a_negative_field_past_40_characters_is_quoted_by_its_first_12(tmp_path, read, text, before, nines, shown):
    """A negative count or weight is written bare up to 40 characters, then as a long field is quoted."""
    path = write(tmp_path, "f.csv", text.format("-" + "9" * nines))
    with pytest.raises(NegativeEntryError) as err:
        read(path)
    assert str(err.value) == before + shown
    assert len(str(err.value)) < 80


class TestOversizedField:
    def test_field_over_the_csv_limit_is_a_parse_error_with_line(self, tmp_path):
        path = write(tmp_path, "l.csv", "a,a\nb," + "x" * 200_000 + "\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            list(stream_labels(path))
        assert err.value.line == 2


    def test_a_label_line_longer_than_any_valid_row_gives_the_row_stream_error(self, tmp_path):
        limit = csv.field_size_limit(64)  # no valid row is then longer than 8 * 64 + 6 bytes
        try:
            path = write(tmp_path, "l.csv", "a,b\n" * 5_000 + "c," + "x" * 20_000 + "\n")
            error = ParseError, "line 5001: malformed CSV: field larger than field limit (64)", 5_001, None
            assert assert_tally_matches_stream(path) == error
        finally:
            csv.field_size_limit(limit)

    def test_the_step_reader_refuses_a_line_past_longest_before_decoding_it(self, tmp_path):
        data = b"a,b\n" + b"\xff" * 100 + b"\nc,d\n"
        path = tmp_path / "l.csv"
        path.write_bytes(data)
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ingest._SerialOnly):
                list(ingest._range_steps(fd, 0, len(data), 8, longest=50))
            with pytest.raises(UnicodeDecodeError):  # uncapped, as for probability lines
                list(ingest._range_steps(fd, 0, len(data), 8))
        finally:
            os.close(fd)


class TestByteOrderMark:
    def test_label_file_bom_is_not_part_of_the_first_label(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"\xef\xbb\xbfa,a\nb,b\na,b\n")
        assert list(stream_labels(str(path))) == [("a", "a"), ("b", "b"), ("a", "b")]
        assert tally_labels(str(path)).registry.labels == ("a", "b")

    def test_weights_file_bom_is_not_part_of_the_first_class(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_bytes(b"\xef\xbb\xbfa,1\nb,2\n")
        assert read_weights(str(path)) == [("a", 1), ("b", 2)]


# Each file's first invalid byte lies on the given line; "é" lines put a split character on the decoder's chunk edges.
UNDECODABLE_FILES = {
    "labels": (tally_labels, "é,b\n".encode() * 30_000 + b"a,\xffb\nb,b\n", {}, 30_001, "0xff (invalid start byte)"),
    "labels_with_header": (
        tally_labels, b"actual,predicted\n" + "é,b\n".encode() * 30_000 + b"a,\xffb\n", {"has_header": True},
        30_002, "0xff (invalid start byte)",
    ),
    "labels_stream": (
        lambda path: list(stream_labels(path)), "é,b\n".encode() * 30_000 + b"\xe9,b\n", {},
        30_001, "0xe9 (invalid continuation byte)",
    ),
    "labels_ending_inside_a_character": (tally_labels, b"a,b\n" * 3 + b"a,\xc3", {}, 4, "0xc3 (unexpected end of data)"),
    "labels_cr_line_ends": (tally_labels, b"a,a\rb,b\r\xff,a\r", {}, 3, "0xff (invalid start byte)"),
    "labels_mixed_line_ends": (
        tally_labels, b"a,a\r\nb,b\rb,a\n\r\n\xff,a\n", {}, 5, "0xff (invalid start byte)",
    ),
    # The CR of a CRLF is the last byte of the first 64 KiB, a decoder chunk's edge, and the bad byte two chunks on.
    "labels_crlf_across_rescan_chunks": (
        tally_labels, b"a,b\n" * 16_383 + b"a,b\r\n" + b"b,a\n" * 20_000 + b"\xff,a\n", {},
        36_385, "0xff (invalid start byte)",
    ),
    "probs": (
        score_probs, "actual,é,b\n".encode() + "é,0.5,0.5\n".encode() * 10_000 + b"b,0.5,0.\xff\n", {},
        10_002, "0xff (invalid start byte)",
    ),
    "probs_header_ending_in_cr": (
        score_probs, b"actual,a,b\r" + b"a,0.5,0.5\n" * 10_000 + b"b,0.5,0.\xff\n", {},
        10_002, "0xff (invalid start byte)",
    ),
    "probs_mixed_line_ends": (
        score_probs, b"actual,a,b\r\n" + b"a,0.5,0.5\r" * 5_000 + b"b,0.5,0.5\n" * 5_000 + b"b,0.\xff,0.5\r\n", {},
        10_002, "0xff (invalid start byte)",
    ),
    # The CR of a CRLF is the last byte of the first 64 KiB of data, and the bad byte follows its LF.
    "probs_crlf_across_rescan_chunks": (
        score_probs, b"act,a,b\n" + b"a,0.5,0.5\n" * 6_552 + b"b,1.0,0\r\n" + b"\xff,0,1\n", {},
        6_555, "0xff (invalid start byte)",
    ),
    "matrix": (read_matrix, b",a,b\na,1,2\nb,3,\xff\n", {}, 3, "0xff (invalid start byte)"),
    "weights": (read_weights, b"a,1\n\xffb,2\n", {}, 2, "0xff (invalid start byte)"),
}

UNDECODABLE = "input is not valid UTF-8: byte 0xff (invalid start byte)"
# name -> (reader, file bytes, line and message of its first fault, which lies before a bad byte's line)
EARLIER_FAULTS = {
    "labels": (tally_labels, SHORT_LABELS, 5, "expected 2 fields, got 3"),
    "labels_5000_rows_on": (
        tally_labels,
        SHORT_LABELS.replace(b"\na,\xff", b"\n" + b"a,b\n" * 5_000 + b"a,\xff"),
        5,
        "expected 2 fields, got 3",
    ),
    "probs": (score_probs, b"actual,a,b\n" + b"a,1,0\n" * 4 + b"a,1\na,1,0\na,\xff,0\n", 6, "expected 3 fields, got 2"),
    "matrix": (read_matrix, b",a,a\na,1,2\nb,\xff,3\n", 1, "duplicate class columns in header"),
    "weights": (read_weights, b"a,1,2\n\xffb,2\n", 1, "expected 2 fields, got 3"),
    # Read up to the byte's line, csv would end the open quote without an error: the byte is named.
    "quoted_field_into_the_bytes_line": (tally_labels, b"a,b\n" * 4 + b'a,"b\na,\xffb\n"\n', 6, UNDECODABLE),
    "oversized_field": (
        tally_labels,
        b"a,b\n" * 4 + b'a,"' + b"x" * 140_000 + b'"\na,\xffb\n',
        5,
        "malformed CSV: field larger than field limit (131072)",
    ),
}


def read_by(via, tmp_path, read, data):
    """outcome(read(name)) for the name of a file holding data, or of a pipe fed with it, which is read only once."""
    if via == "pipe":
        return through_a_pipe(data, lambda name: outcome(lambda: read(name)))
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    return outcome(lambda: read(str(path)))


VIAS = ["file", pytest.param("pipe", marks=pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd"))]


class TestUndecodableBytes:
    """From a file or through a pipe, read once, the first bad byte, or an earlier fault, is named with its line."""

    @pytest.mark.parametrize("via", VIAS)
    @pytest.mark.parametrize("case", UNDECODABLE_FILES)
    def test_first_bad_byte_is_named_with_its_line(self, tmp_path, case, via):
        read, data, kwargs, line, byte = UNDECODABLE_FILES[case]
        message = f"line {line}: input is not valid UTF-8: byte {byte}"
        assert read_by(via, tmp_path, lambda name: read(name, **kwargs), data) == (ParseError, message, line, None)

    @pytest.mark.parametrize("via", VIAS)
    @pytest.mark.parametrize("case", EARLIER_FAULTS)
    def test_a_fault_before_the_bad_bytes_line_is_named_first(self, tmp_path, case, via):
        """The row stream decodes the byte's block before it parses the rows of that block's earlier lines."""
        read, data, line, message = EARLIER_FAULTS[case]
        assert read_by(via, tmp_path, read, data) == (ParseError, f"line {line}: {message}", line, None)


class TestRoundTrip:
    def test_label_tally_matches_matrix_file(self, tmp_path):
        labels_path = write(tmp_path, "l.csv", "a,a\na,b\nb,b\nb,b\nb,a\n")
        matrix_path = write(tmp_path, "m.csv", ",a,b\na,1,1\nb,1,2\n")
        assert from_pairs(stream_labels(labels_path)) == read_matrix(matrix_path)
