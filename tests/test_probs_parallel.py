"""The CLI's two-process probability path gives the serial path's stdout, stderr and exit code.

Each case runs `clfmetrics` in process twice: serially, with the size at which
a file is split raised out of reach, and in two forked halves, with it lowered
to 0 so that small files are split too. After the split run no child may be
left unreaped and no descriptor left open.
"""

import contextlib
import errno
import io
import marshal
import os
import subprocess
import sys
import time

import pytest

from clfmetrics import halves
from clfmetrics.cli import main

CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or len(CPUS) < 2 or not os.path.isdir("/proc/self/fd"),
    reason="the split needs os.fork and two CPUs; the descriptor check needs /proc/self/fd",
)

HEADER = b"actual,a,b,c\n"
ROWS = [b"a,0.7,0.2,0.1\n", b"b,0.1,0.8,0.1\n", b"c,0.3,0.3,0.4\n", b"b,0.4,0.4,0.2\n", b"c,0,0,1\n", b"a,0.0,1,0\n"]
BODY = b"".join(ROWS) * 20  # 120 rows: the midpoint falls inside the data
# Over 256 KiB of data, so each half reads several 64 KiB steps.
BIG_BODY = b"".join(ROWS) * 4_000

# name -> (file bytes, whether the split path must complete without falling back)
CORPUS = {
    "plain": (HEADER + BODY, True),
    "big": (HEADER + BIG_BODY, True),
    "crlf": (HEADER.replace(b"\n", b"\r\n") + BODY.replace(b"\n", b"\r\n"), True),
    "bom": (b"\xef\xbb\xbf" + HEADER + BODY, True),
    "blank_lines": (HEADER + b"\n" + BODY.replace(b"c,0,0,1\n", b"c,0,0,1\n\n\r\n") + b"\n\n", True),
    "crlf_bom_blank_lines": (b"\xef\xbb\xbf" + (HEADER + b"\n" + BODY + b"\n").replace(b"\n", b"\r\n"), True),
    "no_final_newline": (HEADER + BODY + b"a,0.5,0.25,0.25", True),
    "bom_in_the_data": (HEADER + BODY + b"\xef\xbb\xbfa,0.5,0.5,0\n", False),
    "one_row": (HEADER + ROWS[0], True),
    "lines_longer_than_a_read_step": (
        b"actual," + b",".join(b"class_with_a_long_name_%04d" % i for i in range(3_000)) + b"\n"
        + (b"class_with_a_long_name_0007," + b",".join(b"1" if i == 3 else b"0" * 22 for i in range(3_000)) + b"\n") * 6,
        True,
    ),
    "header_only": (HEADER, True),
    "bad_float_in_the_first_half": (HEADER + b"a,0.5,oops,0.5\n" + BODY, False),
    "bad_float_in_the_second_half": (HEADER + BIG_BODY + b"b,0.5,0.5,oops\n" + BODY, False),
    "out_of_range_in_the_second_half": (HEADER + BODY + b"a,1.2,-0.2,0\n", False),
    "nan_in_the_second_half": (HEADER + BODY + b"a,0.5,nan,0.5\n", False),
    "sum_off_in_the_second_half": (HEADER + BODY + b"a,0.4,0.4,0.1\n", False),
    "unknown_actual_label": (HEADER + BODY + b"z,0.5,0.5,0\n", False),
    "wrong_field_count": (HEADER + BODY + b"a,0.5,0.5\n", False),
    "undecodable_in_the_second_half": (HEADER + BIG_BODY + b"a,0.5,0.\xff,0.5\n", False),
    "undecodable_header": (b"actual,\xff,b\n" + BODY, False),
    "oversized_field": (HEADER + BODY + b"a," + b"1" * 200_000 + b",0,0\n", False),
    "quote_in_the_first_half": (HEADER + b'"a",0.5,0.5,0\n' + BIG_BODY, False),
    "quote_in_the_second_half": (HEADER + BIG_BODY + b'"b",0.5,0.5,0\n', False),
    "quoted_field_spanning_the_midpoint": (HEADER + BODY + b'a,0.5,0.5,"0\n\n' + BODY + b'"\n' + BODY, False),
    "quoted_header": (b'actual,"a",b,c\n' + BODY, False),
    "bare_cr_header": (HEADER.replace(b"\n", b"\r") + BODY, False),
    "bare_cr_rows": (HEADER + BIG_BODY.replace(b"\n", b"\r"), True),
    "crlf_split_across_read_steps": (HEADER + BIG_BODY.replace(b"\n", b"\r\r\n"), True),
    "blank_first_line": (b"\n" + HEADER + BODY, False),
    "duplicate_class_columns": (b"actual,a,a,c\n" + BODY, False),
    "empty_class_name": (b"actual,a,,c\n" + BODY, False),
    "one_class_header": (b"actual,a\n" + BODY, False),
    "empty": (b"", False),
}

ARGVS = {
    "text": ["evaluate", "--kind", "probs"],
    "json_sum": ["evaluate", "--kind", "probs", "--format", "json", "--reduce", "sum", "--epsilon", "1e-9"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


def serial_and_split(monkeypatch, argv):
    """(serial outcome, split outcome, whether each split completed) of one CLI run.

    The split run must leave no child unreaped and no descriptor open.
    """
    monkeypatch.setattr(halves, "PARALLEL_MIN_BYTES", 1 << 62)
    serial = run(argv)
    merged = []
    score_halves = halves.score_halves

    def counted(*args):
        result = score_halves(*args)
        merged.append(result is not None)
        return result

    monkeypatch.setattr(halves, "score_halves", counted)
    monkeypatch.setattr(halves, "PARALLEL_MIN_BYTES", 0)
    before = open_descriptors()
    split = run(argv)
    assert open_descriptors() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return serial, split, merged


@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
@pytest.mark.parametrize("case", CORPUS)
def test_split_run_matches_the_serial_run(tmp_path, monkeypatch, case, argv):
    data, completes = CORPUS[case]
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    serial, split, merged = serial_and_split(monkeypatch, [*argv, str(path)])
    assert split == serial
    assert serial[0] in (0, 2)
    assert merged == [completes]


def test_tab_delimited_file_is_split(tmp_path, monkeypatch):
    path = tmp_path / "p.tsv"
    path.write_bytes((HEADER + BIG_BODY).replace(b",", b"\t"))
    argv = ["evaluate", "--kind", "probs", "--delimiter", "tab", str(path)]
    serial, split, merged = serial_and_split(monkeypatch, argv)
    assert split == serial
    assert (serial[0], merged) == (0, [True])


def test_compare_splits_each_side(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(HEADER + BIG_BODY)
    b.write_bytes(HEADER + BODY + BIG_BODY)
    argv = ["compare", "--kind", "probs", "--format", "json", str(a), str(b)]
    serial, split, merged = serial_and_split(monkeypatch, argv)
    assert split == serial
    assert (serial[0], merged) == (0, [True, True])


def test_a_short_reply_from_the_child_falls_back(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + BIG_BODY)

    class Truncating:
        dumps = staticmethod(lambda value: marshal.dumps(value)[:-3])
        loads = staticmethod(marshal.loads)

    monkeypatch.setattr(halves, "marshal", Truncating)
    serial, split, merged = serial_and_split(monkeypatch, ["evaluate", "--kind", "probs", str(path)])
    assert split == serial
    assert (serial[0], merged) == (0, [False])


def test_a_pipe_is_read_serially(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER.replace(b"\n", b"\r\n") + BIG_BODY.replace(b"\n", b"\r\n") + b"b,0.5,0.5,oops\r\n")
    monkeypatch.setattr(halves, "PARALLEL_MIN_BYTES", 1 << 62)
    expected = run(["evaluate", "--kind", "probs", str(path)])
    assert expected[0] == 2
    monkeypatch.setattr(halves, "PARALLEL_MIN_BYTES", 0)
    before = open_descriptors()
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
        piped = run(["evaluate", "--kind", "probs", f"/dev/fd/{cat.stdout.fileno()}"])
        cat.stdout.close()
    assert piped == expected
    assert open_descriptors() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_named_pipe_is_opened_once(tmp_path):
    """The split path must not open a named pipe: data written to that first reader would be lost."""
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)
    code = (
        "import sys; from clfmetrics import halves; halves.PARALLEL_MIN_BYTES = 0; from clfmetrics.cli import main; "
        "sys.exit(main(['evaluate', '--kind', 'probs', sys.argv[1]]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(halves.__file__)))
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
