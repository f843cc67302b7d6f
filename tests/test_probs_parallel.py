"""The CLI's two-process probability path gives the serial path's stdout, stderr and exit code.

Each case runs `clfmetrics` in process twice: serially, with the size at which
a file is split raised out of reach, and in two forked halves, with it lowered
to 0 so that small files are split too. After the split run no child may be
left unreaped and no descriptor left open. The last test runs the tool as it
is shipped, on files over the split threshold, from a file and through a pipe.
"""

import contextlib
import errno
import io
import json
import marshal
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from clfmetrics import halves
from clfmetrics.cli import main

CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
splits = pytest.mark.skipif(
    not hasattr(os, "fork") or len(CPUS) < 2 or not os.path.isdir("/proc/self/fd"),
    reason="the split needs os.fork and two CPUs; the descriptor check needs /proc/self/fd",
)

HEADER = b"actual,a,b,c\n"
ROWS = [b"a,0.7,0.2,0.1\n", b"b,0.1,0.8,0.1\n", b"c,0.3,0.3,0.4\n", b"b,0.4,0.4,0.2\n", b"c,0,0,1\n", b"a,0.0,1,0\n"]
BODY = b"".join(ROWS) * 20  # 120 rows: the midpoint falls inside the data
# Over 256 KiB of data, so each half reads several 64 KiB steps.
BIG_BODY = b"".join(ROWS) * 4_000
WIDE_HEADER = b"actual," + b",".join(b"class_with_a_long_name_%04d" % i for i in range(3_000)) + b"\n"

# name -> (file bytes, whether the split path must complete without falling back, exit code)
CORPUS = {
    "plain": (HEADER + BODY, True, 0),
    "big": (HEADER + BIG_BODY, True, 0),
    "crlf": (HEADER.replace(b"\n", b"\r\n") + BODY.replace(b"\n", b"\r\n"), True, 0),
    "bom": (b"\xef\xbb\xbf" + HEADER + BODY, True, 0),
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
    "oversized_field": (HEADER + BODY + b"a," + b"1" * 200_000 + b",0,0\n", False, 2),
    # A valid number, but longer than csv.field_size_limit(): the serial stream refuses it.
    "valid_oversized_field": (HEADER + BODY + b"a,0.5" + b"0" * 140_000 + b",0.5,0\n" + BODY, False, 2),
    "quote_in_the_first_half": (HEADER + b'"a",0.5,0.5,0\n' + BIG_BODY, False, 0),
    "quote_in_the_second_half": (HEADER + BIG_BODY + b'"b",0.5,0.5,0\n', False, 0),
    "quoted_field_spanning_the_midpoint": (HEADER + BODY + b'a,0.5,0.5,"0\n\n' + BODY + b'"\n' + BODY, False, 2),
    "quoted_header": (b'actual,"a",b,c\n' + BODY, False, 0),
    "bare_cr_header": (HEADER.replace(b"\n", b"\r") + BODY, False, 0),
    "bare_cr_rows": (HEADER + BIG_BODY.replace(b"\n", b"\r"), True, 0),
    "crlf_split_across_read_steps": (HEADER + BIG_BODY.replace(b"\n", b"\r\r\n"), True, 0),
    "blank_first_line": (b"\n" + HEADER + BODY, False, 0),
    "duplicate_class_columns": (b"actual,a,a,c\n" + BODY, False, 2),
    "empty_class_name": (b"actual,a,,c\n" + BODY, False, 2),
    "one_class_header": (b"actual,a\n" + BODY, False, 2),
    "empty": (b"", False, 2),
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


@splits
@pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
@pytest.mark.parametrize("case", CORPUS)
def test_split_run_matches_the_serial_run(tmp_path, monkeypatch, case, argv):
    data, completes, code = CORPUS[case]
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    serial, split, merged = serial_and_split(monkeypatch, [*argv, str(path)])
    assert split == serial
    assert serial[0] == code
    assert merged == [completes]


@splits
def test_tab_delimited_file_is_split(tmp_path, monkeypatch):
    path = tmp_path / "p.tsv"
    path.write_bytes((HEADER + BIG_BODY).replace(b",", b"\t"))
    argv = ["evaluate", "--kind", "probs", "--delimiter", "tab", str(path)]
    serial, split, merged = serial_and_split(monkeypatch, argv)
    assert split == serial
    assert (serial[0], merged) == (0, [True])


@splits
def test_compare_splits_each_side(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(HEADER + BIG_BODY)
    b.write_bytes(HEADER + BODY + BIG_BODY)
    argv = ["compare", "--kind", "probs", "--format", "json", str(a), str(b)]
    serial, split, merged = serial_and_split(monkeypatch, argv)
    assert split == serial
    assert (serial[0], merged) == (0, [True, True])


@splits
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


@splits
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


@splits
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


# Run as a script: a split run in which each half waits before its first step, so that a signal finds both at work.
# After main returns, it writes its code, whether a child is left unreaped and whether its descriptors are those it
# started with to the file named by its second argument, and exits with the code.
HELD_SPLIT = """
import json, os, sys, time
from clfmetrics import halves
from clfmetrics.cli import main

steps = halves._range_steps

def held(*args):
    time.sleep(60)
    yield from steps(*args)

halves._range_steps, halves.PARALLEL_MIN_BYTES = held, 0
before = sorted(os.listdir("/proc/self/fd"))
code = main(["evaluate", "--kind", "probs", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
    unreaped = True
except ChildProcessError:
    unreaped = False
same_descriptors = sorted(os.listdir("/proc/self/fd")) == before
with open(sys.argv[2], "w") as out:
    json.dump([code, unreaped, same_descriptors], out)
sys.exit(code)
"""


@splits
@pytest.mark.skipif(
    not os.path.exists(f"/proc/self/task/{os.getpid()}/children"), reason="needs /proc/<pid>/task/<tid>/children"
)
def test_sigint_during_a_split_run_exits_130_and_leaves_no_child_or_descriptor(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(HEADER + BIG_BODY)
    after = tmp_path / "after.json"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(halves.__file__)))
    argv = [sys.executable, "-c", HELD_SPLIT, str(path), str(after)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True) as cli:
        try:
            deadline = time.monotonic() + 60
            with open(f"/proc/{cli.pid}/task/{cli.pid}/children") as children:
                while not children.read().split():  # the fork has not happened yet
                    assert time.monotonic() < deadline, "the run never forked"
                    time.sleep(0.01)
                    children.seek(0)
            os.killpg(cli.pid, signal.SIGINT)  # its group alone: the tool and its forked half
            code = cli.wait(timeout=60)
        finally:
            cli.kill()
        assert (code, cli.stdout.read(), cli.stderr.read()) == (130, b"", b"")
    assert json.loads(after.read_text()) == [130, False, True]


def split_threshold_files():
    """name -> (bytes of about 2 MB, over the 1 MiB split threshold, extra arguments, exit code)."""
    rng = random.Random(7)
    names = [f"c{i}" for i in range(10)]
    rows = []
    for _ in range(10_000):
        weights = [rng.random() for _ in names]
        total = sum(weights)
        rows.append(rng.choice(names) + "," + ",".join(repr(w / total) for w in weights) + "\r\n")
    header = "actual," + ",".join(names) + "\r\n"
    body, last = "".join(rows[:-3]), "".join(rows[-3:])
    files = {
        "split": (header + body + last, [], 0),
        "split-bad": (header + body + "c1,oops" + ",0.1" * 9 + "\r\n" + last, [], 2),
        "split-cr": (header + (body + last).replace("\r\n", "\r"), [], 0),
        "split-tab": ((header + body + last).replace(",", "\t"), ["--delimiter", "tab"], 0),
        # A valid number longer than csv.field_size_limit().
        "split-long": (header + body + "c1,0.1" + "0" * 140_000 + ",0.1" * 9 + "\r\n" + last, [], 2),
    }
    return {name: (text.encode(), args, code) for name, (text, args, code) in files.items()}


SPLIT_THRESHOLD_FILES = split_threshold_files()


@pytest.mark.parametrize("name", SPLIT_THRESHOLD_FILES)
def test_a_file_read_as_stdin_gives_the_pipe_run(tmp_path, name):
    """Redirected from a file, /dev/stdin is a regular file and may be split; fed through a pipe, it is read serially.

    Without two CPUs both runs are serial, and the test still holds.
    """
    data, args, code = SPLIT_THRESHOLD_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "clfmetrics", "evaluate", "--kind", "probs", "--format", "json", *args, "/dev/stdin"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(halves.__file__)))
    with open(path, "rb") as stdin:
        from_file = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=120)
    through_pipe = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=120)
    assert (from_file.stdout, from_file.stderr, from_file.returncode) == (
        through_pipe.stdout,
        through_pipe.stderr,
        through_pipe.returncode,
    )
    assert from_file.returncode == code
