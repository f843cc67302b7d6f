"""Tests for the command-line interface: flags, exit codes, output plumbing."""

import contextlib
import errno
import io
import json
import math
import os
import random
import re
import signal
import struct
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clfmetrics
from clfmetrics import ConfusionMatrix, evaluate, ingest, parse_json, render_json
from clfmetrics.cli import main
from conftest import LONG_COUNTS_CSV, LONG_COUNTS_GRID, assert_equal_short_diff, default_sigint

FOUR_CLASS_CSV = ",a,b,c,d\na,6,1,1,1\nb,2,9,2,1\nc,1,1,10,1\nd,2,1,1,12\n"
PROBS_CSV = "actual,a,b,c\na,0.7,0.2,0.1\nb,0.1,0.8,0.1\nc,0.3,0.3,0.4\nb,0.5,0.4,0.1\n"


@pytest.fixture
def four_class_file(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text(FOUR_CLASS_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def probs_file(tmp_path):
    path = tmp_path / "probs.csv"
    path.write_text(PROBS_CSV, encoding="utf-8")
    return str(path)


class TestEvaluate:
    def test_matrix_text_report(self, four_class_file, capsys):
        assert main(["evaluate", "--kind", "matrix", four_class_file]) == 0
        out = capsys.readouterr().out
        assert "0.7115" in out
        assert "0.7072" in out

    def test_json_contains_exact_rational(self, four_class_file, capsys):
        assert main(["evaluate", "--kind", "matrix", "--format", "json", four_class_file]) == 0
        out = capsys.readouterr().out
        assert '"37/52"' in out
        report = parse_json(out)
        assert report.dataset == four_class_file

    def test_json_output_is_identical_across_runs(self, four_class_file, capsys):
        main(["evaluate", "--kind", "matrix", "--format", "json", four_class_file])
        first = capsys.readouterr().out
        main(["evaluate", "--kind", "matrix", "--format", "json", four_class_file])
        second = capsys.readouterr().out
        assert first == second

    def test_labels_kind(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("a,a\na,b\nb,b\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "labels", str(path)]) == 0
        assert "units: 3" in capsys.readouterr().out

    def test_labels_with_header_flag(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("actual,predicted\na,a\nb,b\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "labels", "--has-header", str(path)]) == 0
        assert "units: 2" in capsys.readouterr().out

    def test_tab_delimiter(self, tmp_path, capsys):
        path = tmp_path / "labels.tsv"
        path.write_text("a\ta\nb\tb\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "labels", "--delimiter", "tab", str(path)]) == 0
        assert "units: 2" in capsys.readouterr().out

    def test_probs_report_includes_cross_entropy(self, probs_file, capsys):
        assert main(["evaluate", "--kind", "probs", probs_file]) == 0
        out = capsys.readouterr().out
        assert "cross_entropy" in out
        assert "units: 4" in out

    def test_reduce_sum_flag(self, probs_file, capsys):
        main(["evaluate", "--kind", "probs", "--format", "json", probs_file])
        mean_payload = json.loads(capsys.readouterr().out)
        main(["evaluate", "--kind", "probs", "--format", "json", "--reduce", "sum", probs_file])
        sum_payload = json.loads(capsys.readouterr().out)
        mean_value = float(mean_payload["cross_entropy"]["value"])
        sum_value = float(sum_payload["cross_entropy"]["value"])
        assert math.isclose(sum_value, 4 * mean_value, rel_tol=1e-12)
        assert sum_payload["options"]["reduce"] == "sum"

    def test_lenient_flag(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,3,0\nb,2,0\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "matrix", "--lenient", "--format", "json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["options"]["mode"] == "lenient"
        assert payload["skipped_classes"]["macro_precision"] == 1
        assert "undefined" not in payload["metrics"]["macro_precision"]

    def test_weights_file_overrides_frequency(self, four_class_file, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_text("a,0\nb,0\nc,1\nd,0\n", encoding="utf-8")
        main([
            "evaluate", "--kind", "matrix", "--weights", str(weights),
            "--format", "json", four_class_file,
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["balanced_accuracy_weighted"]["rational"] == "10/13"
        assert payload["options"]["weights"].startswith("file:")

    def test_weights_file_partial_override_keeps_frequencies(self, four_class_file, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_text("a,0.5\n", encoding="utf-8")
        assert main([
            "evaluate", "--kind", "matrix", "--weights", str(weights),
            "--format", "json", four_class_file,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "value" in payload["metrics"]["balanced_accuracy_weighted"]

    def test_decimal_weights_are_exact(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("a,a\na,b\nb,b\nb,a\nb,b\n", encoding="utf-8")
        weights = tmp_path / "weights.csv"
        weights.write_text("a,0.1\nb,0.3\n", encoding="utf-8")
        assert main([
            "evaluate", "--kind", "labels", "--weights", str(weights),
            "--format", "json", str(labels),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["balanced_accuracy_weighted"]["rational"] == "5/8"

    def test_weights_file_unknown_class_is_input_error(self, four_class_file, tmp_path, capsys):
        weights = tmp_path / "weights.csv"
        weights.write_text("zz,1\n", encoding="utf-8")
        assert main([
            "evaluate", "--kind", "matrix", "--weights", str(weights), four_class_file,
        ]) == 2
        assert "unknown class" in capsys.readouterr().err

    def test_weight_for_unknown_class_names_its_line(self, tmp_path, capsys):
        labels = tmp_path / "l.csv"
        labels.write_text("a,a\na,b\nb,b\n", encoding="utf-8")
        weights = tmp_path / "w.csv"
        weights.write_text("a,1\nzz,2\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "labels", "--weights", str(weights), str(labels)]) == 2
        assert capsys.readouterr().err == "clfmetrics: error: line 2, column 1: weight for unknown class 'zz'\n"


class TestExitCodes:
    def test_empty_labels_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["evaluate", "--kind", "labels", str(path)]) == 2
        assert "empty input" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["evaluate", "--kind", "labels", str(tmp_path / "nope.csv")]) == 2

    def test_malformed_matrix_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(",a,b\na,1,2\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "matrix", str(path)]) == 2
        assert "clfmetrics: error" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight_is_input_error(self, four_class_file, tmp_path, capsys, weight):
        weights = tmp_path / "weights.csv"
        weights.write_text(f"a,{weight}\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "matrix", "--weights", str(weights), four_class_file]) == 2
        assert "line 1, column 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, text",
        [("labels", "a,a\nb,{big}\n"), ("probs", "actual,a,b\na,0.5,0.5\na,{big},0.5\n")],
    )
    def test_oversized_field_is_input_error(self, tmp_path, capsys, kind, text):
        path = tmp_path / "big.csv"
        path.write_text(text.format(big="1" * 200_000), encoding="utf-8")
        assert main(["evaluate", "--kind", kind, str(path)]) == 2
        err = capsys.readouterr().err
        assert "line " + str(text.count("\n")) in err
        assert "Traceback" not in err

    def test_malformed_last_probs_row_is_input_error_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "probs.csv"
        rows = ["actual,a,b"] + ["a,0.75,0.25", "b,0.5,0.5"] * 1000 + ["b,0.5,oops"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["evaluate", "--kind", "probs", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2002, column 3: bad probability 'oops'" in captured.err

    def test_undecodable_byte_is_input_error_with_its_line(self, tmp_path, capsys):
        path = tmp_path / "l.csv"
        path.write_bytes(b"a,b\n" * 50_000 + b"a,\xffb\n")
        assert main(["evaluate", "--kind", "labels", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "clfmetrics: error: line 50001: input is not valid UTF-8: byte 0xff (invalid start byte)\n"

    def test_bad_kind_is_usage_error(self, four_class_file):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--kind", "bogus", four_class_file])
        assert exc.value.code == 3

    def test_missing_required_argument_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate"])
        assert exc.value.code == 3

    def test_bad_epsilon_is_usage_error(self, four_class_file, capsys):
        assert main(["evaluate", "--kind", "matrix", "--epsilon", "0.5", four_class_file]) == 3
        assert "epsilon" in capsys.readouterr().err

    def test_success_is_zero(self, four_class_file):
        assert main(["evaluate", "--kind", "matrix", four_class_file]) == 0

    @pytest.mark.parametrize("command", [
        ["evaluate", "--format", "text"],
        ["evaluate", "--format", "json"],
        ["compare", "--format", "text"],
        ["compare", "--format", "json"],
    ])
    def test_counts_beyond_float_range_report(self, tmp_path, capsys, command):
        path = tmp_path / "huge.csv"
        path.write_text(f",a,b\na,1{'0' * 200},3\nb,7,5{'0' * 199}\n", encoding="utf-8")
        paths = [str(path)] * (2 if command[0] == "compare" else 1)
        assert main([*command, "--kind", "matrix", *paths]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "mcc" in captured.out

    @pytest.mark.parametrize("command", [
        ["evaluate", "--format", "text"],
        ["evaluate", "--format", "json"],
        ["compare", "--format", "text"],
        ["compare", "--format", "json"],
    ])
    def test_a_unit_total_past_the_int_to_str_limit_reports(self, tmp_path, capsys, command):
        """Counts of 4,300 digits each, within the limit, add up to a unit total of 4,301: written whole."""
        path = tmp_path / "long.csv"
        path.write_text(LONG_COUNTS_CSV, encoding="utf-8")
        paths = [str(path)] * (2 if command[0] == "compare" else 1)
        assert main([*command, "--kind", "matrix", *paths]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        units = "2" + "9" * 4299 + "8"  # 3 * (10**4300 - 1) + 1, past the limit
        if command == ["evaluate", "--format", "text"]:
            assert f"units: {units}\n" in captured.out
        if command == ["evaluate", "--format", "json"]:
            assert f'"units": {units},' in captured.out
            report = parse_json(captured.out)
            assert report == evaluate(ConfusionMatrix.from_grid(("a", "b"), LONG_COUNTS_GRID), dataset=str(path))
            assert parse_json(render_json(report)) == report

    @pytest.mark.parametrize(
        "command",
        [["evaluate", "{m}"], ["compare", "{m}", "{m}"], ["evaluate", "--weights", "{w}", "{plain}"]],
        ids=["evaluate", "compare", "weights"],
    )
    def test_path_that_is_not_utf8_is_written_as_json_spells_it(self, four_class_file, tmp_path, capsys, command):
        paths = {"m": tmp_path / os.fsdecode(b"m\xff.csv"), "w": tmp_path / os.fsdecode(b"w\xff.csv")}
        try:
            paths["m"].write_text(FOUR_CLASS_CSV, encoding="utf-8")
            paths["w"].write_text("a,2\n", encoding="utf-8")
        except (OSError, UnicodeError):
            pytest.skip("the file system takes only UTF-8 names")
        names = {key: str(path) for key, path in paths.items()} | {"plain": four_class_file}
        assert main([command[0], "--kind", "matrix", *(arg.format(**names) for arg in command[1:])]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "\\udcff.csv" in captured.out  # the escape json.dumps writes for the byte 0xff


class TestCompare:
    def test_compare_file_with_itself_zeroes_deltas(self, four_class_file, capsys):
        assert main(["compare", "--kind", "matrix", four_class_file, four_class_file]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith(("accuracy", "kappa", "mcc")):
                assert "+0.0000" in line

    def test_equal_accuracy_different_kappa_flagged(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(",x,y\nx,60,10\ny,10,20\n", encoding="utf-8")
        b.write_text(",x,y\nx,65,5\ny,15,15\n", encoding="utf-8")
        assert main(["compare", "--kind", "matrix", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "differs at equal accuracy" in out
        assert "equal accuracy but different kappa" in out

    def test_cross_registry_compare_produces_report(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(",x,y\nx,3,1\ny,1,3\n", encoding="utf-8")
        b.write_text(",p,q,r\np,2,0,0\nq,0,2,1\nr,1,0,2\n", encoding="utf-8")
        assert main(["compare", "--kind", "matrix", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "class registries match: no" in out
        assert "per-class deltas" not in out.split("notes:")[0]

    def test_mixed_kinds_with_kind_b(self, four_class_file, probs_file, capsys):
        assert main([
            "compare", "--kind", "matrix", "--kind-b", "probs",
            four_class_file, probs_file,
        ]) == 0
        assert "compare: A=" in capsys.readouterr().out

    def test_side_errors_are_tagged(self, four_class_file, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["compare", "--kind", "matrix", four_class_file, missing]) == 2
        assert "side B" in capsys.readouterr().err

    def test_comparison_json(self, four_class_file, capsys):
        assert main([
            "compare", "--kind", "matrix", "--format", "json",
            four_class_file, four_class_file,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "comparison"
        assert payload["registries_match"] is True


class TestLargeK:
    """K=1000 with counts in 0..1000: exact macro averages run to thousands of digits."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = random.Random(1000)
        names = [f"c{i}" for i in range(1000)]
        return names, [[rng.randint(0, 1000) for _ in names] for _ in names]

    @pytest.fixture(scope="class")
    def matrix_file(self, grid, tmp_path_factory):
        names, rows = grid
        lines = ["," + ",".join(names)]
        lines += [name + "," + ",".join(map(str, row)) for name, row in zip(names, rows)]
        path = tmp_path_factory.mktemp("large_k") / "k1000.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.fixture(scope="class")
    def expected(self, grid, matrix_file):
        """The report the CLI must print, built once for the class from the grid, not by the reader under test."""
        return evaluate(ConfusionMatrix.from_grid(*grid), dataset=matrix_file)

    def test_json_round_trips_losslessly(self, matrix_file, expected, capsys):
        assert main(["evaluate", "--kind", "matrix", "--format", "json", matrix_file]) == 0
        out = capsys.readouterr().out
        assert expected.metric("macro_f1").unwrap().denominator.bit_length() > 20_000
        assert_equal_short_diff(parse_json(out), expected)

    def test_text_abbreviates_only_the_longest_rationals(self, matrix_file, expected, capsys):
        assert main(["evaluate", "--kind", "matrix", matrix_file]) == 0
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line}
        assert rows["macro_f1"].endswith(" digits)")
        assert "..." in rows["macro_f1"]
        exact = rows["macro_precision"].split()[-1]
        assert Fraction(exact) == expected.metric("macro_precision").unwrap()


def write_k2000_label_files(directory):
    """a.csv and b.csv in directory: 20,000 label rows each over 2,000 classes, non-ASCII names included."""
    rng = random.Random(2000)
    names = [f"c{i}" if i % 100 else f"caf\u00e9-\u65e5{i}" for i in range(2000)]
    for side, hit in (("a", 0.7), ("b", 0.8)):
        with open(directory / f"{side}.csv", "w", encoding="utf-8") as out:
            for _ in range(20_000):
                actual = rng.choice(names)
                predicted = actual if rng.random() < hit else rng.choice(names)
                out.write(f"{actual},{predicted}\n")


def test_json_reports_at_k2000_are_the_standard_layout_and_round_trip(tmp_path, monkeypatch, capsys):
    """Both commands' JSON at K=2000, non-ASCII names included, is json.dumps' indent-2 text and reads back.

    Read through a pipe, each report, the comparison several MB, far past a pipe's buffer, is main's report in
    process, whole, though the CLI ends through os._exit.
    """
    write_k2000_label_files(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
    cli = [sys.executable, "-m", "clfmetrics"]
    outs = {}
    monkeypatch.chdir(tmp_path)
    for command, paths in (("compare", ["a.csv", "b.csv"]), ("evaluate", ["a.csv"])):
        argv = [*cli, command, "--kind", "labels", "--format", "json", *paths]
        result = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert (result.returncode, result.stderr) == (0, b""), command
        outs[command] = out = result.stdout.decode("utf-8")
        assert main(argv[len(cli):]) == 0
        assert_equal_short_diff(out, capsys.readouterr().out, f"{command} reports through a pipe and in process")
        # The standard library's encoder is the reference, independent of the package's writer.
        standard = json.dumps(json.loads(out), indent=2, ensure_ascii=True) + "\n"
        assert_equal_short_diff(out, standard, f"{command} reports")
    assert_equal_short_diff(render_json(parse_json(outs["evaluate"])), outs["evaluate"])


# Run as `python -S -c LOADED <argv>`, the command as `python -m clfmetrics` runs it. At the os._exit that ends it,
# it writes to loaded.txt its exit code, the clfmetrics modules it loaded (clfmetrics.__main__ runs as __main__),
# and which of WATCHED it loaded.
WATCHED = ("json", "dataclasses", "inspect", "threading", "signal")
LOADED = f"""
import os, runpy, sys
exit = os._exit

def report(code):
    with open("loaded.txt", "w") as out:
        names = [*sys.modules, sys.modules["__main__"].__spec__.name]
        ours = sorted(name for name in names if name.partition(".")[0] == "clfmetrics")
        out.write(repr((code, ours, [name for name in {WATCHED!r} if name in sys.modules])))
    exit(code)

os._exit = report
runpy.run_module("clfmetrics", run_name="__main__", alter_sys=True)
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """--version, --help and usage errors load no layer; a run loads its own path's modules, and the claim queue,
    the probability modules and json only where it uses them. None loads dataclasses or the inspect it pulls in."""
    rng = random.Random(15)
    for name in ("big_a", "big_b"):
        rows = (f"c{rng.randrange(10)},c{rng.randrange(10)}\n" for _ in range(200_000))
        (tmp_path / f"{name}.csv").write_text("".join(rows), encoding="utf-8")
        assert (tmp_path / f"{name}.csv").stat().st_size >= ingest.PARALLEL_MIN_BYTES
    (tmp_path / "a.csv").write_text("x,x\nx,y\ny,y\n", encoding="utf-8")
    (tmp_path / "b.csv").write_text("x,y\ny,y\ny,x\n", encoding="utf-8")
    (tmp_path / "p.csv").write_text("actual,a,b\na,0.25,0.75\nb,0.5,0.5\n", encoding="utf-8")
    (tmp_path / "m.csv").write_text(",x,y\nx,1,2\ny,0,3\n", encoding="utf-8")
    (tmp_path / "w.csv").write_text("x,2\ny,1/3\n", encoding="utf-8")
    start = ["clfmetrics", "clfmetrics.__main__", "clfmetrics.cli"]
    labels = sorted([*start, "clfmetrics.confusion", "clfmetrics.ingest", "clfmetrics.metrics", "clfmetrics.report"])
    forks = hasattr(os, "fork") and len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) > 1
    big = sorted([*labels, *["clfmetrics.claims"] * forks]), ["threading", "signal"] * forks
    runs = {
        "--version": (["--version"], 0, start, []),
        "--help": (["--help"], 0, start, []),
        "evaluate --help": (["evaluate", "--help"], 0, start, []),
        "usage error": (["evaluate", "--kind", "nope", "a.csv"], 3, start, []),
        "labels": (["evaluate", "--kind", "labels", "a.csv"], 0, labels, []),
        "labels past 1 MiB": (["evaluate", "--kind", "labels", "big_a.csv"], 0, *big),
        "compare json": (["compare", "--kind", "labels", "--format", "json", "a.csv", "b.csv"], 0,
                         sorted([*labels, "clfmetrics.jsonreport"]), ["json"]),
        "compare json past 1 MiB": (["compare", "--kind", "labels", "--format", "json", "big_a.csv", "big_b.csv"], 0,
                                    sorted([*big[0], "clfmetrics.jsonreport"]), ["json", *big[1]]),
        "probs": (["evaluate", "--kind", "probs", "p.csv"], 0,
                  sorted([*labels, "clfmetrics.proba", "clfmetrics.probfile"]), []),
        "matrix": (["evaluate", "--kind", "matrix", "m.csv"], 0, labels, []),
        "weights": (["evaluate", "--kind", "matrix", "--weights", "w.csv", "m.csv"], 0, labels, []),
    }
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
    loaded, expected = {}, {}
    for name, (argv, code, modules, watched) in runs.items():
        subprocess.run([sys.executable, "-S", "-c", LOADED, *argv], cwd=tmp_path, env=env, capture_output=True,
                       timeout=120)
        loaded[name] = eval((tmp_path / "loaded.txt").read_text())
        (tmp_path / "loaded.txt").unlink()
        expected[name] = (code, modules, [module for module in WATCHED if module in watched])
    assert loaded == expected


# Run as `python -c INTERRUPTED <module> <argv>`: the command as `python -m clfmetrics` runs it, with a SIGINT as the
# module named starts to load, where a real one may arrive.
INTERRUPTED = """
import runpy, sys

class Interrupt:
    def find_spec(self, name, path=None, target=None):
        if name == interrupted:
            raise KeyboardInterrupt

interrupted = sys.argv.pop(1)
sys.meta_path.insert(0, Interrupt())
runpy.run_module("clfmetrics", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "module, argv",
    [
        ("clfmetrics.cli", ["--version"]),
        ("clfmetrics.ingest", ["evaluate", "--kind", "labels", "a.csv"]),
        ("clfmetrics.report", ["evaluate", "--kind", "labels", "a.csv"]),
        ("clfmetrics.jsonreport", ["evaluate", "--kind", "labels", "--format", "json", "a.csv"]),
        ("clfmetrics.probfile", ["evaluate", "--kind", "probs", "p.csv"]),
    ],
)
def test_a_sigint_while_a_module_loads_exits_130_and_prints_nothing(tmp_path, module, argv):
    (tmp_path / "a.csv").write_text("x,x\nx,y\ny,y\n", encoding="utf-8")
    (tmp_path / "p.csv").write_text("actual,a,b\na,0.25,0.75\nb,0.5,0.5\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
    run = subprocess.run([sys.executable, "-c", INTERRUPTED, module, *argv], cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (130, b"", b"")


class TestLargeKMemory:
    """K=20,000 in a small file: memory follows the nonzero cells, so the CLI fits in 512 MiB of address space."""

    K = 20_000

    @staticmethod
    def run_capped(argv):
        resource = pytest.importorskip("resource")
        cap = 512 << 20

        def limit():  # a per-process limit on this child alone
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "clfmetrics", *argv], preexec_fn=limit, env=env, capture_output=True, timeout=120
        )

    def test_sparse_label_file(self, tmp_path):
        rng = random.Random(20_000)
        rows = (f"c{i},c{i if rng.random() < 0.7 else rng.randrange(self.K)}\n" for i in range(self.K))
        path = tmp_path / "labels.csv"
        path.write_text("".join(rows), encoding="utf-8")
        result = self.run_capped(["evaluate", "--kind", "labels", "--format", "json", str(path)])
        assert (result.returncode, result.stderr) == (0, b"")
        assert len(json.loads(result.stdout)["classes"]) == self.K

    def test_two_row_probability_file(self, tmp_path):
        rng = random.Random(20_001)
        names = [f"c{i}" for i in range(self.K)]
        lines = ["actual," + ",".join(names)]
        for _ in range(2):
            hot = rng.randrange(self.K)
            lines.append(f"c{rng.randrange(self.K)}," + ",".join("1" if j == hot else "0.0" for j in range(self.K)))
        path = tmp_path / "probs.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = self.run_capped(["evaluate", "--kind", "probs", "--format", "json", str(path)])
        assert (result.returncode, result.stderr) == (0, b"")
        assert len(json.loads(result.stdout)["classes"]) == self.K


# Run as a script with the CLI's arguments: starts the CLI with posix_spawn and writes its exit code and its
# wait4 peak RSS. Linux carries a parent's high-water RSS into a child it spawns, so the parent is this small
# process, not the test run.
PEAK_RSS = (
    "import os, sys; argv = [sys.executable, '-m', 'clfmetrics', *sys.argv[1:]]\n"
    "_, status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ), 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


class TestOversizedLabelLine:
    """A 20 MB line is not held many times: the steps refuse it before joining it, or read it alone as a header."""

    @staticmethod
    def peak_mib(argv, cwd, stdin=None):
        """The exit code, stderr and peak RSS in MiB of one CLI run, given the bytes stdin through a pipe, if any."""
        if not (hasattr(os, "wait4") and hasattr(os, "posix_spawn")):
            pytest.skip("no os.wait4 or os.posix_spawn")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
        result = subprocess.run(
            [sys.executable, "-S", "-c", PEAK_RSS, *argv], cwd=cwd, env=env, input=stdin, capture_output=True,
            timeout=120,
        )
        code, peak = map(int, result.stdout.split()[-2:])
        return code, result.stderr, peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)

    @pytest.mark.parametrize("via", ["file", "pipe"])
    @pytest.mark.parametrize(
        "short, args, after",
        [
            (b"", ["--kind", "labels"], b""),
            (b"a,b\n", ["--kind", "labels"], b""),
            ("é,b\n".encode(), ["--kind", "labels"], b""),
            (b"", ["--kind", "labels", "--has-header"], b"a,b\n" * 1_000),
            (b"", ["--kind", "probs"], b"a,0.5,0.5\n" * 1_000),
        ],
        ids=["alone", "after_ascii", "after_utf8", "label_header", "probability_header"],
    )
    def test_a_20_mb_line_costs_at_most_two_and_a_half_times_its_size(self, tmp_path, short, args, after, via):
        """The line alone, or after 1,000 short lines, ASCII or not (10M of "é"), or a header before 1,000 rows."""
        size = 20_000_000
        data = short * 1_000 + b"a," + (b"x" * size if short.isascii() else "é".encode() * (size // 2)) + b"\n" + after
        (tmp_path / "big.csv").write_bytes(data)
        code, _, base = self.peak_mib(["--version"], tmp_path)
        assert code == 0
        argv = ["evaluate", *args, "big.csv" if via == "file" else "/dev/stdin"]
        code, message, peak = self.peak_mib(argv, tmp_path, data if via == "pipe" else None)
        error = f"line {1 + 1_000 * bool(short)}: malformed CSV: field larger than field limit (131072)"
        assert (code, message) == (2, f"clfmetrics: error: {error}\n".encode())
        assert peak - base < 2.5 * size / (1 << 20), (base, peak)


class TestPeakMemory:
    """Peak RSS above --version's, from os.wait4 as TestOversizedLabelLine.peak_mib reads it, at large K."""

    def test_a_k2000_json_comparison_holds_one_per_class_table_at_a_time(self, tmp_path, monkeypatch, capsys):
        """The report, 1.9 MB, is written a per-class table at a time: under 3.5 times its size above --version,
        midway between 2.4-2.5 (4.3-4.5 MiB) and the 4.6 (8.3-8.4 MiB) of the whole report held joined, with a
        line end and encoded, so that about 2 MiB is left either side for another interpreter's object sizes."""
        write_k2000_label_files(tmp_path)
        argv = ["compare", "--kind", "labels", "--format", "json", "a.csv", "b.csv"]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        report_mib = len(capsys.readouterr().out.encode()) / (1 << 20)
        _, _, base = TestOversizedLabelLine.peak_mib(["--version"], tmp_path)
        code, message, peak = TestOversizedLabelLine.peak_mib(argv, tmp_path)
        assert (code, message) == (0, b"")
        assert peak - base < 3.5 * report_mib, (base, peak, report_mib)

    def test_a_dense_k1000_matrix_holds_one_dict_of_its_cells(self, tmp_path):
        """The reader's dict of 1,000,000 cells is the matrix's: under two dicts of them above --version (1.6
        here, counting each cell's 2-tuple key and 3-word entry), where a checked copy of the cells took 3.5."""
        rng = random.Random(5)
        names = [f"c{i}" for i in range(1000)]
        with open(tmp_path / "dense.csv", "w", encoding="utf-8") as out:
            out.write("," + ",".join(names) + "\n")
            out.writelines(f"{row}," + ",".join(str(rng.randint(1, 99)) for _ in names) + "\n" for row in names)
        one_dict_mib = len(names) ** 2 * (sys.getsizeof((999, 999)) + 3 * struct.calcsize("P")) / (1 << 20)
        _, _, base = TestOversizedLabelLine.peak_mib(["--version"], tmp_path)
        code, message, peak = TestOversizedLabelLine.peak_mib(["evaluate", "--kind", "matrix", "dense.csv"], tmp_path)
        assert (code, message) == (0, b"")
        assert peak - base < 2 * one_dict_mib, (base, peak, one_dict_mib)


    @pytest.mark.parametrize("end", [b"", b"\n"], ids=["no_lf", "a_final_lf"])
    def test_a_bare_cr_probability_file_is_not_read_whole_for_its_header(self, tmp_path, end):
        """The steps end the header at its first CR, and refuse the step that holds the bad row: a 20 MB file
        whose lines end in CR costs 1.6-2.0 MiB above --version here, under a quarter of its size. Read up to its
        first LF, or its end, and decoded whole, the header cost 40-78 MiB, two to four times the file."""
        size = 20_000_000
        (tmp_path / "cr.csv").write_bytes(b"actual,a,b\ra,0.5,oops\r" + b"a,0.5,0.5\r" * (size // 10) + end)
        _, _, base = TestOversizedLabelLine.peak_mib(["--version"], tmp_path)
        code, message, peak = TestOversizedLabelLine.peak_mib(["evaluate", "--kind", "probs", "cr.csv"], tmp_path)
        assert (code, message) == (2, b"clfmetrics: error: line 2, column 3: bad probability 'oops'\n")
        assert peak - base < size / 4 / (1 << 20), (base, peak)


class TestOutputFaults:
    """A stdout that cannot take the report exits 4, with at most one stderr line and no traceback."""

    @pytest.fixture(scope="class")
    def k1000_comparison(self, tmp_path_factory):
        """The CLI's arguments for a JSON comparison at K=1000, about 1 MB written a per-class table at a time."""
        rng = random.Random(1000)
        work = tmp_path_factory.mktemp("k1000_comparison")
        names = [f"c{i}" for i in range(1000)]
        for side in ("a", "b"):
            rows = (f"{name},{name if rng.random() < 0.7 else rng.choice(names)}\n" for name in names * 10)
            (work / f"{side}.csv").write_text("".join(rows), encoding="utf-8")
        return [sys.executable, "-m", "clfmetrics", "compare", "--kind", "labels", "--format", "json",
                str(work / "a.csv"), str(work / "b.csv")]

    @staticmethod
    def run(argv, **kwargs):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
        return subprocess.run(argv, env=env, timeout=120, **{"stderr": subprocess.PIPE, **kwargs})

    @staticmethod
    def cli(path):
        return [sys.executable, "-m", "clfmetrics", "evaluate", "--kind", "matrix", path]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_full_device(self, four_class_file):
        with open("/dev/full", "wb") as full:
            result = self.run(self.cli(four_class_file), stdout=full)
        message = f"clfmetrics: error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert (result.returncode, result.stderr) == (4, message.encode())

    def test_a_pipe_whose_reader_has_gone_is_quiet(self, four_class_file):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run(self.cli(four_class_file), stdout=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (4, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_a_k1000_json_comparison_on_a_full_device(self, k1000_comparison):
        """The first piece's write fails: one error line, and no later piece is written."""
        with open("/dev/full", "wb") as full:
            result = self.run(k1000_comparison, stdout=full)
        message = f"clfmetrics: error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert (result.returncode, result.stderr) == (4, message.encode())

    def test_a_k1000_json_comparison_to_a_reader_that_leaves_after_64_kib_is_quiet(self, k1000_comparison):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
        with subprocess.Popen(k1000_comparison, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as cli:
            try:
                assert len(cli.stdout.read(64 << 10)) == 64 << 10
                cli.stdout.close()
                code, message = cli.wait(timeout=120), cli.stderr.read()
            finally:
                cli.kill()
        assert (code, message) == (4, b"")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_reader_that_leaves_during_a_one_piece_report_is_quiet(self, tmp_path, unbuffered):
        """A text report of 400 kB is one write: under python -u, stdout's raw file takes the part the pipe holds
        and returns its length, and the rest is written until the reader's leaving fails a write."""
        name = "x" * 100_000
        (tmp_path / "m.csv").write_text(f",{name},b\n{name},1,0\nb,0,1\n", encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(clfmetrics.__file__))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "clfmetrics", "evaluate", "--kind", "matrix", str(tmp_path / "m.csv")]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as cli:
            try:
                assert cli.stdout.read(1)  # the report's write has begun
                cli.stdout.close()
                code, message = cli.wait(timeout=120), cli.stderr.read()
            finally:
                cli.kill()
        assert (code, message) == (4, b"")

    def test_a_full_non_blocking_pipe_under_python_u_exits_4(self, tmp_path):
        """Under python -u, stdout's raw file returns None when a non-blocking pipe is full: that is an error, not a
        write of nothing to retry at once, which would spin until a reader that never comes drains the pipe."""
        name = "x" * 100_000
        (tmp_path / "m.csv").write_text(f",{name},b\n{name},1,0\nb,0,1\n", encoding="utf-8")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(clfmetrics.__file__))
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        try:
            argv = self.cli(str(tmp_path / "m.csv"))
            result = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
            os.close(read_end)
        message = f"clfmetrics: error: cannot write output: [Errno {errno.EAGAIN}] stdout would block\n"
        assert (result.returncode, result.stderr) == (4, message.encode())

    def test_a_closed_stdout(self, four_class_file):
        result = self.run(["sh", "-c", 'exec "$@" >&-', "sh", *self.cli(four_class_file)])
        assert (result.returncode, result.stderr) == (4, b"clfmetrics: error: cannot write output: stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_on_a_full_device(self, flag):
        with open("/dev/full", "wb") as full:
            result = self.run([sys.executable, "-m", "clfmetrics", flag], stdout=full)
        message = f"clfmetrics: error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert (result.returncode, result.stderr) == (4, message.encode())

    def test_help_on_a_closed_stdout(self):
        result = self.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "clfmetrics", "--help"])
        assert (result.returncode, result.stderr) == (4, b"clfmetrics: error: cannot write output: stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv, code",
        [(["evaluate", "--kind", "labels", "missing.csv"], 2), (["evaluate", "--kind", "bogus", "missing.csv"], 3)],
        ids=["input-error", "usage-error"],
    )
    def test_an_error_message_on_a_full_stderr_keeps_its_code(self, tmp_path, argv, code):
        with open("/dev/full", "wb") as full:
            result = self.run([sys.executable, "-m", "clfmetrics", *argv], cwd=tmp_path, stdout=subprocess.PIPE, stderr=full)
        assert (result.returncode, result.stdout) == (code, b"")

    def test_an_error_message_on_a_closed_stderr_keeps_its_code(self, tmp_path):
        argv = ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "clfmetrics", "evaluate", "--kind", "labels", "missing.csv"]
        result = self.run(argv, cwd=tmp_path, stdout=subprocess.PIPE)
        assert (result.returncode, result.stdout, result.stderr) == (2, b"", b"")


class TestInterrupt:
    """SIGINT, as a terminal's Ctrl-C sends it to the foreground process group, exits 130 and prints nothing.

    Each run starts in a session of its own, so the signal goes to its process group alone, with SIGINT's
    default action whatever the suite inherited.
    """

    def test_a_run_blocked_on_a_held_open_pipe(self):
        fcntl, termios = pytest.importorskip("fcntl"), pytest.importorskip("termios")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(clfmetrics.__file__)))
        argv = [sys.executable, "-m", "clfmetrics", "evaluate", "--kind", "labels", "/dev/stdin"]
        pipes = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen(argv, env=env, start_new_session=True, preexec_fn=default_sigint, **pipes) as cli:
            try:
                cli.stdin.write(b"a,a\nb,b\n")
                cli.stdin.flush()
                # Once the rows have left the pipe the tool is reading them in main, and then waits for more.
                deadline = time.monotonic() + 60
                while struct.unpack("i", fcntl.ioctl(cli.stdin, termios.FIONREAD, bytes(4)))[0]:
                    assert time.monotonic() < deadline, "the tool never read its input"
                    time.sleep(0.01)
                os.killpg(cli.pid, signal.SIGINT)
                code = cli.wait(timeout=60)
            finally:
                cli.kill()
            assert (code, cli.stdout.read(), cli.stderr.read()) == (130, b"", b"")


class TestExitPath:
    """The command ends through run: main's code once stdout and stderr are flushed, then os._exit.

    The runs' streams are buffered, as by default, so a report left in a buffer would be lost.
    """

    @staticmethod
    def run(argv, **kwargs):
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(clfmetrics.__file__))
        return subprocess.run(argv, env=env, capture_output=True, timeout=120, **kwargs)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["evaluate", "--kind", "matrix", "matrix.csv"], 0),
            (["evaluate", "--kind", "labels", "missing.csv"], 2),
            (["evaluate", "--kind", "bogus", "matrix.csv"], 3),
            (["sh", "-c", 'exec "$@" >&-', "sh", "evaluate", "--kind", "matrix", "matrix.csv"], 4),
            (["--version"], 0),
            (["--help"], 0),
        ],
        ids=["ok", "input-error", "usage-error", "closed-stdout", "version", "help"],
    )
    def test_run_is_the_module_entry_point(self, four_class_file, tmp_path, argv, code):
        """`python -c` calling run, as the installed script does, and `python -m` give the same code and bytes."""
        prefix, argv = (argv[:4], argv[4:]) if argv[0] == "sh" else ([], argv)
        entries = (["-m", "clfmetrics"], ["-c", "from clfmetrics.cli import run; run()"])
        module, script = (self.run([*prefix, sys.executable, *entry, *argv], cwd=tmp_path) for entry in entries)
        assert module.returncode == code and (module.stdout != b"") == (code == 0)
        assert (script.returncode, script.stdout, script.stderr) == (code, module.stdout, module.stderr)

    def test_an_atexit_handler_does_not_run(self):
        """Documented: teardown is skipped, atexit handlers with it; main called in process returns as before."""
        script = (
            "import atexit, runpy, sys\n"
            "atexit.register(sys.stderr.write, 'atexit ran\\n')\n"
            "how, sys.argv[1:] = sys.argv[1], ['--version']\n"
            "if how == 'run':\n"
            "    runpy.run_module('clfmetrics', run_name='__main__', alter_sys=True)\n"
            "from clfmetrics.cli import main\n"
            "main()\n"
        )
        runs = [self.run([sys.executable, "-c", script, how]) for how in ("run", "main")]
        version = f"clfmetrics {clfmetrics.__version__}\n".encode()
        assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(0, version, b""), (0, version, b"atexit ran\n")]


CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet=",\n\r\t\"ab01239-.e/ +_\u0663\ufeff", max_size=120).map(lambda t: t.encode("utf-8")),
)


class TestAnyInputBytes:
    """Whatever the file holds, the CLI reports and exits 0, 2 or 3; it never crashes."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @given(
        kind=st.sampled_from(["labels", "probs", "matrix", "weights"]),
        payload=CSV_BYTES,
        fmt=st.sampled_from(["text", "json"]),
    )
    @example(kind="matrix", payload=f",a,b\na,1{'0' * 200},3\nb,7,5{'0' * 199}\n".encode(), fmt="text")
    @example(kind="weights", payload=b"a,1e1000000\nb,1\n", fmt="text")
    @example(kind="matrix", payload=",a,b\na,+1,1_000\nb, 2 ,\u0663\n".encode(), fmt="json")
    @settings(max_examples=150, deadline=timedelta(seconds=1))
    def test_exit_code_is_in_the_contract(self, work, kind, payload, fmt):
        path = work / f"{kind}.csv"
        path.write_bytes(payload)
        if kind == "weights":
            matrix = work / "weighted-matrix.csv"
            matrix.write_text(",a,b\na,3,1\nb,2,4\n", encoding="utf-8")
            argv = ["evaluate", "--kind", "matrix", "--weights", str(path), str(matrix)]
        else:
            argv = ["evaluate", "--kind", kind, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (out.getvalue() != "")


LABEL_FIELDS = st.sampled_from([b"a", b"b", b"c", b"", b'"a"', b"\xff", "\u00e9".encode(), b"\xef\xbb\xbfa"])
VALUE_FIELDS = st.sampled_from([b"0", b"1", b"0.5", b"2", b"-1", b"1.5", b"nan", b"x", b"1/3", b"", b'"', b"\xff"])
# A valid file of each kind; each case puts one drawn row in it, in place of a line or between two.
VALID_LINES = {
    "labels": [b"a,b", b"b,a", b"a,a"],
    "probs": [b"actual,a,b", b"a,0.5,0.5", b"b,1,0", b"a,0.25,0.75"],
    "matrix": [b",a,b", b"a,1,2", b"b,3,4"],
    "weights": [b"a,1"],
}
LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n"])


@st.composite
def content_lines(draw, kind):
    """The lines of a valid file of the kind with one drawn row put in, mostly of the right width."""
    width = len(VALID_LINES[kind][-1].split(b","))
    fields = LABEL_FIELDS if kind == "labels" else VALUE_FIELDS
    rest = [draw(fields) for _ in range(draw(st.sampled_from([width - 1] * 4 + [width - 2, width])))]
    row = b",".join([draw(LABEL_FIELDS), *rest])
    lines = list(VALID_LINES[kind])
    at = draw(st.integers(0, len(lines)))
    lines[at:at + draw(st.integers(0, 1))] = [row]
    return lines


# Conditions of the whole file, not of one line: no data rows, a single class, or weights that are all zero.
WHOLE_FILE_ERRORS = (
    "empty input", "cross-entropy over zero records", "at least 2 classes", "weights must not all be zero"
)


class TestEveryContentErrorNamesItsLine:
    """Whatever a file holds, an exit-2 error caused by its content carries `line N`."""

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("lines")

    @given(
        kind=st.sampled_from(["labels", "probs", "probs-split", "matrix", "weights"]),
        data=st.data(),
        ends=st.lists(LINE_ENDS, min_size=1, max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_content_errors_carry_a_line_number(self, work, kind, data, ends):
        base = kind.removesuffix("-split")
        lines = data.draw(content_lines(base))
        path = work / f"{base}.csv"
        path.write_bytes(b"".join(line + ends[i % len(ends)] for i, line in enumerate(lines)))
        if base == "weights":
            matrix = work / "weighted-matrix.csv"
            matrix.write_text(",a,b\na,3,1\nb,2,4\n", encoding="utf-8")
            argv = ["evaluate", "--kind", "matrix", "--weights", str(path), str(matrix)]
        else:
            argv = ["evaluate", "--kind", base, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(ingest, "PARALLEL_MIN_BYTES", 0 if kind == "probs-split" else 1 << 62):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        message = err.getvalue()
        if code == 2 and not any(condition in message for condition in WHOLE_FILE_ERRORS):
            assert re.search(r"error: line [0-9]+", message), message
