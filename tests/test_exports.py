"""The package's public names, imported from their modules on first use, are the same surface as when bound at import."""

import importlib
import os
import pickle
import subprocess
import sys
import time

import pytest

import clfmetrics
from clfmetrics import XentOptions, claims, evaluate, from_pairs, ingest, tally_labels

SRC = os.path.dirname(os.path.dirname(clfmetrics.__file__))


def run_python(code):
    """The stdout of a fresh `python -S -c code` that finds the package as the tests do."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_package_loads_no_submodule():
    loaded = run_python("import sys, clfmetrics; print(sorted(n for n in sys.modules if n.startswith('clfmetrics')))")
    assert loaded == "['clfmetrics']\n"


def test_a_module_of_the_package_resolves_without_an_import():
    assert run_python("import clfmetrics; print(clfmetrics.ingest.tally_labels.__module__)") == "clfmetrics.ingest\n"


@pytest.mark.parametrize("name", [name for name in clfmetrics.__all__ if name != "__version__"])
def test_each_public_name_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"clfmetrics.{clfmetrics._HOME[name]}")
    value = getattr(clfmetrics, name)
    assert value is vars(module)[name]
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_a_star_import_binds_exactly_all_and_dir_lists_it():
    names = {}
    exec("from clfmetrics import *", names)
    assert set(names) - {"__builtins__"} == set(clfmetrics.__all__)
    assert len(clfmetrics.__all__) == len(set(clfmetrics.__all__)) == 59
    assert set(clfmetrics.__all__) <= set(dir(clfmetrics))


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'clfmetrics' has no attribute 'no_such_name'$"):
        clfmetrics.no_such_name
    with pytest.raises(ImportError):
        exec("from clfmetrics import no_such_name", {})


def test_a_report_and_its_options_survive_a_pickle_round_trip():
    report = evaluate(from_pairs([("a", "a"), ("a", "b"), ("b", "b")]), dataset="d.csv")
    options = XentOptions(1e-9, "sum")
    assert pickle.loads(pickle.dumps(report)) == report
    assert pickle.loads(pickle.dumps(options)) == options
    assert type(pickle.loads(pickle.dumps(options))) is clfmetrics.proba.XentOptions


CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()


@pytest.mark.skipif(not hasattr(os, "fork") or len(CPUS) < 2, reason="the fork needs os.fork and two CPUs")
def test_patches_of_the_claim_queue_reach_the_forked_path(tmp_path, monkeypatch):
    """claims._PIECE and ingest._range_steps, patched here, are the ones both processes of a forked tally use."""
    path = tmp_path / "labels.csv"
    path.write_bytes(b"a,b\nb,b\n" * 4096)  # 32 KiB: 32 pieces of 1 KiB
    steps, here, log = ingest._range_steps, os.getpid(), tmp_path / "claims"

    def recorded(fd, begin, end, *step):
        with open(log, "a") as out:
            out.write("parent\n" if os.getpid() == here else "child\n")
        deadline = time.monotonic() + 30
        while os.getpid() == here and "child" not in log.read_text() and time.monotonic() < deadline:
            time.sleep(0.01)  # the parent waits at each claim until the child has claimed a piece too
        return steps(fd, begin, end, *step)

    monkeypatch.setattr(ingest, "PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(claims, "_PIECE", 1 << 10)
    monkeypatch.setattr(ingest, "_range_steps", recorded)
    matrix = tally_labels(str(path))
    assert dict(matrix.cells) == {(0, 1): 4096, (1, 1): 4096}
    who = log.read_text().split()
    assert len(who) == 32 and set(who) == {"parent", "child"}
