"""The benchmark's own checks: a wrong answer, a cut input or a failed exit must count.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def work():
    path = ROOT / ".perfbench_work" / f"test-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def compare(work):
    return workloads.generate("imagenet-compare", 7, work)


def fail_share(workload: workloads.Workload, work: Path) -> float:
    with run.Runner(ROOT, work, workload) as runner:
        runner.evaluate()
    return runner.failed / runner.attempted


def test_correct_output_passes(compare, work):
    assert fail_share(compare, work) == 0


def test_altered_expected_rational_fails(compare, work):
    side = compare.sides[1]
    side.expected["kappa"] += Fraction(1, 10**12)
    assert fail_share(compare, work) == 1


def test_truncated_input_fails(compare, work):
    path = compare.files[0]
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    assert fail_share(compare, work) == 1


def test_nonzero_exit_fails(compare, work):
    compare.files[1].unlink()
    assert fail_share(compare, work) == 1


def test_text_check_reads_exact_column(work):
    workload = workloads.generate("labels-1m", 3, work)
    side = workload.sides[0]
    assert fail_share(workload, work) == 0
    side.expected["macro_f1"] += Fraction(1, 10**30)  # below the table's four decimals
    assert fail_share(workload, work) == 1


def test_seed_keeps_shape_and_changes_rows(work):
    first = workloads.generate("imagenet-compare", 1, work / "first")
    again = workloads.generate("imagenet-compare", 1, work / "again")
    other = workloads.generate("imagenet-compare", 2, work / "other")
    assert [p.read_bytes() for p in first.files] == [p.read_bytes() for p in again.files]
    assert [p.read_bytes() for p in first.files] != [p.read_bytes() for p in other.files]
    assert first.units == other.units == 100_000
    assert first.sides[0].labels == other.sides[0].labels


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:22]) == (12.0, 100.0 * 12 / 22)
    assert run.tail(samples[:21]) == (11.0, 100.0 * 11 / 21)
    assert run.tail(samples[:20]) == (11.0, 55.0)
    assert run.tail(samples[:12]) == (7.0, 100.0 * 7 / 12)
    assert run.tail(samples[:7]) == (4.0, 100.0 * 4 / 7)
