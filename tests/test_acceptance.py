"""Acceptance gate: every criterion must pass, one line printed per item,
and each line must equal its golden copy under tests/golden/acceptance/.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or
use the CLI: `gbdkit report --suite acceptance`.
"""

import pathlib
import time

import pytest

from gbdkit.acceptance import CRITERIA, run_criterion

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "acceptance"


@pytest.mark.parametrize("name", [n for n, _ in CRITERIA])
def test_criterion(name):
    result = run_criterion(name)
    print(result.line)
    assert result.passed, result.line
    assert result.line + "\n" == (GOLDEN / f"{name}.txt").read_text()


def test_runtime_budget():
    # the block re-enumeration criterion carries an explicit budget
    start = time.perf_counter()
    result = run_criterion("9_block_reenumeration")
    elapsed = time.perf_counter() - start
    assert result.passed
    assert elapsed < 30.0, f"re-enumeration criterion took {elapsed:.1f}s"
