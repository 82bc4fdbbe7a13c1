"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion; the same suite is reachable as ``stochavg acceptance``.
"""

import pytest

from stochavg.acceptance import CRITERIA

N_PATHS = 4000
SEED = 2024


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    result = CRITERIA[index](n_paths=N_PATHS, seed=SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"
