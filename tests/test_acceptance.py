"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion; the same suite is reachable as ``stochavg acceptance``.
"""

import pytest

from stochavg import averaging, sde
from stochavg.acceptance import CRITERIA

N_PATHS = 4000
SEED = 2024


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(index):
    result = CRITERIA[index](n_paths=N_PATHS, seed=SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, f"criterion {result.index} ({result.name}): {result.detail}"


def _scaled_effective_drift(monkeypatch, k):
    polys = sde._effective_drift_polys
    monkeypatch.setattr(sde, "_effective_drift_polys",
                        lambda spec, variant: tuple(p * k for p in polys(spec, variant)))


def _scaled_effective_dispersion(monkeypatch, k):
    b = averaging.constant_psi_b
    monkeypatch.setattr(averaging, "constant_psi_b", lambda spec: b(spec) * k)


@pytest.mark.parametrize("plant", [
    pytest.param(lambda mp: _scaled_effective_drift(mp, 1.2), id="drift_x1.2"),
    pytest.param(lambda mp: _scaled_effective_dispersion(mp, 1.1), id="dispersion_x1.1"),
])
def test_criterion_5_detects_a_defect_in_the_effective_equation(monkeypatch, plant):
    # a floor on the gate's power: the effective side alone is made wrong,
    # and the epsilon sweep must no longer look convergent
    plant(monkeypatch)
    result = CRITERIA[5](n_paths=N_PATHS, seed=SEED)
    print(f"criterion 5 with a planted defect -- {result.detail}")
    assert not result.passed
