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


def _times(polys, k):
    """The nested polynomials (or action polynomials) ``polys``, each times k."""
    if isinstance(polys, tuple):
        return tuple(_times(p, k) for p in polys)
    if isinstance(polys, averaging.ActionPolynomial):
        return averaging.ActionPolynomial(polys.n, polys.coeffs * k, polys.expos)
    return polys * k


def _plant(monkeypatch, owner, name, k):
    """Scale every polynomial that ``owner.name`` returns by k."""
    make = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: _times(make(*args), k))


# a diffusion scaled by 1.21 scales its root, the noise amplitude, by 1.1
@pytest.mark.parametrize("plant", [
    pytest.param(lambda mp: _plant(mp, sde, "_effective_drift_polys", 1.2), id="drift_x1.2"),
    pytest.param(lambda mp: _plant(mp, averaging, "averaged_diffusion_polys", 1.21),
                 id="dispersion_x1.1"),
])
def test_criterion_5_detects_a_defect_in_the_effective_equation(monkeypatch, plant):
    # a floor on the gate's power: the effective side alone is made wrong,
    # and the epsilon sweep must no longer look convergent
    plant(monkeypatch)
    result = CRITERIA[5](n_paths=N_PATHS, seed=SEED)
    print(f"criterion 5 with a planted defect -- {result.detail}")
    assert not result.passed


@pytest.mark.parametrize("plant", [
    pytest.param(lambda mp: _plant(mp, averaging, "action_drift_polys", 1.2), id="drift_x1.2"),
    pytest.param(lambda mp: _plant(mp, averaging, "action_diffusion_polys", 1.21),
                 id="dispersion_x1.1"),
])
def test_criterion_8_detects_a_defect_in_the_action_equation(monkeypatch, plant):
    # the action side alone is made wrong, and its law must no longer pass
    # for that of the effective actions
    plant(monkeypatch)
    result = CRITERIA[8](n_paths=N_PATHS, seed=SEED)
    print(f"criterion 8 with a planted defect -- {result.detail}")
    assert not result.passed
