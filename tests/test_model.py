import hashlib
import re

import numpy as np
import pytest

from stochavg import (
    ConfigError,
    Frequencies,
    SystemSpec,
    check_ellipticity,
    check_nonresonance,
    estimate_growth,
    orthogonality_residual,
    parse_field_expr,
)
from stochavg.acceptance import _rand_state, _random_monomial_poly
from stochavg.config import parse_system_text, system_to_text
from stochavg.poly import Field, Polynomial
from stochavg.systems import acceptance_system


def expr(text, n):
    return parse_field_expr(text, n)


def residual_at_origin(h, n):
    """The orthogonality residual of ``h`` at v = 0 in C^n: it checks h as a
    Hamiltonian over n modes before it evaluates anything."""
    return orthogonality_residual(h, np.zeros(n, dtype=complex))


def make_spec(n=2, h=None, psi_texts=None, p1_texts=None, psi_kind="constant", **kw):
    psi_texts = psi_texts or [["1", "0"], ["0", "1"]][:n]
    p1_texts = p1_texts or ["0"] * n
    return SystemSpec(
        freqs=Frequencies(tuple(range(1, n + 1))),
        epsilon=kw.pop("epsilon", 0.5),
        p1=tuple(expr(t, n) for t in p1_texts),
        psi=tuple(tuple(expr(t, n) for t in row) for row in psi_texts),
        h=expr(h, n) if h else None,
        psi_kind=psi_kind,
        **kw,
    )


# -- frequencies and spec validation ---------------------------------------

def test_frequencies_reject_zero():
    with pytest.raises(ConfigError):
        Frequencies((1.0, 0.0))


def test_spec_rejects_bad_epsilon():
    with pytest.raises(ConfigError):
        make_spec(epsilon=0.0)
    with pytest.raises(ConfigError):
        make_spec(epsilon=1.5)


def test_spec_rejects_nonconstant_psi_when_kind_constant():
    with pytest.raises(ConfigError):
        make_spec(psi_texts=[["v1", "0"], ["0", "1"]], psi_kind="constant")


def test_spec_rejects_complex_hamiltonian():
    with pytest.raises(ConfigError):
        make_spec(h="v1*v2")  # not real-valued


def test_realness_error_names_the_monomial():
    with pytest.raises(ConfigError, match=r"of v1\*v2 is not the conjugate .* of cv1\*cv2"):
        make_spec(h="v1*v2")
    with pytest.raises(ConfigError, match=r"of v1 is not the conjugate .* of cv1"):
        residual_at_origin(expr("abs2(v1) + v1", 1), 1)
    with pytest.raises(ConfigError, match=r"of 1 is not"):
        residual_at_origin(expr("i", 1), 1)


def _two_mode_spec(p2=Polynomial.var(2, 2), psi12=0.0, h=None):
    return SystemSpec(freqs=Frequencies((1.0, 2.0)), epsilon=0.5,
                      p1=(Polynomial.var(1, 2), p2), psi=((1.0, psi12), (0.0, 1.0)), h=h)


@pytest.mark.parametrize("entry,bad,message", [
    ("p2", Polynomial.var(1, 1), "drift.p2: polynomial is over 1 variables, expected 2"),
    ("p2", "-v2", "drift.p2: expected a number or a Polynomial, got str"),
    ("psi12", Polynomial.const(1.0, 3), "psi[1][2]: polynomial is over 3 variables, expected 2"),
    ("psi12", None, "psi[1][2]: expected a number or a Polynomial, got NoneType"),
    ("h", "abs2(v1)", "h: expected a number or a Polynomial, got str"),
], ids=["p2-n", "p2-str", "psi12-n", "psi12-none", "h-str"])
def test_spec_names_a_bad_entry_at_construction(entry, bad, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        _two_mode_spec(**{entry: bad})
    if entry == "h":
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            residual_at_origin(bad, 2)
    with pytest.raises(ConfigError, match="^h: polynomial is over 2 variables, expected 1"):
        residual_at_origin(Polynomial.abs2(1, 2), 1)


def test_realness_is_read_off_the_coefficients():
    def h(c_conj):
        return Polynomial(1, {((1,), (0,)): 1.0 + 2j, ((0,), (1,)): c_conj})

    residual_at_origin(h(1.0 - 2j + 1e-12), 1)  # within the 1e-10 tolerance
    with pytest.raises(ConfigError):
        residual_at_origin(h(1.0 - 2j + 1e-6), 1)
    with pytest.raises(ConfigError):
        residual_at_origin(h(1.0 + 2j), 1)


def test_spec_accepts_real_hamiltonian_and_imag_vanishes():
    spec = make_spec(h="abs2(v1)*abs2(v2) + v1*v2*cv1*cv2")
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    vals = spec.h_poly.evaluate(pts)
    assert np.abs(vals.imag).max() <= 1e-10 * (1 + np.abs(vals).max())


@pytest.mark.parametrize("text", ["(v1 + cv1)^2", "abs2(v1)*abs2(v2)"])
def test_real_hamiltonians_are_accepted(text):
    spec = make_spec(h=text)
    v = np.array([1 + 1j, 2 - 0.5j])
    np.testing.assert_array_equal(orthogonality_residual(spec.h, v),
                                  orthogonality_residual(spec.h_poly, v))


def test_criterion_3_hamiltonians_are_accepted():
    # the 64 random q + conj(q) of acceptance criterion 3, drawn as it draws them
    rng = np.random.default_rng(2024 + 3)
    for _ in range(64):
        n = int(rng.integers(1, 4))
        q = _random_monomial_poly(rng, n, degree=4, terms=3)
        h = q + q.conj()
        one, zero = Polynomial.const(1.0, n), Polynomial.zero(n)
        SystemSpec(freqs=Frequencies(tuple(range(1, n + 1))), epsilon=0.5,
                   p1=(zero,) * n, h=h, psi_kind="constant",
                   psi=tuple(tuple(one if k == l else zero for l in range(n))
                             for k in range(n)))
        orthogonality_residual(h, _rand_state(rng, n))


def test_spec_drift_includes_hamiltonian_part():
    spec = acceptance_system()
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    full = spec.drift_polys[0].evaluate(pts)
    p1 = spec.p1_polys[0].evaluate(pts)
    ham = 1j * spec.h_poly.dvbar(1).evaluate(pts)
    np.testing.assert_allclose(full, p1 + ham, rtol=1e-12)


# -- non-resonance scan ------------------------------------------------------

def test_nonresonance_integer_relation():
    rep = check_nonresonance(Frequencies((1.0, 2.0)), order_bound=2, tol=1e-9)
    assert rep.resonant
    assert rep.witness == (2, -1)
    assert rep.min_abs == 0.0


def test_nonresonance_irrational_pair():
    rep = check_nonresonance(Frequencies((1.0, np.sqrt(2.0))), order_bound=10, tol=1e-6)
    assert not rep.resonant
    assert rep.min_abs > 1e-6


def test_nonresonance_single_frequency():
    rep = check_nonresonance(Frequencies((1.0,)), order_bound=5, tol=1e-9)
    assert not rep.resonant
    assert rep.min_abs == pytest.approx(1.0)


def test_nonresonance_permutation_symmetry():
    lam = (1.0, np.sqrt(2.0), np.pi / 2)
    r1 = check_nonresonance(Frequencies(lam), 4, 1e-9)
    r2 = check_nonresonance(Frequencies(lam[::-1]), 4, 1e-9)
    assert r1.resonant == r2.resonant
    assert r1.min_abs == pytest.approx(r2.min_abs, rel=1e-12)
    # witness permutes (up to the sign canonicalization)
    assert sorted(map(abs, r1.witness)) == sorted(map(abs, r2.witness))


# -- ellipticity and growth diagnostics -------------------------------------

def test_ellipticity_identity():
    rep = check_ellipticity(make_spec(), sample_count=32, seed=0)
    assert rep.lambda_lower == pytest.approx(1.0)
    assert rep.lambda_upper == pytest.approx(1.0)
    assert rep.passed


def test_ellipticity_rank_deficient():
    spec = make_spec(psi_texts=[["1", "0"], ["0", "0"]])
    rep = check_ellipticity(spec, sample_count=32, seed=0)
    assert rep.lambda_lower == pytest.approx(0.0, abs=1e-12)
    assert not rep.passed


def test_ellipticity_unit_determinant_shear():
    # Psi = [[1, v1],[0,1]] has det(Psi Psi*) = 1, so both eigenvalues stay positive
    spec = make_spec(psi_texts=[["1", "v1"], ["0", "1"]], psi_kind="smooth")
    rep = check_ellipticity(spec, sample_count=200, seed=3)
    assert rep.passed
    # eigenvalue oracle at a specific sampled state
    v = np.array([2.0 + 1.0j, 0.3 - 0.2j])
    psi = Field(spec.psi_polys)(v)
    eigs = np.linalg.eigvalsh(psi @ psi.conj().T)
    assert eigs.min() > 0


def test_growth_linear_map():
    assert estimate_growth(expr("v1", 1), m0=1.0, radii=[1.0, 4.0, 10.0], seed=0) <= 2.0 + 0.1


def test_growth_constant():
    assert estimate_growth(expr("5", 1), m0=0.0, radii=[1.0, 2.0], seed=0) == pytest.approx(
        5.0, rel=1e-6)


def test_growth_cubic_bounded_in_radius():
    # |v|^2 v grows like R^3, so the m0=3 weighted estimate stays O(1) in R
    small = estimate_growth(expr("abs2(v1)*v1", 1), m0=3.0, radii=[2.0], seed=1)
    large = estimate_growth(expr("abs2(v1)*v1", 1), m0=3.0, radii=[2.0, 8.0, 16.0], seed=1)
    assert np.isfinite(large)
    assert large <= 4.0 * max(small, 1.0)


def test_growth_samples_in_the_polynomial_dimension():
    # a v2 term needs states in C^2; v2 + v1/2 has Lipschitz constant
    # sqrt(5)/2 and sup sqrt(5)/2 R over the R-ball, so the m0 = 1 weighted
    # estimate stays below sqrt(5)/2
    c = estimate_growth(expr("v2 + 0.5*v1", 2), m0=1.0, radii=[1.0, 4.0], seed=0)
    assert 0.5 < c <= np.sqrt(5.0) / 2 + 1e-12


# -- config round trip -------------------------------------------------------

CONFIG = """\
format = 1

# acceptance-style system
[system]
n = 2
n1 = 2
lambdas = 1.0, 1.4142135623730951
epsilon = 0.05
psi_kind = constant
m0 = 3.0
v0 = 1+0j, 1+0j

[drift]
p1 = -v1 + v2
p2 = -v2

[hamiltonian]
h = abs2(v1)*abs2(v2)

[dispersion]
psi_1_1 = 1
psi_2_2 = 1
"""


def spec_hash(spec):
    """A short digest of the spec's text: it pins what ``system_to_text`` prints."""
    return hashlib.sha256(system_to_text(spec).encode()).hexdigest()[:16]


def test_config_parses_and_roundtrips(tmp_path):
    cfg = parse_system_text(CONFIG)
    assert cfg.spec.n == 2
    assert cfg.spec.psi_is_constant
    np.testing.assert_allclose(cfg.v0, [1, 1])
    text = system_to_text(cfg.spec)
    cfg2 = parse_system_text(text)
    assert spec_hash(cfg.spec) == spec_hash(cfg2.spec)
    path = tmp_path / "sys.cfg"
    path.write_text(text)
    cfg3 = parse_system_text(path.read_text(encoding="utf-8"))
    assert spec_hash(cfg3.spec) == spec_hash(cfg.spec)


def _one_mode_spec(drift):
    return SystemSpec(freqs=Frequencies((1.0,)), epsilon=0.2, p1=(drift,),
                      psi=((Polynomial.const(1.0, 1),),), psi_kind="constant")


def test_spec_hash_tells_polynomial_coefficients_apart():
    # both drifts once printed as Polynomial((0.123456+0j)v1)
    a, b = (_one_mode_spec(Polynomial.var(1, 1) * c) for c in (0.1234561, 0.1234562))
    assert spec_hash(a) != spec_hash(b)
    for spec in (a, b):
        again = parse_system_text(system_to_text(spec)).spec
        assert again.p1[0].terms == spec.p1[0].terms
        assert spec_hash(again) == spec_hash(spec)
    # text printed in term order: "p1 = -1.0*v1 + 1.8*v2"
    assert spec_hash(acceptance_system()) == "181441b0ab67be86"


def test_config_requires_header():
    with pytest.raises(ConfigError):
        parse_system_text(CONFIG.replace("format = 1", "format = 2"))
    with pytest.raises(ConfigError):
        parse_system_text("[system]\nn = 1\n")


def test_config_rejects_bad_expression():
    with pytest.raises(ConfigError):
        parse_system_text(CONFIG.replace("-v1 + v2", "-v1 + v9"))


def test_config_missing_dispersion_defaults_to_zero():
    text = CONFIG.replace("psi_1_1 = 1\n", "")
    cfg = parse_system_text(text)
    mat = cfg.spec.psi_constant_matrix()
    assert mat[0, 0] == 0
    assert mat[1, 1] == 1
