import dataclasses

import numpy as np
import pytest
from scipy import stats

from stochavg import (
    ACCEPTANCE_V0,
    ConfigError,
    acceptance_system,
    orthogonality_residual,
    parse_field_expr,
    simulate_effective,
)
from stochavg.stats import distance_rows
from stochavg.averaging import action_drift_F, average_field, average_function
from stochavg.model import Frequencies, SystemSpec


def rand_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def dvbar(h, v):
    """dh/dconj(v_k) = (dh/dx_k + i dh/dy_k) / 2 at v, symbolically."""
    return np.array([h.dvbar(k).evaluate(v) for k in range(1, h.n + 1)])


def dvbar_finite_difference(h, v, step=1e-5):
    """The same derivatives by central differences on the real coordinates."""
    out = np.empty(h.n, dtype=complex)
    for k in range(h.n):
        e = np.zeros(h.n, dtype=complex)
        e[k] = step
        dx = h.evaluate(v + e) - h.evaluate(v - e)
        dy = h.evaluate(v + 1j * e) - h.evaluate(v - 1j * e)
        out[k] = (dx + 1j * dy) / (4 * step)
    return out


def drift_field(h):
    """The hamiltonian drift part i*dh/dconj(v_k) of a system with Hamiltonian h."""
    spec = SystemSpec(freqs=Frequencies(tuple(float(k) for k in range(1, h.n + 1))),
                      epsilon=0.5, p1=(0,) * h.n, psi=((1,),) * h.n, h=h)
    return spec.hamiltonian_drift_polys


def random_real_hamiltonian(rng, n, degree=4):
    """Random real polynomial: q + conj(q) for a random complex polynomial q."""
    terms = []
    for _ in range(4):
        alpha = rng.integers(0, 2, n)
        beta = rng.integers(0, 2, n)
        if alpha.sum() + beta.sum() > degree:
            continue
        c = rng.standard_normal() + 1j * rng.standard_normal()
        bits = [f"({c.real!r} + {c.imag!r}*i)"]
        for j in range(n):
            if alpha[j]:
                bits.append(f"v{j+1}")
            if beta[j]:
                bits.append(f"cv{j+1}")
        terms.append("*".join(bits))
    text = " + ".join(terms) if terms else "abs2(v1)"
    q = parse_field_expr(text, n)
    return q + q.conj()


def test_hamiltonian_requires_real_values():
    with pytest.raises(ConfigError):
        orthogonality_residual(parse_field_expr("v1", 1), np.array([1j]))


def test_wirtinger_power_rule():
    # h = (v1 cv1)^2: dh/dconj(v1) = 2 |v1|^2 v1 -> 2 at v1 = 1
    h = parse_field_expr("(v1*cv1)^2", 1)
    out = dvbar(h, np.array([1 + 0j]))
    np.testing.assert_allclose(out, [2.0], atol=1e-12)


def test_wirtinger_product_rule():
    h = parse_field_expr("abs2(v1)*abs2(v2)", 2)
    v = np.array([1 + 1j, 2 + 0j])
    out = dvbar(h, v)
    np.testing.assert_allclose(out[0], v[0] * abs(v[1]) ** 2, atol=1e-12)
    assert out[0] == pytest.approx(4 + 4j)


def test_wirtinger_symbolic_vs_finite_difference():
    rng = np.random.default_rng(10)
    for _ in range(4):
        h = random_real_hamiltonian(rng, 2)
        for _ in range(8):
            v = rand_state(rng, 2)
            sym = dvbar(h, v)
            fd = dvbar_finite_difference(h, v)
            np.testing.assert_allclose(sym, fd, rtol=1e-6, atol=1e-6)


def test_hamiltonian_field_components():
    h = parse_field_expr("abs2(v1)*abs2(v2)", 2)
    field = drift_field(h)
    rng = np.random.default_rng(3)
    v = rand_state(rng, 2)
    np.testing.assert_allclose(field[0].evaluate(v), 1j * v[0] * abs(v[1]) ** 2, rtol=1e-12)
    np.testing.assert_allclose(field[1].evaluate(v), 1j * v[1] * abs(v[0]) ** 2, rtol=1e-12)
    # matches i * dh/dconj(v)
    np.testing.assert_allclose(
        [f.evaluate(v) for f in field], 1j * dvbar(h, v), atol=1e-10)


def test_hamiltonian_field_zero_and_quadratic():
    h0 = parse_field_expr("0", 2)
    assert all(abs(f.evaluate(np.array([1 + 1j, 2 - 1j]))) < 1e-15
               for f in drift_field(h0))
    h2 = parse_field_expr("abs2(v1)", 1)
    v = np.array([0.5 - 2j])
    np.testing.assert_allclose(drift_field(h2)[0].evaluate(v), 1j * v[0], rtol=1e-12)


def test_averaged_hamiltonian_values():
    h = parse_field_expr("abs2(v1)*abs2(v2)", 2)
    rng = np.random.default_rng(4)
    a = rand_state(rng, 2)
    assert average_function(h, a).real == pytest.approx(abs(a[0]) ** 2 * abs(a[1]) ** 2)
    # Re(v1^2) has no resonant monomials
    h2 = parse_field_expr("0.5*v1^2 + 0.5*cv1^2", 1)
    assert average_function(h2, np.array([1 + 2j])).real == pytest.approx(0.0, abs=1e-12)


def test_averaged_hamiltonian_symbolic_vs_quadrature():
    rng = np.random.default_rng(6)
    for _ in range(4):
        h = random_real_hamiltonian(rng, 2)
        a = rand_state(rng, 2)
        sym = average_function(h, a).real
        quad = average_function(h, a, grid_per_dim=16).real
        assert sym == pytest.approx(quad, abs=1e-10 * (1 + abs(sym)))


def test_averaging_commutes_with_hamiltonian_field():
    # <<field(h)>> = field(<h>) pointwise
    rng = np.random.default_rng(8)
    for _ in range(4):
        h = random_real_hamiltonian(rng, 2)
        field = drift_field(h)
        avg_poly = h.keep_resonant((0, 0))
        a = rand_state(rng, 2)
        lhs = average_field(field, a)
        rhs = np.array([1j * avg_poly.dvbar(k).evaluate(a) for k in (1, 2)])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_orthogonality_residual_concrete():
    h = parse_field_expr("abs2(v1)*abs2(v2)", 2)
    res = orthogonality_residual(h, np.array([1 + 1j, 2 + 0j]))
    np.testing.assert_allclose(res, [0.0, 0.0], atol=1e-12)
    res0 = orthogonality_residual(parse_field_expr("0", 2), np.array([1 + 1j, 2 + 0j]))
    np.testing.assert_array_equal(res0, [0.0, 0.0])


def test_orthogonality_residual_random():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(16):
        h = random_real_hamiltonian(rng, 2)
        for _ in range(4):
            v = rand_state(rng, 2)
            worst = max(worst, np.abs(orthogonality_residual(h, v)).max())
    assert worst <= 1e-9


def test_action_drift_ignores_hamiltonian_part():
    # F computed with and without the hamiltonian drift part agree pointwise
    n = 2
    base = dict(
        freqs=Frequencies((1.0, np.sqrt(2.0))),
        epsilon=0.5,
        psi=((parse_field_expr("1", n), parse_field_expr("0", n)),
             (parse_field_expr("0", n), parse_field_expr("1", n))),
        psi_kind="constant",
    )
    p1 = (parse_field_expr("-v1 + 0.3*v2", n), parse_field_expr("-v2", n))
    with_h = SystemSpec(p1=p1, h=parse_field_expr("abs2(v1)*abs2(v2)", n), **base)
    without_h = SystemSpec(p1=p1, h=None, **base)
    rng = np.random.default_rng(21)
    for _ in range(8):
        I = rng.random(n) * 2
        np.testing.assert_allclose(
            action_drift_F(with_h, I), action_drift_F(without_h, I), atol=1e-9)


# seeds fixed before the statistics were first computed
OU_LAW_SEEDS = {"full": 1901, "modified": 1902}


@pytest.mark.parametrize("variant", ["full", "modified"])
def test_effective_actions_follow_the_hamiltonian_free_ou_law(variant):
    # The modified effective equation of the acceptance system is the complex OU
    # system da = -a dtau + dbeta; the full one adds the hamiltonian part, which
    # only rotates phases.  Both carry the OU action law: |a_k|^2 / s2 is
    # ncx2(df=2, nc=|a_k(0)|^2 e^{-2 tau} / s2) with s2 = (1 - e^{-2 tau}) / 2.
    paths, times = 10_000, (0.5, 1.0)
    ens = simulate_effective(acceptance_system(), variant, ACCEPTANCE_V0, T=1.0, dtau=1e-3,
                             n_paths=paths, seed=OU_LAW_SEEDS[variant], record_times=times)
    # 1% for the family of four statistics (Bonferroni), not for each one
    critical = stats.kstwo.isf(0.01 / 4, paths)
    for t in times:
        s2 = (1.0 - np.exp(-2.0 * t)) / 2.0
        for k in range(2):
            law = stats.ncx2(df=2, nc=abs(ACCEPTANCE_V0[k]) ** 2 * np.exp(-2.0 * t) / s2)
            ks = stats.kstest(np.abs(ens.at_time(t)[:, k]) ** 2 / s2, law.cdf).statistic
            assert ks <= critical, f"{variant}: tau={t} mode {k + 1} KS {ks:.4f} > {critical:.4f}"


# --- the hamiltonian-null claim where Psi depends on the state ---------------

# seed fixed before the distances were first computed
STATE_PSI_SEED = 2517


def _state_psi_system(extra=("", "")):
    # the acceptance drift and hamiltonian with Psi = [[1, v1/2], [0, 1]]:
    # A(a) = diag(1 + |a1|^2/4, 1), so B(a) varies with the state; ``extra``
    # is added to the non-hamiltonian drift
    spec = acceptance_system()
    n = spec.n
    return dataclasses.replace(
        spec, psi_kind="smooth",
        p1=tuple(p + parse_field_expr(e, n) if e else p for p, e in zip(spec.p1_polys, extra)),
        psi=((parse_field_expr("1", n), parse_field_expr("0.5*v1", n)),
             (parse_field_expr("0", n), parse_field_expr("1", n))))


@pytest.mark.parametrize("planted", [False, True], ids=["hamiltonian", "planted"])
def test_hamiltonian_part_drops_out_of_action_laws_with_state_dependent_psi(planted):
    # Criterion 7 with a state-dependent Psi: the full and the modified
    # effective equations give action laws within 2x the noise floor at
    # tau = 1 and 2.  A real, hence non-hamiltonian, copy of the hamiltonian
    # monomials planted in the modified drift moves the law past that gate.
    paths, times, seed = 4000, [1.0, 2.0], STATE_PSI_SEED
    kw = dict(T=2.0, dtau=1e-3, n_paths=paths, record_times=times)
    spec = _state_psi_system()
    modified = _state_psi_system(("-0.5*v1*abs2(v2)", "-0.5*v2*abs2(v1)")) if planted else spec
    full = simulate_effective(spec, "full", ACCEPTANCE_V0, seed=(seed, 71), **kw)
    mod = simulate_effective(modified, "modified", ACCEPTANCE_V0, seed=(seed, 72), **kw)
    rows = distance_rows(spec.epsilon, full.actions(), mod.actions(), times, seed, bootstrap=0)
    within = [r.estimate <= 2.0 * r.noise_floor for r in rows]
    detail = "; ".join(f"tau={r.time:g}: {r.estimate:.4f} vs 2*{r.noise_floor:.4f}" for r in rows)
    assert not all(within) if planted else all(within), detail
