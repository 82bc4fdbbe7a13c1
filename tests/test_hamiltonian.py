import numpy as np
import pytest

from stochavg import ConfigError, HamiltonianSpec, orthogonality_residual, parse_field_expr
from stochavg.averaging import action_drift_F, average_field, average_function
from stochavg.hamiltonian import averaged_hamiltonian_poly
from stochavg.model import Frequencies, SystemSpec


def ham(text, n):
    return HamiltonianSpec(h=parse_field_expr(text, n), n=n)


def rand_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def dvbar(h, v):
    """dh/dconj(v_k) = (dh/dx_k + i dh/dy_k) / 2 at v, symbolically."""
    return np.array([h.poly.dvbar(k).evaluate(v) for k in range(1, h.n + 1)])


def dvbar_finite_difference(h, v, step=1e-5):
    """The same derivatives by central differences on the real coordinates."""
    out = np.empty(h.n, dtype=complex)
    for k in range(h.n):
        e = np.zeros(h.n, dtype=complex)
        e[k] = step
        dx = h.poly.evaluate(v + e) - h.poly.evaluate(v - e)
        dy = h.poly.evaluate(v + 1j * e) - h.poly.evaluate(v - 1j * e)
        out[k] = (dx + 1j * dy) / (4 * step)
    return out


def drift_field(h):
    """The hamiltonian drift part i*dh/dconj(v_k) of a system with Hamiltonian h."""
    spec = SystemSpec(freqs=Frequencies(tuple(float(k) for k in range(1, h.n + 1))),
                      epsilon=0.5, p1=(0,) * h.n, psi=((1,),) * h.n, h=h.poly)
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
    return HamiltonianSpec(h=q + q.conj(), n=n)


def test_hamiltonian_requires_real_values():
    with pytest.raises(ConfigError):
        ham("v1", 1)


def test_hamiltonian_is_lowered_once():
    h = ham("abs2(v1)*abs2(v2)", 2)
    assert h.poly is h.poly
    assert h.poly == parse_field_expr("abs2(v1)*abs2(v2)", 2)


def test_wirtinger_power_rule():
    # h = (v1 cv1)^2: dh/dconj(v1) = 2 |v1|^2 v1 -> 2 at v1 = 1
    h = ham("(v1*cv1)^2", 1)
    out = dvbar(h, np.array([1 + 0j]))
    np.testing.assert_allclose(out, [2.0], atol=1e-12)


def test_wirtinger_product_rule():
    h = ham("abs2(v1)*abs2(v2)", 2)
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
    h = ham("abs2(v1)*abs2(v2)", 2)
    field = drift_field(h)
    rng = np.random.default_rng(3)
    v = rand_state(rng, 2)
    np.testing.assert_allclose(field[0].evaluate(v), 1j * v[0] * abs(v[1]) ** 2, rtol=1e-12)
    np.testing.assert_allclose(field[1].evaluate(v), 1j * v[1] * abs(v[0]) ** 2, rtol=1e-12)
    # matches i * dh/dconj(v)
    np.testing.assert_allclose(
        [f.evaluate(v) for f in field], 1j * dvbar(h, v), atol=1e-10)


def test_hamiltonian_field_zero_and_quadratic():
    h0 = ham("0", 2)
    assert all(abs(f.evaluate(np.array([1 + 1j, 2 - 1j]))) < 1e-15
               for f in drift_field(h0))
    h2 = ham("abs2(v1)", 1)
    v = np.array([0.5 - 2j])
    np.testing.assert_allclose(drift_field(h2)[0].evaluate(v), 1j * v[0], rtol=1e-12)


def test_averaged_hamiltonian_values():
    h = ham("abs2(v1)*abs2(v2)", 2)
    rng = np.random.default_rng(4)
    a = rand_state(rng, 2)
    assert average_function(h.poly, a).real == pytest.approx(abs(a[0]) ** 2 * abs(a[1]) ** 2)
    # Re(v1^2) has no resonant monomials
    h2 = ham("0.5*v1^2 + 0.5*cv1^2", 1)
    assert average_function(h2.poly, np.array([1 + 2j])).real == pytest.approx(0.0, abs=1e-12)


def test_averaged_hamiltonian_symbolic_vs_quadrature():
    rng = np.random.default_rng(6)
    for _ in range(4):
        h = random_real_hamiltonian(rng, 2)
        a = rand_state(rng, 2)
        sym = average_function(h.poly, a).real
        quad = average_function(h.poly, a, method="quadrature", grid_per_dim=16).real
        assert sym == pytest.approx(quad, abs=1e-10 * (1 + abs(sym)))


def test_averaging_commutes_with_hamiltonian_field():
    # <<field(h)>> = field(<h>) pointwise
    rng = np.random.default_rng(8)
    for _ in range(4):
        h = random_real_hamiltonian(rng, 2)
        field = drift_field(h)
        avg_poly = averaged_hamiltonian_poly(h)
        a = rand_state(rng, 2)
        lhs = average_field(field, a)
        rhs = np.array([1j * avg_poly.dvbar(k).evaluate(a) for k in (1, 2)])
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_orthogonality_residual_concrete():
    h = ham("abs2(v1)*abs2(v2)", 2)
    res = orthogonality_residual(h, np.array([1 + 1j, 2 + 0j]))
    np.testing.assert_allclose(res, [0.0, 0.0], atol=1e-12)
    res0 = orthogonality_residual(ham("0", 2), np.array([1 + 1j, 2 + 0j]))
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
