import numpy as np
import pytest

from stochavg import (
    NotPSDError,
    acceptance_system,
    action_diffusion_SK,
    action_drift_F,
    average_field,
    average_function,
    averaged_diffusion,
    parse_field_expr,
    principal_sqrt,
)
from stochavg.averaging import (
    FAIL_TOL,
    _torus_grid,
    action_diffusion_polys,
    actions_of,
    averaged_diffusion_polys,
    averaged_field_polys,
    diagonal_entries,
    principal_sqrt_batched,
    sqrt_diagonal,
)
from stochavg.poly import Polynomial
from stochavg.model import Frequencies, SystemSpec
from stochavg.poly import Field

QUAD = dict(grid_per_dim=32)


def expr(text, n):
    return parse_field_expr(text, n)


def rand_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _angle_states(actions, angles):
    """States v_k = sqrt(2 I_k) e^{i phi_k} on the angle grid."""
    amp = np.sqrt(2.0 * np.asarray(actions, dtype=float))
    return amp * np.exp(1j * angles)


def action_drift_quadrature(spec, actions, grid_per_dim):
    """Oracle of ``action_drift_F``: the angle average of
    v_k . P_k(v) + sum_l |Psi_kl(v)|^2 by the rectangle rule on the torus."""
    v = _angle_states(actions, _torus_grid(spec.n, grid_per_dim))
    P = Field(spec.drift_polys)(v)
    integrand = (v * np.conj(P)).real + (np.abs(Field(spec.psi_polys)(v)) ** 2).sum(axis=2)
    return integrand.mean(axis=0)


def action_diffusion_quadrature(spec, actions, grid_per_dim):
    """Oracle of S(I) in ``action_diffusion_SK``: the angle average of
    sum_l (v_k conj(Psi_kl)) . (v_j conj(Psi_jl)) by the rectangle rule."""
    angles = _torus_grid(spec.n, grid_per_dim)
    v = _angle_states(actions, angles)
    w = v[:, :, None] * np.conj(Field(spec.psi_polys)(v))  # (g, n, n1): v_k conj(Psi_kl)
    S = np.einsum("gkl,gjl->kj", w, np.conj(w)).real / angles.shape[0]
    return 0.5 * (S + S.T)


def make_spec(n, p1, psi, h=None, psi_kind="smooth"):
    return SystemSpec(
        freqs=Frequencies(tuple(float(k) for k in range(1, n + 1))),
        epsilon=0.5,
        p1=tuple(expr(t, n) for t in p1),
        psi=tuple(tuple(expr(t, n) for t in row) for row in psi),
        h=expr(h, n) if h else None,
        psi_kind=psi_kind,
    )


# -- scalar and field averages ------------------------------------------------

def test_average_function_rotation_invariant_scalar():
    a = np.array([1.5 - 0.5j, 0.2 + 1j])
    f = expr("abs2(v1)", 2)
    assert average_function(f, a) == pytest.approx(abs(a[0]) ** 2)
    assert average_function(expr("v1", 2), a) == pytest.approx(0.0, abs=1e-15)


def test_average_function_cross_term_dies():
    a = np.array([1 + 0j, 1 + 0j])
    assert average_function(expr("v1*cv2", 2), a) == pytest.approx(0.0, abs=1e-15)
    # quadrature oracle agrees
    q = average_function(expr("v1*cv2", 2), a, **QUAD)
    assert abs(q) <= 1e-12


def test_average_field_selection_rule():
    a = np.array([0.7 + 0.3j, -1.1 + 0.2j])
    p = [expr("v1", 2), expr("0", 2)]
    np.testing.assert_allclose(average_field(p, a), [a[0], 0])
    p = [expr("v2", 2), expr("0", 2)]
    np.testing.assert_allclose(average_field(p, a), [0, 0], atol=1e-15)
    p = [expr("abs2(v2)*v1", 2), expr("0", 2)]
    np.testing.assert_allclose(average_field(p, a), [abs(a[1]) ** 2 * a[0], 0])
    p = [expr("v1^2*cv2", 2), expr("0", 2)]
    got = average_field(p, a)
    np.testing.assert_allclose(got, [0, 0], atol=1e-15)
    quad = average_field(p, a, **QUAD)
    np.testing.assert_allclose(quad, [0, 0], atol=1e-12)


def test_average_equivariance_under_rotation():
    # <<P>>(Phi_w a) = Phi_w <<P>>(a)
    rng = np.random.default_rng(5)
    a = rand_state(rng, 2)
    w = rng.random(2) * 2 * np.pi
    p = [expr("-v1 + 0.5*v2 + i*v1*abs2(v2)", 2), expr("v1*v2*cv1", 2)]
    lhs = average_field(p, np.exp(1j * w) * a)
    rhs = np.exp(1j * w) * average_field(p, a)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # scalar invariance
    f = expr("abs2(v1)*abs2(v2) + v1*cv1", 2)
    assert average_function(f, np.exp(1j * w) * a) == pytest.approx(average_function(f, a),
                                                                     abs=1e-12)


# -- averaged diffusion --------------------------------------------------------

def test_averaged_diffusion_constant_diagonal():
    psi = [["1", "0"], ["0", "2"]]
    a = np.array([0.4 + 0.1j, 1.0 - 2.0j])
    A = averaged_diffusion([[expr(t, 2) for t in row] for row in psi], a)
    np.testing.assert_allclose(A, np.diag([1.0, 4.0]), atol=1e-12)
    Aq = averaged_diffusion([[expr(t, 2) for t in row] for row in psi], a, grid_per_dim=64)
    np.testing.assert_allclose(Aq, np.diag([1.0, 4.0]), atol=1e-9)
    np.testing.assert_allclose(principal_sqrt(A), np.diag([1.0, 2.0]), atol=1e-12)


def test_averaged_diffusion_identity_preserved():
    psi = [[expr("1", 2), expr("0", 2)], [expr("0", 2), expr("1", 2)]]
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = rand_state(rng, 2)
        np.testing.assert_allclose(averaged_diffusion(psi, a), np.eye(2), atol=1e-14)


def test_averaged_diffusion_shear():
    # Psi(v) = [[1, v1],[0,1]] averages to diag(1 + |a1|^2, 1)
    psi = [[expr("1", 2), expr("v1", 2)], [expr("0", 2), expr("1", 2)]]
    rng = np.random.default_rng(2)
    a = rand_state(rng, 2)
    A = averaged_diffusion(psi, a)
    expected = np.diag([1 + abs(a[0]) ** 2, 1.0])
    np.testing.assert_allclose(A, expected, atol=1e-12)
    Aq = averaged_diffusion(psi, a, **QUAD)
    np.testing.assert_allclose(Aq, expected, atol=1e-10)
    assert abs(Aq[0, 1]) <= 1e-10


def test_averaged_diffusion_hermitian_psd_at_random_points():
    psi = [[expr("1 + 0.3*v2", 2), expr("v1", 2)],
           [expr("cv1*v2", 2), expr("1", 2)]]
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rand_state(rng, 2)
        A = averaged_diffusion(psi, a)
        np.testing.assert_allclose(A, A.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(A).min() >= -1e-9


# -- principal square root -----------------------------------------------------

def test_quadrature_needs_at_least_two_nodes():
    # no grid averages symbolically; a grid of fewer than 2 nodes is an error
    a = np.array([1.0 + 0.5j, 0.5 - 1j])
    psi = ((expr("1", 2), expr("0.5*v1", 2)), (expr("0", 2), expr("1", 2)))
    field = (expr("-v1 + v1*v2*cv2", 2), expr("-v2", 2))
    for average, arg in ((average_function, expr("v1*cv1", 2)), (average_field, field),
                         (averaged_diffusion, psi)):
        with pytest.raises(ValueError, match="grid_per_dim"):
            average(arg, a, grid_per_dim=1)
        np.testing.assert_allclose(average(arg, a), average(arg, a, **QUAD), atol=1e-12)


def test_principal_sqrt_2x2_closed_form():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    B = principal_sqrt(A)
    s = np.sqrt(3.0)
    expected = 0.5 * np.array([[s + 1, s - 1], [s - 1, s + 1]])
    np.testing.assert_allclose(B, expected, atol=1e-12)
    np.testing.assert_allclose(B @ B, A, atol=1e-12)
    assert np.linalg.eigvalsh(B).min() >= 0


def test_principal_sqrt_idempotence():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = X @ X.conj().T
    B = principal_sqrt(B)  # Hermitian PSD
    again = principal_sqrt(B @ B)
    np.testing.assert_allclose(again, B, atol=1e-8)


def test_principal_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        principal_sqrt(np.diag([1.0, -0.5]))


def test_principal_sqrt_clamps_dust():
    B = principal_sqrt(np.diag([1.0, -1e-10]))
    np.testing.assert_allclose(B, np.diag([1.0, 0.0]), atol=1e-12)


def test_principal_sqrt_rejects_nonhermitian():
    with pytest.raises(ValueError):
        principal_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


# -- action drift and diffusion -------------------------------------------------

def test_action_drift_ou_closed_form():
    spec = make_spec(1, ["-v1"], [["1"]], psi_kind="constant")
    for I in ([0.0], [0.5], [2.0]):
        np.testing.assert_allclose(action_drift_F(spec, I), [1.0 - 2.0 * I[0]], atol=1e-12)


def test_action_drift_zero_system():
    spec = make_spec(2, ["0", "0"], [["0", "0"], ["0", "0"]])
    np.testing.assert_allclose(action_drift_F(spec, [0.3, 0.7]), [0.0, 0.0], atol=1e-15)


def test_action_drift_hamiltonian_term_contributes_nothing():
    # P1 = i v1 |v2|^2 is a hamiltonian field component; F must vanish
    spec = make_spec(2, ["i*v1*abs2(v2)", "0"], [["0", "0"], ["0", "0"]])
    I = np.array([0.4, 1.1])
    np.testing.assert_allclose(action_drift_F(spec, I), [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(action_drift_quadrature(spec, I, 32), [0.0, 0.0], atol=1e-10)


def test_action_diffusion_constant_closed_form():
    spec = make_spec(2, ["0", "0"], [["1", "0"], ["0", "2"]], psi_kind="constant")
    S, K = action_diffusion_SK(spec, [0.5, 2.0])
    np.testing.assert_allclose(S, np.diag([2 * 0.5 * 1, 2 * 2.0 * 4]), atol=1e-12)
    np.testing.assert_allclose(K, np.diag([1.0, 4.0]), atol=1e-12)


def test_action_diffusion_zero_actions():
    spec = make_spec(2, ["0", "0"], [["1", "v1"], ["0", "1"]])
    S, K = action_diffusion_SK(spec, [0.0, 0.0])
    np.testing.assert_allclose(S, 0.0, atol=1e-14)
    np.testing.assert_allclose(K, 0.0, atol=1e-14)


def test_action_diffusion_shear_psd_and_quadrature():
    spec = make_spec(2, ["0", "0"], [["1", "v1"], ["0", "1"]])
    I = np.array([0.5, 0.5])
    S, K = action_diffusion_SK(spec, I)
    np.testing.assert_allclose(S, action_diffusion_quadrature(spec, I, 32), atol=1e-10)
    np.testing.assert_allclose(S, S.T, atol=1e-12)
    assert np.linalg.eigvalsh(S).min() >= -1e-9
    np.testing.assert_allclose(K @ K, S, atol=1e-9)


# -- backend equivalence on random polynomial inputs ----------------------------

def test_backend_equivalence_random_polynomials():
    rng = np.random.default_rng(123)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        p = random_poly(rng, n, degree=4)
        a = rand_state(rng, n)
        sym = average_function(p, a)
        grid = 2 * 4 + 2
        quad = average_function(p, a, grid_per_dim=grid)
        assert abs(sym - quad) <= 1e-10 * (1 + abs(sym))


def random_poly(rng, n, degree):
    terms = []
    text = []
    for _ in range(4):
        alpha = rng.integers(0, degree // 2 + 1, n)
        beta = rng.integers(0, degree // 2 + 1, n)
        while alpha.sum() + beta.sum() > degree:
            if alpha.sum() >= beta.sum():
                alpha[np.argmax(alpha)] -= 1
            else:
                beta[np.argmax(beta)] -= 1
        c = rng.standard_normal() + 1j * rng.standard_normal()
        bits = [f"({c.real!r} + {c.imag!r}*i)"]
        for j in range(n):
            if alpha[j]:
                bits.append(f"v{j+1}^{alpha[j]}")
            if beta[j]:
                bits.append(f"cv{j+1}^{beta[j]}")
        text.append("*".join(bits))
    return parse_field_expr(" + ".join(text), n)


def test_actions_of_matches_definition():
    v = np.array([3 + 4j, 1 - 1j])
    np.testing.assert_allclose(actions_of(v), [12.5, 1.0])


def test_averaged_field_polys_match_pointwise_averaging():
    spec = acceptance_system()
    polys = averaged_field_polys(spec.drift_polys, 2)
    rng = np.random.default_rng(77)
    for _ in range(4):
        a = rand_state(rng, 2)
        direct = average_field(spec.drift_polys, a)
        via_polys = np.array([p.evaluate(a) for p in polys])
        np.testing.assert_allclose(via_polys, direct, rtol=1e-12, atol=1e-12)


# -- batched square roots: 2x2 closed form against the eigh path --------------

def _psd_batch(rng, k, complex_):
    """Random Hermitian PSD 2x2 batch: full-rank, rank-one, zero and diagonal
    rows at scales 1e-6 .. 1e6, and rank-one rows with an eigenvalue in
    (-1e-6, 0) (dust).  Returns the batch and what its root squares to: the
    batch with each dust eigenvalue clamped to zero, which is the row before
    the dust was added."""
    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    X = draw(k, 2, 2)
    A = X @ np.conj(np.swapaxes(X, 1, 2))
    q = k // 8
    u = draw(3 * q, 2)
    A[:3 * q] = u[:, :, None] * np.conj(u[:, None, :])  # rank one
    A[3 * q] = 0.0
    A[3 * q + 1:4 * q] = np.eye(2) * rng.random((q - 1, 1, 2)) * (rng.random((q - 1, 1, 2)) > 0.3)
    A *= (10.0 ** rng.uniform(-6, 6, k))[:, None, None]
    clamped = A.copy()
    # dust: minus a tiny multiple of the projector orthogonal to u
    w = np.stack([-np.conj(u[2 * q:, 1]), np.conj(u[2 * q:, 0])], axis=1)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    lam = -10.0 ** rng.uniform(-12, np.log10(0.9e-6), q)
    A[2 * q:3 * q] += lam[:, None, None] * w[:, :, None] * np.conj(w[:, None, :])
    return A, clamped


def _rel(X, A):
    return np.abs(X).max(axis=(-2, -1)) / (1.0 + np.abs(A).max(axis=(-2, -1)))


@pytest.mark.parametrize("complex_", [True, False])
def test_sqrt_batched_squares_to_the_clamped_matrix(complex_):
    rng = np.random.default_rng(17 + complex_)
    A, clamped = _psd_batch(rng, 4000, complex_)
    B = principal_sqrt_batched(A)
    assert B.dtype == (complex if complex_ else float)
    # Hermitian to rounding; B squares to A, on dust rows with the dust
    # eigenvalue clamped
    assert _rel(B - np.conj(np.swapaxes(B, 1, 2)), A).max() <= 1e-12
    assert _rel(B @ B - clamped, A).max() <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_sqrt_batched_names_first_offending_row(n):
    A = np.broadcast_to(np.eye(n), (6, n, n)).copy()
    A[3, 1, 1] = -0.5
    A[5, 0, 0] = -2.0
    with pytest.raises(NotPSDError) as err:
        principal_sqrt_batched(A)
    assert err.value.row == 3
    assert err.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert "row 3" in str(err.value)
    # the row counts over all batch axes in C order
    with pytest.raises(NotPSDError) as err:
        principal_sqrt_batched(A.reshape(2, 3, n, n))
    assert err.value.row == 3


# -- per-mode roots of diagonal averaged diffusions ---------------------------

def test_diagonal_entries_of_averaged_diffusions():
    # Psi = [[1, v1/2], [0, 1]] averages to A = diag(1 + |a1|^2/4, 1) and a
    # diagonal S(I); a cv1*v2 entry makes both non-diagonal
    diagonal = make_spec(2, ["-v1", "-v2"], [["1", "0.5*v1"], ["0", "1"]])
    cross = make_spec(2, ["-v1", "-v2"], [["1", "0.5*v1"], ["0.5*cv1*v2", "1"]])
    A = averaged_diffusion_polys(diagonal.psi_polys)
    S = action_diffusion_polys(diagonal)
    assert diagonal_entries(A) == (A[0][0], A[1][1])
    assert diagonal_entries(S) == (S[0][0], S[1][1])
    assert diagonal_entries(averaged_diffusion_polys(cross.psi_polys)) is None
    assert diagonal_entries(action_diffusion_polys(cross)) is None


@pytest.mark.parametrize("k, l", [(k, l) for k in range(3) for l in range(3) if k != l])
def test_one_off_diagonal_entry_makes_a_matrix_non_diagonal(k, l):
    zero = Polynomial.zero(3)
    one = Polynomial.const(1.0, 3)
    explicit_zero = Polynomial(3, {((1, 0, 0), (0, 0, 0)): 0j})  # a term with coefficient 0
    matrix = [[one if i == j else explicit_zero if (i, j) == (0, 1) else zero
               for j in range(3)] for i in range(3)]
    assert diagonal_entries(matrix) == (one, one, one)
    matrix[k][l] = expr("0.5*v1*cv2", 3)
    assert diagonal_entries(matrix) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sqrt_diagonal_matches_the_batched_root_and_clamps_dust(n):
    rng = np.random.default_rng(31 + n)
    d = 10.0 ** rng.uniform(-6, 6, (n, 500))
    d[:, :50] = -10.0 ** rng.uniform(-14, np.log10(0.9e-6), (n, 50))  # dust
    d[:, 50:60] = 0.0
    B = sqrt_diagonal(d.copy())
    assert B.shape == d.shape and B.dtype == float
    np.testing.assert_array_equal(B, np.sqrt(np.maximum(d, 0.0)))
    # the batched root of the diagonal matrices, paths as batch rows
    ref = principal_sqrt_batched(np.einsum("kp,kl->pkl", d, np.eye(n)))
    np.testing.assert_array_equal(ref, np.einsum("pkl,kl->pkl", ref, np.eye(n)))
    np.testing.assert_allclose(np.diagonal(ref, axis1=1, axis2=2).T, B, rtol=1e-15, atol=0)


def test_sqrt_diagonal_names_the_first_offending_path():
    d = np.ones((3, 6))
    d[1, 3] = -0.5
    d[2, 3] = -0.25
    d[0, 5] = -2.0
    d[2, 1] = -0.5 * FAIL_TOL  # dust, not a violation
    with pytest.raises(NotPSDError) as err:
        sqrt_diagonal(d)
    assert err.value.row == 3
    assert err.value.min_eigenvalue == -0.5
    assert "row 3" in str(err.value)
