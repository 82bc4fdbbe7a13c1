"""Non-resonant torus averaging and the derived action-equation coefficients.

Averaging a scalar f over the torus means integrating f(Phi_{-w} a) over
w in [0,2pi)^n; for a vector field the k-th component carries an extra
phase e^{i w_k}, and for the diffusion matrix the (k,l) entry carries
e^{i(w_k - w_l)}.  On polynomials the integrals are exact: a monomial
v^alpha conj(v)^beta survives averaging against e^{i d.w} iff
alpha - beta = d, which gives the symbolic backend that every command and
integrator uses.  ``average_function``, ``average_field`` and
``averaged_diffusion`` given an int ``grid_per_dim`` average by quadrature
instead: the tensor-product rectangle rule, spectrally exact on
trigonometric polynomials below the grid's Nyquist order, so the two
backends must agree to rounding on polynomial inputs; acceptance criteria
1 and 2 keep it as the oracle of the symbolic backend.  The action
coefficients F(I), S(I) and K(I) are symbolic only; their quadrature oracle
lives in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSDError
from .poly import Field, Polynomial, as_poly, lower_monomials

# eigenvalue dust in (-FAIL_TOL, 0) is clamped to zero before square-rooting;
# anything below -FAIL_TOL is a genuine PSD violation
FAIL_TOL = 1e-6


def actions_of(v):
    """Action coordinates I_k = |v_k|^2 / 2 of a complex state array."""
    v = np.asarray(v, dtype=complex)
    return 0.5 * (v.real**2 + v.imag**2)


def _torus_grid(n, grid_per_dim):
    """Angles of the quadrature backend: the tensor-product grid on [0, 2pi)^n."""
    if grid_per_dim < 2:
        raise ValueError("quadrature needs grid_per_dim, at least 2 nodes per dimension")
    w = 2.0 * np.pi * np.arange(grid_per_dim) / grid_per_dim
    mesh = np.meshgrid(*([w] * n), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def average_with_phase(field, shift, a, *, grid_per_dim=None):
    """Average ``e^{i shift.w} field(Phi_{-w} a)`` over the torus.

    ``shift`` is an integer vector; the symbolic backend, the default, keeps
    exactly the monomials with alpha - beta = shift.  An int ``grid_per_dim``
    (at least 2) averages on that many quadrature nodes per dimension instead.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    p = as_poly(field, n)
    if grid_per_dim is None:
        return complex(p.keep_resonant(shift).evaluate(a))
    angles = _torus_grid(n, grid_per_dim)
    states = np.exp(-1j * angles) * a
    vals = p.evaluate(states)
    shift = np.asarray(shift, dtype=float)
    if np.any(shift):
        vals = vals * np.exp(1j * (angles @ shift))
    return complex(vals.mean())


def average_function(f, a, *, grid_per_dim=None):
    """Torus average of a scalar function at the point ``a``."""
    a = np.asarray(a, dtype=complex)
    return average_with_phase(f, (0,) * a.shape[-1], a, grid_per_dim=grid_per_dim)


def average_field(P, a, *, grid_per_dim=None):
    """Torus average of a vector field; component k carries the phase e^{i w_k}."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    if len(P) != n:
        raise ValueError(f"field needs {n} components, got {len(P)}")
    out = np.empty(n, dtype=complex)
    for k in range(n):
        shift = tuple(1 if j == k else 0 for j in range(n))
        out[k] = average_with_phase(P[k], shift, a, grid_per_dim=grid_per_dim)
    return out


def averaged_field_polys(P, n):
    """Symbolic averaged field: component k keeps monomials with alpha-beta = e_k."""
    polys = []
    for k in range(n):
        shift = tuple(1 if j == k else 0 for j in range(n))
        polys.append(as_poly(P[k], n).keep_resonant(shift))
    return tuple(polys)


def averaged_diffusion_polys(psi_polys):
    """Symbolic form of the averaged diffusion matrix A(a).

    Entry (k,l) is the resonant part (shift e_k - e_l) of
    sum_j Psi_kj * conj(Psi_lj).
    """
    n = len(psi_polys)
    n1 = len(psi_polys[0])
    out = []
    for k in range(n):
        row = []
        for l in range(n):
            acc = Polynomial.zero(psi_polys[0][0].n)
            for j in range(n1):
                acc = acc + psi_polys[k][j] * psi_polys[l][j].conj()
            shift = tuple((1 if m == k else 0) - (1 if m == l else 0) for m in range(n))
            row.append(acc.keep_resonant(shift))
        out.append(tuple(row))
    return tuple(out)


def averaged_diffusion(psi, a, *, grid_per_dim=None):
    """Averaged diffusion matrix A(a); Hermitian PSD up to rounding.

    For constant dispersion this reduces to diag{sum_j |Psi_kj|^2}: the
    off-diagonal phases integrate to zero.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    if len(psi) != n:
        raise ValueError(f"dispersion needs {n} rows, got {len(psi)}")
    psi_polys = tuple(tuple(as_poly(e, n) for e in row) for row in psi)
    if grid_per_dim is None:
        A = Field(averaged_diffusion_polys(psi_polys))(a)
        return 0.5 * (A + A.conj().T)
    angles = _torus_grid(n, grid_per_dim)
    states = np.exp(-1j * angles) * a
    rotated = np.exp(1j * angles)[:, :, None] * Field(psi_polys)(states)
    A = np.einsum("gkl,gml->km", rotated, rotated.conj()) / angles.shape[0]
    return 0.5 * (A + A.conj().T)


# ---------------------------------------------------------------------------
# Hermitian PSD square roots
# ---------------------------------------------------------------------------


def principal_sqrt(A):
    """Principal square root of a Hermitian PSD matrix: the root
    ``principal_sqrt_batched`` takes, of its Hermitian part.

    A deviation from Hermitian above 1e-8 (1 + ||A||_max) raises ValueError.
    """
    A = np.asarray(A)
    dev = np.abs(A - np.conj(A.T)).max(initial=0.0)
    if dev > 1e-8 * (1.0 + np.abs(A).max(initial=0.0)):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return principal_sqrt_batched(0.5 * (A + np.conj(A.T)))


def _psd_gate(lam_min):
    """Raise NotPSDError naming the first row (C order over the batch axes)
    whose smallest eigenvalue is below -FAIL_TOL."""
    bad = (lam_min < -FAIL_TOL).reshape(-1)
    if bad.any():
        row = int(np.argmax(bad))
        lam = float(lam_min.reshape(-1)[row])
        raise NotPSDError(f"matrix not PSD: row {row} has min eigenvalue {lam:.3e}",
                          row=row, min_eigenvalue=lam)


def principal_sqrt_batched(A):
    """Principal square roots over a batch (..., n, n) of Hermitian matrices,
    any n, by ``eigh``, which reads the lower triangle.

    Eigenvalue dust in (-FAIL_TOL, 0) is clamped to zero; a minimum eigenvalue
    below -FAIL_TOL raises NotPSDError naming the first offending row.  Real
    input gives real output.
    """
    eigvals, eigvecs = np.linalg.eigh(A)
    _psd_gate(eigvals[..., 0])
    eigvals = np.clip(eigvals, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", eigvecs, np.sqrt(eigvals), np.conj(eigvecs))


def diagonal_entries(matrix):
    """The diagonal of a square matrix of polynomials (or action polynomials)
    whose off-diagonal entries are all identically zero; None otherwise."""
    n = len(matrix)
    if any(any(matrix[k][l].lowered[1]) for k in range(n) for l in range(n) if l != k):
        return None
    return tuple(matrix[k][k] for k in range(n))


def sqrt_diagonal(d):
    """Principal square roots of diagonal matrices from their mode-major
    diagonals d, (k, paths): the correctly rounded sqrt(d), with the dust
    clamp and the NotPSDError of ``principal_sqrt_batched``, whose batch
    rows are the paths."""
    if (d < 0).any():
        _psd_gate(d.min(axis=0))
        d = np.maximum(d, 0.0)
    return np.sqrt(d)


# ---------------------------------------------------------------------------
# averaged action-equation coefficients F(I), S(I), K(I)
# ---------------------------------------------------------------------------


class ActionPolynomial:
    """Real polynomial in the action variables, sum_k c_k prod_j (2 I_j)^{e_kj}.

    This is what the angle average of a resonant (alpha = beta) monomial set
    evaluates to; coefficients are the real parts of the complex monomial
    coefficients (the imaginary parts are the angle averages of rotational
    null terms and drop exactly).
    """

    __slots__ = ("n", "coeffs", "expos", "lowered")

    def __init__(self, n, coeffs, expos):
        self.n = n
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.expos = np.asarray(expos, dtype=int).reshape(len(self.coeffs), n)
        self.lowered = (lower_monomials(self.expos.tolist()), list(self.coeffs))

    @classmethod
    def from_resonant_poly(cls, p):
        """Build from a polynomial whose monomials all satisfy alpha = beta."""
        coeffs, expos = [], []
        for (a, b), c in p.sorted_terms():
            if a != b:
                raise ValueError("polynomial has non-resonant monomials")
            coeffs.append(float(np.real(c)))
            expos.append(a)
        if not coeffs:
            coeffs, expos = [0.0], [(0,) * p.n]
        return cls(p.n, coeffs, expos)

    @staticmethod
    def columns(actions):
        """The columns of the points 2 I for actions I of shape (..., n), and
        the zero sums start from."""
        x = 2.0 * np.asarray(actions, dtype=float)
        return lambda j: x[..., j], np.zeros(x.shape[:-1])

    evaluate = Polynomial.evaluate  # at actions of shape (..., n)


def action_drift_polys(spec):
    """Symbolic F(I): angle average of v_k . P_k(v) + sum_l |Psi_kl(v)|^2.

    The k-th component is the real part of the alpha = beta monomials of
    v_k * conj(P_k) + sum_l Psi_kl * conj(Psi_kl), read as a polynomial in I.
    Hamiltonian drift parts contribute nothing here: their resonant monomials
    are purely imaginary multiples of |v|^2 powers.
    """
    n = spec.n
    out = []
    for k in range(n):
        q = Polynomial.var(k + 1, n) * spec.drift_polys[k].conj()
        for l in range(spec.n1):
            q = q + spec.psi_polys[k][l] * spec.psi_polys[k][l].conj()
        zero = (0,) * n
        out.append(ActionPolynomial.from_resonant_poly(q.keep_resonant(zero)))
    return tuple(out)


def action_diffusion_polys(spec):
    """Symbolic S(I): angle average of the real matrix with entries
    sum_l (v_k conj(Psi_kl)) . (v_j conj(Psi_jl))."""
    n = spec.n
    out = []
    for k in range(n):
        row = []
        for j in range(n):
            q = Polynomial.zero(n)
            for l in range(spec.n1):
                q = q + (
                    Polynomial.var(k + 1, n)
                    * spec.psi_polys[k][l].conj()
                    * Polynomial.conjvar(j + 1, n)
                    * spec.psi_polys[j][l]
                )
            zero = (0,) * n
            row.append(ActionPolynomial.from_resonant_poly(q.keep_resonant(zero)))
        out.append(tuple(row))
    return tuple(out)


def action_drift_F(spec, actions):
    """Averaged action drift F(I); real n-vector, continuous up to I = 0."""
    actions = np.asarray(actions, dtype=float)
    if (actions < 0).any():
        raise ValueError("actions must be nonnegative")
    return Field(action_drift_polys(spec))(actions)


def action_diffusion_SK(spec, actions):
    """Averaged action diffusion S(I) and its principal square root K(I).

    For constant dispersion, S = diag{2 I_k b_k^2} with b_k^2 = sum_l
    |Psi_kl|^2, so K = diag{b_k sqrt(2 I_k)}.
    """
    actions = np.asarray(actions, dtype=float)
    if (actions < 0).any():
        raise ValueError("actions must be nonnegative")
    S = Field(action_diffusion_polys(spec))(actions)
    S = 0.5 * (S + S.T)
    K = principal_sqrt(S)
    return S, K

