"""Domain types for a perturbed conservative linear system, the
real-Hamiltonian check and the null-contribution identity of hamiltonian
drift parts, plus the standing-assumption diagnostics (non-resonance scan,
ellipticity and growth sampling).

The system under study is, in slow time,

    dv_k + i eps^{-1} lambda_k v_k dtau = P_k(v) dtau + sum_l Psi_kl(v) dbeta_l

with complex state v in C^n and complex Wiener noise beta in C^{n1}.  The
drift decomposition P = P1 + (hamiltonian part of h) is an input: the user
supplies the non-hamiltonian part and, optionally, a real Hamiltonian h whose
field i*dh/dconj(v_k) is added on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError
from .poly import Field, Polynomial, as_poly, monomial_text

PSI_KINDS = ("constant", "elliptic", "smooth")

_REALNESS_RTOL = 1e-10
GROWTH_SAMPLES_PER_RADIUS = 48  # random states per radius of ``estimate_growth``


def check_real(poly):
    """Raise ConfigError unless ``poly`` is real-valued, read off its
    coefficients: c[alpha, beta] must equal conj c[beta, alpha] to within
    _REALNESS_RTOL * (1 + |c[alpha, beta]|) for every monomial."""
    for (a, b), c in poly.sorted_terms():
        partner = poly.terms.get((b, a), 0j)
        if abs(c - np.conj(partner)) > _REALNESS_RTOL * (1.0 + abs(c)):
            raise ConfigError(
                f"hamiltonian is not real-valued: the coefficient {c:g} of {monomial_text(a, b)} "
                f"is not the conjugate of the coefficient {partner:g} of {monomial_text(b, a)}"
            )


def entry_poly(entry, n, name):
    """``as_poly(entry, n)``, with a ConfigError naming the entry when it is
    neither a number nor a Polynomial over n variables."""
    try:
        return as_poly(entry, n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def orthogonality_residual(h, v):
    """Residuals (i d<h>/dconj(v_k))(v) . v_k, with z1 . z2 = Re(z1 conj(z2)),
    of the real Hamiltonian ``h`` (a Polynomial over len(v) variables or a
    number; anything else, or a complex-valued h, is a ConfigError).

    A field with components i * dh/dconj(v_k) for a real C^1 function h is
    hamiltonian; ``SystemSpec.hamiltonian_drift_polys`` builds it from the
    Wirtinger derivatives ``Polynomial.dvbar``.  Averaging commutes with
    i*d/dconj(v): the averaged field is the hamiltonian field of the averaged
    Hamiltonian <h>.  Because <h> depends only on the actions, the averaged
    hamiltonian field is tangent to the torus fibers and the scalar product
    above vanishes identically: hamiltonian drift parts leave the action
    dynamics untouched.  The residuals are returned as the test quantity
    rather than asserted here.
    """
    v = np.asarray(v, dtype=complex)
    n = len(v)
    h = entry_poly(h, n, "h")
    check_real(h)
    avg = h.keep_resonant((0,) * n)
    out = np.empty(n, dtype=float)
    for k in range(1, n + 1):
        g = 1j * avg.dvbar(k).evaluate(v)
        out[k - 1] = float(np.real(g * np.conj(v[k - 1])))
    return out


def random_states(n, count, radius, rng):
    """Sample ``count`` states in the complex n-ball of the given radius.

    Directions are isotropic; radii follow the uniform-volume law of R^{2n}.
    """
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.random((count, 1)) ** (1.0 / (2 * n))
    return z / norms * r


@dataclass(frozen=True)
class Frequencies:
    """Fast-time angular frequencies lambda_1..lambda_n (all nonzero)."""

    lambdas: tuple

    def __post_init__(self):
        lams = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lams)
        if len(lams) < 1:
            raise ConfigError("at least one frequency is required")
        if any(abs(x) <= 1e-12 for x in lams):
            raise ConfigError("frequencies must be nonzero (|lambda| > 1e-12)")

    @property
    def n(self):
        return len(self.lambdas)

    def as_array(self):
        return np.asarray(self.lambdas, dtype=float)


@dataclass(frozen=True)
class SystemSpec:
    """One perturbed system: frequencies, scale, drift split, and dispersion.

    ``p1`` holds the non-hamiltonian drift components; ``h`` an optional real
    Hamiltonian whose field enters the full drift as i*dh/dconj(v_k); its
    realness is checked exactly on the coefficients.  ``psi`` is the n x n1
    dispersion matrix.  ``psi_kind`` mirrors the dispersion assumption:
    constant entries, uniformly elliptic with constant ``alpha``, or merely
    smooth.  ``m0`` is the declared polynomial growth
    degree used by the growth diagnostic.  Every entry is a Polynomial over
    n variables or a number; ``p1_polys``, ``h_poly`` and ``psi_polys`` hold
    them all as Polynomials, and an entry that is neither is a ConfigError
    naming it (``drift.p1``, ``psi[1][2]``, ``h``).
    """

    freqs: Frequencies
    epsilon: float
    p1: tuple
    psi: tuple
    h: Optional[Polynomial] = None
    psi_kind: str = "smooth"
    alpha: Optional[float] = None
    m0: float = 0.0

    def __post_init__(self):
        n = self.freqs.n
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigError("epsilon must lie in (0, 1]")
        if len(self.p1) != n:
            raise ConfigError(f"drift needs {n} components, got {len(self.p1)}")
        if len(self.psi) < 1 or len(self.psi) != n:
            raise ConfigError(f"dispersion needs {n} rows, got {len(self.psi)}")
        n1 = len(self.psi[0])
        if n1 < 1 or any(len(row) != n1 for row in self.psi):
            raise ConfigError("dispersion rows must share a common length >= 1")
        if self.psi_kind not in PSI_KINDS:
            raise ConfigError(f"psi_kind must be one of {PSI_KINDS}")
        if self.psi_kind == "elliptic":
            if self.alpha is None or not (self.alpha > 0):
                raise ConfigError("elliptic dispersion requires alpha > 0")
        if self.m0 < 0:
            raise ConfigError("m0 must be nonnegative")
        object.__setattr__(self, "p1", tuple(self.p1))
        object.__setattr__(self, "psi", tuple(tuple(row) for row in self.psi))
        self.p1_polys, self.psi_polys, self.h_poly  # converts, so a bad entry fails here
        if self.psi_kind == "constant":
            for k, row in enumerate(self.psi_polys):
                for l, entry in enumerate(row):
                    if not entry.is_constant():
                        raise ConfigError(
                            f"psi_kind=constant but psi[{k+1}][{l+1}] depends on the state"
                        )
        if self.h is not None:
            check_real(self.h_poly)

    @property
    def n(self):
        return self.freqs.n

    @property
    def n1(self):
        return len(self.psi[0])

    @cached_property
    def p1_polys(self):
        return tuple(entry_poly(p, self.n, f"drift.p{k}") for k, p in enumerate(self.p1, 1))

    @cached_property
    def h_poly(self):
        return entry_poly(self.h, self.n, "h") if self.h is not None else None

    @cached_property
    def hamiltonian_drift_polys(self):
        """Components i*dh/dconj(v_k) of the hamiltonian drift part."""
        if self.h_poly is None:
            return tuple(Polynomial.zero(self.n) for _ in range(self.n))
        return tuple(1j * self.h_poly.dvbar(k) for k in range(1, self.n + 1))

    @cached_property
    def drift_polys(self):
        """Full drift P = P1 + hamiltonian part, in polynomial form."""
        return tuple(
            p + q for p, q in zip(self.p1_polys, self.hamiltonian_drift_polys)
        )

    @cached_property
    def psi_polys(self):
        return tuple(
            tuple(entry_poly(entry, self.n, f"psi[{k}][{l}]") for l, entry in enumerate(row, 1))
            for k, row in enumerate(self.psi, 1)
        )


def validate_state(v, n, name="state"):
    """Coerce to a finite complex vector of length n."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    if not np.isfinite(v.view(float)).all():
        raise ValueError(f"{name} has non-finite components")
    return v


# ---------------------------------------------------------------------------
# standing-assumption diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonresonanceReport:
    resonant: bool
    witness: Optional[tuple]
    min_abs: float


def check_nonresonance(freqs: Frequencies, order_bound: int, tol: float) -> NonresonanceReport:
    """Exhaustively scan integer vectors m with max|m_j| <= order_bound.

    Reports the minimizing |sum m_j lambda_j| over nonzero m and flags
    resonance when that minimum falls below ``tol``.  The witness sign is
    canonicalized so its first nonzero component is positive.  This certifies
    non-resonance only up to the stated order bound and tolerance.
    """
    if order_bound < 1:
        raise ValueError("order_bound must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    lam = freqs.as_array()
    n = freqs.n
    rng_vals = range(-order_bound, order_bound + 1)
    best = None  # (|m.lambda|, max|m_j|, m): ties resolve to the most primitive relation
    # chunked lexicographic scan keeps memory flat for larger n
    chunk = []
    for m in itertools.product(rng_vals, repeat=n):
        if not any(m):
            continue
        chunk.append(m)
        if len(chunk) == 65536:
            best = _scan_chunk(chunk, lam, best)
            chunk = []
    if chunk:
        best = _scan_chunk(chunk, lam, best)
    best_abs, _, best_m = best
    witness = _canonical_sign(best_m)
    return NonresonanceReport(
        resonant=bool(best_abs < tol),
        witness=witness,
        min_abs=float(best_abs),
    )


def _scan_chunk(chunk, lam, best):
    arr = np.asarray(chunk, dtype=float)
    vals = np.abs(arr @ lam)
    low = vals.min()
    candidates = [
        (float(vals[i]), max(abs(x) for x in chunk[i]), _canonical_sign(chunk[i]))
        for i in np.flatnonzero(vals == low)
    ]
    contender = min(candidates)
    return contender if best is None or contender < best else best


def _canonical_sign(m):
    if m is None:
        return None
    for x in m:
        if x != 0:
            return tuple(m) if x > 0 else tuple(-y for y in m)
    return tuple(m)


@dataclass(frozen=True)
class EllipticityReport:
    lambda_lower: float
    lambda_upper: float
    passed: bool


def check_ellipticity(spec: SystemSpec, sample_count: int, seed: int) -> EllipticityReport:
    """Sample min/max eigenvalues of Psi(v) Psi*(v) over random states.

    This is a diagnostic, not a proof: sampling cannot certify the
    for-all-v ellipticity condition, it can only refute it or build
    confidence.  States are drawn with radius up to 10 and v = 0 is always
    included.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    pts = random_states(spec.n, sample_count, 10.0, rng)
    pts = np.concatenate([np.zeros((1, spec.n), dtype=complex), pts])
    psi = Field(spec.psi_polys)(pts)
    gram = psi @ np.conj(np.swapaxes(psi, -1, -2))
    eigs = np.linalg.eigvalsh(gram)
    lo = float(eigs.min())
    hi = float(eigs.max())
    return EllipticityReport(
        lambda_lower=lo,
        lambda_upper=hi,
        passed=bool(lo > 0.0),
    )


def estimate_growth(poly, m0: float, radii, seed: int) -> float:
    """Monte Carlo estimate of the weighted Lipschitz-plus-sup growth constant
    of the Polynomial ``poly``, sampled in its ``poly.n`` variables.

    For each radius R the Lipschitz constant on the R-ball is estimated by
    pairwise difference quotients of GROWTH_SAMPLES_PER_RADIUS sampled points
    and the sup norm by the sampled maximum; the estimate is the maximum over
    radii of (1+R)^(-m0) * (Lip_est + sup_est).  Diagnostic only.
    """
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("radii must be nonempty")
    if any(r < 1 for r in radii):
        raise ValueError("radii must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    for r in radii:
        pts = random_states(poly.n, GROWTH_SAMPLES_PER_RADIUS, r, rng)
        vals = poly.evaluate(pts)
        sup_est = float(np.abs(vals).max())
        diff = np.abs(vals[:, None] - vals[None, :])
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        mask = dist > 1e-9
        lip_est = float((diff[mask] / dist[mask]).max()) if mask.any() else 0.0
        best = max(best, (1.0 + r) ** (-m0) * (lip_est + sup_est))
    return best
