"""Wirtinger calculus and hamiltonian vector fields.

A field with components i * dh/dconj(v_k) for a real C^1 function h is
hamiltonian.  Averaging commutes with i*d/dconj(v): the averaged field is the
hamiltonian field of the averaged Hamiltonian.  Because <h> depends only on
the actions, the averaged hamiltonian field is tangent to the torus fibers
and the real scalar product (i d<h>/dconj(v_k)) . v_k vanishes identically:
hamiltonian drift parts leave the action dynamics untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import averaging
from .errors import ConfigError
from .model import check_real, entry_poly
from .poly import Polynomial


@dataclass(frozen=True)
class HamiltonianSpec:
    """A real-valued Hamiltonian over n complex modes.

    ``h`` is a Polynomial over n variables or a number, held as the
    Polynomial ``poly``; anything else is a ConfigError, and the coefficients
    are checked for realness as in ``SystemSpec``.
    """

    h: Polynomial
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        check_real(self.poly)

    @cached_property
    def poly(self):
        return entry_poly(self.h, self.n, "h")


def wirtinger_dbar(ham: HamiltonianSpec, v, method="symbolic", step=1e-5):
    """Derivatives dh/dconj(v_k) = (dh/dx_k + i dh/dy_k) / 2 at the state v.

    ``method="symbolic"`` differentiates the polynomial form (lowers the
    conjugate exponent); ``method="finitediff"`` uses central differences of
    size ``step`` on the real coordinates.
    """
    v = np.asarray(v, dtype=complex)
    if method == "symbolic":
        p = ham.poly
        return np.array([p.dvbar(k).evaluate(v) for k in range(1, ham.n + 1)])
    if method != "finitediff":
        raise ValueError(f"unknown method {method!r}")
    if not (0.0 < step <= 1e-3):
        raise ValueError("finite-difference step must lie in (0, 1e-3]")
    h = ham.poly.evaluate
    out = np.empty(ham.n, dtype=complex)
    for k in range(ham.n):
        ek = np.zeros(ham.n, dtype=complex)
        ek[k] = 1.0
        dx = (h(v + step * ek) - h(v - step * ek)) / (2 * step)
        dy = (h(v + 1j * step * ek) - h(v - 1j * step * ek)) / (2 * step)
        out[k] = 0.5 * (dx + 1j * dy)
    return out


def hamiltonian_field(ham: HamiltonianSpec):
    """The field with components i * dh/dconj(v_k), as Polynomials."""
    p = ham.poly
    return tuple(1j * p.dvbar(k) for k in range(1, ham.n + 1))


def averaged_hamiltonian(ham: HamiltonianSpec, a, method="symbolic", **kw) -> float:
    """Torus average <h>(a); real, and a function of the actions only."""
    val = averaging.average_function(ham.poly, a, method, **kw)
    return float(np.real(val))


def averaged_hamiltonian_poly(ham: HamiltonianSpec):
    zero = (0,) * ham.n
    return ham.poly.keep_resonant(zero)


def orthogonality_residual(ham: HamiltonianSpec, v):
    """Residuals (i d<h>/dconj(v_k))(v) . v_k, with z1 . z2 = Re(z1 conj(z2)).

    These vanish identically for real h; they are returned as the test
    quantity rather than asserted here.
    """
    v = np.asarray(v, dtype=complex)
    avg = averaged_hamiltonian_poly(ham)
    out = np.empty(ham.n, dtype=float)
    for k in range(1, ham.n + 1):
        g = 1j * avg.dvbar(k).evaluate(v)
        out[k - 1] = float(np.real(g * np.conj(v[k - 1])))
    return out
