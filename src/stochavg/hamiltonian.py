"""The Hamiltonian spec and the null-contribution identity.

A field with components i * dh/dconj(v_k) for a real C^1 function h is
hamiltonian; ``SystemSpec.hamiltonian_drift_polys`` builds it from the
Wirtinger derivatives ``Polynomial.dvbar``.  Averaging commutes with
i*d/dconj(v): the averaged field is the hamiltonian field of the averaged
Hamiltonian <h>.  Because <h> depends only on the actions, the averaged
hamiltonian field is tangent to the torus fibers and the real scalar
product (i d<h>/dconj(v_k)) . v_k vanishes identically: hamiltonian drift
parts leave the action dynamics untouched.  ``orthogonality_residual``
evaluates that scalar product, which the ``check`` commands scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
