"""Bundled example systems.

The acceptance system is a two-mode dissipative system with identity noise,
irrational frequency ratio and a genuine hamiltonian drift part:

    lambda = (1, sqrt(2)),  Psi = E,
    P1 = (-v1 + c v2, -v2),  h = |v1|^2 |v2|^2.

Averaging kills the cross term c v2 (it is non-resonant) and keeps the rest,
so the effective drift is (-a1 + i a1 |a2|^2, -a2 + i a2 |a1|^2), the
modified effective equation is the plain complex Ornstein-Uhlenbeck system
da = -a dtau + dbeta, and every closed-form oracle of the OU system applies:
stationary actions are Exponential with mean 1/2 per mode, the averaged
action drift is F_k = 1 - 2 I_k and the action dispersion K = diag sqrt(2 I).
The cross term is what makes the epsilon-sweep informative: without it the
interaction representation solves the effective equation exactly in law for
every epsilon and no convergence trend exists to measure.
"""

from __future__ import annotations

import numpy as np

from .expr import parse_field_expr
from .model import Frequencies, SystemSpec

# weight of the non-resonant cross term in P1: large enough that the
# epsilon-sweep distances clear the Monte Carlo noise floor at eps = 0.05
# with 4000 paths, small enough that P1(v).v <= -(1 - c/2)|v|^2 stays
# dissipative
ACCEPTANCE_PROBE = 1.8


def acceptance_system(epsilon=0.05) -> SystemSpec:
    n = 2
    p1 = (
        parse_field_expr(f"-v1 + {ACCEPTANCE_PROBE!r}*v2", n),
        parse_field_expr("-v2", n),
    )
    psi = (
        (parse_field_expr("1", n), parse_field_expr("0", n)),
        (parse_field_expr("0", n), parse_field_expr("1", n)),
    )
    return SystemSpec(
        freqs=Frequencies((1.0, float(np.sqrt(2.0)))),
        epsilon=epsilon,
        p1=p1,
        psi=psi,
        h=parse_field_expr("abs2(v1)*abs2(v2)", n),
        psi_kind="constant",
        m0=3.0,
    )


ACCEPTANCE_V0 = np.array([1.0 + 0.0j, 1.0 + 0.0j])
