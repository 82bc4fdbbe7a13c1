"""Coupled construction transferring action laws between the effective and
modified effective dynamics.

Per path, two processes run on one grid, as one cut-off step of ``sde``
(one Euler update with compiled drift fields, one action computation, one
R-test) on the stacked mode-major state (a_ref, a_cpl), (2, k, paths):

* the reference follows the cut-off effective equation; its half of the
  step is the step of ``sde.simulate_cutoff_effective``, so with the same
  seed its states, actions and stopping times equal that run's bit for bit;
* the coupled process alternates between Lambda-segments, where it follows
  the cut-off modified effective equation driven by the same Wiener
  increments as the reference, and Delta-segments, where it is a rotated
  copy ``Phi_theta a_ref`` of the reference, entered when its smallest
  action dips to ``delta`` and left when the copied smallest action
  recovers to ``2 delta``.

At each entry node the matching angles theta are chosen so the rotated
reference agrees with the incoming path in phase; moduli are copied exactly,
so on Delta-segments the coupled actions equal the reference actions
bit-for-bit (the action rows are assigned, not recomputed through
transcendentals); each path keeps e^{i theta} from its entry node to the
end of the segment.  On Lambda-segments the equality of action laws holds
only in distribution (weak uniqueness of the action equation away from the
boundary); the artifact asserts exact equality on Delta-segments and
distributional closeness elsewhere.

The construction keeps what its readers use: the actions of both processes
at every grid node, the schedules, rotations and stopping times.  The
stacked complex states are kept at the final node only; the step writes the
actions of both processes it already computes into node-major arrays,
so nothing is derived from recorded states afterwards.  Like
the ensembles of ``sde``, the action ensembles of a ``CoupledResult`` are
(paths, nodes, k) views of node-major arrays, not C-contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .averaging import actions_of
from .model import SystemSpec, validate_state
from .sde import (
    STATE_STREAM,
    PathEnsemble,
    _check_paths,
    _cutoff_step,
    _effective_rule,
    _grid,
    _integrate,
    _put,
    _row_reduce,
)

LAMBDA = "lambda"
DELTA = "delta"

# paths per block of the occupation sums
_OCCUPATION_ROWS = 256


@dataclass(frozen=True)
class Segment:
    kind: str
    start: int  # grid node index, inclusive
    end: int    # grid node index, inclusive; segments share boundary nodes


@dataclass(frozen=True)
class RotationEvent:
    """Entry into a Delta-segment: matching angles and the pre-jump state."""

    node: int
    theta: np.ndarray
    pre_jump: np.ndarray


@dataclass
class CoupledResult:
    """Output of ``build_coupled``.

    ``times`` is the full grid; ``coupled_actions`` and ``reference_actions``
    hold every path's actions at all of its nodes.  ``coupled_states`` and
    ``reference_states`` hold the complex states at the final node T only
    (``times == [T]``); a state before T is not kept.
    """

    times: np.ndarray
    coupled_actions: PathEnsemble
    reference_actions: PathEnsemble
    coupled_states: PathEnsemble
    reference_states: PathEnsemble
    schedules: List[List[Segment]]
    rotations: List[List[RotationEvent]]
    tau_R_ref: np.ndarray
    tau_R_cpl: np.ndarray
    delta: float
    overshoots: int

    @property
    def n_paths(self):
        return self.coupled_actions.n_paths

    def segment_count(self):
        return sum(len(s) for s in self.schedules)


def build_coupled(spec: SystemSpec, v0, T, dtau, delta, R, n_paths, seed) -> CoupledResult:
    """Construct the coupled process against a cut-off effective reference.

    Requires min_k I_k(v0) > delta and R > |v0|^2.  Both processes are
    driven by one Wiener process per path (the coupled equation shares the
    reference's increments; on Delta-segments they act through the rotated
    copy), so if the system has no hamiltonian part the two processes
    coincide bit-for-bit and the coupling is degenerate-exact.
    """
    v0 = validate_state(v0, spec.n, "v0")
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    I0 = actions_of(v0)
    if not (I0.min() > delta):
        raise ValueError(
            f"initial actions must all exceed delta: min I(v0) = {I0.min():.6g} <= {delta}"
        )
    if not R > float((np.abs(v0) ** 2).sum()):
        raise ValueError("R must exceed |v0|^2")
    M = _grid(T, dtau)
    _check_paths(n_paths)
    n = spec.n
    # per half (reference, coupled) and path
    stopped = np.zeros((2, n_paths), dtype=bool)
    tau_R = np.full((2, n_paths), M * dtau)
    in_delta = np.zeros(n_paths, dtype=bool)
    rot = np.zeros((n, n_paths), dtype=complex)  # e^{i theta} of the current Delta-segment
    seg_start = [0] * n_paths
    # per half, node-major like the states the driver records
    I_rec = np.empty((2, M + 1, n_paths, n))
    I_rec[:, 0] = I0
    schedules: List[List[Segment]] = [[] for _ in range(n_paths)]
    rotations: List[List[RotationEvent]] = [[] for _ in range(n_paths)]
    overshoots = 0

    def tie(a, I, sl):
        # on Delta-segments the coupled state is the rotated reference, and
        # its actions are the reference's
        d = in_delta[sl]
        if d.any():
            np.copyto(a[1], rot[:, sl] * a[0], where=d)
            np.copyto(I[1], I[0], where=d)

    # one cut-off step of both halves: the reference on the full, the coupled
    # on the modified effective drift, by the same increments
    cutoff = _cutoff_step(_effective_rule(spec, ("full", "modified"), dtau), dtau, R,
                          stopped, tau_R, tie)

    def step(x, db, m, sl):
        nonlocal overshoots
        a, I = cutoff(x.reshape(2, n, -1), db, m, sl)
        # segment switching at node m+1; on Delta-segments the coupled
        # actions are the copied reference actions, so the up-crossing is
        # read off the shared values
        d = in_delta[sl]
        min_I = _row_reduce(np.minimum, I[1])
        down = np.greater(min_I <= delta, d)  # and not on a Delta-segment
        up = d & (min_I >= 2.0 * delta)
        if down.any():
            p = down.nonzero()[0]
            a_p = a[:, :, p]  # (reference, pre-jump coupled) states of the entering paths
            phase = np.arctan2(a_p.imag, a_p.real)  # np.angle of both halves
            theta = (phase[1] - phase[0]).T
            e = np.exp(1j * theta).T
            rot[:, sl][:, p] = e
            a[1][:, p] = e * a_p[0]
            I[1][:, p] = I_p = I[0][:, p]
            overshoots += int(np.count_nonzero(_row_reduce(np.minimum, I_p) > 2.0 * delta))
            for r, th, pre in zip((sl.start + p).tolist(), theta, a_p[1].T):
                rotations[r].append(RotationEvent(node=m + 1, theta=th, pre_jump=pre))
                schedules[r].append(Segment(LAMBDA, seg_start[r], m + 1))
                seg_start[r] = m + 1
        for r in (sl.start + up.nonzero()[0]).tolist():
            schedules[r].append(Segment(DELTA, seg_start[r], m + 1))
            seg_start[r] = m + 1
        d ^= down  # enter: down paths were not on a Delta-segment
        d ^= up  # leave: up paths were
        _put(I_rec[:, m + 1, sl], I)
        return a.reshape(2 * n, -1)

    final = _integrate(np.concatenate([v0, v0]), n, T, dtau, [M * dtau], n_paths, seed,
                       STATE_STREAM, step, "coupled")
    for p in range(n_paths):
        if seg_start[p] < M:
            schedules[p].append(Segment(DELTA if in_delta[p] else LAMBDA, seg_start[p], M))

    times = np.arange(M + 1) * dtau
    # the actions cover the whole grid, the states only its final node
    actions = lambda rec: PathEnsemble(times=times, values=rec.transpose(1, 0, 2), kind="action")
    states = lambda vals: PathEnsemble(times=final.times, values=vals, kind="state")
    return CoupledResult(
        times=times,
        coupled_actions=actions(I_rec[1]),
        reference_actions=actions(I_rec[0]),
        coupled_states=states(final.values[:, :, n:]),
        reference_states=states(final.values[:, :, :n]),
        schedules=schedules,
        rotations=rotations,
        tau_R_ref=tau_R[0],
        tau_R_cpl=tau_R[1],
        delta=delta,
        overshoots=overshoots,
    )


def occupation_time(action_ens: PathEnsemble, delta, k, tau_R) -> float:
    """Monte Carlo estimate of E integral_0^{tau_R} 1{I_k(tau) <= delta} dtau.

    Grid quadrature with the left-endpoint rule on the recorded nodes; the
    per-path stopping times ``tau_R`` truncate the integral.  The per-path
    integrals are summed _OCCUPATION_ROWS paths at a time, so no (paths,
    nodes) temporary is made; a row's sum does not depend on the block.
    Each block is summed as a C-ordered array, so every row is summed the
    same (pairwise) way whatever the layout of the ensemble.
    """
    if action_ens.kind != "action":
        raise ValueError("occupation_time needs an action ensemble")
    times = action_ens.times
    if times.size < 2:
        raise ValueError("need at least two recorded nodes")
    dt = np.diff(times)
    per_path = np.empty(action_ens.n_paths)
    for lo in range(0, per_path.size, _OCCUPATION_ROWS):
        rows = slice(lo, lo + _OCCUPATION_ROWS)
        below = action_ens.values[rows, :-1, k] <= delta  # left endpoints
        below = below & (times[None, :-1] < np.asarray(tau_R)[rows, None])
        per_path[rows] = np.multiply(below, dt[None, :], order="C").sum(axis=1)
    return float(per_path.mean())


def export_segments_csv(result: CoupledResult, path):
    """CSV schema: path,seg_index,kind,start_time,end_time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,seg_index,kind,start_time,end_time\n")
        times = result.times.tolist()  # plain float reprs, not np.float64(...)
        for p, segs in enumerate(result.schedules):
            for i, s in enumerate(segs):
                fh.write(f"{p},{i},{s.kind},{times[s.start]!r},{times[s.end]!r}\n")
