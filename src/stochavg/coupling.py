"""Coupled construction transferring action laws between the effective and
modified effective dynamics.

Per path, two processes run on one grid, as one step of the integration
driver in ``sde`` over the stacked state (a_ref, a_cpl):

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
reference actions it already computes into a node-major array beside the
coupled ones, so nothing is derived from recorded states afterwards.  Like
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
    _mark_stops,
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
    stop_ref = np.zeros(n_paths, dtype=bool)
    stop_cpl = np.zeros(n_paths, dtype=bool)
    tau_R_ref = np.full(n_paths, M * dtau)
    tau_R_cpl = np.full(n_paths, M * dtau)
    ref_step = _cutoff_step(_effective_rule(spec, "full", dtau), dtau, R, stop_ref, tau_R_ref)
    modified = _effective_rule(spec, "modified", dtau)
    in_delta = np.zeros(n_paths, dtype=bool)
    rot = np.zeros((n_paths, n), dtype=complex)  # e^{i theta} of the current Delta-segment
    seg_start = np.zeros(n_paths, dtype=int)
    # node-major, like the states the driver records
    I_ref_rec = np.empty((M + 1, n_paths, n))
    I_cpl = np.empty((M + 1, n_paths, n))
    I_ref_rec[0] = I_cpl[0] = I0
    schedules: List[List[Segment]] = [[] for _ in range(n_paths)]
    rotations: List[List[RotationEvent]] = [[] for _ in range(n_paths)]
    overshoot_counts = np.zeros(n_paths, dtype=int)

    def step(x, db, m, sl):
        a_ref, I_ref = ref_step(x[:, :n], db, m, sl)
        # coupled: modified dynamics on Lambda, rotated copy on Delta, driven
        # by the same Wiener increments as the reference
        evolved = modified(x[:, n:], db, stop_cpl[sl])
        d = in_delta[sl]
        a_cpl = np.where(d[:, None], rot[sl] * a_ref, evolved)
        I_new = np.where(d[:, None], I_ref, actions_of(a_cpl))
        _mark_stops(2.0 * _row_reduce(np.add, I_new) >= R, stop_cpl, tau_R_cpl,
                    (m + 1) * dtau, sl)

        # segment switching at node m+1; on Delta-segments the coupled
        # actions are the copied reference actions, so the up-crossing is
        # read off the shared values
        min_I = _row_reduce(np.minimum, I_new)
        down = ~d & (min_I <= delta)
        up = d & (min_I >= 2.0 * delta)
        if down.any():
            p = np.flatnonzero(down)
            q = sl.start + p
            pre_jump = a_cpl[p]
            theta = np.angle(pre_jump) - np.angle(a_ref[p])
            rot[q] = np.exp(1j * theta)
            a_cpl[p] = rot[q] * a_ref[p]
            I_new[p] = I_ref[p]
            overshoot_counts[q] += _row_reduce(np.minimum, I_ref[p]) > 2.0 * delta
            for r, th, pre in zip(q.tolist(), theta, pre_jump):
                rotations[r].append(RotationEvent(node=m + 1, theta=th, pre_jump=pre))
                schedules[r].append(Segment(LAMBDA, int(seg_start[r]), m + 1))
            seg_start[q] = m + 1
        for r in (sl.start + np.flatnonzero(up)).tolist():
            schedules[r].append(Segment(DELTA, int(seg_start[r]), m + 1))
            seg_start[r] = m + 1
        in_delta[sl] = (d | down) & ~up
        I_ref_rec[m + 1, sl] = I_ref
        I_cpl[m + 1, sl] = I_new
        x[:, :n] = a_ref
        x[:, n:] = a_cpl
        return x

    final = _integrate(np.concatenate([v0, v0]), n, T, dtau, [M * dtau], n_paths, seed,
                       STATE_STREAM, step, "coupled")
    for p in range(n_paths):
        if seg_start[p] < M:
            schedules[p].append(Segment(DELTA if in_delta[p] else LAMBDA, int(seg_start[p]), M))

    times = np.arange(M + 1) * dtau
    # the actions cover the whole grid, the states only its final node
    actions = lambda rec: PathEnsemble(times=times, values=rec.transpose(1, 0, 2), kind="action")
    states = lambda vals: PathEnsemble(times=final.times, values=vals, kind="state")
    return CoupledResult(
        times=times,
        coupled_actions=actions(I_cpl),
        reference_actions=actions(I_ref_rec),
        coupled_states=states(final.values[:, :, n:]),
        reference_states=states(final.values[:, :, :n]),
        schedules=schedules,
        rotations=rotations,
        tau_R_ref=tau_R_ref,
        tau_R_cpl=tau_R_cpl,
        delta=delta,
        overshoots=int(overshoot_counts.sum()),
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
