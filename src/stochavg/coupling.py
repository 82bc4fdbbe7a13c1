"""Coupled construction transferring action laws between the effective and
modified effective dynamics.

Per path, two processes run on one grid: a reference following the cut-off
effective equation, and a coupled process that alternates between

* Lambda-segments, where it follows the cut-off modified effective equation
  driven by the same Wiener increments as the reference, and
* Delta-segments, where it is a rotated copy ``Phi_theta a_ref`` of the
  reference, entered when its smallest action dips to ``delta`` and left when
  the copied smallest action recovers to ``2 delta``.

At each entry node the matching angles theta are chosen so the rotated
reference agrees with the incoming path in phase; moduli are copied exactly,
so on Delta-segments the coupled actions equal the reference actions
bit-for-bit (the action rows are assigned, not recomputed through
transcendentals).  On Lambda-segments the equality of action laws holds only
in distribution (weak uniqueness of the action equation away from the
boundary); the artifact asserts exact equality on Delta-segments and
distributional closeness elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .averaging import actions_of
from .config import spec_hash
from .errors import NonFiniteError
from .model import SystemSpec, validate_state
from .sde import (
    STATE_STREAM,
    NoisePath,
    PathEnsemble,
    _chunks,
    _DispersionSolver,
    _effective_drift_polys,
    _grid,
    _run_chunks,
)

LAMBDA = "lambda"
DELTA = "delta"


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
    times: np.ndarray
    coupled_actions: PathEnsemble
    reference_actions: PathEnsemble
    coupled_states: Optional[PathEnsemble]
    reference_states: Optional[PathEnsemble]
    schedules: List[List[Segment]]
    rotations: List[List[RotationEvent]]
    tau_R_ref: np.ndarray
    tau_R_cpl: np.ndarray
    delta: float
    R: float
    overshoots: int

    @property
    def n_paths(self):
        return self.coupled_actions.n_paths

    def segment_count(self):
        return sum(len(s) for s in self.schedules)


def build_coupled(spec: SystemSpec, v0, T, dtau, delta, R, n_paths, seed,
                  record_states=True, threads=1) -> CoupledResult:
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
    times = np.arange(M + 1) * dtau
    n = spec.n
    drift_full = _effective_drift_polys(spec, "full")
    drift_mod = _effective_drift_polys(spec, "modified")
    disp = _DispersionSolver(spec)

    I_ref = np.empty((n_paths, M + 1, n))
    I_cpl = np.empty((n_paths, M + 1, n))
    states_ref = np.empty((n_paths, M + 1, n), dtype=complex) if record_states else None
    states_cpl = np.empty_like(states_ref) if record_states else None
    tau_R_ref = np.full(n_paths, M * dtau)
    tau_R_cpl = np.full(n_paths, M * dtau)
    schedules: List[List[Segment]] = [[] for _ in range(n_paths)]
    rotations: List[List[RotationEvent]] = [[] for _ in range(n_paths)]
    overshoot_counts = np.zeros(n_paths, dtype=int)

    def worker(bounds):
        lo, hi = bounds
        count = hi - lo
        noise_ref = np.empty((count, M, n), dtype=complex)
        for p in range(count):
            noise_ref[p] = NoisePath(seed, lo + p, STATE_STREAM, dtau).complex_increments(M, n)
        a_ref = np.broadcast_to(v0, (count, n)).copy()
        a_cpl = np.broadcast_to(v0, (count, n)).copy()
        in_delta = np.zeros(count, dtype=bool)
        theta = np.zeros((count, n))
        stop_ref = np.zeros(count, dtype=bool)
        stop_cpl = np.zeros(count, dtype=bool)
        seg_start = np.zeros(count, dtype=int)
        I_ref[lo:hi, 0] = actions_of(a_ref)
        I_cpl[lo:hi, 0] = I_ref[lo:hi, 0]
        if record_states:
            states_ref[lo:hi, 0] = a_ref
            states_cpl[lo:hi, 0] = a_cpl

        for m in range(M):
            # reference: cut-off effective dynamics
            db_ref = noise_ref[:, m]
            step = a_ref + np.stack(
                [drift_full[k].evaluate(a_ref) for k in range(n)], axis=-1
            ) * dtau + disp.apply(a_ref, db_ref)
            a_ref = np.where(stop_ref[:, None], a_ref + db_ref, step)
            if not np.isfinite(a_ref.view(np.float64)).all():
                bad = int(np.argmin(np.isfinite(a_ref.view(np.float64)).reshape(count, -1).all(axis=1)))
                raise NonFiniteError("reference path became non-finite",
                                     path_index=lo + bad, time=float(times[m + 1]))
            I_ref_new = actions_of(a_ref)
            newly = (~stop_ref) & (2.0 * I_ref_new.sum(axis=1) >= R)
            if newly.any():
                tau_R_ref[lo:hi][newly] = times[m + 1]
                stop_ref |= newly

            # coupled: modified dynamics on Lambda, rotated copy on Delta,
            # driven by the same Wiener increments as the reference
            db_cpl = db_ref
            step = a_cpl + np.stack(
                [drift_mod[k].evaluate(a_cpl) for k in range(n)], axis=-1
            ) * dtau + disp.apply(a_cpl, db_cpl)
            evolved = np.where(stop_cpl[:, None], a_cpl + db_cpl, step)
            a_cpl = np.where(in_delta[:, None], np.exp(1j * theta) * a_ref, evolved)
            I_new = np.where(in_delta[:, None], I_ref_new, actions_of(a_cpl))
            if not np.isfinite(a_cpl.view(np.float64)).all():
                bad = int(np.argmin(np.isfinite(a_cpl.view(np.float64)).reshape(count, -1).all(axis=1)))
                raise NonFiniteError("coupled path became non-finite",
                                     path_index=lo + bad, time=float(times[m + 1]))
            newly = (~stop_cpl) & (2.0 * I_new.sum(axis=1) >= R)
            if newly.any():
                tau_R_cpl[lo:hi][newly] = times[m + 1]
                stop_cpl |= newly

            # segment switching at node m+1; on Delta-segments the coupled
            # actions are the copied reference actions, so the up-crossing is
            # read off the shared values
            min_I = I_new.min(axis=1)
            down = (~in_delta) & (min_I <= delta)
            up = in_delta & (min_I >= 2.0 * delta)
            for p in np.where(down)[0]:
                th = np.angle(a_cpl[p]) - np.angle(a_ref[p])
                rotations[lo + p].append(RotationEvent(
                    node=m + 1, theta=th.copy(), pre_jump=a_cpl[p].copy()))
                schedules[lo + p].append(Segment(LAMBDA, int(seg_start[p]), m + 1))
                seg_start[p] = m + 1
                theta[p] = th
                a_cpl[p] = np.exp(1j * th) * a_ref[p]
                I_new[p] = I_ref_new[p]
                if I_ref_new[p].min() > 2.0 * delta:
                    overshoot_counts[lo + p] += 1
            in_delta |= down
            for p in np.where(up)[0]:
                schedules[lo + p].append(Segment(DELTA, int(seg_start[p]), m + 1))
                seg_start[p] = m + 1
            in_delta &= ~up

            I_ref[lo:hi, m + 1] = I_ref_new
            I_cpl[lo:hi, m + 1] = I_new
            if record_states:
                states_ref[lo:hi, m + 1] = a_ref
                states_cpl[lo:hi, m + 1] = a_cpl

        for p in range(count):
            if seg_start[p] < M:
                kind = DELTA if in_delta[p] else LAMBDA
                schedules[lo + p].append(Segment(kind, int(seg_start[p]), M))

    _run_chunks(_chunks(n_paths, M, 2 * n), worker, threads)

    meta = {
        "system": spec_hash(spec),
        "integrator": "coupled-segment-gluing",
        "dtau": dtau,
        "T": M * dtau,
        "master_seed": seed,
        "n_paths": n_paths,
        "delta": delta,
        "R": R,
    }
    mk = lambda vals, kind, tag: PathEnsemble(
        times=times, values=vals, kind=kind, meta={**meta, "process": tag})
    return CoupledResult(
        times=times,
        coupled_actions=mk(I_cpl, "action", "coupled"),
        reference_actions=mk(I_ref, "action", "reference"),
        coupled_states=mk(states_cpl, "state", "coupled") if record_states else None,
        reference_states=mk(states_ref, "state", "reference") if record_states else None,
        schedules=schedules,
        rotations=rotations,
        tau_R_ref=tau_R_ref,
        tau_R_cpl=tau_R_cpl,
        delta=delta,
        R=float(R),
        overshoots=int(overshoot_counts.sum()),
    )


def occupation_time(action_ens: PathEnsemble, delta, k, tau_R=None) -> float:
    """Monte Carlo estimate of E integral_0^{tau_R} 1{I_k(tau) <= delta} dtau.

    Grid quadrature with the left-endpoint rule on the recorded nodes; the
    optional per-path stopping times truncate the integral.
    """
    if action_ens.kind != "action":
        raise ValueError("occupation_time needs an action ensemble")
    times = action_ens.times
    if times.size < 2:
        raise ValueError("need at least two recorded nodes")
    dt = np.diff(times)
    vals = action_ens.values[:, :-1, k]  # left endpoints
    below = vals <= delta
    if tau_R is not None:
        active = times[None, :-1] < np.asarray(tau_R)[:, None]
        below = below & active
    return float((below * dt[None, :]).sum(axis=1).mean())


def export_segments_csv(result: CoupledResult, path):
    """CSV schema: path,seg_index,kind,start_time,end_time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,seg_index,kind,start_time,end_time\n")
        times = result.times.tolist()  # plain float reprs, not np.float64(...)
        for p, segs in enumerate(result.schedules):
            for i, s in enumerate(segs):
                fh.write(f"{p},{i},{s.kind},{times[s.start]!r},{times[s.end]!r}\n")
