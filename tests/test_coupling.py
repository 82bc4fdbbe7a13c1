import tracemalloc

import numpy as np
import pytest

from stochavg import (acceptance_system, averaging, bl_distance_nd, law_from_ensemble,
                      parse_field_expr, sde)
from stochavg.averaging import actions_of
from stochavg.coupling import (
    DELTA,
    LAMBDA,
    RotationEvent,
    Segment,
    build_coupled,
    occupation_time,
)
from stochavg.model import Frequencies, SystemSpec
from stochavg.poly import Field
from stochavg.sde import STATE_STREAM, _integrate, simulate_cutoff_effective

V0 = np.array([1.0 + 0.0j, 1.0 + 0.0j])


def decayed_spec():
    # noiseless contraction: actions decay deterministically, no thresholds hit
    n = 2
    return SystemSpec(
        freqs=Frequencies((1.0, np.sqrt(2.0))),
        epsilon=0.5,
        p1=(parse_field_expr("-v1", n), parse_field_expr("-v2", n)),
        psi=((parse_field_expr("0", n), parse_field_expr("0", n)),
             (parse_field_expr("0", n), parse_field_expr("0", n))),
        psi_kind="constant",
    )


def no_hamiltonian_spec():
    n = 2
    return SystemSpec(
        freqs=Frequencies((1.0, np.sqrt(2.0))),
        epsilon=0.5,
        p1=(parse_field_expr("-v1", n), parse_field_expr("-v2", n)),
        psi=((parse_field_expr("1", n), parse_field_expr("0", n)),
             (parse_field_expr("0", n), parse_field_expr("1", n))),
        psi_kind="constant",
    )


def test_preconditions():
    spec = acceptance_system()
    with pytest.raises(ValueError):
        build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.6, R=16.0, n_paths=2, seed=0)
    with pytest.raises(ValueError):
        build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.1, R=1.0, n_paths=2, seed=0)


def test_thresholds_never_crossed_gives_single_lambda_segment():
    # short horizon, deterministic decay keeps min action above a tiny delta
    spec = decayed_spec()
    res = build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.05, R=16.0,
                        n_paths=4, seed=0)
    for segs in res.schedules:
        assert len(segs) == 1
        assert segs[0].kind == LAMBDA
        assert (segs[0].start, segs[0].end) == (0, 500)
    # and the coupled path is then a plain modified-effective path:
    # deterministic decay e^{-tau}
    final = np.abs(res.coupled_states.values[:, -1, :])
    np.testing.assert_allclose(final, np.exp(-0.5), atol=1e-3)


def test_segments_tile_and_alternate():
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=16.0,
                        n_paths=64, seed=11)
    for segs in res.schedules:
        assert segs[0].start == 0
        assert segs[0].kind == LAMBDA
        assert segs[-1].end == res.times.size - 1
        for s1, s2 in zip(segs, segs[1:]):
            assert s1.end == s2.start
            assert s1.kind != s2.kind
        assert all(s.end > s.start for s in segs)


def test_delta_segment_actions_copied_bitwise():
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=16.0,
                        n_paths=64, seed=11)
    saw_delta = 0
    for p, segs in enumerate(res.schedules):
        for s in segs:
            if s.kind != DELTA:
                continue
            saw_delta += 1
            got = res.coupled_actions.values[p, s.start:s.end + 1]
            ref = res.reference_actions.values[p, s.start:s.end + 1]
            assert np.array_equal(got, ref)
    assert saw_delta > 20


def test_rotation_log_matches_in_phase_and_modulus():
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=16.0,
                        n_paths=32, seed=7)
    # the coupling keeps states at T only; its reference half is bitwise
    # this cut-off run, whose states are recorded at every node
    ref_states = simulate_cutoff_effective(spec, "full", V0, T=1.0, dtau=1e-3, n_paths=32,
                                           seed=7, R=16.0).paths.values
    checked = 0
    for p, events in enumerate(res.rotations):
        for ev in events:
            rotated = np.exp(1j * ev.theta) * ref_states[p, ev.node]
            # the stored entry node IS the rotated copy: moduli match the
            # reference exactly through the copied action row
            np.testing.assert_array_equal(
                res.coupled_actions.values[p, ev.node],
                res.reference_actions.values[p, ev.node])
            np.testing.assert_allclose(res.coupled_actions.values[p, ev.node],
                                       actions_of(rotated), rtol=1e-12, atol=1e-15)
            # and the rotation reproduces the incoming phases
            phase_gap = np.angle(rotated * np.conj(ev.pre_jump))
            mask = np.abs(ev.pre_jump) > 1e-12
            assert np.abs(phase_gap[mask]).max() <= 1e-9
            checked += 1
    assert checked > 10


def test_lambda_interior_respects_lower_threshold():
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=16.0,
                        n_paths=32, seed=3)
    for p, segs in enumerate(res.schedules):
        for s in segs:
            interior = res.coupled_actions.values[p, s.start + 1:s.end]
            if not interior.size:
                continue
            m = interior.min(axis=1)
            if s.kind == LAMBDA:
                assert (m > res.delta).all()
            else:
                # interior of delta segments sits at or below the recovery
                # threshold by construction
                assert (m < 2 * res.delta).all()


def test_finitely_many_segments_reported():
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=2e-3, delta=0.1, R=16.0,
                        n_paths=16, seed=1)
    assert res.segment_count() >= 16
    assert res.segment_count() < 16 * res.times.size


def test_coupled_determinism_across_chunks(monkeypatch):
    spec = acceptance_system()
    r1 = build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.1, R=16.0,
                       n_paths=130, seed=5)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 8)  # 16 chunks of 8 and one of 2
    r2 = build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.1, R=16.0,
                       n_paths=130, seed=5)
    np.testing.assert_array_equal(r1.coupled_actions.values, r2.coupled_actions.values)
    np.testing.assert_array_equal(r1.reference_actions.values, r2.reference_actions.values)
    assert [len(s) for s in r1.schedules] == [len(s) for s in r2.schedules]


def test_no_hamiltonian_laws_agree():
    # with h = 0 the coupled process solves the same equation as the
    # reference (fresh noise), so the action laws agree up to noise
    spec = no_hamiltonian_spec()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=16.0,
                        n_paths=1500, seed=19)
    for t in (0.5, 1.0):
        rep = bl_distance_nd(
            law_from_ensemble(res.coupled_actions, t),
            law_from_ensemble(res.reference_actions, t),
            feature_count=128, seed=0, bootstrap=0)
        assert rep.estimate <= 2 * rep.noise_floor


def test_delta_shrinking_distance_trend():
    # the action-law gap stays level (at noise) or shrinks as delta decreases
    spec = acceptance_system()
    reps = []
    for delta in (0.2, 0.1, 0.05):
        res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=delta, R=16.0,
                            n_paths=1200, seed=23)
        reps.append(bl_distance_nd(
            law_from_ensemble(res.coupled_actions, 1.0),
            law_from_ensemble(res.reference_actions, 1.0),
            feature_count=128, seed=0))
    for earlier, later in zip(reps, reps[1:]):
        width = (earlier.bootstrap_ci[1] - earlier.bootstrap_ci[0]) + \
                (later.bootstrap_ci[1] - later.bootstrap_ci[0])
        assert later.estimate <= earlier.estimate + width


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("R", [16.0, 2.3])
def test_reference_half_is_the_cutoff_run_bitwise(monkeypatch, R, chunks):
    # couple-demo reads occupation times off the reference half instead of
    # re-running the cut-off effective equation; the 200 paths go in one
    # chunk or in two (128 + 72)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 200 if chunks == 1 else 128)
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=R, n_paths=200,
                        seed=(4, 1))
    cut = simulate_cutoff_effective(spec, "full", V0, T=1.0, dtau=1e-3, n_paths=200,
                                    seed=(4, 1), R=R)
    # the coupling keeps states at T only, and actions at every node
    np.testing.assert_array_equal(res.reference_states.times, cut.paths.times[-1:])
    np.testing.assert_array_equal(res.reference_states.values, cut.paths.values[:, -1:])
    np.testing.assert_array_equal(res.reference_actions.values, cut.actions().values)
    np.testing.assert_array_equal(res.tau_R_ref, cut.tau_R)
    stopped = cut.paths.extras["stopped"].mean()
    assert stopped > 0.9 if R < 16.0 else stopped < 0.1


def test_build_coupled_keeps_no_all_node_states():
    # the stacked (reference, coupled) states at all 1001 nodes of 400 paths
    # would take 1001 * 400 * 4 complex entries, 24.4 MiB, on their own
    all_node_states = 1001 * 400 * 4 * 16
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        build_coupled(acceptance_system(), V0, T=1.0, dtau=1e-3, delta=0.1, R=16.0,
                      n_paths=400, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < all_node_states


# -- occupation time ---------------------------------------------------------------

def _occupation_one_shot(ens, delta, k, tau_R):
    """``occupation_time`` over all paths at once, through a C-ordered
    (paths, nodes) temporary whose rows numpy sums pairwise."""
    times = ens.times
    below = np.ascontiguousarray(ens.values[:, :-1, k]) <= delta
    below = below & (times[None, :-1] < np.asarray(tau_R)[:, None])
    return float(np.ascontiguousarray(below * np.diff(times)[None, :]).sum(axis=1).mean())


def test_occupation_blocks_match_the_one_shot_sum_bitwise():
    # 300 paths: a block of 256 and one of 44; R = 3 stops most paths early.
    # numpy sums a row pairwise when it is contiguous and element by element
    # when it is not, so the node-major, C and F layouts must all give the
    # one C-order sum
    spec = acceptance_system()
    cut = simulate_cutoff_effective(spec, "full", V0, T=2.0, dtau=1e-3, n_paths=300,
                                    seed=6, R=3.0)
    assert 0.2 < cut.paths.extras["stopped"].mean() < 1.0
    acts = cut.actions()
    layouts = [sde.PathEnsemble(times=acts.times, values=order(acts.values), kind="action")
               for order in (np.ascontiguousarray, np.asfortranarray)]
    for k in (0, 1):
        for delta in (0.4, 0.2, 0.1, 0.05):
            want = _occupation_one_shot(acts, delta, k, cut.tau_R)
            assert want > 0.0
            for ens in (acts, *layouts):
                assert occupation_time(ens, delta, k, cut.tau_R) == want


def test_occupation_zero_threshold():
    spec = acceptance_system()
    cut = simulate_cutoff_effective(spec, "full", V0, T=1.0, dtau=1e-3,
                                    n_paths=200, seed=2, R=16.0)
    assert occupation_time(cut.actions(), 0.0, 0, cut.tau_R) == 0.0


def test_occupation_deterministic_decay_zero():
    spec = decayed_spec()
    cut = simulate_cutoff_effective(spec, "full", V0, T=0.5, dtau=1e-3,
                                    n_paths=4, seed=0, R=16.0)
    # actions decay from 0.5 to 0.5 e^{-1}; never below delta = 0.05
    assert occupation_time(cut.actions(), 0.05, 0, cut.tau_R) == 0.0
    assert occupation_time(cut.actions(), 0.05, 1, cut.tau_R) == 0.0


def test_occupation_strictly_decreasing_in_delta():
    spec = acceptance_system()
    cut = simulate_cutoff_effective(spec, "full", V0, T=4.0, dtau=1e-3,
                                    n_paths=1000, seed=3, R=16.0)
    acts = cut.actions()
    ests = [occupation_time(acts, d, 0, cut.tau_R) for d in (0.2, 0.1, 0.05, 0.025)]
    assert ests[0] > ests[1] > ests[2] > ests[3]
    assert ests[3] < 0.5 * ests[0]


# -- the coupled step against its slow form -------------------------------------

def three_mode_spec():
    n = 3
    return SystemSpec(
        freqs=Frequencies((1.0, np.sqrt(2.0), np.sqrt(3.0))),
        epsilon=0.5,
        p1=tuple(parse_field_expr(f"-v{k}", n) for k in (1, 2, 3)),
        psi=tuple(tuple(parse_field_expr("1" if k == l else "0", n) for l in range(n))
                  for k in range(n)),
        h=parse_field_expr("abs2(v1)*abs2(v2) + abs2(v2)*abs2(v3)", n),
        psi_kind="constant",
    )


def slow_coupled(spec, v0, T, dtau, delta, R, n_paths, seed):
    """``build_coupled`` for constant Psi with a step of its own: path-major
    Euler lines for each process, stops marked per process, e^{i theta}
    recomputed every step, entering paths handled one row at a time, rows
    reduced with numpy's ``sum``/``min`` and the next state stacked with
    ``np.concatenate``.  It shares only the driver (grid and noise) and the
    polynomial fields with ``build_coupled``."""
    n = spec.n
    M = int(round(T / dtau))
    full = averaging.averaged_field_polys(spec.drift_polys, n)
    modified = averaging.averaged_field_polys(spec.p1_polys, n)
    b = averaging.constant_psi_b(spec)
    stop_ref = np.zeros(n_paths, dtype=bool)
    stop_cpl = np.zeros(n_paths, dtype=bool)
    tau_R_ref = np.full(n_paths, M * dtau)
    tau_R_cpl = np.full(n_paths, M * dtau)
    in_delta = np.zeros(n_paths, dtype=bool)
    theta = np.zeros((n_paths, n))
    seg_start = np.zeros(n_paths, dtype=int)
    I_cpl = np.empty((n_paths, M + 1, n))
    I_cpl[:, 0] = actions_of(v0)
    schedules = [[] for _ in range(n_paths)]
    rotations = [[] for _ in range(n_paths)]
    overshoots = np.zeros(n_paths, dtype=int)

    def euler(drift, a, db, stop):
        nxt = a + Field(drift)(a) * dtau + db * b
        return np.where(stop[:, None], a + db, nxt)

    def mark(hit, stop, tau_R, t, sl):
        newly = hit & ~stop[sl]
        tau_R[sl][newly] = t
        stop[sl] |= newly

    def step(x, db, m, sl):
        # the driver's states and increments are mode-major: (k, paths)
        x, db = np.ascontiguousarray(x.T), db.T
        a_ref = euler(full, x[:, :n], db, stop_ref[sl])
        mark((a_ref.real**2 + a_ref.imag**2).sum(axis=1) >= R, stop_ref, tau_R_ref,
             (m + 1) * dtau, sl)
        I_ref = actions_of(a_ref)
        evolved = euler(modified, x[:, n:], db, stop_cpl[sl])
        d = in_delta[sl]
        a_cpl = np.where(d[:, None], np.exp(1j * theta[sl]) * a_ref, evolved)
        I_new = np.where(d[:, None], I_ref, actions_of(a_cpl))
        mark(2.0 * I_new.sum(axis=1) >= R, stop_cpl, tau_R_cpl, (m + 1) * dtau, sl)
        min_I = I_new.min(axis=1)
        down = ~d & (min_I <= delta)
        up = d & (min_I >= 2.0 * delta)
        for p in np.where(down)[0]:
            q = sl.start + p
            th = np.angle(a_cpl[p]) - np.angle(a_ref[p])
            rotations[q].append(RotationEvent(node=m + 1, theta=th.copy(),
                                              pre_jump=a_cpl[p].copy()))
            schedules[q].append(Segment(LAMBDA, int(seg_start[q]), m + 1))
            seg_start[q] = m + 1
            theta[q] = th
            a_cpl[p] = np.exp(1j * th) * a_ref[p]
            I_new[p] = I_ref[p]
            if I_ref[p].min() > 2.0 * delta:
                overshoots[q] += 1
        for q in sl.start + np.where(up)[0]:
            schedules[q].append(Segment(DELTA, int(seg_start[q]), m + 1))
            seg_start[q] = m + 1
        in_delta[sl] = (d | down) & ~up
        I_cpl[sl, m + 1] = I_new
        return np.ascontiguousarray(np.concatenate([a_ref, a_cpl], axis=1).T)

    states = _integrate(np.concatenate([v0, v0]), n, T, dtau, None, n_paths, seed,
                        STATE_STREAM, step, "coupled")
    for p in range(n_paths):
        if seg_start[p] < M:
            schedules[p].append(Segment(DELTA if in_delta[p] else LAMBDA, int(seg_start[p]), M))
    return dict(states=states.values, I_cpl=I_cpl, schedules=schedules, rotations=rotations,
                tau_R_ref=tau_R_ref, tau_R_cpl=tau_R_cpl, overshoots=int(overshoots.sum()))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() \
        == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("system, R", [("acceptance", 16.0), ("acceptance", 2.3),
                                       ("three_mode", 16.0)])
def test_coupled_step_matches_slow_form_bitwise(monkeypatch, system, R, chunks):
    # 256 paths in one chunk or in two (192 + 64)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 256 if chunks == 1 else 192)
    spec = acceptance_system() if system == "acceptance" else three_mode_spec()
    v0 = np.ones(spec.n, dtype=complex)
    args = (spec, v0, 0.5, 1e-3, 0.1, R, 256, 9)
    res = build_coupled(*args)
    slow = slow_coupled(*args)
    n = spec.n
    # states at T, actions at every node
    assert _same_bits(res.reference_states.values, slow["states"][:, -1:, :n])
    assert _same_bits(res.coupled_states.values, slow["states"][:, -1:, n:])
    assert _same_bits(res.reference_actions.values, actions_of(slow["states"][:, :, :n]))
    assert _same_bits(res.coupled_actions.values, slow["I_cpl"])
    assert res.schedules == slow["schedules"]
    assert _same_bits(res.tau_R_ref, slow["tau_R_ref"])
    assert _same_bits(res.tau_R_cpl, slow["tau_R_cpl"])
    assert res.overshoots == slow["overshoots"]
    entries = 0
    for fast_events, slow_events in zip(res.rotations, slow["rotations"]):
        assert [e.node for e in fast_events] == [e.node for e in slow_events]
        for e, f in zip(fast_events, slow_events):
            assert _same_bits(e.theta, f.theta) and _same_bits(e.pre_jump, f.pre_jump)
        entries += len(fast_events)
    assert entries > 20
    if R < 16.0:
        assert (res.tau_R_ref < 0.5).mean() > 0.5 and (res.tau_R_cpl < 0.5).mean() > 0.5
