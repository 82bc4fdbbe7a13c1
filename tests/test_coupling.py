import numpy as np
import pytest

from stochavg import acceptance_system, bl_distance_nd, law_from_ensemble, parse_field_expr, sde
from stochavg.coupling import DELTA, LAMBDA, build_coupled, occupation_time
from stochavg.model import Frequencies, SystemSpec
from stochavg.sde import simulate_cutoff_effective

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
    checked = 0
    for p, events in enumerate(res.rotations):
        for ev in events:
            rotated = np.exp(1j * ev.theta) * res.reference_states.values[p, ev.node]
            stored = res.coupled_states.values[p, ev.node]
            # the stored entry node IS the rotated copy: moduli match the
            # reference exactly through the copied action row
            np.testing.assert_array_equal(
                res.coupled_actions.values[p, ev.node],
                res.reference_actions.values[p, ev.node])
            # and the rotation reproduces the incoming phases
            phase_gap = np.angle(rotated * np.conj(ev.pre_jump))
            mask = np.abs(ev.pre_jump) > 1e-12
            assert np.abs(phase_gap[mask]).max() <= 1e-9
            np.testing.assert_allclose(stored, rotated, rtol=1e-12, atol=1e-15)
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


def test_coupled_determinism_across_threads():
    spec = acceptance_system()
    r1 = build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.1, R=16.0,
                       n_paths=130, seed=5)
    r2 = build_coupled(spec, V0, T=0.5, dtau=1e-3, delta=0.1, R=16.0,
                       n_paths=130, seed=5, threads=4)
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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("R", [16.0, 2.3])
def test_reference_half_is_the_cutoff_run_bitwise(monkeypatch, R, threads):
    # couple-demo reads occupation times off the reference half instead of
    # re-running the cut-off effective equation; small chunks put the
    # paths on several threads
    monkeypatch.setattr(sde, "_CHUNK_BYTES", 1 << 20)
    spec = acceptance_system()
    res = build_coupled(spec, V0, T=1.0, dtau=1e-3, delta=0.1, R=R, n_paths=200,
                        seed=(4, 1), threads=threads)
    cut = simulate_cutoff_effective(spec, "full", V0, T=1.0, dtau=1e-3, n_paths=200,
                                    seed=(4, 1), R=R, threads=threads)
    np.testing.assert_array_equal(res.reference_states.values, cut.paths.values)
    np.testing.assert_array_equal(res.reference_actions.values, cut.actions().values)
    np.testing.assert_array_equal(res.tau_R_ref, cut.tau_R)
    stopped = cut.paths.extras["stopped"].mean()
    assert stopped > 0.9 if R < 16.0 else stopped < 0.1


# -- occupation time ---------------------------------------------------------------

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
