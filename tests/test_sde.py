import numpy as np
import pytest

from stochavg import (
    NonFiniteError,
    NotPSDError,
    StepTooLargeError,
    acceptance_system,
    ito_action_consistency,
    parse_field_expr,
    simulate_action_sde,
    simulate_cutoff_effective,
    simulate_effective,
    simulate_perturbed,
)
from stochavg import averaging, sde
from stochavg.coupling import build_coupled
from stochavg.model import Frequencies, SystemSpec
from stochavg.poly import Field
from stochavg.sde import NoisePath, _seed_words, ito_refinement_study

V0_1 = np.array([1.0 + 0.0j])


def make_spec(n, p1, psi, h=None, psi_kind="constant", epsilon=0.2):
    return SystemSpec(
        freqs=Frequencies(tuple(float(k) for k in range(1, n + 1))),
        epsilon=epsilon,
        p1=tuple(parse_field_expr(t, n) for t in p1),
        psi=tuple(tuple(parse_field_expr(t, n) for t in row) for row in psi),
        h=parse_field_expr(h, n) if h else None,
        psi_kind=psi_kind,
    )


def ou_system_1d(epsilon=0.2):
    """Single-mode complex Ornstein-Uhlenbeck system: P = -v, Psi = 1."""
    return SystemSpec(
        freqs=Frequencies((1.0,)),
        epsilon=epsilon,
        p1=(parse_field_expr("-v1", 1),),
        psi=((parse_field_expr("1", 1),),),
        psi_kind="constant",
        m0=1.0,
    )


# -- noise streams -------------------------------------------------------------

def test_noise_reproducible_from_lineage():
    a = NoisePath(42, 3, 0, 0.01).complex_increments(100, 2)
    b = NoisePath(42, 3, 0, 0.01).complex_increments(100, 2)
    np.testing.assert_array_equal(a, b)
    c = NoisePath(42, 4, 0, 0.01).complex_increments(100, 2)
    assert not np.array_equal(a, c)


def test_noise_written_into_a_block_equals_the_scaled_draws():
    dtau = 0.01
    z = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(3, 0))) \
        .standard_normal((100, 4))
    want = np.sqrt(dtau) * (z[:, :2] + 1j * z[:, 2:])
    block = np.zeros((2, 100, 2), dtype=complex)
    got = NoisePath(42, 3, 0, dtau).complex_increments(100, 2, out=block[1])
    assert np.shares_memory(got, block)
    assert block[1].tobytes() == want.tobytes() and not block[0].any()
    assert NoisePath(42, 3, 0, dtau).complex_increments(100, 2).tobytes() == want.tobytes()
    real = np.empty((100, 4))
    NoisePath(42, 3, 0, dtau).real_increments(100, 4, out=real)
    assert real.tobytes() == (np.sqrt(dtau) * z).tobytes()
    assert NoisePath(42, 3, 0, dtau).real_increments(100, 4).tobytes() == real.tobytes()


@pytest.mark.parametrize("master_seed", [0, 7, 2**32 + 5, 2**64 + 3, 2**70 + 11,
                                         (3, 101, 2), (2024, 2**63 + 7), (2**40, 0, 2**33, 1, 9)])
@pytest.mark.parametrize("stream", [sde.STATE_STREAM, sde.ACTION_STREAM])
def test_seed_words_are_numpys_seed_sequence_words(master_seed, stream):
    # paths on both sides of a chunk boundary, and a single path
    for paths in (range(sde._CHUNK_PATHS - 3, sde._CHUNK_PATHS + 2), range(0, 1), range(77, 78)):
        got = _seed_words(master_seed, paths, stream)
        want = [np.random.SeedSequence(master_seed, spawn_key=(p, stream))
                .generate_state(4, np.uint64) for p in paths]
        assert got.dtype == np.uint64 and got.tobytes() == np.array(want).tobytes()


def test_noise_path_built_in_a_chunk_draws_as_one_built_alone():
    words = _seed_words((5, 202, 1), range(4090, 4100), 0)
    for j, p in enumerate(range(4090, 4100)):
        chunk = NoisePath((5, 202, 1), p, 0, 0.01, words[j])
        alone = NoisePath((5, 202, 1), p, 0, 0.01)
        for steps in (3, 256):
            assert chunk.complex_increments(steps, 2).tobytes() == \
                alone.complex_increments(steps, 2).tobytes()
    with pytest.raises(ValueError):
        NoisePath(-1, 0, 0, 0.01)


@pytest.mark.parametrize("draw, dtype", [("complex_increments", complex),
                                         ("real_increments", float)])
def test_consecutive_requests_continue_one_stream(draw, dtype):
    whole = getattr(NoisePath(42, 3, 0, 0.01), draw)(200, 2)
    fill = getattr(NoisePath(42, 3, 0, 0.01), draw)
    block = np.zeros((100, 3, 2), dtype=dtype)  # node-major: (steps, paths, width)
    parts = []
    for steps in (37, 63, 100):
        got = fill(steps, 2, out=block[:steps, 1])
        assert np.shares_memory(got, block)
        parts.append(block[:steps, 1].copy())
    assert not block[:, 0].any() and not block[:, 2].any()
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", range(1, 12))
def test_row_reduce_is_numpy_reduce_bitwise(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-8, 9, (500, n))
    # the helper reads mode-major states, (modes, paths), also stacked
    modes = np.ascontiguousarray(x.T)
    assert sde._row_reduce(np.add, modes).tobytes() == x.sum(axis=1).tobytes()
    assert sde._row_reduce(np.minimum, modes).tobytes() == x.min(axis=1).tobytes()
    stack = np.stack([modes, modes[:, ::-1]])
    want = np.stack([x.sum(axis=1), x[::-1].sum(axis=1)])
    assert sde._row_reduce(np.add, stack).tobytes() == want.tobytes()
    fold = x[:, 0]
    for j in range(1, n):
        fold = fold + x[:, j]
    # numpy sums 8 or more elements pairwise, so from 8 columns on the
    # helper reduces as numpy does rather than column by column
    assert np.array_equal(fold, x.sum(axis=1)) == (n <= 7)


def test_ensembles_are_views_of_node_major_records():
    spec = acceptance_system()
    ens = simulate_effective(spec, "full", np.array([1 + 0j, 1 + 0j]), T=0.1, dtau=1e-3,
                             n_paths=5, seed=0)
    assert ens.values.shape == (5, 101, 2) and not ens.values.flags.c_contiguous
    assert ens.values.transpose(1, 0, 2).flags.c_contiguous
    act = simulate_action_sde(spec, np.array([0.5, 1e-3]), T=0.1, dtau=1e-3, n_paths=5,
                              seed=0)
    assert act.values.transpose(1, 0, 2).flags.c_contiguous
    assert act.extras["clamp_counts"].shape == (5,) and act.extras["clamp_counts"].sum() > 0


def test_noise_variance_normalization():
    # E|dbeta|^2 = 2 dtau per complex increment
    dtau = 0.01
    z = NoisePath(0, 0, 0, dtau).complex_increments(200_000, 1)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2 * dtau, rel=0.02)


# -- perturbed system -----------------------------------------------------------

def test_perturbed_rejects_large_step():
    spec = ou_system_1d(epsilon=0.1)
    with pytest.raises(StepTooLargeError):
        simulate_perturbed(spec, V0_1, T=1.0, dtau=0.1, n_paths=2, seed=0)


def test_perturbed_pure_rotation_keeps_a_constant():
    spec = make_spec(1, ["0"], [["0"]])
    ens = simulate_perturbed(spec, V0_1, T=1.0, dtau=0.01, n_paths=3, seed=0)
    np.testing.assert_allclose(ens.a.values, 1.0 + 0.0j, atol=1e-12)
    # actions constant for every epsilon when P = 0, Psi = 0
    for eps in (1.0, 0.31, 0.05):
        spec2 = make_spec(1, ["0"], [["0"]], epsilon=eps)
        e2 = simulate_perturbed(spec2, V0_1, T=0.5, dtau=min(0.01, eps / 5), n_paths=2, seed=1)
        np.testing.assert_allclose(e2.actions().values, 0.5, atol=1e-12)


def test_perturbed_linear_decay():
    spec = make_spec(1, ["-v1"], [["0"]])
    ens = simulate_perturbed(spec, V0_1, T=1.0, dtau=1e-4, n_paths=1, seed=0)
    final = np.abs(ens.a.values[0, -1, 0])
    assert final == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_perturbed_action_mean_growth_under_noise():
    # P = 0, Psi = identity: E I(tau) = I(0) + tau, exactly in expectation
    spec = make_spec(1, ["0"], [["1"]])
    ens = simulate_perturbed(spec, V0_1, T=1.0, dtau=0.01, n_paths=4000, seed=12,
                             record_times=[1.0])
    I = ens.actions().at_time(1.0)[:, 0]
    se = I.std() / np.sqrt(I.size)
    assert abs(I.mean() - 1.5) <= 3 * se


def test_perturbed_modulus_identity():
    spec = acceptance_system(epsilon=0.2)
    ens = simulate_perturbed(spec, np.array([1 + 0j, 1 + 0j]), T=0.5, dtau=1e-3,
                             n_paths=8, seed=5)
    assert "a" not in vars(ens)  # the interaction representation is built on first use
    gap = np.abs(np.abs(ens.a.values) - np.abs(ens.v.values))
    assert gap.max() <= 4 * np.finfo(float).eps * np.abs(ens.v.values).max()
    # actions are read off v, so the two ensembles share actions exactly
    np.testing.assert_array_equal(ens.actions().values, ens.v.actions().values)


def _assert_chunk_invariant(monkeypatch, run):
    """``run()`` gives bitwise the same ensemble with its 64 paths in one
    chunk and in chunks of 8."""
    one = run()
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 8)
    starts = set()
    check = sde._check_finite

    def spy(x, lo, t, what):
        starts.add(lo)
        return check(x, lo, t, what)

    monkeypatch.setattr(sde, "_check_finite", spy)
    chunked = run()
    assert len(starts) == 8  # 64 paths in chunks of 8
    for a, b in zip(one, chunked):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_perturbed_seed_determinism_across_chunks(monkeypatch):
    spec = acceptance_system(epsilon=0.2)
    v0 = np.array([1 + 0j, 1 + 0j])
    _assert_chunk_invariant(monkeypatch, lambda: [simulate_perturbed(
        spec, v0, T=0.3, dtau=1e-3, n_paths=64, seed=9).v.values])


def _cross_psi_spec():
    # the cv1*v2 entry makes both A(a) and S(I) non-diagonal
    return make_spec(2, ["-v1", "-v2"], [["1", "0.5*v1"], ["0.5*cv1*v2", "1"]],
                     psi_kind="smooth")


def _smooth_run(system):
    spec = _cross_psi_spec()
    if system == "effective":
        return [simulate_effective(spec, "full", np.array([1 + 0j, 0.5j]), T=0.3, dtau=1e-3,
                                   n_paths=64, seed=9).values]
    ens = simulate_action_sde(spec, np.array([0.5, 0.1]), T=0.3, dtau=1e-3, n_paths=64,
                              seed=9)
    return [ens.values, ens.extras["clamp_counts"]]


@pytest.mark.parametrize("system", ["effective", "action"])
def test_smooth_psi_seed_determinism_across_chunks(monkeypatch, system):
    _assert_chunk_invariant(monkeypatch, lambda: _smooth_run(system))


# Psi whose averaged diffusions A(a) and S(I) have only zero polynomials off
# the diagonal: B and K take per-mode roots of the diagonal entries
DIAGONAL_PSI = {
    2: ([["1", "0.5*v1"], ["0", "1"]], "abs2(v1)*abs2(v2)", [1 + 0.5j, 0.5 - 1j], [0.5, 1e-3]),
    3: ([["1", "0.5*v1", "0"], ["0", "1", "0.5*v3"], ["0", "0", "1"]],
        "abs2(v1)*abs2(v3)", [1 + 0.5j, 0.5 - 1j, 0.3j], [0.5, 1e-3, 0.2]),
}


def _diagonal_psi_spec(n):
    psi, h, _, _ = DIAGONAL_PSI[n]
    return make_spec(n, [f"-v{k}" for k in range(1, n + 1)], psi, h=h, psi_kind="smooth")


def _diagonal_run(n, system, n_paths=64):
    spec, (_, _, v0, I0) = _diagonal_psi_spec(n), DIAGONAL_PSI[n]
    kw = dict(T=0.3, dtau=1e-3, n_paths=n_paths, seed=9)
    if system == "action":
        ens = simulate_action_sde(spec, np.array(I0), **kw)
        return [ens.values, ens.extras["clamp_counts"]]
    return [simulate_effective(spec, system, np.array(v0), **kw).values]


def _count_matrix_roots(monkeypatch):
    calls = []
    root = averaging.principal_sqrt_batched
    monkeypatch.setattr(averaging, "principal_sqrt_batched",
                        lambda A: calls.append(A.shape) or root(A))
    return calls


@pytest.mark.parametrize("system", ["full", "modified", "action"])
@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_dispersion_matches_the_matrix_root(monkeypatch, n, system):
    # the per-mode roots against the batched eigh root of the full matrix
    calls = _count_matrix_roots(monkeypatch)
    fast = _diagonal_run(n, system)
    assert not calls
    monkeypatch.setattr(averaging, "diagonal_entries", lambda matrix: None)
    slow = _diagonal_run(n, system)
    assert len(calls) == 300 and calls[0] == (64, n, n)
    np.testing.assert_allclose(fast[0], slow[0], rtol=0, atol=1e-12)
    if system == "action":
        assert fast[1].sum() > 0
        np.testing.assert_array_equal(fast[1], slow[1])


def test_diagonal_dispersion_in_the_coupled_step_matches_the_matrix_root(monkeypatch):
    # the coupled step runs its reference and coupled halves through one rule;
    # I_2(0) = 0.125 starts near delta, so Delta-segments occur
    def run():
        return build_coupled(_diagonal_psi_spec(2), np.array([1 + 0.5j, 0.5j]), T=0.3,
                             dtau=1e-3, delta=0.1, R=16.0, n_paths=64, seed=9)

    calls = _count_matrix_roots(monkeypatch)
    fast = run()
    assert not calls
    monkeypatch.setattr(averaging, "diagonal_entries", lambda matrix: None)
    slow = run()
    assert len(calls) == 600  # two halves a step
    for name in ("reference_actions", "coupled_actions", "reference_states", "coupled_states"):
        np.testing.assert_allclose(getattr(fast, name).values, getattr(slow, name).values,
                                   rtol=0, atol=1e-12)
    assert fast.segment_count() > 64 and fast.schedules == slow.schedules

    def nodes(res):
        return [[event.node for event in path] for path in res.rotations]

    assert sum(map(len, nodes(fast))) > 0 and nodes(fast) == nodes(slow)


def _closed_form_run(spec, system, x0, T, dtau, n_paths, seed):
    """The constant-Psi closed forms, with a step of their own on ``sde._integrate``:
    B dbeta = b dbeta in the (modified) effective equation and K(I) dW =
    b sqrt(2 I) dW in the action equation, b_k = sqrt(sum_l |Psi_kl|^2)."""
    psi = np.array([[p.constant_value() for p in row] for row in spec.psi_polys])
    b = np.sqrt((np.abs(psi) ** 2).sum(axis=1))[:, None]
    if system == "action":
        F = Field(averaging.action_drift_polys(spec))

        def step(I, dW, m, sl):
            I = I + sde._rows(F, I) * dtau + b * np.sqrt(2.0 * I) * dW
            return np.where((I < 0) & (I > -np.inf), 0.0, I)

        stream = sde.ACTION_STREAM
    else:
        drift = Field(sde._effective_drift_polys(spec, system))

        def step(a, db, m, sl):
            return a + sde._rows(drift, a) * dtau + db * b

        stream = sde.STATE_STREAM
    return sde._integrate(x0, spec.n, T, dtau, None, n_paths, seed, stream, step).values


CONSTANT_PSI = {
    "identity": lambda: acceptance_system(epsilon=0.2),
    "non_unit": lambda: make_spec(2, ["-v1 + 0.3*v2", "-0.5*v2"],
                                  [["1.5", "0.7"], ["0.2", "0.3"]], h="abs2(v1)*abs2(v2)"),
}


@pytest.mark.parametrize("system", ["full", "modified", "action"])
@pytest.mark.parametrize("psi", sorted(CONSTANT_PSI))
def test_constant_dispersion_matches_the_closed_form(psi, system):
    # identity Psi roots 1 and 2 I exactly; b_k != 1 takes sqrt(b^2 2 I)
    # where the closed form takes b sqrt(2 I), and may move the last bits
    spec = CONSTANT_PSI[psi]()
    x0 = np.array([0.5, 1e-3]) if system == "action" else np.array([1 + 0.5j, 0.5 - 1j])
    kw = dict(T=0.3, dtau=1e-3, n_paths=64, seed=9)
    if system == "action":
        ens = simulate_action_sde(spec, x0, **kw)
        assert ens.extras["clamp_counts"].sum() > 0
        got = ens.values
    else:
        got = simulate_effective(spec, system, x0, **kw).values
    want = _closed_form_run(spec, system, x0, **kw)
    if psi == "identity":
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("system", ["full", "action"])
def test_diagonal_dispersion_seed_determinism_across_chunks(monkeypatch, system):
    _assert_chunk_invariant(monkeypatch, lambda: _diagonal_run(2, system))


@pytest.mark.parametrize("system", ["effective", "action"])
def test_off_diagonal_dispersion_takes_the_matrix_root(monkeypatch, system):
    calls = _count_matrix_roots(monkeypatch)
    _smooth_run(system)
    assert len(calls) == 300 and calls[0] == (64, 2, 2)


@pytest.mark.parametrize("system", ["full", "action"])
def test_diagonal_dispersion_not_psd_as_the_matrix_root(monkeypatch, system):
    # A_11 = 1 - |a1|^2 and S_11 = 1 - 2 I_1 turn negative once a path's
    # mode 1, which grows, leaves the unit disc; both roots name the same
    # path and time
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 3)
    n, spec = 2, make_spec(2, ["0.5*v1", "-v2"], [["1", "0.5*v1"], ["0", "1"]],
                           psi_kind="smooth")
    entries = (parse_field_expr("1 - abs2(v1)", n), parse_field_expr("0", n),
               parse_field_expr("1", n))
    if system == "full":
        monkeypatch.setattr(averaging, "averaged_diffusion_polys", lambda psi: (
            (entries[0], entries[1]), (entries[1], entries[2])))
    else:
        S = [averaging.ActionPolynomial.from_resonant_poly(p) for p in entries]
        monkeypatch.setattr(averaging, "action_diffusion_polys", lambda spec: (
            (S[0], S[1]), (S[1], S[2])))

    def failure():
        with pytest.raises(NotPSDError) as err:
            if system == "full":
                simulate_effective(spec, "full", np.array([0.95 + 0j, 0j]), T=1.0, dtau=1e-3,
                                   n_paths=8, seed=5)
            else:
                simulate_action_sde(spec, np.array([0.45, 0.5]), T=1.0, dtau=1e-3, n_paths=8,
                                    seed=5)
        return err.value

    fast = failure()
    monkeypatch.setattr(averaging, "diagonal_entries", lambda matrix: None)
    slow = failure()
    assert fast.path_index == slow.path_index
    assert fast.time == slow.time > 0
    assert fast.min_eigenvalue == pytest.approx(slow.min_eigenvalue, rel=1e-9)
    assert fast.min_eigenvalue < -averaging.FAIL_TOL
    assert str(fast) == str(slow)
    assert f"{system} path {fast.path_index}" in str(fast)


def test_not_psd_inside_integrator_names_path_and_time(monkeypatch):
    # chunks of 3 paths: path 5 is row 2 of the second chunk
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 3)

    def step(x, db, m, sl):
        # mode-major states and increments: (modes, paths)
        A = np.broadcast_to(np.eye(2), (x.shape[1], 2, 2)).copy()
        if m == 4 and sl.start <= 5 < sl.stop:
            A[5 - sl.start] = np.diag([1.0, -0.25])
        return x + np.einsum("pkl,pl->pk", averaging.principal_sqrt_batched(A), db.T).T

    with pytest.raises(NotPSDError) as err:
        sde._integrate(np.zeros(2, dtype=complex), 2, T=0.01, dtau=1e-3, record_times=None,
                       n_paths=8, seed=0, stream=sde.STATE_STREAM, step=step, what="probe")
    assert err.value.path_index == 5
    assert err.value.time == pytest.approx(4e-3)
    assert err.value.min_eigenvalue == pytest.approx(-0.25)
    assert "probe path 5" in str(err.value) and "tau=0.004" in str(err.value)


@pytest.mark.parametrize("error", [NotPSDError, NonFiniteError])
def test_errors_at_the_first_step_of_a_block_name_path_and_time(monkeypatch, error):
    # blocks of 7 steps: step 7 is the first of the second block; path 5 is
    # row 2 of the second chunk of 3
    monkeypatch.setattr(sde, "_BLOCK_STEPS", 7)
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 3)

    def step(x, db, m, sl):
        bad = m == 7 and sl.start <= 5 < sl.stop
        A = np.broadcast_to(np.eye(2), (x.shape[1], 2, 2)).copy()
        if bad and error is NotPSDError:
            A[5 - sl.start] = np.diag([1.0, -0.25])
        x = x + np.einsum("pkl,pl->pk", averaging.principal_sqrt_batched(A), db.T).T
        if bad and error is NonFiniteError:
            x[1, 5 - sl.start] = np.inf
        return np.ascontiguousarray(x)

    with pytest.raises(error) as err:
        sde._integrate(np.zeros(2, dtype=complex), 2, T=0.02, dtau=1e-3, record_times=None,
                       n_paths=8, seed=0, stream=sde.STATE_STREAM, step=step, what="probe")
    # a bad dispersion is dated by the state that gave it, a non-finite
    # state by its own node
    t = 7e-3 if error is NotPSDError else 8e-3
    assert err.value.path_index == 5
    assert err.value.time == pytest.approx(t)
    assert "probe path 5" in str(err.value) and f"tau={t:g}" in str(err.value)


def test_actions_match_actions_of_bitwise_in_the_same_layout():
    # 601 nodes: two blocks of 256 nodes and one of 89
    spec = acceptance_system(epsilon=0.2)
    v0 = np.array([1 + 0j, 0.5j])
    kw = dict(T=0.6, dtau=1e-3, n_paths=30, seed=4)
    pert = simulate_perturbed(spec, v0, **kw)
    for ens in (simulate_effective(spec, "full", v0, **kw), pert.v, pert.a):
        got = ens.actions().values
        want = averaging.actions_of(ens.values)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def _block_run(kind):
    """Arrays of one small run of ``kind`` that records nodes 3, 9, 50 and
    100 of its 100 steps, none of them the last node of a block of 7."""
    spec = acceptance_system(epsilon=0.2)
    v0 = np.array([1 + 0j, 0.5j])
    rec = [0.0, 0.003, 0.009, 0.05, 0.1]
    kw = dict(T=0.1, dtau=1e-3, n_paths=20, seed=11)
    if kind == "perturbed":
        return [simulate_perturbed(spec, v0, record_times=rec, **kw).v.values]
    if kind == "effective":
        return [simulate_effective(_cross_psi_spec(), "full", v0, record_times=rec,
                                   **kw).values]
    if kind == "cutoff":
        cut = simulate_cutoff_effective(spec, "modified", v0, R=1.35, record_times=rec, **kw)
        assert 0 < cut.paths.extras["stopped"].sum() < 20
        return [cut.paths.values, cut.tau_R, cut.paths.extras["stopped"]]
    if kind == "action":
        ens = simulate_action_sde(_cross_psi_spec(), np.array([0.5, 1e-3]), record_times=rec,
                                  **kw)
        assert ens.extras["clamp_counts"].sum() > 0
        return [ens.values, ens.extras["clamp_counts"]]
    res = build_coupled(spec, v0, delta=0.1, R=16.0, **kw)
    assert sum(len(r) for r in res.rotations) > 0
    return [res.reference_states.values, res.coupled_states.values,
            res.reference_actions.values, res.coupled_actions.values, res.tau_R_ref,
            res.tau_R_cpl]


@pytest.mark.parametrize("chunks", [1, 2])
@pytest.mark.parametrize("kind", ["perturbed", "effective", "cutoff", "action", "coupled"])
def test_noise_blocks_leave_ensembles_bitwise_unchanged(monkeypatch, kind, chunks):
    # 20 paths in one chunk or in two (16 + 4), stepped through blocks of 7
    # steps and then through one block that holds all 100 steps
    monkeypatch.setattr(sde, "_CHUNK_PATHS", 20 if chunks == 1 else 16)
    monkeypatch.setattr(sde, "_BLOCK_STEPS", 7)
    blocks = _block_run(kind)
    monkeypatch.setattr(sde, "_BLOCK_STEPS", 100)
    whole = _block_run(kind)
    for a, b in zip(blocks, whole):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_noise_block_does_not_grow_with_the_horizon(monkeypatch):
    shapes = []
    make = sde._noise_block

    def spy(shape, dtype):
        shapes.append(shape)
        return make(shape, dtype)

    monkeypatch.setattr(sde, "_noise_block", spy)
    spec = acceptance_system()
    for T in (0.3, 3.0):
        simulate_effective(spec, "full", np.array([1 + 0j, 1 + 0j]), T=T, dtau=1e-3,
                           n_paths=50, seed=0, record_times=[T])
    assert shapes == [(256, 50, 2)] * 2


def test_perturbed_nonfinite_reports_path_index():
    # strongly repulsive cubic drift blows up quickly
    spec = make_spec(1, ["abs2(v1)*v1*100", "0"][:1], [["0"]])
    with pytest.raises(NonFiniteError) as err:
        simulate_perturbed(spec, np.array([10.0 + 0j]), T=1.0, dtau=0.01,
                           n_paths=2, seed=0)
    assert err.value.path_index is not None


# -- effective equation -----------------------------------------------------------

def test_effective_deterministic_decay():
    spec = make_spec(1, ["-v1"], [["0"]])
    ens = simulate_effective(spec, "full", V0_1, T=1.0, dtau=1e-4, n_paths=1, seed=0)
    assert abs(ens.values[0, -1, 0]) == pytest.approx(np.exp(-1.0), abs=2e-4)


def test_effective_ou_stationary_action_mean():
    spec = ou_system_1d()
    ens = simulate_effective(spec, "full", V0_1, T=10.0, dtau=1e-3, n_paths=4000,
                             seed=7, record_times=[10.0])
    I = ens.actions().at_time(10.0)[:, 0]
    se = I.std() / np.sqrt(I.size)
    assert abs(I.mean() - 0.5) <= 3 * se


def test_effective_full_vs_modified_identical_when_no_hamiltonian():
    spec = make_spec(2, ["-v1", "-v2"], [["1", "0"], ["0", "1"]])
    a = simulate_effective(spec, "full", np.array([1 + 0j, 1j]), T=0.5, dtau=1e-3,
                           n_paths=16, seed=3)
    b = simulate_effective(spec, "modified", np.array([1 + 0j, 1j]), T=0.5, dtau=1e-3,
                           n_paths=16, seed=3)
    np.testing.assert_array_equal(a.values, b.values)


def test_effective_state_dependent_dispersion():
    # Psi(v) = [[1, v1],[0,1]], P = -v: A(a) = diag(1 + |a1|^2, 1), so the
    # averaged noise feeds mode 1 at exactly the dissipation rate:
    # dE|a1|^2 = 2 dtau  ->  E I_1(tau) = I_1(0) + tau.  Mode 2 is a plain
    # OU mode started at its stationary mean, E I_2 = 1/2 throughout.
    spec = make_spec(2, ["-v1", "-v2"], [["1", "v1"], ["0", "1"]],
                     psi_kind="smooth")
    v0 = np.array([1.0 + 0j, 1.0 + 0j])
    ens = simulate_effective(spec, "full", v0, T=1.0, dtau=1e-3, n_paths=3000,
                             seed=21, record_times=[1.0])
    I = ens.actions().at_time(1.0)
    se = I.std(axis=0) / np.sqrt(I.shape[0])
    assert abs(I[:, 0].mean() - 1.5) <= 3 * se[0] + 2e-3
    assert abs(I[:, 1].mean() - 0.5) <= 3 * se[1] + 2e-3


def test_action_sde_state_dependent_dispersion():
    # same system through the action equation: F = (1, 1 - 2 I_2),
    # S = diag(2 I_1 (1 + 2 I_1), 2 I_2); E I_1(tau) = I_1(0) + tau and
    # E I_2 = 1/2 throughout
    spec = make_spec(2, ["-v1", "-v2"], [["1", "v1"], ["0", "1"]],
                     psi_kind="smooth")
    ens = simulate_action_sde(spec, np.array([0.5, 0.5]), T=1.0, dtau=1e-3,
                              n_paths=3000, seed=22, record_times=[1.0])
    I = ens.at_time(1.0)
    se = I.std(axis=0) / np.sqrt(I.shape[0])
    assert abs(I[:, 0].mean() - 1.5) <= 3 * se[0] + 2e-3
    assert abs(I[:, 1].mean() - 0.5) <= 3 * se[1] + 2e-3


# -- action equation ---------------------------------------------------------------

def test_action_sde_ou_stationary_mean():
    spec = ou_system_1d()
    ens = simulate_action_sde(spec, np.array([1.0]), T=10.0, dtau=1e-3, n_paths=4000,
                              seed=11, record_times=[10.0])
    I = ens.at_time(10.0)[:, 0]
    se = I.std() / np.sqrt(I.size)
    assert abs(I.mean() - 0.5) <= 3 * se


def test_action_sde_deterministic_decay():
    spec = make_spec(1, ["-v1"], [["0"]])
    ens = simulate_action_sde(spec, np.array([1.0]), T=1.0, dtau=1e-4, n_paths=1, seed=0)
    assert ens.values[0, -1, 0] == pytest.approx(np.exp(-2.0), abs=5e-4)


def test_action_sde_zero_start_linear_growth():
    # I0 = 0, P = 0, constant Psi: E I_k(tau) = b_k^2 tau
    spec = make_spec(1, ["0"], [["1"]])
    ens = simulate_action_sde(spec, np.array([0.0]), T=1.0, dtau=1e-3, n_paths=4000,
                              seed=2, record_times=[1.0])
    I = ens.at_time(1.0)[:, 0]
    se = I.std() / np.sqrt(I.size)
    assert abs(I.mean() - 1.0) <= 3 * se
    assert (ens.values >= 0).all()
    assert ens.extras["clamp_counts"].sum() > 0  # boundary is actually visited


def test_action_sde_overflow_is_raised_not_clamped():
    # the step overflows to -inf; clamping it to 0 would censor the divergence
    spec = make_spec(1, ["-100*abs2(v1)*v1"], [["0"]])
    with pytest.raises(NonFiniteError) as info:
        simulate_action_sde(spec, np.array([1e160]), T=0.01, dtau=1e-3, n_paths=1, seed=0)
    assert info.value.path_index == 0
    assert info.value.time == 0.001


# -- pathwise action consistency -----------------------------------------------------

def test_ito_consistency_deterministic():
    # noise-free gap of the left-endpoint rule is sum_m I_m dtau^2
    # = dtau * integral 2 I^2 ~ 2.2e-5 at dtau = 1e-4; it scales like dtau
    spec = make_spec(1, ["-v1"], [["0"]])
    assert ito_action_consistency(spec, V0_1, T=1.0, dtau=1e-4, seed=0) <= 5e-5
    assert ito_action_consistency(spec, V0_1, T=1.0, dtau=1e-5, seed=0) <= 5e-6


def test_ito_consistency_diverging_path_raises():
    spec = make_spec(1, ["100*abs2(v1)*v1"], [["0"]], epsilon=1.0)
    with pytest.raises(NonFiniteError):
        ito_action_consistency(spec, np.array([10 + 0j]), T=1.0, dtau=0.01, seed=0)


def test_ito_consistency_strong_half_order():
    spec = acceptance_system(epsilon=0.2)
    v0 = np.array([1 + 0j, 1 + 0j])
    errs = ito_refinement_study(spec, v0, T=1.0, dtaus=[4e-3, 2e-3, 1e-3],
                                seeds=range(16))
    ratios = errs[:, :-1] / errs[:, 1:]
    med = np.median(ratios, axis=0)
    assert (med >= 1.2).all() and (med <= 1.7).all()


def test_ito_consistency_monotone_refinement():
    spec = acceptance_system(epsilon=0.2)
    v0 = np.array([1 + 0j, 1 + 0j])
    errs = ito_refinement_study(spec, v0, T=1.0, dtaus=[1e-2, 1e-3, 1e-4],
                                seeds=range(8))
    med = np.median(errs, axis=0)
    assert med[0] > med[1] > med[2]


def _ito_oracle(spec, v0, T, dtau, seed):
    """The per-step identity check that ``ito_action_consistency`` replaced:
    its own perturbed step on the driver, carrying the integrated action
    increments beside the path and the running sup of the gap."""
    sde._check_resolution(spec, dtau)
    v0 = np.asarray(v0, dtype=complex)
    rot = np.exp(-1j * spec.freqs.as_array() * dtau / spec.epsilon)[:, None]
    if all(p.is_constant() for row in spec.psi_polys for p in row):
        const_psi = np.array([[p.constant_value() for p in row] for row in spec.psi_polys])
        psi = lambda v: const_psi
    else:
        field = Field(spec.psi_polys)
        psi = lambda v: field(v.T)
    drift = Field(spec.drift_polys)
    I_int = averaging.actions_of(v0)[:, None]
    sup_err = np.zeros(1)

    def step(v, db, m, sl):
        pv = drift(v.T, np.empty_like(v).T).T
        P = psi(v)
        dv = sde._kick(P, db)
        I_int[:, sl] += ((v * np.conj(pv)).real * dtau + (v * np.conj(dv)).real
                         + np.atleast_2d((np.abs(P) ** 2).sum(axis=-1)).T * dtau)
        v = rot * (v + pv * dtau + dv)
        sup_err[sl] = np.maximum(sup_err[sl],
                                 np.abs(averaging.actions_of(v) - I_int[:, sl]).max(axis=0))
        return v

    sde._integrate(v0, spec.n1, T, dtau, (), 1, seed, sde.STATE_STREAM, step, what="ito")
    return float(sup_err[0])


_ITO_SYSTEMS = {
    "acceptance": (lambda: acceptance_system(epsilon=0.2), [1 + 0j, 1 + 0j], 0.0),
    "smooth_psi": (_cross_psi_spec, [1 + 0j, 0.5j], 0.0),
    # the vectorised Psi dbeta product may sum in another order than one
    # path's: its last bits may move
    "constant_psi_n1_3": (lambda: make_spec(2, ["-v1 + 0.3*v2", "-0.5*v2"],
                                            [["1", "0.5", "0"], ["0.25", "1", "-0.5"]]),
                          [1 + 0j, 0.5 - 0.5j], 1e-12),
}


@pytest.mark.parametrize("system", sorted(_ITO_SYSTEMS))
def test_ito_consistency_matches_the_per_step_oracle(system):
    make, v0, rtol = _ITO_SYSTEMS[system]
    spec = make()
    for dtau in (4e-3, 1e-3):
        for seed in range(6):
            got = ito_action_consistency(spec, np.array(v0), T=0.5, dtau=dtau, seed=seed)
            want = _ito_oracle(spec, np.array(v0), T=0.5, dtau=dtau, seed=seed)
            if rtol:
                assert got == pytest.approx(want, rel=rtol, abs=0)
            else:
                assert got == want, (dtau, seed)


# -- cutoff variant --------------------------------------------------------------------

def test_cutoff_never_triggering_matches_effective_bitwise():
    spec = ou_system_1d()
    plain = simulate_effective(spec, "full", V0_1, T=1.0, dtau=1e-3, n_paths=32, seed=4)
    cut = simulate_cutoff_effective(spec, "full", V0_1, T=1.0, dtau=1e-3, n_paths=32,
                                    seed=4, R=1e9)
    np.testing.assert_array_equal(plain.values, cut.paths.values)
    assert (cut.tau_R == plain.times[-1]).all()


def test_cutoff_requires_room_above_v0():
    spec = ou_system_1d()
    with pytest.raises(ValueError):
        simulate_cutoff_effective(spec, "full", V0_1, T=1.0, dtau=1e-3, n_paths=2,
                                  seed=0, R=0.5)


def test_cutoff_trivial_continuation_variance():
    # R barely above |v0|^2: stops almost immediately; post-stop increments
    # are plain complex Wiener steps with per-component variance 2 dtau
    spec = ou_system_1d()
    dtau = 1e-3
    cut = simulate_cutoff_effective(spec, "full", V0_1, T=0.5, dtau=dtau,
                                    n_paths=4000, seed=8, R=1.0 + 1e-6)
    assert np.median(cut.tau_R) <= 0.05
    vals = cut.paths.values[:, :, 0]
    times = cut.paths.times
    post = times[None, :-1] >= cut.tau_R[:, None]
    inc = np.diff(vals, axis=1)[post]
    assert inc.size > 100_000
    var = np.mean(np.abs(inc) ** 2)
    se = np.std(np.abs(inc) ** 2) / np.sqrt(inc.size)
    assert abs(var - 2 * dtau) <= 4 * se


def test_cutoff_deterministic_decay_never_triggers():
    spec = make_spec(1, ["-v1"], [["0"]])
    cut = simulate_cutoff_effective(spec, "full", V0_1, T=1.0, dtau=1e-3, n_paths=1,
                                    seed=0, R=4.0)
    assert cut.tau_R[0] == pytest.approx(1.0)
    assert abs(cut.paths.values[0, -1, 0]) == pytest.approx(np.exp(-1.0), abs=1e-3)


def test_negative_path_count_is_named_before_any_allocation():
    spec = acceptance_system(epsilon=0.2)
    v0 = np.array([1 + 0j, 1 + 0j])
    runs = [
        lambda: simulate_cutoff_effective(spec, "full", v0, 0.1, 1e-3, -3, 0, R=16.0),
        lambda: simulate_action_sde(spec, np.array([0.5, 0.5]), 0.1, 1e-3, -3, 0),
        lambda: build_coupled(spec, v0, 0.1, 1e-3, 0.1, 16.0, -3, 0),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            run()
