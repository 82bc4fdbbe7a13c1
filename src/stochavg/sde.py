"""Path simulation for the perturbed system and its averaged companions.

Five systems are integrated on a shared slow-time grid:

* the perturbed system, by a splitting scheme whose fast rotation factor
  e^{-i Lambda dtau / eps} is applied exactly after an explicit step of the
  perturbation (plain Euler on the stiff rotation is unstable at usable
  steps);
* its interaction representation a_k = e^{i tau lambda_k / eps} v_k, recorded
  alongside (the rotation preserves moduli, so actions are read off v);
* the effective equation da = <<P>> dtau + B(a) dbeta and the modified
  effective equation with <<P1>> in place of <<P>> (Euler-Maruyama);
* the averaged action equation dI = F(I) dtau + K(I) dW, clamped at the
  boundary of the positive cone;
* cut-off variants that switch to the trivial system da_k = dbeta_k after
  the first grid node with |a|^2 >= R.

Each path owns an independent noise stream derived from
(master_seed, path_index, stream_id), so ensembles are bit-reproducible
regardless of chunking or thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import averaging
from .averaging import actions_of
from .config import spec_hash
from .errors import NonFiniteError, StepTooLargeError
from .model import SystemSpec, validate_state

STATE_STREAM = 0
ACTION_STREAM = 1

# noise pregeneration memory budget per chunk (bytes of complex increments)
_CHUNK_BYTES = 128 << 20
_MIN_CHUNK = 64


class NoisePath:
    """Noise increments of one path, reproducible from the seed lineage alone.

    Complex increments have independent real and imaginary parts of variance
    dtau each, so E|dbeta_l|^2 = 2 dtau.  Draw order is fixed: one
    standard-normal block of shape (steps, 2*n1) per request, first half real
    parts, second half imaginary parts.
    """

    def __init__(self, master_seed, path_index, stream_id, dtau):
        self.master_seed = master_seed
        self.path_index = path_index
        self.stream_id = stream_id
        self.dtau = float(dtau)
        seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(path_index, stream_id))
        self._rng = np.random.default_rng(seq)

    def complex_increments(self, steps, n1):
        z = self._rng.standard_normal((steps, 2 * n1))
        scale = np.sqrt(self.dtau)
        return scale * (z[:, :n1] + 1j * z[:, n1:])

    def real_increments(self, steps, n):
        z = self._rng.standard_normal((steps, n))
        return np.sqrt(self.dtau) * z


@dataclass
class PathEnsemble:
    """Sample paths on a shared recorded grid.

    ``values`` has shape (n_paths, len(times), n); complex for state
    ensembles, float for action ensembles.  ``meta`` carries everything needed
    to regenerate the ensemble bit-exactly in single-threaded reference mode.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    meta: dict
    extras: dict = field(default_factory=dict)

    @property
    def n_paths(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[2]

    def index_of_time(self, t):
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise ValueError(f"time {t} not on the recorded grid")
        return i

    def at_time(self, t):
        return self.values[:, self.index_of_time(t), :]

    def actions(self):
        if self.kind == "action":
            return self
        return PathEnsemble(
            times=self.times,
            values=actions_of(self.values),
            kind="action",
            meta={**self.meta, "derived": "actions"},
            extras=dict(self.extras),
        )


@dataclass
class PerturbedEnsemble:
    """Paths of the perturbed system: v-paths plus interaction representation.

    The a-values differ from v only by the deterministic unit rotation
    e^{i tau Lambda / eps}; actions are computed from v, which makes the
    modulus identity |a_k| = |v_k| hold by construction.
    """

    v: PathEnsemble
    a: PathEnsemble

    def actions(self):
        return self.v.actions()


@dataclass
class CutoffEnsemble:
    paths: PathEnsemble
    tau_R: np.ndarray
    R: float

    def actions(self):
        return self.paths.actions()


def _grid(T, dtau):
    if dtau <= 0 or T <= 0:
        raise ValueError("T and dtau must be positive")
    M = int(round(T / dtau))
    if M < 1:
        raise ValueError("T must cover at least one step")
    return M


def _record_indices(M, dtau, record_times):
    if record_times is None:
        return np.arange(M + 1)
    idx = []
    for t in record_times:
        i = int(round(t / dtau))
        if i < 0 or i > M or abs(i * dtau - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise ValueError(f"requested time {t} is not a grid node (dtau={dtau})")
        idx.append(i)
    return np.unique(np.asarray(idx, dtype=int))


def _chunks(n_paths, M, width):
    size = max(_MIN_CHUNK, int(_CHUNK_BYTES / max(1, M * width * 16)))
    size = min(size, n_paths)
    return [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


def _run_chunks(chunks, worker, threads):
    if threads <= 1 or len(chunks) <= 1:
        for c in chunks:
            worker(c)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, chunks))


def _check_finite(a, lo, times, m, what):
    finite = np.isfinite(a.view(np.float64) if np.iscomplexobj(a) else a)
    finite = finite.reshape(a.shape[0], -1).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteError(
            f"{what} path {lo + bad} became non-finite at tau={times[m]:.6g}",
            path_index=lo + bad,
            time=float(times[m]),
        )


def _quiet_range(M):
    """Step iterator with overflow warnings silenced: non-finite states are
    detected and raised as NonFiniteError, the warnings are just noise."""
    with np.errstate(over="ignore", invalid="ignore"):
        yield from range(M)


# ---------------------------------------------------------------------------
# perturbed system
# ---------------------------------------------------------------------------


def simulate_perturbed(spec: SystemSpec, v0, T, dtau, n_paths, seed,
                       record_times=None, threads=1) -> PerturbedEnsemble:
    """Integrate the perturbed system and its interaction representation.

    One step applies the perturbation explicitly and the fast rotation
    exactly: v <- e^{-i Lambda dtau/eps} (v + P(v) dtau + Psi(v) dbeta).
    The guard dtau <= eps/5 keeps several steps per fast period so that the
    averaged behaviour can emerge.
    """
    if dtau > spec.epsilon / 5 + 1e-15:
        raise StepTooLargeError(
            f"dtau={dtau} exceeds epsilon/5={spec.epsilon / 5:.6g}"
        )
    v0 = validate_state(v0, spec.n, "v0")
    M = _grid(T, dtau)
    rec = _record_indices(M, dtau, record_times)
    times = rec * dtau
    lam = spec.freqs.as_array()
    rot = np.exp(-1j * lam * dtau / spec.epsilon)
    drift = spec.drift_polys
    const_psi = spec.psi_constant_matrix().T if spec.psi_is_constant else None

    v_out = np.empty((n_paths, rec.size, spec.n), dtype=complex)
    a_out = np.empty_like(v_out)
    # interaction phases at recorded nodes
    phases = np.exp(1j * np.outer(times, lam) / spec.epsilon)

    def worker(bounds):
        lo, hi = bounds
        count = hi - lo
        noise = np.empty((count, M, spec.n1), dtype=complex)
        for p in range(count):
            noise[p] = NoisePath(seed, lo + p, STATE_STREAM, dtau).complex_increments(M, spec.n1)
        v = np.broadcast_to(v0, (count, spec.n)).copy()
        rec_pos = {int(i): j for j, i in enumerate(rec)}
        full_times = np.arange(M + 1) * dtau
        if 0 in rec_pos:
            v_out[lo:hi, rec_pos[0]] = v
        for m in _quiet_range(M):
            pv = np.stack([drift[k].evaluate(v) for k in range(spec.n)], axis=-1)
            if const_psi is not None:
                kick = noise[:, m, :] @ const_psi
            else:
                kick = np.einsum("pkl,pl->pk", spec.psi_at(v), noise[:, m, :])
            v = rot * (v + pv * dtau + kick)
            _check_finite(v, lo, full_times, m + 1, "perturbed")
            j = rec_pos.get(m + 1)
            if j is not None:
                v_out[lo:hi, j] = v

    _run_chunks(_chunks(n_paths, M, spec.n1), worker, threads)
    a_out[:] = phases[None, :, :] * v_out

    meta = {
        "system": spec_hash(spec),
        "integrator": "rotating-splitting-euler",
        "dtau": dtau,
        "T": M * dtau,
        "epsilon": spec.epsilon,
        "master_seed": seed,
        "n_paths": n_paths,
        "stream": STATE_STREAM,
        "record": None if record_times is None else list(map(float, record_times)),
    }
    v_ens = PathEnsemble(times=times, values=v_out, kind="state", meta={**meta, "variable": "v"})
    a_ens = PathEnsemble(times=times, values=a_out, kind="state", meta={**meta, "variable": "a"})
    return PerturbedEnsemble(v=v_ens, a=a_ens)


# ---------------------------------------------------------------------------
# effective / modified effective equations
# ---------------------------------------------------------------------------


def _effective_drift_polys(spec, variant):
    if variant not in ("full", "modified"):
        raise ValueError("variant must be 'full' or 'modified'")
    source = spec.drift_polys if variant == "full" else spec.p1_polys
    return averaging.averaged_field_polys(source, spec.n)


class _DispersionSolver:
    """Per-step averaged dispersion B(a) = sqrt(A(a)).

    Constant dispersion uses the closed form B = diag{b_k}; otherwise the
    symbolic averaged diffusion entries are evaluated per path and square
    roots taken batched.
    """

    def __init__(self, spec):
        self.constant = spec.psi_is_constant
        if self.constant:
            self.B = np.diag(averaging.constant_psi_b(spec)).astype(complex)
        else:
            self.entries = averaging.averaged_diffusion_polys(spec.psi_polys)
            self.n = spec.n

    def apply(self, a, dbeta):
        if self.constant:
            return dbeta @ self.B.T
        A = np.empty((a.shape[0], self.n, self.n), dtype=complex)
        for k in range(self.n):
            for l in range(self.n):
                A[:, k, l] = self.entries[k][l].evaluate(a)
        A = 0.5 * (A + np.conj(np.swapaxes(A, 1, 2)))
        B = averaging.principal_sqrt_batched(A)
        return np.einsum("pkl,pl->pk", B, dbeta)


def simulate_effective(spec: SystemSpec, variant, v0, T, dtau, n_paths, seed,
                       averaging_method="symbolic", record_times=None,
                       threads=1) -> PathEnsemble:
    """Euler-Maruyama for the (modified) effective equation.

    ``variant="full"`` uses the averaged full drift <<P1 + P2>>;
    ``variant="modified"`` averages only the non-hamiltonian part P1.
    """
    return _simulate_effective_impl(spec, variant, v0, T, dtau, n_paths, seed,
                                    averaging_method, record_times, threads,
                                    R=None)[0]


def simulate_cutoff_effective(spec: SystemSpec, variant, v0, T, dtau, n_paths,
                              seed, R, averaging_method="symbolic",
                              record_times=None, threads=1) -> CutoffEnsemble:
    """Effective dynamics switched to the trivial system da_k = dbeta_k from
    the first grid node with |a|^2 >= R onward.

    With the same seed and an R that never triggers, the output matches
    ``simulate_effective`` bit-exactly.
    """
    if not R > float(np.sum(np.abs(np.asarray(v0)) ** 2)):
        raise ValueError("R must exceed |v0|^2")
    ens, tau_R = _simulate_effective_impl(spec, variant, v0, T, dtau, n_paths,
                                          seed, averaging_method, record_times,
                                          threads, R=R)
    return CutoffEnsemble(paths=ens, tau_R=tau_R, R=float(R))


def _simulate_effective_impl(spec, variant, v0, T, dtau, n_paths, seed,
                             averaging_method, record_times, threads, R):
    if averaging_method not in ("symbolic",):
        # quadrature inside integrators is supported through the symbolic
        # entries being exact for polynomials; reject anything else loudly
        raise ValueError("integrators use the symbolic averaging backend")
    v0 = validate_state(v0, spec.n, "v0")
    M = _grid(T, dtau)
    rec = _record_indices(M, dtau, record_times)
    times = rec * dtau
    drift = _effective_drift_polys(spec, variant)
    disp = _DispersionSolver(spec)

    out = np.empty((n_paths, rec.size, spec.n), dtype=complex)
    tau_R = np.full(n_paths, M * dtau)
    stopped_any = np.zeros(n_paths, dtype=bool)

    def worker(bounds):
        lo, hi = bounds
        count = hi - lo
        noise = np.empty((count, M, spec.n), dtype=complex)
        for p in range(count):
            noise[p] = NoisePath(seed, lo + p, STATE_STREAM, dtau).complex_increments(M, spec.n)
        a = np.broadcast_to(v0, (count, spec.n)).copy()
        stopped = np.zeros(count, dtype=bool)
        rec_pos = {int(i): j for j, i in enumerate(rec)}
        full_times = np.arange(M + 1) * dtau
        if 0 in rec_pos:
            out[lo:hi, rec_pos[0]] = a
        for m in _quiet_range(M):
            dbeta = noise[:, m, :]
            pa = np.stack([drift[k].evaluate(a) for k in range(spec.n)], axis=-1)
            stepped = a + pa * dtau + disp.apply(a, dbeta)
            if R is not None and stopped.any():
                a = np.where(stopped[:, None], a + dbeta, stepped)
            else:
                a = stepped
            _check_finite(a, lo, full_times, m + 1, variant)
            if R is not None:
                norms = (a.real**2 + a.imag**2).sum(axis=1)
                newly = (~stopped) & (norms >= R)
                if newly.any():
                    tau_R[lo:hi][newly] = (m + 1) * dtau
                    stopped |= newly
            j = rec_pos.get(m + 1)
            if j is not None:
                out[lo:hi, j] = a
        stopped_any[lo:hi] = stopped

    _run_chunks(_chunks(n_paths, M, spec.n), worker, threads)
    meta = {
        "system": spec_hash(spec),
        "integrator": "euler-maruyama",
        "variant": variant,
        "dtau": dtau,
        "T": M * dtau,
        "master_seed": seed,
        "n_paths": n_paths,
        "stream": STATE_STREAM,
        "R": R,
        "record": None if record_times is None else list(map(float, record_times)),
    }
    ens = PathEnsemble(times=times, values=out, kind="state", meta=meta)
    ens.extras["stopped"] = stopped_any
    return ens, tau_R


# ---------------------------------------------------------------------------
# averaged action equation
# ---------------------------------------------------------------------------


def simulate_action_sde(spec: SystemSpec, I0, T, dtau, n_paths, seed,
                        averaging_method="symbolic", record_times=None,
                        threads=1) -> PathEnsemble:
    """Euler-Maruyama for dI = F(I) dtau + K(I) dW on the positive cone.

    Steps are clamped componentwise at zero (reflecting boundary to leading
    order); clamp events are counted per path in ``extras["clamp_counts"]``.
    """
    if averaging_method not in ("symbolic",):
        raise ValueError("integrators use the symbolic averaging backend")
    I0 = np.asarray(I0, dtype=float)
    if I0.shape != (spec.n,) or (I0 < 0).any():
        raise ValueError("I0 must be a nonnegative action vector")
    M = _grid(T, dtau)
    rec = _record_indices(M, dtau, record_times)
    times = rec * dtau
    F = averaging.action_drift_polys(spec)
    const = spec.psi_is_constant
    if const:
        b = averaging.constant_psi_b(spec)
    else:
        S_entries = averaging.action_diffusion_polys(spec)

    out = np.empty((n_paths, rec.size, spec.n), dtype=float)
    clamp_counts = np.zeros(n_paths, dtype=int)

    def worker(bounds):
        lo, hi = bounds
        count = hi - lo
        noise = np.empty((count, M, spec.n))
        for p in range(count):
            noise[p] = NoisePath(seed, lo + p, ACTION_STREAM, dtau).real_increments(M, spec.n)
        I = np.broadcast_to(I0, (count, spec.n)).copy()
        clamps = np.zeros(count, dtype=int)
        rec_pos = {int(i): j for j, i in enumerate(rec)}
        full_times = np.arange(M + 1) * dtau
        if 0 in rec_pos:
            out[lo:hi, rec_pos[0]] = I
        for m in _quiet_range(M):
            dW = noise[:, m, :]
            FI = np.stack([F[k].evaluate(I) for k in range(spec.n)], axis=-1)
            if const:
                kick = b * np.sqrt(2.0 * I) * dW
            else:
                S = np.empty((count, spec.n, spec.n))
                for k in range(spec.n):
                    for j in range(spec.n):
                        S[:, k, j] = S_entries[k][j].evaluate(I)
                S = 0.5 * (S + np.swapaxes(S, 1, 2))
                K = averaging.principal_sqrt_batched(S)
                kick = np.einsum("pkj,pj->pk", K, dW)
            I = I + FI * dtau + kick
            neg = I < 0
            clamps += neg.sum(axis=1)
            I = np.where(neg, 0.0, I)
            _check_finite(I, lo, full_times, m + 1, "action")
            j = rec_pos.get(m + 1)
            if j is not None:
                out[lo:hi, j] = I
        clamp_counts[lo:hi] = clamps

    _run_chunks(_chunks(n_paths, M, spec.n), worker, threads)
    meta = {
        "system": spec_hash(spec),
        "integrator": "euler-maruyama-clamped",
        "dtau": dtau,
        "T": M * dtau,
        "master_seed": seed,
        "n_paths": n_paths,
        "stream": ACTION_STREAM,
        "record": None if record_times is None else list(map(float, record_times)),
    }
    ens = PathEnsemble(times=times, values=out, kind="action", meta=meta)
    ens.extras["clamp_counts"] = clamp_counts
    return ens


# ---------------------------------------------------------------------------
# pathwise action-identity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItoReport:
    sup_error: float
    dtau: float
    T: float
    seed: int


def ito_action_consistency(spec: SystemSpec, v0, T, dtau, seed) -> ItoReport:
    """Compare actions of one simulated path against the integrated action
    increments dI_k = v_k . P_k dtau + v_k . (sum_l Psi_kl dbeta_l)
    + sum_l |Psi_kl|^2 dtau, driven by the same noise.

    The gap is the left-endpoint discretization error of the action
    increments and shrinks like sqrt(dtau).
    """
    if dtau > spec.epsilon / 5 + 1e-15:
        raise StepTooLargeError(f"dtau={dtau} exceeds epsilon/5={spec.epsilon / 5:.6g}")
    v0 = validate_state(v0, spec.n, "v0")
    M = _grid(T, dtau)
    lam = spec.freqs.as_array()
    rot = np.exp(-1j * lam * dtau / spec.epsilon)
    drift = spec.drift_polys
    const_psi = spec.psi_constant_matrix() if spec.psi_is_constant else None
    noise = NoisePath(seed, 0, STATE_STREAM, dtau).complex_increments(M, spec.n1)

    v = v0.copy()
    I_int = actions_of(v0).astype(float)
    sup_err = 0.0
    for m in range(M):
        pv = np.array([drift[k].evaluate(v) for k in range(spec.n)])
        psi = const_psi if const_psi is not None else spec.psi_at(v)
        kick = psi @ noise[m]
        # integrated action increment, left-endpoint rule
        I_int = I_int + (
            (v * np.conj(pv)).real * dtau
            + (v * np.conj(kick)).real
            + (np.abs(psi) ** 2).sum(axis=1) * dtau
        )
        v = rot * (v + pv * dtau + kick)
        sup_err = max(sup_err, float(np.abs(actions_of(v) - I_int).max()))
    return ItoReport(sup_error=sup_err, dtau=dtau, T=M * dtau, seed=seed)


def ito_refinement_study(spec, v0, T, dtaus, seeds):
    """Per-seed sup errors across a decreasing dtau ladder.

    Returns an array of shape (len(seeds), len(dtaus)).
    """
    errs = np.empty((len(seeds), len(dtaus)))
    for i, s in enumerate(seeds):
        for j, dt in enumerate(dtaus):
            errs[i, j] = ito_action_consistency(spec, v0, T, dt, s).sup_error
    return errs


# ---------------------------------------------------------------------------
# moment diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    order: int
    sup_moment: float
    half_sup_moment: float
    n_paths: int

    @property
    def doubling_ratio(self):
        return self.sup_moment / self.half_sup_moment if self.half_sup_moment else np.inf


def moment_diagnostic(spec: SystemSpec, v0, T, dtau, n_paths, seed,
                      order=None, record_times=None, threads=1) -> MomentReport:
    """Sampled sup_tau E |v|^{2m} with a half-ensemble stability ratio.

    The default order is ceil(max(m0, 4)) + 1.  Reported, never asserted:
    finitely many paths cannot certify a moment bound.
    """
    m = int(np.ceil(max(spec.m0, 4.0))) + 1 if order is None else int(order)
    ens = simulate_perturbed(spec, v0, T, dtau, n_paths, seed,
                             record_times=record_times, threads=threads)
    norms2 = (np.abs(ens.v.values) ** 2).sum(axis=2)
    powered = norms2 ** m
    sup_full = float(powered.mean(axis=0).max())
    sup_half = float(powered[: n_paths // 2].mean(axis=0).max())
    return MomentReport(order=m, sup_moment=sup_full, half_sup_moment=sup_half,
                        n_paths=n_paths)


# ---------------------------------------------------------------------------
# CSV export (schema: path,time,k,re,im for states; path,time,k,I for actions)
# ---------------------------------------------------------------------------


def export_ensemble_csv(ens: PathEnsemble, path):
    # Python scalars (one path at a time), so fields are plain float reprs
    # rather than numpy-scalar reprs such as np.float64(0.5)
    times = ens.times.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        if ens.kind == "state":
            fh.write("path,time,k,re,im\n")
            for p in range(ens.n_paths):
                for t, row in zip(times, ens.values[p].tolist()):
                    for k, z in enumerate(row, start=1):
                        fh.write(f"{p},{t!r},{k},{z.real!r},{z.imag!r}\n")
        else:
            fh.write("path,time,k,I\n")
            for p in range(ens.n_paths):
                for t, row in zip(times, ens.values[p].tolist()):
                    for k, v in enumerate(row, start=1):
                        fh.write(f"{p},{t!r},{k},{v!r}\n")
