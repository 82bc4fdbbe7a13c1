"""Path simulation for the perturbed system and its averaged companions.

Every process runs through one driver, ``_integrate``.  It owns the grid
and the recorded nodes, streams each path's noise in blocks of steps, runs
the paths in chunks, silences overflow warnings and raises
``NonFiniteError`` at the first step where a path leaves the finite range.
A process is a step function ``step(x, dW, m, sl)`` that advances the
mode-major states ``x``, of shape (k, paths), of the paths ``sl`` from node
m to node m + 1, with fields compiled once per run (``poly.Field``);
per-path counters (stops, clamp events, ...) live in arrays over all paths
that the step indexes with ``sl``.  The steps:

* the perturbed system, by a splitting scheme whose fast rotation factor
  e^{-i Lambda dtau / eps} is applied exactly after an explicit step of the
  perturbation (plain Euler on the stiff rotation is unstable at usable
  steps); its interaction representation a_k = e^{i tau lambda_k / eps} v_k
  is recorded alongside (the rotation preserves moduli, so actions are read
  off v);
* the effective equation da = <<P>> dtau + B(a) dbeta and the modified
  effective equation with <<P1>> in place of <<P>> (Euler-Maruyama), by one
  rule over a stack of halves, (halves, k, paths), each with its own drift;
* cut-off variants that switch to the trivial system da_k = dbeta_k after
  the first grid node with |a|^2 >= R;
* the averaged action equation dI = F(I) dtau + K(I) dW, clamped at the
  boundary of the positive cone.

Every step forms its noise term G(x) dbeta through one builder, ``_noise``:
G is Psi(v) in the perturbed step, and the principal roots B(a) = A(a)^{1/2}
and K(I) = S(I)^{1/2} of the averaged diffusions in the effective and action
steps.  From the polynomials alone it chooses once per run between a
constant G, per-mode scales and a per-path matrix batch.

The coupled construction in ``coupling`` is the cut-off step of two halves,
(reference, coupled).  The pathwise action identity check reads one path of
the perturbed step and its noise stream, and integrates no step of its own.

Each path owns an independent noise stream derived from
(master_seed, path_index, stream_id), so ensembles are bit-reproducible
regardless of chunking: its PCG64 gets the seed words of
numpy's SeedSequence(master_seed, spawn_key=(path_index, stream_id)), which
a chunk derives for all its paths in one vectorised pass of numpy's hash (a
test pins them to numpy's).  Only the step state is mode-major: the driver
records the states node by node into a (nodes, paths, k) array, and
``PathEnsemble.values`` is the (paths, nodes, k) view of that node-major
array and is not C-contiguous.  An ensemble carries values and counters
only: a run's ``manifest.json`` is the one record of how it was made.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import averaging
from .averaging import actions_of
from .errors import NonFiniteError, NotPSDError, StepTooLargeError
from .model import SystemSpec, validate_state
from .poly import Field

STATE_STREAM = 0
ACTION_STREAM = 1

# paths per chunk, and steps of each path's noise that a chunk holds at a time
_CHUNK_PATHS = 4096
_BLOCK_STEPS = 256
# nodes per block of PathEnsemble.actions
_ACTION_NODES = 256


# the constants of numpy's SeedSequence hash
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _seed_words(master_seed, paths, stream_id):
    """Row j: SeedSequence(master_seed, spawn_key=(paths[j], stream_id))
    .generate_state(4, np.uint64), for an int or a tuple of ints master_seed
    and a range ``paths`` below 2^32.  numpy's hash runs once for all rows in
    uint32 arithmetic; words that do not depend on the path have 1 element."""
    ints = [int(v) for v in (master_seed if isinstance(master_seed, tuple) else (master_seed,))]
    if min(ints, default=0) < 0:
        raise ValueError("expected non-negative integer")
    run = [v >> s & _MASK32 for v in ints for s in range(0, max(v.bit_length(), 1), 32)]
    words = [np.uint32([w]) for w in run + [0] * (4 - len(run))]
    words += [np.arange(paths.start, paths.stop, dtype=np.uint32), np.uint32([stream_id])]
    const = _INIT_A

    def hashmix(v, mult=_MULT_A):
        nonlocal const
        v = (v ^ const) * (const := const * mult & _MASK32)
        return v ^ v >> 16

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    pool = [hashmix(w) for w in words[:4]]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for w in words[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(w))
    const = _INIT_B  # generate_state: the same hash on the B constants
    half = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return np.stack([half[i] | half[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


class _SeedWords:
    """Hands PCG64 the seed words it was built with.  ``_seed_words`` makes it
    a numpy ISeedSequence, so importing stochavg does not load numpy.random."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class NoisePath:
    """Noise increments of one path, reproducible from the seed lineage alone.

    Path p of stream s draws from PCG64 seeded as by SeedSequence(master_seed,
    spawn_key=(p, s)), from its row ``words`` of ``_seed_words``, which a
    chunk derives for all its paths at once and a test pins to numpy's.

    Complex increments have independent real and imaginary parts of variance
    dtau each, so E|dbeta_l|^2 = 2 dtau.  Draw order is fixed: one
    standard-normal block of shape (steps, 2*n1) per request, first half real
    parts, second half imaginary parts; consecutive requests continue one stream.
    """

    def __init__(self, master_seed, path_index, stream_id, dtau, words=None):
        self._scale = np.sqrt(float(dtau))
        if words is None:
            words = _seed_words(master_seed, range(path_index, path_index + 1), stream_id)[0]
        self._rng = np.random.Generator(np.random.PCG64(_SeedWords(words.copy())))

    def complex_increments(self, steps, n1, out=None):
        """Complex increments of shape (steps, n1), written into ``out`` if given."""
        z = self._rng.standard_normal((steps, 2 * n1))
        z *= self._scale  # then copied: numpy copies into a strided out faster than a ufunc
        if out is None:
            out = np.empty((steps, n1), dtype=complex)
        out.real = z[:, :n1]
        out.imag = z[:, n1:]
        return out

    def real_increments(self, steps, n, out=None):
        """Real increments of shape (steps, n), written into ``out`` if given."""
        return np.multiply(self._scale, self._rng.standard_normal((steps, n)), out=out)


@dataclass
class PathEnsemble:
    """Sample paths on a shared recorded grid.

    ``values`` has shape (n_paths, len(times), n); complex for state
    ensembles, float for action ensembles.  The integrators record node by
    node, so ``values`` is a transposed view of a node-major (len(times),
    n_paths, n) array and is not C-contiguous.  It does not record how it
    was made: a run's manifest is the one record of that.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
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
        """The action ensemble, bitwise ``actions_of(values)`` in the same
        layout, computed _ACTION_NODES nodes at a time so that its
        temporaries stay small."""
        if self.kind == "action":
            return self
        values = np.empty_like(self.values, dtype=float)  # order K: keeps the layout
        for lo in range(0, values.shape[1], _ACTION_NODES):
            nodes = slice(lo, lo + _ACTION_NODES)
            values[:, nodes] = actions_of(self.values[:, nodes])
        return PathEnsemble(times=self.times, values=values, kind="action")


@dataclass
class PerturbedEnsemble:
    """Paths of the perturbed system: v-paths, and their interaction
    representation ``a``, computed on first access.

    The a-values differ from v only by the deterministic unit rotation
    e^{i tau Lambda / eps}; actions are computed from v, which makes the
    modulus identity |a_k| = |v_k| hold by construction.
    """

    v: PathEnsemble
    freqs: np.ndarray
    epsilon: float

    @cached_property
    def a(self):
        phases = np.exp(1j * np.outer(self.v.times, self.freqs) / self.epsilon)
        return PathEnsemble(times=self.v.times, values=phases[None, :, :] * self.v.values,
                            kind="state")

    def actions(self):
        return self.v.actions()


@dataclass
class CutoffEnsemble:
    paths: PathEnsemble
    tau_R: np.ndarray

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


def _check_finite(x, lo, t, what):
    if np.isfinite(x.view(np.float64)).all():  # complex entries as float pairs
        return
    bad = lo + int(np.argmin(np.isfinite(x).all(axis=0)))
    raise NonFiniteError(f"{what} path {bad} became non-finite at tau={t:.6g}",
                         path_index=bad, time=t)


def _noise_block(shape, dtype):
    """Uninitialised array for a chunk's noise in its own private anonymous
    mapping (huge pages advised, as numpy does for large arrays), unmapped
    when the array is freed.  From the malloc heap, a freed block of tens of
    MB can be split by later small allocations, and the next block then
    lands beside it, so two blocks stay resident."""
    dtype = np.dtype(dtype)
    if not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty(shape, dtype)
    buf = mmap.mmap(-1, dtype.itemsize * int(np.prod(shape)),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype).reshape(shape)


# numpy reduces a row of fewer than 8 elements left to right, and longer
# rows in pairwise blocks of 8
_FOLD_MAX = 7


def _row_reduce(ufunc, x):
    """``ufunc.reduce`` over the modes of mode-major x, (..., k, paths), bit
    for bit as over the C-ordered rows of its (..., paths, k) transpose.  Up
    to 7 modes it folds the modes left to right, which at a few modes costs
    a fraction of the reduction's fixed overhead."""
    if x.shape[-2] > _FOLD_MAX:
        return ufunc.reduce(np.ascontiguousarray(np.swapaxes(x, -1, -2)), axis=-1)
    out = x[..., 0, :]
    for j in range(1, x.shape[-2]):
        out = ufunc(out, x[..., j, :])
    return out


def _put(dst, x):
    """dst[...] = the (..., paths, k) transpose of x, one mode at a time, which
    copies several times faster than numpy's loop over the k modes."""
    for j in range(x.shape[-2]):
        dst[..., j] = x[..., j, :]


def _check_paths(n_paths):
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")


def _integrate(x0, width, T, dtau, record_times, n_paths, seed, stream, step,
               what="path"):
    """Run ``step`` from x0 over the grid of M = T/dtau steps for n_paths paths.

    Path p draws its increments from NoisePath(seed, p, stream), real on
    ACTION_STREAM, complex otherwise, _BLOCK_STEPS at a time into a node-major
    (steps, paths, width) block.  Paths go in chunks of _CHUNK_PATHS, one
    after another.  ``step(x, dW, m, sl)`` gets the C-ordered states x, of
    shape (k, len(sl)), of the paths in slice ``sl`` at node m and their
    increments dW, the transpose of the block's row m, and returns their
    C-ordered states at node m + 1 (it may reuse x for them).  Returns the
    states at the recorded nodes as a PathEnsemble; they are recorded into
    a node-major array, and ``values`` is its (paths, nodes, k) transpose.
    A NotPSDError from the batched square root (whose batch rows are the paths
    of ``sl``) is raised again with the path index and the time of the state
    that gave the matrix.
    """
    _check_paths(n_paths)
    M = _grid(T, dtau)
    rec = _record_indices(M, dtau, record_times)
    slot = {int(i): j for j, i in enumerate(rec)}
    x0 = np.asarray(x0)
    out = np.empty((rec.size, n_paths, x0.size), dtype=x0.dtype)
    real = stream == ACTION_STREAM
    draw = getattr(NoisePath, "real_increments" if real else "complex_increments")

    def run(sl):
        words = _seed_words(seed, range(sl.start, sl.stop), stream)
        paths = [NoisePath(seed, sl.start + j, stream, dtau, w) for j, w in enumerate(words)]
        block = _noise_block((_BLOCK_STEPS, len(paths), width), float if real else complex)
        x = np.broadcast_to(x0[:, None], (x0.size, len(paths))).copy()
        if 0 in slot:
            _put(out[slot[0], sl], x)
        # non-finite states are raised as NonFiniteError; the warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(M):
                if m % _BLOCK_STEPS == 0:
                    n = min(_BLOCK_STEPS, M - m)
                    for i, path in enumerate(paths):
                        draw(path, n, width, out=block[:n, i])
                try:
                    x = step(x, block[m % _BLOCK_STEPS].T, m, sl)
                except NotPSDError as err:
                    if err.row is None:
                        raise
                    bad, t = sl.start + err.row, m * dtau
                    raise NotPSDError(
                        f"{what} path {bad}: dispersion matrix not PSD at tau={t:.6g} "
                        f"(min eigenvalue {err.min_eigenvalue:.3e})", row=err.row,
                        min_eigenvalue=err.min_eigenvalue, path_index=bad, time=t) from err
                _check_finite(x, sl.start, (m + 1) * dtau, what)
                j = slot.get(m + 1)
                if j is not None:
                    _put(out[j, sl], x)

    for lo in range(0, n_paths, _CHUNK_PATHS):
        run(slice(lo, min(lo + _CHUNK_PATHS, n_paths)))
    return PathEnsemble(times=rec * dtau, values=out.transpose(1, 0, 2),
                        kind="action" if real else "state")


# ---------------------------------------------------------------------------
# perturbed system
# ---------------------------------------------------------------------------


def _check_resolution(spec, dtau):
    if dtau > spec.epsilon / 5 + 1e-15:
        raise StepTooLargeError(f"dtau={dtau} exceeds epsilon/5={spec.epsilon / 5:.6g}")


def _rows(field, x):
    """A field of k entries at mode-major states x, as (k, paths) rows."""
    return field(x.T, np.empty_like(x).T).T


def _scaled(b, db):
    """db * b for per-mode amplitudes b, into C-ordered rows: over the
    transposed increments numpy's own loop order runs several times slower."""
    return np.multiply(db, b, np.empty_like(db, order="C"))


def _kick(G, db):
    """G dbeta as (k, paths) rows, for one matrix G or a (paths, k, n1) batch;
    the product runs on the path-major increments db.T."""
    return (db.T @ G.T if G.ndim == 2 else np.einsum("pkl,pl->pk", G, db.T)).T


def _noise(matrix, root=False):
    """(x, db) -> G(x) db as (k, paths) rows, for the mode-major states x and
    increments db of a step, where G is the matrix of polynomials (or action
    polynomials) ``matrix`` or, with ``root``, the principal root of its
    Hermitian part.  The form is chosen once, from the polynomials alone:

    * constant entries: G is evaluated (and rooted) once, then scales the
      increments per mode if it is diagonal and multiplies them if not;
    * a square matrix whose off-diagonal entries are all the zero
      polynomial: each step evaluates the diagonal as (k, paths) rows, takes
      their ``sqrt_diagonal`` when rooted, and scales the increments per mode;
    * otherwise each step evaluates G(x) for every path, (paths, k, n1), and
      roots it with ``principal_sqrt_batched``.
    """
    n = len(matrix)
    diag = averaging.diagonal_entries(matrix) if all(len(r) == n for r in matrix) else None
    if diag is not None:
        entries, apply = Field(diag), _scaled
        evaluate = lambda x: _rows(entries, x)
        rooted = lambda d: averaging.sqrt_diagonal(d.real)
    else:
        entries, apply = Field(matrix), _kick
        evaluate = lambda x: entries(x.T)
        rooted = lambda G: averaging.principal_sqrt_batched(
            0.5 * (G + np.conj(np.swapaxes(G, -1, -2))))
    if any(mono for p in entries.leaves for mono in p.lowered[0]):
        return lambda x, db: apply(rooted(evaluate(x)) if root else evaluate(x), db)
    G = entries(np.zeros((1, entries.leaves[0].n)))  # the entries at one point
    G = G.T if diag is not None else G[0]
    G = rooted(G) if root else G
    return lambda x, db: apply(G, db)


def simulate_perturbed(spec: SystemSpec, v0, T, dtau, n_paths, seed,
                       record_times=None) -> PerturbedEnsemble:
    """Integrate the perturbed system and its interaction representation.

    One step applies the perturbation explicitly and the fast rotation
    exactly: v <- e^{-i Lambda dtau/eps} (v + P(v) dtau + Psi(v) dbeta).
    The guard dtau <= eps/5 keeps several steps per fast period so that the
    averaged behaviour can emerge.
    """
    _check_resolution(spec, dtau)
    v0 = validate_state(v0, spec.n, "v0")
    rot = np.exp(-1j * spec.freqs.as_array() * dtau / spec.epsilon)[:, None]
    drift = Field(spec.drift_polys)
    noise = _noise(spec.psi_polys)

    def step(v, db, m, sl):
        return rot * (v + _rows(drift, v) * dtau + noise(v, db))

    v_ens = _integrate(v0, spec.n1, T, dtau, record_times, n_paths, seed,
                       STATE_STREAM, step, "perturbed")
    return PerturbedEnsemble(v=v_ens, freqs=spec.freqs.as_array(), epsilon=spec.epsilon)


# ---------------------------------------------------------------------------
# effective / modified effective equations and their cut-off variants
# ---------------------------------------------------------------------------


def _effective_drift_polys(spec, variant):
    if variant not in ("full", "modified"):
        raise ValueError("variant must be 'full' or 'modified'")
    source = spec.drift_polys if variant == "full" else spec.p1_polys
    return averaging.averaged_field_polys(source, spec.n)


def _effective_rule(spec, variants, dtau):
    """One Euler-Maruyama step a + <<P>>(a) dtau + B(a) dbeta of the
    (modified) effective equation for the halves a[h], of shape (k, paths),
    half h with the drift of ``variants[h]``, all driven by one dbeta;
    where ``stop[h, p]`` holds, path p of half h takes the trivial step
    a + dbeta instead.  B(a) dbeta is ``_noise`` of the averaged diffusion A.
    """
    drifts = [Field(_effective_drift_polys(spec, v)) for v in variants]
    noise = _noise(averaging.averaged_diffusion_polys(spec.psi_polys), root=True)

    def rule(a, db, stop=None):
        nxt = np.empty_like(a)
        for h, field in enumerate(drifts):
            field(a[h].T, nxt[h].T)
        nxt *= dtau  # a + <<P>>(a) dtau + B(a) dbeta, in place
        nxt += a
        for h, half in enumerate(a):
            nxt[h] += noise(half, db)
        if stop is not None and stop.any():
            np.copyto(nxt, a + db, where=stop[:, None])
        return nxt

    return rule


def _mark_stops(hit, stopped, tau_R, t, sl):
    """Stop, per half, the not yet stopped paths of ``sl`` where ``hit`` holds, at t."""
    newly = np.greater(hit, stopped[:, sl])  # hit and not yet stopped
    if newly.any():
        tau_R[:, sl][newly] = t
        stopped[:, sl] |= newly


def _cutoff_step(rule, dtau, R, stopped, tau_R, tie=None):
    """Step of the cut-off dynamics for a stack of halves: ``rule`` until
    the first node with |a|^2 >= R, the trivial system from there on.  It
    returns the states and their actions I, which ``tie(a, I, sl)`` may
    overwrite first, and tests 2 sum_k I_k >= R, the same boolean as
    |a|^2 >= R: halving and doubling are exact for normal floats."""

    def step(a, db, m, sl):
        a = rule(a, db, stopped[:, sl])
        I = actions_of(a)
        if tie is not None:
            tie(a, I, sl)
        _mark_stops(2.0 * _row_reduce(np.add, I) >= R, stopped, tau_R, (m + 1) * dtau, sl)
        return a, I

    return step


def simulate_effective(spec: SystemSpec, variant, v0, T, dtau, n_paths, seed,
                       record_times=None) -> PathEnsemble:
    """Euler-Maruyama for the (modified) effective equation.

    ``variant="full"`` uses the averaged full drift <<P1 + P2>>;
    ``variant="modified"`` averages only the non-hamiltonian part P1.
    """
    v0 = validate_state(v0, spec.n, "v0")
    rule = _effective_rule(spec, (variant,), dtau)
    return _integrate(v0, spec.n, T, dtau, record_times, n_paths, seed, STATE_STREAM,
                      lambda a, db, m, sl: rule(a[None], db)[0], variant)


def simulate_cutoff_effective(spec: SystemSpec, variant, v0, T, dtau, n_paths,
                              seed, R, record_times=None) -> CutoffEnsemble:
    """Effective dynamics switched to the trivial system da_k = dbeta_k from
    the first grid node with |a|^2 >= R onward.

    With the same seed and an R that never triggers, the output matches
    ``simulate_effective`` bit-exactly.
    """
    v0 = validate_state(v0, spec.n, "v0")
    if not R > float(np.sum(np.abs(v0) ** 2)):
        raise ValueError("R must exceed |v0|^2")
    _check_paths(n_paths)
    stopped = np.zeros((1, n_paths), dtype=bool)
    tau_R = np.full((1, n_paths), _grid(T, dtau) * dtau)
    step = _cutoff_step(_effective_rule(spec, (variant,), dtau), dtau, R, stopped, tau_R)
    ens = _integrate(v0, spec.n, T, dtau, record_times, n_paths, seed, STATE_STREAM,
                     lambda a, db, m, sl: step(a[None], db, m, sl)[0][0], variant)
    ens.extras["stopped"] = stopped[0]
    return CutoffEnsemble(paths=ens, tau_R=tau_R[0])


# ---------------------------------------------------------------------------
# averaged action equation
# ---------------------------------------------------------------------------


def simulate_action_sde(spec: SystemSpec, I0, T, dtau, n_paths, seed,
                        record_times=None) -> PathEnsemble:
    """Euler-Maruyama for dI = F(I) dtau + K(I) dW on the positive cone.

    Finite negative components are clamped at zero (reflecting boundary to
    leading order); clamp events are counted per path in
    ``extras["clamp_counts"]``.  An overflow to -inf is not clamped: it is
    raised as NonFiniteError like any other non-finite step.  K(I) dW is
    ``_noise`` of the averaged action diffusion S.
    """
    I0 = np.asarray(I0, dtype=float)
    if I0.shape != (spec.n,) or (I0 < 0).any():
        raise ValueError("I0 must be a nonnegative action vector")
    F = Field(averaging.action_drift_polys(spec))
    noise = _noise(averaging.action_diffusion_polys(spec), root=True)
    _check_paths(n_paths)
    clamp_counts = np.zeros((spec.n, n_paths), dtype=int)  # per mode and path

    def step(I, dW, m, sl):
        I = I + _rows(F, I) * dtau + noise(I, dW)
        neg = (I < 0) & (I > -np.inf)
        clamp_counts[:, sl] += neg
        return np.where(neg, 0.0, I)

    ens = _integrate(I0, spec.n, T, dtau, record_times, n_paths, seed, ACTION_STREAM,
                     step, "action")
    ens.extras["clamp_counts"] = clamp_counts.sum(axis=0)
    return ens


# ---------------------------------------------------------------------------
# pathwise action-identity check
# ---------------------------------------------------------------------------


def ito_action_consistency(spec: SystemSpec, v0, T, dtau, seed) -> float:
    """Sup over the grid of the gap between the actions of one simulated
    path and its integrated action increments dI_k = v_k . P_k dtau
    + v_k . (sum_l Psi_kl dbeta_l) + sum_l |Psi_kl|^2 dtau, driven by the
    same noise.

    The path is path 0 of ``simulate_perturbed`` at every node, and its
    increments are read again from its noise stream; the left-endpoint
    increments are summed in node order.  The gap is the discretization
    error of that rule and shrinks like sqrt(dtau).  A path that leaves the
    finite range raises NonFiniteError.
    """
    v = simulate_perturbed(spec, v0, T, dtau, 1, seed).v.values[0]
    x = v[:-1]  # left endpoints, (steps, n)
    db = NoisePath(seed, 0, STATE_STREAM, dtau).complex_increments(x.shape[0], spec.n1)
    psi = Field(spec.psi_polys)(x)
    pv = Field(spec.drift_polys)(x)
    dv = _kick(psi, db.T).T  # the nodes in the place of paths
    inc = ((x * np.conj(pv)).real * dtau + (x * np.conj(dv)).real
           + (np.abs(psi) ** 2).sum(axis=-1) * dtau)
    I_int = np.cumsum(np.concatenate([actions_of(v[:1]), inc]), axis=0)
    return float(np.abs(actions_of(v) - I_int).max())


def ito_refinement_study(spec, v0, T, dtaus, seeds):
    """Per-seed sup errors across a decreasing dtau ladder.

    Returns an array of shape (len(seeds), len(dtaus)).
    """
    errs = np.empty((len(seeds), len(dtaus)))
    for i, s in enumerate(seeds):
        for j, dt in enumerate(dtaus):
            errs[i, j] = ito_action_consistency(spec, v0, T, dt, s)
    return errs


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
