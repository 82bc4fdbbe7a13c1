"""Empirical laws and dual-Lipschitz (bounded-Lipschitz) distances.

The distance between laws mu1, mu2 is

    sup { |int f dmu1 - int f dmu2| : Lip(f) + sup|f| <= 1 },

with the Lipschitz constant and the sup norm *jointly* bounded by one.  In
one dimension the supremum over empirical laws is computed exactly: only the
values f_i at the merged sample points matter, and the Lipschitz constraint
reduces to adjacent pairs on the sorted grid.  For a fixed Lipschitz budget
L the best f comes from a chain dynamic program (the "slope trick") whose
breakpoints never change order on either side of the running maximum, so
two stacks hold them (see ``_bl1d_pass``).  Its value g(L) is concave and
piecewise linear in L, so a few tangent-line steps find the best trade-off
(see ``_bl1d_exact``).  The dual of the same problem
is the generalized-Wasserstein / flat-norm identity: the distance is the
minimum over partial transport plans of max(transport cost, unmatched mass)
(Piccoli & Rossi, ARMA 2014).  In higher dimension the supremum is
approximated from below by a family of rescaled ramp functions plus the
coordinate-marginal exact distances (projections are 1-Lipschitz, so
marginal distances never exceed the joint distance).  A noise floor is a max
of half-sample distances; a solve stops where it cannot raise the running
max (``_noise_floor``), so floors are unchanged bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sde
from .errors import StochavgError

BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_CI = 0.90
DISTANCE_HARD_BOUND = 2.0  # sup|f| <= 1 forces |mean1 - mean2| <= 2
EFF_DTAU = 1e-3  # step of the effective equation in ``convergence_table``


@dataclass(frozen=True)
class EmpiricalLaw:
    """A finite sample of points in R^d at a fixed time."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[0] < 2:
            raise ValueError("a law needs at least two sample points")
        if not np.isfinite(pts).all():
            raise ValueError("law contains non-finite points")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def size(self):
        return self.points.shape[0]


def law_from_ensemble(ens, time) -> EmpiricalLaw:
    """Extract the empirical law of an ensemble at a recorded time.

    Complex states are flattened to R^{2n} as (re_1, im_1, ..., re_n, im_n);
    action ensembles stay in R+^n.
    """
    vals = ens.at_time(time)
    if np.iscomplexobj(vals):
        pts = np.stack([vals.real, vals.imag], axis=-1).reshape(vals.shape[0], -1)
    else:
        pts = np.asarray(vals, dtype=float)
    return EmpiricalLaw(points=pts)


@dataclass(frozen=True)
class DistanceReport:
    estimate: float
    bootstrap_ci: tuple
    noise_floor: float
    feature_max: float = np.nan
    marginal_max: float = np.nan

    def __post_init__(self):
        if self.estimate > DISTANCE_HARD_BOUND + 1e-9:
            raise StochavgError(
                f"distance {self.estimate} exceeds the hard bound 2 (sup|f| <= 1)"
            )
        if self.noise_floor < 0:
            raise StochavgError("noise floor must be nonnegative")


# ---------------------------------------------------------------------------
# exact one-dimensional distance
# ---------------------------------------------------------------------------


def _merged_support(x1, x2):
    """The merged support x, its signed weights w, and the end slopes of g:
    g = L W1 near L = 0 and g = (1 - L) mass near L = 1 (``_bl1d_exact``)."""
    xs = np.concatenate([x1, x2])
    ws = np.concatenate(
        [np.full(x1.size, 1.0 / x1.size), np.full(x2.size, -1.0 / x2.size)]
    )
    uniq, inv = np.unique(xs, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inv, ws)
    return uniq, w, float(np.diff(uniq) @ np.abs(np.cumsum(w)[:-1])), float(np.abs(w).sum())


# On the laws of an epsilon sweep a solve takes 6-11 DP passes, a pruned floor
# solve fewer; the cap only ends a search that rounding keeps from closing.
_BL1D_MAX_PASSES = 64


class _Pass(tuple):
    """(alpha, beta) of a pass; ``tied``: it broke a tie of unequal alpha."""


def _bl1d_pass(X, w, L):
    """Maximise sum_i w_i f_i s.t. |f_i| <= 1 - L, |f_{i+1} - f_i| <= L d_i.

    Slope trick on V_i(y), the best partial sum with f_i = y: a concave
    piecewise-linear function on [-c, c], c = 1 - L.  Its breakpoints left of
    the maximum sit on one stack and those right of it on another, each with
    the drop in slope across it, innermost on top.  Adding w_i y moves weight
    |w_i| across the maximum, from the top of one stack to the top of the
    other: a breakpoint that crosses the maximum lies inside every breakpoint
    of the side it joins.  The window max over |f_{i+1} - f_i| <= L d_i
    pushes each side outward by L d_i as a whole, which a lazy offset (the
    grid coordinate X_i) does for free.  So a side never changes order, and
    a stack is all it needs.  The walls at -c and c absorb whatever crosses
    them; a side whose top is at or beyond its wall lies there entirely and
    is cleared.  The maximiser interval of each V_i is recorded, and a
    backward pass clips f_{i+1} towards it to recover f_i.

    Every breakpoint is a copy of a wall moved by window shifts, so it sits
    at alpha + beta L with alpha = +-1.  Entries are (beta_s, alpha, weight)
    with beta = beta_s + X_i; the left stack holds the mirror image y -> -y,
    so both read alike and each wall sits at (alpha, beta) = (1, -1).  A tie
    in position goes to the smaller beta, the order at L + 0.  f is returned
    as a ``_Pass`` of arrays (alpha, beta): g(L) = w.(alpha + beta L), and
    w.beta is the slope of g just right of L, unless ``tied``: lines of
    unequal alpha that tie after rounding at an L beside their crossing can
    take the order at L + 0 in one comparison and the order at L in another.
    """
    m = len(X)
    c = 1.0 - L
    tied = False
    left, right = [], []
    inner = [None] * m  # per node: maximiser interval of V_i as two (alpha, beta)
    for i in range(m):
        x, wi = X[i], w[i]
        if wi:  # move |w_i| from src to dst; past its wall, src's wall supplies it
            src, dst, rem = (right, left, wi) if wi > 0.0 else (left, right, -wi)
            while True:
                if src:
                    bs, a, weight = src[-1]
                    b = bs + x
                    p = a + b * L
                    if p >= c:  # at or beyond the wall, or tied with it
                        tied |= p == c and a != 1
                        if p > c or b >= -1.0:
                            src.clear()
                if not src:
                    dst.append((1.0 - x, -1, rem))
                    break
                if weight > rem:
                    src[-1] = (bs, a, weight - rem)
                    dst.append((-b - x, -a, rem))
                    break
                src.pop()
                dst.append((-b - x, -a, weight))
                rem -= weight
                if rem <= 0.0:
                    break
        if left:  # the innermost breakpoint of each side, or its wall
            bs, la, _ = left[-1]
            lb = bs + x
            p = la + lb * L
            if p >= c:
                tied |= p == c and la != 1
                if p > c or lb >= -1.0:
                    left.clear()
        if not left:
            la, lb = 1, -1.0
        if right:
            bs, ha, _ = right[-1]
            hb = bs + x
            p = ha + hb * L
            if p >= c:
                tied |= p == c and ha != 1
                if p > c or hb >= -1.0:
                    right.clear()
        if not right:
            ha, hb = 1, -1.0
        inner[i] = (-la, -lb, ha, hb)
    alpha = [0] * m
    beta = [0.0] * m
    a, b = inner[m - 1][:2]
    alpha[m - 1], beta[m - 1] = a, b
    for i in range(m - 2, -1, -1):
        la, lb, ha, hb = inner[i]
        d = X[i + 1] - X[i]
        p, pl, ph = a + b * L, la + lb * L, ha + hb * L
        if not pl < p < ph:  # f_{i+1} is not inside the maximiser interval
            if p == pl or p == ph:  # a tie with an end of the interval
                tied |= p == pl and a != la or p == ph and a != ha
            if p < pl or (p == pl and b < lb):  # maximiser lies to the right
                bu = b + d
                pu = a + bu * L
                tied |= pl == pu and la != a
                if pl > pu or (pl == pu and lb > bu):
                    b = bu
                else:
                    a, b = la, lb
            elif p > ph or (p == ph and b > hb):  # maximiser lies to the left
                bd = b - d
                pd = a + bd * L
                tied |= ph == pd and ha != a
                if ph < pd or (ph == pd and hb < bd):
                    b = bd
                else:
                    a, b = ha, hb
        alpha[i], beta[i] = a, b
    res = _Pass((np.array(alpha, dtype=float), np.array(beta)))
    res.tied = tied
    return res


def _bl1d_exact(x, w, w1, mass, below=-np.inf):
    """Exact BL distance in 1d plus the optimal potential on the merged grid.

    With x_1 < ... < x_m the merged support, w_i the signed empirical weights
    and d_i = x_{i+1} - x_i, the distance is the maximum over L in [0, 1] of

        g(L) = max sum_i w_i f_i  s.t.  |f_i| <= 1 - L,  |f_{i+1} - f_i| <= L d_i

    (adjacent Lipschitz constraints suffice on a sorted grid).
    ``_bl1d_pass`` solves the inner problem exactly at one L and also returns
    the one-sided slope of g there.  g is concave and piecewise linear, so the
    outer maximisation intersects tangent lines.  It starts from the exact end
    pieces g = L W1 near L = 0 (W1 = sum_i d_i |S_i|, S the cumulative weight)
    and g = (1 - L) sum_i |w_i| near L = 1.  Each pass evaluates g where the
    two current tangents cross and replaces the tangent on the side its slope
    points away from; each new tangent is a new linear piece of g.  The search
    stops when g meets the crossing height, which bounds g from above.  If
    it goes on after a tied pass, a pass at the next float gives the slope.
    It also stops before a pass whose crossing height is at or below ``below``
    less a rounding margin: a solve worth more than ``below`` is unchanged
    bit for bit, and a stopped one returns at most ``below``.
    """
    m = x.size
    best, fbest = 0.0, np.zeros(m)  # f = 0 is optimal at L = 0 and L = 1
    if m == 1 or not np.any(w):
        return best, x, fbest
    X, wl = (x - x[0]).tolist(), w.tolist()
    lo = (0.0, 0.0, w1)
    hi = (1.0, 0.0, -mass)
    for _ in range(_BL1D_MAX_PASSES):
        (l0, g0, s0), (l1, g1, s1) = lo, hi
        L = (g1 - g0 + s0 * l0 - s1 * l1) / (s0 - s1)
        if not l0 < L < l1:
            break
        top = g0 + s0 * (L - l0)  # where the tangents cross: g <= top
        if top <= below - 1e-9 * mass:
            break
        alpha, beta = res = _bl1d_pass(X, wl, L)
        f = alpha + beta * L
        g, s = float(w @ f), float(w @ beta)
        if g > best:
            best, fbest = g, f
        closed = top - g <= 1e-15 * mass
        if res.tied and not closed:  # the slope just right of L, where no lines tie
            s = float(w @ _bl1d_pass(X, wl, float(np.nextafter(L, 2.0)))[1])
        if closed or s == 0.0:
            break
        if s > 0.0:
            lo = (L, g, s)
        else:
            hi = (L, g, s)
    return best, x, fbest


def _noise_floor(floor, samples):
    """max(floor, the distance between each sample's odd and even halves), bit
    for bit: largest end-tangent crossing W1 mass / (W1 + mass) first, and a
    solve stops where it cannot raise the running max."""
    halves = [_merged_support(s[0::2], s[1::2]) for s in samples]
    for h in sorted(halves, key=lambda h: h[2] * h[3] / (h[2] + h[3] or 1.0), reverse=True):
        floor = max(floor, _bl1d_exact(*h, below=floor)[0])
    return floor


def _canonical_pair(p1, p2):
    """Order two point arrays by content so swapped arguments run the same
    computation bit-for-bit (exact estimator symmetry)."""
    k1 = (p1.shape, p1.tobytes())
    k2 = (p2.shape, p2.tobytes())
    return (p1, p2) if k1 <= k2 else (p2, p1)


def _col_means(vals):
    """Column means with a canonical summation order, so permutations of the
    same sample give bitwise-identical means (relabeled copies measure 0).
    Columns sort as contiguous rows; a C-ordered mean adds them in order."""
    cols = np.array(vals.T, order="C")
    cols.sort(axis=1)
    return np.ascontiguousarray(cols.T).mean(axis=0)


def _percentile_ci(samples):
    if not samples.size:
        return (np.nan, np.nan)
    lo = (1.0 - BOOTSTRAP_CI) / 2.0
    return (
        float(np.quantile(samples, lo)),
        float(np.quantile(samples, 1.0 - lo)),
    )


def _bootstrap_gaps(v1, v2, bootstrap, rng):
    """max_j |mean v1[:, j] - mean v2[:, j]| for each of ``bootstrap``
    resamples of the rows of v1 and v2.

    Each resample draws ``rng.integers`` for v1, then for v2, in the order a
    loop of fancy-indexed means would; the draws become rows of counts, and
    one matrix product gives every resampled mean.
    """
    n1, n2 = v1.shape[0], v2.shape[0]
    c1 = np.empty((bootstrap, n1))
    c2 = np.empty((bootstrap, n2))
    for r in range(bootstrap):
        c1[r] = np.bincount(rng.integers(0, n1, n1), minlength=n1)
        c2[r] = np.bincount(rng.integers(0, n2, n2), minlength=n2)
    return np.abs(c1 @ v1 / n1 - c2 @ v2 / n2).max(axis=1)


def bl_distance_1d(law1: EmpiricalLaw, law2: EmpiricalLaw,
                   bootstrap=BOOTSTRAP_RESAMPLES, seed=0) -> DistanceReport:
    """Exact dual-Lipschitz distance between one-dimensional empirical laws.

    The point estimate and the noise floor (the same distance between the
    odd and even halves of each sample) come from ``_bl1d_exact``: a
    slope-trick DP at fixed Lipschitz budget inside a tangent-line search
    over the budget; a floor solve stops where it cannot raise the floor,
    which is unchanged bit for bit.  The bootstrap CI resamples the means of
    the *optimal* potential found on the full samples (a fixed 1-Lipschitz-
    plus-sup-normalized test function): cheap, and adequate for the trend
    assertions the CI feeds.
    """
    if law1.dim != 1 or law2.dim != 1:
        raise ValueError("bl_distance_1d needs one-dimensional laws")
    a, b = _canonical_pair(law1.points.ravel(), law2.points.ravel())
    est, grid, fstar = _bl1d_exact(*_merged_support(a, b))
    floor = _noise_floor(0.0, (a, b))
    fa = np.interp(a, grid, fstar)
    fb = np.interp(b, grid, fstar)
    rng = np.random.default_rng(seed)
    ci = _percentile_ci(_bootstrap_gaps(fa[:, None], fb[:, None], bootstrap, rng))
    return DistanceReport(
        estimate=float(est),
        bootstrap_ci=ci,
        noise_floor=float(floor),
    )


# ---------------------------------------------------------------------------
# multi-dimensional lower-bound estimator
# ---------------------------------------------------------------------------


def _sorted_quantile(rows, q):
    """np.quantile(rows, q, axis=1), 0 <= q < 1, of rows sorted along axis 1."""
    i, t = divmod((rows.shape[1] - 1) * q, 1)
    a, b = rows[:, int(i)], rows[:, int(i) + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


class _RampFamily:
    """Test functions clamp(kappa ((x - c).u - b), -1, 1) / (1 + kappa).

    Directions are uniform on the sphere; slopes follow a geometric ladder
    scaled to the pooled projection spread; offsets sit inside the pooled
    projection range.  Each member satisfies Lip(f) + sup|f| <= 1 exactly.
    """

    def __init__(self, pooled, feature_count, seed):
        d = pooled.shape[1]
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((feature_count, d))
        norms = np.linalg.norm(u, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.u = u / norms
        self.center = pooled.mean(axis=0)
        # one contiguous row of projections per feature, sorted: faster than partitions
        proj = np.array(((pooled - self.center) @ self.u.T).T, order="C")
        proj.sort(axis=1)
        lo, hi = _sorted_quantile(proj, 0.05), _sorted_quantile(proj, 0.95)
        np.abs(proj, out=proj).sort(axis=1)
        spread = np.maximum(_sorted_quantile(proj, 0.9), 1e-9)
        ladder = 2.0 ** rng.integers(-2, 5, feature_count)
        self.kappa = ladder / spread
        self.b = lo + (hi - lo) * rng.random(feature_count)

    def evaluate(self, points):
        t = (points - self.center) @ self.u.T
        return np.clip(self.kappa * (t - self.b), -1.0, 1.0) / (1.0 + self.kappa)


def bl_distance_nd(law1: EmpiricalLaw, law2: EmpiricalLaw, feature_count=256,
                   seed=0, bootstrap=BOOTSTRAP_RESAMPLES) -> DistanceReport:
    """Lower-bound dual-Lipschitz distance in R^d.

    The estimate is the larger of (i) the best ramp test function from a
    seeded family with Lip + sup <= 1 and (ii) the largest coordinate-marginal
    exact 1d distance; both are reported.  The bootstrap CI resamples the
    fixed family (ramps plus the optimal marginal potentials), the standard
    cheap linearization.  Being a LOWER bound, threshold acceptance must pair
    it with the exact marginal component, which is included by construction.
    Its floor's 1-d solves stop where they cannot raise the floor, which
    starts from the halves' ramp gaps and is unchanged bit for bit.
    """
    if law1.dim != law2.dim:
        raise ValueError("laws have different dimensions")
    if feature_count < 64:
        raise ValueError("feature_count must be >= 64")
    p1, p2 = _canonical_pair(law1.points, law2.points)
    d = p1.shape[1]
    pooled = np.concatenate([p1, p2], axis=0)
    family = _RampFamily(pooled, feature_count, seed)
    f1 = family.evaluate(p1)
    f2 = family.evaluate(p2)

    marg_vals = []
    pots1 = np.empty((p1.shape[0], d))
    pots2 = np.empty((p2.shape[0], d))
    for j in range(d):
        a, b = p1[:, j], p2[:, j]
        est_j, grid, fstar = _bl1d_exact(*_merged_support(a, b))
        marg_vals.append(est_j)
        pots1[:, j] = np.interp(a, grid, fstar)
        pots2[:, j] = np.interp(b, grid, fstar)
    feature_max = float(np.abs(_col_means(f1) - _col_means(f2)).max())
    marginal_max = float(max(marg_vals)) if marg_vals else 0.0
    estimate = max(feature_max, marginal_max)

    # noise floor: same estimator between odd/even halves of each law
    ramps = (np.abs(_col_means(family.evaluate(pts[0::2]))
                    - _col_means(family.evaluate(pts[1::2]))).max() for pts in (p1, p2))
    floor = _noise_floor(float(max(0.0, *ramps)), [pts[:, j] for pts in (p1, p2) for j in range(d)])

    rng = np.random.default_rng(seed + 1)
    ci = _percentile_ci(_bootstrap_gaps(np.concatenate([f1, pots1], axis=1),
                                        np.concatenate([f2, pots2], axis=1),
                                        bootstrap, rng))
    return DistanceReport(
        estimate=float(estimate),
        bootstrap_ci=ci,
        noise_floor=float(floor),
        feature_max=feature_max,
        marginal_max=marginal_max,
    )


# ---------------------------------------------------------------------------
# mixing profiles and convergence tables
# ---------------------------------------------------------------------------


def _state_tag(v):
    digest = hashlib.sha256(np.asarray(v, dtype=complex).tobytes()).digest()
    return int.from_bytes(digest[:8], "little")


def mixing_profile(spec, variant, v1, v2, T, dtau, n_paths, seed, times,
                   feature_count=256, bootstrap=BOOTSTRAP_RESAMPLES):
    """Empirical mixing profile: distance between the laws started at v1, v2,
    as one ``ConvergenceRow`` (eps = spec.epsilon) per distinct time, in
    ascending order of time.

    Ensembles are independent unless v1 == v2 (seeds derive from the initial
    state, so equal states with equal seeds reproduce identical ensembles and
    the profile is exactly zero).  Sampling finitely many initial pairs
    under-estimates the uniform-over-ball mixing envelope.
    """
    times = sorted({float(t) for t in times})
    e1, e2 = (sde.simulate_effective(spec, variant, v, T, dtau, n_paths, seed=(seed, _state_tag(v)),
                                     record_times=times) for v in (v1, v2))
    return distance_rows(spec.epsilon, e1, e2, times, seed, bootstrap, feature_count)


@dataclass(frozen=True)
class ConvergenceRow:
    """One row of a distance table (the schema of ``write_distance_table``):
    convergence tables and mixing profiles both write them."""

    eps: float
    time: float
    estimate: float
    ci_lo: float
    ci_hi: float
    noise_floor: float


def distance_rows(eps, ens1, ens2, times, seed, bootstrap, feature_count=256):
    """One ``ConvergenceRow`` per time: the distance between the laws of two
    ensembles recorded at ``times``; with ``bootstrap=0`` its CI is nan."""
    rows = []
    for t in times:
        rep = bl_distance_nd(law_from_ensemble(ens1, t), law_from_ensemble(ens2, t),
                             feature_count=feature_count, seed=seed, bootstrap=bootstrap)
        rows.append(ConvergenceRow(eps=eps, time=t, estimate=rep.estimate, ci_lo=rep.bootstrap_ci[0],
                                   ci_hi=rep.bootstrap_ci[1], noise_floor=rep.noise_floor))
    return rows


def convergence_trend(rows):
    """The convergence check of an epsilon sweep at one time, rows in the
    order of decreasing epsilon: whether the distances strictly decrease,
    and whether the last is at most twice its noise floor."""
    decreasing = all(a.estimate > b.estimate for a, b in zip(rows, rows[1:]))
    return decreasing, rows[-1].estimate <= 2.0 * rows[-1].noise_floor


def map_units(fn, units, workers):
    """``[fn(u) for u in units]``, in unit order.  With more than one worker and
    more than one unit the calls run in min(workers, units) spawned processes:
    ``fn`` and the units must pickle, and a calling script needs a ``__main__`` guard."""
    units = list(units)
    if workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    path = getattr(sys.modules["__main__"], "__file__", None)
    if path and not os.path.isfile(path):  # read from stdin: spawned workers cannot import it
        raise StochavgError(f"worker processes cannot import __main__ ({path}); run the command "
                            f'from a script file, under `if __name__ == "__main__":`')
    # imported here: a run that starts no pool does not load multiprocessing
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if getattr(multiprocessing.current_process(), "_inheriting", False):
        raise SystemExit(1)  # a worker re-running an unguarded script: no traceback
    with ProcessPoolExecutor(min(workers, len(units)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, units))


def _epsilon_rows(spec, v0, T, n_paths, times, seed, bootstrap, act_eff, unit):
    """The rows of ``convergence_table`` for unit (i, eps), the i-th epsilon,
    against the effective actions ``act_eff``."""
    i, eps = unit
    pert = sde.simulate_perturbed(dataclasses.replace(spec, epsilon=eps), v0, T,
                                  min(eps / 5.0, EFF_DTAU), n_paths, seed=(seed, 101, i),
                                  record_times=times)
    return distance_rows(eps, pert.actions(), act_eff, times, seed, bootstrap)


def convergence_table(spec, v0, eps_list, T, n_paths, times, seed,
                      bootstrap=BOOTSTRAP_RESAMPLES, workers=1):
    """Action-law distances between the perturbed system and the effective
    equation across an epsilon sweep.

    The effective equation does not depend on epsilon, so it is simulated
    once, in the calling process, at dtau = EFF_DTAU, and every row compares
    against that one ensemble.  The perturbed system is simulated for each
    epsilon at dtau = min(eps/5, EFF_DTAU), so that discretization bias
    never grows as epsilon shrinks.  Rows report the distance between the
    action laws at each distinct requested time, in ascending order.  Each
    epsilon seeds its own perturbed noise, so the rows do not depend on how
    many ``workers`` processes ``map_units`` uses.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    times = sorted({float(t) for t in times})
    act_eff = sde.simulate_effective(spec, "full", v0, T, EFF_DTAU, n_paths, seed=(seed, 202, 0),
                                     record_times=times).actions()
    rows_of = functools.partial(_epsilon_rows, spec, v0, T, n_paths, times, seed, bootstrap, act_eff)
    return [r for rows in map_units(rows_of, enumerate(eps_list), workers) for r in rows]


def write_distance_table(rows, out, stem, metric="bl_action_distance"):
    """Write the rows as ``<stem>.csv`` and ``<stem>.json`` in directory ``out``,
    one record per row: eps,time,metric,estimate,ci_lo,ci_hi,noise_floor."""
    fields = ("eps", "time", "metric", "estimate", "ci_lo", "ci_hi", "noise_floor")
    records = [dict(dataclasses.asdict(r), metric=metric) for r in rows]
    lines = [",".join(fields)] + [
        ",".join(metric if k == "metric" else repr(rec[k]) for k in fields) for rec in records]
    Path(out, f"{stem}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    Path(out, f"{stem}.json").write_text(json.dumps(records, indent=2, sort_keys=True))
