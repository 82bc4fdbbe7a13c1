import dataclasses
import heapq

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from stochavg import (
    ACCEPTANCE_V0,
    EmpiricalLaw,
    acceptance_system,
    bl_distance_1d,
    bl_distance_nd,
    convergence_table,
    law_from_ensemble,
    mixing_profile,
    parse_field_expr,
    sde,
    simulate_effective,
    simulate_perturbed,
)
from stochavg.model import Frequencies, SystemSpec
from stochavg.stats import (
    ConvergenceRow,
    _bl1d_exact,
    _bl1d_pass,
    _bootstrap_gaps,
    _canonical_pair,
    _col_means,
    _merged_support,
    _RampFamily,
    _sorted_quantile,
    convergence_trend,
)


def law(points, **kw):
    return EmpiricalLaw(points=np.asarray(points, dtype=float), **kw)


def _bl1d_lp(x1, x2):
    """Oracle for ``_bl1d_exact``: the whole problem as one HiGHS LP.

    Variables (f_1..f_m, L): maximize sum_i w_i f_i subject to
    |f_{i+1} - f_i| <= L (x_{i+1} - x_i), |f_i| <= 1 - L and 0 <= L <= 1.
    Every constraint is linear in (f, L) jointly, so one LP gives the exact
    supremum including the optimal Lip/sup trade-off.
    """
    x, w = _merged_support(np.asarray(x1, float).ravel(), np.asarray(x2, float).ravel())[:2]
    m = x.size
    if m == 1 or not np.any(w):
        return 0.0, x, np.zeros(m)
    d = np.diff(x)
    c = np.concatenate([-w, [0.0]])
    mm = m - 1
    rows = np.concatenate([
        np.repeat(np.arange(mm), 3),
        np.repeat(np.arange(mm, 2 * mm), 3),
        np.repeat(np.arange(2 * mm, 2 * mm + m), 2),
        np.repeat(np.arange(2 * mm + m, 2 * mm + 2 * m), 2),
    ])
    idx = np.arange(m)
    slope_cols = np.column_stack([idx[1:], idx[:-1], np.full(mm, m)]).ravel()
    box_cols = np.column_stack([idx, np.full(m, m)]).ravel()
    cols = np.concatenate([slope_cols, slope_cols, box_cols, box_cols])
    ones = np.ones(mm)
    vals = np.concatenate([
        np.column_stack([ones, -ones, -d]).ravel(),
        np.column_stack([-ones, ones, -d]).ravel(),
        np.column_stack([np.ones(m), np.ones(m)]).ravel(),
        np.column_stack([-np.ones(m), np.ones(m)]).ravel(),
    ])
    A = sp.csc_matrix((vals, (rows, cols)), shape=(2 * mm + 2 * m, m + 1))
    rhs = np.concatenate([np.zeros(2 * mm), np.ones(2 * m)])
    bounds = [(-1.0, 1.0)] * m + [(0.0, 1.0)]
    res = linprog(c, A_ub=A, b_ub=rhs, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return max(0.0, -res.fun), x, res.x[:m]


def _random_support(rng, k):
    """Two samples of unequal random sizes at a random scale in [0.01, 5];
    every other case is rounded to a coarse lattice so that points tie
    within and across the samples."""
    n1, n2 = (int(n) for n in rng.integers(2, 90, 2))
    scale = float(np.exp(rng.uniform(np.log(0.01), np.log(5.0))))
    x1 = rng.normal(size=n1)
    x2 = rng.normal(size=n2) * rng.uniform(0.5, 2.0) + rng.normal()
    if k % 2:
        x1, x2 = np.round(3 * x1) / 3, np.round(3 * x2) / 3
    return x1 * scale, x2 * scale


def _heap_move(src, dst, rem, x, L, c):
    """Move slope weight ``rem`` from the innermost breakpoints of ``src`` to
    ``dst`` (see ``_heap_pass`` for the heap layout); past the wall, the wall
    itself supplies it."""
    push = heapq.heappush
    while True:
        if src:
            top = src[0]
            a, b = top[2], top[1] + x
            p = a + b * L
            if p > c or (p == c and b >= -1.0):  # at or beyond the wall
                src.clear()
        if not src:
            bs = 1.0 - x
            push(dst, (-1.0 + bs * L, bs, -1, rem))
            return
        bs = -b - x
        weight = top[3]
        if weight > rem:
            src[0] = (top[0], top[1], a, weight - rem)
            push(dst, (-a + bs * L, bs, -a, rem))
            return
        heapq.heappop(src)
        push(dst, (-a + bs * L, bs, -a, weight))
        rem -= weight
        if rem <= 0.0:
            return


def _heap_inner(heap, x, L, c):
    """(alpha, beta) of the innermost breakpoint of ``heap``, or of the wall."""
    if heap:
        top = heap[0]
        a, b = top[2], top[1] + x
        p = a + b * L
        if p < c or (p == c and b < -1.0):
            return a, b
        heap.clear()
    return 1, -1.0


def _heap_pass(X, w, L):
    """Oracle for ``_bl1d_pass``: the same slope-trick DP with each side of
    the maximum in a min-heap of (alpha + beta_s L, beta_s, alpha, weight),
    which orders the breakpoints by position at every push and pop instead
    of relying on the order never changing.  The backward pass is the same.
    """
    m = len(X)
    c = 1.0 - L
    left, right = [], []
    inner = [None] * m
    for i in range(m):
        x, wi = X[i], w[i]
        if wi > 0.0:
            _heap_move(right, left, wi, x, L, c)
        elif wi < 0.0:
            _heap_move(left, right, -wi, x, L, c)
        a, b = _heap_inner(left, x, L, c)
        inner[i] = (-a, -b) + _heap_inner(right, x, L, c)
    alpha = [0] * m
    beta = [0.0] * m
    a, b = inner[m - 1][:2]
    alpha[m - 1], beta[m - 1] = a, b
    for i in range(m - 2, -1, -1):
        la, lb, ha, hb = inner[i]
        d = X[i + 1] - X[i]
        p, pl, ph = a + b * L, la + lb * L, ha + hb * L
        if p < pl or (p == pl and b < lb):
            bu = b + d
            pu = a + bu * L
            if pl > pu or (pl == pu and lb > bu):
                b = bu
            else:
                a, b = la, lb
        elif p > ph or (p == ph and b > hb):
            bd = b - d
            pd = a + bd * L
            if ph < pd or (ph == pd and hb < bd):
                b = bd
            else:
                a, b = ha, hb
        alpha[i], beta[i] = a, b
    return np.array(alpha, dtype=float), np.array(beta)


# -- exact 1d distance ---------------------------------------------------------

def test_bl1d_stack_pass_matches_the_heap_pass_bitwise():
    # supports of unequal random sizes, every third on a coarse lattice (ties
    # within and across the samples, and zero merged weights where equal
    # sizes cancel), every third with a pile at 0 like clamped actions; some
    # weights are zeroed outright.  L is uniform on (0, 1): at the measure-
    # zero L where two breakpoints tie in position after rounding, the two
    # passes may break the tie differently.
    rng = np.random.default_rng(14)
    zero_weights = 0
    for k in range(2400):
        n1 = int(rng.integers(2, 120))
        n2 = n1 if k % 7 == 0 else int(rng.integers(2, 120))
        x1 = rng.normal(size=n1)
        x2 = rng.normal(size=n2) * rng.uniform(0.3, 3.0) + rng.normal()
        if k % 3 == 1:
            x1, x2 = np.round(3 * x1) / 3, np.round(3 * x2) / 3
        elif k % 3 == 2:
            x1, x2 = np.abs(x1), np.abs(x2)
            x1[rng.random(n1) < 0.4] = 0.0
            x2[rng.random(n2) < 0.3] = 0.0
        x, w = _merged_support(x1 * np.exp(rng.uniform(-4.0, 2.0)), x2)[:2]
        X, wl = (x - x[0]).tolist(), w.tolist()
        if k % 5 == 0:
            wl[int(rng.integers(len(wl)))] = 0.0
        zero_weights += wl.count(0.0) > 0
        L = float(rng.random())
        alpha, beta = _bl1d_pass(X, wl, L)
        want_alpha, want_beta = _heap_pass(X, wl, L)
        assert alpha.tobytes() == want_alpha.tobytes(), k
        assert beta.tobytes() == want_beta.tobytes(), k
    assert zero_weights > 480


def test_bl1d_stack_pass_matches_the_heap_pass_at_the_search_budgets(monkeypatch):
    # the L values the tangent search visits on a 1000 + 1000 point solve
    rng = np.random.default_rng(15)
    seen = []

    def both(X, w, L):
        got = _bl1d_pass(X, w, L)
        want = _heap_pass(X, w, L)
        seen.append(got[0].tobytes() == want[0].tobytes()
                    and got[1].tobytes() == want[1].tobytes())
        return got

    monkeypatch.setattr("stochavg.stats._bl1d_pass", both)
    _bl1d_exact(*_merged_support(rng.normal(size=1000), rng.normal(size=1000) * 1.1 + 0.1))
    assert len(seen) >= 4 and all(seen)


def test_bl1d_identical_samples_is_zero():
    rep = bl_distance_1d(law([0.3, 1.2, -0.5]), law([0.3, 1.2, -0.5]), bootstrap=0)
    assert rep.estimate == 0.0


def test_bl1d_point_masses_at_distance_two():
    # optimizer s = |x|/(2+|x|) gives distance 2|x|/(2+|x|) = 1 at x = 2
    rep = bl_distance_1d(law([0.0, 0.0]), law([2.0, 2.0]), bootstrap=0)
    assert rep.estimate == pytest.approx(1.0, abs=1e-9)


def test_bl1d_far_point_masses_approach_two():
    for x, want in ((20.0, 40 / 22), (2000.0, 4000 / 2002)):
        rep = bl_distance_1d(law([0.0, 0.0]), law([x, x]), bootstrap=0)
        assert rep.estimate == pytest.approx(want, abs=1e-9)
    assert rep.estimate < 2.0


def test_bl1d_symmetry_exact():
    rng = np.random.default_rng(0)
    a = law(rng.normal(size=500))
    b = law(rng.normal(size=400) + 0.7)
    r1 = bl_distance_1d(a, b, bootstrap=50, seed=3)
    r2 = bl_distance_1d(b, a, bootstrap=50, seed=3)
    assert r1.estimate == r2.estimate
    assert r1.noise_floor == r2.noise_floor
    assert r1.bootstrap_ci == r2.bootstrap_ci


def test_bl1d_triangle_inequality():
    rng = np.random.default_rng(1)
    a = law(rng.normal(size=300))
    b = law(rng.normal(size=300) + 0.5)
    c = law(rng.normal(size=300) + 1.5)
    dab = bl_distance_1d(a, b, bootstrap=0).estimate
    dbc = bl_distance_1d(b, c, bootstrap=0).estimate
    dac = bl_distance_1d(a, c, bootstrap=0).estimate
    assert dac <= dab + dbc + 1e-9


def test_bl1d_upper_bounds():
    # distance never exceeds 2, and never exceeds the trivial sup bound
    rng = np.random.default_rng(2)
    a = law(rng.normal(size=200) * 50)
    b = law(rng.normal(size=200) * 50 + 300)
    rep = bl_distance_1d(a, b, bootstrap=0)
    assert 0 <= rep.estimate <= 2.0


def test_bl1d_lp_against_dense_profile_search():
    # independent oracle: brute-force over piecewise-linear candidate potentials
    # f(x) = clip(s * (x - b), -c, c) with Lip + sup <= 1 enforced by rescaling
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=120)
    x2 = rng.normal(size=130) + 1.0
    exact, _, _ = _bl1d_exact(*_merged_support(x1, x2))
    best = 0.0
    for s in np.geomspace(0.05, 20, 60):
        for b in np.linspace(-3, 4, 80):
            f1 = np.clip(s * (x1 - b), -1, 1) / (1 + s)
            f2 = np.clip(s * (x2 - b), -1, 1) / (1 + s)
            best = max(best, abs(f1.mean() - f2.mean()))
    assert exact >= best - 1e-12
    assert exact <= best * 1.35 + 1e-6  # ramp family is near-optimal in 1d


def test_bl1d_dp_matches_lp_oracle_on_random_supports():
    rng = np.random.default_rng(10)
    for k in range(240):
        x1, x2 = _random_support(rng, k)
        dp, grid, _ = _bl1d_exact(*_merged_support(x1, x2))
        lp, lp_grid, _ = _bl1d_lp(x1, x2)
        np.testing.assert_array_equal(grid, lp_grid)
        assert abs(dp - lp) <= 1e-12, (k, dp, lp)


def test_bl1d_dp_matches_lp_oracle_on_tied_lattice_supports():
    # 2-6 points per sample on {0, 0.5, ..., 2.5}: at budgets such as
    # fl(2/3), lines of unequal alpha tie in position after rounding, and the
    # tie-broken slope once sent the tangent search the wrong way (the first
    # case read 1/6 against the optimum 4/21)
    rng = np.random.default_rng(16)
    cases = [(np.array([0.0, 1.0, 0.5]), np.array([1.5, 1.0, 0.5, 1.5, 0.5, 0.0]))]
    cases += [[rng.integers(0, 6, int(rng.integers(2, 7))) * 0.5 for _ in range(2)]
              for _ in range(4000)]
    for k, (x1, x2) in enumerate(cases):
        dp, lp = _bl1d_exact(*_merged_support(x1, x2))[0], _bl1d_lp(x1, x2)[0]
        assert abs(dp - lp) <= 1e-12, (k, x1, x2, dp, lp)


def test_bl1d_dp_matches_lp_oracle_at_1000_points():
    rng = np.random.default_rng(11)
    x1 = rng.normal(size=1000)
    x2 = rng.normal(size=1000) * 1.1 + 0.1
    dp = _bl1d_exact(*_merged_support(x1, x2))[0]
    assert dp > 0.01
    assert abs(dp - _bl1d_lp(x1, x2)[0]) <= 1e-12


def test_bl1d_potential_is_a_certificate():
    # the returned potential is feasible for the budget L* = 1 - max|f| (the
    # largest budget its sup norm allows; at the optimum the box is tight)
    # and attains the estimate, so the estimate is a certified lower bound
    # and the oracle match above makes it the supremum
    rng = np.random.default_rng(12)
    for k in range(200):
        x1, x2 = _random_support(rng, k)
        est, grid, f = _bl1d_exact(*_merged_support(x1, x2))
        w = _merged_support(x1, x2)[1]
        Lstar = 1.0 - np.abs(f).max()
        assert -1e-12 <= Lstar <= 1.0
        assert np.all(np.abs(f) <= 1.0 - Lstar)
        assert np.all(np.abs(np.diff(f)) <= Lstar * np.diff(grid) + 1e-12)
        assert abs(float(w @ f) - est) <= 1e-15


def test_bl1d_below_stops_only_solves_that_cannot_exceed_it():
    # a solve whose value exceeds ``below``, even by one ulp, runs to closure
    # and returns the unpruned value and potential; a stopped one returns at
    # most ``below``
    rng = np.random.default_rng(17)
    stopped = 0
    for k in range(200):
        problem = _merged_support(*_random_support(rng, k))
        want, _, fwant = _bl1d_exact(*problem)
        for below in (np.nextafter(want, 0.0), 0.999 * want, want, 0.5 * want, 1.5 * want,
                      float(rng.uniform(0.0, 2.0 * want))):
            got, _, f = _bl1d_exact(*problem, below=below)
            if want > below:
                assert got == want and f.tobytes() == fwant.tobytes(), (k, below)
            else:
                assert got <= below, (k, below, got)
                stopped += got < want
    assert stopped > 100


def _passes(monkeypatch):
    """Count the DP passes run from now on: a one-element list."""
    count = [0]

    def counted(X, w, L):
        count[0] += 1
        return _bl1d_pass(X, w, L)

    monkeypatch.setattr("stochavg.stats._bl1d_pass", counted)
    return count


def test_the_noise_floor_prune_keeps_an_epsilon_sweep_within_its_pass_budget(monkeypatch):
    # the sizes of the eps_sweep bench workload: run to closure, every solve
    # takes 149 passes in all; pruned half-sample solves bring that to 91
    count = _passes(monkeypatch)
    convergence_table(acceptance_system(), ACCEPTANCE_V0, [0.2, 0.05, 0.0125], T=1.0,
                      n_paths=1000, times=[1.0], seed=12345, bootstrap=0)
    assert 0 < count[0] <= 99


def test_bootstrap_counts_match_indexed_resample_loop():
    rng = np.random.default_rng(13)
    for v1, v2 in ((rng.normal(size=(300, 1)), rng.normal(size=(250, 1))),
                   (rng.normal(size=(400, 7)), rng.normal(size=(380, 7)) + 0.1)):
        loop_rng = np.random.default_rng(5)
        want = np.empty(60)
        for r in range(want.size):
            i1 = loop_rng.integers(0, v1.shape[0], v1.shape[0])
            i2 = loop_rng.integers(0, v2.shape[0], v2.shape[0])
            want[r] = np.abs(v1[i1].mean(axis=0) - v2[i2].mean(axis=0)).max()
        got = _bootstrap_gaps(v1, v2, want.size, np.random.default_rng(5))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert _bootstrap_gaps(v1, v2, 0, rng).shape == (0,)


def test_bl1d_rejects_multidimensional():
    with pytest.raises(ValueError):
        bl_distance_1d(law(np.zeros((5, 2))), law(np.zeros((5, 2))))


# -- lower-bound nd estimator -----------------------------------------------------

@pytest.mark.parametrize("points, features", [(333, 71), (1001, 129), (64, 257)])
def test_ramp_quantiles_and_column_means_match_their_axis0_forms(points, features):
    rng = np.random.default_rng(16)
    pooled = rng.normal(size=(points, 3)) * [1.0, 0.2, 3.0]
    family = _RampFamily(pooled, features, seed=4)
    # the axis-0 forms on the (points, features) projections
    proj = (pooled - family.center) @ family.u.T
    ref = np.random.default_rng(4)
    ref.standard_normal((features, 3))
    lo = np.quantile(proj, 0.05, axis=0)
    hi = np.quantile(proj, 0.95, axis=0)
    spread = np.maximum(np.quantile(np.abs(proj), 0.9, axis=0), 1e-9)
    assert family.kappa.tobytes() == (2.0 ** ref.integers(-2, 5, features) / spread).tobytes()
    assert family.b.tobytes() == (lo + (hi - lo) * ref.random(features)).tobytes()
    vals = family.evaluate(rng.normal(size=(points, 3)))
    assert _col_means(vals).tobytes() == np.sort(vals, axis=0).mean(axis=0).tobytes()
    assert _col_means(vals[::-1]).tobytes() == _col_means(vals).tobytes()
    before = vals.copy()
    _col_means(vals)
    assert vals.tobytes() == before.tobytes()  # sorts a copy


def test_sorted_quantile_matches_np_quantile():
    # rows of 2..300 values, a third of them on a lattice with ties; signed
    # zeros are normalised, as sort and partition may order -0.0 and 0.0 apart
    rng = np.random.default_rng(18)
    for k in range(600):
        rows = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(2, 300))))
        if k % 3 == 0:
            rows = np.round(3 * rows) / 3 + 0.0
        for q in (0.05, 0.9, 0.95, float(rng.random())):
            want = np.quantile(rows, q, axis=1)
            assert _sorted_quantile(np.sort(rows, axis=1), q).tobytes() == want.tobytes(), (k, q)


def test_blnd_identical_and_relabeled():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(300, 2))
    rep = bl_distance_nd(law(pts), law(pts[::-1]), feature_count=64, bootstrap=0)
    assert rep.estimate == 0.0


def test_blnd_detects_mean_shift():
    rng = np.random.default_rng(5)
    a = law(rng.normal(size=(4000, 2)))
    b = law(rng.normal(size=(4000, 2)) + np.array([1.0, 0.0]))
    rep = bl_distance_nd(a, b, feature_count=128, seed=0, bootstrap=0)
    assert rep.estimate > 5 * rep.noise_floor
    assert rep.feature_max <= rep.estimate + 1e-15
    assert rep.marginal_max <= rep.estimate + 1e-15


def test_blnd_symmetry_exact():
    rng = np.random.default_rng(6)
    a = law(rng.normal(size=(200, 3)))
    b = law(rng.normal(size=(200, 3)) + 0.4)
    r1 = bl_distance_nd(a, b, feature_count=64, seed=1, bootstrap=20)
    r2 = bl_distance_nd(b, a, feature_count=64, seed=1, bootstrap=20)
    assert r1.estimate == r2.estimate
    assert r1.noise_floor == r2.noise_floor
    assert r1.bootstrap_ci == r2.bootstrap_ci


def test_blnd_point_mass_closed_form():
    # point masses at euclidean distance r have distance 2r/(2+r)
    p = np.array([2.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 2.0, 0.0])
    r = np.linalg.norm(p - q)
    want = 2 * r / (2 + r)
    a = law(np.tile(p, (50, 1)))
    b = law(np.tile(q, (50, 1)))
    rep = bl_distance_nd(a, b, feature_count=512, seed=0, bootstrap=0)
    assert rep.estimate <= want + 1e-9          # lower bound stays a lower bound
    assert rep.estimate >= 0.80 * want          # and the family nearly attains it


def test_blnd_triangle_up_to_estimator_noise():
    rng = np.random.default_rng(7)
    a = law(rng.normal(size=(500, 2)))
    b = law(rng.normal(size=(500, 2)) + 0.4)
    c = law(rng.normal(size=(500, 2)) + 0.8)
    kw = dict(feature_count=64, seed=2, bootstrap=0)
    dab = bl_distance_nd(a, b, **kw)
    dbc = bl_distance_nd(b, c, **kw)
    dac = bl_distance_nd(a, c, **kw)
    noise = max(dab.noise_floor, dbc.noise_floor, dac.noise_floor)
    assert dac.estimate <= dab.estimate + dbc.estimate + 2 * noise


def test_blnd_dimension_mismatch():
    with pytest.raises(ValueError):
        bl_distance_nd(law(np.zeros((5, 2))), law(np.zeros((5, 3))))


def test_noise_floor_consistency():
    # distance between two independent same-law ensembles stays within 3x the
    # reported floor in most repetitions
    rng = np.random.default_rng(8)
    hits = 0
    trials = 20
    for _ in range(trials):
        a = law(rng.normal(size=(600, 2)))
        b = law(rng.normal(size=(600, 2)))
        rep = bl_distance_nd(a, b, feature_count=64, seed=0, bootstrap=0)
        if rep.estimate <= 3 * rep.noise_floor:
            hits += 1
    assert hits >= int(0.85 * trials)


def _unpruned_floor_nd(p1, p2, feature_count, seed):
    """Oracle for the noise floor of ``bl_distance_nd``: every half-sample
    1-d problem solved to closure, in law and coordinate order."""
    p1, p2 = _canonical_pair(p1, p2)
    family = _RampFamily(np.concatenate([p1, p2], axis=0), feature_count, seed)
    floor = 0.0
    for pts in (p1, p2):
        ha, hb = pts[0::2], pts[1::2]
        fm = float(np.abs(_col_means(family.evaluate(ha)) - _col_means(family.evaluate(hb))).max())
        mm = max(_bl1d_exact(*_merged_support(ha[:, j], hb[:, j]))[0] for j in range(pts.shape[1]))
        floor = max(floor, fm, mm)
    return floor


def _floor_case(rng, k):
    """A law pair in R^d, d = 1..4: continuous, on a tied lattice, point
    masses, samples whose odd and even halves are equal (W1 = mass = 0), or
    a sample and a copy moved by 1e-7 (floor candidates within 1e-6)."""
    d = 1 + k % 4
    n1, n2 = (int(n) for n in rng.integers(4, 80, 2))
    p1 = rng.normal(size=(n1, d))
    p2 = rng.normal(size=(n2, d)) * rng.uniform(0.5, 2.0) + rng.normal(size=d)
    kind = k // 4 % 5
    if kind == 1:
        p1, p2 = np.round(2 * p1) / 2, np.round(2 * p2) / 2
    elif kind == 2:
        p1 = np.tile(p1[:1], (n1, 1))
        p2 = np.tile(p2[:1] if k % 8 else p1[:1], (n2, 1))
    elif kind == 3:
        p1 = np.repeat(p1[: n1 // 2 + 1], 2, axis=0)
        if k % 8:
            p2 = np.repeat(p2[: n2 // 2 + 1], 2, axis=0)
    elif kind == 4:
        p2 = p1 + 1e-7 * rng.normal(size=p1.shape)
    return p1, p2


def test_pruned_noise_floors_equal_the_unpruned_oracle(monkeypatch):
    rng = np.random.default_rng(19)
    count = _passes(monkeypatch)
    pruned = unpruned = 0
    for k in range(240):
        p1, p2 = _canonical_pair(*_floor_case(rng, k))
        a, b = _canonical_pair(p1[:, 0].copy(), p2[:, 0].copy())
        count[0] = 0
        rep = bl_distance_nd(law(p1), law(p2), feature_count=64, seed=k, bootstrap=0)
        rep1 = bl_distance_1d(law(a), law(b), bootstrap=0)
        pruned, count[0] = pruned + count[0], 0
        want = _unpruned_floor_nd(p1, p2, 64, k)
        want1 = max(_bl1d_exact(*_merged_support(s[0::2], s[1::2]))[0] for s in (a, b))
        for x1, x2 in [(a, b)] + [(p1[:, j], p2[:, j]) for j in range(p1.shape[1])]:
            _bl1d_exact(*_merged_support(x1, x2))  # the estimates' solves
        unpruned += count[0]
        assert repr(rep.noise_floor) == repr(want), (k, rep.noise_floor, want)
        assert repr(rep1.noise_floor) == repr(want1), (k, rep1.noise_floor, want1)
    assert pruned < unpruned


# -- ensemble laws ------------------------------------------------------------------

def test_law_from_ensemble_flattens_complex():
    spec = acceptance_system()
    ens = simulate_effective(spec, "full", np.array([1 + 0j, 1j]), T=0.1, dtau=1e-2,
                             n_paths=8, seed=0)
    l = law_from_ensemble(ens, 0.1)
    assert l.dim == 4
    assert l.size == 8
    direct = ens.at_time(0.1)
    np.testing.assert_array_equal(l.points[:, 0], direct[:, 0].real)
    np.testing.assert_array_equal(l.points[:, 1], direct[:, 0].imag)


def test_empirical_law_validation():
    with pytest.raises(ValueError):
        EmpiricalLaw(points=np.array([[1.0]]))
    with pytest.raises(ValueError):
        EmpiricalLaw(points=np.array([[1.0], [np.inf]]))


# -- mixing profile -------------------------------------------------------------------

def test_mixing_profile_same_state_is_exactly_zero():
    spec = acceptance_system()
    v = np.array([1 + 0j, 1 + 0j])
    reps = mixing_profile(spec, "full", v, v, T=0.5, dtau=1e-2, n_paths=64, seed=5,
                          times=[0.25, 0.5], bootstrap=0)
    assert all(r.estimate == 0.0 for r in reps)


def test_mixing_profile_point_mass_contraction():
    # Psi = 0, P = -v: laws are point masses at v e^{-tau}; the distance has
    # the closed form 2r/(2+r) with r = |v1 - v2| e^{-tau}, decreasing in tau
    n = 2
    spec = SystemSpec(
        freqs=Frequencies((1.0, np.sqrt(2.0))),
        epsilon=0.5,
        p1=(parse_field_expr("-v1", n), parse_field_expr("-v2", n)),
        psi=((parse_field_expr("0", n), parse_field_expr("0", n)),
             (parse_field_expr("0", n), parse_field_expr("0", n))),
        psi_kind="constant",
    )
    v1 = np.array([2.0 + 0j, 0j])
    v2 = np.array([0j, 2.0 + 0j])
    times = [0.5, 1.0, 2.0]
    reps = mixing_profile(spec, "full", v1, v2, T=2.0, dtau=1e-3, n_paths=32,
                          seed=1, times=times, feature_count=512, bootstrap=0)
    est = [r.estimate for r in reps]
    assert est[0] > est[1] > est[2]
    for t, r in zip(times, reps):
        dist = np.linalg.norm(v1 - v2) * np.exp(-t)
        want = 2 * dist / (2 + dist)
        assert r.estimate <= want + 1e-9
        assert r.estimate >= 0.75 * want


# -- convergence table -----------------------------------------------------------------

def test_convergence_table_zero_system():
    # P = 0, Psi = 0: actions are constant on both sides; distances vanish up
    # to the rounding drift of the repeated unit rotations in the perturbed
    # integrator
    n = 1
    spec = SystemSpec(
        freqs=Frequencies((1.0,)), epsilon=1.0,
        p1=(parse_field_expr("0", n),),
        psi=((parse_field_expr("0", n),),), psi_kind="constant",
    )
    rows = convergence_table(spec, np.array([1 + 0j]), [0.5, 0.1], T=0.5,
                             n_paths=16, times=[0.5], seed=0, bootstrap=0)
    assert all(r.estimate <= 1e-12 for r in rows)
    assert [r.eps for r in rows] == [0.5, 0.1]


def test_convergence_table_requires_decreasing_eps():
    spec = acceptance_system()
    with pytest.raises(ValueError):
        convergence_table(spec, np.array([1 + 0j, 1 + 0j]), [0.1, 0.2], T=0.5,
                          n_paths=8, times=[0.5], seed=0)


def _trend_rows(estimates, floor=0.01):
    return [ConvergenceRow(eps=0.2 / 4**i, time=1.0, estimate=e, ci_lo=np.nan, ci_hi=np.nan,
                           noise_floor=floor) for i, e in enumerate(estimates)]


def test_convergence_trend_checks_the_decrease_and_the_final_floor():
    assert convergence_trend(_trend_rows([0.3, 0.1, 0.02])) == (True, True)
    assert convergence_trend(_trend_rows([0.3, 0.02, 0.02])) == (False, True)  # not strict
    assert convergence_trend(_trend_rows([0.3, 0.01, 0.02])) == (False, True)
    assert convergence_trend(_trend_rows([0.3, 0.1, 0.0201])) == (True, False)  # > 2 floor
    assert convergence_trend(_trend_rows([0.3, 0.1, 0.02])[-1:]) == (True, True)


def test_convergence_trend_small_scale():
    # scaled-down weak-convergence sanity check; the acceptance suite runs the
    # full-size version
    spec = acceptance_system()
    rows = convergence_table(spec, np.array([1 + 0j, 1 + 0j]), [0.2, 0.0125],
                             T=1.0, n_paths=1200, times=[1.0], seed=3, bootstrap=0)
    assert rows[0].estimate > rows[1].estimate
    assert rows[1].estimate <= 3 * rows[1].noise_floor


def test_effective_equation_does_not_read_epsilon():
    # convergence_table simulates it once for every epsilon of a table
    spec = acceptance_system()
    for variant in ("full", "modified"):
        a, b = (simulate_effective(dataclasses.replace(spec, epsilon=e), variant, ACCEPTANCE_V0,
                                   T=0.2, dtau=1e-3, n_paths=64, seed=(9, 1)).values
                for e in (0.2, 0.0125))
        assert a.tobytes() == b.tobytes()


def test_convergence_table_simulates_the_effective_equation_once(monkeypatch):
    calls = []

    def spy(*args, **kw):
        calls.append(kw["seed"])
        return simulate_effective(*args, **kw)

    monkeypatch.setattr(sde, "simulate_effective", spy)
    spec = acceptance_system()
    kw = dict(T=1.0, n_paths=200, times=[0.5, 1.0], seed=4, bootstrap=20)
    rows = convergence_table(spec, ACCEPTANCE_V0, [0.2, 0.05, 0.0125], **kw)
    assert calls == [(4, 202, 0)]
    assert [r.eps for r in rows] == [0.2, 0.2, 0.05, 0.05, 0.0125, 0.0125]
    # row 0 of any table is the one-epsilon table, bit for bit
    alone = convergence_table(spec, ACCEPTANCE_V0, [0.2], **kw)
    assert [repr(dataclasses.astuple(r)) for r in rows[:2]] == \
        [repr(dataclasses.astuple(r)) for r in alone]


def test_perturbed_states_converge_to_the_full_effective_law_only():
    # Krylov-Bogoliubov sense: the interaction representation a^eps tends in
    # law, as states in R^4, to the full effective equation, which carries the
    # hamiltonian part; the modified one has the same action law but not the
    # same state law
    spec = acceptance_system()
    n_paths, seed = 2000, 2024
    eff = {variant: law_from_ensemble(simulate_effective(
        spec, variant, ACCEPTANCE_V0, T=1.0, dtau=1e-3, n_paths=n_paths, seed=(seed, 131, k),
        record_times=[1.0]), 1.0) for k, variant in enumerate(("full", "modified"))}
    to_full, to_modified = [], []
    for i, eps in enumerate([0.2, 0.05, 0.0125]):
        pert = simulate_perturbed(dataclasses.replace(spec, epsilon=eps), ACCEPTANCE_V0, T=1.0,
                                  dtau=1e-3, n_paths=n_paths, seed=(seed, 132, i),
                                  record_times=[1.0])
        a = law_from_ensemble(pert.a, 1.0)
        to_full.append(bl_distance_nd(a, eff["full"], seed=seed, bootstrap=0))
        to_modified.append(bl_distance_nd(a, eff["modified"], seed=seed, bootstrap=0))
    est = [r.estimate for r in to_full]
    assert est[0] > est[1] > est[2]
    assert est[2] <= 2.0 * to_full[2].noise_floor
    assert all(r.estimate > 3.0 * r.noise_floor for r in to_modified)
