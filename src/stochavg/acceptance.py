"""Acceptance criteria suite.

Each criterion is a self-contained check with its tolerances pinned here;
``run_criteria`` executes a subset and returns pass/fail records.  The
bundled two-mode system (see :mod:`stochavg.systems`) is used throughout:
its averaged behaviour has closed forms (complex Ornstein-Uhlenbeck modes,
exponential stationary actions), while its non-resonant drift term and
hamiltonian part exercise the averaging machinery nontrivially.
"""

from __future__ import annotations

import filecmp
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import averaging, coupling, sde, stats
from .averaging import action_drift_F, averaged_diffusion, principal_sqrt
from .expr import parse_field_expr
from .model import Frequencies, SystemSpec, orthogonality_residual
from .poly import Polynomial
from .systems import ACCEPTANCE_V0, acceptance_system


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _result(index, name, passed, detail):
    return CriterionResult(index=index, name=name, passed=bool(passed), detail=detail)


def _random_monomial_poly(rng, n, degree, terms=4):
    p = Polynomial.zero(n)
    for _ in range(terms):
        alpha = rng.integers(0, degree // 2 + 1, n)
        beta = rng.integers(0, degree // 2 + 1, n)
        while alpha.sum() + beta.sum() > degree:
            side = alpha if alpha.sum() >= beta.sum() else beta
            side[int(np.argmax(side))] -= 1
        c = complex(rng.standard_normal(), rng.standard_normal())
        key = (tuple(int(x) for x in alpha), tuple(int(x) for x in beta))
        p = p + Polynomial(n, {key: c})
    return p


def _rand_state(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# --- criterion 1: closed-form constant-dispersion averaging -------------------

def criterion_1(n_paths, seed):
    n = 2
    psi = [[Polynomial.const(1.0, n), Polynomial.const(0.0, n)],
           [Polynomial.const(0.0, n), Polynomial.const(2.0, n)]]
    rng = np.random.default_rng(seed)
    worst_sym = worst_quad = 0.0
    target_A = np.diag([1.0, 4.0])
    target_B = np.diag([1.0, 2.0])
    for _ in range(4):
        a = _rand_state(rng, n)
        A = averaged_diffusion(psi, a, "symbolic")
        worst_sym = max(worst_sym, np.abs(A - target_A).max(),
                        np.abs(principal_sqrt(A) - target_B).max())
        Aq = averaged_diffusion(psi, a, "quadrature", grid_per_dim=64)
        worst_quad = max(worst_quad, np.abs(Aq - target_A).max(),
                         np.abs(principal_sqrt(Aq) - target_B).max())
    passed = worst_sym <= 1e-12 and worst_quad <= 1e-9
    return _result(1, "closed-form averaging of constant dispersion", passed,
                   f"symbolic err {worst_sym:.2e} (<=1e-12), "
                   f"quadrature err {worst_quad:.2e} (<=1e-9)")


# --- criterion 2: symbolic vs quadrature on random polynomials -----------------

def criterion_2(n_paths, seed):
    rng = np.random.default_rng(seed + 2)
    grid = 12  # exact for trigonometric degree < 12 >= 2*4 + 2
    worst = 0.0
    for trial in range(50):
        n = trial % 3 + 1
        f = _random_monomial_poly(rng, n, degree=4)
        P = [_random_monomial_poly(rng, n, degree=4) for _ in range(n)]
        psi = [[_random_monomial_poly(rng, n, degree=2, terms=2) for _ in range(n)]
               for _ in range(n)]
        for _ in range(8):
            a = _rand_state(rng, n)
            s = averaging.average_function(f, a)
            q = averaging.average_function(f, a, "quadrature", grid_per_dim=grid)
            worst = max(worst, abs(s - q) / (1 + abs(s)))
            sf = averaging.average_field(P, a)
            qf = averaging.average_field(P, a, "quadrature", grid_per_dim=grid)
            worst = max(worst, float(np.abs(sf - qf).max() / (1 + np.abs(sf).max())))
            sA = averaging.averaged_diffusion(psi, a)
            qA = averaging.averaged_diffusion(psi, a, "quadrature", grid_per_dim=grid)
            worst = max(worst, float(np.abs(sA - qA).max() / (1 + np.abs(sA).max())))
    passed = worst <= 1e-9
    return _result(2, "symbolic vs quadrature backend equivalence", passed,
                   f"worst relative gap {worst:.2e} over 50 systems x 8 points (<=1e-9)")


# --- criterion 3: hamiltonian drift parts leave action dynamics untouched ------

def criterion_3(n_paths, seed):
    rng = np.random.default_rng(seed + 3)
    worst_res = 0.0
    for _ in range(64):
        n = int(rng.integers(1, 4))
        q = _random_monomial_poly(rng, n, degree=4, terms=3)
        v = _rand_state(rng, n)
        worst_res = max(worst_res, float(np.abs(orthogonality_residual(q + q.conj(), v)).max()))

    n = 2
    base = dict(
        freqs=Frequencies((1.0, np.sqrt(2.0))), epsilon=0.5,
        psi=((parse_field_expr("1", n), parse_field_expr("0", n)),
             (parse_field_expr("0", n), parse_field_expr("1", n))),
        psi_kind="constant",
    )
    spec_h = acceptance_system()
    spec_p1 = SystemSpec(p1=spec_h.p1, h=None, **base)
    worst_F = 0.0
    for _ in range(16):
        I = rng.random(n) * 2.0
        worst_F = max(worst_F, float(np.abs(
            action_drift_F(spec_h, I) - action_drift_F(spec_p1, I)).max()))
    passed = worst_res <= 1e-9 and worst_F <= 1e-9
    return _result(3, "hamiltonian null-contribution", passed,
                   f"orthogonality residual {worst_res:.2e}, "
                   f"action-drift gap {worst_F:.2e} (both <=1e-9)")


# --- criterion 4: strong half-order refinement of the action identity ----------

def criterion_4(n_paths, seed):
    spec = acceptance_system(epsilon=0.2)
    errs = sde.ito_refinement_study(spec, ACCEPTANCE_V0, T=1.0,
                                    dtaus=[4e-3, 2e-3, 1e-3], seeds=range(16))
    ratios = errs[:, :-1] / errs[:, 1:]
    med = np.median(ratios, axis=0)
    passed = bool((med >= 1.2).all() and (med <= 1.7).all())
    return _result(4, "action-identity half-order refinement", passed,
                   f"median halving ratios {np.round(med, 3).tolist()} in [1.2, 1.7]")


# --- criteria 5 and 6: action-law convergence over the epsilon sweep ------------

def criterion_5(n_paths, seed):
    spec = acceptance_system()
    rows = stats.convergence_table(spec, ACCEPTANCE_V0, [0.2, 0.05, 0.0125],
                                   T=1.0, n_paths=n_paths, times=[1.0],
                                   seed=seed)
    ests = [r.estimate for r in rows]
    decreasing = ests[0] > ests[1] > ests[2]
    separated = rows[0].ci_lo > rows[-1].ci_hi
    final_ok = ests[-1] <= 2.0 * rows[-1].noise_floor
    passed = decreasing and separated and final_ok
    return _result(5, "epsilon-sweep action-law convergence", passed,
                   f"distances {np.round(ests, 4).tolist()} strictly decreasing={decreasing}, "
                   f"CI-separated={separated}, final<=2*floor({2 * rows[-1].noise_floor:.4f})={final_ok}")


def criterion_6(n_paths, seed):
    spec = acceptance_system()
    rows = stats.convergence_table(spec, ACCEPTANCE_V0, [0.0125], T=8.0,
                                   n_paths=n_paths, times=[1.0, 2.0, 4.0, 8.0],
                                   seed=seed + 6)
    gaps = [(r.time, r.estimate, 3.0 * r.noise_floor) for r in rows]
    passed = all(est <= cap for _, est, cap in gaps)
    worst = max(est / cap for _, est, cap in gaps)
    return _result(6, "uniform-in-time distance at smallest epsilon", passed,
                   f"max over tau of estimate/threshold = {worst:.3f} "
                   f"(thresholds 3x noise floor)")


# --- criterion 7: modified effective equation matches in action law -------------

def criterion_7(n_paths, seed):
    from scipy import stats as spstats  # the only scipy user; kept off the import path

    spec = acceptance_system()
    record = [1.0, 4.0, 10.0]
    full = sde.simulate_effective(spec, "full", ACCEPTANCE_V0, T=10.0, dtau=1e-3,
                                  n_paths=n_paths, seed=(seed, 71),
                                  record_times=record)
    modified = sde.simulate_effective(spec, "modified", ACCEPTANCE_V0, T=10.0,
                                      dtau=1e-3, n_paths=n_paths, seed=(seed, 72),
                                      record_times=record)
    act_m = modified.actions()
    rows = stats.distance_rows(spec.epsilon, full.actions(), act_m, [1.0, 4.0], seed, bootstrap=0)
    dist_ok = [r.estimate <= 2.0 * r.noise_floor for r in rows]
    details = [f"tau={r.time:g}: {r.estimate:.4f}<=2*{r.noise_floor:.4f}" for r in rows]

    # stationary action marginals of the modified equation: Exponential(1/2)
    I = act_m.at_time(10.0)
    ks_crit = float(spstats.kstwo.ppf(0.99, I.shape[0]))
    stat_ok = True
    for k in range(2):
        mean = I[:, k].mean()
        se = I[:, k].std() / np.sqrt(I.shape[0])
        ks = spstats.kstest(I[:, k], spstats.expon(scale=0.5).cdf).statistic
        stat_ok &= abs(mean - 0.5) <= 3 * se and ks <= ks_crit
        details.append(f"I_{k+1}: mean {mean:.4f} (3se={3*se:.4f}), KS {ks:.4f}<={ks_crit:.4f}")
    passed = all(dist_ok) and stat_ok
    return _result(7, "full vs modified action laws + exponential marginals",
                   passed, "; ".join(details))


# --- criterion 8: effective actions solve the averaged action equation -----------

def criterion_8(n_paths, seed):
    spec = acceptance_system()
    times = [0.5, 1.0]
    eff = sde.simulate_effective(spec, "full", ACCEPTANCE_V0, T=1.0, dtau=1e-3,
                                 n_paths=n_paths, seed=(seed, 81),
                                 record_times=times)
    I0 = averaging.actions_of(ACCEPTANCE_V0)
    act = sde.simulate_action_sde(spec, I0, T=1.0, dtau=1e-3, n_paths=n_paths,
                                  seed=(seed, 82), record_times=times)
    rows = stats.distance_rows(spec.epsilon, eff.actions(), act, times, seed, bootstrap=0)
    return _result(8, "effective actions match the averaged action equation",
                   all(r.estimate <= 2.0 * r.noise_floor for r in rows),
                   "; ".join(f"tau={r.time:g}: {r.estimate:.4f}<=2*{r.noise_floor:.4f}"
                             for r in rows))


# --- criterion 9: occupation time near the boundary shrinks with delta ------------

def criterion_9(n_paths, seed):
    spec = acceptance_system()
    cut = sde.simulate_cutoff_effective(spec, "full", ACCEPTANCE_V0, T=4.0,
                                        dtau=1e-3, n_paths=n_paths,
                                        seed=(seed, 91), R=16.0)
    acts = cut.actions()
    deltas = [0.2, 0.1, 0.05, 0.025]
    passed = True
    details = []
    for k in range(spec.n):
        ests = [coupling.occupation_time(acts, d, k, cut.tau_R) for d in deltas]
        ok = all(a > b for a, b in zip(ests, ests[1:])) and ests[-1] < 0.5 * ests[0]
        passed &= ok
        details.append(f"k={k+1}: {np.round(ests, 4).tolist()} halving={ok}")
    return _result(9, "occupation time decreasing in delta", passed, "; ".join(details))


# --- criterion 10: coupling exactness on Delta-segments ----------------------------

def criterion_10(n_paths, seed):
    spec = acceptance_system()
    res = coupling.build_coupled(spec, ACCEPTANCE_V0, T=1.0, dtau=1e-3, delta=0.1,
                                 R=16.0, n_paths=min(400, n_paths), seed=(seed, 101))
    exact = True
    delta_nodes = 0
    tiling = True
    for p, segs in enumerate(res.schedules):
        if segs[0].start != 0 or segs[-1].end != res.times.size - 1:
            tiling = False
        for s1, s2 in zip(segs, segs[1:]):
            if s1.end != s2.start:
                tiling = False
        for s in segs:
            if s.kind != coupling.DELTA:
                continue
            got = res.coupled_actions.values[p, s.start:s.end + 1]
            ref = res.reference_actions.values[p, s.start:s.end + 1]
            delta_nodes += got.shape[0]
            if not np.array_equal(got, ref):
                exact = False
    passed = exact and tiling and delta_nodes > 0
    return _result(10, "coupling exactness on Delta-segments", passed,
                   f"{delta_nodes} Delta nodes bitwise-equal={exact}, "
                   f"schedules tile [0,T]={tiling}")


# --- criterion 11: determinism of runs ----------------------------------------------

def criterion_11(n_paths, seed):
    from . import cli  # local import: cli depends on this module

    argv_base = ["compare", "--config", "acceptance", "--eps-list", "0.2,0.05",
                 "--times", "0.5", "--T", "0.5", "--paths", "300",
                 "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        out = [Path(tmp, name) for name in "abc"]
        codes = [cli.main(argv_base + ["--out", str(d), "--threads", n])
                 for d, n in zip(out, ("1", "1", "2"))]
        ran = codes == [0, 0, 0]
        repeated = ran and filecmp.cmp(out[0] / "convergence.csv", out[1] / "convergence.csv",
                                       shallow=False)
        threaded = ran and all(filecmp.cmp(out[0] / f, out[2] / f, shallow=False)
                               for f in ("convergence.csv", "convergence.json"))
    passed = repeated and threaded
    return _result(11, "bit-exact reference runs, thread-stable statistics", passed,
                   f"exit codes {codes}, repeated CSV byte-equal={repeated}, "
                   f"--threads 2 CSV and JSON byte-equal={threaded}")


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def _run_criterion(job):
    index, n_paths, seed = job
    return CRITERIA[index](n_paths=n_paths, seed=seed)


def run_criteria(wanted=None, n_paths=4000, seed=2024, workers=1):
    """The criteria in ``wanted`` (default all), in index order, on
    ``workers`` processes: each criterion seeds its own noise."""
    jobs = [(i, n_paths, seed) for i in sorted(CRITERIA) if wanted is None or i in wanted]
    return stats.map_units(_run_criterion, jobs, workers)
