"""The three benchmark workloads: inputs drawn from the seed, CLI commands,
and output checks.

An operation is one workload run through ``stochavg.cli.main``.  Operations
come in same-seed pairs so that every second one doubles as the repeat check;
``check`` returns a list of problems (empty when the outputs are right).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np


def _threads_for_smooth():
    # BLAS runs single-threaded, so two integrator threads stay within nproc
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _number(text):
    """A numeric CSV field.  With numpy >= 2 the program's ``repr`` of numpy
    scalars writes fields such as ``np.float64(0.5)`` into paths.csv and
    segments.csv; that spelling is read for its value, any other text must be
    a plain float literal."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


@dataclass
class Pair:
    """One pair of same-seed operations: the argv lists and their check."""

    argvs: Callable[[Path], List[List[str]]]
    check: Callable[[Path], List[str]]
    setup_config: str  # what the setup probe parses: a config path or "acceptance"


@dataclass
class Workload:
    name: str
    path_steps: int  # simulated path-steps in one operation
    make_pair: Callable  # (rng, pair_dir) -> Pair
    traced_check: Callable = lambda tracer: []


# ---------------------------------------------------------------------------
# eps_sweep: stochavg compare on the acceptance system
# ---------------------------------------------------------------------------

EPS_PATHS = 1000
EPS_LIST = (0.2, 0.05, 0.0125)
EPS_T = 1.0
# compare steps both systems at dtau = 1e-3 (the perturbed one at min(eps/5, 1e-3))
EPS_STEPS = 1000


def _eps_pair(rng, pair_dir):
    seed = str(int(rng.integers(2**31)))

    def argvs(out):
        return [["compare", "--config", "acceptance", "--seed", seed,
                 "--paths", str(EPS_PATHS), "--T", repr(EPS_T), "--times", repr(EPS_T),
                 "--eps-list", ",".join(map(repr, EPS_LIST)), "--threads", "1",
                 "--out", str(out)]]

    return Pair(argvs, _check_convergence, "acceptance")


def _check_convergence(out):
    with open(out / "convergence.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    est = {float(r["eps"]): float(r["estimate"]) for r in rows}
    problems = []
    if sorted(est) != sorted(EPS_LIST):
        problems.append(f"convergence.csv has eps {sorted(est)}")
        return problems
    for eps, e in est.items():
        if not (math.isfinite(e) and 0.0 <= e <= 2.0):
            problems.append(f"estimate {e!r} at eps={eps} outside [0, 2]")
    if not est[max(EPS_LIST)] > est[min(EPS_LIST)]:
        problems.append(f"estimate at eps={max(EPS_LIST)} ({est[max(EPS_LIST)]}) does not "
                        f"exceed the one at eps={min(EPS_LIST)} ({est[min(EPS_LIST)]})")
    return problems


# ---------------------------------------------------------------------------
# couple_demo: stochavg couple-demo on the acceptance system
# ---------------------------------------------------------------------------

COUPLE_PATHS = 800
COUPLE_T = 2.0
COUPLE_DTAU = 1e-3


def _couple_pair(rng, pair_dir):
    seed = str(int(rng.integers(2**31)))

    def argvs(out):
        return [["couple-demo", "--config", "acceptance", "--seed", seed,
                 "--paths", str(COUPLE_PATHS), "--T", repr(COUPLE_T),
                 "--dtau", repr(COUPLE_DTAU), "--threads", "1", "--out", str(out)]]

    return Pair(argvs, _check_couple, "acceptance")


def _check_couple(out):
    problems = []
    segs = {}
    with open(out / "segments.csv", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            segs.setdefault(int(r["path"]), []).append(
                (int(r["seg_index"]), _number(r["start_time"]), _number(r["end_time"])))
    if sorted(segs) != list(range(COUPLE_PATHS)):
        problems.append(f"segments.csv covers {len(segs)} of {COUPLE_PATHS} paths")
    for p, rows in segs.items():
        rows.sort()
        ok = (rows[0][1] == 0.0 and abs(rows[-1][2] - COUPLE_T) <= 1e-9
              and all(s < e for _, s, e in rows)
              and all(b[1] == a[2] for a, b in zip(rows, rows[1:])))
        if not ok:
            problems.append(f"path {p}: segments do not tile [0, {COUPLE_T}]")
            break
    occ = {}
    with open(out / "occupation.csv", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            occ.setdefault(int(r["k"]), []).append((float(r["delta"]), float(r["estimate"])))
    for k, rows in sorted(occ.items()):
        vals = [e for _, e in sorted(rows)]
        if any(b < a for a, b in zip(vals, vals[1:])):
            problems.append(f"occupation time of mode {k} is not monotone in delta: {sorted(rows)}")
    return problems


def _check_delta_segments(tracer):
    """Coupled actions equal the reference actions bit for bit on every
    Delta-segment, read from the CoupledResult that build_coupled returned."""
    from stochavg.coupling import DELTA

    kept = tracer.kept.pop("coupling.build", [])
    if not kept:
        return ["traced run recorded no build_coupled call"]
    problems = []
    for _, result in kept:
        cpl = result.coupled_actions.values
        ref = result.reference_actions.values
        for p, segs in enumerate(result.schedules):
            for s in segs:
                if s.kind == DELTA and not np.array_equal(
                        cpl[p, s.start:s.end + 1], ref[p, s.start:s.end + 1]):
                    problems.append(f"path {p}: coupled and reference actions differ "
                                    f"on the Delta-segment [{s.start}, {s.end}]")
                    return problems
    return problems


# ---------------------------------------------------------------------------
# smooth_export: simulate effective and action systems with state-dependent Psi
# ---------------------------------------------------------------------------

SMOOTH_PATHS = 1000
SMOOTH_T = 1.0
SMOOTH_DTAU = 1e-3
SMOOTH_RECORD = tuple(k / 10 for k in range(11))
# F(I) = (1 - 1.5 I_1, 1 - 2 I_2): E I_k(t) = I_inf + (I_k(0) - I_inf) e^{-c_k t}
SMOOTH_RATES = (1.5, 2.0)
SMOOTH_LIMITS = (2.0 / 3.0, 0.5)
# An unbiased run misses a 3-SE band in about 1% of operations (four means
# each), which a benchmark repeating hundreds of operations would report as
# failures; 5 SE misses with probability ~6e-7 per mean.
SMOOTH_Z = 5.0
# Euler moves the means by at most ~0.5 dtau (1 + |I(0) - I_inf|) at these
# rates; the allowance is ten times that.
SMOOTH_BIAS = 5.0 * SMOOTH_DTAU

SMOOTH_TEMPLATE = """format = 1

[system]
n = 2
lambdas = 1.0, 1.4142135623730951
epsilon = 0.05
psi_kind = smooth
v0 = {v0}

[drift]
p1 = -v1
p2 = -v2

[dispersion]
psi_1_1 = 1
psi_1_2 = 0.5*v1
psi_2_2 = 1
"""


def _smooth_pair(rng, pair_dir):
    seed = str(int(rng.integers(2**31)))
    I0 = rng.uniform(0.1, 2.0, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    v0 = np.sqrt(2.0 * I0) * np.exp(1j * phase)
    cfg = pair_dir / "system.cfg"
    cfg.write_text(SMOOTH_TEMPLATE.format(v0=", ".join(repr(complex(z)) for z in v0)),
                   encoding="utf-8")
    I0 = np.abs(v0) ** 2 / 2.0
    threads = str(_threads_for_smooth())
    record = ",".join(map(repr, SMOOTH_RECORD))

    def argvs(out):
        return [["simulate", "--config", str(cfg), "--system", system, "--seed", seed,
                 "--paths", str(SMOOTH_PATHS), "--T", repr(SMOOTH_T),
                 "--dtau", repr(SMOOTH_DTAU), "--record-times", record,
                 "--threads", threads, "--out", str(out / system)]
                for system in ("effective", "action")]

    def check(out):
        problems = []
        for system in ("effective", "action"):
            with open(out / system / "paths.csv", encoding="utf-8") as fh:
                next(fh)
                data = np.array([[_number(x) for x in row] for row in csv.reader(fh)])
            last = data[data[:, 1] == data[:, 1].max()]
            if last[0, 1] != SMOOTH_T or last.shape[0] != SMOOTH_PATHS * 2:
                problems.append(f"{system}: paths.csv does not end with {SMOOTH_PATHS} "
                                f"paths at tau={SMOOTH_T}")
                continue
            for k in (1, 2):
                rows = last[last[:, 2] == k]
                I = (rows[:, 3] ** 2 + rows[:, 4] ** 2) / 2.0 if system == "effective" else rows[:, 3]
                c, lim = SMOOTH_RATES[k - 1], SMOOTH_LIMITS[k - 1]
                gap = I0[k - 1] - lim
                expect = lim + gap * math.exp(-c * SMOOTH_T)
                se = I.std(ddof=1) / math.sqrt(I.size)
                tol = SMOOTH_Z * se + SMOOTH_BIAS * (1.0 + abs(gap))
                if not abs(I.mean() - expect) <= tol:
                    problems.append(f"{system}: mean I_{k}({SMOOTH_T}) = {I.mean():.5f}, "
                                    f"closed form {expect:.5f}, tolerance {tol:.5f}")
        return problems

    return Pair(argvs, check, str(cfg))


WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="eps_sweep",
            path_steps=len(EPS_LIST) * 2 * EPS_PATHS * EPS_STEPS,
            make_pair=_eps_pair,
        ),
        Workload(
            name="couple_demo",
            # build_coupled advances two processes per path, the cut-off rerun one
            path_steps=3 * COUPLE_PATHS * round(COUPLE_T / COUPLE_DTAU),
            make_pair=_couple_pair,
            traced_check=_check_delta_segments,
        ),
        Workload(
            name="smooth_export",
            path_steps=2 * SMOOTH_PATHS * round(SMOOTH_T / SMOOTH_DTAU),
            make_pair=_smooth_pair,
        ),
    ]
}
