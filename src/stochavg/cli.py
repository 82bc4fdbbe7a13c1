"""Experiment orchestration command line.

Subcommands: check | average | simulate | compare | couple-demo | mixing |
acceptance, plus plot-data (re-emit plot-ready CSV from a finished run
directory).

Every artifact command runs in one frame, ``main``: it resolves the system,
calls the subcommand's handler, which writes the artifacts, and then writes a
``manifest.json`` capturing the resolved system text, a content hash, the
package version, seed and the command line (argv, less --config and --out),
and the environment that bit-exactness depends on: the Python and numpy
versions, the CPU count and OPENBLAS_NUM_THREADS.  ``run_from_manifest``
replays that command line against the recorded system text, reading no
environment field, and reproduces all numeric artifacts bit-exactly, at any
--threads, under single-threaded BLAS (OPENBLAS_NUM_THREADS=1).

Exit codes: 0 success, 2 configuration or schema violation (invalid option
values, missing artifacts, workers that could not run), 3 a simulated path
left the finite range, 4 an assertion-style acceptance failure (--strict).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, acceptance as acceptance_mod
from . import averaging, coupling, sde, stats
from .config import _states, parse_system_text, system_to_text
from .errors import ConfigError, NonFiniteError, StochavgError
from .model import (check_ellipticity, check_nonresonance, estimate_growth,
                    orthogonality_residual, random_states)
from .poly import Field
from .systems import ACCEPTANCE_V0, acceptance_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_STRICT = 4


def _resolve_system(name):
    """Load the system named by --config (a path or the bundled name)."""
    if name is None:
        raise ConfigError("--config is required (path or 'acceptance')")
    if name == "acceptance":
        spec = acceptance_system()
        return spec, ACCEPTANCE_V0.copy(), system_to_text(spec, ACCEPTANCE_V0)
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"config file {name!r} does not exist")
    text = path.read_text(encoding="utf-8")
    cfg = parse_system_text(text)
    return cfg.spec, cfg.v0, text


def _want_v0(args, spec, cfg_v0):
    if args.v0 is not None:
        return _states(args.v0, spec.n, "--v0")
    if cfg_v0 is not None:
        return cfg_v0
    raise ConfigError("no initial state: give --v0 or a v0 line in [system]")


def _values(text, convert, option):
    """The comma-separated entries of ``option``, each read by ``convert``."""
    values = [convert(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ConfigError(f"{option} is empty")
    return values


def _portable_argv(argv):
    """argv without --config and --out: the manifest records the system text
    itself, and a replay names both anew, so the manifest does not depend on
    where a run reads or writes its files."""
    kept, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok in ("--config", "--out"):
            skip = True
        elif not tok.startswith(("--config=", "--out=")):
            kept.append(tok)
    return kept


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_check(args, spec, cfg_v0, out):
    nonres = check_nonresonance(spec.freqs, args.order_bound, args.tol)
    ellip = check_ellipticity(spec, args.samples, args.seed)
    growth = [
        estimate_growth(p, spec.m0, [1.0, 4.0, 10.0], args.seed + k)
        for k, p in enumerate(spec.p1_polys)
    ]
    report = {
        "nonresonance": {
            "resonant": nonres.resonant,
            "witness": list(nonres.witness) if nonres.witness else None,
            "min_abs": nonres.min_abs,
            "order_bound": args.order_bound,
            "tol": args.tol,
        },
        "ellipticity": {
            "lambda_lower": ellip.lambda_lower,
            "lambda_upper": ellip.lambda_upper,
            "passed": ellip.passed,
            "sample_count": args.samples,
        },
        "growth_c_estimates": growth,
    }
    if spec.h is not None:  # the largest residual over --samples states drawn from --seed
        pts = random_states(spec.n, args.samples, 3.0, np.random.default_rng(args.seed))
        report["hamiltonian_max_orthogonality_residual"] = max(
            float(np.abs(orthogonality_residual(spec.h_poly, v)).max()) for v in pts)
    _write_json(out / "check_report.json", report)
    flag = "RESONANT" if nonres.resonant else "non-resonant"
    wit = f" witness={nonres.witness}" if nonres.resonant else ""
    print(f"frequencies: {flag} up to order {args.order_bound} "
          f"(min |m.lambda| = {nonres.min_abs:.3e}){wit}")
    print(f"dispersion eigenvalues: [{ellip.lambda_lower:.6g}, {ellip.lambda_upper:.6g}] "
          f"{'PASS' if ellip.passed else 'FAIL'} (sampled)")
    if "hamiltonian_max_orthogonality_residual" in report:
        print(f"hamiltonian orthogonality residual: "
              f"{report['hamiltonian_max_orthogonality_residual']:.3e}")
    return EXIT_OK


def _format_avg_monomials(poly, component):
    """Render component k = ``component`` of the averaged drift in
    a-variables; its resonant monomials read c * a_k * prod_j abs2(a_j)^(beta_j)."""
    bits = []
    for (_, beta), c in poly.sorted_terms():
        factors = [f"a{component}"]
        for j, e in enumerate(beta):
            if e == 1:
                factors.append(f"abs2(a{j+1})")
            elif e > 1:
                factors.append(f"abs2(a{j+1})^{e}")
        cval = complex(c)
        if cval.imag == 0:
            coef = f"{cval.real:g}"
        elif cval.real == 0:
            coef = f"{cval.imag:g}i"
        else:
            coef = f"({cval.real:g}{cval.imag:+g}i)"
        bits.append("*".join([coef] + factors))
    return " + ".join(bits) if bits else "0"


def cmd_average(args, spec, cfg_v0, out):
    polys = averaging.averaged_field_polys(spec.drift_polys, spec.n)
    lines = [f"component {k} = {_format_avg_monomials(p, k)}"
             for k, p in enumerate(polys, start=1)]
    payload = {"averaged_drift": list(lines)}
    if args.at is not None:
        a = _states(args.at, spec.n, "--at")
        vals = Field(polys)(a)
        payload["at"] = args.at
        payload["values"] = [[v.real, v.imag] for v in vals]
        for k, v in enumerate(vals, start=1):
            lines.append(f"component {k} at a = {complex(v):.12g}")
    for line in lines:
        print(line)
    _write_json(out / "average.json", payload)
    return EXIT_OK


def cmd_simulate(args, spec, cfg_v0, out):
    record = None if args.record_times is None else _values(
        args.record_times, float, "--record-times")
    if args.system == "action":
        I0 = averaging.actions_of(_want_v0(args, spec, cfg_v0)) if args.i0 is None else (
            np.array(_values(args.i0, float, "--i0")))
        ens = sde.simulate_action_sde(spec, I0, args.T, args.dtau, args.paths,
                                      args.seed, record_times=record)
    else:
        v0 = _want_v0(args, spec, cfg_v0)
        if args.system == "perturbed":
            ens = sde.simulate_perturbed(spec, v0, args.T, args.dtau, args.paths,
                                         args.seed, record_times=record).a
        else:
            variant = "full" if args.system == "effective" else "modified"
            ens = sde.simulate_effective(spec, variant, v0, args.T, args.dtau,
                                         args.paths, args.seed, record_times=record)
    sde.export_ensemble_csv(ens, out / "paths.csv")
    print(f"wrote {out / 'paths.csv'} ({ens.n_paths} paths, {ens.times.size} nodes)")
    return EXIT_OK


def cmd_compare(args, spec, cfg_v0, out):
    v0 = _want_v0(args, spec, cfg_v0)
    eps_list = _values(args.eps_list, float, "--eps-list")
    times = _values(args.times, float, "--times")
    rows = stats.convergence_table(spec, v0, eps_list, args.T, args.paths, times,
                                   args.seed, workers=args.threads)
    stats.write_distance_table(rows, out, "convergence")
    emit_plot_data(out)
    for r in rows:
        print(f"eps={r.eps:g} tau={r.time:g}: distance={r.estimate:.5f} "
              f"ci=({r.ci_lo:.5f},{r.ci_hi:.5f}) floor={r.noise_floor:.5f}")
    if args.strict:
        for t in times:
            sub = [r for r in rows if r.time == t]
            decreasing = all(a.estimate > b.estimate for a, b in zip(sub, sub[1:]))
            final_ok = sub[-1].estimate <= 2.0 * sub[-1].noise_floor
            if not (decreasing and final_ok):
                print(f"strict check failed at tau={t:g}: decreasing={decreasing} "
                      f"final_below_2floor={final_ok}")
                return EXIT_STRICT
    return EXIT_OK


def cmd_couple_demo(args, spec, cfg_v0, out):
    v0 = _want_v0(args, spec, cfg_v0)
    delta_list = _values(args.delta_list, float, "--delta-list")
    result = coupling.build_coupled(spec, v0, args.T, args.dtau, args.delta,
                                    args.R, args.paths, args.seed)
    coupling.export_segments_csv(result, out / "segments.csv")
    # the reference half of the coupling is the cut-off effective run
    occ_rows = [(d, k + 1, coupling.occupation_time(result.reference_actions, d, k,
                                                    result.tau_R_ref))
                for d in delta_list for k in range(spec.n)]
    with open(out / "occupation.csv", "w", encoding="utf-8") as fh:
        fh.write("delta,k,estimate\n")
        for d, k, est in occ_rows:
            fh.write(f"{d!r},{k},{est!r}\n")
    emit_plot_data(out)
    print(f"coupled {result.n_paths} paths: {result.segment_count()} segments, "
          f"{result.overshoots} boundary overshoots")
    for d, k, est in occ_rows:
        print(f"occupation(delta={d:g}, k={k}) = {est:.5f}")
    return EXIT_OK


def cmd_mixing(args, spec, cfg_v0, out):
    v1 = _states(args.v0_a, spec.n, "--v0-a")
    v2 = _states(args.v0_b, spec.n, "--v0-b")
    rows = stats.mixing_profile(spec, args.variant, v1, v2, args.T, args.dtau, args.paths,
                                args.seed, _values(args.times, float, "--times"))
    stats.write_distance_table(rows, out, "mixing", metric="bl_state_distance")
    emit_plot_data(out)
    for r in rows:
        print(f"tau={r.time:g}: distance={r.estimate:.5f} floor={r.noise_floor:.5f}")
    return EXIT_OK


def cmd_acceptance(args, spec, cfg_v0, out):
    wanted = None
    if args.criteria is not None:
        wanted = set(_values(args.criteria, int, "--criteria"))
        unknown = sorted(wanted - set(acceptance_mod.CRITERIA))
        if unknown:
            raise ConfigError(f"unknown criteria {unknown}; known: {sorted(acceptance_mod.CRITERIA)}")
    results = acceptance_mod.run_criteria(
        wanted=wanted, n_paths=args.paths, seed=args.seed, workers=args.threads)
    payload = []
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion {r.index}: {r.name} -- {r.detail}")
        all_pass &= r.passed
        payload.append({"index": r.index, "name": r.name, "passed": r.passed,
                        "detail": r.detail})
    _write_json(out / "acceptance_report.json", payload)
    if args.strict and not all_pass:
        return EXIT_STRICT
    return EXIT_OK


def cmd_plot_data(args):
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    emitted = emit_plot_data(run_dir)
    print(f"wrote {emitted}")
    return EXIT_OK


def emit_plot_data(run_dir):
    """Rebuild plotdata.csv from a finished run directory's artifacts."""
    run_dir = Path(run_dir)
    series = []
    conv = run_dir / "convergence.json"
    if conv.exists():
        for row in json.loads(conv.read_text()):
            series.append((f"tau={row['time']:g}", row["eps"], row["estimate"],
                           row["ci_lo"], row["ci_hi"]))
    mixing = run_dir / "mixing.json"
    if mixing.exists():
        for row in json.loads(mixing.read_text()):
            series.append(("mixing", row["time"], row["estimate"],
                           row["ci_lo"], row["ci_hi"]))
    occ = run_dir / "occupation.csv"
    if occ.exists():
        lines = occ.read_text().splitlines()[1:]
        for line in lines:
            d, k, est = line.split(",")
            series.append((f"occupation_k{k}", float(d), float(est),
                           float(est), float(est)))
    seg = run_dir / "segments.csv"
    if seg.exists():
        for line in seg.read_text().splitlines()[1:]:
            p, i, kind, start, end = line.split(",")
            series.append((f"segments/path{p}", float(start),
                           1.0 if kind == coupling.DELTA else 0.0,
                           float(start), float(end)))
    if not series:
        raise ConfigError(f"no plottable artifacts in {run_dir}")
    with open(run_dir / "plotdata.csv", "w", encoding="utf-8") as fh:
        fh.write("series,x,y,lo,hi\n")
        for s, x, y, lo, hi in series:
            fh.write(f"{s},{x!r},{y!r},{lo!r},{hi!r}\n")
    return run_dir / "plotdata.csv"


def run_from_manifest(manifest_path, out_dir):
    """Re-run a recorded experiment; reference mode reproduces artifacts
    bit-exactly.  The recorded argv is replayed with --out ``out_dir`` and,
    except for acceptance, --config pointing at the recorded system text."""
    manifest = json.loads(Path(manifest_path).read_text())
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    argv = manifest["argv"] + ["--out", str(out_dir)]
    if manifest["command"] != "acceptance":
        cfg_path = Path(out_dir) / "_manifest_system.cfg"
        cfg_path.write_text(manifest["config_text"])
        argv += ["--config", str(cfg_path)]
    return main(argv)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", help="system config path, or 'acceptance'")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes over compare's epsilon rows and acceptance's criteria")
    p.add_argument("--strict", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="stochavg",
        description="stochastic averaging experiments for perturbed oscillator systems",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, summary):  # options spelled in full only: prefixes are not portable
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = add("check", "non-resonance, ellipticity and growth diagnostics")
    _add_common(p)
    p.add_argument("--order-bound", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=128,
                   help="random states for the ellipticity sample and for the "
                        "hamiltonian residual scan")
    p.set_defaults(func=cmd_check)

    p = add("average", "print the averaged drift, symbolically or at a point")
    _add_common(p)
    p.add_argument("--at", help="evaluation point, comma-separated complex entries")
    p.set_defaults(func=cmd_average)

    p = add("simulate", "simulate one system and export the ensemble CSV")
    _add_common(p)
    p.add_argument("--system", choices=["perturbed", "effective", "modified", "action"],
                   default="perturbed")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dtau", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=100)
    p.add_argument("--v0")
    p.add_argument("--i0", help="initial actions for --system action")
    p.add_argument("--record-times", dest="record_times")
    p.set_defaults(func=cmd_simulate)

    p = add("compare", "action-law convergence table over an epsilon sweep")
    _add_common(p)
    p.add_argument("--eps-list", default="0.2,0.05,0.0125")
    p.add_argument("--times", default="1.0")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--paths", type=int, default=4000)
    p.add_argument("--v0")
    p.set_defaults(func=cmd_compare)

    p = add("couple-demo", "coupled construction plus occupation-time curve")
    _add_common(p)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dtau", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=400)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--delta-list", default="0.2,0.1,0.05,0.025")
    p.add_argument("--R", type=float, default=16.0)
    p.add_argument("--v0")
    p.set_defaults(func=cmd_couple_demo)

    p = add("mixing", "distance profile between two initial states")
    _add_common(p)
    p.add_argument("--v0-a", required=True)
    p.add_argument("--v0-b", required=True)
    p.add_argument("--times", default="0.5,1,2,4,8")
    p.add_argument("--T", type=float, default=8.0)
    p.add_argument("--dtau", type=float, default=2e-3)
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--variant", choices=["full", "modified"], default="full")
    p.set_defaults(func=cmd_mixing)

    p = add("acceptance", "run the acceptance criteria suite")
    _add_common(p, config=False)
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,3")
    p.add_argument("--paths", type=int, default=4000)
    p.set_defaults(func=cmd_acceptance, config="acceptance")

    p = add("plot-data", "re-emit plot-ready CSV from a run directory")
    p.add_argument("run_dir")

    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            return cmd_plot_data(args)
        # the order of every artifact command: its system, its artifacts, its manifest
        spec, cfg_v0, text = _resolve_system(args.config)
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        code = args.func(args, spec, cfg_v0, out)
        _write_json(out / "manifest.json", {
            "format": 1,
            "package_version": __version__,
            "command": args.command,
            "config_text": text,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "master_seed": args.seed,
            "threads": args.threads,
            "strict": args.strict,
            "argv": _portable_argv(argv),
            "environment": {"python": sys.version.split()[0], "numpy": np.__version__,
                            "cpu_count": os.cpu_count(),
                            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        })
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except (StochavgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # a dead worker; the pool's module loads with a pool only
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(exc, pool.BrokenProcessPool):
            raise
        print(f"error: a worker process ended abruptly ({exc}); the calling script must run "
              f'the command under `if __name__ == "__main__":`', file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
