"""Which stochavg callables the traced run wraps, and the per-layer metrics
derived from their spans and counts.

Span names are the layer names of the metrics: ``sde.perturbed``,
``stats.bl_nd``, ``poly.evaluate`` and so on.  ``cli`` is the root span the
benchmark opens around each ``stochavg.cli.main`` call, and
``stats.bl1d_replay`` the span around each 1-d solve replayed after the
traced operation.
"""

from __future__ import annotations

from spans import Target, call_count, self_time, self_times, total_time

INTEGRATORS = ("perturbed", "effective", "cutoff", "action")
# bl_distance_1d solves one LP for the estimate and one per noise-floor half
SOLVES_PER_1D_CALL = 3


def _steps(args):
    return args["n_paths"] * int(round(args["T"] / args["dtau"]))


def targets():
    from stochavg import averaging, config, coupling, poly, sde, stats, systems

    def path_steps(args, result):
        return {"path_steps": _steps(args)}

    def cutoff(args, result):
        return {"path_steps": _steps(args),
                "stopped_paths": int(result.paths.extras["stopped"].sum())}

    def action(args, result):
        return {"path_steps": _steps(args),
                "clamp_events": int(result.extras["clamp_counts"].sum())}

    def coupled(args, result):
        return {"path_steps": 2 * _steps(args),  # reference and coupled process
                "segments": result.segment_count(),
                "delta_entries": sum(len(r) for r in result.rotations),
                "overshoots": result.overshoots}

    def rows(args, result):
        ens = args["ens"]
        return {"rows": ens.n_paths * ens.times.size * ens.n}

    return [
        Target(sde.NoisePath, "complex_increments", "sde.noise",
               counts=lambda a, r: {"draws": a["steps"] * 2 * a["n1"]}),
        Target(sde.NoisePath, "real_increments", "sde.noise",
               counts=lambda a, r: {"draws": a["steps"] * a["n"]}),
        Target(poly.Polynomial, "evaluate", "poly.evaluate"),
        Target(averaging.ActionPolynomial, "evaluate", "poly.evaluate"),
        Target(averaging, "principal_sqrt_batched", "averaging.sqrt_batched"),
        Target(averaging, "averaged_field_polys", "averaging.polys"),
        Target(averaging, "averaged_diffusion_polys", "averaging.polys"),
        Target(averaging, "action_drift_polys", "averaging.polys"),
        Target(averaging, "action_diffusion_polys", "averaging.polys"),
        Target(config, "parse_system_text", "config.parse"),
        Target(systems, "acceptance_system", "config.parse"),
        Target(sde, "simulate_perturbed", "sde.perturbed", counts=path_steps),
        Target(sde, "simulate_effective", "sde.effective", counts=path_steps),
        Target(sde, "simulate_cutoff_effective", "sde.cutoff", counts=cutoff),
        Target(sde, "simulate_action_sde", "sde.action", counts=action),
        Target(sde, "export_ensemble_csv", "sde.export_csv", counts=rows),
        Target(coupling, "build_coupled", "coupling.build", counts=coupled, keep=True),
        Target(coupling, "occupation_time", "coupling.occupation"),
        Target(coupling, "export_segments_csv", "coupling.export_csv"),
        Target(stats, "convergence_table", "stats.table"),
        Target(stats, "bl_distance_nd", "stats.bl_nd", keep=True),
    ]


def replay_marginals(tracer):
    """Re-solve, one ``bl_distance_1d(bootstrap=0)`` per marginal, every law
    pair the traced ``bl_distance_nd`` calls received: the same 3 d exact
    solves (d estimates, 2 d noise floors) that run inside the n-d estimator,
    timed on their own."""
    from stochavg import stats

    for args, _ in tracer.kept.pop("stats.bl_nd", []):
        p1, p2 = args["law1"].points, args["law2"].points
        for j in range(p1.shape[1]):
            a, b = stats.EmpiricalLaw(p1[:, j]), stats.EmpiricalLaw(p2[:, j])
            with tracer.span("stats.bl1d_replay"):
                stats.bl_distance_1d(a, b, bootstrap=0)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer, traced_wall, untraced_wall, cpu_per_wall):
    """Per-layer metrics of one traced operation, keyed by metric name."""
    sp = tracer.spans
    counts = tracer.counts
    selfs = self_times(sp)
    m = {}

    bl_nd = total_time(sp, "stats.bl_nd")
    replay = total_time(sp, "stats.bl1d_replay")
    m["stats.bl_nd.calls"] = call_count(sp, "stats.bl_nd")
    m["stats.bl_nd.s"] = bl_nd
    m["stats.bl1d_replay.s"] = replay
    m["stats.bl1d_replay.solves"] = SOLVES_PER_1D_CALL * call_count(sp, "stats.bl1d_replay")
    m["stats.ramps_bootstrap.s"] = bl_nd - replay
    m["stats.table.self_s"] = self_time(sp, "stats.table", selfs)

    all_steps = 0
    for kind in INTEGRATORS:
        name = f"sde.{kind}"
        steps = counts.get(f"{name}.path_steps", 0)
        all_steps += steps
        m[f"{name}.self_s"] = self_time(sp, name, selfs)
        m[f"{name}.path_steps"] = steps
        m[f"{name}.path_steps_per_s"] = _rate(steps, total_time(sp, name))
    m["sde.action.clamp_events"] = counts.get("sde.action.clamp_events", 0)
    m["sde.cutoff.stopped_paths"] = counts.get("sde.cutoff.stopped_paths", 0)

    noise = total_time(sp, "sde.noise")
    m["sde.noise.calls"] = call_count(sp, "sde.noise")
    m["sde.noise.s"] = noise
    m["sde.noise.draws_per_s"] = _rate(counts.get("sde.noise.draws", 0), noise)
    m["poly.evaluate.calls"] = call_count(sp, "poly.evaluate")
    m["poly.evaluate.s"] = total_time(sp, "poly.evaluate")
    m["averaging.sqrt_batched.calls"] = call_count(sp, "averaging.sqrt_batched")
    m["averaging.sqrt_batched.s"] = total_time(sp, "averaging.sqrt_batched")

    build_steps = counts.get("coupling.build.path_steps", 0)
    m["coupling.build.self_s"] = self_time(sp, "coupling.build", selfs)
    m["coupling.build.path_steps"] = build_steps
    m["coupling.build.path_step_share"] = (
        build_steps / (build_steps + all_steps) if build_steps else 0.0)
    m["coupling.segments"] = counts.get("coupling.build.segments", 0)
    m["coupling.delta_entries"] = counts.get("coupling.build.delta_entries", 0)
    m["coupling.overshoots"] = counts.get("coupling.build.overshoots", 0)
    m["coupling.occupation.s"] = total_time(sp, "coupling.occupation")
    m["coupling.export_csv.s"] = total_time(sp, "coupling.export_csv")

    export = total_time(sp, "sde.export_csv")
    rows = counts.get("sde.export_csv.rows", 0)
    m["sde.export_csv.s"] = export
    m["sde.export_csv.rows"] = rows
    m["sde.export_csv.rows_per_s"] = _rate(rows, export)

    m["config.parse_s"] = total_time(sp, "config.parse")
    m["averaging.polys_s"] = total_time(sp, "averaging.polys")
    m["cli.self_s"] = self_time(sp, "cli", selfs)
    m["process.cpu_per_wall"] = cpu_per_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def self_time_shares(tracer, traced_wall):
    """Self time per layer as a share of the traced operation, largest first.

    ``stats.bl_nd`` is split into the replayed 1-d solves and the rest
    (ramps and bootstrap), since the replay runs outside the operation.
    """
    sp = tracer.spans
    selfs = self_times(sp)
    names = sorted({s.name for s in sp} - {"stats.bl_nd", "stats.bl1d_replay"})
    shares = {n: self_time(sp, n, selfs) for n in names}
    if call_count(sp, "stats.bl_nd"):
        replay = total_time(sp, "stats.bl1d_replay")
        shares["stats.bl1d_replay"] = replay
        shares["stats.ramps_bootstrap"] = total_time(sp, "stats.bl_nd") - replay
    return sorted(((v / traced_wall, n) for n, v in shares.items()), reverse=True)
