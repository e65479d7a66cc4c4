"""Command-line frontend.

Runs the verification pipelines on a JSON-configured experiment and
emits deterministic CSV reports, plus standalone SVG line plots with
--plot.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .carleman import carleman_sweep, make_test_suite
from .config import ConfigError, evaluate_field, load_config
from .energy import (
    bound_terms,
    energy,
    energy_bound_sides,
    energy_tprime_direct,
    snapshot_bound_sides,
)
from .forward import SolverError, dump_field_csv, solve_heat
from .grid import GridError
from .observe import extract_observations, observations_to_csv
from .poincare import proposition_sides, proposition_to_csv
from .report import (
    carleman_summary_to_csv,
    carleman_sweep_to_csv,
    fmt,
    report_to_csv,
    stability_to_csv,
)
from .setups import (
    default_setup,
    inversion_setup,
    perturbation_family,
    twin_solve,
)
from .stability import (
    InverseConfig,
    make_observations,
    make_pair,
    reconstruct,
    stability_sides,
    stability_sweep,
    sweep_to_csv,
)
from .svg import PlotError, line_plot
from .weights import WeightError, build_weights

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL = 0, 2, 3

SEED_ENV = "CARLEMAN_LAB_SEED"
ENDPOINT_DECAY_S = 4.0   # the endpoint-decay bound needs s >= 4


class RunContext:
    """Config plus the objects every pipeline shares.  The fourth
    argument is ignored; bench/child.py still passes it."""

    def __init__(self, cfg, out_dir, plot, _ignored=None):
        self.cfg = cfg
        self.out_dir = out_dir
        self.plot = plot
        base = default_setup(cfg.dimension, cfg.n, cfg.t0, cfg.t_end,
                             cfg.steps)
        self.background = evaluate_field(cfg.background, base.grid,
                                         cfg.base_dir)
        self.gamma = evaluate_field(cfg.gamma, base.grid, cfg.base_dir)
        self.setup = replace(base, base=replace(base.base, c=self.background))
        self.setup.base.validate(base.grid)
        self._weights = {}

    @functools.cached_property
    def twin(self):
        """The configured twin problem, solved on first use and shared by
        the poincare, snapshot and energy pipelines (none writes into
        it)."""
        return twin_solve(self.setup, self.gamma)

    def weights(self, lam, s):
        """Built on first use, then shared (its tables are read-only)."""
        key = (float(lam), float(s))
        if key not in self._weights:
            self._weights[key] = build_weights(
                self.setup.grid, self.setup.window, lam=lam, s=s,
                m=self.cfg.m_weight, x0=self.cfg.x0)
        return self._weights[key]

    def weights_ref(self):
        return self.weights(self.cfg.lambdas[0], self.cfg.s_values[0])

    def weights_energy(self):
        heavy = [s for s in self.cfg.s_values if s >= ENDPOINT_DECAY_S]
        return self.weights(self.cfg.lambdas[0],
                            min(heavy) if heavy else max(self.cfg.s_values))

    def path(self, name):
        return os.path.join(self.out_dir, name)


def _plot(ctx, files, name, series, **labels):
    """With --plot, line_plot of series() into ctx.path(name), appended
    to files; without it the series are never built."""
    if ctx.plot:
        path = ctx.path(name)
        line_plot(path, series(), **labels)
        files.append(path)


def _report_underflow(command, sides):
    """One stderr line per (lam, s) of sides, the (lam, s, lhs, rhs) of a
    command's weighted estimates of nonzero quantities, where a written
    ratio 0 bounds nothing: a LHS of exactly 0 against a positive right
    side, or 0 on both sides (EstimateReport.ratio's 0/0, which for a
    nonzero quantity means that the weight underflowed on both)."""
    against, vanished = {}, {}
    for lam, s, lhs, rhs in sides:
        if lhs == 0.0:
            (against if rhs > 0.0 else vanished)[lam, s] = None
    for lam, s in against:
        print(f"{command}: weighted LHS is 0 against a positive right side "
              f"at lam={fmt(lam)}, s={fmt(s)}: the weight "
              "e^{-2s(eta - eta_ref)} underflowed", file=sys.stderr)
    for lam, s in vanished:
        print(f"{command}: both weighted sides are 0 at lam={fmt(lam)}, "
              f"s={fmt(s)}: the weight e^{{-2s(eta - eta_ref)}} underflowed "
              "on both sides", file=sys.stderr)


def cmd_forward(ctx: RunContext):
    setup = ctx.setup
    field = solve_heat(setup.base, setup.grid, setup.timegrid)
    files = [ctx.path("field.csv"), ctx.path("observations.csv")]
    dump_field_csv(field, files[0])
    obs = extract_observations(field, setup.grid, setup.window)
    observations_to_csv(obs, files[1])
    return files


def cmd_verify_carleman(ctx: RunContext):
    cfg, setup = ctx.cfg, ctx.setup
    suite = make_test_suite(setup.grid, setup.window, count=20,
                            seed=cfg.seed)
    records, summary = carleman_sweep(ctx.background, suite, cfg.s_values,
                                      cfg.lambdas, setup.grid, setup.window,
                                      cfg.m_weight, cfg.x0)
    for test_id, s, lam, rep in records:
        if not math.isfinite(rep.ratio):
            raise SolverError(
                f"non-finite ratio for {test_id} at s={s}, lam={lam}")
    _report_underflow("verify-carleman",
                      ((lam, s, rep.lhs_total, rep.rhs_total)
                       for _, s, lam, rep in records))

    files = [ctx.path("carleman_sweep.csv"), ctx.path("carleman_summary.csv")]
    carleman_sweep_to_csv(records, files[0])
    carleman_summary_to_csv(summary, files[1])

    _plot(ctx, files, "carleman_sweep.svg",
          lambda: [(f"lam={fmt(lam)}", list(cfg.s_values),
                    [summary[(float(s), float(lam))] for s in cfg.s_values])
                   for lam in cfg.lambdas],
          title="max ratio over test suite", xlabel="s", ylabel="ratio",
          logx=True, logy=True)
    return files


def cmd_verify_poincare(ctx: RunContext):
    twin, ws = ctx.twin, ctx.weights_ref()
    rep = proposition_sides(ctx.gamma, twin.q_tilde, twin.u, twin.y, ws)
    if np.any(ctx.gamma):
        _report_underflow("verify-poincare",
                          ((ws.lam, ws.s, part.lhs_total, part.rhs_total)
                           for part in rep.parts().values()))
    path = ctx.path("poincare.csv")
    proposition_to_csv(rep, path)
    return [path]


def cmd_verify_snapshot(ctx: RunContext):
    y, ws = ctx.twin.y, ctx.weights_energy()
    rep = snapshot_bound_sides(y, bound_terms(y, ctx.gamma, ws), ws)
    if np.any(ctx.gamma):
        _report_underflow("verify-snapshot",
                          [(ws.lam, ws.s, rep.lhs_total, rep.rhs_total)])
    path = ctx.path("snapshot.csv")
    report_to_csv(rep, path)
    return [path]


def cmd_verify_energy(ctx: RunContext):
    twin = ctx.twin
    ws = ctx.weights_energy()
    c = ctx.background + ctx.gamma
    curve = energy(twin.y, c, ws)
    if np.any(curve.values < 0.0):
        raise SolverError("energy curve dips below zero")
    direct = energy_tprime_direct(twin.y, c, ws)
    if abs(curve.e_tprime - direct) > 1e-12 * abs(direct):
        raise SolverError(
            f"midpoint energy paths disagree: {curve.e_tprime} vs {direct}")
    if ws.s >= ENDPOINT_DECAY_S and curve.e_tprime > 0.0:
        for label, value in (("start", curve.values[0]),
                             ("end", curve.values[-1])):
            if value > 1e-6 * curve.e_tprime:
                raise SolverError(
                    f"energy at the window {label} is not suppressed: "
                    f"{value} vs midpoint {curve.e_tprime}")
    terms = bound_terms(twin.y, ctx.gamma, ws)
    snapshot_bound_sides(twin.y, terms, ws)
    energy_bound_sides(curve, terms, ws)

    path = ctx.path("energy_curve.csv")
    curve.to_csv(path)
    files = [path]
    _plot(ctx, files, "energy_curve.svg",
          lambda: [("E", list(curve.times), list(curve.values))],
          title=f"energy along the window (s={fmt(ws.s)})", xlabel="t",
          ylabel="E")
    return files


def cmd_verify_stability(ctx: RunContext):
    pair = make_pair(ctx.background, ctx.gamma, ctx.setup.grid)
    ws = ctx.weights_ref()
    rep = stability_sides(pair, ctx.setup, ws)
    if np.any(pair.gamma):
        _report_underflow("verify-stability",
                          ((ws.lam, ws.s, side.lhs_total, side.rhs_total)
                           for side in (rep.weighted, rep.plain)))
    path = ctx.path("stability.csv")
    stability_to_csv(rep, path)
    return [path]


def cmd_sweep_stability(ctx: RunContext):
    ws = ctx.weights_ref()
    records = stability_sweep(perturbation_family(ctx.setup.grid), ctx.setup,
                              ws)
    if not math.isfinite(max(rec["ratio"] for rec in records)):
        raise SolverError("stability sweep produced no finite ratio")
    _report_underflow("sweep-stability",
                      ((ws.lam, ws.s, rec["lhs"], rec["rhs_weighted"])
                       for rec in records))
    path = ctx.path("sweep.csv")
    sweep_to_csv(records, path)
    files = [path]
    _plot(ctx, files, "sweep.svg",
          lambda: [("ratio", list(range(1, len(records) + 1)),
                    [rec["ratio"] for rec in records])],
          title="two-sided ratio across the family", xlabel="member",
          ylabel="ratio", logy=True)
    return files


def cmd_reconstruct(ctx: RunContext):
    cfg = ctx.cfg
    # reconstruction runs on its own probing drive and early window; the
    # configured t0/steps describe the verification experiments
    inv = inversion_setup(cfg.dimension, cfg.n)
    truth = make_pair(ctx.background, ctx.gamma, inv.grid).c
    data = make_observations(inv, truth, sigma=cfg.sigma, seed=cfg.seed)
    icfg = InverseConfig(prior=ctx.background)
    result = reconstruct(data, inv, icfg, truth=truth)
    if result.message == "line search failed":
        raise SolverError("reconstruction line search failed")
    if not result.converged:
        print(f"reconstruct: {result.message} after "
              f"{result.iterations} iterations", file=sys.stderr)
    path = ctx.path("recon_log.csv")
    result.log_to_csv(path)
    files = [path]
    _plot(ctx, files, "recon_log.svg",
          lambda: [("J", [row[0] for row in result.log],
                    [row[1] for row in result.log])],
          title="reconstruction descent", xlabel="iteration", ylabel="J",
          logy=True)
    return files


def cmd_all(ctx: RunContext):
    """The six report files.  The energy stage builds the snapshot and
    energy bound reports, which raise on a non-finite or negative term,
    but writes neither; the single-pair check is subsumed by the sweep."""
    files = []
    for fn in (cmd_verify_carleman, cmd_verify_poincare, cmd_verify_energy,
               cmd_sweep_stability, cmd_reconstruct):
        files.extend(fn(ctx))
    return files


_DISPATCH = {
    "forward": cmd_forward,
    "verify-carleman": cmd_verify_carleman,
    "verify-poincare": cmd_verify_poincare,
    "verify-snapshot": cmd_verify_snapshot,
    "verify-energy": cmd_verify_energy,
    "verify-stability": cmd_verify_stability,
    "sweep-stability": cmd_sweep_stability,
    "reconstruct": cmd_reconstruct,
    "all": cmd_all,
}


def run(command, config_path=None, plot=False, out=None) -> int:
    try:
        cfg = load_config(config_path)
        if SEED_ENV in os.environ:
            try:
                cfg.seed = int(os.environ[SEED_ENV])
                cfg.validate()
            except ValueError:
                raise ConfigError(f"{SEED_ENV}={os.environ[SEED_ENV]!r} is "
                                  "not a non-negative integer")
        out_dir = out if out is not None else cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if not os.access(out_dir, os.W_OK):
            raise ConfigError(f"output directory {out_dir!r} is not writable")
        ctx = RunContext(cfg, out_dir, plot)
    except (ConfigError, GridError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        files = _DISPATCH[command](ctx)
    except WeightError as exc:
        # built on first use, it states a lambda, s, m or x0 condition
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridError, SolverError, PlotError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for f in files:
        print(f"wrote {f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carleman-lab",
        description="Weighted-estimate verifiers and conductivity "
                    "reconstruction for a heat equation testbed.")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON config; defaults to the packaged "
                             "default.json")
    parser.add_argument("--plot", action="store_true",
                        help="also emit SVG line plots")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (overrides the config)")
    args = parser.parse_args(argv)
    return run(args.command, config_path=args.config, plot=args.plot,
               out=args.out)


if __name__ == "__main__":
    sys.exit(main())
