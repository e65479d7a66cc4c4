"""One workload run in a fresh interpreter, as one user invocation.

Started by run.py, one at a time.  It imports carleman_lab from the
checkout's src/, builds a cli.RunContext from the given config, runs the
workload's pipeline with --jobs 1 and writes a JSON result file.  Output
checks are made by run.py on the CSVs this process writes.

    python3 bench/child.py --workload recon-1d --config CFG --out DIR \
        --mode pipeline --result RESULT.json

Modes: "setup" stops once the context is built; "pipeline" also runs the
workload; "traced" runs it with the per-layer tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from checks import RECON_2D_ITERS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _stages(workload, cli):
    """(stage name, callable of the context) in pipeline order."""
    if workload == "verify-1d":
        return [("verify-carleman", cli.cmd_verify_carleman),
                ("verify-poincare", cli.cmd_verify_poincare),
                ("verify-energy", cli.cmd_verify_energy),
                ("sweep-stability", cli.cmd_sweep_stability)]
    if workload == "recon-1d":
        return [("reconstruct", cli.cmd_reconstruct)]
    if workload == "recon-2d":
        return [("reconstruct", _reconstruct_budget)]
    raise SystemExit(f"unknown workload {workload!r}")


def _reconstruct_budget(ctx):
    """cmd_reconstruct's inputs and output, under a fixed iteration
    budget instead of InverseConfig's default of 200."""
    from carleman_lab import forward, setups, stability

    cfg = ctx.cfg
    inv = setups.inversion_setup(cfg.dimension, cfg.n)
    truth = stability.make_pair(ctx.background, ctx.gamma, inv.grid).c
    data = stability.make_observations(inv, truth, sigma=cfg.sigma,
                                       seed=cfg.seed)
    icfg = stability.InverseConfig(prior=ctx.background,
                                   max_iters=RECON_2D_ITERS)
    result = stability.reconstruct(data, inv, icfg, truth=truth)
    if result.message == "line search failed":
        raise forward.SolverError("reconstruction line search failed")
    result.log_to_csv(ctx.path("recon_log.csv"))


def _environment():
    import platform

    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": _blas_threads(numpy, scipy),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _blas_threads(numpy, scipy) -> dict:
    """Thread count of each bundled OpenBLAS, asked of the library."""
    import ctypes
    import glob

    out = {}
    for mod in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)),
                            mod.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "pipeline", "traced"),
                        required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--environment", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    clock = time.perf_counter
    start = clock()
    from carleman_lab import cli
    import_s = clock() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"carleman_lab came from {cli.__file__}, not {SRC}")

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    start = clock()
    cfg = cli.load_config(args.config)
    load_config_s = clock() - start
    os.makedirs(args.out, exist_ok=True)
    start = clock()
    ctx = cli.RunContext(cfg, args.out, False, 1)
    context_s = clock() - start
    # CLOCK_MONOTONIC is system-wide: run.py subtracts its spawn time
    result = {"t_ready": time.monotonic(), "import_s": import_s,
              "load_config_s": load_config_s, "context_s": context_s}

    if args.mode != "setup":
        stage_s, stage_calls = {}, {}
        pipeline_start = clock()
        for name, fn in _stages(args.workload, cli):
            if tracer is not None:
                fn = tracer.span(f"cli.stage_s.{name}", fn)
                before = dict(tracer.calls)
            start = clock()
            fn(ctx)
            stage_s[name] = clock() - start
            if tracer is not None:
                after = dict(tracer.calls)
                stage_calls[name] = {k: v - before.get(k, 0)
                                     for k, v in after.items()
                                     if v != before.get(k, 0)}
        result["pipeline_s"] = clock() - pipeline_start
        result["stage_s"] = stage_s
        if tracer is not None:
            result["stage_calls"] = stage_calls
    if tracer is not None:
        result["trace"] = tracer.report()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.environment:
        result["environment"] = _environment()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
