"""carleman-lab benchmark: one workload per invocation.

    python3 bench/run.py --workload verify-1d --seed 42 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition of the workload is a
fresh interpreter (bench/child.py), started only after the previous one
has ended, with --jobs 1: a closed loop with one client.  The runner
takes its inputs from --seed (written into the config's "seed" key,
which picks the Carleman test suite), checks every repetition's CSVs
(bench/checks.py) and prints, as its last line, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
(--trace 1).  Metric names and units come from BENCHMARK.json.

With --trace 0 it repeats the pipeline until --seconds are spent (at
least MIN_REPS times) and reports medians; set-up is measured in every
repetition and in extra set-up-only interpreters until MIN_SETUPS
samples exist.  With --trace 1 it runs pairs of an untraced and a traced
repetition, requires byte-identical CSVs from both, and reports the
traced counts and self times (bench/tracer.py).
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
from tracer import CSV_WRITERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "carleman_lab")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference")
RUN_DIR = os.path.join(ROOT, ".bench_run")
LOCK = os.path.join(ROOT, ".bench_lock")

WORKLOADS = {
    "verify-1d": os.path.join(PACKAGE_DIR, "default.json"),
    "recon-1d": os.path.join(PACKAGE_DIR, "default.json"),
    "recon-2d": os.path.join(HERE, "cfg2d.json"),
}
STAGES = ("verify-carleman", "verify-poincare", "verify-energy",
          "sweep-stability", "reconstruct")
# spans reported as <name>.calls and <name>.self_s
SPANS = (
    "grid.divergence_flux", "grid.discrete_gradient", "grid.normal_derivative",
    "carleman.carleman_sides", "carleman.apply_M1", "carleman.apply_M2",
    "forward.solve_heat", "forward.solve_B", "setups.drive_evals",
    "stability.misfit_and_gradient", "stability.stability_sides",
    "observe.extract_observations", "observe.weighted_norm_spacetime",
    "observe.weighted_boundary_norm", "weights.build_weights",
    "poincare.proposition_sides", "energy.energy",
    "energy.snapshot_bound_sides", "energy.energy_bound_sides",
)

MIN_REPS = 3
MIN_SETUPS = 7
HARD_LIMIT_S = 165.0   # the whole invocation ends well within 180 s


class Refused(Exception):
    """The benchmark cannot run here; exit without a result."""


def source_digest() -> str:
    """sha256 over the package's files: identifies the code measured,
    also in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith((".py", ".json")):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.count = 0
        self.attempted = 0
        self.problems = []   # (tag of the failed repetition, message)
        self.config = os.path.join(RUN_DIR, "config.json")
        with open(WORKLOADS[workload]) as fh:
            cfg = json.load(fh)
        cfg["seed"] = seed
        with open(self.config, "w") as fh:
            json.dump(cfg, fh, indent=2)

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, mode, environment=False, counted=True):
        """One child interpreter; returns (result dict, its output dir),
        or (None, out) after recording why it failed."""
        self.count += 1
        tag = f"{self.count:03d}_{mode}"
        out = os.path.join(RUN_DIR, tag)
        result_path = os.path.join(RUN_DIR, tag + ".json")
        cmd = [sys.executable, CHILD, "--workload", self.workload,
               "--config", self.config, "--out", out, "--mode", mode,
               "--result", result_path]
        if environment:
            cmd.append("--environment")
        if counted:
            self.attempted += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            self.problems.append((tag, "timed out"))
            return None, out
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append((tag, f"exit {proc.returncode}: "
                                  + " | ".join(tail)))
            return None, out
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - spawned
        result["tag"] = tag
        if mode != "setup":
            try:
                found = checks.check_outputs(self.workload, out, REFERENCE,
                                             self.seed)
            except (OSError, ValueError, IndexError) as exc:
                found = [f"unreadable output: {exc!r}"]
            if found:
                self.problems.extend((tag, p) for p in found)
                return None, out
        return result, out

    @property
    def failed(self) -> int:
        return len({tag for tag, _ in self.problems})

    def measure(self):
        """End-to-end metrics with tracing off."""
        loop_start = time.monotonic()
        runs, setups = [], []
        reps = 0
        while True:
            result, _ = self.spawn("pipeline")
            reps += 1
            if result is not None:
                runs.append(result)
                setups.append(result["setup_s"])
            elapsed = time.monotonic() - loop_start
            per_rep = elapsed / reps
            if self.time_left() < 2.0 * per_rep + 5.0:
                break
            if reps >= MIN_REPS and elapsed + per_rep > self.seconds:
                break
        while len(setups) < MIN_SETUPS and self.time_left() > 10.0:
            result, _ = self.spawn("setup")
            if result is None:
                break
            setups.append(result["setup_s"])
        if not runs:
            return {}, {}
        series = {
            "pipeline_s": [r["pipeline_s"] for r in runs],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        metrics = {name: statistics.median(v) for name, v in series.items()}
        return metrics, series

    def measure_traced(self):
        """Per-layer metrics from pairs of untraced and traced runs."""
        plain, traced = [], []
        reps = 0
        loop_start = time.monotonic()
        while True:
            base, base_out = self.spawn("pipeline")
            result, out = self.spawn("traced")
            reps += 1
            if base is not None and result is not None:
                found = checks.same_bytes(base_out, out)
                found += [f"tracer left {name} unwrapped"
                          for name in result["trace"]["unpatched"]]
                result["out"] = out
                if found:
                    self.problems.extend((result["tag"], p) for p in found)
                else:
                    plain.append(base)
                    traced.append(result)
            elapsed = time.monotonic() - loop_start
            per_pair = elapsed / reps
            if self.time_left() < 2.0 * per_pair + 5.0:
                break
            if elapsed + per_pair > self.seconds:
                break
        if not traced:
            return {}, {}
        first = traced[0]["trace"]["calls"]
        self.problems.extend(
            (r["tag"], "traced call counts differ from the first traced run")
            for r in traced if r["trace"]["calls"] != first)
        self.check_seed_counts(traced[0])
        return self.layer_metrics(plain, traced), {}

    def check_seed_counts(self, result):
        """At the source the references were taken from, the traced
        counts must equal the recorded ones: a tracer that misses a
        rebinding counts too few calls."""
        with open(os.path.join(REFERENCE, "seed.json")) as fh:
            seed = json.load(fh)
        if source_digest() != seed["source_sha256"]:
            return
        expect = seed["counts"].get(self.workload)
        if expect is None:
            return
        if expect["stage"] is None:
            got = result["trace"]["calls"]
        else:
            got = result["stage_calls"].get(expect["stage"], {})
        for name, want in expect["calls"].items():
            if got.get(name, 0) != want:
                self.problems.append((result["tag"], (
                    f"{name} called {got.get(name, 0)} times, "
                    f"{want} recorded at this source")))

    def layer_metrics(self, plain, traced) -> dict:
        med = statistics.median

        def span(kind, name):
            return med([r["trace"][kind].get(name, 0.0) for r in traced])

        calls = traced[0]["trace"]["calls"]
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = span("self_s", name)
        out["stability.misfit_evals"] = calls.get("stability.misfit_evals", 0)
        out["stability.gradient_evals"] = calls.get(
            "stability.gradient_evals", 0)
        iters = error = to_5pct = 0
        if self.workload != "verify-1d":
            iters, error, to_5pct, _ = checks.recon_log(traced[0]["out"])
        out["stability.recon_iters"] = iters
        trials = out["stability.misfit_evals"]
        out["stability.ls_accept_ratio"] = iters / trials if trials else 0.0
        out["stability.recon_h1_error"] = error
        out["stability.recon_iters_to_5pct"] = to_5pct
        out["config.load_config.s"] = med([r["load_config_s"] for r in traced])
        out["config.evaluate_field.s"] = span("total_s",
                                              "config.evaluate_field")
        out["cli.import_s"] = med([r["import_s"] for r in traced])
        out["cli.context_s"] = med([r["context_s"] for r in traced])
        for stage in STAGES:
            out[f"cli.stage_s.{stage}"] = span("total_s",
                                               f"cli.stage_s.{stage}")
        out["report.csv_s"] = sum(span("total_s", w) for w in CSV_WRITERS)
        out_dir = traced[0]["out"]
        out["report.bytes_written"] = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in os.listdir(out_dir))
        out["trace.overhead_s"] = (med([r["pipeline_s"] for r in traced])
                                   - med([r["pipeline_s"] for r in plain]))
        return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> int:
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise Refused(f"no carleman_lab sources under {PACKAGE_DIR}")
    declared = declared_metrics(args.trace)
    lock = open(LOCK, "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        lock.close()
        raise Refused("another benchmark workload is running in this "
                      "checkout")
    try:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        os.makedirs(RUN_DIR)
        runner = Runner(args.workload, args.seed, args.seconds)
        # compiles the bytecode and reports the environment; not a sample
        warm, _ = runner.spawn("setup", environment=True, counted=False)
        if warm is None:
            raise Refused("set-up failed: "
                          + "; ".join(p for _, p in runner.problems))
        print(json.dumps({"environment": warm["environment"],
                          "source_sha256": source_digest(),
                          "git_commit": git_commit(),
                          "workload": args.workload, "seed": args.seed}))
        if args.trace:
            values, series = runner.measure_traced()
        else:
            values, series = runner.measure()
        for name, vals in series.items():
            q1, q2, q3 = quartiles(vals)
            print(json.dumps({"series": name, "samples": len(vals),
                              "q1": q1, "median": q2, "q3": q3}))
        missing = [m["name"] for m in declared if m["name"] not in values]
        if values and missing:
            runner.problems.append(("metrics", f"not measured: {missing}"))
        for tag, problem in runner.problems:
            print(f"check failed: {tag}: {problem}", file=sys.stderr)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared if m["name"] in values}
        print(json.dumps({"correct": not runner.problems,
                          "attempted": runner.attempted,
                          "failed": runner.failed,
                          "metrics": metrics}))
        return 0 if values else 1
    finally:
        fcntl.flock(lock, fcntl.LOCK_UN)
        lock.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except Refused as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
