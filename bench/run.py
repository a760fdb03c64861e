"""Benchmark of seqcred's Monte-Carlo experiment harness.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload coverage-direct --seed 1 --seconds 50 --trace 0

Each workload is a fixed list of experiment specs built from
``seqcred.experiments.default_spec``.  One pass runs every spec once through
the public ``run_experiment``.  Pass k of a run sets ``master_seed`` and
``signal_seed`` to ``PASS_SEEDS * seed + k``, so every pass draws fresh data
and a run averages over as many replications as fit in ``--seconds``.
Passes repeat until ``--seconds`` have gone by, and the timings reported are
medians over passes.  ``DDM_THREADS`` is removed from the environment, so the
program's default worker count is what is measured.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: importing ``seqcred`` and building and validating the specs
  and their signals, in a fresh interpreter; median of ``SETUP_RUNS``.
* ``wall_s``: wall time of one pass of ``run_experiment`` calls.
* ``reps_per_s``: simulated data sets of one pass, pilot and main over all
  cells, per second of ``wall_s``.
* ``peak_rss_mib``: peak resident memory of the benchmark process.
* ``cell_success_ratio``: cells that succeeded over cells attempted, pilot
  cells included; a failed cell lowers it below 1.

``--trace 1`` alternates untraced and traced passes, all of pass 0's
specs and with one worker, so that every span is recorded in this process.
A traced pass wraps the public functions listed in ``spans.LAYERS``.  The
run reports, per pass, each function's calls and self time, counts read from
the values they return, the tracing overhead (traced minus untraced
``wall_s``) and the share of the traced wall time spent in the layers below
``run_experiment``.  The spans of the run are written to ``bench/out/`` when
it ends.

Every pass is checked: no failed cells, every statistic and standard error
finite, and every frequency in [0, 1].  The SHA-256 of each CSV is recorded
in ``bench/out/csv_sha256.json`` under a digest of the package source and
the spec, and must match every earlier run of the same source and spec,
including the passes of this run.

Out of scope: tier-1 wall time and acceptance-scale specs take minutes to
run, far too long to repeat for every measured run; pilot and main passes are
not timed apart, since that needs phase timings from the program itself; the
``seqcred`` command-line front end is not measured.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: fresh interpreters timed for setup_s
SETUP_RUNS = 5
#: passes measured at least, whatever --seconds says
MIN_PASSES = 3
#: seeds reserved per run: pass k of the run with --seed s uses PASS_SEEDS * s + k
PASS_SEEDS = 1000

#: workload -> ((experiment kind, overrides of default_spec), ...); reps are
#: sized so one pass takes one to three seconds on one core.  There is no
#: workload without posterior draws (oracle-inequality plus scale-adaptation):
#: on a shared host its wall time spread past a 25% bound over runs of 30 s,
#: and the time limit on all runs leaves room for long runs of two workloads
#: only.  So oracle.covers_check is never called.
WORKLOADS = {
    "coverage-direct": (
        ("coverage-size", {"p": 0.0, "eps_grid": (0.1,), "n_trunc": 1024, "reps": 4, "pilot_reps": 2}),
    ),
    "smallball-growing": (
        ("small-ball", {"p": 1.0, "eps_grid": (0.05,), "n_trunc": 1024, "reps": 3}),
    ),
}

#: CSV row kinds whose statistic is a frequency
FREQUENCY_KINDS = frozenset(
    {
        "coverage-size:coverage",
        "coverage-size:miss-phi2",
        "coverage-size:psi",
        "coverage-size:size",
        "small-ball:psi:oracle-rate",
        "small-ball:psi:sigma-sum-surrogate",
    }
)

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_seqcred():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import seqcred.experiments

    return seqcred.experiments


def build_specs(workload: str, seed: int, k: int = 0) -> list:
    """Specs of pass k of a run with the given seed."""
    if not 0 <= k < PASS_SEEDS:
        raise ValueError(f"pass {k} outside [0, {PASS_SEEDS})")
    experiments = _import_seqcred()
    pass_seed = PASS_SEEDS * seed + k
    return [
        experiments.default_spec(kind, master_seed=pass_seed, signal_seed=pass_seed, **overrides)
        for kind, overrides in WORKLOADS[workload]
    ]


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import seqcred and build and validate the workload's specs
    and signals; meaningful only as the first import of a fresh interpreter."""
    t0 = time.perf_counter()
    _import_seqcred()
    from seqcred.model import generate_signal
    from seqcred.oracle import scale_class

    for spec in build_specs(workload, seed):
        for desc in spec.signals:
            for eps in spec.eps_grid:
                params = dict(desc.get("params", {}))
                if desc["kind"] == "deceptive":
                    params.update(epsilon=eps, p=spec.p)
                generate_signal(desc["kind"], params, n_trunc=spec.n_trunc, seed=spec.signal_seed)
        for desc in spec.scales:
            scale_class(desc["name"], desc.get("params", {}), spec.n_trunc)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
        f"print(repr(run.setup_once({workload!r}, {seed})))"
    )
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def simulated_datasets(spec) -> int:
    """Data sets one run_experiment call of this spec simulates."""
    n_cells = len(spec.signals) * len(spec.eps_grid)
    if spec.kind == "coverage-size":
        return n_cells * (spec.reps + spec.pilot_reps)
    if spec.kind == "small-ball":
        return n_cells * 2 * spec.reps  # one estimate_psi per scaling
    raise ValueError(f"no data-set count for {spec.kind!r}")


def cells_attempted(report) -> int:
    spec = report.spec
    n = report.runtime["n_cells"]
    has_pilot = spec.kind == "coverage-size" and (spec.coverage_inflation is None or spec.size_threshold is None)
    return 2 * n if has_pilot else n


def check_report(report) -> list[str]:
    """Output checks of one run_experiment result; returns the problems."""
    problems = [f"{report.spec.kind}: failed cell {f['cell']}" for f in report.summary["failed_cells"]]
    for row in report.cells:
        stat, se = row["statistic"], row["std_error"]
        if not (math.isfinite(stat) and math.isfinite(se)):
            problems.append(f"{row['kind']}: non-finite statistic {stat!r} or std_error {se!r}")
        elif row["kind"] in FREQUENCY_KINDS and not 0.0 <= stat <= 1.0:
            problems.append(f"{row['kind']}: frequency {stat!r} outside [0, 1]")
    return problems


def csv_sha256(experiments, report, tag: str) -> str:
    path = experiments.write_report(report, "csv", OUT_DIR / f"{tag}.csv")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seqcred").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_recorded_csvs(digests: dict[str, str]) -> list[str]:
    """Compare CSV hashes, keyed by spec JSON, with earlier runs of the same
    source and spec, and record them for later runs."""
    record_path = OUT_DIR / "csv_sha256.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    src = source_digest()
    problems = []
    for spec_json, digest in digests.items():
        key = hashlib.sha256((src + spec_json).encode()).hexdigest()
        if record.setdefault(key, digest) != digest:
            problems.append(f"CSV differs from an earlier run of the same source and spec {spec_json}")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return problems


class Runner:
    """Runs passes of one workload and checks every result."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.experiments = _import_seqcred()
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.datasets = sum(simulated_datasets(spec) for spec in self.specs(0))
        self.digests: dict[str, str] = {}  # spec JSON -> CSV SHA-256
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.workers: set[int] = set()
        self.walls: list[float] = []  # every pass, in order

    def specs(self, k: int) -> list:
        specs = build_specs(self.workload, self.seed, k)
        if self.trace:
            specs = [dataclasses.replace(spec, workers=1) for spec in specs]
        return specs

    def run_pass(self, k: int) -> float:
        """Pass k over the specs; returns the wall time of the run_experiment calls."""
        wall = 0.0
        reports = []
        for spec in self.specs(k):
            t0 = time.perf_counter()
            # looked up on each call so that a traced pass sees the wrapper
            reports.append(self.experiments.run_experiment(spec))
            wall += time.perf_counter() - t0
        for report in reports:
            self.attempted += cells_attempted(report)
            self.failed += len(report.summary["failed_cells"])
            self.workers.add(report.runtime["workers"])
            self.problems.extend(check_report(report))
            digest = csv_sha256(self.experiments, report, f"{self.workload}-{report.spec.kind}")
            if self.digests.setdefault(report.spec.to_json(), digest) != digest:
                self.problems.append(f"{report.spec.kind}: CSV differs between passes of the same spec")
        self.walls.append(wall)
        return wall


def warm_up(specs) -> None:
    """One untimed pass at one replication per cell, so that lazy imports and
    first-call set-up inside numpy and scipy finish before timing."""
    experiments = _import_seqcred()
    for spec in specs:
        experiments.run_experiment(dataclasses.replace(spec, reps=1, pilot_reps=1))


def pass_layers(pass_spans: list) -> dict:
    """Calls, self time and result counts per span name over one pass."""
    out = {name: {"calls": 0, "self_s": 0.0, "counts": {}} for name in spans.SPAN_NAMES}
    for span in pass_spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += span.self_s
        for key, value in (span.counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def traced_metrics(runner: Runner, tracer: spans.Tracer, seconds: float) -> dict:
    untraced_walls, traced_walls, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < 2 or time.perf_counter() < deadline:
        untraced_walls.append(runner.run_pass(0))
        first = len(tracer.spans)
        with spans.traced(tracer):
            traced_walls.append(runner.run_pass(0))
        layers.append(pass_layers(tracer.spans[first:]))

    calls = [{name: entry["calls"] for name, entry in layer.items()} for layer in layers]
    counts = [{name: entry["counts"] for name, entry in layer.items()} for layer in layers]
    if any(c != calls[0] for c in calls) or any(c != counts[0] for c in counts):
        runner.problems.append("span calls or result counts differ between traced passes of the same spec")
    if calls[0]["model.simulate"] != runner.datasets:
        runner.problems.append(f"traced {calls[0]['model.simulate']} simulate calls, expected {runner.datasets}")

    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[0][name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(layer[name]["self_s"] for layer in layers), "s")
    weights = layers[0]["posterior.mixture_weights"]
    center = counts[0]["credible.default_center"]
    mean_index = weights["counts"]["mean_index"] / weights["calls"] if weights["calls"] else 0.0
    metrics["posterior.mixture_weights.mean_index"] = (mean_index, "index")
    metrics["credible.default_center.candidates"] = (center.get("candidates", 0), "count")
    metrics["credible.default_center.unverified"] = (center.get("unverified", 0), "count")
    metrics["credible.radius_from_distances.samples"] = (
        counts[0]["credible.radius_from_distances"].get("samples", 0),
        "count",
    )
    traced_wall = statistics.median(traced_walls)
    untraced_wall = statistics.median(untraced_walls)
    overhead = statistics.median(t - u for t, u in zip(traced_walls, untraced_walls))
    below_root = [
        sum(entry["self_s"] for name, entry in layer.items() if name != "experiments.run_experiment") / wall
        for layer, wall in zip(layers, traced_walls)
    ]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.layer_self_share"] = (statistics.median(below_root), "ratio")
    metrics["trace.spans"] = (len(tracer.spans) // len(layers), "count")
    return metrics


def untraced_metrics(runner: Runner, seconds: float) -> dict:
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        walls.append(runner.run_pass(len(walls)))
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s"),
        "reps_per_s": (runner.datasets / wall, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "cell_success_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
    }


def environment(runner: Runner) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": sorted(runner.workers),
        "DDM_THREADS": os.environ.get("DDM_THREADS"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, run record)."""
    os.environ.pop("DDM_THREADS", None)
    OUT_DIR.mkdir(exist_ok=True)
    metrics = {"setup_s": (measure_setup(workload, seed), "s")} if not trace else {}
    runner = Runner(workload, seed, trace)
    warm_up(runner.specs(0))
    tracer = spans.Tracer()
    if trace:
        metrics.update(traced_metrics(runner, tracer, seconds))
        with open(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.astuple(span)) + "\n")
    else:
        metrics.update(untraced_metrics(runner, seconds))
    runner.problems.extend(check_recorded_csvs(runner.digests))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(runner),
        "pass_walls_s": runner.walls,
        "csv_sha256": {
            "{kind}:{master_seed}".format(**json.loads(spec_json)): digest
            for spec_json, digest in runner.digests.items()
        },
        "problems": runner.problems,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "seqcred" / "experiments.py").is_file():
        print(f"no seqcred source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
