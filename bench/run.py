"""Benchmark for manoplace: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload tsp-p64 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30     # every workload, one process each
    python3 -m pytest bench/test_spans.py         # the benchmark's own tests

Workloads. Inputs are generated from ``--seed`` and written to files; the
program only ever sees those files.

* ``tsp-p64``: ``solve-tsp`` through ``cli.cli_main`` on 3 instances with
  64 PoPs and 240 VNFs, 2 search seeds each, so 6 solves per pass.
* ``sweep-p10``: ``harness.run_experiment`` over VNF counts 10..40 in steps
  of 5, tsp (5 seeds per point) against exact, one sweep per pass, on 16
  generated 10-PoP topologies. The cost per topology is heavy tailed (an
  occasional one takes 5 to 20 times as long, in the oracle or in its
  per-domain branch and bound), so time is a median over sweeps, not a sum.
  A 128-PoP ``tsp`` workload is absent: it runs 47 s, then raises
  ``NoFeasiblePlan``.
* ``lp-p8``: ``lp_export.export_lp`` then ``lp_export.check_lp_file`` on one
  instance with 8 PoPs and 30 VNFs per pass.

A run is single threaded. It repeats passes, cycling through the workload's
inputs, until ``--seconds`` have passed and every input has run at least
once. With ``--trace 0`` it prints the end-to-end metrics:

* ``wall_s``: median pass time, set-up and verification excluded;
* ``solve_ms.p50``: median time of one operation (a solve-tsp call, a sweep,
  an export plus check), with its sample count;
* ``peak_rss_mb``: peak resident memory of this process (for ``lp-p8`` it
  includes the 20 MB of ``MemoryReference``);
* ``setup_s``: median over 5 fresh interpreters of importing the package,
  generating the inputs and writing them.

Times are scaled to a fixed machine speed (see ``Clock``); the table printed
above the JSON line shows them next to the unscaled wall times.

With ``--trace 1`` cycles alternate between untraced and traced, and the run
prints the per-layer metrics (see ``LAYER_METRICS``) of the traced cycles
plus ``trace.overhead_pct``. Spans come from wrappers installed by
``spans.Tracer`` and are written to ``bench/.out/`` at exit.

Correctness gate: every solve-tsp solution passes ``check_feasibility``;
every exact sweep run is optimal and no tsp objective beats it; sweep CSVs,
LP files and the exact counts (iterations, oracle nodes, objectives, LP rows
and variables) repeat exactly across passes and match ``expected.json`` when
it holds the seed; the LP file checks clean and has the recorded size. Any
failure counts in ``failed`` and the exit code is 1. The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import Span, Target, Tracer, percentile, self_times, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
EXPECTED = BENCH / "expected.json"
SETUP_REPEATS = 5

TSP_POPS, TSP_VNFS, TSP_INSTANCES, TSP_SEARCH_SEEDS = 64, 240, 3, 2
SWEEP_POPS, SWEEP_TOPOLOGIES, SWEEP_RUNS = 10, 16, 5
SWEEP_VNF_COUNTS = list(range(10, 41, 5))
LP_POPS, LP_VNFS = 8, 30
# The LP's size depends only on the PoP and VNF counts.
LP_RECORDED = {"lp_export.variables": 65112, "lp_export.rows": 294991}


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Op:
    seconds: float = 0.0  # wall time
    scaled: float = 0.0  # wall time at the reference speed, see Clock
    errors: list[str] = field(default_factory=list)


class CpuReference:
    """Times a fixed unit of pure-Python work whose working set fits in a
    core's own cache: dictionary updates, integer arithmetic, string
    formatting and splitting, the kinds of work the solvers do."""

    NOMINAL_S = 0.030

    def __call__(self) -> float:
        start = time.perf_counter()
        table: dict[int, int] = {}
        names = []
        for i in range(40_000):
            table[i & 1023] = table.get(i & 1023, 0) + i * i % 7
            names.append(f"y_{i}_{i & 63}")
        " ".join(names).split()
        return time.perf_counter() - start


class MemoryReference:
    """Times a sum over 500,000 integer objects taken in an order unrelated
    to where they lie in memory: a working set far beyond a core's own
    cache, as in LP export, whose slowdowns the CPU reference misses."""

    NOMINAL_S = 0.040

    def __init__(self):
        rng = random.Random(0)
        self.values = [rng.randrange(1 << 40) for _ in range(500_000)]
        rng.shuffle(self.values)

    def __call__(self) -> float:
        start = time.perf_counter()
        sum(self.values)
        return time.perf_counter() - start


class Clock:
    """Times operations and scales each to a fixed machine speed.

    On a machine whose cores are shared with other virtual machines, the
    speed one process gets drifts by tens of percent within seconds, and a
    plain wall time spreads as much. So a reference is timed before and
    after every operation, and the operation's wall time is multiplied by
    the reference's nominal time over the mean of the two, raised to
    ``SENSITIVITY``. A program change moves the scaled time as it moves wall
    time, while drift in machine speed largely cancels. Operations last a
    few seconds at most, because the drift is that fast.

    The workloads slow down less than their reference when the machine is
    busy: over 20 runs of each workload, log wall time against log
    reference time had slopes of 0.7 to 0.95 (correlation 0.96 or more),
    hence an exponent below one.
    """

    SENSITIVITY = 0.75

    def __init__(self, reference: CpuReference | MemoryReference):
        self.measure = reference
        self.reference = reference()

    @contextlib.contextmanager
    def timed(self, op: Op | None = None):
        """Time the block and add it to ``op`` (a new one unless given)."""
        op = op or Op()
        start = time.perf_counter()
        yield op
        seconds = time.perf_counter() - start
        after = self.measure()
        op.seconds += seconds
        speed = self.measure.NOMINAL_S / ((self.reference + after) / 2)
        op.scaled += seconds * speed ** self.SENSITIVITY
        self.reference = after


@dataclass
class PassResult:
    ops: list[Op]
    exact: dict  # counts and digests that must repeat exactly


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def tsp_inputs(seed: int, workdir: Path) -> list:
    from manoplace import topology

    seeds = _seeds(seed, TSP_INSTANCES * (1 + TSP_SEARCH_SEEDS))
    solves = []
    for i in range(TSP_INSTANCES):
        instance = topology.generate_instance(topology.GeneratorConfig(
            pop_count=TSP_POPS, vnf_count=TSP_VNFS, seed=seeds[i]))
        path = workdir / f"tsp{i}.json"
        topology.save_problem(instance, path)
        base = TSP_INSTANCES + i * TSP_SEARCH_SEEDS
        solves.extend((path, instance, s) for s in seeds[base:base + TSP_SEARCH_SEEDS])
    return [solves]


def tsp_pass(solves, workdir: Path, clock: Clock) -> PassResult:
    from manoplace import cli, model

    ops, objective_sum, iterations = [], 0, 0
    for index, (path, instance, search_seed) in enumerate(solves):
        out = workdir / f"solution{index}.json"
        argv = ["solve-tsp", str(path), "--seed", str(search_seed), "--output", str(out)]
        stdout = io.StringIO()
        with clock.timed() as op, contextlib.redirect_stdout(stdout):
            code = cli.cli_main(argv)
        ops.append(op)
        if code != 0:
            op.errors.append(f"{path.name} seed {search_seed}: solve-tsp exited {code}")
            continue
        solution = model.load_solution(out)
        report = model.check_feasibility(instance, solution)
        op.errors.extend(f"{path.name} seed {search_seed}: {entry}"
                         for entry in report.entries)
        objective_sum += solution.objective
        iterations += int(re.search(r"^iterations=(\d+)$", stdout.getvalue(), re.M)[1])
    return PassResult(ops, {"objective_sum": objective_sum, "tabu.iterations": iterations})


def sweep_inputs(seed: int, workdir: Path) -> list:
    from manoplace import topology

    seeds = _seeds(seed, 2 * SWEEP_TOPOLOGIES)
    jobs = []
    for j in range(SWEEP_TOPOLOGIES):
        instance = topology.generate_instance(topology.GeneratorConfig(
            pop_count=SWEEP_POPS, vnf_count=SWEEP_VNF_COUNTS[0], seed=seeds[j]))
        instance_path = workdir / f"topology{j}.json"
        topology.save_problem(instance, instance_path)
        csv_path = workdir / f"sweep{j}.csv"
        config = {
            "instance_file": str(instance_path),
            "vnf_counts": SWEEP_VNF_COUNTS,
            "algorithms": ["tsp", "exact"],
            "runs_per_point": SWEEP_RUNS,
            "base_seed": seeds[SWEEP_TOPOLOGIES + j],
            "output": str(csv_path),
            # Large enough that every point is proved optimal and the time
            # limit never binds, so results do not depend on machine speed.
            "oracle_max_nodes": 10**9,
            "oracle_time_limit_s": 1e6,
        }
        config_path = workdir / f"sweep{j}.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        jobs.append((config_path, csv_path))
    return jobs


def sweep_pass(job, workdir: Path, clock: Clock) -> PassResult:
    from manoplace import harness

    config_path, csv_path = job
    with clock.timed() as op:
        records = harness.run_experiment(harness.load_experiment_config(config_path))
    exact = {r.vnfs: r for r in records if r.algorithm == "exact"}
    tsp = [r for r in records if r.algorithm == "tsp"]
    for r in records:
        if r.status != "ok":
            op.errors.append(f"{config_path.name}: {r.algorithm} at {r.vnfs} VNFs: {r.status}")
    for r in tsp:
        best = exact.get(r.vnfs)
        if r.status == "ok" and best is not None and best.status == "ok" \
                and r.objective < best.objective:
            op.errors.append(f"{config_path.name}: tsp seed {r.seed} at {r.vnfs} VNFs "
                             f"beats the optimum ({r.objective} < {best.objective})")
    return PassResult([op], {
        "tsp_objective_sum": sum(r.objective or 0 for r in tsp),
        "exact_objective_sum": sum(r.objective or 0 for r in exact.values()),
        "tabu.iterations": sum(r.iterations or 0 for r in tsp),
        "oracle.nodes": sum(r.iterations or 0 for r in exact.values()),
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    })


def lp_inputs(seed: int, workdir: Path) -> list:
    from manoplace import topology

    instance = topology.generate_instance(topology.GeneratorConfig(
        pop_count=LP_POPS, vnf_count=LP_VNFS, seed=_seeds(seed, 1)[0]))
    path = workdir / "lp.json"
    topology.save_problem(instance, path)
    return [path]


def lp_pass(path, workdir: Path, clock: Clock) -> PassResult:
    from manoplace import lp_export, topology

    lp_path = workdir / "model.lp"
    with clock.timed() as op:
        summary = lp_export.export_lp(topology.load_problem(path), lp_path)
    with clock.timed(op):
        diagnostics = lp_export.check_lp_file(lp_path)
    op.errors += [f"check_lp_file: {d}" for d in diagnostics]
    data = lp_path.read_bytes()
    lp_path.unlink()
    exact = {"lp_export.variables": summary.variables, "lp_export.rows": summary.constraints,
             "lp_export.file_bytes": len(data),
             "lp_sha256": hashlib.sha256(data).hexdigest()}
    for key, want in LP_RECORDED.items():
        if exact[key] != want:
            op.errors.append(f"{key} = {exact[key]}, recorded {want}")
    return PassResult([op], exact)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, Path], list]
    run_pass: Callable[[object, Path, Clock], PassResult]
    reference: type  # the Clock's reference: the one whose slowdowns match


WORKLOADS = {w.name: w for w in (
    Workload("tsp-p64", tsp_inputs, tsp_pass, CpuReference),
    Workload("sweep-p10", sweep_inputs, sweep_pass, CpuReference),
    Workload("lp-p8", lp_inputs, lp_pass, MemoryReference),
)}


# ---------------------------------------------------------------------------
# Tracing targets and per-layer metrics


def _search_counts(args, kwargs, result):
    from manoplace.tabu import TabuParams

    instance, params = args[0], args[1] if len(args) > 1 else kwargs.get("params")
    samples = (params or TabuParams()).resolved(instance.pop_count)[2]
    return {"iterations": result.iterations, "candidates": result.iterations * samples}


def _domain_counts(args, kwargs, result):
    from manoplace.vnfm import EXACT_THRESHOLD

    domain = args[1]
    threshold = args[2] if len(args) > 2 else kwargs.get("exact_threshold", EXACT_THRESHOLD)
    return {"vnfs": len(domain.vnf_ids), "greedy": int(len(domain.vnf_ids) > threshold)}


def trace_targets() -> list[Target]:
    """Public functions wrapped at the attribute each caller looks them up by."""
    from manoplace import cli, harness, lp_export, model, oracle, topology, vnfm

    return [
        Target(cli, "cli_main", "cli.cli_main"),
        Target(cli, "load_problem", "cli.load_problem"),
        Target(cli, "two_step_place_detailed", "cli.two_step_place_detailed"),
        Target(cli, "save_solution", "cli.save_solution"),
        Target(vnfm, "search", "vnfm.search", _search_counts),
        Target(vnfm, "place_domain", "vnfm.place_domain", _domain_counts),
        Target(vnfm, "two_step_place_detailed", "vnfm.two_step_place_detailed"),
        Target(oracle, "place_domain", "oracle.place_domain", _domain_counts),
        Target(harness, "run_experiment", "harness.run_experiment"),
        Target(harness, "load_experiment_config", "harness.load_experiment_config"),
        Target(harness, "load_problem", "harness.load_problem"),
        Target(harness, "with_uniform_vnfs", "harness.with_uniform_vnfs"),
        Target(harness, "solve_exact", "harness.solve_exact",
               lambda a, k, r: {"nodes": r.nodes_explored}),
        Target(harness, "write_csv", "harness.write_csv"),
        Target(lp_export, "export_lp", "lp_export.export_lp"),
        Target(lp_export, "build_lp_model", "lp_export.build_lp_model"),
        Target(lp_export, "write_lp_model", "lp_export.write_lp_model"),
        Target(lp_export, "check_lp_file", "lp_export.check_lp_file"),
        Target(topology, "load_problem", "topology.load_problem"),
        Target(topology, "generate_instance", "topology.generate_instance"),
        Target(topology, "save_problem", "topology.save_problem"),
        Target(model, "load_solution", "model.load_solution"),
        Target(model, "check_feasibility", "model.check_feasibility",
               lambda a, k, r: {"violations": len(r.entries)}),
    ]


END_TO_END = {"wall_s": "s", "solve_ms.p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
LAYERS = ("topology", "tabu", "vnfm", "model", "oracle", "lp_export", "harness", "cli")

# Per-layer metrics: name -> (unit, how passes of one input combine).
# "median": median over the input's traced passes; "first": its first traced
# pass (counts repeat exactly); "max": largest over passes. Inputs are then
# summed (max for "max"), so values are per cycle over the workload's inputs.
# "ratio" metrics are derived from the others, "setup" ones from set-up spans.
LAYER_METRICS = {
    "tabu.search_ms": ("ms", "median"),
    "tabu.ms_per_iteration": ("ms", "ratio"),
    "tabu.iterations": ("count", "first"),
    "tabu.candidates_computed": ("count", "first"),
    "oracle.solve_ms": ("ms", "median"),
    "oracle.nodes": ("count", "first"),
    "oracle.us_per_node": ("us", "ratio"),
    "oracle.place_domain_calls": ("count", "first"),
    "oracle.place_domain_ms": ("ms", "median"),
    "vnfm.place_domain_ms": ("ms", "median"),
    "vnfm.place_domain_calls": ("count", "first"),
    "vnfm.greedy_domains": ("count", "first"),
    "vnfm.max_domain_vnfs": ("count", "max"),
    "topology.load_ms": ("ms", "median"),
    "topology.generate_ms": ("ms", "setup"),
    "lp_export.build_ms": ("ms", "median"),
    "lp_export.write_ms": ("ms", "median"),
    "lp_export.check_ms": ("ms", "median"),
    "lp_export.rows": ("count", "first"),
    "lp_export.variables": ("count", "first"),
    "lp_export.file_mb": ("MB", "first"),
    "lp_export.build_peak_mb": ("MB", "max"),
    "harness.run_experiment_ms": ("ms", "median"),
    "harness.write_csv_ms": ("ms", "median"),
    "harness.tsp_gap_pct": ("%", "ratio"),
    "cli.objective_sum": ("count", "first"),
    "model.check_ms": ("ms", "median"),
    "model.violations": ("count", "first"),
    **{f"{layer}.self_ms": ("ms", "median") for layer in LAYERS},
    "trace.overhead_pct": ("%", "ratio"),
}


def pass_layer_values(spans: list[Span], exact: dict) -> dict[str, float]:
    """Per-pass values of every per-input metric, from one pass's spans."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    max_vnfs = 0
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start) * 1000
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[f"{s.name}:{key}"] = counts.get(f"{s.name}:{key}", 0) + value
        if s.name == "vnfm.place_domain":
            max_vnfs = max(max_vnfs, s.counts["vnfs"])
    own = self_times(spans)
    values = {
        "tabu.search_ms": busy.get("vnfm.search", 0.0),
        "tabu.iterations": exact.get("tabu.iterations", 0),
        "tabu.candidates_computed": counts.get("vnfm.search:candidates", 0),
        "oracle.solve_ms": busy.get("harness.solve_exact", 0.0),
        "oracle.nodes": exact.get("oracle.nodes", 0),
        "oracle.place_domain_calls": calls.get("oracle.place_domain", 0),
        "oracle.place_domain_ms": busy.get("oracle.place_domain", 0.0),
        "vnfm.place_domain_ms": busy.get("vnfm.place_domain", 0.0),
        "vnfm.place_domain_calls": calls.get("vnfm.place_domain", 0),
        "vnfm.greedy_domains": counts.get("vnfm.place_domain:greedy", 0),
        "vnfm.max_domain_vnfs": max_vnfs,
        "topology.load_ms": sum(busy.get(n, 0.0) for n in (
            "cli.load_problem", "harness.load_problem", "topology.load_problem")),
        "lp_export.build_ms": busy.get("lp_export.build_lp_model", 0.0),
        "lp_export.write_ms": busy.get("lp_export.write_lp_model", 0.0),
        "lp_export.check_ms": busy.get("lp_export.check_lp_file", 0.0),
        "lp_export.rows": exact.get("lp_export.rows", 0),
        "lp_export.variables": exact.get("lp_export.variables", 0),
        "lp_export.file_mb": exact.get("lp_export.file_bytes", 0) / 1e6,
        "harness.run_experiment_ms": busy.get("harness.run_experiment", 0.0),
        "harness.write_csv_ms": busy.get("harness.write_csv", 0.0),
        "cli.objective_sum": exact.get("objective_sum", 0),
        "model.check_ms": busy.get("model.check_feasibility", 0.0),
        "model.violations": counts.get("model.check_feasibility:violations", 0),
    }
    values.update({f"{layer}.self_ms": own.get(layer, 0.0) * 1000 for layer in LAYERS})
    return values


def tsp_gap_pct(exacts: list[dict]) -> float:
    """100 * (sum of mean tsp objectives / sum of exact objectives - 1)."""
    tsp = sum(e["tsp_objective_sum"] for e in exacts) / SWEEP_RUNS
    exact = sum(e["exact_objective_sum"] for e in exacts)
    return 100.0 * (tsp / exact - 1.0) if exact else 0.0


# ---------------------------------------------------------------------------
# Running


@dataclass
class PassRecord:
    job: int
    traced: bool
    result: PassResult
    spans: list[Span]


def run_passes(workload: Workload, jobs: list, workdir: Path, seconds: float,
               clock: Clock, tracer: Tracer | None) -> list[PassRecord]:
    """Cycle through the inputs until ``seconds`` have passed and every input
    ran once (with a tracer: once untraced and once traced)."""
    min_cycles = 2 if tracer else 1
    records: list[PassRecord] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        for job_index, job in enumerate(jobs):
            if cycle >= min_cycles and time.perf_counter() - start >= seconds:
                return records
            first_span = len(tracer.spans) if tracer else 0
            with tracer.installed(len(records)) if traced else contextlib.nullcontext():
                try:
                    result = workload.run_pass(job, workdir, clock)
                except Exception as exc:  # counted as a failed operation
                    result = PassResult([Op(errors=[f"{type(exc).__name__}: {exc}"])], {})
            spans = tracer.spans[first_span:] if traced else []
            records.append(PassRecord(job_index, traced, result, spans))
        cycle += 1


def check_exact(records: list[PassRecord], jobs: list, recorded: list | None
                ) -> tuple[list[dict], dict[int, list[str]]]:
    """Exact values per input; errors per pass index where they do not repeat."""
    first: dict[int, dict] = {}
    errors: dict[int, list[str]] = {}
    for index, rec in enumerate(records):
        want = first.setdefault(rec.job, rec.result.exact)
        diffs = [k for k in want if rec.result.exact.get(k) != want[k]]
        if recorded is not None:
            want = recorded[rec.job] if rec.job < len(recorded) else {"inputs": len(recorded)}
            diffs += [k for k in want if rec.result.exact.get(k) != want[k]]
        if diffs:
            errors[index] = [f"input {rec.job}: {k} differs from "
                             f"{'expected.json' if recorded else 'its first pass'}"
                             for k in sorted(set(diffs))]
    return [first[j] for j in range(len(jobs))], errors


def time_setup(workload: str, seed: int, workdir: Path, clock: Clock) -> list[Op]:
    """Set-up done SETUP_REPEATS times, each in a fresh interpreter."""
    ops = []
    for _ in range(SETUP_REPEATS):
        with clock.timed() as op:
            subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                            "--seed", str(seed), "--setup-only", str(workdir)], check=True)
        ops.append(op)
    return ops


def end_to_end(records: list[PassRecord], setup: list[Op]) -> tuple[dict, list[str]]:
    """End-to-end metrics (scaled times) and a table that also shows wall times."""
    ops = [op for r in records for op in r.result.ops]
    pass_s = {kind: [sum(getattr(op, kind) for op in r.result.ops) for r in records]
              for kind in ("scaled", "seconds")}
    op_ms = {kind: [getattr(op, kind) * 1000 for op in ops] for kind in ("scaled", "seconds")}
    setup_s = {kind: statistics.median(getattr(op, kind) for op in setup)
               for kind in ("scaled", "seconds")}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"wall_s": statistics.median(pass_s["scaled"]),
              "solve_ms.p50": statistics.median(op_ms["scaled"]),
              "peak_rss_mb": peak_mb, "setup_s": setup_s["scaled"]}
    lines = [f"{'':14s}{'scaled':>12s}{'wall':>12s}",
             f"{'wall_s':14s}{values['wall_s']:12.4f}{statistics.median(pass_s['seconds']):12.4f}"
             f"  s, median of {len(records)} passes",
             f"{'solve_ms.p50':14s}{values['solve_ms.p50']:12.2f}"
             f"{statistics.median(op_ms['seconds']):12.2f}  ms, n={len(ops)} operations"]
    tail = tail_percentile(len(ops))
    if tail is not None:
        lines.append(f"{f'solve_ms.p{tail:g}':14s}{percentile(op_ms['scaled'], tail):12.2f}"
                     f"{percentile(op_ms['seconds'], tail):12.2f}  ms")
    lines += [f"{'peak_rss_mb':14s}{peak_mb:12.1f}{'':12s}  MB",
              f"{'setup_s':14s}{setup_s['scaled']:12.4f}{setup_s['seconds']:12.4f}"
              f"  s, median of {len(setup)} fresh set-ups"]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, lines


def per_layer(records: list[PassRecord], exacts: list[dict], setup_spans: list[Span],
              build_peak_mb: float) -> dict:
    by_job: dict[int, list[dict]] = {}
    for rec in records:
        if rec.traced:
            by_job.setdefault(rec.job, []).append(pass_layer_values(rec.spans, rec.result.exact))
    values: dict[str, float] = {}
    for name, (_unit, kind) in LAYER_METRICS.items():
        per_job = [[v[name] for v in passes] for passes in by_job.values()
                   if name in passes[0]]
        if kind == "median":
            values[name] = sum(statistics.median(p) for p in per_job)
        elif kind == "first":
            values[name] = sum(p[0] for p in per_job)
        elif kind == "max" and per_job:
            values[name] = max(max(p) for p in per_job)
    values["topology.generate_ms"] = 1000 * sum(
        s.end - s.start for s in setup_spans if s.name == "topology.generate_instance")
    values["lp_export.build_peak_mb"] = build_peak_mb
    iterations = values["tabu.iterations"]
    values["tabu.ms_per_iteration"] = values["tabu.search_ms"] / iterations if iterations else 0.0
    nodes = values["oracle.nodes"]
    values["oracle.us_per_node"] = 1000 * values["oracle.solve_ms"] / nodes if nodes else 0.0
    values["harness.tsp_gap_pct"] = (tsp_gap_pct(exacts) if "tsp_objective_sum" in exacts[0]
                                     else 0.0)
    untraced = pass_medians(records, traced=False)
    traced = pass_medians(records, traced=True)
    values["trace.overhead_pct"] = 100.0 * (sum(traced.values()) / sum(untraced.values()) - 1)
    return {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}


def pass_medians(records: list[PassRecord], traced: bool) -> dict[int, float]:
    """Median pass time per input, over passes with the given tracing."""
    times: dict[int, list[float]] = {}
    for r in records:
        if r.traced == traced:
            times.setdefault(r.job, []).append(sum(op.scaled for op in r.result.ops))
    return {job: statistics.median(t) for job, t in times.items()}


def lp_build_peak_mb(jobs: list) -> float:
    """Peak traced allocation while building each LP model (tracemalloc)."""
    from manoplace import lp_export, topology

    peak = 0
    for path in jobs:
        instance = topology.load_problem(path)
        tracemalloc.start()
        lp_export.build_lp_model(instance)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return peak / 1e6


def environment() -> str:
    import numpy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, git {sha[:12]}")


def load_expected(workload: str, seed: int) -> list | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def record_expected(workload: str, seed: int, exacts: list[dict]) -> None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = exacts
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=OUT))
    try:
        clock = Clock(workload.reference())
        setup = time_setup(workload.name, args.seed, workdir, clock)
        tracer = Tracer(trace_targets()) if args.trace else None
        if tracer:
            with tracer.installed(-1):
                jobs = workload.inputs(args.seed, workdir)
            setup_spans = list(tracer.spans)
        else:
            jobs = workload.inputs(args.seed, workdir)
        records = run_passes(workload, jobs, workdir, args.seconds, clock, tracer)
        recorded = None if args.record else load_expected(workload.name, args.seed)
        exacts, exact_errors = check_exact(records, jobs, recorded)

        attempted = failed = 0
        errors: list[str] = []
        for index, rec in enumerate(records):
            ops = rec.result.ops
            attempted += len(ops)
            if index in exact_errors:
                failed += len(ops)
                errors += exact_errors[index]
            else:
                failed += sum(1 for op in ops if op.errors)
            errors += [e for op in ops for e in op.errors]
        if args.record and not errors:
            record_expected(workload.name, args.seed, exacts)

        print(f"workload {workload.name}, seed {args.seed}, {len(jobs)} input(s), "
              f"{len(records)} passes; {environment()}")
        print(f"exact counts: {json.dumps(exacts)}")
        if "tsp_objective_sum" in exacts[0]:
            print(f"tsp_gap_pct   {tsp_gap_pct(exacts):10.4f} %")
        print(f"failed_ratio  {failed}/{attempted}")
        for e in dict.fromkeys(errors):
            print(f"FAILED: {e}")
        if tracer:
            peak = lp_build_peak_mb(jobs) if workload is WORKLOADS["lp-p8"] else 0.0
            metrics = per_layer(records, exacts, setup_spans, peak)
            tracer.write(OUT / f"spans-{workload.name}-s{args.seed}.jsonl")
            for name, (value, unit) in metrics.items():
                print(f"{name:28s} {value:14.4f} {unit}")
        else:
            metrics, lines = end_to_end(records, setup)
            print("\n".join(lines))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            status = status or 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's exact counts in expected.json")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "manoplace" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'manoplace'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # single threaded, set-up children too
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        import manoplace.cli  # noqa: F401  (the import is part of set-up)

        WORKLOADS[args.workload].inputs(args.seed, Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
