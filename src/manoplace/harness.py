"""Experiment harness: VNF-count sweeps over a fixed topology.

A sweep takes one topology (an instance file or a generator configuration),
redraws the VNF inventory at each requested size with a per-point seed of
``base_seed + vnf_count``, and runs the configured solvers: the two-step
heuristic once per run seed (``base_seed + run``), the exact solver once per
point since it is deterministic. One CSV row is written per run plus one
aggregate row per (point, algorithm) group with the means of the successful
runs, rounded to two decimals.

Re-running an identical configuration reproduces the CSV byte for byte:
rows are emitted in a canonical order (VNF count, then algorithm, then
seed), every solver is seeded, and ``runtime_ms`` stays at zero unless
``wall_clock`` is set, because measured time would break reproducibility.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .errors import NoFeasiblePlan
from .model import Solution, save_solution
from .oracle import OracleBudget, OracleStatus, solve_exact
from .tabu import TabuParams
from .topology import (
    DEFAULT_NFVO_VNFM_BOUND_MS,
    DEFAULT_VNF_VNFM_BOUND_MS,
    GeneratorConfig,
    ProblemInstance,
    check_type,
    generate_instance,
    load_problem,
    parse_config,
    read_json,
    resolve_instance_path,
    with_uniform_vnfs,
)

CSV_HEADER = ("instance", "pops", "vnfs", "algorithm", "seed", "objective",
              "nfvo_count", "vnfm_count", "iterations", "runtime_ms", "status")

STATUS_OK = "ok"
STATUS_AGGREGATE = "aggregate"


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a topology source plus the grid of runs to execute."""

    instance_file: str | None = None
    generator: GeneratorConfig | None = None
    vnf_counts: tuple[int, ...] = (10, 20, 30, 40, 50, 60)
    algorithms: tuple[str, ...] = ("tsp",)
    runs_per_point: int = 20
    base_seed: int = 0
    output: str = "results.csv"
    emit_solutions: bool = False
    solutions_dir: str | None = None
    wall_clock: bool = False
    vnfm_delay_bound: float = DEFAULT_VNF_VNFM_BOUND_MS
    nfvo_vnfm_delay_bound: float = DEFAULT_NFVO_VNFM_BOUND_MS
    stop_patience: int | None = None
    tabu_tenure: int | None = None
    neighborhood_samples: int | None = None
    oracle_max_nodes: int = OracleBudget.max_nodes
    oracle_time_limit_s: float = OracleBudget.time_limit_s

    def __post_init__(self):
        if (self.instance_file is None) == (self.generator is None):
            raise ValueError("exactly one of instance_file and generator must be set")
        if not isinstance(self.generator, (GeneratorConfig, type(None))):
            # A sweep file gives the generator as a JSON object.
            object.__setattr__(self, "generator",
                               parse_config(GeneratorConfig, self.generator, "generator"))
        for name in ("instance_file", "solutions_dir"):
            if getattr(self, name) is not None:
                check_type(name, getattr(self, name), str)
        for name, kind in (("vnf_counts", list), ("algorithms", list), ("runs_per_point", int),
                           ("base_seed", int), ("output", str), ("emit_solutions", bool),
                           ("wall_clock", bool), ("vnfm_delay_bound", float),
                           ("nfvo_vnfm_delay_bound", float)):
            check_type(name, getattr(self, name), kind)
        if self.solutions_dir is not None and not self.emit_solutions:
            raise ValueError("solutions_dir is set but emit_solutions is not: "
                             "no solution would be written")
        for name in ("vnf_counts", "algorithms"):  # a sweep file gives lists
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for count in self.vnf_counts:
            check_type("vnf_counts entry", count, int)
        if not self.vnf_counts or any(v < 1 for v in self.vnf_counts):
            raise ValueError("vnf_counts must be a nonempty list of positive counts")
        if not self.algorithms:
            raise ValueError("algorithms must not be empty")
        for alg in self.algorithms:
            if alg not in ("tsp", "exact"):
                raise ValueError(f"unknown algorithm {alg!r} (expected 'tsp' or 'exact')")
        if self.runs_per_point < 1:
            raise ValueError("runs_per_point must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        for name in ("vnfm_delay_bound", "nfvo_vnfm_delay_bound"):
            bound = getattr(self, name)
            if not 0 < bound < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be > 0 and finite")
            # Every point redraws the VNFs with the sweep's bounds, so a
            # generator bound of its own would be silently dropped.
            if self.generator is not None and getattr(self.generator, name) != bound:
                raise ValueError(f"generator.{name} ({getattr(self.generator, name)}) differs "
                                 f"from {name} ({bound}); the sweep draws its VNFs with {name}")
        # The solvers' own parameter types check the knobs, at load time.
        self.tabu_params(self.base_seed)
        self.oracle_budget()

    def tabu_params(self, seed: int) -> TabuParams:
        return TabuParams(stop_patience=self.stop_patience, tabu_tenure=self.tabu_tenure,
                          neighborhood_samples=self.neighborhood_samples, seed=seed)

    def oracle_budget(self) -> OracleBudget:
        return OracleBudget(max_nodes=self.oracle_max_nodes,
                            time_limit_s=self.oracle_time_limit_s)


@dataclass(frozen=True)
class RunRecord:
    """One solver execution; numeric fields are None when the run failed."""

    instance: str
    pops: int
    vnfs: int
    algorithm: str
    seed: int
    objective: int | None
    nfvo_count: int | None
    vnfm_count: int | None
    iterations: int | None
    runtime_ms: float | None
    status: str


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a sweep configuration file (JSON, strict keys and kinds)."""
    return parse_config(ExperimentConfig, read_json(path), f"{path}: configuration object")


def _base_instance(config: ExperimentConfig) -> ProblemInstance:
    if config.instance_file is not None:
        return load_problem(resolve_instance_path(config.instance_file))
    assert config.generator is not None
    return generate_instance(config.generator)


def _instance_id(config: ExperimentConfig) -> str:
    if config.instance_file is not None:
        return resolve_instance_path(config.instance_file).stem
    assert config.generator is not None
    return f"gen{config.generator.pop_count}s{config.generator.seed}"


def _seeds(config: ExperimentConfig, algorithm: str) -> list[int]:
    if algorithm == "exact":
        return [config.base_seed]  # deterministic: one run per point
    return [config.base_seed + r for r in range(config.runs_per_point)]


def _solutions_dir(config: ExperimentConfig) -> Path:
    return Path(config.solutions_dir or Path(config.output).parent)


def _solution_name(instance: str, vnfs: int, algorithm: str, seed: int) -> str:
    return f"{instance}_v{vnfs}_{algorithm}_s{seed}.json"


def solution_paths(config: ExperimentConfig) -> list[Path]:
    """Every file the sweep may write a solution to: none unless it emits
    solutions, one per run otherwise."""
    if not config.emit_solutions:
        return []
    instance = _instance_id(config)
    return [_solutions_dir(config) / _solution_name(instance, count, alg, seed)
            for count in config.vnf_counts for alg in config.algorithms
            for seed in _seeds(config, alg)]


def _run_tsp(config: ExperimentConfig, instance: ProblemInstance,
             seed: int) -> tuple[str, Solution | None, int | None]:
    """``(status, solution, iterations)`` of one two-step run."""
    from .vnfm import two_step_place_detailed

    try:
        result = two_step_place_detailed(instance, config.tabu_params(seed))
    except NoFeasiblePlan:
        return "no_feasible_plan", None, None
    return STATUS_OK, result.solution, result.search.iterations


def _run_exact(config: ExperimentConfig, instance: ProblemInstance,
               seed: int) -> tuple[str, Solution | None, int | None]:
    """``(status, solution, nodes explored)`` of the exact solver; a budget
    hit keeps no solution."""
    result = solve_exact(instance, config.oracle_budget())
    if result.status is OracleStatus.OPTIMAL:
        return STATUS_OK, result.solution, result.nodes_explored
    return result.status.value, None, result.nodes_explored


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Execute the sweep, write the CSV, and return the per-run records.
    The output directories are made before the first run, so an output path
    that cannot be written fails before anything is solved."""
    base, instance_id = _base_instance(config), _instance_id(config)
    out_path, sol_dir = Path(config.output), _solutions_dir(config)
    if out_path.is_dir() or (config.emit_solutions and sol_dir.resolve() == out_path.resolve()):
        raise IsADirectoryError(f"{out_path} is a directory, not a CSV file")
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    if config.emit_solutions:
        sol_dir.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    emitted: list[tuple[RunRecord, Solution]] = []

    for count in sorted(set(config.vnf_counts)):
        point = with_uniform_vnfs(
            base, count, seed=config.base_seed + count,
            vnfm_delay_bound=config.vnfm_delay_bound,
            nfvo_vnfm_delay_bound=config.nfvo_vnfm_delay_bound)
        for alg in sorted(set(config.algorithms)):
            runner = _run_tsp if alg == "tsp" else _run_exact
            for seed in _seeds(config, alg):
                start = time.perf_counter()
                status, sol, iterations = runner(config, point, seed)
                runtime = (time.perf_counter() - start) * 1000 if config.wall_clock else 0.0
                counts = ((None,) * 3 if sol is None
                          else (sol.objective, sol.plan.nfvo_count, sol.vnfm_count))
                record = RunRecord(instance_id, point.pop_count, point.vnf_count, alg, seed,
                                   *counts, iterations, runtime, status)
                records.append(record)
                if sol is not None and config.emit_solutions:
                    emitted.append((record, sol))

    write_csv(records, out_path)
    for record, sol in emitted:
        name = _solution_name(record.instance, record.vnfs, record.algorithm, record.seed)
        save_solution(sol, sol_dir / name)
    return records


def _fmt_runtime(x: float | None) -> str:
    return "" if x is None else f"{x:.3f}"


def write_csv(records: list[RunRecord], path: str | Path) -> None:
    """Write per-run rows plus one aggregate row per (point, algorithm) group.

    Records are sorted canonically (VNF count, algorithm, seed) before
    writing, so callers can batch runs in any order without changing the
    output bytes.
    """
    records = sorted(records, key=lambda r: (r.vnfs, r.algorithm, r.seed))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for _key, rows in groupby(records, key=lambda r: (r.vnfs, r.algorithm)):
            group = list(rows)
            for r in group:
                writer.writerow([
                    r.instance, r.pops, r.vnfs, r.algorithm, r.seed,
                    "" if r.objective is None else r.objective,
                    "" if r.nfvo_count is None else r.nfvo_count,
                    "" if r.vnfm_count is None else r.vnfm_count,
                    "" if r.iterations is None else r.iterations,
                    _fmt_runtime(r.runtime_ms),
                    r.status,
                ])
            ok = [r for r in group if r.status == STATUS_OK]
            sample = group[0]
            if ok:
                def mean(get) -> str:
                    return f"{sum(get(r) for r in ok) / len(ok):.2f}"
                writer.writerow([
                    sample.instance, sample.pops, sample.vnfs,
                    f"{sample.algorithm}:mean", "",
                    mean(lambda r: r.objective), mean(lambda r: r.nfvo_count),
                    mean(lambda r: r.vnfm_count), mean(lambda r: r.iterations),
                    mean(lambda r: r.runtime_ms), STATUS_AGGREGATE,
                ])
            else:
                writer.writerow([sample.instance, sample.pops, sample.vnfs,
                                 f"{sample.algorithm}:mean", "", "", "", "", "", "",
                                 STATUS_AGGREGATE])
