"""Experiment harness: VNF-count sweeps over a fixed topology.

A sweep takes one topology (an instance file or a generator configuration)
and redraws its VNF inventory at each requested size with the seed
``base_seed + vnf_count``. Its runs are one list of ``(vnf_count, algorithm,
seed)`` in CSV order: each distinct count and algorithm ascending, the
two-step heuristic at the seeds ``base_seed + run`` for ``runs_per_point``
runs, and the exact solver, which is deterministic, once at ``base_seed``.
The sweep walks that list, and its solution files are named from it. Before
the topology loads, ``run_experiment`` refuses a CSV or solution path that
resolves to the instance file, and a solution path that resolves to the CSV.

The CSV's columns are the fields of :class:`RunRecord`: a run's row holds its
record, None as an empty cell and ``runtime_ms`` to three decimals. Each
(point, algorithm) group ends in an aggregate row with the means of its
successful runs in the five numeric columns, to two decimals, or empty cells
when no run succeeded.

Re-running an identical configuration reproduces the CSV byte for byte:
every solver is seeded, and ``runtime_ms`` stays at zero unless
``wall_clock`` is set, because measured time would break reproducibility.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
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
    named_by_flag,
    parse_config,
    read_json,
    refuse_overwrite,
    resolve_instance_path,
    with_uniform_vnfs,
)

STATUS_OK = "ok"


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
        names = tuple(ALGORITHMS)  # matched by ==, since an entry may be a list
        for alg in self.algorithms:
            if alg not in names:
                raise ValueError(f"unknown algorithm {alg!r} "
                                 f"(expected {' or '.join(map(repr, names))})")
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
        keys = {"oracle_max_nodes": ("max_nodes", self.oracle_max_nodes),
                "oracle_time_limit_s": ("time_limit_s", self.oracle_time_limit_s)}
        try:
            return OracleBudget(**dict(keys.values()))
        except (TypeError, ValueError) as exc:  # named by the sweep's keys
            raise type(exc)(named_by_flag(str(exc), keys)) from None


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


CSV_HEADER = tuple(f.name for f in fields(RunRecord))


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a sweep configuration file (JSON, strict keys and kinds)."""
    return parse_config(ExperimentConfig, read_json(path), f"{path}: configuration object")


def _base_instance(config: ExperimentConfig) -> ProblemInstance:
    if config.generator is not None:
        return generate_instance(config.generator)
    return load_problem(config.instance_file)


def _instance_id(config: ExperimentConfig) -> str:
    if config.generator is not None:
        return f"gen{config.generator.pop_count}s{config.generator.seed}"
    return resolve_instance_path(config.instance_file).stem


def _runs(config: ExperimentConfig) -> list[tuple[int, str, int]]:
    """The sweep's runs as ``(vnf_count, algorithm, seed)``, in CSV order."""
    return [(count, alg, config.base_seed + run) for count in sorted(set(config.vnf_counts))
            for alg in sorted(set(config.algorithms))
            for run in range(config.runs_per_point if ALGORITHMS[alg][1] else 1)]


def solution_paths(config: ExperimentConfig) -> list[Path]:
    """Where each run's solution goes, in the order of the runs (a failed run
    writes none); no paths unless the sweep emits solutions."""
    if not config.emit_solutions:
        return []
    directory = Path(config.solutions_dir or Path(config.output).parent)
    instance = _instance_id(config)
    return [directory / f"{instance}_v{count}_{alg}_s{seed}.json"
            for count, alg, seed in _runs(config)]


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
    """``(status, solution, nodes explored)`` of the exact solver; a budget hit keeps none."""
    result = solve_exact(instance, config.oracle_budget())
    if result.status is OracleStatus.OPTIMAL:
        return STATUS_OK, result.solution, result.nodes_explored
    return result.status.value, None, result.nodes_explored


# Each algorithm's runner and whether it is seeded (runs runs_per_point times per point).
ALGORITHMS = {"tsp": (_run_tsp, True), "exact": (_run_exact, False)}


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Execute the sweep, write the CSV, and return the per-run records.
    The CSV or a solution path resolving to the instance file, or a solution
    path resolving to the CSV, raises :class:`FileExistsError` before the
    instance loads; the output directories are made before the first run, so
    a path that cannot be written fails before anything is solved."""
    out_path, paths = Path(config.output), solution_paths(config)
    csv_file, ref = out_path.resolve(), config.instance_file
    source = None if ref is None else resolve_instance_path(ref)
    refuse_overwrite(config.output, source)
    for path in paths:
        refuse_overwrite(path, source)
        if path.resolve() == csv_file:
            raise FileExistsError(f"{path} is the sweep's output and would be overwritten "
                                  "by a solution")
    base, instance_id = _base_instance(config), _instance_id(config)
    sol_dirs = {path.parent for path in paths}  # one, or none without emit_solutions
    if out_path.is_dir() or any(d.resolve() == csv_file for d in sol_dirs):
        raise IsADirectoryError(f"{out_path} is a directory, not a CSV file")
    for directory in (out_path.parent, *sol_dirs):
        directory.mkdir(parents=True, exist_ok=True)
    records: list[RunRecord] = []
    solutions: list[Solution | None] = []

    point = None
    for count, alg, seed in _runs(config):
        if point is None or point.vnf_count != count:  # the runs come grouped by count
            point = with_uniform_vnfs(
                base, count, seed=config.base_seed + count,
                vnfm_delay_bound=config.vnfm_delay_bound,
                nfvo_vnfm_delay_bound=config.nfvo_vnfm_delay_bound)
        start = time.perf_counter()
        status, sol, iterations = ALGORITHMS[alg][0](config, point, seed)
        runtime = (time.perf_counter() - start) * 1000 if config.wall_clock else 0.0
        counts = ((None,) * 3 if sol is None
                  else (sol.objective, sol.plan.nfvo_count, sol.vnfm_count))
        records.append(RunRecord(instance_id, point.pop_count, point.vnf_count, alg, seed,
                                 *counts, iterations, runtime, status))
        solutions.append(sol)

    write_csv(records, out_path)
    for sol, path in zip(solutions, paths):  # no paths unless the sweep emits solutions
        if sol is not None:
            save_solution(sol, path)
    return records


def write_csv(records: list[RunRecord], path: str | Path) -> None:
    """Write per-run rows plus one aggregate row per (point, algorithm) group,
    in canonical order (VNF count, algorithm, seed) whatever the order of
    ``records``, so callers can batch runs without changing the bytes."""
    records = sorted(records, key=lambda r: (r.vnfs, r.algorithm, r.seed))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for _key, rows in groupby(records, key=lambda r: (r.vnfs, r.algorithm)):
            group = list(rows)
            writer.writerows(["" if value is None else f"{value:.3f}" if name == "runtime_ms"
                              else value for name, value in vars(r).items()] for r in group)
            ok = [r for r in group if r.status == STATUS_OK]
            means = {name: f"{sum(getattr(r, name) for r in ok) / len(ok):.2f}" if ok else ""
                     for name in CSV_HEADER[5:10]}  # objective to runtime_ms
            writer.writerow({**vars(group[0]), "algorithm": f"{group[0].algorithm}:mean",
                             "seed": "", **means, "status": "aggregate"}.values())
