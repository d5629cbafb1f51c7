"""manoplace: NFV orchestrator and VNF manager placement.

Decides how many NFVOs and VNFMs a multi-PoP NFV infrastructure needs and
where to put them, subject to management-plane delay bounds and capacity
limits. Ships a two-step heuristic (tabu search over NFVO placement, then
per-domain VNFM placement), an exact enumerative solver for small instances,
an ILP exporter in LP format, a feasibility checker, and an experiment
harness for VNF-count sweeps.
"""

from __future__ import annotations

from .errors import (
    InfeasibleDomain,
    InstanceFormatError,
    InstanceValidationError,
    ManoPlaceError,
    NoFeasiblePlan,
    SolutionFormatError,
)
from .harness import load_experiment_config, run_experiment
from .lp_export import check_lp_file, export_lp
from .model import Solution, check_feasibility, load_solution, save_solution
from .oracle import OracleBudget, OracleStatus, solve_exact
from .tabu import TabuParams
from .topology import (
    GeneratorConfig,
    ProblemInstance,
    generate_instance,
    load_problem,
    resolve_instance_path,
    save_problem,
)
from .vnfm import two_step_place, two_step_place_detailed

__version__ = "0.1.0"

__all__ = [
    "GeneratorConfig",
    "InfeasibleDomain",
    "InstanceFormatError",
    "InstanceValidationError",
    "ManoPlaceError",
    "NoFeasiblePlan",
    "OracleBudget",
    "OracleStatus",
    "ProblemInstance",
    "Solution",
    "SolutionFormatError",
    "TabuParams",
    "check_feasibility",
    "check_lp_file",
    "export_lp",
    "generate_instance",
    "load_experiment_config",
    "load_problem",
    "load_solution",
    "resolve_instance_path",
    "run_experiment",
    "save_problem",
    "save_solution",
    "solve_exact",
    "two_step_place",
    "two_step_place_detailed",
]
