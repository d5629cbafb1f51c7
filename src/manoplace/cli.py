"""Command line entry points.

Subcommands:

* ``gen``         generate a synthetic instance file
* ``validate``    check an instance file and report problems
* ``solve-tsp``   run the two-step heuristic on an instance
* ``solve-exact`` run the exact solver on an instance
* ``check``       verify a solution file against an instance
* ``export-lp``   write the ILP model in LP format
* ``experiment``  run a sweep from a configuration file

Exit codes: 0 on success, 1 for usage errors and unreadable or malformed
input files, 2 when the input is valid but the request cannot be satisfied
(validation findings, infeasible instances, failed checks), 3 for internal
errors.

Instance arguments accept plain paths or ``bundled:<name>`` references to
the topologies shipped with the package (``bundled:pop8``, ``bundled:pop16``).

The commands parse and print. ``load_problem`` reads every instance
argument, ``_settings`` turns flags (laid over a settings file, if any) into
settings, and ``run_experiment`` guards a sweep's instance and CSV itself.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import (
    InstanceFormatError,
    InstanceValidationError,
    NoFeasiblePlan,
    SolutionFormatError,
)
from .harness import load_experiment_config, run_experiment, solution_paths
from .lp_export import export_lp
from .model import check_feasibility, load_solution, save_solution
from .oracle import OracleBudget, solve_exact
from .tabu import TabuParams
from .topology import (
    GeneratorConfig,
    generate_instance,
    load_problem,
    named_by_flag,
    parse_config,
    read_json,
    refuse_overwrite,
    resolve_instance_path,
    save_problem,
)
from .vnfm import two_step_place_detailed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


def _settings(cls, command: str, config: str | None, flags: dict[str, tuple[str, object]]):
    """Settings dataclass ``cls`` built from the JSON object in file ``config``
    (if any) with each flag of ``{flag: (field, value)}`` whose value is not
    None laid on top. A rejected value is a usage error that names the flag
    typed, or the key after the file's name (``command``'s without a file)."""
    given = {flag: pair for flag, pair in flags.items() if pair[1] is not None}
    where = config or command
    data = {} if config is None else read_json(config)
    read = frozenset()
    if isinstance(data, dict):  # parse_config reports anything else
        read = frozenset(data) - {name for name, _value in given.values()}
        data = {**data, **dict(given.values())}
    try:
        return parse_config(cls, data, where)
    except InstanceFormatError as exc:
        raise _UsageError(named_by_flag(str(exc), given, f"{where}: ", read)) from None


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; we reserve 2 for infeasibility."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="manoplace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("gen", help="generate a synthetic instance")
    gen.add_argument("--pops", type=int, help="number of PoPs")
    gen.add_argument("--vnfs", type=int, help="number of VNFs")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--area-km", type=float)
    gen.add_argument("--delay-per-km", type=float)
    gen.add_argument("--jitter", type=float)
    gen.add_argument("--config", help="generator configuration file (JSON); "
                                      "the flags given override its values")
    gen.add_argument("--output", required=True, help="instance file to write")

    val = sub.add_parser("validate", help="validate an instance file")
    val.add_argument("instance")

    tsp = sub.add_parser("solve-tsp", help="run the two-step heuristic")
    tsp.add_argument("instance")
    tsp.add_argument("--seed", type=int, default=0)
    tsp.add_argument("--patience", type=int, help="stop after this many stale iterations")
    tsp.add_argument("--tenure", type=int, help="tabu tenure in iterations")
    tsp.add_argument("--samples", type=int, help="candidate moves per iteration")
    tsp.add_argument("--output", help="solution file to write")

    exact = sub.add_parser("solve-exact", help="run the exact solver")
    exact.add_argument("instance")
    exact.add_argument("--max-nodes", type=int, default=OracleBudget.max_nodes)
    exact.add_argument("--time-limit", type=float, default=OracleBudget.time_limit_s,
                       help="budget in seconds")
    exact.add_argument("--output", help="solution file to write")

    chk = sub.add_parser("check", help="check a solution against an instance")
    chk.add_argument("instance")
    chk.add_argument("solution")

    lp = sub.add_parser("export-lp", help="write the ILP model in LP format")
    lp.add_argument("instance")
    lp.add_argument("--output", help="LP file to write (default: <instance>.lp, "
                                      "or <name>.lp in the current directory for bundled:<name>)")

    exp = sub.add_parser("experiment", help="run a sweep from a configuration file")
    exp.add_argument("--config", required=True, help="sweep configuration (JSON)")
    exp.add_argument("--output", help="override the configured CSV path")

    return parser


def _cmd_gen(args) -> int:
    if args.config is None and (args.pops is None or args.vnfs is None):
        raise _UsageError("gen requires --pops and --vnfs (or --config)")
    refuse_overwrite(args.output, args.config)
    config = _settings(GeneratorConfig, args.command, args.config, {
        "--pops": ("pop_count", args.pops), "--vnfs": ("vnf_count", args.vnfs),
        "--seed": ("seed", args.seed), "--area-km": ("area_side_km", args.area_km),
        "--delay-per-km": ("delay_per_km", args.delay_per_km),
        "--jitter": ("delay_jitter_fraction", args.jitter)})
    instance = generate_instance(config)
    save_problem(instance, args.output)
    print(f"wrote {args.output}: {instance.pop_count} pops, "
          f"{instance.vnf_count} vnfs, gso at {instance.params.gso_location}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        instance = load_problem(args.instance)
    except InstanceValidationError as exc:
        for entry in exc.entries:
            print(entry)
        raise  # cli_main adds the one stderr line
    print(f"{args.instance}: ok ({instance.pop_count} pops, "
          f"{instance.vnf_count} vnfs)")
    return EXIT_OK


def _print_and_save(solution, output: str | None, extra: dict | None, *notes: str) -> int:
    """Print ``solution`` and ``notes``; save it, with ``extra``'s keys, to any ``output``."""
    plan = solution.plan
    print(f"objective={solution.objective} nfvos={plan.nfvo_count} "
          f"vnfms={solution.vnfm_count}")
    print(f"nfvo locations: {sorted(plan.active_pops)}")
    for vnfm in solution.vnfms:
        print(f"vnfm at pop {vnfm.location}: manages {list(vnfm.managed)}")
    for note in notes:
        print(note)
    if output:
        save_solution(solution, output, extra)
        print(f"wrote {output}")
    return EXIT_OK


def _cmd_solve_tsp(args) -> int:
    refuse_overwrite(args.output, resolve_instance_path(args.instance))
    instance = load_problem(args.instance)
    params = _settings(TabuParams, args.command, None, {
        "--patience": ("stop_patience", args.patience), "--tenure": ("tabu_tenure", args.tenure),
        "--samples": ("neighborhood_samples", args.samples), "--seed": ("seed", args.seed)})
    result = two_step_place_detailed(instance, params)
    return _print_and_save(result.solution, args.output, None,
                           f"iterations={result.search.iterations}")


def _cmd_solve_exact(args) -> int:
    refuse_overwrite(args.output, resolve_instance_path(args.instance))
    instance = load_problem(args.instance)
    budget = _settings(OracleBudget, args.command, None, {
        "--max-nodes": ("max_nodes", args.max_nodes),
        "--time-limit": ("time_limit_s", args.time_limit)})
    result = solve_exact(instance, budget)
    status = result.status.value
    print(f"status={status} nodes_explored={result.nodes_explored}")
    if result.solution is None:
        print(f"manoplace: no solution: {status} after {result.nodes_explored} nodes",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    return _print_and_save(result.solution, args.output,
                           {"status": status, "nodes_explored": result.nodes_explored})


def _cmd_check(args) -> int:
    instance = load_problem(args.instance)
    solution = load_solution(args.solution)
    try:
        report = check_feasibility(instance, solution)
    except ValueError as exc:  # the solution does not fit the instance
        raise _UsageError(f"{args.solution}: {exc}") from None
    if report.ok:
        print(f"{args.solution}: feasible (objective={solution.objective})")
        return EXIT_OK
    for entry in report.entries:
        print(entry)
    print(f"{len(report.entries)} violation(s)")
    print(f"manoplace: infeasible solution: {args.solution}: {len(report.entries)} violation(s)",
          file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_export_lp(args) -> int:
    path = resolve_instance_path(args.instance)
    lp = path.with_suffix(".lp")
    # bundled:<name> writes <name>.lp here, not into the package's data.
    output = args.output or (lp.name if args.instance.startswith("bundled:") else str(lp))
    refuse_overwrite(output, path)
    instance = load_problem(path)
    summary = export_lp(instance, output)
    print(summary.line())
    print(f"wrote {output}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    if args.output:
        config = replace(config, output=args.output)
    for path in (config.output, *solution_paths(config)):  # run_experiment guards the rest
        refuse_overwrite(path, args.config)
    records = run_experiment(config)
    failed = sum(1 for r in records if r.status != "ok")
    print(f"wrote {config.output}: {len(records)} runs, {failed} failed")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "solve-tsp": _cmd_solve_tsp,
    "solve-exact": _cmd_solve_exact,
    "check": _cmd_check,
    "export-lp": _cmd_export_lp,
    "experiment": _cmd_experiment,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except (_UsageError, InstanceFormatError, SolutionFormatError, OSError) as exc:
        print(f"manoplace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InstanceValidationError as exc:
        print(f"manoplace: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoFeasiblePlan as exc:
        print(f"manoplace: no feasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:
        print(f"manoplace: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
