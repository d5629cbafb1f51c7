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
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (
    InstanceFormatError,
    InstanceValidationError,
    NoFeasiblePlan,
    SolutionFormatError,
)
from .harness import load_experiment_config, run_experiment, solution_paths
from .lp_export import export_lp
from .model import check_feasibility, load_solution, save_solution
from .oracle import OracleBudget, OracleStatus, solve_exact
from .tabu import TabuParams
from .topology import (
    GeneratorConfig,
    generate_instance,
    load_instance_ref,
    load_problem,
    parse_config,
    read_json,
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


def _named_by_flag(message: str, flags: dict[str, tuple[str, object]], prefix: str = "",
                   read: frozenset[str] = frozenset()) -> str:
    """``message``, which names settings fields after ``prefix``, naming each
    field that ``flags`` (``{flag: (field, value)}``) has by its flag; a
    message that then opens with a flag drops ``prefix``, unless it still
    names a field of ``read``, the fields read from the file ``prefix`` names."""
    if not message.startswith(prefix):
        return message
    flag_of = {name: flag for flag, (name, _value) in flags.items()}
    words = [flag_of.get(word, word) for word in message[len(prefix):].split(" ")]
    flagged = words[0] in flags and read.isdisjoint(words)
    return " ".join(words) if flagged else prefix + " ".join(words)


def _from_flags(cls, flags: dict[str, tuple[str, object]], **fixed):
    """Build a settings dataclass from ``{flag: (field, value)}`` and ``fixed``
    fields; a value it rejects is a usage error that names the flag typed."""
    try:
        return cls(**fixed, **dict(flags.values()))
    except ValueError as exc:  # the settings classes name the field first
        raise _UsageError(_named_by_flag(str(exc), flags)) from None


def _refuse_overwrite(output: str | Path | None, *inputs: str | Path | None) -> None:
    """A usage error when ``output`` resolves to one of ``inputs``, the files
    the command reads: writing it would destroy the command's own input."""
    if output is None:
        return
    target = Path(output).resolve()
    if any(source is not None and Path(source).resolve() == target for source in inputs):
        raise _UsageError(f"{output} is an input of this command and would be overwritten")


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
    _refuse_overwrite(args.output, args.config)
    flags = {"--pops": ("pop_count", args.pops), "--vnfs": ("vnf_count", args.vnfs),
             "--seed": ("seed", args.seed), "--area-km": ("area_side_km", args.area_km),
             "--delay-per-km": ("delay_per_km", args.delay_per_km),
             "--jitter": ("delay_jitter_fraction", args.jitter)}
    given = {flag: pair for flag, pair in flags.items() if pair[1] is not None}
    # The file's values, each flag given laid on top.
    data = {} if args.config is None else read_json(args.config)
    read = frozenset()
    if isinstance(data, dict):  # parse_config reports anything else
        read = frozenset(data) - {name for name, _value in given.values()}
        data = {**data, **dict(given.values())}
    where = args.config or "gen"
    try:
        config = parse_config(GeneratorConfig, data, where)
    except InstanceFormatError as exc:
        # A rejected flag value is named by its flag, not the settings field.
        raise _UsageError(_named_by_flag(str(exc), given, f"{where}: ", read)) from None
    instance = generate_instance(config)
    save_problem(instance, args.output)
    print(f"wrote {args.output}: {instance.pop_count} pops, "
          f"{instance.vnf_count} vnfs, gso at {instance.params.gso_location}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        instance = load_instance_ref(args.instance)
    except InstanceValidationError as exc:
        for entry in exc.entries:
            print(entry)
        raise  # cli_main adds the one stderr line
    print(f"{args.instance}: ok ({instance.pop_count} pops, "
          f"{instance.vnf_count} vnfs)")
    return EXIT_OK


def _print_solution(solution) -> None:
    plan = solution.plan
    print(f"objective={solution.objective} nfvos={plan.nfvo_count} "
          f"vnfms={solution.vnfm_count}")
    print(f"nfvo locations: {sorted(plan.active_pops)}")
    for vnfm in solution.vnfms:
        print(f"vnfm at pop {vnfm.location}: manages {list(vnfm.managed)}")


def _cmd_solve_tsp(args) -> int:
    _refuse_overwrite(args.output, resolve_instance_path(args.instance))
    instance = load_instance_ref(args.instance)
    params = _from_flags(TabuParams, {"--patience": ("stop_patience", args.patience),
                                      "--tenure": ("tabu_tenure", args.tenure),
                                      "--samples": ("neighborhood_samples", args.samples),
                                      "--seed": ("seed", args.seed)})
    result = two_step_place_detailed(instance, params)
    _print_solution(result.solution)
    print(f"iterations={result.search.iterations}")
    if args.output:
        save_solution(result.solution, args.output)
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_solve_exact(args) -> int:
    _refuse_overwrite(args.output, resolve_instance_path(args.instance))
    instance = load_instance_ref(args.instance)
    budget = _from_flags(OracleBudget, {"--max-nodes": ("max_nodes", args.max_nodes),
                                        "--time-limit": ("time_limit_s", args.time_limit)})
    result = solve_exact(instance, budget)
    print(f"status={result.status.value} nodes_explored={result.nodes_explored}")
    if result.solution is None:
        print(f"manoplace: no solution: {result.status.value} after "
              f"{result.nodes_explored} nodes", file=sys.stderr)
        return EXIT_INFEASIBLE
    _print_solution(result.solution)
    if args.output:
        save_solution(result.solution, args.output,
                      extra={"status": result.status.value,
                             "nodes_explored": result.nodes_explored})
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_check(args) -> int:
    instance = load_instance_ref(args.instance)
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
    _refuse_overwrite(output, path)
    instance = load_problem(path)
    summary = export_lp(instance, output)
    print(summary.line())
    print(f"wrote {output}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    if args.output:
        config = replace(config, output=args.output)
    ref = config.instance_file
    inputs = args.config, None if ref is None else resolve_instance_path(ref)
    _refuse_overwrite(config.output, *inputs)
    for path in solution_paths(config):
        _refuse_overwrite(path, *inputs)
        if path.resolve() == Path(config.output).resolve():
            raise _UsageError(f"{path} is the sweep's output and would be overwritten "
                              "by a solution")
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
    except Exception as exc:  # pragma: no cover - safety net
        print(f"manoplace: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
