"""Property tests on generated instances (up to 8 PoPs and 12 VNFs).

The heuristic's solutions must check clean and never beat the exact
optimum. The search's reachability look-ahead and the VNFs each member of a
domain can manage must agree with a per-VNF recount on arbitrary head
assignments. For any subset of orchestrators the GSO can reach, the exact
solver's enumeration must yield, in order, the assignments of a product
over each PoP's heads in reach that pass the capacity and look-ahead
recounts, with their manager floors. On random plans every domain's
manager count must equal an exhaustive max-flow minimum. Along random
walks of search moves every incrementally scored neighbour must equal a
full rescore. The MILP solver on the exported LP must reach the exact
optimum, instance and solution files must round-trip exactly, and on
exports with one character or line edited the LP check must equal the
token parse. Every input file with one value swapped for one of another
JSON kind must exit 0, 1 or 2, never 3, and an exit 2 prints one stderr
line. Examples are derandomized, so every run checks the same instances.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from manoplace import (
    GeneratorConfig,
    InfeasibleDomain,
    NoFeasiblePlan,
    OracleStatus,
    TabuParams,
    check_feasibility,
    check_lp_file,
    export_lp,
    generate_instance,
    load_problem,
    load_solution,
    save_problem,
    save_solution,
    solve_exact,
    two_step_place,
)
from manoplace.cli import cli_main
from manoplace.lp_export import _check_lines, _token_lines
from manoplace.model import DomainPlan, Solution, VnfmAssignment
from manoplace.oracle import _feasible_assignments
from manoplace.tabu import _Position, _start, penalty_parts
from manoplace.vnfm import domains_of, place_domain

from test_lp_export import _solve_lp
from test_tabu import check_neighbour, naive_look_ahead, tables
from test_vnfm import by_member, eligibility, flow_minimum, runnable

SMALL = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def generated(max_pops, max_vnfs=12):
    return st.builds(
        GeneratorConfig,
        pop_count=st.integers(2, max_pops),
        vnf_count=st.integers(1, max_vnfs),
        area_side_km=st.sampled_from([1500.0, 3000.0, 4500.0]),
        nfvo_capacity=st.integers(2, 20),
        vnfm_capacity=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    ).map(generate_instance)


instances = generated(6)


@st.composite
def mixed_bounds(draw, max_pops, max_vnfs=12):
    """A generated instance whose VNFs draw their two manager bounds each."""
    instance = draw(generated(max_pops, max_vnfs))
    bound = st.sampled_from([15.0, 30.0, 45.0])
    vnfs = tuple(replace(v, vnfm_delay_bound=draw(bound), nfvo_vnfm_delay_bound=draw(bound))
                 for v in instance.vnfs)
    return replace(instance, vnfs=vnfs)


@SMALL
@given(instances, st.integers(0, 3))
def test_tabu_solutions_check_clean_and_never_beat_the_optimum(instance, seed):
    exact = solve_exact(instance)
    assert exact.status is not OracleStatus.BUDGET_EXCEEDED
    try:
        solution = two_step_place(instance, TabuParams(seed=seed))
    except NoFeasiblePlan:
        return  # a heuristic may miss a feasible plan, never invent one
    assert check_feasibility(instance, solution).ok
    assert exact.status is OracleStatus.OPTIMAL
    assert solution.objective >= exact.objective


@SMALL
@given(mixed_bounds(6), st.data())
def test_look_ahead_matches_the_per_vnf_recount(instance, data):
    n = instance.pop_count
    head_of = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    count = penalty_parts(instance, DomainPlan.make([True] * n, head_of))["look-ahead"]
    assert count == naive_look_ahead(instance, head_of)


@SMALL
@given(mixed_bounds(6), st.data())
def test_enumeration_matches_a_product_over_reachable_heads(instance, data):
    d, params = instance.delays, instance.params
    n = instance.pop_count
    reach = [p for p in range(n) if d[params.gso_location][p] <= params.gso_nfvo_delay_bound]
    # Each subset equally likely, so that most have several heads to backtrack over.
    subsets = [c for k in range(1, len(reach) + 1) for c in itertools.combinations(reach, k)]
    heads = data.draw(st.sampled_from(subsets))
    nonheads = [q for q in range(n) if q not in heads]
    within = [[p for p in heads if d[p][q] <= params.nfvo_vim_delay_bound] for q in nonheads]
    expected, fits = [], 0
    for choice in itertools.product(*within):
        head_of = list(range(n))
        for q, p in zip(nonheads, choice):
            head_of[q] = p
        counts = Counter(head_of[v.location] for v in instance.vnfs)
        if max(counts.values()) > params.nfvo_capacity:
            continue
        fits += 1
        if naive_look_ahead(instance, head_of) == 0:
            floor = sum(math.ceil(counts[h] / params.vnfm_capacity) for h in heads)
            expected.append((tuple(head_of), floor))
    ticks = []
    assert list(_feasible_assignments(instance, heads, lambda: ticks.append(1))) == expected
    assert len(ticks) == fits


@SMALL
@given(mixed_bounds(6, max_vnfs=10), st.data())
def test_manager_placement_matches_the_flow_minimum(instance, data):
    n = instance.pop_count
    nfvo_at = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    head_of = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    for dom in domains_of(instance, DomainPlan.make(nfvo_at, head_of)):
        members = [q for q in range(n) if head_of[q] == dom.head]
        expected = flow_minimum(instance, dom.head, members)
        if expected is None:
            with pytest.raises(InfeasibleDomain):
                place_domain(instance, dom)
        else:
            assert len(place_domain(instance, dom)) == expected


@SMALL
@given(mixed_bounds(8), st.data())
def test_domain_hosts_match_the_per_vnf_recount(instance, data):
    n = instance.pop_count
    nfvo_at = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    head_of = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    plan = DomainPlan.make(nfvo_at, head_of)
    domains = domains_of(instance, plan)
    assert [dom.head for dom in domains] == [p for p in range(n) if nfvo_at[p]]
    for dom in domains:
        members = [q for q in range(n) if head_of[q] == dom.head]
        elig = eligibility(instance, dom.head, members)
        assert dom.members == sum(1 << q for q in members)
        assert dom.vnf_ids == tuple(elig)
        assert runnable(instance, dom) == by_member(elig, members)


@SMALL
@given(mixed_bounds(8), st.lists(st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7)),
                              min_size=1, max_size=12))
def test_incremental_scores_match_a_full_rescore(instance, walk):
    n = instance.pop_count
    position = _start(instance)
    for toggle, pop, pick in walk:
        pop %= n
        neighbours = [position.toggled(p) for p in range(n)]
        neighbours += [position.reassigned(pop, t) for t in position.active
                       if t != position.head_of[pop]]
        for cand in neighbours:
            if cand is not None:
                check_neighbour(instance, cand)
        moves = [c for c in neighbours if c is not None
                 and (c.attribute[0] == "toggle") == toggle]
        if not moves:
            continue
        chosen = moves[pick % len(moves)]
        position.move_to(chosen)
        assert tables(position) == tables(_Position(instance, chosen.nfvo_at, chosen.head_of))


@SMALL
@given(mixed_bounds(3, max_vnfs=2), st.sampled_from([15.0, 30.0, 80.0]))
def test_milp_on_the_exported_lp_reaches_the_exact_optimum(instance, gso_bound):
    # A tight GSO bound makes the c12 rows bind, and some drawn instances
    # infeasible.
    instance = replace(instance, params=replace(instance.params, gso_nfvo_delay_bound=gso_bound))
    exact = solve_exact(instance)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        export_lp(instance, path)
        res = _solve_lp(path)
    assert exact.status is not OracleStatus.BUDGET_EXCEEDED
    assert res.success == (exact.status is OracleStatus.OPTIMAL), res.message
    if res.success:
        assert round(res.fun) == exact.objective


# What an edit may insert: separators, line ends and the characters of the
# writer's tokens, keywords and numbers.
EDIT_CHARS = list("0123456789hrxyzc_ +-=<>:.eE\n\r\f\t\\") + ["inf", "End", "\x85"]


@SMALL
@given(generated(3, max_vnfs=2),
       st.sampled_from([(edit, whole_line) for edit in ("truncate", "delete", "duplicate", "replace")
                        for whole_line in (False, True)]),
       st.data())
def test_lp_check_equals_the_token_parse_on_edited_exports(instance, how, data):
    edit, whole_line = how
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        export_lp(instance, path)
        with open(path, newline="") as file:
            units = file.readlines() if whole_line else list(file.read())
        i = data.draw(st.integers(0, len(units) - 1))
        if edit == "truncate":
            del units[i:]
        elif edit == "delete":
            del units[i]
        elif edit == "duplicate":
            units.insert(i, units[i])
        elif whole_line:
            units[i] = units[data.draw(st.integers(0, len(units) - 1))]
        else:
            units[i] = data.draw(st.sampled_from(EDIT_CHARS))
        path.write_bytes("".join(units).encode())
        with open(path) as file:
            reference = _check_lines(_token_lines(file))
        assert check_lp_file(path) == reference


@st.composite
def solutions(draw):
    """Any well-formed solution; files need not describe a feasible one."""
    n = draw(st.integers(1, 8))
    pop = st.integers(0, n - 1)
    nfvo_at = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    head_of = draw(st.lists(pop, min_size=n, max_size=n))
    vnfms = draw(st.lists(st.builds(VnfmAssignment, pop, st.lists(st.integers(0, 30),
                                                                   max_size=5).map(tuple)),
                          max_size=6))
    return Solution(DomainPlan.make(nfvo_at, head_of), tuple(vnfms))


@SMALL
@given(mixed_bounds(8), solutions(), st.sampled_from(["optimal", "budget_exceeded"]),
       st.integers(0, 10**6))
def test_instance_and_solution_files_round_trip_exactly(instance, solution, status, nodes):
    extra = {"status": status, "nodes_explored": nodes}
    with tempfile.TemporaryDirectory() as tmp:
        problem_path, solution_path, again = (Path(tmp) / n for n in ("i.json", "s.json", "t.json"))
        save_problem(instance, problem_path)
        loaded = load_problem(problem_path)
        assert loaded == instance
        save_problem(loaded, again)
        assert again.read_bytes() == problem_path.read_bytes()

        save_solution(solution, solution_path, extra=extra)
        loaded = load_solution(solution_path)
        assert loaded == solution
        save_solution(loaded, again, extra=extra)
        assert again.read_bytes() == solution_path.read_bytes()


# Values of each JSON kind that a file may hold where another kind belongs.
JSON_KINDS = {"null": [None], "bool": [True, False], "int": [-1, 0, 1, 3],
              "float": [-0.5, 0.5, 2.5], "nan": [float("nan")], "string": ["", "x"],
              "list": [[], [1]], "object": [{}, {"a": 1}]}


def json_kind(value) -> str:
    if isinstance(value, float):
        return "nan" if value != value else "float"
    return {type(None): "null", bool: "bool", int: "int", str: "string",
            list: "list", dict: "object"}[type(value)]


def value_paths(value, path=()):
    """The path of every key's value and list entry below ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from value_paths(child, path + (key,))


def valid_files(tmp: Path) -> dict:
    """A valid P=3 instance, a solution of it and a sweep config, by file name."""
    instance = generate_instance(GeneratorConfig(pop_count=3, vnf_count=4, seed=1))
    result = solve_exact(instance)
    assert result.solution is not None
    save_problem(instance, tmp / "instance.json")
    save_solution(result.solution, tmp / "solution.json",
                  extra={"status": result.status.value, "nodes_explored": result.nodes_explored})
    sweep = {"generator": {"pop_count": 3, "vnf_count": 2, "seed": 1, "area_side_km": 1500.0,
                           "delay_jitter_fraction": 0.1, "nfvo_capacity": 20},
             "vnf_counts": [2], "algorithms": ["tsp", "exact"], "runs_per_point": 1,
             "base_seed": 0, "output": "r.csv", "emit_solutions": False,
             "solutions_dir": "solutions", "wall_clock": False, "vnfm_delay_bound": 30.0,
             "nfvo_vnfm_delay_bound": 45.0, "stop_patience": 4, "tabu_tenure": 2,
             "neighborhood_samples": 3, "oracle_max_nodes": 1000,
             "oracle_time_limit_s": 60.0}
    return {"instance.json": json.loads((tmp / "instance.json").read_text()),
            "solution.json": json.loads((tmp / "solution.json").read_text()),
            "sweep.json": sweep}


@pytest.mark.parametrize("edited, argv", [
    ("instance.json", ["validate", "instance.json"]),
    ("solution.json", ["check", "instance.json", "solution.json"]),
    ("sweep.json", ["experiment", "--config", "sweep.json"]),
])
@settings(SMALL, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_value_of_another_kind_never_exits_internal(tmp_path, edited, argv, data):
    tmp = Path(tempfile.mkdtemp(dir=tmp_path))
    files = valid_files(tmp)
    path = data.draw(st.sampled_from(list(value_paths(files[edited]))))
    *parents, last = path
    target = files[edited]
    for key in parents:
        target = target[key]
    kind = data.draw(st.sampled_from([k for k in JSON_KINDS if k != json_kind(target[last])]))
    target[last] = data.draw(st.sampled_from(JSON_KINDS[kind]))
    for name, content in files.items():
        (tmp / name).write_text(json.dumps(content))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(tmp), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.startswith("manoplace: error:") and err.count("\n") == 1, err
    elif code == 2:  # findings go to stdout, and one summary line to stderr
        assert err.startswith("manoplace:") and err.count("\n") == 1, err
    else:
        assert err.count("\n") == 0, err
