"""Property tests on generated instances (up to 8 PoPs and 12 VNFs).

The heuristic's solutions must check clean and never beat the exact
optimum. The search's reachability look-ahead and the VNFs each member of a
domain can manage must agree with a per-VNF recount on arbitrary head
assignments. For any subset of orchestrators the GSO can reach, the exact
solver's enumeration must yield, in order, the assignments of a product
over each PoP's heads in reach that pass the capacity and look-ahead
recounts, with their manager floors; from whichever tick on it counts the
rest instead, it must yield the same assignments up to there and tick as
many as the product fits. With any node budget, the exact solver, which
counts what cannot beat its incumbent, whole subsets or the rest of one,
must return what a search that walks every assignment returns. On random
plans every domain's manager count must equal an exhaustive max-flow
minimum. Along random walks of search moves every incrementally scored
neighbour must equal a full rescore, and from equal random states on
arbitrary plans the sampled neighbourhood must equal one drawn and built
plan by plan. A plan with fewer orchestrators than ⌈V/φ_nfvo⌉ must be over
capacity, and once the search holds a plan without penalty it must score no
neighbour below that floor. The MILP solver
on the exported LP must reach the exact optimum, and on a drawn domain plan
the rows read back from the exported file must hold, with each z set to its
product, exactly for the manager assignments that satisfy the products
themselves. Instance and solution files must round-trip exactly, and on
exports with one character or line edited the LP check must equal the
token parse. Every input file with one value swapped for one of another
JSON kind must exit 0, 1 or 2, never 3, and an exit 2 prints one stderr
line. Examples are derandomized, so every run checks the same instances;
one check bounds the share of 2-PoP instances among one test's examples,
another the share of one-domain plans among drawn plans, one requires
node budgets that bind inside the rest of a subset the solver counts, and
the two
search-move tests and the file round trip add an example of each PoP count
from 2 to 8.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from manoplace import (
    GeneratorConfig,
    InfeasibleDomain,
    NoFeasiblePlan,
    OracleBudget,
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
from manoplace.oracle import OracleResult, _feasible_assignments
from manoplace.tabu import (Score, SearchResult, TabuParams, _Position, _propose_candidates,
                            _start, penalty_parts, search)
from manoplace.vnfm import domains_of, place_domain

from conftest import _parse_lp
from test_acceptance import hand_feasible, model_holds, plug_z, structured_assignments
from test_lp_export import _solve_lp
from test_tabu import (check_neighbour, heads_active, naive_capacity, naive_look_ahead,
                       naive_penalty, neighbour_plan, random_plan, search_plan, tables)
from test_vnfm import by_member, eligibility, flow_minimum, runnable

SMALL = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def generated(max_pops, max_vnfs=12):
    return st.builds(
        GeneratorConfig,
        # Largest first: derandomized examples repeat a strategy's simplest value,
        # which for sizes drawn smallest first is the 2-PoP instance.
        pop_count=st.sampled_from(range(max_pops, 1, -1)),
        vnf_count=st.integers(1, max_vnfs),
        area_side_km=st.sampled_from([1500.0, 3000.0, 4500.0]),
        nfvo_capacity=st.integers(2, 20),
        vnfm_capacity=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    ).map(generate_instance)


instances = generated(6)
BOUNDS = [15.0, 30.0, 45.0]


@st.composite
def mixed_bounds(draw, max_pops, max_vnfs=12):
    """A generated instance whose VNFs draw their two manager bounds each."""
    instance = draw(generated(max_pops, max_vnfs))
    bound = st.sampled_from(BOUNDS)
    vnfs = tuple(replace(v, vnfm_delay_bound=draw(bound), nfvo_vnfm_delay_bound=draw(bound))
                 for v in instance.vnfs)
    return replace(instance, vnfs=vnfs)


def every_pop_count(rest):
    """``@example`` rows for n = 2 to 8 PoPs: a generated instance of 12 VNFs
    whose manager bounds are drawn per VNF from ``random.Random(n)``, then the
    test's other arguments, ``rest`` of that generator. Derandomized draws
    clump on a few PoP counts; these rows give a test each count whatever its
    draw repeats."""
    def decorate(test):
        for n in range(8, 1, -1):
            rng = random.Random(n)
            instance = generate_instance(GeneratorConfig(pop_count=n, vnf_count=12,
                                                         nfvo_capacity=n + 2, seed=n))
            vnfs = tuple(replace(v, vnfm_delay_bound=rng.choice(BOUNDS),
                                 nfvo_vnfm_delay_bound=rng.choice(BOUNDS))
                         for v in instance.vnfs)
            test = example(replace(instance, vnfs=vnfs), *rest(rng))(test)
        return test
    return decorate


def check_every_pop_count(prop, sizes: Counter):
    """Run ``prop``, which counts its examples' PoP counts in ``sizes``; print
    the histogram (shown under -s) and require every count from 2 to 8."""
    prop()
    print(f"{prop.__name__} PoP counts {sorted(sizes.items())}")
    assert sorted(sizes) == list(range(2, 9))


@SMALL
@given(st.one_of(instances, mixed_bounds(6)), st.integers(0, 3))
def test_tabu_solutions_check_clean_and_never_beat_the_optimum(instance, seed):
    # Neither solver may raise InfeasibleDomain: a plan reaches manager
    # placement only when no VNF is left unmanageable (the look-ahead).
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
            domains = tuple((sum(1 << q for q in range(n) if head_of[q] == h),
                             sum(1 << i for i, v in enumerate(instance.vnfs)
                                 if head_of[v.location] == h)) for h in heads)
            expected.append((fits, (domains, floor)))
    # Whenever the predicate turns true, here after the j-th tick, the walk
    # counts what is left rather than walking it.
    for j in range(fits + 1):
        ticks = []
        walk = _feasible_assignments(instance, heads, ticks.append, lambda: sum(ticks) >= j)
        assert list(walk) == [leaf for rank, leaf in expected if rank <= j]
        assert sum(ticks) == fits


def walked_solve(instance, max_nodes):
    """The exact search with nothing counted: every subset is walked through
    ``_feasible_assignments`` one node at a time and every domain is placed
    afresh. Returns its result, the node count at which the first subset that
    cannot beat the incumbent starts, and the first node walked inside a subset
    after the incumbent there dropped to k + ⌈V/φ_vnfm⌉ (None where none is)."""
    params, d, n = instance.params, instance.delays, instance.pop_count
    reach = [p for p in range(n) if d[params.gso_location][p] <= params.gso_nfvo_delay_bound]
    vnfm_floor = math.ceil(instance.vnf_count / params.vnfm_capacity)
    nodes, best, best_solution, first_counted, first_rest = 0, None, None, None, None

    def tick(count=1):
        nonlocal nodes
        nodes += count
        if nodes > max_nodes:
            raise TimeoutError

    def beaten():
        return best is not None and k + vnfm_floor >= best

    try:
        for k in range(1, n + 1):
            if beaten():
                break
            for heads in itertools.combinations(reach, k):
                if first_counted is None and beaten():
                    first_counted = nodes + 1
                tick()
                for domains, floor in _feasible_assignments(instance, heads, tick,
                                                            lambda: False):
                    if best is not None and k + floor >= best:
                        continue
                    head_of = tuple(next(h for h, (members, _) in zip(heads, domains)
                                         if members >> q & 1) for q in range(n))
                    plan = DomainPlan(tuple(p in heads for p in range(n)), head_of)
                    vnfms = tuple(m for dom in domains_of(instance, plan)
                                  for m in place_domain(instance, dom))
                    if best is None or k + len(vnfms) < best:
                        best, best_solution = k + len(vnfms), Solution(plan, vnfms)
                        if beaten():  # once per search: no later plan improves
                            first_rest = nodes + 1
                if first_rest == nodes + 1:
                    first_rest = None  # the subset ended with its best plan
    except TimeoutError:
        return OracleResult(OracleStatus.BUDGET_EXCEEDED, best_solution, best, nodes), None, None
    status = OracleStatus.INFEASIBLE if best is None else OracleStatus.OPTIMAL
    return OracleResult(status, best_solution, best, nodes), first_counted, first_rest


def test_counted_subsets_keep_the_walked_results():
    # A third of the budgets bind inside the subsets the solver counts, and a
    # third inside the rest of the subset it counts once its incumbent drops
    # there, if it does. Where the budgets bind is shown under -s.
    binds = Counter()

    @SMALL
    @given(mixed_bounds(7), st.sampled_from(["walked", "counted subset", "counted rest"]),
           st.data())
    def prop(instance, start, data):
        full, first_counted, first_rest = walked_solve(instance, math.inf)
        assert solve_exact(instance) == full
        end = full.nodes_explored + 1
        # The walk stops at node max_nodes + 1, and the rest ends where the
        # next subset, or the search, starts.
        ranges = {"counted subset": first_counted and (first_counted, end),
                  "counted rest": first_rest and (first_rest - 1, (first_counted or end) - 2)}
        max_nodes = data.draw(st.integers(*(ranges.get(start) or (1, end))))
        expected, _, _ = walked_solve(instance, max_nodes)
        assert solve_exact(instance, OracleBudget(max_nodes=max_nodes)) == expected
        stop = max_nodes + 1
        binds["none" if stop > full.nodes_explored
              else "counted subset" if first_counted is not None and stop >= first_counted
              else "counted rest" if first_rest is not None and stop >= first_rest
              else "walked"] += 1

    prop()
    print(f"budgets bind {sorted(binds.items())}")
    assert binds["counted rest"] > 0


def test_generated_instances_are_mostly_not_two_pop():
    # Instances of 2 PoPs have one or two orchestrator subsets: an oracle or
    # domain test learns little from them. Shown under -s.
    sizes = Counter()

    @SMALL
    @given(mixed_bounds(8), st.data())
    def draw(instance, data):
        n = instance.pop_count
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        sizes[n] += 1

    draw()
    share = sum(c for n, c in sizes.items() if n >= 4) / sum(sizes.values())
    print(f"mixed_bounds(8) PoP counts {sorted(sizes.items())}, "
          f"{share:.0%} with at least 4 PoPs")
    assert share >= 0.6
    assert sizes[2] <= 0.2 * sum(sizes.values())


@st.composite
def domain_plans(draw, n):
    """``(nfvo_at, head_of)`` of a plan on n PoPs: the heads are drawn first,
    at least one, each heads itself, and every other PoP draws its head
    among them."""
    # One head last: derandomized examples repeat a strategy's simplest
    # value, and one head makes a one-domain plan.
    count = draw(st.sampled_from([*range(2, n + 1), 1]))
    heads = sorted(draw(st.lists(st.integers(0, n - 1), min_size=count, max_size=count,
                                 unique=True)))
    head_of = [q if q in heads else draw(st.sampled_from(heads)) for q in range(n)]
    return [q in heads for q in range(n)], head_of


def test_drawn_plans_are_mostly_multi_domain():
    # A plan of one domain checks no domain against another. Shown under -s.
    domains = Counter()

    @SMALL
    @given(mixed_bounds(8), st.data())
    def draw(instance, data):
        nfvo_at, _ = data.draw(domain_plans(instance.pop_count))
        domains[sum(nfvo_at)] += 1

    draw()
    share = sum(c for k, c in domains.items() if k >= 2) / sum(domains.values())
    print(f"domain_plans domain counts {sorted(domains.items())}, "
          f"{share:.0%} with at least 2 domains")
    assert domains[0] == 0
    assert share >= 0.8


@SMALL
@given(mixed_bounds(6, max_vnfs=10), st.data())
def test_manager_placement_matches_the_flow_minimum(instance, data):
    n = instance.pop_count
    nfvo_at, head_of = data.draw(domain_plans(n))
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
    nfvo_at, head_of = data.draw(domain_plans(n))
    plan = DomainPlan.make(nfvo_at, head_of)
    domains = domains_of(instance, plan)
    assert [dom.head for dom in domains] == [p for p in range(n) if nfvo_at[p]]
    for dom in domains:
        members = [q for q in range(n) if head_of[q] == dom.head]
        elig = eligibility(instance, dom.head, members)
        assert dom.members == sum(1 << q for q in members)
        assert dom.vnf_ids == tuple(elig)
        assert runnable(instance, dom) == by_member(elig, members)


def test_incremental_scores_match_a_full_rescore():
    sizes = Counter()

    @SMALL
    @given(mixed_bounds(8), st.lists(st.tuples(st.booleans(), st.integers(0, 7),
                                               st.integers(0, 7)), min_size=1, max_size=12))
    @every_pop_count(lambda rng: [[(rng.random() < 0.5, rng.randrange(8), rng.randrange(8))
                                   for _ in range(12)]])
    def walk_from_the_start(instance, walk):
        n = instance.pop_count
        sizes[n] += 1
        position = _start(instance)
        for toggle, pop, pick in walk:
            pop %= n
            # The moves the sampler can draw: it keeps the last orchestrator on.
            neighbours = [position.toggled(p) for p in range(n) if position.active != [p]]
            neighbours += [position.reassigned(pop, t) for t in position.active
                           if t != position.head_of[pop]]
            for cand in neighbours:
                check_neighbour(position, cand)
            moves = [c for c in neighbours if (c.attribute[0] == "toggle") == toggle]
            if not moves:
                continue
            chosen = moves[pick % len(moves)]
            plan = neighbour_plan(position, chosen)
            position.move_to(chosen)
            assert heads_active(position), chosen.attribute
            assert tables(position) == tables(_Position(instance, plan.nfvo_at, plan.head_of))

    check_every_pop_count(walk_from_the_start, sizes)


def test_every_move_of_the_search_keeps_every_head_active(monkeypatch):
    """The invariant the position's scores rely on holds after each move the
    search makes: toggle-offs, toggle-ons and reassignments alike."""
    moves = Counter()
    move_to = _Position.move_to

    def checked_move_to(position, cand):
        kind, pop = cand.attribute[:2]
        moves[kind if kind == "reassign" else "off" if position.nfvo_at[pop] else "on"] += 1
        move_to(position, cand)
        assert heads_active(position), cand.attribute

    monkeypatch.setattr(_Position, "move_to", checked_move_to)

    @SMALL
    @given(st.one_of(generated(8), mixed_bounds(8)), st.integers(0, 3))
    def search_from_the_start(instance, seed):
        search(instance, TabuParams(seed=seed))

    search_from_the_start()
    assert moves["off"] and moves["on"] and moves["reassign"], moves


def reference_neighbourhood(instance, nfvo_at, head_of, samples, tabu, iteration, best_score,
                            rng):
    """The sampled neighbourhood drawn and built plan by plan: a filtered list
    of reassignment targets, the nearest surviving orchestrator by ``min``,
    and each neighbour scored by the per-VNF restatement of the rules."""
    n = instance.pop_count
    d = instance.delays
    active = [p for p in range(n) if nfvo_at[p]]
    out = []
    for _ in range(samples):
        nfvo, heads = list(nfvo_at), list(head_of)
        if rng.random() < 0.5:
            pop = rng.randrange(n)
            attribute = ("toggle", pop)
            if nfvo[pop]:
                remaining = [c for c in active if c != pop]
                if not remaining:
                    continue
                nfvo[pop] = False
                for q in range(n):
                    if head_of[q] == pop:
                        heads[q] = min(remaining, key=d[q].__getitem__)
            else:
                nfvo[pop] = True
                heads[pop] = pop
        else:
            pop = rng.randrange(n)
            targets = [c for c in active if c != head_of[pop]]
            if not targets:
                continue
            heads[pop] = targets[rng.randrange(len(targets))]
            attribute = ("reassign", pop, heads[pop])
        plan = DomainPlan.make(nfvo, heads)
        score = Score(naive_penalty(instance, plan) + naive_capacity(instance, plan.head_of),
                      sum(nfvo))
        if tabu.get(attribute, -1) >= iteration and not score < best_score:
            continue
        out.append((attribute, score, plan.nfvo_at, plan.head_of))
    return out


def scored_without_the_floor(position, attribute, best_score):
    """Whether the sampler's bound, without its orchestrator-floor rule, would
    score the neighbour ``attribute`` of ``position``."""
    penalty, count = position.score
    best_penalty, best_count = best_score
    pop = attribute[1]
    rest = penalty - position.pop_terms[pop] - position.domain_terms[position.head_of[pop]]
    if attribute[0] == "reassign":
        return rest - position.domain_terms[attribute[2]] <= best_penalty - (count >= best_count)
    if position.nfvo_at[pop]:  # a toggle-off's bound is zero
        return 0 <= best_penalty - (count - 1 >= best_count)
    return rest <= best_penalty - (count + 1 >= best_count)


def test_neighbourhood_draw_matches_the_plan_by_plan_reference():
    sizes = Counter()
    # Neighbours scored and left unscored, those left unscored by the floor
    # rule alone, and draws with an improving neighbour.
    kept = Counter()

    @SMALL
    @given(mixed_bounds(8), st.sampled_from([0, 20, 60]), st.integers(0, 2**32 - 1))
    @every_pop_count(lambda rng: [rng.choice([0, 20, 60]), rng.randrange(2**32)])
    def draw_from_random_states(instance, grid, seed):
        n = instance.pop_count
        sizes[n] += 1
        if grid:  # delays rounded to the grid, so PoPs tie for the nearest orchestrator
            instance = replace(instance, delays=tuple(tuple(grid * round(x / grid) for x in row)
                                                      for row in instance.delays))
        rng = random.Random(seed)
        for _ in range(10):
            # Heads are drawn among the active PoPs, so some active PoPs sit in
            # another domain and some head others.
            plan = search_plan(rng, n)
            nfvo_at, head_of = plan.nfvo_at, plan.head_of
            if rng.random() < 0.25:
                one = rng.randrange(n)
                nfvo_at, head_of = [p == one for p in range(n)], [one] * n
            tabu = {("toggle", rng.randrange(n)): rng.randrange(4) for _ in range(n)}
            tabu.update({("reassign", rng.randrange(n), rng.randrange(n)): rng.randrange(4)
                         for _ in range(n * n // 2)})
            best_score = Score(rng.randrange(7), rng.randrange(n + 1))
            samples = rng.randint(1, 4 * n)
            position = _Position(instance, nfvo_at, head_of)
            reference_rng = random.Random()
            reference_rng.setstate(rng.getstate())
            improving, offs, same, ons = _propose_candidates(position, samples, tabu, 2,
                                                             best_score, rng)
            want = reference_neighbourhood(instance, position.nfvo_at, position.head_of,
                                           samples, tabu, 2, best_score, reference_rng)
            # Each kind holds the reference's kept neighbours of its orchestrator count.
            count = position.score.nfvo_count
            assert len(offs) + len(same) + len(ons) == len(want)
            for kind, delta in ((offs, -1), (same, 0), (ons, 1)):
                want_kind = [w for w in want if w[1].nfvo_count == count + delta]
                assert [attribute for attribute, _ in kind] == [w[0] for w in want_kind]
                for (attribute, c), (_, score, want_nfvo_at, want_head_of) in zip(kind,
                                                                                  want_kind):
                    if c is None:  # left unscored: it must not be able to beat the best
                        assert not score < best_score, attribute
                    else:
                        assert (c.attribute, c.score) == (attribute, score)
                    kept[c is None] += 1
                    kept["floor"] += c is None and scored_without_the_floor(position, attribute,
                                                                            best_score)
                    plan = neighbour_plan(position, c or position.neighbour(attribute))
                    assert (plan.nfvo_at, plan.head_of) == (want_nfvo_at, want_head_of)
            # The improving list is the reference's lowest-score ties below best_score.
            lowest = min((score for _, score, _, _ in want), default=best_score)
            assert [attribute for attribute, _ in improving] == [
                attribute for attribute, score, _, _ in want
                if score == lowest and lowest < best_score]
            assert all(c is not None and c.score == lowest for _, c in improving)
            kept["improving"] += bool(improving)
            assert rng.getstate() == reference_rng.getstate()

    check_every_pop_count(draw_from_random_states, sizes)
    print(f"neighbours scored {kept[False]}, left unscored {kept[True]} "
          f"({kept['floor']} by the floor rule alone); "
          f"draws with an improving neighbour {kept['improving']}")
    assert kept[False] and kept[True] and kept["floor"] and kept["improving"]


def nfvo_floor(instance):
    """⌈V/φ_nfvo⌉: fewer orchestrators head too few domains to hold every VNF."""
    return math.ceil(instance.vnf_count / instance.params.nfvo_capacity)


def test_a_plan_below_the_orchestrator_floor_is_over_capacity():
    # The fact the sampler's floor rule rests on: below the floor some domain
    # is overfull, so the penalty is at least one.
    below = Counter()

    @SMALL
    @given(st.one_of(generated(8), mixed_bounds(8)), st.integers(0, 2**32 - 1))
    def draw_plans(instance, seed):
        rng = random.Random(seed)
        floor = nfvo_floor(instance)
        for _ in range(20):
            plan = search_plan(rng, instance.pop_count)
            is_below = sum(plan.nfvo_at) < floor
            below[is_below] += 1
            if is_below:
                assert penalty_parts(instance, plan)["capacity"] >= 1, plan

    draw_plans()
    assert below[True] and below[False], below


def test_no_neighbour_below_the_orchestrator_floor_is_scored_once_a_plan_is_feasible(
        monkeypatch):
    """Once the best plan has no penalty, the sampler scores no neighbour with
    fewer orchestrators than the floor: such a neighbour cannot beat it."""
    seen = Counter()  # calls at best penalty zero, and unscored neighbours below the floor
    def checked(position, samples, tabu, iteration, best_score, rng):
        proposal = _propose_candidates(position, samples, tabu, iteration, best_score, rng)
        if best_score.penalty == 0:
            floor = nfvo_floor(position.instance)
            seen["feasible"] += 1
            # Toggle-offs, reassignments and toggle-ons, by orchestrator count.
            for kind, delta in zip(proposal[1:], (-1, 0, 1)):
                below = position.score.nfvo_count + delta < floor
                for attribute, cand in kind:
                    assert cand is None or not below, (attribute, cand.score, floor)
                    seen["below"] += below
        return proposal

    monkeypatch.setattr("manoplace.tabu._propose_candidates", checked)

    @SMALL
    @given(st.one_of(generated(8), mixed_bounds(8)), st.integers(0, 3))
    def search_from_the_start(instance, seed):
        search(instance, TabuParams(seed=seed))

    search_from_the_start()
    search(generate_instance(GeneratorConfig(pop_count=64, vnf_count=240, seed=1)),
           TabuParams(seed=0))
    assert seen["feasible"] and seen["below"], seen


@st.composite
def tight_bounds(draw, max_pops):
    """A generated instance with tight orchestrator delay bounds and an
    orchestrator capacity of 3: many have no feasible plan, so the search
    ends with a best penalty above zero."""
    instance = draw(generated(max_pops))
    bound = st.sampled_from([10.0, 20.0, 30.0, 45.0])
    return replace(instance, params=replace(instance.params, nfvo_capacity=3,
                                            gso_nfvo_delay_bound=draw(bound),
                                            nfvo_vim_delay_bound=draw(bound)))


def eager_search(instance, params):
    """``search`` with every sampled neighbour scored: the plan-by-plan
    reference draw, the same selection rule, and each chosen neighbour's
    position built afresh from its plan."""
    patience, tenure, samples = params.resolved(instance.pop_count)
    rng = random.Random(params.seed)
    position = _start(instance)
    best, best_score = position.plan, position.score
    tabu = {}
    iteration = no_improvement = last_improvement = 0
    while no_improvement < patience:
        iteration += 1
        candidates = reference_neighbourhood(instance, position.nfvo_at, position.head_of,
                                             samples, tabu, iteration, best_score, rng)
        if not candidates:
            no_improvement += 1
            continue
        lowest = min(score for _, score, _, _ in candidates)
        if lowest < best_score:
            tied = [c for c in candidates if c[1] == lowest]
        else:
            min_nfvo = min(score.nfvo_count for _, score, _, _ in candidates)
            tied = [c for c in candidates if c[1].nfvo_count == min_nfvo]
        attribute, score, nfvo_at, head_of = tied[rng.randrange(len(tied))]
        position = _Position(instance, nfvo_at, head_of)
        tabu[attribute] = iteration + tenure
        if score < best_score:
            best, best_score = position.plan, score
            no_improvement = 0
            last_improvement = iteration
        else:
            no_improvement += 1
    return SearchResult(best, best_score, iteration, last_improvement, patience)


def test_search_matches_the_eager_search():
    sizes = Counter()
    infeasible = Counter()

    @SMALL
    @given(st.one_of(mixed_bounds(12), tight_bounds(12)), st.integers(0, 3))
    def search_both_ways(instance, seed):
        sizes[instance.pop_count] += 1
        params = TabuParams(seed=seed)
        result = search(instance, params)
        assert result == eager_search(instance, params)
        infeasible[result.best_score.penalty > 0] += 1

    # One row per PoP count, with the tight bounds on every other one.
    for n in range(12, 1, -1):
        instance = generate_instance(GeneratorConfig(pop_count=n, vnf_count=2 * n, seed=n))
        if n % 2:
            instance = replace(instance, params=replace(
                instance.params, nfvo_capacity=3, gso_nfvo_delay_bound=30.0,
                nfvo_vim_delay_bound=20.0))
        search_both_ways = example(instance, n % 4)(search_both_ways)
    search_both_ways()
    print(f"search_both_ways PoP counts {sorted(sizes.items())}; best penalty above zero "
          f"in {infeasible[True]} of {sum(infeasible.values())}")
    assert sorted(sizes) == list(range(2, 13))
    assert infeasible[True] and infeasible[False]


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


@SMALL
@given(mixed_bounds(3, max_vnfs=2), st.sampled_from([15.0, 30.0, 80.0]), st.integers(1, 2),
       st.data())
def test_exported_rows_hold_exactly_where_the_products_do(instance, gso_bound, nfvo_capacity,
                                                         data):
    # Criterion 4 on generated instances. Each example draws one head per PoP
    # (most draws are no valid plan) and compares every one-hot manager slot
    # and VNF assignment under it. Capacity 1 makes the c17 rows bind.
    params = replace(instance.params, gso_nfvo_delay_bound=gso_bound,
                     nfvo_capacity=nfvo_capacity)
    instance = replace(instance, params=params)
    n = instance.pop_count
    heads = data.draw(st.tuples(*[st.integers(0, n - 1)] * n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        export_lp(instance, path)
        _objective, rows, variables = _parse_lp(path)
    for a in structured_assignments(n, instance.vnf_count, [heads]):
        assert model_holds(rows, plug_z(a, variables)) == hand_feasible(instance, a)


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


def random_solution(rng):
    """A solution as ``solutions`` draws one, from ``random.Random`` ``rng``."""
    n = rng.randint(1, 8)
    vnfms = tuple(VnfmAssignment(rng.randrange(n),
                                 tuple(rng.randrange(31) for _ in range(rng.randrange(6))))
                  for _ in range(rng.randrange(7)))
    return Solution(random_plan(rng, n), vnfms)


def test_instance_and_solution_files_round_trip_exactly():
    sizes = Counter()

    @SMALL
    @given(mixed_bounds(8), solutions(), st.sampled_from(["optimal", "budget_exceeded"]),
           st.integers(0, 10**6))
    @every_pop_count(lambda rng: [random_solution(rng),
                                  rng.choice(["optimal", "budget_exceeded"]),
                                  rng.randrange(10**6 + 1)])
    def round_trip(instance, solution, status, nodes):
        sizes[instance.pop_count] += 1
        extra = {"status": status, "nodes_explored": nodes}
        with tempfile.TemporaryDirectory() as tmp:
            problem_path, solution_path, again = (Path(tmp) / n
                                                  for n in ("i.json", "s.json", "t.json"))
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

    check_every_pop_count(round_trip, sizes)


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
             "base_seed": 0, "output": "r.csv", "emit_solutions": True,
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
