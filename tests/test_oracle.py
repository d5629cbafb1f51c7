"""Exact solver against a flat re-enumeration of the whole search space.

``brute_force_objective`` shares no code with the solver under test: it
walks every head subset, every assignment function, and every VNF-to-host
map with plain itertools loops, so an agreement over a batch of generated
instances is strong evidence the pruned search is exact.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from itertools import combinations, product

import pytest

from manoplace import (
    GeneratorConfig,
    OracleBudget,
    OracleStatus,
    check_feasibility,
    generate_instance,
    solve_exact,
)
from manoplace.model import solution_to_data
from manoplace.oracle import OracleResult, _feasible_assignments
from manoplace.topology import with_uniform_vnfs

from conftest import make_instance


def fewest_heads(instance):
    """Smallest orchestrator count for which the solver's enumeration yields any
    plan, or None: the target of the search's first step."""
    params = instance.params
    d = instance.delays
    heads = [p for p in range(instance.pop_count)
             if d[params.gso_location][p] <= params.gso_nfvo_delay_bound]
    for k in range(1, len(heads) + 1):
        for subset in combinations(heads, k):
            walk = _feasible_assignments(instance, subset, lambda _: None, lambda: False)
            if next(walk, None):
                return k
    return None


def min_managers_enumerated(instance, head, members):
    """Fewest managers for one domain, by trying every host assignment."""
    d = instance.delays
    cap = instance.params.vnfm_capacity
    vnfs = [v for v in instance.vnfs if v.location in members]
    if not vnfs:
        return 0
    host_sets = []
    for v in vnfs:
        hosts = [p for p in members
                 if d[v.location][p] <= v.vnfm_delay_bound
                 and d[p][head] <= v.nfvo_vnfm_delay_bound]
        if not hosts:
            return None
        host_sets.append(hosts)
    best = None
    for pick in product(*host_sets):
        loads = {h: pick.count(h) for h in set(pick)}
        managers = sum(math.ceil(c / cap) for c in loads.values())
        if best is None or managers < best:
            best = managers
    return best


def brute_force(instance):
    """(objective, nfvo_count) of the best plan, or None when infeasible."""
    params = instance.params
    d = instance.delays
    n = instance.pop_count
    gso = params.gso_location
    vnfs_at = [0] * n
    for v in instance.vnfs:
        vnfs_at[v.location] += 1
    best = None
    for k in range(1, n + 1):
        for heads in combinations(range(n), k):
            if any(d[gso][h] > params.gso_nfvo_delay_bound for h in heads):
                continue
            nonheads = [q for q in range(n) if q not in heads]
            for choice in product(heads, repeat=len(nonheads)):
                head_of = dict(zip(nonheads, choice))
                head_of.update((h, h) for h in heads)
                if any(d[head_of[q]][q] > params.nfvo_vim_delay_bound
                       for q in range(n)):
                    continue
                domain_load = {h: 0 for h in heads}
                for q in range(n):
                    domain_load[head_of[q]] += vnfs_at[q]
                if any(c > params.nfvo_capacity for c in domain_load.values()):
                    continue
                managers = 0
                for h in heads:
                    members = [q for q in range(n) if head_of[q] == h]
                    m = min_managers_enumerated(instance, h, members)
                    if m is None:
                        managers = None
                        break
                    managers += m
                if managers is None:
                    continue
                total = k + managers
                if best is None or total < best[0]:
                    best = (total, k)
    return best


def brute_min_k(instance):
    """Smallest head count with any plan passing every placement gate."""
    params = instance.params
    d = instance.delays
    n = instance.pop_count
    vnfs_at = [0] * n
    for v in instance.vnfs:
        vnfs_at[v.location] += 1
    for k in range(1, n + 1):
        for heads in combinations(range(n), k):
            if any(d[params.gso_location][h] > params.gso_nfvo_delay_bound
                   for h in heads):
                continue
            nonheads = [q for q in range(n) if q not in heads]
            for choice in product(heads, repeat=len(nonheads)):
                head_of = dict(zip(nonheads, choice))
                head_of.update((h, h) for h in heads)
                if any(d[head_of[q]][q] > params.nfvo_vim_delay_bound
                       for q in range(n)):
                    continue
                load = {h: 0 for h in heads}
                for q in range(n):
                    load[head_of[q]] += vnfs_at[q]
                if any(c > params.nfvo_capacity for c in load.values()):
                    continue
                covered = all(
                    any(head_of[p] == head_of[v.location]
                        and d[v.location][p] <= v.vnfm_delay_bound
                        and d[p][head_of[v.location]] <= v.nfvo_vnfm_delay_bound
                        for p in range(n))
                    for v in instance.vnfs)
                if covered:
                    return k
    return None


class TestSolveExact:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_on_generated_instances(self, seed):
        inst = generate_instance(GeneratorConfig(
            pop_count=3, vnf_count=2 + seed % 4, seed=seed))
        expected = brute_force(inst)
        result = solve_exact(inst)
        if expected is None:
            assert result.status is OracleStatus.INFEASIBLE
            assert result.solution is None and result.objective is None
        else:
            assert result.status is OracleStatus.OPTIMAL
            assert result.objective == expected[0]
            assert result.solution.objective == expected[0]
            assert check_feasibility(inst, result.solution).ok

    def test_two_cluster_split(self, four_pop_clusters):
        result = solve_exact(four_pop_clusters)
        assert result.status is OracleStatus.OPTIMAL
        assert result.solution.plan.nfvo_count == 2

    def test_infeasible_when_a_pop_is_out_of_reach(self):
        inst = make_instance([[0, 200], [200, 0]], vnf_locs=(1,))
        result = solve_exact(inst)
        assert result.status is OracleStatus.INFEASIBLE
        assert result.solution is None
        assert result.objective is None
        assert result.nodes_explored > 0

    def test_tie_keeps_the_first_subset_in_order(self):
        # Heads 0 and 1 are symmetric; enumeration order must pick 0.
        inst = make_instance([[0, 10], [10, 0]], vnf_locs=(1,))
        result = solve_exact(inst)
        assert result.objective == 2
        assert result.solution.plan.nfvo_at == (True, False)

    def test_repeated_solves_are_identical(self, line3):
        a = solve_exact(line3)
        b = solve_exact(line3)
        assert a == b

    def test_node_budget_exhaustion_is_reported(self, line3):
        result = solve_exact(line3, OracleBudget(max_nodes=1))
        assert result.status is OracleStatus.BUDGET_EXCEEDED
        assert result.solution is None
        assert result.objective is None

    def test_time_budget_exhaustion_is_reported(self, line3):
        result = solve_exact(line3, OracleBudget(time_limit_s=1e-9))
        assert result.status is OracleStatus.BUDGET_EXCEEDED

    def test_time_limit_stops_the_manager_placement(self, bridged_pairs, alarm):
        # The first plan's domain alone takes far longer than the limit, and
        # the enumeration never gets past it to tick its own budget.
        alarm(10)
        start = time.monotonic()
        result = solve_exact(bridged_pairs, OracleBudget(time_limit_s=2.0))
        assert time.monotonic() - start < 3.0
        assert result == OracleResult(OracleStatus.BUDGET_EXCEEDED, None, None, 2)

    @pytest.mark.parametrize("kwargs", [
        {"max_nodes": 0},
        {"max_nodes": -5},
        {"time_limit_s": 0.0},
        {"time_limit_s": -1.0},
    ])
    def test_budget_rejects_nonpositive_limits(self, kwargs):
        with pytest.raises(ValueError):
            OracleBudget(**kwargs)


# Sweep points at the benchmark's scale: 10 PoPs, the topology of
# ``gen --pops 10 --vnfs 10 --seed T`` with its VNFs redrawn as a sweep does
# (``with_uniform_vnfs`` seeded T + V). Each point is solved in full and with
# half its node budget. Recorded before the oracle counted, rather than
# walked, the subsets that cannot beat its incumbent. T = 0, V = 30 was
# recorded before it counted the rest of a subset once its incumbent dropped
# there: nodes 61 to 116 are that rest, so its budget of 90 binds inside it.
GOLDEN_SWEEP_POINTS = [
    # (T, V, max_nodes, status, objective, nodes_explored, solution digest)
    (0, 25, None, "optimal", 5, 8875, "5c0c5cb7ab295bf7"),
    (0, 25, 4437, "budget_exceeded", 5, 4438, "5c0c5cb7ab295bf7"),
    (0, 30, None, "optimal", 5, 7032, "e8e32a4af3beb645"),
    (0, 30, 90, "budget_exceeded", 5, 91, "e8e32a4af3beb645"),
    (0, 40, None, "optimal", 6, 664, "5240bb08651d9d4d"),
    (0, 40, 332, "budget_exceeded", 6, 333, "5240bb08651d9d4d"),
    (1, 30, None, "optimal", 5, 9028, "dc68d7bc853dcf0c"),
    (1, 30, 4514, "budget_exceeded", 5, 4515, "dc68d7bc853dcf0c"),
    (1, 35, None, "optimal", 6, 4507, "5dab804821e3b0b9"),
    (1, 35, 2253, "budget_exceeded", 6, 2254, "5dab804821e3b0b9"),
    (2, 25, None, "optimal", 5, 10959, "c6d4d6f6acd5f71c"),
    (2, 25, 5479, "budget_exceeded", 5, 5480, "c6d4d6f6acd5f71c"),
    (2, 40, None, "optimal", 6, 769, "2fa54009f70f348e"),
    (2, 40, 384, "budget_exceeded", 6, 385, "2fa54009f70f348e"),
    (3, 30, None, "optimal", 5, 8310, "b09cc545f55e73a7"),
    (3, 30, 4155, "budget_exceeded", 5, 4156, "b09cc545f55e73a7"),
    (3, 35, None, "optimal", 6, 4704, "be4e1eb65e7e89bb"),
    (3, 35, 2352, "budget_exceeded", 6, 2353, "be4e1eb65e7e89bb"),
]


@pytest.mark.parametrize("topology_seed, vnfs, max_nodes, status, objective, nodes, digest",
                         GOLDEN_SWEEP_POINTS)
def test_golden_sweep_points(topology_seed, vnfs, max_nodes, status, objective, nodes, digest):
    base = generate_instance(GeneratorConfig(pop_count=10, vnf_count=10, seed=topology_seed))
    instance = with_uniform_vnfs(base, vnfs, seed=topology_seed + vnfs)
    result = solve_exact(instance, OracleBudget(max_nodes=max_nodes) if max_nodes else None)
    data = json.dumps(solution_to_data(result.solution)).encode()
    assert (result.status.value, result.objective, result.nodes_explored,
            hashlib.sha256(data).hexdigest()[:16]) == (status, objective, nodes, digest)


def test_solving_leaves_no_cyclic_garbage():
    # A recursive closure refers to itself: unless the solver breaks that
    # cycle, every call leaves garbage only the cycle collector frees.
    instance = with_uniform_vnfs(
        generate_instance(GeneratorConfig(pop_count=10, vnf_count=10, seed=2)), 30, seed=32)
    instance.vnfs_served, instance.vnfs_at  # cached before the count
    gc.collect()
    gc.disable()
    try:
        result = solve_exact(instance)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.status is OracleStatus.OPTIMAL


class TestMinFeasibleCount:
    """The solver's plan enumeration, with its manager look-ahead, stopped at
    the first orchestrator count that yields a plan."""

    def test_single_orchestrator_suffices_on_the_line(self, line3):
        assert fewest_heads(line3) == 1

    def test_cluster_split_needs_two(self, four_pop_clusters):
        assert fewest_heads(four_pop_clusters) == 2

    def test_none_when_nothing_is_feasible(self):
        inst = make_instance([[0, 200], [200, 0]], vnf_locs=(1,))
        assert fewest_heads(inst) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_brute_force_count(self, seed):
        inst = generate_instance(GeneratorConfig(
            pop_count=4, vnf_count=5, seed=seed))
        assert fewest_heads(inst) == brute_min_k(inst)
