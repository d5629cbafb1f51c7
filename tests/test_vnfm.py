"""Per-domain manager placement and the two-step pipeline.

``flow_minimum`` below is the reference oracle: it enumerates how many
managers to open per host (smallest total first) and asks a max-flow
feasibility question for each candidate, so it cannot miss a better
packing. It reads the manager hosts straight from the delays, sharing no
code with the placer. The branch and bound must match it exactly.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import networkx as nx
import pytest

from manoplace import (
    GeneratorConfig,
    InfeasibleDomain,
    TabuParams,
    check_feasibility,
    generate_instance,
    load_instance_ref,
    two_step_place,
    two_step_place_detailed,
)
from manoplace.model import DomainPlan
from manoplace.topology import with_uniform_vnfs
from manoplace.vnfm import DomainView, domains_of, place_domain

from conftest import make_instance


def eligibility(instance, head, members):
    """Per VNF located on ``members`` (by id, in inventory order), the members
    within its own bound of its location and its orchestrator bound of ``head``."""
    d = instance.delays
    return {v.id: frozenset(p for p in members
                            if d[v.location][p] <= v.vnfm_delay_bound
                            and d[p][head] <= v.nfvo_vnfm_delay_bound)
            for v in instance.vnfs if v.location in members}


def flow_minimum(instance, head, members):
    """Smallest manager count that covers the domain, by exhaustive check.

    For each total count t (ascending) and each distribution of t managers
    over the eligible hosts, a bipartite max-flow decides whether every VNF
    can be assigned within capacity. Returns None when even the all-hosts
    distribution cannot cover some VNF.
    """
    cap = instance.params.vnfm_capacity
    elig = eligibility(instance, head, members)
    vnfs = list(elig)
    if not vnfs:
        return 0
    if any(not e for e in elig.values()):
        return None
    hosts = sorted(set().union(*elig.values()))
    for t in range(1, len(vnfs) + 1):
        for combo in combinations_with_replacement(hosts, t):
            counts = {h: combo.count(h) for h in set(combo)}
            g = nx.DiGraph()
            for v in vnfs:
                g.add_edge("s", ("v", v), capacity=1)
                for h in elig[v]:
                    if h in counts:
                        g.add_edge(("v", v), ("h", h), capacity=1)
            for h, k in counts.items():
                g.add_edge(("h", h), "t", capacity=k * cap)
            value, _ = nx.maximum_flow(g, "s", "t")
            if value == len(vnfs):
                return t
    return None


def single_domain(instance):
    """The domain of a plan where PoP 0 heads every PoP."""
    n = instance.pop_count
    plan = DomainPlan.make([True] + [False] * (n - 1), [0] * n)
    (domain,) = domains_of(instance, plan)
    return domain


def whole(instance):
    """``flow_minimum``'s and ``eligibility``'s head and members for ``single_domain``."""
    return 0, range(instance.pop_count)


class TestDomainViews:
    def test_domains_follow_the_plan(self, line3):
        plan = DomainPlan.make([True, False, True], [0, 0, 2])
        a, b = domains_of(line3, plan)
        assert (a.head, a.vnf_ids, a.hosts) == (0, (0, 1), (frozenset({0, 1}),) * 2)
        assert (b.head, b.vnf_ids, b.hosts) == (2, (2,), (frozenset({2}),))

    def test_domain_hosts_double_filter(self):
        for seed in range(4):
            inst = generate_instance(GeneratorConfig(pop_count=5, vnf_count=8,
                                                     seed=seed))
            domain = single_domain(inst)
            assert dict(zip(domain.vnf_ids, domain.hosts)) == eligibility(inst, *whole(inst))


class TestPlaceDomain:
    def test_empty_domain_places_nothing(self, line3):
        domain = DomainView(head=0, vnf_ids=(), hosts=())
        assert place_domain(line3, domain) == ()

    def test_matches_flow_oracle_on_random_domains(self):
        checked = 0
        for seed in range(12):
            inst = generate_instance(GeneratorConfig(
                pop_count=4, vnf_count=6, seed=seed, vnfm_capacity=2,
                vnfm_delay_bound=20.0))
            domain = single_domain(inst)
            expected = flow_minimum(inst, *whole(inst))
            if expected is None:
                with pytest.raises(InfeasibleDomain):
                    place_domain(inst, domain)
                continue
            placed = place_domain(inst, domain)
            assert len(placed) == expected, (seed, placed)
            checked += 1
        assert checked >= 6  # most random draws must be coverable

    def test_assignments_are_well_formed(self):
        inst = generate_instance(GeneratorConfig(pop_count=5, vnf_count=12,
                                                 seed=3, vnfm_capacity=3))
        domain = single_domain(inst)
        placed = place_domain(inst, domain)
        elig = eligibility(inst, *whole(inst))
        seen = []
        for m in placed:
            assert 1 <= m.load <= 3
            for v in m.managed:
                assert m.location in elig[v]
            seen.extend(m.managed)
        assert sorted(seen) == sorted(domain.vnf_ids)
        assert list(placed) == sorted(placed, key=lambda m: (m.location, m.managed))

    def test_spare_capacity_branch_is_explored(self):
        # v0 can only go to PoP 0, v2 only to PoP 1, v1 to either; with
        # capacity 2 the optimum needs the spare slot at an already open
        # manager, which a bound ignoring spare capacity would prune.
        inst = make_instance(
            [[0, 10], [10, 0]], vnf_locs=(0, 0, 1),
            vnfm_capacity=2,
            vnf_bounds=[(5.0, 45.0), (15.0, 45.0), (5.0, 45.0)])
        domain = single_domain(inst)
        placed = place_domain(inst, domain)
        assert len(placed) == 2
        assert flow_minimum(inst, *whole(inst)) == 2

    def test_many_vnfs_at_one_pop_chunk_into_capacity_managers(self):
        inst = make_instance([[0, 10], [10, 0]], vnf_locs=(0,) * 5,
                             vnfm_capacity=2)
        domain = single_domain(inst)
        placed = place_domain(inst, domain)
        assert [m.load for m in placed] == [2, 2, 1]
        assert {m.location for m in placed} == {0}

    def test_unreachable_vnf_raises(self):
        inst = make_instance([[0, 50], [50, 0]], vnf_locs=(1,),
                             vnf_bounds=[(30.0, 45.0)])
        # Only PoP 1 is within 30 ms of the VNF, but PoP 1 is 50 ms from the
        # head, past the 45 ms orchestrator bound.
        domain = single_domain(inst)
        with pytest.raises(InfeasibleDomain) as err:
            place_domain(inst, domain)
        assert err.value.vnf_id == 0
        assert err.value.head == 0

    def test_greedy_fallback_still_covers(self):
        inst = generate_instance(GeneratorConfig(pop_count=5, vnf_count=14,
                                                 seed=6, vnfm_capacity=3))
        domain = single_domain(inst)
        exact = place_domain(inst, domain)
        greedy = place_domain(inst, domain, exact_threshold=1)
        covered = sorted(v for m in greedy for v in m.managed)
        assert covered == sorted(domain.vnf_ids)
        assert len(greedy) >= len(exact)


class TestTwoStep:
    def test_solution_is_feasible_and_consistent(self, four_pop_clusters):
        result = two_step_place_detailed(four_pop_clusters, TabuParams(seed=0))
        sol = result.solution
        assert check_feasibility(four_pop_clusters, sol).ok
        assert sol.objective == sol.plan.nfvo_count + sol.vnfm_count
        assert result.search.feasible

    def test_plain_wrapper_returns_the_same_solution(self, four_pop_clusters):
        assert (two_step_place(four_pop_clusters, TabuParams(seed=0))
                == two_step_place_detailed(four_pop_clusters,
                                           TabuParams(seed=0)).solution)

    def test_backtracking_regression_on_bundled_topology(self):
        # This exact redraw once drove the branch and bound into a state
        # where a host's spare count hit zero mid-stack and the open branch
        # corrupted the backtracking dict.
        base = load_instance_ref("bundled:pop8")
        inst = with_uniform_vnfs(base, 10, seed=110)
        sol = two_step_place(inst, TabuParams(seed=0))
        assert check_feasibility(inst, sol).ok
