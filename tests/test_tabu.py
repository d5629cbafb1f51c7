"""Tabu search: penalty accounting, move mechanics, and the search loop."""

from __future__ import annotations

import random

import pytest

from manoplace import (
    GeneratorConfig,
    NoFeasiblePlan,
    TabuParams,
    generate_instance,
    two_step_place_detailed,
)
from manoplace.model import DomainPlan
from manoplace.tabu import (
    Score,
    _apply_toggle,
    _candidate,
    _capacity_overload,
    _propose_candidates,
    _relaxed_penalty,
    _start,
    search,
)

from conftest import make_instance


def naive_look_ahead(instance, head_of):
    """VNFs whose domain offers no PoP within both manager bounds, one VNF at a time."""
    d = instance.delays
    pen = 0
    for v in instance.vnfs:
        head = head_of[v.location]
        if not any(head_of[p] == head
                   and d[v.location][p] <= v.vnfm_delay_bound
                   and d[p][head] <= v.nfvo_vnfm_delay_bound
                   for p in range(instance.pop_count)):
            pen += 1
    return pen


def naive_penalty(instance, plan):
    """Straight-line re-statement of the penalty rules, per VNF, no grouping."""
    d = instance.delays
    par = instance.params
    n = instance.pop_count
    pen = 0
    for q in range(n):
        if not plan.nfvo_at[plan.head_of[q]]:
            pen += 1
    for p in range(n):
        if (plan.head_of[p] == p) != plan.nfvo_at[p]:
            pen += 1
    for p in range(n):
        if plan.nfvo_at[p] and d[par.gso_location][p] > par.gso_nfvo_delay_bound:
            pen += 1
    for q in range(n):
        if d[plan.head_of[q]][q] > par.nfvo_vim_delay_bound:
            pen += 1
    return pen + naive_look_ahead(instance, plan.head_of)


def random_plan(rng, n):
    return DomainPlan.make([rng.random() < 0.5 for _ in range(n)],
                           [rng.randrange(n) for _ in range(n)])


def penalty(instance, plan):
    return _relaxed_penalty(instance, plan.nfvo_at, plan.head_of)


def propose(instance, samples, rng, tabu=None, iteration=0, best_score=None):
    """Neighbourhood of the all-on start, as the search's first iteration sees it."""
    start = _start(instance)
    return _propose_candidates(instance, start, samples, tabu or {}, iteration,
                               best_score or start.score, rng)


class TestParams:
    def test_resolved_defaults(self):
        assert TabuParams().resolved(7) == (28, 4, 10)
        assert TabuParams().resolved(16) == (64, 8, 16)

    def test_explicit_values_win(self):
        p = TabuParams(stop_patience=5, tabu_tenure=2, neighborhood_samples=3)
        assert p.resolved(100) == (5, 2, 3)

    @pytest.mark.parametrize("kwargs", [
        {"stop_patience": 0}, {"tabu_tenure": 0}, {"neighborhood_samples": -1},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            TabuParams(**kwargs)


class TestScoreAndMove:
    def test_score_orders_penalty_first(self):
        assert Score(0, 9) < Score(1, 1)
        assert Score(1, 2) < Score(1, 3)
        assert not Score(1, 2) < Score(1, 2)


class TestPenalty:
    def test_initial_plan_is_all_on(self, line3):
        start = _start(line3)
        assert start.nfvo_at == (True, True, True)
        assert start.head_of == (0, 1, 2)
        assert start.score == Score(0, 3)

    def test_matches_naive_recount_on_random_plans(self):
        rng = random.Random(20240817)
        for seed in range(5):
            inst = generate_instance(GeneratorConfig(pop_count=6, vnf_count=8,
                                                     seed=seed))
            for _ in range(20):
                plan = random_plan(rng, 6)
                assert penalty(inst, plan) == naive_penalty(inst, plan), plan

    def test_capacity_overload_counts_overfull_domains(self):
        inst = make_instance([[0, 10, 20], [10, 0, 10], [20, 10, 0]],
                             vnf_locs=(0, 0, 0, 0, 0), nfvo_capacity=2)
        one_domain = DomainPlan.make([True, False, False], [0, 0, 0])
        assert _capacity_overload(inst, one_domain.head_of) == 1
        spread = DomainPlan.make([True, False, True], [0, 0, 2])
        assert _capacity_overload(inst, spread.head_of) == 1  # all five still at PoP 0
        scored = _candidate(inst, (), one_domain.nfvo_at, one_domain.head_of)
        assert scored.score == Score(1, 1)

    def test_look_ahead_counts_unmanageable_vnfs(self):
        # One isolated PoP 80 ms away: its VNF cannot reach a manager PoP
        # within 30 ms anywhere in a merged domain, except PoP 2 itself.
        inst = make_instance(
            [[0, 10, 80], [10, 0, 80], [80, 80, 0]], vnf_locs=(2, 2))
        merged = DomainPlan.make([True, False, False], [0, 0, 0])
        # Both VNFs at PoP 2 have no in-domain PoP within 30 ms of them
        # other than PoP 2, whose delay to head 0 is 80 > 45.
        assert penalty(inst, merged) - naive_penalty(inst, merged) == 0
        base = DomainPlan.make([True, False, True], [0, 0, 2])
        assert penalty(inst, base) == 0
        assert penalty(inst, merged) >= 2


class TestMoves:
    def test_toggle_off_rehomes_members_to_nearest_survivor(self, line3):
        start = _start(line3)
        applied = _apply_toggle(line3, start.nfvo_at, start.head_of, 1)
        assert applied is not None
        nfvo_at, head_of = applied
        assert nfvo_at == [True, False, True]
        # PoP 1 is 10 ms from both survivors; the tie goes to the lower id.
        assert head_of == [0, 0, 2]

    def test_toggle_on_self_assigns(self, line3):
        applied = _apply_toggle(line3, [True, False, True], [0, 0, 2], 1)
        nfvo_at, head_of = applied
        assert nfvo_at == [True, True, True]
        assert head_of == [0, 1, 2]

    def test_last_orchestrator_cannot_be_toggled_off(self, line3):
        assert _apply_toggle(line3, [False, True, False], [1, 1, 1], 1) is None

    def test_kind_frequencies_are_balanced(self, two_clusters):
        cands = propose(two_clusters, 10_000, random.Random(99))
        assert len(cands) == 10_000  # nothing discarded from the all-on plan
        toggles = sum(1 for c in cands if c.attribute[0] == "toggle")
        assert abs(toggles / len(cands) - 0.5) < 0.02

    def test_reassign_targets_are_active_and_different(self, two_clusters):
        start = _start(two_clusters)
        for c in propose(two_clusters, 500, random.Random(7)):
            if c.attribute[0] == "reassign":
                _, pop, new_head = c.attribute
                assert start.head_of[pop] != new_head
                assert start.nfvo_at[new_head]
                assert c.head_of[pop] == new_head

    def test_tabu_filter_and_aspiration(self, line3):
        tabu = {("toggle", 0): 10}  # tabu until iteration 10
        # Score(0, 1) is unbeatable: no aspiration possible.
        kinds = {c.attribute for c in propose(line3, 2000, random.Random(0), tabu, 1,
                                               Score(0, 1))}
        assert ("toggle", 0) not in kinds

        # Now anything aspires past the list.
        kinds = {c.attribute for c in propose(line3, 2000, random.Random(0), tabu, 1,
                                               Score(99, 99))}
        assert ("toggle", 0) in kinds

    def test_is_tabu_expiry(self, line3):
        tabu = {("toggle", 2): 5}

        def kinds(iteration):
            return {c.attribute for c in propose(line3, 500, random.Random(3), tabu,
                                                 iteration, Score(0, 1))}
        assert ("toggle", 2) not in kinds(5)
        assert ("toggle", 2) in kinds(6)


class TestSearch:
    def test_deterministic_per_seed(self, two_clusters):
        a = search(two_clusters, TabuParams(seed=5))
        b = search(two_clusters, TabuParams(seed=5))
        assert a == b

    def test_finds_single_orchestrator_on_line(self, line3):
        result = search(line3, TabuParams(seed=0))
        assert result.feasible
        assert result.best_score.nfvo_count == 1

    def test_forced_split_yields_two_orchestrators(self, four_pop_clusters):
        for seed in range(5):
            result = search(four_pop_clusters, TabuParams(seed=seed))
            assert result.feasible
            assert result.best_score.nfvo_count == 2

    def test_stop_accounting(self):
        for seed in range(4):
            inst = generate_instance(GeneratorConfig(pop_count=7, vnf_count=9,
                                                     seed=seed))
            result = search(inst, TabuParams(seed=seed))
            assert result.stop_patience == 28
            assert result.iterations - result.last_improvement == 28

    def test_two_step_returns_plan_or_raises_no_feasible_plan(self, line3):
        result = two_step_place_detailed(line3, TabuParams(seed=0))
        assert penalty(line3, result.solution.plan) == 0

        hopeless = make_instance([[0, 200], [200, 0]], vnf_locs=(1,))
        with pytest.raises(NoFeasiblePlan) as err:
            two_step_place_detailed(hopeless, TabuParams(seed=0))
        assert err.value.best_penalty >= 1
