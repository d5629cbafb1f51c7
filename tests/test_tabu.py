"""Tabu search: penalty accounting, incremental scoring, move mechanics, and
the search loop, including a golden corpus of search results."""

from __future__ import annotations

import hashlib
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
    _Position,
    _propose_candidates,
    _start,
    penalty_parts,
    search,
)

from conftest import make_instance, symmetric


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


def naive_capacity(instance, head_of):
    """Domains holding more VNFs than the orchestrator capacity, one VNF at a time."""
    counts = {}
    for v in instance.vnfs:
        counts[head_of[v.location]] = counts.get(head_of[v.location], 0) + 1
    return sum(1 for c in counts.values() if c > instance.params.nfvo_capacity)


def neighbour_plan(position, cand):
    """The plan of ``position``'s neighbour ``cand``: its move applied to a
    fresh position built on the same plan."""
    fresh = _Position(position.instance, position.nfvo_at, position.head_of)
    fresh.move_to(cand)
    return fresh.plan


def check_neighbour(position, cand):
    """An incrementally scored neighbour must equal a full rescore of its plan,
    and the full rescore must equal the per-VNF restatement of the rules.
    Returns the neighbour's plan."""
    instance = position.instance
    plan = neighbour_plan(position, cand)
    full = _Position(instance, plan.nfvo_at, plan.head_of).score
    assert cand.score == full, cand.attribute
    assert full == Score(naive_penalty(instance, plan) + naive_capacity(instance, plan.head_of),
                         sum(plan.nfvo_at))
    return plan


def tables(position):
    """Everything a position keeps, for comparison with a fresh build."""
    return (position.nfvo_at, position.head_of, position.pop_terms, position.domains,
            position.domain_terms, position.active, position.score)


def random_plan(rng, n):
    return DomainPlan.make([rng.random() < 0.5 for _ in range(n)],
                           [rng.randrange(n) for _ in range(n)])


def search_plan(rng, n):
    """A plan under the search's invariant: at least one orchestrator, and
    every PoP's head among them (an active PoP may sit in another domain)."""
    nfvo_at = [rng.random() < 0.5 for _ in range(n)]
    nfvo_at[rng.randrange(n)] = True
    active = [p for p in range(n) if nfvo_at[p]]
    return DomainPlan.make(nfvo_at, [rng.choice(active) for _ in range(n)])


def heads_active(position):
    """The search's invariant: every PoP's head hosts an active orchestrator."""
    return all(position.nfvo_at[h] for h in position.head_of)


def penalty(instance, plan):
    return _Position(instance, plan.nfvo_at, plan.head_of).score.penalty


def propose(instance, samples, rng, tabu=None, iteration=0, best_score=None):
    """Neighbourhood of the all-on start, as the search's first iteration
    sees it: ``(improving, offs, same, ons)``."""
    start = _start(instance)
    return _propose_candidates(start, samples, tabu or {}, iteration,
                               best_score or start.score, rng)


def attributes(proposal):
    """Attributes of every kept neighbour of a proposal, of all three kinds."""
    _, offs, same, ons = proposal
    return {attribute for kind in (offs, same, ons) for attribute, _ in kind}


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

    def test_rejects_a_negative_or_non_integer_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TabuParams(seed=-5)
        with pytest.raises(TypeError, match="seed must be an integer"):
            TabuParams(seed="abc")
        with pytest.raises(TypeError, match="seed must be an integer"):
            TabuParams(seed=True)


class TestScoreAndMove:
    def test_score_orders_penalty_first(self):
        assert Score(0, 9) < Score(1, 1)
        assert Score(1, 2) < Score(1, 3)
        assert not Score(1, 2) < Score(1, 2)

    def test_scores_leave_the_search_as_score(self, line3):
        # A scored neighbour carries a plain tuple; the position's score after
        # a move and the best score after an improvement are Score.
        inst = generate_instance(GeneratorConfig(pop_count=12, vnf_count=30, seed=3))
        for instance in (inst, line3):
            result = search(instance, TabuParams(seed=0))
            assert type(result.best_score) is Score and result.last_improvement > 0
            position = _start(instance)
            assert type(position.score) is Score
            rng = random.Random(5)
            for _ in range(30):
                pop = rng.randrange(instance.pop_count)
                others = [p for p in position.active if p != position.head_of[pop]]
                if others and rng.random() < 0.5:
                    cand = position.reassigned(pop, rng.choice(others))
                elif position.active != [pop]:  # the sampler keeps the last orchestrator on
                    cand = position.toggled(pop)
                else:
                    continue
                position.move_to(cand)
                assert type(position.score) is Score
                assert position.score == cand.score


class TestPenalty:
    def test_initial_plan_is_all_on(self, line3):
        start = _start(line3)
        assert start.plan == DomainPlan((True, True, True), (0, 1, 2))
        assert start.score == Score(0, 3)

    def test_matches_naive_recount_on_random_plans(self):
        rng = random.Random(20240817)
        for seed in range(5):
            inst = generate_instance(GeneratorConfig(pop_count=6, vnf_count=8,
                                                     seed=seed))
            for _ in range(20):
                plan = search_plan(rng, 6)
                assert penalty(inst, plan) == (naive_penalty(inst, plan)
                                               + naive_capacity(inst, plan.head_of)), plan

    def test_capacity_overload_counts_overfull_domains(self):
        inst = make_instance([[0, 10, 20], [10, 0, 10], [20, 10, 0]],
                             vnf_locs=(0, 0, 0, 0, 0), nfvo_capacity=2)
        one_domain = DomainPlan.make([True, False, False], [0, 0, 0])
        assert penalty_parts(inst, one_domain)["capacity"] == 1
        spread = DomainPlan.make([True, False, True], [0, 0, 2])
        assert penalty_parts(inst, spread)["capacity"] == 1  # all five still at PoP 0
        scored = _Position(inst, one_domain.nfvo_at, one_domain.head_of)
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
        look_ahead = penalty_parts(inst, merged)["look-ahead"]
        assert look_ahead == naive_look_ahead(inst, merged.head_of) == 2


class TestIncrementalScore:
    def test_deactivating_a_shared_domain_matches_full_rescore(self):
        # PoP 0 heads {0, 1, 2}; switching it off sends 1 and 2 to PoP 3 and
        # PoP 0 to PoP 4, so one domain empties and two others grow.
        inst = make_instance(symmetric(5, {(0, 3): 30, (0, 4): 20, (1, 4): 40,
                                           (2, 4): 40, (3, 4): 40}),
                             vnf_locs=(0, 1, 1, 2, 3, 4))
        position = _Position(inst, [True, False, False, True, True], [0, 0, 0, 3, 4])
        cand = position.toggled(0)
        plan = check_neighbour(position, cand)
        assert plan.head_of == (4, 3, 3, 3, 4)
        position.move_to(cand)
        assert tables(position) == tables(_Position(inst, plan.nfvo_at, plan.head_of))

    def test_reassigning_the_only_server_of_a_group(self):
        # The VNFs at PoP 1 can be managed in head 0's domain from PoP 2 only:
        # PoP 0 is 50 ms from them and PoP 1 is 50 ms from the head (> 45).
        inst = make_instance(symmetric(4, {(0, 1): 50, (0, 2): 10, (0, 3): 70,
                                           (1, 2): 20, (1, 3): 70, (2, 3): 40}),
                             vnf_locs=(1, 1, 2))
        position = _Position(inst, [True, False, False, True], [0, 0, 0, 3])
        assert position.score == Score(0, 2)
        cand = position.reassigned(2, 3)
        assert cand.score == Score(2, 2)  # both VNFs at PoP 1 lose their manager host
        plan = check_neighbour(position, cand)
        position.move_to(cand)
        assert tables(position) == tables(_Position(inst, plan.nfvo_at, plan.head_of))


class TestMoves:
    def test_toggle_off_rehomes_members_to_nearest_survivor(self, line3):
        start = _start(line3)
        plan = neighbour_plan(start, start.toggled(1))
        assert plan.nfvo_at == (True, False, True)
        # PoP 1 is 10 ms from both survivors; the tie goes to the lower id.
        assert plan.head_of == (0, 0, 2)

    def test_toggle_on_self_assigns(self, line3):
        position = _Position(line3, [True, False, True], [0, 0, 2])
        plan = neighbour_plan(position, position.toggled(1))
        assert plan.nfvo_at == (True, True, True)
        assert plan.head_of == (0, 1, 2)

    def test_the_sampler_never_toggles_off_the_last_orchestrator(self, line3):
        position = _Position(line3, [False, True, False], [1, 1, 1])
        drawn = set()
        for seed in range(200):
            drawn |= attributes(_propose_candidates(position, 20, {}, 0, position.score,
                                                    random.Random(seed)))
        # PoP 1, the last orchestrator, stays on, and no PoP has another head to join.
        assert drawn == {("toggle", 0), ("toggle", 2)}

    def test_kind_frequencies_are_balanced(self, two_clusters):
        _, offs, same, ons = propose(two_clusters, 10_000, random.Random(99))
        kept = len(offs) + len(same) + len(ons)
        assert kept == 10_000  # nothing discarded from the all-on plan
        assert all(a[0] == "toggle" for kind in (offs, ons) for a, _ in kind)
        assert all(a[0] == "reassign" for a, _ in same)
        toggles = len(offs) + len(ons)
        assert abs(toggles / kept - 0.5) < 0.02

    def test_reassign_targets_are_active_and_different(self, two_clusters):
        start = _start(two_clusters)
        _, _, same, _ = propose(two_clusters, 500, random.Random(7))
        assert same
        for attribute, cand in same:
            kind, pop, new_head = attribute
            assert kind == "reassign"
            assert start.head_of[pop] != new_head
            assert start.nfvo_at[new_head]
            # An unscored neighbour is scored first, as the search does when it picks one.
            plan = neighbour_plan(start, cand or start.neighbour(attribute))
            assert plan.head_of[pop] == new_head

    def test_tabu_filter_and_aspiration(self, line3):
        tabu = {("toggle", 0): 10}  # tabu until iteration 10
        # Score(0, 1) is unbeatable: no aspiration possible.
        kinds = attributes(propose(line3, 2000, random.Random(0), tabu, 1, Score(0, 1)))
        assert ("toggle", 0) not in kinds

        # Now anything aspires past the list.
        kinds = attributes(propose(line3, 2000, random.Random(0), tabu, 1, Score(99, 99)))
        assert ("toggle", 0) in kinds

    def test_is_tabu_expiry(self, line3):
        tabu = {("toggle", 2): 5}

        def kinds(iteration):
            return attributes(propose(line3, 500, random.Random(3), tabu, iteration,
                                      Score(0, 1)))
        assert ("toggle", 2) not in kinds(5)
        assert ("toggle", 2) in kinds(6)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_getrandbits_draws_equal_randrange(self, seed):
        # _propose_candidates draws its integers straight from getrandbits by
        # randrange's rejection rule, so the recorded searches rest on the two
        # giving the same integers and leaving the generator in the same state.
        mix = random.Random(seed)
        sizes = list(range(1, 301)) + [mix.randint(1, 300) for _ in range(3000)]
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in sizes:
            if mix.random() < 0.5:  # interleaved as the search interleaves random()
                assert ours.random() == theirs.random()
            k = n.bit_length()
            r = ours.getrandbits(k)
            while r >= n:
                r = ours.getrandbits(k)
            assert r == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate()


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
        # The split the error carries adds up to the score the search reached.
        assert err.value.best_penalty == search(hopeless, TabuParams(seed=0)).best_score.penalty
        assert err.value.best_penalty >= 1


# Search results recorded before scoring became incremental, on generated
# instances (V = 3.75 P): (pops, vnfs, instance seed, search seed, active
# PoPs as 0/1, head map, best score, iterations, last improvement). The
# P = 64 rows, the benchmark's size, were recorded before neighbours were
# scored from their moves alone, and the P = 128 rows, whose search walks a
# long tail below the orchestrator floor, before that tail went unscored;
# the head map of both is ``head_digest``'s.
GOLDEN = [
    (8, 30, 1, 0, "00000110", (6, 6, 6, 5, 5, 5, 6, 6), (0, 2), 38, 6),
    (8, 30, 1, 1, "01000001", (1, 1, 7, 7, 7, 7, 1, 7), (0, 2), 38, 6),
    (8, 30, 2, 0, "00000110", (5, 5, 6, 5, 6, 5, 6, 6), (0, 2), 38, 6),
    (8, 30, 2, 1, "01000001", (1, 1, 7, 7, 7, 1, 1, 7), (0, 2), 40, 8),
    (16, 60, 1, 0, "1001000110000000",
     (0, 0, 7, 3, 3, 3, 0, 7, 8, 8, 3, 0, 3, 7, 0, 7), (0, 4), 76, 12),
    (16, 60, 1, 1, "0001100100010000",
     (11, 11, 7, 3, 4, 3, 11, 7, 7, 7, 3, 11, 3, 4, 11, 4), (0, 4), 76, 12),
    (16, 60, 2, 0, "1001001110000010",
     (0, 0, 6, 3, 7, 0, 6, 7, 8, 0, 7, 8, 6, 6, 14, 6), (0, 6), 74, 10),
    (16, 60, 2, 1, "0100100110100000",
     (10, 1, 7, 10, 4, 1, 7, 7, 8, 10, 10, 8, 4, 7, 10, 4), (0, 5), 75, 11),
    (32, 120, 1, 0, "01011010100100010000000100000000",
     (11, 1, 4, 3, 4, 3, 6, 8, 8, 8, 3, 11, 3, 15, 1, 15,
      23, 11, 8, 15, 23, 15, 3, 23, 1, 23, 6, 8, 23, 3, 4, 23), (0, 8), 153, 25),
    (32, 120, 1, 1, "00001001100000000001000011101111",
     (25, 24, 7, 29, 4, 29, 26, 7, 8, 8, 29, 25, 28, 19, 26, 19,
      25, 25, 8, 19, 25, 19, 29, 31, 24, 25, 26, 30, 28, 29, 30, 31), (0, 11), 149, 21),
    (32, 120, 2, 0, "01011000000100010101000100001001",
     (3, 1, 28, 3, 4, 31, 4, 4, 11, 23, 4, 11, 15, 17, 3, 15,
      28, 17, 28, 19, 11, 19, 17, 23, 3, 17, 11, 15, 28, 23, 3, 31), (0, 10), 151, 23),
    (32, 120, 2, 1, "00001000100010000010000110001100",
     (29, 23, 28, 24, 4, 23, 18, 18, 8, 29, 4, 28, 12, 18, 24, 12,
      28, 23, 18, 8, 8, 8, 23, 23, 24, 18, 8, 12, 28, 29, 24, 23), (0, 8), 153, 25),
    (64, 240, 1, 0,
     "0111000110000001000011010010010000010001000101001000000100001001",
     "3a9a3e04173b1c4b", (0, 19), 301, 45),
    (64, 240, 1, 1,
     "0011010001000001000100000010000100010010000001010100010010001100",
     "81271c452872a165", (0, 17), 303, 47),
    (64, 240, 2, 0,
     "0010000011100010000000100010100010101000000010010000000010101001",
     "39189cfaa21cd083", (0, 17), 303, 47),
    (64, 240, 2, 1,
     "0011010100011000000001010010000000110001000001000100010000000100",
     "883b06d43398b370", (0, 16), 304, 48),
    (128, 480, 1, 0,
     "1000100000000011000001100010010010100010000000010001001011000101"
     "1000100011000000000000100000001011100001000000001000010000001001",
     "263f3b4feda239a4", (0, 32), 608, 96),
    (128, 480, 2, 0,
     "1000000000000010001100100001110010000100010010000111001000001001"
     "0001100000000010000001010001000101000010000100011000000010000000",
     "ff1144ef3ee00de7", (0, 31), 609, 97),
]


def head_digest(head_of):
    """A head map as the first 16 hex digits of the sha256 of its repr."""
    return hashlib.sha256(repr(head_of).encode()).hexdigest()[:16]


@pytest.mark.parametrize("pops, vnfs, instance_seed, seed, active, head_of, score, "
                         "iterations, last_improvement", GOLDEN,
                         ids=[f"p{g[0]}-i{g[2]}-s{g[3]}" for g in GOLDEN])
def test_golden_search_results(pops, vnfs, instance_seed, seed, active, head_of, score,
                               iterations, last_improvement):
    inst = generate_instance(GeneratorConfig(pop_count=pops, vnf_count=vnfs,
                                             seed=instance_seed))
    result = search(inst, TabuParams(seed=seed))
    plan = result.best_plan
    heads = head_digest(plan.head_of) if isinstance(head_of, str) else plan.head_of
    assert (plan.nfvo_at, heads) == (tuple(c == "1" for c in active), head_of)
    assert result.best_score == Score(*score)
    assert (result.iterations, result.last_improvement) == (iterations, last_improvement)
