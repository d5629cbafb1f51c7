"""Tabu search for the orchestrator layer of the placement problem.

The search walks over domain plans, starting from one orchestrator at every
PoP, and minimises the number of orchestrators while driving a penalty to
zero. The penalty counts broken placement rules at unit weight: heads that
are not active orchestrators, activation/self-heading mismatches,
orchestrators out of the GSO's reach, PoPs out of their head's reach, and,
as a look-ahead for the manager step, VNFs whose domain offers no PoP
satisfying both manager delay bounds. Domains holding more VNFs than the
orchestrator capacity are penalised as well, because no later step can
repair an overfull domain.

Two move kinds are sampled uniformly: toggling a PoP's orchestrator
(deactivating one re-homes its member PoPs to their nearest surviving
orchestrator) and reassigning a single PoP to a different active
orchestrator. Moves whose attribute was used recently are tabu unless the
result would beat the best plan seen so far. Each iteration accepts the
best-scoring sampled neighbour if it improves on the best-found score and
otherwise the sampled neighbour with the fewest orchestrators, letting the
walk oscillate across the feasibility boundary instead of stalling. The
search stops after ``stop_patience`` consecutive iterations without
improving the best-found score.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from .model import DomainPlan
from .topology import ProblemInstance


@dataclass(frozen=True)
class TabuParams:
    """Search knobs; unset values resolve from the instance size.

    ``stop_patience`` defaults to 4x the PoP count, ``tabu_tenure`` to half
    the PoP count (rounded up) and ``neighborhood_samples`` to the PoP count
    but at least 10.
    """

    stop_patience: int | None = None
    tabu_tenure: int | None = None
    neighborhood_samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("stop_patience", "tabu_tenure", "neighborhood_samples"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")

    def resolved(self, pop_count: int) -> tuple[int, int, int]:
        patience = self.stop_patience if self.stop_patience is not None else 4 * pop_count
        tenure = self.tabu_tenure if self.tabu_tenure is not None else math.ceil(pop_count / 2)
        samples = (self.neighborhood_samples if self.neighborhood_samples is not None
                   else max(10, pop_count))
        return patience, tenure, samples


@dataclass(frozen=True, order=True)
class Score:
    """Lexicographic search score: penalty first, then orchestrator count."""

    penalty: int
    nfvo_count: int


def unreachable_vnf_groups(instance: ProblemInstance, head_of) -> Iterator[int]:
    """Yield the VNF count of every VNF group whose domain offers no PoP within
    both manager delay bounds: no later step can give those VNFs a manager."""
    d = instance.delays
    n = instance.pop_count
    for loc, w, big_w, cnt in instance.vnf_groups:
        head = head_of[loc]
        drow = d[loc]
        for pp in range(n):
            if head_of[pp] == head and drow[pp] <= w and d[pp][head] <= big_w:
                break
        else:
            yield cnt


def _relaxed_penalty(instance: ProblemInstance, nfvo_at, head_of) -> int:
    d = instance.delays
    params = instance.params
    n = instance.pop_count
    pen = 0
    for q in range(n):
        if not nfvo_at[head_of[q]]:  # head is not an active orchestrator
            pen += 1
    for p in range(n):
        if (head_of[p] == p) != nfvo_at[p]:  # activation vs self-heading mismatch
            pen += 1
    gso_row = d[params.gso_location]
    psi = params.gso_nfvo_delay_bound
    for p in range(n):
        if nfvo_at[p] and gso_row[p] > psi:
            pen += 1
    big_psi = params.nfvo_vim_delay_bound
    for q in range(n):
        if d[head_of[q]][q] > big_psi:
            pen += 1
    return pen + sum(unreachable_vnf_groups(instance, head_of))


def _capacity_overload(instance: ProblemInstance, head_of) -> int:
    """Number of domains holding more VNFs than the orchestrator capacity."""
    cap = instance.params.nfvo_capacity
    counts = [0] * instance.pop_count
    for loc in instance.vnf_locations:
        counts[head_of[loc]] += 1
    return sum(1 for c in counts if c > cap)


@dataclass(frozen=True)
class _Candidate:
    """A plan the search can stand on; ``attribute`` is what the tabu list
    remembers of the move that produced it: ``("toggle", pop)`` or
    ``("reassign", pop, new_head)``."""

    attribute: tuple
    nfvo_at: tuple[bool, ...]
    head_of: tuple[int, ...]
    score: Score


def _candidate(instance: ProblemInstance, attribute: tuple, nfvo_at, head_of) -> _Candidate:
    """Score a plan: penalty (reachability rules plus overfull domains), then size."""
    pen = (_relaxed_penalty(instance, nfvo_at, head_of)
           + _capacity_overload(instance, head_of))
    return _Candidate(attribute, tuple(nfvo_at), tuple(head_of), Score(pen, sum(nfvo_at)))


def _start(instance: ProblemInstance) -> _Candidate:
    """The all-on starting point: every PoP hosts an orchestrator and heads itself."""
    n = instance.pop_count
    return _candidate(instance, (), [True] * n, list(range(n)))


def _apply_toggle(instance: ProblemInstance, nfvo_at, head_of, pop):
    """Result of toggling ``pop``; None when it would remove the last orchestrator."""
    n = instance.pop_count
    d = instance.delays
    new_nfvo = list(nfvo_at)
    new_head = list(head_of)
    if nfvo_at[pop]:
        remaining = [c for c in range(n) if nfvo_at[c] and c != pop]
        if not remaining:
            return None
        new_nfvo[pop] = False
        for q in range(n):
            if head_of[q] == pop:
                # Re-home orphaned members to the nearest surviving
                # orchestrator (ties on the lowest PoP id).
                best = remaining[0]
                best_d = d[q][best]
                for c in remaining[1:]:
                    if d[q][c] < best_d:
                        best, best_d = c, d[q][c]
                new_head[q] = best
    else:
        new_nfvo[pop] = True
        new_head[pop] = pop
    return new_nfvo, new_head


def _propose_candidates(instance: ProblemInstance, current: _Candidate, samples: int,
                        tabu: dict[tuple, int], iteration: int, best_score: Score,
                        rng: random.Random) -> list[_Candidate]:
    """Sample the tabu-filtered neighbourhood of ``current``.

    A move stays tabu while its attribute's entry in ``tabu`` is at least
    ``iteration``, unless its result would beat ``best_score`` (aspiration).
    """
    n = instance.pop_count
    nfvo_at = current.nfvo_at
    head_of = current.head_of
    out: list[_Candidate] = []
    for _ in range(samples):
        if rng.random() < 0.5:
            pop = rng.randrange(n)
            attribute = ("toggle", pop)
            applied = _apply_toggle(instance, nfvo_at, head_of, pop)
            if applied is None:
                continue
            new_nfvo, new_head = applied
        else:
            pop = rng.randrange(n)
            targets = [c for c in range(n) if nfvo_at[c] and c != head_of[pop]]
            if not targets:
                continue
            target = targets[rng.randrange(len(targets))]
            attribute = ("reassign", pop, target)
            new_nfvo = nfvo_at
            new_head = list(head_of)
            new_head[pop] = target
        cand = _candidate(instance, attribute, new_nfvo, new_head)
        if tabu.get(attribute, -1) >= iteration and not cand.score < best_score:
            continue  # tabu, and not good enough for aspiration
        out.append(cand)
    return out


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search run: best plan found plus iteration accounting."""

    best_plan: DomainPlan
    best_score: Score
    iterations: int
    last_improvement: int
    stop_patience: int

    @property
    def feasible(self) -> bool:
        return self.best_score.penalty == 0

    @property
    def plan(self) -> DomainPlan | None:
        return self.best_plan if self.feasible else None


def search(instance: ProblemInstance, params: TabuParams | None = None) -> SearchResult:
    """Run the tabu search to completion and report the best plan found."""
    params = params or TabuParams()
    patience, tenure, samples = params.resolved(instance.pop_count)
    rng = random.Random(params.seed)
    current = best = _start(instance)
    tabu: dict[tuple, int] = {}
    iteration = no_improvement = last_improvement = 0

    while no_improvement < patience:
        iteration += 1
        candidates = _propose_candidates(instance, current, samples, tabu, iteration,
                                         best.score, rng)
        if not candidates:
            no_improvement += 1
            continue

        best_score = min(c.score for c in candidates)
        if best_score < best.score:
            tied = [c for c in candidates if c.score == best_score]
        else:
            # No sampled neighbour improves on the best found: take the one
            # with the fewest orchestrators, feasible or not, and keep moving.
            min_nfvo = min(c.score.nfvo_count for c in candidates)
            tied = [c for c in candidates if c.score.nfvo_count == min_nfvo]
        current = tied[rng.randrange(len(tied))]
        tabu[current.attribute] = iteration + tenure

        if current.score < best.score:
            best = current
            no_improvement = 0
            last_improvement = iteration
        else:
            no_improvement += 1

    return SearchResult(DomainPlan(best.nfvo_at, best.head_of), best.score, iteration,
                        last_improvement, patience)
