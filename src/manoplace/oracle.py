"""Exact reference solver.

Enumerates orchestrator subsets in increasing cardinality and, for each,
every capacity- and delay-respecting assignment of PoPs to heads. Domain
masks kept as PoPs join and leave let each complete assignment be tested
with the search's domain rule; plans that pass get their domains solved
exactly by the manager placer. Because subsets are visited smallest-first
and any plan with k orchestrators costs at least k plus a floor on the
managers, the search can stop early with a proved optimum. On ties the
first solution in enumeration order (increasing cardinality, then
lexicographic subsets and assignments) is kept, which makes results
reproducible.

Once the incumbent is no more than k plus the floor of the whole VNF count
over the manager capacity, no assignment with k orchestrators can beat it.
From then on the walk stops descending: each node it reaches, a subset's
root or a node in the rest of the current subset, ticks its capacity-fitting
completions, from a forward count over the remaining PoPs. Node counts and
budget outcomes are those of the full walk, whether the incumbent drops
before a subset or inside one. A domain that recurs across assignments is
placed once per solve, keyed by its head and members.

Intended for desk-scale instances: on 280 generated ten-PoP instances with
10 to 40 VNFs (40 topologies, VNFs redrawn as a sweep does) it proved
optimality in a median of about 4 ms of CPU and at most 0.4 s (a 2-vCPU
Xeon VM, Python 3.11.7); its cost grows steeply with the PoP count.
The budget turns runaway searches into a reported ``BUDGET_EXCEEDED``
instead of a hang: either limit raises ``TimeoutError``, and so does the
manager placer's own clock check. The node budget counts enumeration nodes
only (subsets and complete assignments, walked or counted); the time limit
also covers the per-domain manager search.
``INFEASIBLE`` is only ever reported after the whole space has been
enumerated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator

from .model import DomainPlan, Solution, VnfmAssignment
from .tabu import _domain_term
from .topology import ProblemInstance, check_type
from .vnfm import domains_of, place_domain


class OracleStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 1_000_000
    time_limit_s: float = 60.0

    def __post_init__(self):
        check_type("max_nodes", self.max_nodes, int)
        check_type("time_limit_s", self.time_limit_s, float)
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if not self.time_limit_s > 0:  # NaN fails too
            raise ValueError("time_limit_s must be > 0")


@dataclass(frozen=True)
class OracleResult:
    status: OracleStatus
    solution: Solution | None
    objective: int | None
    nodes_explored: int


class _Ticker:
    def __init__(self, budget: OracleBudget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.time_limit_s

    def tick(self, count: int = 1) -> None:
        """Count ``count`` nodes at once; past the budget, stop where ticking
        them one at a time would have."""
        self.nodes += count
        if self.nodes > self.max_nodes:
            self.nodes = self.max_nodes + 1
            raise TimeoutError
        if time.monotonic() > self.deadline:
            raise TimeoutError


def _feasible_assignments(instance: ProblemInstance, heads: tuple[int, ...], tick,
                          beaten) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield complete head assignments for this orchestrator subset, in
    lexicographic order, honouring the VIM delay bound, domain capacity and
    the search's domain rule, each with a floor on its manager count: the sum
    over its domains of the VNF count over the manager capacity, rounded up.
    ``tick(count)`` is told of every complete assignment within the delay bound
    and capacity, whatever the domain rule. Once ``beaten()`` holds, no
    assignment can beat the incumbent: each node the walk then reaches ticks
    its capacity-fitting completions instead of walking them. Per head, the
    search's masks ``(located, once)`` grow as PoPs join and are restored on
    backtrack."""
    n = instance.pop_count
    d = instance.delays
    big_psi = instance.params.nfvo_vim_delay_bound
    cap = instance.params.nfvo_capacity
    vnfm_cap = instance.params.vnfm_capacity
    at = instance.vnfs_at
    served = instance.vnfs_served

    masks = [(at[p], served[p][p]) for p in heads]
    if any(located.bit_count() > cap for located, _ in masks):
        return
    nonheads = [q for q in range(n) if q not in heads]
    candidates: dict[int, list[tuple[int, int]]] = {}
    for q in nonheads:
        cs = [(j, p) for j, p in enumerate(heads) if d[p][q] <= big_psi]
        if not cs:
            return
        candidates[q] = cs

    head_of = list(range(n))

    def fitting(i: int) -> int:
        """Completions of ``nonheads[i:]`` within capacity: a forward count
        from each tuple of per-head VNF counts to its number of partial
        assignments, reading the clock through ``tick(0)`` per non-head."""
        ways = {tuple(located.bit_count() for located, _ in masks): 1}
        for q in nonheads[i:]:
            tick(0)
            size = at[q].bit_count()
            grown: dict[tuple[int, ...], int] = {}
            for counts, w in ways.items():
                for j, _ in candidates[q]:
                    c = counts[j] + size
                    if c <= cap:
                        key = counts[:j] + (c,) + counts[j + 1:]
                        grown[key] = grown.get(key, 0) + w
            ways = grown
        return sum(ways.values())

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if beaten():
            tick(fitting(i))
            return
        if i == len(nonheads):
            tick(1)
            if not any(_domain_term(instance, *m) for m in masks):
                yield tuple(head_of), sum(math.ceil(located.bit_count() / vnfm_cap)
                                          for located, _ in masks)
            return
        q = nonheads[i]
        for j, p in candidates[q]:
            located, once = saved = masks[j]
            located |= at[q]
            if located.bit_count() > cap:
                continue
            masks[j] = located, once | served[p][q]
            head_of[q] = p
            yield from rec(i + 1)
            masks[j] = saved

    try:
        yield from rec(0)
    finally:
        del rec  # it refers to itself: left alone, the pair is cyclic garbage


def solve_exact(instance: ProblemInstance,
                budget: OracleBudget | None = None) -> OracleResult:
    """Provably optimal solution, within the given search budget."""
    budget = budget or OracleBudget()
    ticker = _Ticker(budget)
    params = instance.params
    d = instance.delays
    gso = params.gso_location
    n = instance.pop_count
    head_candidates = [p for p in range(n)
                       if d[gso][p] <= params.gso_nfvo_delay_bound]
    vnfm_floor = math.ceil(instance.vnf_count / params.vnfm_capacity)

    best_objective: int | None = None
    best_solution: Solution | None = None
    # A domain's placement depends on its head and members alone.
    placed: dict[tuple[int, int], tuple[VnfmAssignment, ...]] = {}

    def beaten() -> bool:
        # Every assignment's floor is at least vnfm_floor.
        return best_objective is not None and k + vnfm_floor >= best_objective

    try:
        for k in range(1, n + 1):
            if beaten():
                break  # no larger subset can beat the incumbent: proved optimal
            for heads in combinations(head_candidates, k):
                ticker.tick()
                for head_of, per_domain_floor in _feasible_assignments(instance, heads,
                                                                       ticker.tick, beaten):
                    if best_objective is not None and k + per_domain_floor >= best_objective:
                        continue
                    plan = DomainPlan(tuple(p in heads for p in range(n)), head_of)
                    vnfms = []
                    for domain in domains_of(instance, plan):
                        key = domain.head, domain.members
                        if key not in placed:
                            placed[key] = place_domain(instance, domain, ticker.deadline)
                        vnfms += placed[key]
                    total = k + len(vnfms)
                    if best_objective is None or total < best_objective:
                        best_objective = total
                        best_solution = Solution(plan, tuple(vnfms))
    except TimeoutError:
        return OracleResult(OracleStatus.BUDGET_EXCEEDED, best_solution,
                            best_objective, ticker.nodes)

    if best_solution is None:
        return OracleResult(OracleStatus.INFEASIBLE, None, None, ticker.nodes)
    return OracleResult(OracleStatus.OPTIMAL, best_solution, best_objective,
                        ticker.nodes)
