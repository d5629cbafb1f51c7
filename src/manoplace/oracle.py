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

Intended for desk-scale instances: on 280 generated ten-PoP instances with
10 to 40 VNFs it proved optimality in a median of 20 ms and at most 1.3 s
(a 2-vCPU Xeon VM); its cost grows steeply with the PoP count. The budget
turns runaway searches into a reported ``BUDGET_EXCEEDED`` instead of a
hang: either limit raises ``TimeoutError``, and so does the manager
placer's own clock check. The node budget counts enumeration nodes only
(subsets and complete assignments); the time limit also covers the
per-domain manager search.
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

from .model import DomainPlan, Solution
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

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes or time.monotonic() > self.deadline:
            raise TimeoutError


def _feasible_assignments(instance: ProblemInstance, heads: tuple[int, ...],
                          tick) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield complete head assignments for this orchestrator subset, in
    lexicographic order, honouring the VIM delay bound, domain capacity and
    the search's domain rule, each with a floor on its manager count: the sum
    over its domains of the VNF count over the manager capacity, rounded up.
    ``tick`` is called once per complete assignment. Per head, the search's
    masks ``(located, once)`` grow as PoPs join and are restored on backtrack."""
    n = instance.pop_count
    d = instance.delays
    big_psi = instance.params.nfvo_vim_delay_bound
    cap = instance.params.nfvo_capacity
    vnfm_cap = instance.params.vnfm_capacity
    at = instance.vnfs_at
    served = instance.vnfs_served

    masks = {p: (at[p], served[p][p]) for p in heads}
    if any(located.bit_count() > cap for located, _ in masks.values()):
        return
    nonheads = [q for q in range(n) if q not in masks]
    candidates: dict[int, list[int]] = {}
    for q in nonheads:
        cs = [p for p in heads if d[p][q] <= big_psi]
        if not cs:
            return
        candidates[q] = cs

    head_of = list(range(n))

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if i == len(nonheads):
            tick()
            if not any(_domain_term(instance, *m) for m in masks.values()):
                yield tuple(head_of), sum(math.ceil(located.bit_count() / vnfm_cap)
                                          for located, _ in masks.values())
            return
        q = nonheads[i]
        for p in candidates[q]:
            located, once = saved = masks[p]
            located |= at[q]
            if located.bit_count() > cap:
                continue
            masks[p] = located, once | served[p][q]
            head_of[q] = p
            yield from rec(i + 1)
            masks[p] = saved

    yield from rec(0)


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

    try:
        for k in range(1, n + 1):
            if best_objective is not None and k + vnfm_floor >= best_objective:
                break  # no larger subset can beat the incumbent: proved optimal
            for heads in combinations(head_candidates, k):
                ticker.tick()
                for head_of, per_domain_floor in _feasible_assignments(instance, heads,
                                                                       ticker.tick):
                    if best_objective is not None and k + per_domain_floor >= best_objective:
                        continue
                    plan = DomainPlan(tuple(p in heads for p in range(n)), head_of)
                    vnfms = tuple(m for domain in domains_of(instance, plan)
                                  for m in place_domain(instance, domain, ticker.deadline))
                    total = k + len(vnfms)
                    if best_objective is None or total < best_objective:
                        best_objective = total
                        best_solution = Solution(plan, vnfms)
    except TimeoutError:
        return OracleResult(OracleStatus.BUDGET_EXCEEDED, best_solution,
                            best_objective, ticker.nodes)

    if best_solution is None:
        return OracleResult(OracleStatus.INFEASIBLE, None, None, ticker.nodes)
    return OracleResult(OracleStatus.OPTIMAL, best_solution, best_objective,
                        ticker.nodes)
