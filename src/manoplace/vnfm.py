"""Manager placement inside each domain, and the two-step pipeline.

Once the orchestrator layer has fixed the domains, each domain is solved on
its own: pick PoPs for the managers and split the domain's VNFs among them
so that every VNF sits within its own delay bound of its manager and every
manager sits within the VNF's orchestrator bound of the domain head. That
is a capacitated covering problem; domains up to ``EXACT_THRESHOLD`` VNFs
are solved exactly by branch and bound, larger ones by a covering greedy.
A feasible plan's domains hold at most the orchestrator capacity of VNFs,
so the greedy runs only when that capacity is above the threshold.

``two_step_place`` chains the orchestrator search and the per-domain
manager placement into a full solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleDomain, NoFeasiblePlan
from .model import DomainPlan, Solution, VnfmAssignment
from .tabu import SearchResult, TabuParams, _bits, _domain, _members, penalty_parts, search
from .topology import ProblemInstance

EXACT_THRESHOLD = 20


@dataclass(frozen=True)
class DomainView:
    """One domain: its head, the VNFs located on its member PoPs and, per VNF,
    the member PoPs that can host its manager."""

    head: int
    vnf_ids: tuple[int, ...]
    hosts: tuple[frozenset[int], ...]


def domains_of(instance: ProblemInstance, plan: DomainPlan) -> tuple[DomainView, ...]:
    """The plan's domains in ascending head order.

    A member PoP can host a VNF's manager when it is within the VNF's own
    delay bound of the VNF's location and within the VNF's orchestrator bound
    of the head; ``ProblemInstance.vnfs_served`` holds that rule.
    """
    members = _members(plan.pop_count, plan.head_of)
    views = []
    for head in plan.active_pops:
        _, located, _, _ = _domain(instance, head, members[head])
        pops = list(_bits(members[head]))
        serves = instance.vnfs_served[head]
        vnfs = list(_bits(located))
        views.append(DomainView(
            head, tuple(instance.vnfs[i].id for i in vnfs),
            tuple(frozenset(p for p in pops if serves[p] >> i & 1) for i in vnfs)))
    return tuple(views)


def _host_order(instance: ProblemInstance, head: int, hosts, coverage) -> list[int]:
    """Decreasing coverage; ties go to the host nearest the head, then lowest id."""
    d = instance.delays
    return sorted(hosts, key=lambda h: (-coverage[h], d[h][head], h))


def _greedy_assign(instance: ProblemInstance, domain: DomainView,
                   elig: dict[int, frozenset[int]]) -> list[tuple[int, list[int]]]:
    cap = instance.params.vnfm_capacity
    unassigned = set(elig)
    managers: list[tuple[int, list[int]]] = []
    while unassigned:
        coverage: dict[int, int] = {}
        for v in unassigned:
            for h in elig[v]:
                coverage[h] = coverage.get(h, 0) + 1
        host = _host_order(instance, domain.head, coverage, coverage)[0]
        pool = sorted((v for v in unassigned if host in elig[v]),
                      key=lambda v: (len(elig[v]), v))
        taken = pool[:cap]
        managers.append((host, taken))
        unassigned.difference_update(taken)
    return managers


def _exact_assign(instance: ProblemInstance, domain: DomainView,
                  elig: dict[int, frozenset[int]]) -> dict[int, int]:
    """Minimum-manager host assignment by branch and bound.

    Branches on the hosts of one VNF at a time, most-constrained VNF first.
    At a host with spare capacity the VNF joins the open manager (opening
    another one there can never do better); otherwise a manager is opened.
    Nodes are cut when the open count plus a floor on the managers still
    needed (spare slots count against the unassigned VNFs) cannot beat the
    incumbent.
    """
    cap = instance.params.vnfm_capacity
    order = sorted(elig, key=lambda v: (len(elig[v]), v))
    n = len(order)

    greedy = _greedy_assign(instance, domain, elig)
    best_count = len(greedy)
    best_map = {v: host for host, taken in greedy for v in taken}

    spare: dict[int, int] = {}
    assign: dict[int, int] = {}

    def bound(i: int, opens: int) -> int:
        remaining = n - i
        free = sum(spare.values())
        return opens + math.ceil(max(0, remaining - free) / cap)

    def dfs(i: int, opens: int) -> None:
        nonlocal best_count, best_map
        if bound(i, opens) >= best_count:
            return
        if i == n:
            best_count = opens
            best_map = dict(assign)
            return
        v = order[i]
        remaining = order[i:]
        coverage = {h: sum(1 for u in remaining if h in elig[u]) for h in elig[v]}
        for host in _host_order(instance, domain.head, elig[v], coverage):
            assign[v] = host
            if spare.get(host, 0) > 0:
                spare[host] -= 1
                dfs(i + 1, opens)
                spare[host] += 1
            else:
                prev = spare.get(host)
                spare[host] = cap - 1
                dfs(i + 1, opens + 1)
                if prev is None:
                    del spare[host]
                else:
                    spare[host] = prev
            del assign[v]

    dfs(0, 0)
    return best_map


def _chunk_hosts(host_map: dict[int, int], cap: int) -> list[VnfmAssignment]:
    by_host: dict[int, list[int]] = {}
    for v, h in sorted(host_map.items()):
        by_host.setdefault(h, []).append(v)
    out = []
    for host in sorted(by_host):
        ids = by_host[host]
        for start in range(0, len(ids), cap):
            out.append(VnfmAssignment(host, tuple(ids[start:start + cap])))
    return out


def place_domain(instance: ProblemInstance, domain: DomainView,
                 exact_threshold: int = EXACT_THRESHOLD) -> tuple[VnfmAssignment, ...]:
    """Place managers for one domain; raises :class:`InfeasibleDomain` when a
    VNF has no PoP satisfying both delay bounds."""
    if not domain.vnf_ids:
        return ()
    elig = dict(zip(domain.vnf_ids, domain.hosts))
    for v_id, hosts in elig.items():
        if not hosts:
            raise InfeasibleDomain(v_id, domain.head)

    cap = instance.params.vnfm_capacity
    if len(domain.vnf_ids) <= exact_threshold:
        host_map = _exact_assign(instance, domain, elig)
        managers = _chunk_hosts(host_map, cap)
    else:
        managers = [VnfmAssignment(host, tuple(taken))
                    for host, taken in _greedy_assign(instance, domain, elig)]
    return tuple(sorted(managers, key=lambda m: (m.location, m.managed)))


@dataclass(frozen=True)
class TwoStepResult:
    solution: Solution
    search: SearchResult


def two_step_place_detailed(instance: ProblemInstance,
                            params: TabuParams | None = None) -> TwoStepResult:
    """Like :func:`two_step_place` but keeps the search accounting."""
    result = search(instance, params)
    if result.plan is None:
        raise NoFeasiblePlan(result.best_score.penalty,
                             penalty_parts(instance, result.best_plan))
    plan = result.plan
    vnfms: list[VnfmAssignment] = []
    for domain in domains_of(instance, plan):
        vnfms.extend(place_domain(instance, domain))
    return TwoStepResult(Solution(plan, tuple(vnfms)), result)


def two_step_place(instance: ProblemInstance,
                   params: TabuParams | None = None) -> Solution:
    """Full pipeline: orchestrator search, then per-domain manager placement."""
    return two_step_place_detailed(instance, params).solution
