"""Manager placement inside each domain, and the two-step pipeline.

Once the orchestrator layer has fixed the domains, each domain is solved on
its own: pick PoPs for the managers and split the domain's VNFs among them
so that every VNF sits within its own delay bound of its manager and every
manager sits within the VNF's orchestrator bound of the domain head. That
is a capacitated covering problem; domains up to ``EXACT_THRESHOLD`` VNFs
are solved exactly by branch and bound, larger ones by a covering greedy.
A feasible plan's domains hold at most the orchestrator capacity of VNFs,
so the greedy runs only when that capacity is above the threshold.

A domain is read from the masks step 1 keeps: its member PoPs and the VNFs
``located`` on them. A manager at member p can run the VNFs
``vnfs_served[head][p] & located``; a VNF no member can run is the search's
look-ahead (``located & ~once``) and raises :class:`InfeasibleDomain`. Host
coverage is a popcount over the VNFs still to place.

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
    """One domain: its head, the mask of its member PoPs (bit q stands for
    PoP q), the mask of the VNFs located on them (bit i stands for
    ``instance.vnfs[i]``) and those VNFs' ids in bit order."""

    head: int
    members: int
    located: int
    vnf_ids: tuple[int, ...]


def domains_of(instance: ProblemInstance, plan: DomainPlan) -> tuple[DomainView, ...]:
    """The plan's domains in ascending head order."""
    members = _members(plan.pop_count, plan.head_of)
    views = []
    for head in plan.active_pops:
        _, located, _, _ = _domain(instance, head, members[head])
        views.append(DomainView(head, members[head], located,
                                tuple(instance.vnfs[i].id for i in _bits(located))))
    return tuple(views)


def _host_order(instance: ProblemInstance, head: int, runs: dict[int, int], hosts,
                within: int) -> list[int]:
    """Decreasing coverage of the VNFs ``within``; ties go to the host nearest
    the head, then lowest id."""
    d = instance.delays
    return sorted(hosts, key=lambda p: (-(runs[p] & within).bit_count(), d[p][head], p))


def _greedy_assign(instance: ProblemInstance, head: int, runs: dict[int, int],
                   order: list[int]) -> list[tuple[int, list[int]]]:
    """Covering greedy: open a manager at the member that can run the most
    unassigned VNFs (``runs[p]`` holds those of member p) and give it up to
    its capacity of them, in ``order``."""
    cap = instance.params.vnfm_capacity
    unassigned = sum(1 << i for i in order)
    managers: list[tuple[int, list[int]]] = []
    while unassigned:
        host = _host_order(instance, head, runs,
                           [p for p in runs if runs[p] & unassigned], unassigned)[0]
        pool = runs[host] & unassigned
        taken = [i for i in order if pool >> i & 1][:cap]
        managers.append((host, taken))
        unassigned &= ~sum(1 << i for i in taken)
    return managers


def _exact_assign(instance: ProblemInstance, head: int, runs: dict[int, int],
                  order: list[int]) -> dict[int, int]:
    """Minimum-manager host assignment by branch and bound.

    Branches on the hosts of one VNF at a time, in ``order`` (most-constrained
    VNF first); hosts are tried by their coverage of the VNFs not yet
    branched on. At a host with spare capacity the VNF joins the open
    manager (opening another one there can never do better); otherwise a
    manager is opened. Nodes are cut when the open count plus a floor on the
    managers still needed (spare slots count against the unassigned VNFs)
    cannot beat the incumbent.
    """
    cap = instance.params.vnfm_capacity
    n = len(order)
    suffix = [0] * (n + 1)  # suffix[i]: the VNFs order[i:]
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] | 1 << order[i]

    greedy = _greedy_assign(instance, head, runs, order)
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
        hosts = [p for p in runs if runs[p] >> v & 1]
        for host in _host_order(instance, head, runs, hosts, suffix[i]):
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
    VNF has no member PoP satisfying both delay bounds."""
    ids = dict(zip(_bits(domain.located), domain.vnf_ids))
    _, _, once, _ = _domain(instance, domain.head, domain.members)
    unserved = domain.located & ~once
    if unserved:
        raise InfeasibleDomain(ids[next(_bits(unserved))], domain.head)
    serves = instance.vnfs_served[domain.head]
    runs = {p: serves[p] & domain.located for p in _bits(domain.members)}
    # Most-constrained VNF first: fewest hosts, then lowest id.
    order = sorted(ids, key=lambda i: (sum(vnfs >> i & 1 for vnfs in runs.values()), ids[i]))

    cap = instance.params.vnfm_capacity
    if len(order) <= exact_threshold:
        host_map = _exact_assign(instance, domain.head, runs, order)
        managers = _chunk_hosts({ids[i]: h for i, h in host_map.items()}, cap)
    else:
        managers = [VnfmAssignment(host, tuple(ids[i] for i in taken))
                    for host, taken in _greedy_assign(instance, domain.head, runs, order)]
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
