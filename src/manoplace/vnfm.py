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
import time
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
                  order: list[int], hosts_of: dict[int, list[int]],
                  deadline: float) -> dict[int, int]:
    """Minimum-manager host assignment by branch and bound.

    Branches on the hosts ``hosts_of[v]`` of one VNF v at a time, in ``order``
    (most-constrained VNF first); hosts are tried by their coverage of the
    VNFs not yet branched on. The state is one load per host: at a host whose
    load is not a multiple of the capacity φ the VNF joins the open manager
    (opening another one there can never do better), otherwise a manager is
    opened. The open managers' free slots total ``open·φ − i`` after i of the
    n VNFs, so a node is cut when ``max(open, ⌈n/φ⌉)`` cannot beat the
    incumbent. Raises :class:`TimeoutError` once ``time.monotonic()`` passes
    ``deadline``.
    """
    cap = instance.params.vnfm_capacity
    n = len(order)
    floor = math.ceil(n / cap)
    suffix = [0] * (n + 1)  # suffix[i]: the VNFs order[i:]
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] | 1 << order[i]
    tries = [_host_order(instance, head, runs, hosts_of[v], suffix[i])
             for i, v in enumerate(order)]

    greedy = _greedy_assign(instance, head, runs, order)
    best_count = len(greedy)
    best_map = {v: host for host, taken in greedy for v in taken}

    load = dict.fromkeys(runs, 0)
    path = [0] * n  # path[i]: the host of order[i]

    def dfs(i: int, opens: int) -> None:
        nonlocal best_count, best_map
        if max(opens, floor) >= best_count:
            return
        if i == n:
            best_count, best_map = opens, dict(zip(order, path))
            return
        if time.monotonic() > deadline:
            raise TimeoutError
        for host in tries[i]:
            path[i] = host
            opened = load[host] % cap == 0
            load[host] += 1
            dfs(i + 1, opens + opened)
            load[host] -= 1

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
                 exact_threshold: float = EXACT_THRESHOLD,
                 deadline: float = math.inf) -> tuple[VnfmAssignment, ...]:
    """Place managers for one domain; raises :class:`InfeasibleDomain` when a
    VNF has no member PoP satisfying both delay bounds, and
    :class:`TimeoutError` when the branch and bound runs past ``deadline``
    (a ``time.monotonic()`` reading)."""
    ids = dict(zip(_bits(domain.located), domain.vnf_ids))
    _, _, once, _ = _domain(instance, domain.head, domain.members)
    unserved = domain.located & ~once
    if unserved:
        raise InfeasibleDomain(ids[next(_bits(unserved))], domain.head)
    serves = instance.vnfs_served[domain.head]
    runs = {p: serves[p] & domain.located for p in _bits(domain.members)}
    hosts_of = {i: [p for p in runs if runs[p] >> i & 1] for i in ids}
    # Most-constrained VNF first: fewest hosts, then lowest id.
    order = sorted(ids, key=lambda i: (len(hosts_of[i]), ids[i]))

    cap = instance.params.vnfm_capacity
    if len(order) <= exact_threshold:
        host_map = _exact_assign(instance, domain.head, runs, order, hosts_of, deadline)
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
