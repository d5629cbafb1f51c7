"""Manager placement inside each domain, and the two-step pipeline.

Once the orchestrator layer has fixed the domains, each domain is solved on
its own: pick PoPs for the managers and split the domain's VNFs among them
so that every VNF sits within its own delay bound of its manager and every
manager sits within the VNF's orchestrator bound of the domain head. That
is a capacitated covering problem, solved exactly for every domain: the
VNFs split into parts that share no host, and in each part a covering
greedy gives the answer unless a search over manager counts per host, each
spread tested by a bipartite matching, finds one with fewer managers. The
search is exponential in the worst case; ``place_domain``'s ``deadline``
bounds it.

A domain is read from the masks step 1 keeps: its member PoPs and the VNFs
``located`` on them. A manager at member p can run the VNFs
``runs[p] = vnfs_served[head][p] & located``; a VNF none can run raises
:class:`InfeasibleDomain`, which the pipelines never meet (a plan reaches
step 2 only with a zero look-ahead). A placement is one VNF mask per host
(bit i stands for ``instance.vnfs[i]``), and a host's managers are its VNF
ids, ascending, cut into runs of the capacity.

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

EXACT_THRESHOLD = 20  # read by no code here; bench/run.py still imports it


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
                   order: list[int]) -> dict[int, int]:
    """Covering greedy: open a manager at the member that can run the most
    unassigned VNFs (``runs[p]`` holds those of member p) and give it up to
    its capacity of them, in ``order``. Returns the VNFs each host got."""
    cap = instance.params.vnfm_capacity
    unassigned = sum(1 << i for i in order)
    held: dict[int, int] = {}
    while unassigned:
        host = _host_order(instance, head, runs,
                           [p for p in runs if runs[p] & unassigned], unassigned)[0]
        pool = runs[host] & unassigned
        taken = sum(1 << i for i in [i for i in order if pool >> i & 1][:cap])
        held[host] = held.get(host, 0) | taken
        unassigned &= ~taken
    return held


def _augment(runs: dict[int, int], slots: dict[int, int], held: dict[int, int],
             seen: set[int], i: int) -> bool:
    """Kuhn's augmenting path for VNF i: put it at a host p that runs it
    (``runs[p]``) and holds fewer than ``slots[p]`` VNFs (``held[p]``), moving
    VNFs along a path of hosts not yet ``seen`` to make room. False when no
    path exists."""
    for p in slots:
        if runs[p] >> i & 1 and p not in seen:
            seen.add(p)
            if held[p].bit_count() < slots[p]:
                held[p] |= 1 << i
                return True
            for j in _bits(held[p]):
                if _augment(runs, slots, held, seen, j):
                    held[p] ^= 1 << j | 1 << i
                    return True
    return False


def _match(runs: dict[int, int], slots: dict[int, int], held: dict[int, int],
           order: list[int], vnfs: int) -> bool:
    """Extend the matching ``held`` to the VNFs ``vnfs``, taken in ``order``;
    False when no matching covers them."""
    return all(_augment(runs, slots, held, set(), i) for i in order if vnfs >> i & 1)


def _exact_assign(instance: ProblemInstance, head: int, runs: dict[int, int],
                  order: list[int], deadline: float) -> dict[int, int]:
    """The VNFs in ``order``, one part of a domain, placed on the fewest
    managers: the VNFs each host gets.

    The covering greedy is the answer unless fewer managers will do. For
    each count t from ``⌈n/φ⌉`` up to one below the greedy's, t managers are
    spread over the hosts, taken by coverage: more managers on earlier hosts
    first, and never more at host p than ``⌈|runs[p]|/φ⌉``. A partial spread
    is cut as soon as the VNFs that no later host runs admit no matching into
    the managers placed so far; once all t are placed, every VNF must match.
    The first full spread that admits a matching is optimal. Raises
    :class:`TimeoutError` once ``time.monotonic()`` passes ``deadline``.
    """
    cap = instance.params.vnfm_capacity
    greedy = _greedy_assign(instance, head, runs, order)
    vnfs = sum(1 << i for i in order)
    hosts = _host_order(instance, head, runs, [p for p in runs if runs[p] & vnfs], vnfs)
    most = [math.ceil(runs[p].bit_count() / cap) for p in hosts]
    later = [0] * (len(hosts) + 1)  # later[j]: the VNFs hosts[j:] run
    room = [0] * (len(hosts) + 1)  # room[j]: the managers hosts[j:] can take
    for j in reversed(range(len(hosts))):
        later[j] = later[j + 1] | runs[hosts[j]]
        room[j] = room[j + 1] + most[j]
    slots: dict[int, int] = {}

    def spread(j: int, left: int, held: dict[int, int]) -> dict[int, int] | None:
        if time.monotonic() > deadline:
            raise TimeoutError
        # x managers at hosts[j], most first, leaving no more than the later hosts take.
        for x in range(min(most[j], left), max(left - room[j + 1], 0) - 1, -1):
            slots[hosts[j]] = x * cap
            grown = {**held, hosts[j]: 0}
            if x == left:  # the spread is full: every VNF still open is matched now
                if _match(runs, slots, grown, order, later[j]):
                    return grown
            # Otherwise the VNFs that no host after hosts[j] runs are.
            elif _match(runs, slots, grown, order, later[j] & ~later[j + 1]):
                found = spread(j + 1, left - x, grown)
                if found is not None:
                    return found
        slots.pop(hosts[j], None)
        return None

    # The greedy fills every manager but a host's last: ⌈|mask|/φ⌉ per host.
    greedy_count = sum(math.ceil(mask.bit_count() / cap) for mask in greedy.values())
    try:
        for t in range(math.ceil(len(order) / cap), greedy_count):
            held = spread(0, t, {})
            if held is not None:
                return held
        return greedy
    finally:
        del spread  # it refers to itself: left alone, the pair is cyclic garbage


def _parts(runs: dict[int, int]) -> list[int]:
    """The masks of VNFs that share no host: ``runs``' masks, overlapping ones joined."""
    parts: list[int] = []
    for mask in filter(None, runs.values()):
        for part in [part for part in parts if part & mask]:
            parts.remove(part)
            mask |= part
        parts.append(mask)
    return parts


def place_domain(instance: ProblemInstance, domain: DomainView,
                 deadline: float = math.inf) -> tuple[VnfmAssignment, ...]:
    """Place the fewest managers for one domain; raises
    :class:`InfeasibleDomain` when a VNF has no member PoP satisfying both
    delay bounds, and :class:`TimeoutError` when the search runs past
    ``deadline`` (a ``time.monotonic()`` reading)."""
    ids = dict(zip(_bits(domain.located), domain.vnf_ids))
    serves = instance.vnfs_served[domain.head]
    runs = {p: serves[p] & domain.located for p in _bits(domain.members)}
    parts = _parts(runs)
    unserved = domain.located & ~sum(parts)  # parts are disjoint: their sum is their union
    if unserved:
        raise InfeasibleDomain(ids[next(_bits(unserved))], domain.head)
    # Most-constrained VNF first: fewest hosts, then lowest id.
    order = sorted(ids, key=lambda i: (sum(mask >> i & 1 for mask in runs.values()), ids[i]))
    held: dict[int, int] = {}
    for part in parts:  # parts share no host, so their placements merge
        held.update(_exact_assign(instance, domain.head, runs,
                                  [i for i in order if part >> i & 1], deadline))
    cap = instance.params.vnfm_capacity
    managed = {host: sorted(ids[i] for i in _bits(mask)) for host, mask in sorted(held.items())}
    return tuple(VnfmAssignment(host, tuple(vnfs[k:k + cap]))
                 for host, vnfs in managed.items() for k in range(0, len(vnfs), cap))


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
    vnfms = tuple(m for domain in domains_of(instance, result.plan)
                  for m in place_domain(instance, domain))
    return TwoStepResult(Solution(result.plan, vnfms), result)


def two_step_place(instance: ProblemInstance,
                   params: TabuParams | None = None) -> Solution:
    """Full pipeline: orchestrator search, then per-domain manager placement."""
    return two_step_place_detailed(instance, params).solution
