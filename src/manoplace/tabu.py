"""Tabu search for the orchestrator layer of the placement problem.

The search walks over domain plans, starting from one orchestrator at every
PoP, and minimises the number of orchestrators while driving a penalty to
zero. The penalty counts broken placement rules at unit weight:
activation/self-heading mismatches, orchestrators out of the GSO's reach,
PoPs out of their head's reach, and, as a look-ahead for the manager step,
VNFs whose domain offers no PoP satisfying both manager delay bounds.
Domains holding more VNFs than the orchestrator capacity are penalised as
well, because no later step can repair an overfull domain.

Two move kinds are sampled uniformly: toggling a PoP's orchestrator
(deactivating one re-homes its member PoPs to their nearest surviving
orchestrator) and reassigning a single PoP to a different active
orchestrator. Every plan the search visits keeps one invariant: each PoP's
head hosts an active orchestrator. The all-on start holds it, and each move
keeps it: a toggle-off re-homes every member to an active PoP other than
the one switched off, a reassignment targets an active PoP, and a toggle-on
makes the PoP, which heads no other PoP, head itself. So the rule that a
head be active never breaks, and the search does not score it.

Moves whose attribute was used recently are tabu unless the result would
beat the best plan seen so far. Each iteration accepts the best-scoring
sampled neighbour if it improves on the best-found score and otherwise the
sampled neighbour with the fewest orchestrators, letting the walk oscillate
across the feasibility boundary instead of stalling. The search stops after
``stop_patience`` consecutive iterations without improving the best-found
score.

The penalty is a sum of per-PoP terms and per-domain terms, so a neighbour
is scored from its move alone: the few PoPs and domains the move changes.
Bitmask tables built once per instance (``ProblemInstance.vnfs_at`` and
``vnfs_served``) make a domain's term a handful of big-int operations: each
domain keeps the VNFs its members can manage once and twice over, so
removing or adding a member needs no rescan of the others. A neighbour is
its move and score alone: the position applies the chosen move in place,
and a ``DomainPlan`` is built only at the start and when the best improves.

The search reads a neighbour's penalty only when the neighbour could beat
the best plan found. The terms are non-negative, so the current penalty
less the terms a move rewrites bounds the neighbour's penalty from below,
and so does the capacity floor: a plan with fewer than ⌈V/φ_nfvo⌉
orchestrators heads too few domains to hold every VNF, so one is overfull
and its penalty is at least one. A neighbour is scored only when these
bounds and its orchestrator count leave it able to beat the best. Once a
plan without penalty is found, no neighbour below the floor is scored; on
generated instances the walk after the last improvement sits mostly below
it. The others compete for the fewest-orchestrators pick on their count
alone, so every draw and every choice is the one that scoring all of them
would make.

A kept neighbour is filed by kind: toggle-offs, reassignments and
toggle-ons have one orchestrator fewer than the position, as many and one
more, so the fewest-orchestrators pick is among the first of them that
holds any. The scored neighbours that beat the best at the lowest score
are filed aside as well, and an unscored neighbour is its tabu attribute
alone. Integers are drawn straight from ``getrandbits`` by the rejection
rule of ``random.Random.randrange``, so the draws are those of
``randrange``.

The hot path walks set bits inline, and the chosen move grows the domains
that PoPs join in place, rebuilding only the one domain they leave. At
P=64, V=240 the search spends about 1.0 µs of CPU per sampled neighbour
(Python 3.11.7, 2-vCPU VM).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .model import DomainPlan
from .topology import ProblemInstance, check_type


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
            if value is not None:
                check_type(name, value, int)
                if value < 1:
                    raise ValueError(f"{name} must be >= 1")
        # random.Random seeds from abs(seed): -5 would search as 5 does.
        if check_type("seed", self.seed, int) < 0:
            raise ValueError("seed must be >= 0")

    def resolved(self, pop_count: int) -> tuple[int, int, int]:
        patience = self.stop_patience if self.stop_patience is not None else 4 * pop_count
        tenure = self.tabu_tenure if self.tabu_tenure is not None else math.ceil(pop_count / 2)
        samples = (self.neighborhood_samples if self.neighborhood_samples is not None
                   else max(10, pop_count))
        return patience, tenure, samples


class Score(NamedTuple):
    """Lexicographic search score: penalty first, then orchestrator count."""

    penalty: int
    nfvo_count: int


def _members(pop_count: int, head_of) -> list[int]:
    """Per head, the mask of the PoPs in its domain (bit q stands for PoP q)."""
    members = [0] * pop_count
    for q, h in enumerate(head_of):
        members[h] |= 1 << q
    return members


def _domain(instance: ProblemInstance, h: int, members: int) -> tuple[int, int, int, int]:
    """``(members, located, once, twice)`` of the domain headed by ``h`` whose
    member PoPs are the mask ``members``: the VNFs located on them, and the
    VNFs that at least one, and at least two, of them can manage under ``h``."""
    at = instance.vnfs_at
    serves = instance.vnfs_served[h]
    located = once = twice = 0
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        q = low.bit_length() - 1
        located |= at[q]
        twice |= once & serves[q]
        once |= serves[q]
    return members, located, once, twice


def _domain_term(instance: ProblemInstance, located: int, served: int) -> int:
    """Rules broken by a domain whose member PoPs hold the VNFs ``located``
    and can manage the VNFs ``served``: the look-ahead count, plus one if the
    domain holds more VNFs than the orchestrator capacity."""
    return ((located & ~served).bit_count()
            + (located.bit_count() > instance.params.nfvo_capacity))


class _Candidate(NamedTuple):
    """A scored neighbour, held as its move alone: no plan is built for it,
    and the search applies the chosen one's move to the position in place.
    A neighbour left unscored has no candidate, only its attribute.

    ``attribute`` is what the tabu list remembers of the move, and names it:
    ``("toggle", pop)`` or ``("reassign", pop, new_head)``. ``score`` is a
    plain ``(penalty, nfvo_count)`` tuple, and ``moves`` holds the
    ``(pop, new_head)`` pairs the move re-homes, all out of one domain."""

    attribute: tuple
    score: tuple[int, int]
    moves: tuple[tuple[int, int], ...]


class _Position:
    """A plan with the tables that score its neighbours from their moves alone.

    The plan must keep the search's invariant, every PoP's head active: the
    scores count no inactive head, and every move keeps the invariant. Per
    PoP it keeps the PoP's term; per head ``h`` the domain's masks
    ``(members, located, once, twice)`` and its term. ``once`` holds the
    VNFs that at least one member can manage under ``h``, ``twice`` those
    that at least two can, so removing a member needs no rescan of the others.
    ``active`` lists the orchestrators in PoP order, and ``by_delay[q]`` every
    PoP by its delay from ``q`` (ties on the lower id), so the first active PoP
    in it is ``q``'s nearest orchestrator. ``nfvo_at`` and ``head_of`` are
    lists that a move updates in place; ``plan`` builds the ``DomainPlan``.
    ``delays`` and ``vim_bound`` are the instance's delays and orchestrator-VIM
    bound, held for ``_term``. ``nfvo_floor`` is ⌈V/φ_nfvo⌉: a plan with
    fewer orchestrators has an overfull domain, so its penalty is at least one.
    """

    def __init__(self, instance: ProblemInstance, nfvo_at, head_of):
        n = instance.pop_count
        d = instance.delays
        params = instance.params
        self.instance = instance
        self.delays = d
        self.vim_bound = params.nfvo_vim_delay_bound
        self.nfvo_floor = -(-instance.vnf_count // params.nfvo_capacity)
        self.nfvo_at = list(nfvo_at)
        self.head_of = list(head_of)
        self.gso_far = [d[params.gso_location][q] > params.gso_nfvo_delay_bound
                        for q in range(n)]
        self.by_delay = [sorted(range(n), key=d[q].__getitem__) for q in range(n)]
        self.pop_terms = [self._term(q, h, self.nfvo_at[q]) for q, h in enumerate(self.head_of)]
        self.domains = [_domain(instance, h, m)
                        for h, m in enumerate(_members(n, self.head_of))]
        self.domain_terms = [_domain_term(instance, located, once)
                             for _, located, once, _ in self.domains]
        self.active = [p for p in range(n) if self.nfvo_at[p]]
        self.score = Score(sum(self.pop_terms) + sum(self.domain_terms), len(self.active))

    @property
    def plan(self) -> DomainPlan:
        return DomainPlan(tuple(self.nfvo_at), tuple(self.head_of))

    def _term(self, q: int, h: int, q_on: bool) -> int:
        """Rules broken at PoP ``q`` when its head is ``h``, an active
        orchestrator, and ``q_on`` says whether ``q`` hosts one: activation vs
        self-heading mismatch, an orchestrator out of the GSO's reach, and
        ``q`` out of its head's reach."""
        return (((h == q) != q_on) + (q_on and self.gso_far[q])
                + (self.delays[h][q] > self.vim_bound))

    def _leave(self, h: int, q: int) -> int:
        """Change of domain ``h``'s term when member ``q`` leaves it."""
        _, located, once, twice = self.domains[h]
        once &= ~(self.instance.vnfs_served[h][q] & ~twice)
        return (_domain_term(self.instance, located & ~self.instance.vnfs_at[q], once)
                - self.domain_terms[h])

    def _join(self, h: int, pops) -> int:
        """Change of domain ``h``'s term when ``pops`` join it."""
        _, located, once, _ = self.domains[h]
        at = self.instance.vnfs_at
        serves = self.instance.vnfs_served[h]
        for q in pops:
            located |= at[q]
            once |= serves[q]
        return _domain_term(self.instance, located, once) - self.domain_terms[h]

    def reassigned(self, pop: int, target: int) -> _Candidate:
        """Neighbour that moves ``pop`` into the domain headed by ``target``."""
        nfvo_at = self.nfvo_at
        penalty = (self.score.penalty + self._leave(self.head_of[pop], pop)
                   + self._join(target, (pop,))
                   + self._term(pop, target, nfvo_at[pop])
                   - self.pop_terms[pop])
        return _Candidate(("reassign", pop, target), (penalty, self.score.nfvo_count),
                          ((pop, target),))

    def toggled(self, pop: int) -> _Candidate:
        """Neighbour that toggles ``pop``'s orchestrator, which must not be the
        last one on: the sampler never draws that move. Switching one off
        re-homes its members to their nearest surviving orchestrator (ties on
        the lowest PoP id); switching one on, which heads no PoP while off,
        moves it alone into a domain of its own."""
        nfvo_at, head_of = self.nfvo_at, self.head_of
        pop_terms = self.pop_terms
        members = self.domains[pop][0]
        penalty = self.score.penalty
        moves: list[tuple[int, int]] = []
        if nfvo_at[pop]:
            joining: dict[int, list[int]] = {}
            rest = members
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() - 1
                for h in self.by_delay[q]:
                    if nfvo_at[h] and h != pop:
                        break
                moves.append((q, h))
                joining.setdefault(h, []).append(q)
                penalty += self._term(q, h, nfvo_at[q] and q != pop) - pop_terms[q]
            penalty -= self.domain_terms[pop]
            for h, pops in joining.items():
                penalty += self._join(h, pops)
            if not members >> pop & 1:  # pop sits in another domain: only its activation changes
                penalty += self._term(pop, head_of[pop], False) - pop_terms[pop]
            count = self.score.nfvo_count - 1
        else:
            penalty += (self._leave(head_of[pop], pop) + self._join(pop, (pop,))
                        + self._term(pop, pop, True) - pop_terms[pop])
            moves.append((pop, pop))
            count = self.score.nfvo_count + 1
        return _Candidate(("toggle", pop), (penalty, count), tuple(moves))

    def neighbour(self, attribute: tuple) -> _Candidate:
        """The scored neighbour that the move ``attribute``, one the sampler kept, leads to."""
        if attribute[0] == "toggle":
            return self.toggled(attribute[1])
        return self.reassigned(attribute[1], attribute[2])

    def move_to(self, cand: _Candidate) -> None:
        """Make ``cand`` the position: apply its move in place and rebuild
        only what it touched. A domain that PoPs join grows by their masks;
        the one domain they leave is rebuilt from its remaining members."""
        instance = self.instance
        nfvo_at, head_of = self.nfvo_at, self.head_of
        domains, domain_terms, pop_terms = self.domains, self.domain_terms, self.pop_terms
        at, served = instance.vnfs_at, instance.vnfs_served
        kind, pop = cand.attribute[:2]
        if kind == "toggle":
            nfvo_at[pop] = not nfvo_at[pop]
            self.active = [p for p, on in enumerate(nfvo_at) if on]
        left = 0  # the PoPs that leave domain old
        for q, h in cand.moves:
            old = head_of[q]
            left |= 1 << q
            members, located, once, twice = domains[h]
            serves = served[h][q]
            domains[h] = (members | 1 << q, located | at[q], once | serves,
                          twice | once & serves)
            domain_terms[h] = _domain_term(instance, located | at[q], once | serves)
            head_of[q] = h
            pop_terms[q] = self._term(q, h, nfvo_at[q])
        if left:
            domains[old] = _domain(instance, old, domains[old][0] & ~left)
            domain_terms[old] = _domain_term(instance, *domains[old][1:3])
        if kind == "toggle":  # a term reads only its own PoP's activation: the flip rewrites pop's
            pop_terms[pop] = self._term(pop, head_of[pop], nfvo_at[pop])
        self.score = Score(*cand.score)


def penalty_parts(instance: ProblemInstance, plan: DomainPlan) -> dict[str, int]:
    """A plan's penalty split into per-PoP rules, look-ahead and capacity."""
    position = _Position(instance, plan.nfvo_at, plan.head_of)
    look_ahead = sum((located & ~once).bit_count() for _, located, once, _ in position.domains)
    return {"per-PoP rules": sum(position.pop_terms), "look-ahead": look_ahead,
            "capacity": sum(position.domain_terms) - look_ahead}


def _start(instance: ProblemInstance) -> _Position:
    """The all-on starting point: every PoP hosts an orchestrator and heads itself."""
    n = instance.pop_count
    return _Position(instance, [True] * n, range(n))


def _propose_candidates(position: _Position, samples: int, tabu: dict[tuple, int],
                        iteration: int, best_score: Score, rng: random.Random
                        ) -> tuple[list[tuple], list[tuple], list[tuple], list[tuple]]:
    """Sample the tabu-filtered neighbourhood of ``position``.

    Returns ``(improving, offs, same, ons)``. ``offs``, ``same`` and ``ons``
    hold the kept toggle-offs, reassignments and toggle-ons in draw order,
    whose orchestrator counts are one less than the position's, equal to it
    and one more. Each entry is an ``(attribute, candidate)`` pair, the
    candidate None for a neighbour left unscored. ``improving`` holds the
    entries of the scored neighbours that beat ``best_score`` at the lowest
    score, in draw order.

    A move stays tabu while its attribute's entry in ``tabu`` is at least
    ``iteration``, unless its result would beat ``best_score`` (aspiration).

    Only a neighbour that could beat ``best_score`` is scored: the search
    reads no other neighbour's penalty. The penalty is a sum of non-negative
    terms, so the current penalty less the terms a move rewrites bounds the
    neighbour's penalty from below: for a reassignment the PoP's term and its
    old and new domain's, for a toggle-on the same with the PoP's own domain,
    which is empty, and for a toggle-off, which re-homes a whole domain, zero.
    A neighbour with fewer orchestrators than ``position.nfvo_floor`` has a
    penalty of at least one, whatever its terms. A neighbour whose bound and
    orchestrator count cannot beat ``best_score`` is kept unscored, or
    dropped if it is tabu, since it cannot aspire.

    Integers are drawn from ``rng.getrandbits`` by the rejection rule of
    ``random.Random.randrange`` (``k = n.bit_length()`` bits, drawn again
    while at least ``n``), which gives the same integers and leaves ``rng``
    in the same state without a call per draw.
    """
    n = position.instance.pop_count
    nfvo_at, head_of = position.nfvo_at, position.head_of
    active = position.active
    pop_terms, domain_terms = position.pop_terms, position.domain_terms
    penalty, count = position.score
    # A neighbour with c orchestrators whose penalty is at least b can beat
    # best_score only if b <= best_penalty, strictly unless c < best_count:
    # only if b is at most the limit for its count.
    best_penalty, best_count = best_score
    reassign_limit = best_penalty - (count >= best_count)
    on_limit = best_penalty - (count + 1 >= best_count)
    off_limit = best_penalty - (count - 1 >= best_count)
    # Below the floor a neighbour's penalty is at least one, so with a limit
    # under one no neighbour of that kind is scored.
    floor = position.nfvo_floor
    if count - 1 < floor and off_limit < 1:
        off_limit = -1
    if count < floor and reassign_limit < 1:
        reassign_limit = -1
    if count + 1 < floor and on_limit < 1:
        on_limit = -1
    rand, getrandbits = rng.random, rng.getrandbits
    k = n.bit_length()
    improving: list[tuple] = []
    offs: list[tuple] = []
    same: list[tuple] = []
    ons: list[tuple] = []
    low = best_score  # the lowest score drawn that beats best_score
    # The position is fixed, so a toggle drawn again is the same neighbour:
    # per PoP, its list and entry, or None when it is not kept.
    toggles: dict[int, tuple | None] = {}
    for _ in range(samples):
        toggle = rand() < 0.5
        pop = getrandbits(k)
        while pop >= n:
            pop = getrandbits(k)
        if toggle:
            if pop not in toggles:
                on = nfvo_at[pop]
                kept = None
                if not (on and len(active) == 1):  # the one guard: the last orchestrator stays on
                    attribute = ("toggle", pop)
                    cand = (position.toggled(pop)
                            if (off_limit >= 0 if on  # a toggle-off's bound is zero
                                else penalty - pop_terms[pop] - domain_terms[head_of[pop]]
                                <= on_limit)
                            else None)
                    if tabu.get(attribute, -1) < iteration or (cand is not None
                                                               and cand.score < best_score):
                        kept = (offs if on else ons, (attribute, cand))
                toggles[pop] = kept
            kept = toggles[pop]
            if kept is None:
                continue
            kind, entry = kept
            cand = entry[1]
        else:
            # The target is drawn from the active PoPs other than the head,
            # skipping the head in place rather than building that list.
            h = head_of[pop]
            others = len(active) - nfvo_at[h]
            if not others:
                continue
            bits = others.bit_length()
            i = getrandbits(bits)
            while i >= others:
                i = getrandbits(bits)
            target = active[i] if not nfvo_at[h] or active[i] < h else active[i + 1]
            attribute = ("reassign", pop, target)
            cand = (position.reassigned(pop, target) if penalty - pop_terms[pop]
                    - domain_terms[h] - domain_terms[target] <= reassign_limit else None)
            if tabu.get(attribute, -1) >= iteration and (cand is None
                                                         or not cand.score < best_score):
                continue  # tabu, and not good enough for aspiration
            kind, entry = same, (attribute, cand)
        kind.append(entry)
        if cand is not None:
            # improving is not empty exactly when low beats best_score.
            if cand.score < low:
                low = cand.score
                improving = [entry]
            elif improving and cand.score == low:
                improving.append(entry)
    return improving, offs, same, ons


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
    position = _start(instance)
    best = position.plan
    best_score = position.score
    tabu: dict[tuple, int] = {}
    iteration = no_improvement = last_improvement = 0

    while no_improvement < patience:
        iteration += 1
        improving, offs, same, ons = _propose_candidates(position, samples, tabu, iteration,
                                                         best_score, rng)
        # Without a sampled neighbour that improves on the best found, take
        # one with the fewest orchestrators, feasible or not, and keep moving.
        tied = improving or offs or same or ons
        if not tied:
            no_improvement += 1
            continue
        attribute, chosen = tied[rng.randrange(len(tied))]
        if chosen is None:
            chosen = position.neighbour(attribute)
        position.move_to(chosen)
        tabu[attribute] = iteration + tenure

        if chosen.score < best_score:
            best = position.plan
            best_score = position.score
            no_improvement = 0
            last_improvement = iteration
        else:
            no_improvement += 1

    return SearchResult(best, best_score, iteration, last_improvement, patience)
