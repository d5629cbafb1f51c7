"""Solutions and the feasibility checker.

A solution has two layers. The domain plan says which PoPs host an
orchestrator (NFVO) and which orchestrator heads each PoP; since every PoP
points at exactly one head, the plan encodes the one-domain-per-PoP rule
structurally. On top of that, manager assignments say where each VNF manager
(VNFM) sits and which VNFs it runs.

``check_feasibility`` re-checks a finished solution against every placement
rule and reports violations as data, tagged with the constraint family:

==========  ====================================================================
family      meaning
==========  ====================================================================
C2          every PoP belongs to exactly one domain (structural here)
C3          a PoP's head must host an active orchestrator
C4          an active orchestrator heads its own PoP, and only then
C5          a manager occupies exactly one PoP (structural here)
C6          every VNF is run by exactly one manager
C7          a VNF's manager must exist at its PoP (structural here)
C8          a VNF and its manager sit in the same domain
C9          a domain holds at most the orchestrator capacity of VNFs
C10         a manager runs at most its capacity of VNFs
C11         an open manager runs at least one VNF
C12         active orchestrators are within the GSO delay bound
C13         every PoP is within the VIM delay bound of its head
C14         a VNF is within its own bound of its manager
C15         a manager is within the VNF's bound of its domain head
==========  ====================================================================

Families marked structural cannot be expressed as broken by these types, so
they never produce entries. Out-of-range ids are programming errors and
raise ``ValueError`` instead of reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import InstanceFormatError, SolutionFormatError
from .topology import ProblemInstance, check_keys, check_type, read_json


@dataclass(frozen=True)
class DomainPlan:
    """Orchestrator activation per PoP plus the PoP-to-head map."""

    nfvo_at: tuple[bool, ...]
    head_of: tuple[int, ...]

    @classmethod
    def make(cls, nfvo_at: Iterable[bool], head_of: Iterable[int]) -> "DomainPlan":
        return cls(tuple(bool(b) for b in nfvo_at), tuple(int(h) for h in head_of))

    @property
    def pop_count(self) -> int:
        return len(self.nfvo_at)

    @property
    def nfvo_count(self) -> int:
        return sum(self.nfvo_at)

    @property
    def active_pops(self) -> tuple[int, ...]:
        return tuple(p for p, on in enumerate(self.nfvo_at) if on)


@dataclass(frozen=True)
class VnfmAssignment:
    """One open manager: its host PoP and the VNFs it runs (kept sorted)."""

    location: int
    managed: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "managed", tuple(sorted(self.managed)))

    @property
    def load(self) -> int:
        return len(self.managed)


@dataclass(frozen=True)
class Solution:
    plan: DomainPlan
    vnfms: tuple[VnfmAssignment, ...]

    @property
    def objective(self) -> int:
        """Number of orchestrators plus number of open managers."""
        return self.plan.nfvo_count + len(self.vnfms)

    @property
    def vnfm_count(self) -> int:
        return len(self.vnfms)


@dataclass(frozen=True)
class Violation:
    family: str
    indices: tuple[int, ...]
    measured: float
    bound: float

    def __str__(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.family}[{idx}]: measured {self.measured:g} vs bound {self.bound:g}"


@dataclass(frozen=True)
class ViolationReport:
    entries: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.entries


def _check_indices(instance: ProblemInstance, solution: Solution) -> dict[int, object]:
    n = instance.pop_count
    plan = solution.plan
    if len(plan.nfvo_at) != n or len(plan.head_of) != n:
        raise ValueError(
            f"plan covers {len(plan.head_of)} PoPs but instance has {n}")
    for q, h in enumerate(plan.head_of):
        if not 0 <= h < n:
            raise ValueError(f"head of PoP {q} is {h}, out of range")
    vnf_by_id = {v.id: v for v in instance.vnfs}
    for i, m in enumerate(solution.vnfms):
        if not 0 <= m.location < n:
            raise ValueError(f"manager {i} location {m.location} is out of range")
        for v in m.managed:
            if v not in vnf_by_id:
                raise ValueError(f"manager {i} references unknown VNF id {v}")
    return vnf_by_id


def check_feasibility(instance: ProblemInstance, solution: Solution) -> ViolationReport:
    """Re-check every placement rule on a finished solution.

    Returns an empty report exactly when the solution is feasible. Violations
    carry the family tag, the offending index tuple, the measured value and
    the bound it broke.
    """
    vnf_by_id = _check_indices(instance, solution)
    plan = solution.plan
    d = instance.delays
    params = instance.params
    gso = params.gso_location
    out: list[Violation] = []

    # C3: heads must be active orchestrators.
    for q, h in enumerate(plan.head_of):
        if not plan.nfvo_at[h]:
            out.append(Violation("C3", (q, h), measured=0.0, bound=1.0))

    # C4: active exactly at self-headed PoPs.
    for p in range(plan.pop_count):
        self_headed = plan.head_of[p] == p
        if self_headed != plan.nfvo_at[p]:
            out.append(Violation("C4", (p,), measured=float(self_headed),
                                 bound=float(plan.nfvo_at[p])))

    # C6: every VNF run by exactly one manager.
    run_count = {v.id: 0 for v in instance.vnfs}
    for m in solution.vnfms:
        for v in m.managed:
            run_count[v] += 1
    for v_id in sorted(run_count):
        if run_count[v_id] != 1:
            out.append(Violation("C6", (v_id,), measured=float(run_count[v_id]), bound=1.0))

    # C8: VNF and manager in the same domain.
    for mi, m in enumerate(solution.vnfms):
        head_m = plan.head_of[m.location]
        for v_id in m.managed:
            head_v = plan.head_of[vnf_by_id[v_id].location]
            if head_v != head_m:
                out.append(Violation("C8", (v_id, mi), measured=float(head_m),
                                     bound=float(head_v)))

    # C9: per-domain VNF count within orchestrator capacity (active heads only).
    for p in plan.active_pops:
        cnt = sum(1 for v in instance.vnfs if plan.head_of[v.location] == p)
        if cnt > params.nfvo_capacity:
            out.append(Violation("C9", (p,), measured=float(cnt),
                                 bound=float(params.nfvo_capacity)))

    # C10/C11: manager load within [1, capacity].
    for mi, m in enumerate(solution.vnfms):
        if m.load > params.vnfm_capacity:
            out.append(Violation("C10", (mi,), measured=float(m.load),
                                 bound=float(params.vnfm_capacity)))
        if m.load < 1:
            out.append(Violation("C11", (mi,), measured=float(m.load), bound=1.0))

    # C12: active orchestrators reachable from the GSO.
    for p in plan.active_pops:
        if d[gso][p] > params.gso_nfvo_delay_bound:
            out.append(Violation("C12", (p,), measured=d[gso][p],
                                 bound=params.gso_nfvo_delay_bound))

    # C13: every PoP (its VIM) reachable from its head.
    for q, h in enumerate(plan.head_of):
        if d[h][q] > params.nfvo_vim_delay_bound:
            out.append(Violation("C13", (q, h), measured=d[h][q],
                                 bound=params.nfvo_vim_delay_bound))

    # C14/C15: manager within the VNF's bound, and within the VNF's
    # orchestrator bound of the manager PoP's head.
    for mi, m in enumerate(solution.vnfms):
        head_m = plan.head_of[m.location]
        for v_id in m.managed:
            v = vnf_by_id[v_id]
            if d[v.location][m.location] > v.vnfm_delay_bound:
                out.append(Violation("C14", (v_id, mi),
                                     measured=d[v.location][m.location],
                                     bound=v.vnfm_delay_bound))
            if d[m.location][head_m] > v.nfvo_vnfm_delay_bound:
                out.append(Violation("C15", (v_id, mi),
                                     measured=d[m.location][head_m],
                                     bound=v.nfvo_vnfm_delay_bound))

    return ViolationReport(tuple(out))


# ---------------------------------------------------------------------------
# Solution files


def solution_to_data(solution: Solution, extra: dict | None = None) -> dict:
    data = {
        "objective": solution.objective,
        "nfvos": [int(p) for p in solution.plan.active_pops],
        "assignments": [int(h) for h in solution.plan.head_of],
        "vnfms": [
            {"location": int(m.location), "vnf_ids": [int(v) for v in m.managed]}
            for m in solution.vnfms
        ],
    }
    if extra:
        data.update(extra)
    return data


def save_solution(solution: Solution, path: str | Path, extra: dict | None = None) -> None:
    """Write a solution file; ``extra`` adds top-level keys (solver status etc.)."""
    Path(path).write_text(json.dumps(solution_to_data(solution, extra), indent=2) + "\n")


# Solution file keys and the kinds of their values.
_SOLUTION_KEYS = {"nfvos": list, "assignments": list, "vnfms": list,
                  "objective": int, "status": str, "nodes_explored": int}


def parse_solution(data) -> Solution:
    """Build a solution from already-decoded JSON data (strict keys and kinds)."""
    try:
        check_keys("solution", data, _SOLUTION_KEYS, ("objective", "status", "nodes_explored"))
        for key, value in data.items():
            check_type(key, value, _SOLUTION_KEYS[key])
        head_of = [check_type(f"assignments[{i}]", h, int)
                   for i, h in enumerate(data["assignments"])]
        nfvo_at = [False] * len(head_of)
        for i, p in enumerate(data["nfvos"]):
            if not 0 <= check_type(f"nfvos[{i}]", p, int) < len(head_of):
                raise ValueError(f"nfvos entry {p} is not a valid PoP id")
            nfvo_at[p] = True
        vnfms = []
        for i, entry in enumerate(data["vnfms"]):
            check_keys(f"vnfms[{i}]", entry, ("location", "vnf_ids"))
            ids = check_type(f"vnfms[{i}].vnf_ids", entry["vnf_ids"], list)
            vnfms.append(VnfmAssignment(
                check_type(f"vnfms[{i}].location", entry["location"], int),
                tuple(check_type(f"vnfms[{i}].vnf_ids[{j}]", x, int) for j, x in enumerate(ids))))
    except (TypeError, ValueError) as exc:
        raise SolutionFormatError(f"solution: {exc}") from None
    return Solution(DomainPlan.make(nfvo_at, head_of), tuple(vnfms))


def load_solution(path: str | Path) -> Solution:
    try:
        data = read_json(path)
    except InstanceFormatError as exc:  # not valid JSON
        raise SolutionFormatError(str(exc)) from None
    return parse_solution(data)
