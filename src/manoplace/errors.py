"""Exception types shared across the package."""

from __future__ import annotations


class ManoPlaceError(Exception):
    """Base class for all errors raised by this package."""


class InstanceFormatError(ManoPlaceError):
    """An instance, generator or sweep file could not be parsed into the expected shape."""


class SolutionFormatError(ManoPlaceError):
    """A solution file could not be parsed into the expected shape."""


class InstanceValidationError(ManoPlaceError):
    """A parsed instance breaks one of the documented invariants.

    The message names the first violated invariant; ``entries`` holds them all.
    """

    def __init__(self, *entries: str):
        self.entries = entries
        super().__init__(entries[0])


class NoFeasiblePlan(ManoPlaceError):
    """The orchestrator search finished without ever reaching a zero-penalty plan.

    ``parts`` splits the best plan's penalty, ``best_penalty``, by the rules that make it up.
    """

    def __init__(self, parts: dict[str, int]):
        self.parts = dict(parts)
        self.best_penalty = sum(self.parts.values())
        split = " + ".join(f"{name} {count}" for name, count in self.parts.items())
        super().__init__("no feasible orchestrator plan found"
                         f" (best penalty reached: {self.best_penalty} = {split})")


class InfeasibleDomain(ManoPlaceError):
    """A domain contains a VNF with no PoP satisfying both manager delay bounds."""

    def __init__(self, vnf_id: int, head: int):
        self.vnf_id = vnf_id
        self.head = head
        super().__init__(
            f"VNF {vnf_id} has no eligible manager host in the domain headed by PoP {head}")
