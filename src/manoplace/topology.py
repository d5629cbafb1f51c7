"""Problem instances: PoP topologies, delay matrices, VNF inventories.

An instance bundles everything the placement algorithms need: the set of
NFVI-PoPs, the pairwise management-plane delays between them, the VNF
inventory (each VNF pinned to a location PoP and carrying its two manager
delay bounds), and the global MANO parameters (component capacities, the
GSO location and the GSO/VIM delay bounds).

Instances are plain frozen dataclasses. Constructing one does not validate
it; ``validate_instance`` reports every broken invariant as data, and
``load_problem`` refuses files whose instances validate non-empty.

File format (JSON, strict: unknown keys are rejected)::

    {
      "pops":   [{"id": 0, "label": "pop0", "coordinates": [x_km, y_km]}, ...],
      "delays": [[0.0, 12.5, ...], ...],          # ms, row-major, symmetric
      "vnfs":   [{"id": 0, "location": 3,
                  "omega_ms": 30.0,               # max VNF <-> manager delay
                  "big_omega_ms": 45.0}, ...],    # max orchestrator <-> manager delay
      "params": {"phi_nfvo": 20, "phi_vnfm": 10,
                 "psi_ms": 80.0,                  # max GSO <-> orchestrator delay
                 "big_psi_ms": 60.0,              # max orchestrator <-> VIM delay
                 "gso_pop": 0}
    }

``coordinates`` is optional and only informative (the generator records the
sampled points; the algorithms read delays only).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import InstanceFormatError, InstanceValidationError

DEFAULT_VNF_VNFM_BOUND_MS = 30.0
DEFAULT_NFVO_VNFM_BOUND_MS = 45.0


@dataclass(frozen=True)
class PoP:
    """One NFVI point of presence. Its VIM is colocated with it."""

    id: int
    label: str = ""
    coordinates: tuple[float, float] | None = None


@dataclass(frozen=True)
class VnfInstance:
    """A VNF pinned to its location PoP, with per-VNF manager delay bounds.

    ``vnfm_delay_bound`` caps the delay between the VNF and the manager that
    runs it; ``nfvo_vnfm_delay_bound`` caps the delay between that manager
    and the orchestrator heading the domain.
    """

    id: int
    location: int
    vnfm_delay_bound: float = DEFAULT_VNF_VNFM_BOUND_MS
    nfvo_vnfm_delay_bound: float = DEFAULT_NFVO_VNFM_BOUND_MS


@dataclass(frozen=True)
class ManoParameters:
    """Global capacities, delay bounds and the GSO location."""

    nfvo_capacity: int
    vnfm_capacity: int
    gso_nfvo_delay_bound: float
    nfvo_vim_delay_bound: float
    gso_location: int


@dataclass(frozen=True)
class ProblemInstance:
    """A full instance; ``delays[p][q]`` is the delay between PoPs p and q in ms.

    Delays are nested tuples so instances stay hashable and comparable, and
    so the search's inner loops index plain Python floats.
    """

    pops: tuple[PoP, ...]
    delays: tuple[tuple[float, ...], ...]
    vnfs: tuple[VnfInstance, ...]
    params: ManoParameters

    @property
    def pop_count(self) -> int:
        return len(self.pops)

    @property
    def vnf_count(self) -> int:
        return len(self.vnfs)

    # The two tables below are VNF bitmasks: bit i stands for ``vnfs[i]``.
    # They are the one implementation of the manager-reachability rule that
    # the search, the manager placer and the exact solver all use.

    @cached_property
    def vnfs_served(self) -> tuple[tuple[int, ...], ...]:
        """``vnfs_served[h][p]``: the VNFs that a manager at PoP p could run in
        the domain headed by h, that is each VNF v with
        ``delays[v.location][p] <= v.vnfm_delay_bound`` and
        ``delays[p][h] <= v.nfvo_vnfm_delay_bound``."""
        d = np.asarray(self.delays)
        loc = np.array([v.location for v in self.vnfs], dtype=int)
        omega = np.array([v.vnfm_delay_bound for v in self.vnfs])
        big_omega = np.array([v.nfvo_vnfm_delay_bound for v in self.vnfs])
        near = np.ascontiguousarray((d[loc] <= omega[:, None]).T)  # [p, i]
        # One head at a time keeps the arrays P x V.
        return tuple(_bitmasks(near & (d[:, h:h + 1] <= big_omega))
                     for h in range(self.pop_count))

    @cached_property
    def vnfs_at(self) -> tuple[int, ...]:
        """Per PoP, the VNFs located there."""
        masks = [0] * self.pop_count
        for i, v in enumerate(self.vnfs):
            masks[v.location] |= 1 << i
        return tuple(masks)


def _bitmasks(block: np.ndarray) -> tuple[int, ...]:
    """Read the rows of a 2-d boolean array as ints (entry i is bit i)."""
    return tuple(int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(block, axis=1, bitorder="little"))


@dataclass(frozen=True)
class ValidationReport:
    """Validator output: one human-readable entry per broken invariant."""

    entries: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.entries


def check_type(name: str, value, kind: type) -> None:
    """Raise :class:`TypeError` unless ``value`` is a ``kind``, which is
    ``int`` or ``bool``. A bool does not pass as an integer: in the JSON
    settings files these checks guard, ``true`` is not a count."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        what = "an integer" if kind is int else "a boolean"
        raise TypeError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic-topology generator settings.

    PoPs are dropped uniformly in a square of side ``area_side_km``; each
    directed delay is ``delay_per_km`` times the Euclidean distance with a
    multiplicative jitter of up to ``delay_jitter_fraction`` either way, then
    symmetrised by averaging. VNF locations are uniform over PoPs. The GSO
    goes to a 1-center PoP (a PoP minimising the maximum delay to any other;
    ties break on the lowest id).
    """

    pop_count: int
    vnf_count: int
    area_side_km: float = 3000.0
    delay_per_km: float = 0.018
    delay_jitter_fraction: float = 0.1
    vnfm_delay_bound: float = DEFAULT_VNF_VNFM_BOUND_MS
    nfvo_vnfm_delay_bound: float = DEFAULT_NFVO_VNFM_BOUND_MS
    nfvo_capacity: int = 20
    vnfm_capacity: int = 10
    gso_nfvo_delay_bound: float = 80.0
    nfvo_vim_delay_bound: float = 60.0
    seed: int = 0

    def __post_init__(self):
        for name in ("pop_count", "vnf_count", "nfvo_capacity", "vnfm_capacity", "seed"):
            check_type(name, getattr(self, name), int)
        if self.pop_count < 1:
            raise ValueError("pop_count must be >= 1")
        if self.vnf_count < 1:
            raise ValueError("vnf_count must be >= 1")
        for name in ("area_side_km", "delay_per_km", "vnfm_delay_bound",
                     "nfvo_vnfm_delay_bound", "gso_nfvo_delay_bound",
                     "nfvo_vim_delay_bound"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.nfvo_capacity < 1 or self.vnfm_capacity < 1:
            raise ValueError("capacities must be >= 1")
        if not 0 <= self.delay_jitter_fraction < 1:
            raise ValueError("delay_jitter_fraction must be in [0, 1)")


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Check every instance invariant; violations come back as report entries.

    Constructing a :class:`ProblemInstance` never raises on bad content, so
    this is the one place that decides whether an instance is well formed.
    """
    entries: list[str] = []
    pops = instance.pops
    n = len(pops)
    if n == 0:
        entries.append("pops: instance has no PoPs")
    ids = [p.id for p in pops]
    if sorted(ids) != list(range(n)):
        entries.append(f"pops: ids are not dense and unique (expected 0..{n - 1})")

    rows = instance.delays
    m = len(rows)
    square = all(len(r) == m for r in rows)
    if not square:
        entries.append("delays: matrix is not square")
    if m != n:
        entries.append(f"delays: matrix has {m} rows but instance has {n} PoPs")
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not math.isfinite(x) or x < 0:
                entries.append(f"delays: entry ({i}, {j}) = {x} is not a finite nonnegative number")
    if square:
        for i in range(m):
            if rows[i][i] != 0:
                entries.append(f"delays: diagonal entry ({i}, {i}) = {rows[i][i]} is nonzero")
        for i in range(m):
            for j in range(i + 1, m):
                if rows[i][j] != rows[j][i]:
                    entries.append(
                        f"delays: matrix is not symmetric at ({i}, {j}): "
                        f"{rows[i][j]} != {rows[j][i]}"
                    )

    seen: set[int] = set()
    for v in instance.vnfs:
        if v.id in seen:
            entries.append(f"vnfs: duplicate id {v.id}")
        seen.add(v.id)
        if not 0 <= v.location < n:
            entries.append(f"vnf {v.id}: location {v.location} is not a valid PoP id")
        if v.vnfm_delay_bound <= 0:
            entries.append(f"vnf {v.id}: VNF-manager delay bound must be > 0")
        if v.nfvo_vnfm_delay_bound <= 0:
            entries.append(f"vnf {v.id}: orchestrator-manager delay bound must be > 0")

    pr = instance.params
    if pr.nfvo_capacity < 1:
        entries.append("params: orchestrator capacity must be >= 1")
    if pr.vnfm_capacity < 1:
        entries.append("params: manager capacity must be >= 1")
    if pr.gso_nfvo_delay_bound <= 0:
        entries.append("params: GSO-orchestrator delay bound must be > 0")
    if pr.nfvo_vim_delay_bound <= 0:
        entries.append("params: orchestrator-VIM delay bound must be > 0")
    if not 0 <= pr.gso_location < n:
        entries.append(f"params: GSO location {pr.gso_location} is not a valid PoP id")

    return ValidationReport(tuple(entries))


# ---------------------------------------------------------------------------
# JSON loading / saving


def _require_mapping(obj, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise InstanceFormatError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InstanceFormatError(f"{where}: missing key(s) {missing}")


def _as_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InstanceFormatError(f"{where}: expected an integer, got {x!r}")
    return x


def _as_number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InstanceFormatError(f"{where}: expected a number, got {x!r}")
    return float(x)


def parse_problem(data) -> ProblemInstance:
    """Build an instance from already-decoded JSON data (strict keys, no validation)."""
    _require_mapping(data, "instance", ("pops", "delays", "vnfs", "params"))

    if not isinstance(data["pops"], list):
        raise InstanceFormatError("pops: expected a list")
    pops = []
    for i, entry in enumerate(data["pops"]):
        _require_mapping(entry, f"pops[{i}]", ("id", "label"), ("coordinates",))
        coords = None
        if "coordinates" in entry:
            raw = entry["coordinates"]
            if not isinstance(raw, list) or len(raw) != 2:
                raise InstanceFormatError(f"pops[{i}].coordinates: expected [x, y]")
            coords = (_as_number(raw[0], f"pops[{i}].coordinates[0]"),
                      _as_number(raw[1], f"pops[{i}].coordinates[1]"))
        if not isinstance(entry["label"], str):
            raise InstanceFormatError(f"pops[{i}].label: expected a string")
        pops.append(PoP(id=_as_int(entry["id"], f"pops[{i}].id"),
                        label=entry["label"], coordinates=coords))
    pops.sort(key=lambda p: p.id)

    raw_delays = data["delays"]
    if not isinstance(raw_delays, list) or not all(isinstance(r, list) for r in raw_delays):
        raise InstanceFormatError("delays: expected a list of rows")
    rows = []
    for i, r in enumerate(raw_delays):
        rows.append(tuple(_as_number(x, f"delays[{i}][{j}]") for j, x in enumerate(r)))
    widths = {len(r) for r in rows}
    if len(rows) and (widths != {len(rows)}):
        raise InstanceValidationError(
            f"delays: matrix is not square ({len(rows)} rows, widths {sorted(widths)})")
    delays = tuple(rows)

    if not isinstance(data["vnfs"], list):
        raise InstanceFormatError("vnfs: expected a list")
    vnfs = []
    for i, entry in enumerate(data["vnfs"]):
        _require_mapping(entry, f"vnfs[{i}]", ("id", "location", "omega_ms", "big_omega_ms"))
        vnfs.append(VnfInstance(
            id=_as_int(entry["id"], f"vnfs[{i}].id"),
            location=_as_int(entry["location"], f"vnfs[{i}].location"),
            vnfm_delay_bound=_as_number(entry["omega_ms"], f"vnfs[{i}].omega_ms"),
            nfvo_vnfm_delay_bound=_as_number(entry["big_omega_ms"], f"vnfs[{i}].big_omega_ms"),
        ))

    _require_mapping(data["params"], "params",
                     ("phi_nfvo", "phi_vnfm", "psi_ms", "big_psi_ms", "gso_pop"))
    pr = data["params"]
    params = ManoParameters(
        nfvo_capacity=_as_int(pr["phi_nfvo"], "params.phi_nfvo"),
        vnfm_capacity=_as_int(pr["phi_vnfm"], "params.phi_vnfm"),
        gso_nfvo_delay_bound=_as_number(pr["psi_ms"], "params.psi_ms"),
        nfvo_vim_delay_bound=_as_number(pr["big_psi_ms"], "params.big_psi_ms"),
        gso_location=_as_int(pr["gso_pop"], "params.gso_pop"),
    )
    return ProblemInstance(tuple(pops), delays, tuple(vnfs), params)


def read_json(path: str | Path):
    """Decode a JSON input file; malformed JSON raises :class:`InstanceFormatError`."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: not valid JSON: {exc}") from exc


def load_problem(path: str | Path) -> ProblemInstance:
    """Load and validate an instance file.

    Raises :class:`InstanceFormatError` for files that do not match the
    schema and :class:`InstanceValidationError` (carrying every broken
    invariant) for well-formed files describing an invalid instance.
    """
    instance = parse_problem(read_json(path))
    report = validate_instance(instance)
    if not report.ok:
        raise InstanceValidationError(*report.entries)
    return instance


def problem_to_data(instance: ProblemInstance) -> dict:
    pops = []
    for p in instance.pops:
        entry: dict = {"id": int(p.id), "label": p.label}
        if p.coordinates is not None:
            entry["coordinates"] = [float(p.coordinates[0]), float(p.coordinates[1])]
        pops.append(entry)
    return {
        "pops": pops,
        "delays": [[float(x) for x in row] for row in instance.delays],
        "vnfs": [
            {"id": int(v.id), "location": int(v.location),
             "omega_ms": float(v.vnfm_delay_bound),
             "big_omega_ms": float(v.nfvo_vnfm_delay_bound)}
            for v in instance.vnfs
        ],
        "params": {
            "phi_nfvo": int(instance.params.nfvo_capacity),
            "phi_vnfm": int(instance.params.vnfm_capacity),
            "psi_ms": float(instance.params.gso_nfvo_delay_bound),
            "big_psi_ms": float(instance.params.nfvo_vim_delay_bound),
            "gso_pop": int(instance.params.gso_location),
        },
    }


def save_problem(instance: ProblemInstance, path: str | Path) -> None:
    """Write the instance as canonical JSON (round-trips through load_problem)."""
    Path(path).write_text(json.dumps(problem_to_data(instance), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Generation


def generate_instance(config: GeneratorConfig) -> ProblemInstance:
    """Generate a synthetic instance; identical configs give identical instances."""
    rng = np.random.default_rng(config.seed)
    n = config.pop_count
    coords = rng.uniform(0.0, config.area_side_km, size=(n, 2))
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    j = config.delay_jitter_fraction
    jitter = rng.uniform(1.0 - j, 1.0 + j, size=(n, n))
    d = config.delay_per_km * dist * jitter
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)

    locations = rng.integers(0, n, size=config.vnf_count)
    gso = int(d.max(axis=1).argmin())

    pops = tuple(
        PoP(id=i, label=f"pop{i}", coordinates=(float(coords[i, 0]), float(coords[i, 1])))
        for i in range(n)
    )
    vnfs = tuple(
        VnfInstance(id=i, location=int(locations[i]),
                    vnfm_delay_bound=config.vnfm_delay_bound,
                    nfvo_vnfm_delay_bound=config.nfvo_vnfm_delay_bound)
        for i in range(config.vnf_count)
    )
    params = ManoParameters(
        nfvo_capacity=config.nfvo_capacity,
        vnfm_capacity=config.vnfm_capacity,
        gso_nfvo_delay_bound=config.gso_nfvo_delay_bound,
        nfvo_vim_delay_bound=config.nfvo_vim_delay_bound,
        gso_location=gso,
    )
    return ProblemInstance(pops, tuple(map(tuple, d.tolist())), vnfs, params)


def with_uniform_vnfs(instance: ProblemInstance, count: int, seed: int,
                      vnfm_delay_bound: float = DEFAULT_VNF_VNFM_BOUND_MS,
                      nfvo_vnfm_delay_bound: float = DEFAULT_NFVO_VNFM_BOUND_MS,
                      ) -> ProblemInstance:
    """Same topology and parameters, fresh uniform VNF inventory of ``count`` VNFs.

    The experiment harness uses this to redraw the inventory at each sweep point
    while keeping the PoPs and delays fixed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    locations = rng.integers(0, instance.pop_count, size=count)
    vnfs = tuple(
        VnfInstance(id=i, location=int(locations[i]),
                    vnfm_delay_bound=vnfm_delay_bound,
                    nfvo_vnfm_delay_bound=nfvo_vnfm_delay_bound)
        for i in range(count)
    )
    return ProblemInstance(instance.pops, instance.delays, vnfs, instance.params)


# ---------------------------------------------------------------------------
# Bundled data


def bundled_instance_path(name: str) -> Path:
    """Path of a topology shipped with the package (``pop8`` or ``pop16``)."""
    base = resources.files("manoplace") / "data" / f"{name}.json"
    with resources.as_file(base) as p:
        return Path(p)


def resolve_instance_path(ref: str | Path) -> Path:
    """Resolve a CLI/config instance reference; ``bundled:<name>`` maps to package data."""
    s = str(ref)
    if s.startswith("bundled:"):
        return bundled_instance_path(s.split(":", 1)[1])
    return Path(s)


def load_instance_ref(ref: str | Path) -> ProblemInstance:
    """:func:`load_problem` on a plain path or a ``bundled:<name>`` reference."""
    return load_problem(resolve_instance_path(ref))


# ---------------------------------------------------------------------------
# Configuration files


def parse_config(cls, data: dict, where: str):
    """Build dataclass ``cls`` from a decoded JSON object, strictly: unknown
    keys and values its constructor rejects raise :class:`InstanceFormatError`."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise InstanceFormatError(f"{where}: unknown key(s) {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def parse_generator_config(data, where: str) -> GeneratorConfig:
    """The one reader of generator settings (``gen`` flags, ``gen --config``
    files and a sweep's ``generator`` object)."""
    if not isinstance(data, dict):
        raise InstanceFormatError(f"{where} must be an object")
    return parse_config(GeneratorConfig, data, where)
