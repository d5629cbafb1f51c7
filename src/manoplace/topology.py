"""Problem instances: PoP topologies, delay matrices, VNF inventories.

An instance bundles everything the placement algorithms need: the set of
NFVI-PoPs, the pairwise management-plane delays between them, the VNF
inventory (each VNF pinned to a location PoP and carrying its two manager
delay bounds), and the global MANO parameters (component capacities, the
GSO location and the GSO/VIM delay bounds).

Instances are plain frozen dataclasses. Constructing one does not validate
it; ``validate_instance`` returns one finding per broken invariant, and
``load_problem``, the one instance loader, refuses files whose instances have
any. It takes a plain path or a ``bundled:<name>`` reference to a topology
shipped in the package's ``data`` directory.

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

``coordinates`` is optional and only informative. The key map
``INSTANCE_FORMAT`` is the one definition of this format: each object's keys
in file order, with the field each fills and the kind of its value. ``_read``
and ``_write`` walk it, and ``model.SOLUTION_FORMAT`` for solution files,
which then keep two rules that span keys: ``nfvos`` entries are distinct PoP
ids, and an ``objective`` counts the orchestrators plus managers.

Every input file is read with the same checks: ``read_json`` decodes it
as UTF-8, ``check_keys`` rejects unknown and missing keys and
``check_type`` the values of the wrong kind. ``named_by_flag`` names a
settings field by the flag or key that set it, and ``refuse_overwrite``
keeps a command off its inputs.

The solvers read the delays in one form, ``delays``, from which
``ProblemInstance.vnfs_served`` builds its table with prefix masks and
``bisect``. ``bits``, beside it and ``vnfs_at``, walks the set bits of
their masks. The generator (``generate_instance``, ``with_uniform_vnfs``)
draws from ``Pcg64``, numpy's ``default_rng(seed)`` stream in pure Python,
so generated instances equal numpy's and the package imports nothing outside
the standard library.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Iterator

from ._pcg64 import Pcg64
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
        ``delays[p][h] <= v.nfvo_vnfm_delay_bound``.

        The first rule gives ``near[p]``, the VNFs close enough to PoP p, in
        one pass over the VNFs. For the second, the VNFs are sorted by
        orchestrator bound, largest first, with ``prefix[k]`` the first k of
        them: the VNFs whose bound is at least ``delays[p][h]`` are the
        prefix that ``bisect_right`` finds for that delay."""
        vnfs = self.vnfs
        near = [0] * self.pop_count
        for i, v in enumerate(vnfs):
            for p, x in enumerate(self.delays[v.location]):
                if x <= v.vnfm_delay_bound:
                    near[p] |= 1 << i
        order = sorted(range(len(vnfs)), key=lambda i: -vnfs[i].nfvo_vnfm_delay_bound)
        negated = [-vnfs[i].nfvo_vnfm_delay_bound for i in order]
        prefix = [0]
        for i in order:
            prefix.append(prefix[-1] | 1 << i)
        return tuple(tuple(near[p] & prefix[bisect_right(negated, -row[h])]
                           for p, row in enumerate(self.delays))
                     for h in range(self.pop_count))

    @cached_property
    def vnfs_at(self) -> tuple[int, ...]:
        """Per PoP, the VNFs located there."""
        masks = [0] * self.pop_count
        for i, v in enumerate(self.vnfs):
            masks[v.location] |= 1 << i
        return tuple(masks)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string", list: "a list", dict: "an object"}
_ACCEPTED = {float: (int, float), list: (list, tuple)}


def check_type(name: str, value, kind: type):
    """Return ``value``; raise :class:`TypeError` unless it is a ``kind``:
    ``int``, ``float`` (any number), ``bool``, ``str``, ``list`` (a tuple
    passes too) or ``dict``. A bool is neither an integer nor a number: in
    the JSON files these checks guard, ``true`` is not a count."""
    if (not isinstance(value, _ACCEPTED.get(kind, kind))
            or (isinstance(value, bool) and kind is not bool)):
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def check_keys(name: str, data, keys, optional=()) -> None:
    """Raise :class:`TypeError` unless ``data`` is an object holding every
    key of ``keys`` but those in ``optional``, and no other key."""
    check_type(name, data, dict)
    unknown = data.keys() - set(keys)
    if unknown:
        raise TypeError(f"{name}: unknown key(s) {sorted(unknown)}")
    missing = [k for k in keys if k not in data and k not in optional]
    if missing:
        raise TypeError(f"{name}: missing key(s) {missing}")


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
        positive = ("area_side_km", "delay_per_km", "vnfm_delay_bound",
                    "nfvo_vnfm_delay_bound", "gso_nfvo_delay_bound", "nfvo_vim_delay_bound")
        for name in (*positive, "delay_jitter_fraction"):
            check_type(name, getattr(self, name), float)
        if self.pop_count < 1:
            raise ValueError("pop_count must be >= 1")
        if self.vnf_count < 1:
            raise ValueError("vnf_count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be > 0 and finite")
        if self.nfvo_capacity < 1 or self.vnfm_capacity < 1:
            raise ValueError("capacities must be >= 1")
        if not 0 <= self.delay_jitter_fraction < 1:
            raise ValueError("delay_jitter_fraction must be in [0, 1)")
        # The generator squares distances and adds two jittered delays: at the
        # square's diagonal both must stay finite.
        side, per_km = self.area_side_km, self.delay_per_km
        if not (2 * side * side < math.inf and 4 * math.sqrt(2) * side * per_km < math.inf):
            raise ValueError("area_side_km and delay_per_km make the delays overflow")


def validate_instance(instance: ProblemInstance) -> tuple[str, ...]:
    """Check every instance invariant: one human-readable finding per broken
    invariant, none for a well-formed instance.

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
        if not 0 < v.vnfm_delay_bound < math.inf:  # NaN fails too
            entries.append(f"vnf {v.id}: VNF-manager delay bound must be > 0 and finite")
        if not 0 < v.nfvo_vnfm_delay_bound < math.inf:
            entries.append(f"vnf {v.id}: orchestrator-manager delay bound must be > 0 and finite")

    pr = instance.params
    if pr.nfvo_capacity < 1:
        entries.append("params: orchestrator capacity must be >= 1")
    if pr.vnfm_capacity < 1:
        entries.append("params: manager capacity must be >= 1")
    if not 0 < pr.gso_nfvo_delay_bound < math.inf:
        entries.append("params: GSO-orchestrator delay bound must be > 0 and finite")
    if not 0 < pr.nfvo_vim_delay_bound < math.inf:
        entries.append("params: orchestrator-VIM delay bound must be > 0 and finite")
    if not 0 <= pr.gso_location < n:
        entries.append(f"params: GSO location {pr.gso_location} is not a valid PoP id")

    return tuple(entries)


# ---------------------------------------------------------------------------
# JSON loading / saving


def _object(cls, keys: dict) -> tuple:
    """A key map entry for an object read into ``cls``; the keys whose field
    defaults to None may be missing."""
    defaults = {f.name: f.default for f in fields(cls)}
    return cls, keys, [k for k, (field, _) in keys.items() if defaults[field] is None]


# The instance file format. An object is (class, {JSON key: (field, kind)},
# optional keys), its keys in file order; a kind is a type for
# ``check_type``, another object, or [kind] for a list of that kind.
INSTANCE_FORMAT = _object(ProblemInstance, {
    "pops": ("pops", [_object(PoP, {
        "id": ("id", int), "label": ("label", str), "coordinates": ("coordinates", [float]),
    })]),
    "delays": ("delays", [[float]]),
    "vnfs": ("vnfs", [_object(VnfInstance, {
        "id": ("id", int), "location": ("location", int),
        "omega_ms": ("vnfm_delay_bound", float),
        "big_omega_ms": ("nfvo_vnfm_delay_bound", float),
    })]),
    "params": ("params", _object(ManoParameters, {
        "phi_nfvo": ("nfvo_capacity", int), "phi_vnfm": ("vnfm_capacity", int),
        "psi_ms": ("gso_nfvo_delay_bound", float), "big_psi_ms": ("nfvo_vim_delay_bound", float),
        "gso_pop": ("gso_location", int),
    })),
})


def _read(value, kind, name: str):
    """Read decoded JSON ``value`` as ``kind`` of the key map, strictly;
    numbers come back as floats."""
    if isinstance(kind, type):
        check_type(name, value, kind)
        return float(value) if kind is float else value
    if isinstance(kind, list):
        check_type(name, value, list)
        # A list of plain numbers is checked in one pass; any other element
        # takes the walk below, which names it.
        if kind[0] is float and all(type(x) is float or type(x) is int for x in value):
            return tuple([float(x) for x in value])
        return tuple([_read(x, kind[0], f"{name}[{i}]") for i, x in enumerate(value)])
    cls, keys, optional = kind
    check_keys(name, value, keys, optional)
    return cls(**{field: _read(value[key], sub, f"{name}.{key}")
                  for key, (field, sub) in keys.items() if key in value})


def _write(value, kind):
    """``value`` as the JSON data ``_read`` takes back; None fields are left out."""
    if isinstance(kind, type):
        return kind(value)
    if isinstance(kind, list):
        return [_write(x, kind[0]) for x in value]
    return {key: _write(getattr(value, field), sub)
            for key, (field, sub) in kind[1].items() if getattr(value, field) is not None}


def parse_problem(data) -> ProblemInstance:
    """Build an instance from already-decoded JSON data (strict keys and
    kinds, no validation); PoPs come back sorted by id."""
    try:
        instance = _read(data, INSTANCE_FORMAT, "instance")
        for p in instance.pops:
            if p.coordinates is not None and len(p.coordinates) != 2:
                raise TypeError(f"pop {p.id}: coordinates must be [x, y], "
                                f"got {list(p.coordinates)}")
    except TypeError as exc:
        raise InstanceFormatError(str(exc)) from None
    return replace(instance, pops=tuple(sorted(instance.pops, key=lambda p: p.id)))


def read_json(path: str | Path):
    """Decode a JSON input file read as UTF-8. A file that is not UTF-8, not
    valid JSON or nested too deeply to decode raises :class:`InstanceFormatError`."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise InstanceFormatError(f"{path}: JSON nested too deeply to decode") from None


def refuse_overwrite(output: str | Path | None, *inputs: str | Path | None) -> None:
    """Raise :class:`FileExistsError` when ``output`` resolves to one of
    ``inputs``, the files a command reads: writing it would destroy them."""
    if output is None:
        return
    target = Path(output).resolve()
    if any(source is not None and Path(source).resolve() == target for source in inputs):
        raise FileExistsError(f"{output} is an input of this command and would be overwritten")


def load_problem(path: str | Path) -> ProblemInstance:
    """Load and validate an instance file, a path or a ``bundled:<name>`` reference.

    Raises :class:`InstanceFormatError` for files that do not match the
    schema and :class:`InstanceValidationError` (carrying every broken
    invariant) for well-formed files describing an invalid instance.
    """
    instance = parse_problem(read_json(resolve_instance_path(path)))
    findings = validate_instance(instance)
    if findings:
        raise InstanceValidationError(*findings)
    return instance


def problem_to_data(instance: ProblemInstance) -> dict:
    return _write(instance, INSTANCE_FORMAT)


def save_problem(instance: ProblemInstance, path: str | Path) -> None:
    """Write the instance as canonical JSON (round-trips through load_problem)."""
    Path(path).write_text(json.dumps(problem_to_data(instance), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Generation


def _uniform_vnfs(rng: Pcg64, pop_count: int, count: int,
                  vnfm_delay_bound: float, nfvo_vnfm_delay_bound: float,
                  ) -> tuple[VnfInstance, ...]:
    """VNFs 0..count-1 at PoPs drawn uniformly from ``rng``, all with the
    given bounds."""
    return tuple(VnfInstance(id=i, location=loc, vnfm_delay_bound=vnfm_delay_bound,
                             nfvo_vnfm_delay_bound=nfvo_vnfm_delay_bound)
                 for i, loc in enumerate(rng.integers(pop_count, count)))


def generate_instance(config: GeneratorConfig) -> ProblemInstance:
    """Generate a synthetic instance; identical configs give identical instances."""
    rng = Pcg64(config.seed)
    n, k, j = config.pop_count, config.delay_per_km, config.delay_jitter_fraction
    # numpy's draw order (coordinates, then jitter, both row-major) and its
    # order of arithmetic, so the delays equal what numpy computed.
    flat = rng.uniform(0.0, config.area_side_km, 2 * n)
    coords = list(zip(flat[0::2], flat[1::2]))
    jitter = iter(rng.uniform(1.0 - j, 1.0 + j, n * n))
    d = [[k * math.sqrt((xa - xb) * (xa - xb) + (ya - yb) * (ya - yb)) * next(jitter)
          for xb, yb in coords] for xa, ya in coords]
    delays = tuple(tuple(0.0 if a == b else (d[a][b] + d[b][a]) / 2.0 for b in range(n))
                   for a in range(n))

    vnfs = _uniform_vnfs(rng, n, config.vnf_count, config.vnfm_delay_bound,
                         config.nfvo_vnfm_delay_bound)
    maxima = [max(row) for row in delays]
    gso = maxima.index(min(maxima))

    pops = tuple(PoP(id=i, label=f"pop{i}", coordinates=xy) for i, xy in enumerate(coords))
    params = ManoParameters(
        nfvo_capacity=config.nfvo_capacity,
        vnfm_capacity=config.vnfm_capacity,
        gso_nfvo_delay_bound=config.gso_nfvo_delay_bound,
        nfvo_vim_delay_bound=config.nfvo_vim_delay_bound,
        gso_location=gso,
    )
    return ProblemInstance(pops, delays, vnfs, params)


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
    vnfs = _uniform_vnfs(Pcg64(seed), instance.pop_count, count,
                         vnfm_delay_bound, nfvo_vnfm_delay_bound)
    return ProblemInstance(instance.pops, instance.delays, vnfs, instance.params)


# ---------------------------------------------------------------------------
# Bundled data


BUNDLED = ("pop8", "pop16")  # the topologies in the package's data directory


def resolve_instance_path(ref: str | Path) -> Path:
    """Resolve a CLI/config instance reference; ``bundled:<name>`` is the
    topology ``<name>`` shipped in the package's ``data`` directory, one of
    ``BUNDLED``. Any other name raises :class:`InstanceFormatError`."""
    s = str(ref)
    if not s.startswith("bundled:"):
        return Path(s)
    name = s.split(":", 1)[1]
    if name not in BUNDLED:
        raise InstanceFormatError(f"{s}: no such bundled topology; "
                                  f"the bundled ones are {', '.join(BUNDLED)}")
    return Path(__file__).with_name("data") / f"{name}.json"


# ---------------------------------------------------------------------------
# Configuration files


def parse_config(cls, data, where: str):
    """Build dataclass ``cls`` from a decoded JSON object, strictly: a value
    that is no object, unknown keys, missing keys (the fields without a
    default) and values the constructor rejects raise
    :class:`InstanceFormatError`."""
    try:
        check_keys(where, data, [f.name for f in fields(cls)],
                   [f.name for f in fields(cls) if f.default is not MISSING])
    except TypeError as exc:
        raise InstanceFormatError(str(exc)) from None
    try:
        return cls(**data)
    except (TypeError, ValueError, InstanceFormatError) as exc:  # the last: a sweep's generator
        raise InstanceFormatError(f"{where}: {exc}") from exc


def named_by_flag(message: str, flags: dict[str, tuple[str, object]], prefix: str = "",
                  read: frozenset[str] = frozenset()) -> str:
    """``message``, which names settings fields after ``prefix``, naming each
    field that ``flags`` (``{flag: (field, value)}``) has by its flag, a
    command-line flag or a sweep file's key; a message that then opens with a
    flag drops ``prefix``, unless it still names a field of ``read``, the
    fields read from the file ``prefix`` names."""
    if not message.startswith(prefix):
        return message
    flag_of = {name: flag for flag, (name, _value) in flags.items()}
    words = [flag_of.get(word, word) for word in message[len(prefix):].split(" ")]
    flagged = words[0] in flags and read.isdisjoint(words)
    return " ".join(words) if flagged else prefix + " ".join(words)
