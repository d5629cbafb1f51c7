"""Instance model, file IO, validation and the synthetic generator."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manoplace import (
    GeneratorConfig,
    InstanceFormatError,
    InstanceValidationError,
    generate_instance,
    load_problem,
    save_problem,
)
from manoplace._pcg64 import Pcg64
from manoplace.topology import (
    BUNDLED,
    ManoParameters,
    PoP,
    ProblemInstance,
    VnfInstance,
    parse_problem,
    problem_to_data,
    resolve_instance_path,
    validate_instance,
    with_uniform_vnfs,
)

from conftest import make_instance


def good_data():
    return {
        "pops": [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}],
        "delays": [[0.0, 10.0], [10.0, 0.0]],
        "vnfs": [{"id": 0, "location": 1, "omega_ms": 30.0, "big_omega_ms": 45.0}],
        "params": {"phi_nfvo": 20, "phi_vnfm": 10, "psi_ms": 80.0,
                   "big_psi_ms": 60.0, "gso_pop": 0},
    }


class TestDelays:
    def test_delays_are_nested_float_tuples(self):
        parsed = parse_problem(good_data()).delays
        generated = generate_instance(GeneratorConfig(pop_count=3, vnf_count=1)).delays
        for delays in (parsed, generated):
            assert type(delays) is tuple
            assert all(type(row) is tuple for row in delays)
            assert all(type(x) is float for row in delays for x in row)
        assert parsed[1][0] == parsed[0][1] == 10.0


class TestParsing:
    def test_round_trip(self, tmp_path):
        inst = parse_problem(good_data())
        path = tmp_path / "inst.json"
        save_problem(inst, path)
        again = load_problem(path)
        assert again == inst

    def test_round_trip_preserves_coordinates(self, tmp_path):
        inst = generate_instance(GeneratorConfig(pop_count=4, vnf_count=3, seed=1))
        path = tmp_path / "inst.json"
        save_problem(inst, path)
        again = load_problem(path)
        assert again == inst
        assert again.pops[0].coordinates is not None

    def test_pops_sorted_by_id(self):
        data = good_data()
        data["pops"] = list(reversed(data["pops"]))
        inst = parse_problem(data)
        assert [p.id for p in inst.pops] == [0, 1]

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(extra=1), "unknown"),
        (lambda d: d.pop("params"), "missing"),
        (lambda d: d["pops"][0].update(x=1), "unknown"),
        (lambda d: d["pops"][0].update(id=True), "integer"),
        (lambda d: d["pops"][0].update(id="0"), "integer"),
        (lambda d: d["vnfs"][0].pop("omega_ms"), "missing"),
        (lambda d: d["vnfs"][0].update(omega_ms="fast"), "number"),
        (lambda d: d["params"].update(phi_nfvo=2.5), "integer"),
        (lambda d: d.update(delays=[[0.0, "x"], [1.0, 0.0]]), "number"),
        (lambda d: d.update(pops={}), "list"),
        (lambda d: d["pops"][0].update(coordinates=[1.0]),
         r"pop 0: coordinates must be \[x, y\], got \[1.0\]"),
    ])
    def test_strict_parser_rejects(self, mutate, message):
        data = good_data()
        mutate(data)
        with pytest.raises(InstanceFormatError, match=message):
            parse_problem(data)

    @pytest.mark.parametrize("bad, shown", [
        (True, "True"), ("x", "'x'"), (None, "None"), ([1.0], "[1.0]"),
    ])
    @pytest.mark.parametrize("place, path", [
        (lambda d, x: d["delays"][1].__setitem__(0, x), "instance.delays[1][0]"),
        (lambda d, x: d["pops"][1].update(coordinates=[5.0, x]),
         "instance.pops[1].coordinates[1]"),
    ], ids=["delays", "coordinates"])
    def test_a_number_list_names_the_bad_element(self, place, path, bad, shown):
        data = good_data()
        place(data, bad)
        with pytest.raises(InstanceFormatError) as err:
            parse_problem(data)
        assert str(err.value) == f"{path} must be a number, got {shown}"

    def test_integer_numbers_are_read_as_floats(self):
        data = good_data()
        data["delays"] = [[0, 10], [10.0, 0]]
        data["pops"][0]["coordinates"] = [3, 4.5]
        inst = parse_problem(data)
        assert inst.delays == ((0.0, 10.0), (10.0, 0.0))
        assert inst.pops[0].coordinates == (3.0, 4.5)
        numbers = [*inst.pops[0].coordinates, *(x for row in inst.delays for x in row)]
        assert all(type(x) is float for x in numbers)

    def test_load_problem_rejects_invalid(self, tmp_path):
        data = good_data()
        data["delays"] = [[0.0, -5.0], [-5.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceValidationError) as err:
            load_problem(path)
        # The error carries the validator's whole report, first entry as message.
        entries = validate_instance(parse_problem(data))
        assert err.value.entries == entries
        assert len(entries) == 2
        assert str(err.value) == entries[0]

    def test_problem_to_data_matches_schema(self):
        inst = parse_problem(good_data())
        assert problem_to_data(inst) == good_data()


class TestValidation:
    def test_good_instance_is_clean(self, line3):
        assert validate_instance(line3) == ()

    @pytest.mark.parametrize("build, fragment", [
        (lambda: make_instance([[0, 10], [10, 0]], vnf_locs=(5,)), "location"),
        (lambda: make_instance([[0, 10], [10, 0]], vnf_locs=(0,), gso=7), "GSO"),
        (lambda: make_instance([[0, -1], [-1, 0]], vnf_locs=(0,)), "negative"),
        (lambda: make_instance([[1, 10], [10, 0]], vnf_locs=(0,)), "diagonal"),
        (lambda: make_instance([[0, 10], [11, 0]], vnf_locs=(0,)), "symmetric"),
        (lambda: make_instance([[0, float("nan")], [float("nan"), 0]],
                               vnf_locs=(0,)), "finite"),
        (lambda: make_instance([[0, 10], [10, 0]], vnf_locs=(0,),
                               nfvo_capacity=0), "capacity"),
        (lambda: make_instance([[0, 10], [10, 0]], vnf_locs=(0,),
                               vnf_bounds=[(0.0, 45.0)]), "bound"),
        (lambda: make_instance([]), "pops: instance has no PoPs"),
        (lambda: replace(make_instance([[0, 10], [10, 0]]), pops=(PoP(0), PoP(2))),
         "pops: ids are not dense and unique (expected 0..1)"),
        (lambda: replace(make_instance([[0, 10], [10, 0]]), pops=(PoP(0), PoP(1), PoP(2))),
         "delays: matrix has 2 rows but instance has 3 PoPs"),
        (lambda: make_instance([[0, 10], [10, 0]], vnf_locs=(0,), vnfm_capacity=0),
         "params: manager capacity must be >= 1"),
    ])
    def test_defects_are_reported(self, build, fragment):
        findings = validate_instance(build())
        assert findings
        assert any(fragment in entry for entry in findings), findings

    def test_ragged_matrix_is_a_validation_error(self, tmp_path):
        data = good_data()
        data["delays"] = [[0.0, 1.0], [1.0]]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceValidationError, match="square"):
            load_problem(path)

    def test_duplicate_vnf_ids(self):
        inst = make_instance([[0, 10], [10, 0]], vnf_locs=(0, 1))
        vnfs = (inst.vnfs[0], inst.vnfs[0])
        bad = type(inst)(pops=inst.pops, delays=inst.delays, vnfs=vnfs,
                         params=inst.params)
        findings = validate_instance(bad)
        assert any("duplicate" in e for e in findings), findings


class TestGenerator:
    def test_same_seed_same_instance(self):
        cfg = GeneratorConfig(pop_count=6, vnf_count=9, seed=42)
        assert generate_instance(cfg) == generate_instance(cfg)

    def test_different_seed_differs(self):
        a = generate_instance(GeneratorConfig(pop_count=6, vnf_count=9, seed=1))
        b = generate_instance(GeneratorConfig(pop_count=6, vnf_count=9, seed=2))
        assert a != b

    def test_matrix_properties(self):
        inst = generate_instance(GeneratorConfig(pop_count=10, vnf_count=5, seed=3))
        d = np.array(inst.delays)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        off = d[~np.eye(10, dtype=bool)]
        assert np.all(off > 0.0)
        assert validate_instance(inst) == ()

    def test_gso_is_a_one_center(self):
        inst = generate_instance(GeneratorConfig(pop_count=12, vnf_count=5, seed=7))
        d = np.array(inst.delays)
        ecc = d.max(axis=1)
        gso = inst.params.gso_location
        assert ecc[gso] == ecc.min()
        assert all(ecc[p] > ecc[gso] for p in range(gso))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(pop_count=0, vnf_count=1)
        with pytest.raises(ValueError):
            GeneratorConfig(pop_count=1, vnf_count=1, delay_jitter_fraction=1.0)
        with pytest.raises(ValueError, match="vnf_count must be >= 1"):
            GeneratorConfig(pop_count=1, vnf_count=0)
        with pytest.raises(ValueError, match="capacities must be >= 1"):
            GeneratorConfig(pop_count=1, vnf_count=1, vnfm_capacity=0)

    def test_vnf_locations_look_uniform(self):
        # Chi-square goodness of fit on 2000 draws over 5 PoPs. The 0.999
        # quantile of chi2 with 4 degrees of freedom is 18.467; a correct
        # uniform sampler stays under it for this fixed seed.
        inst = generate_instance(GeneratorConfig(pop_count=5, vnf_count=2000, seed=11))
        counts = np.bincount([v.location for v in inst.vnfs], minlength=5)
        expected = 2000 / 5
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < 18.467, (stat, counts.tolist())


class TestRedraw:
    def test_preserves_topology(self):
        base = generate_instance(GeneratorConfig(pop_count=6, vnf_count=4, seed=5))
        redrawn = with_uniform_vnfs(base, 9, seed=77)
        assert redrawn.pops == base.pops
        assert redrawn.delays == base.delays
        assert redrawn.params == base.params
        assert redrawn.vnf_count == 9
        assert all(0 <= v.location < 6 for v in redrawn.vnfs)

    def test_deterministic_per_seed(self):
        base = generate_instance(GeneratorConfig(pop_count=6, vnf_count=4, seed=5))
        assert with_uniform_vnfs(base, 9, seed=7) == with_uniform_vnfs(base, 9, seed=7)
        assert with_uniform_vnfs(base, 9, seed=7) != with_uniform_vnfs(base, 9, seed=8)

    def test_custom_bounds_applied(self):
        base = generate_instance(GeneratorConfig(pop_count=4, vnf_count=2, seed=5))
        redrawn = with_uniform_vnfs(base, 3, seed=1, vnfm_delay_bound=12.0,
                                    nfvo_vnfm_delay_bound=24.0)
        assert all(v.vnfm_delay_bound == 12.0 for v in redrawn.vnfs)
        assert all(v.nfvo_vnfm_delay_bound == 24.0 for v in redrawn.vnfs)

    def test_redraw_has_a_pinned_digest(self):
        # A change to the stream fails here, with or without numpy.
        redrawn = with_uniform_vnfs(load_problem("bundled:pop16"), 45, seed=3)
        text = json.dumps(problem_to_data(redrawn), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c52b868a789bcb41042d6ec0903cccb5482d43867f2154421f654e332fb6e72e")


# The in-package stream against numpy's: ``Pcg64(seed)`` must draw what
# ``numpy.random.default_rng(seed)`` draws, and the generator must build what
# the generator below builds with numpy's own arrays and arithmetic.

STREAM = settings(max_examples=200, derandomize=True, deadline=None, database=None)
# Seeds of one 32-bit entropy word, of two, of three and of more than four.
STREAM_SEEDS = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, 2**64, 2**64 + 9,
                2**128 + 3, 2**200 + 12345]
# Lemire's rule redraws about half the time for 2**31 + 1, almost never for the others.
BOUNDS_N = [1, 2, 3, 10, 2**31 - 1, 2**31 + 1, 2**32 - 1]


def numpy_generate_instance(config):
    rng = np.random.default_rng(config.seed)
    n = config.pop_count
    coords = rng.uniform(0.0, config.area_side_km, size=(n, 2))
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    j = config.delay_jitter_fraction
    jitter = rng.uniform(1.0 - j, 1.0 + j, size=(n, n))
    d = config.delay_per_km * dist * jitter
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    vnfs = numpy_uniform_vnfs(rng, n, config.vnf_count, config)
    pops = tuple(PoP(id=i, label=f"pop{i}", coordinates=(float(coords[i, 0]),
                                                         float(coords[i, 1])))
                 for i in range(n))
    params = ManoParameters(config.nfvo_capacity, config.vnfm_capacity,
                            config.gso_nfvo_delay_bound, config.nfvo_vim_delay_bound,
                            gso_location=int(d.max(axis=1).argmin()))
    return ProblemInstance(pops, tuple(map(tuple, d.tolist())), vnfs, params)


def numpy_uniform_vnfs(rng, pop_count, count, bounds):
    return tuple(VnfInstance(i, int(loc), bounds.vnfm_delay_bound, bounds.nfvo_vnfm_delay_bound)
                 for i, loc in enumerate(rng.integers(0, pop_count, size=count)))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_equals_numpy_default_rng(seed):
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    assert ours.uniform(0.0, 3000.0, 9) == theirs.uniform(0.0, 3000.0, size=9).tolist()
    for n in BOUNDS_N:
        # An odd count leaves half of a 64-bit draw for the next call.
        for count in (3, 4):
            assert ours.integers(n, count) == theirs.integers(0, n, size=count).tolist(), n
        assert ours.uniform(0.9, 1.1, 3) == theirs.uniform(0.9, 1.1, size=3).tolist(), n


@STREAM
@given(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                 st.integers(2**64, 2**256)),
       st.lists(st.tuples(st.sampled_from(BOUNDS_N + [None]), st.integers(0, 9)), max_size=6))
def test_drawn_streams_equal_numpy_default_rng(seed, draws):
    """``None`` draws uniforms on [0.5, 2.5), a number n integers below n."""
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    for n, count in draws:
        if n is None:
            assert ours.uniform(0.5, 2.5, count) == theirs.uniform(0.5, 2.5, size=count).tolist()
        else:
            assert ours.integers(n, count) == theirs.integers(0, n, size=count).tolist()


@STREAM
@given(st.builds(
    GeneratorConfig,
    pop_count=st.integers(1, 40),
    vnf_count=st.integers(1, 300),
    area_side_km=st.sampled_from([3000.0, 0.5]) | st.floats(1.0, 1e4),
    delay_per_km=st.sampled_from([0.018]) | st.floats(1e-4, 1.0),
    delay_jitter_fraction=st.sampled_from([0.0, 0.1]) | st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1) | st.integers(2**32, 2**100)))
@example(GeneratorConfig(pop_count=1, vnf_count=30, delay_jitter_fraction=0.0, seed=3))
@example(GeneratorConfig(pop_count=3, vnf_count=500, seed=2**70))
@example(GeneratorConfig(pop_count=128, vnf_count=480, area_side_km=777.7,
                         delay_per_km=0.0123, delay_jitter_fraction=0.37, seed=11))
def test_generated_instances_equal_the_numpy_generator(config):
    instance = generate_instance(config)
    assert problem_to_data(instance) == problem_to_data(numpy_generate_instance(config))
    count, seed = 2 * config.vnf_count, config.seed + 1
    redrawn = with_uniform_vnfs(instance, count, seed)
    assert redrawn.vnfs == numpy_uniform_vnfs(np.random.default_rng(seed),
                                              config.pop_count, count, config)


def served_per_vnf(instance):
    """``vnfs_served`` written out rule by rule, one VNF at a time."""
    d, n = instance.delays, instance.pop_count
    return tuple(tuple(sum(1 << i for i, v in enumerate(instance.vnfs)
                           if d[v.location][p] <= v.vnfm_delay_bound
                           and d[p][h] <= v.nfvo_vnfm_delay_bound)
                       for p in range(n))
                 for h in range(n))


def bounds_on_the_delays():
    """Delays 10, 20 and 30; every bound equals a delay, and VNFs 0-2 and
    3-4 share an orchestrator-manager bound."""
    d = [[0.0, 10.0, 20.0], [10.0, 0.0, 30.0], [20.0, 30.0, 0.0]]
    return make_instance(d, (0, 1, 2, 0, 2), vnf_bounds=[
        (10.0, 20.0), (20.0, 20.0), (10.0, 20.0), (30.0, 10.0), (20.0, 10.0)])


def mixed_on_a_topology():
    """A generated topology whose VNFs take their bounds from its delays."""
    base = generate_instance(GeneratorConfig(pop_count=9, vnf_count=40, seed=3))
    rng = random.Random(3)
    flat = sorted({x for row in base.delays for x in row if x > 0})
    vnfs = tuple(replace(v, vnfm_delay_bound=rng.choice(flat[:12]),
                         nfvo_vnfm_delay_bound=rng.choice(flat[::8]))
                 for v in base.vnfs)
    return replace(base, vnfs=vnfs)


class TestServedTable:
    @pytest.mark.parametrize("build", [
        bounds_on_the_delays,
        mixed_on_a_topology,
        lambda: generate_instance(GeneratorConfig(pop_count=12, vnf_count=45, seed=2)),
    ], ids=["bounds-equal-delays", "mixed-bounds", "generated"])
    def test_matches_the_rules_per_vnf(self, build):
        instance = build()
        assert instance.vnfs_served == served_per_vnf(instance)

    def test_a_delay_equal_to_a_bound_is_within_it(self):
        # Near each PoP: 0 has VNFs {0, 1, 3, 4}, VNF 4 at delay 20 = omega;
        # 1 has {0, 1, 3}, VNF 0 at delay 10 = omega; 2 has {2, 3, 4}. Head 0
        # keeps VNF 3 at PoP 1 (delay 10 = Omega), and head 2 keeps VNFs 0
        # and 1 at PoP 0 (delay 20 = Omega).
        assert bounds_on_the_delays().vnfs_served == (
            (0b11011, 0b01011, 0b00100),
            (0b11011, 0b01011, 0b00000),
            (0b00011, 0b00000, 0b11100))

    def test_empty_and_single_pop_tables(self):
        empty = with_uniform_vnfs(generate_instance(GeneratorConfig(6, 4, seed=1)), 0, seed=1)
        assert empty.vnfs_served == ((0,) * 6,) * 6
        with pytest.raises(ValueError, match="count must be >= 0"):
            with_uniform_vnfs(empty, -1, seed=1)
        assert make_instance([[0.0]], (0, 0)).vnfs_served == ((0b11,),)


class TestBundled:
    @pytest.mark.parametrize("name, pops", [("pop8", 8), ("pop16", 16)])
    def test_bundled_instances_load_and_validate(self, name, pops):
        inst = load_problem(f"bundled:{name}")
        assert inst.pop_count == pops
        assert inst.vnf_count == 10
        assert validate_instance(inst) == ()

    @pytest.mark.parametrize("name", ["pop8", "pop16"])
    def test_bundled_files_are_in_canonical_form(self, tmp_path, name):
        # Catches a key map that renames or reorders keys: the files keep
        # the order and names they were written with.
        path = resolve_instance_path(f"bundled:{name}")
        save_problem(load_problem(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_bundled_names_the_data_directory(self):
        data = resolve_instance_path("bundled:pop8").parent
        assert sorted(BUNDLED) == sorted(path.stem for path in data.glob("*.json"))

    def test_plain_paths_still_resolve(self, tmp_path):
        inst = parse_problem(good_data())
        path = tmp_path / "x.json"
        save_problem(inst, path)
        assert load_problem(str(path)) == inst
