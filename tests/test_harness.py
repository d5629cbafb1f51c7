"""Sweep harness: configuration parsing, CSV shape, reproducibility."""

from __future__ import annotations

import csv
import hashlib
import json

import pytest

from manoplace import (
    GeneratorConfig,
    InstanceFormatError,
    TabuParams,
    check_feasibility,
    generate_instance,
    load_experiment_config,
    load_solution,
    run_experiment,
    save_problem,
    solve_exact,
    two_step_place,
)
from manoplace import harness
from manoplace.harness import CSV_HEADER, ExperimentConfig
from manoplace.topology import with_uniform_vnfs

from conftest import make_instance


def small_config(tmp_path, **overrides):
    base = dict(
        generator=GeneratorConfig(pop_count=4, vnf_count=4, seed=2),
        vnf_counts=(3, 5),
        algorithms=("tsp", "exact"),
        runs_per_point=3,
        base_seed=7,
        output=str(tmp_path / "results.csv"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_requires_exactly_one_topology_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(instance_file="x.json",
                             generator=GeneratorConfig(pop_count=4, vnf_count=4))

    @pytest.mark.parametrize("overrides", [
        {"vnf_counts": ()},
        {"vnf_counts": (0, 5)},
        {"algorithms": ()},
        {"algorithms": ("tsp", "annealing")},
        {"runs_per_point": 0},
    ])
    def test_rejects_bad_grids(self, tmp_path, overrides):
        with pytest.raises(ValueError):
            small_config(tmp_path, **overrides)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "generator": {"pop_count": 5, "vnf_count": 6, "seed": 9},
            "vnf_counts": [4, 8],
            "algorithms": ["exact", "tsp"],
            "runs_per_point": 2,
            "base_seed": 3,
            "output": "out.csv",
        }))
        config = load_experiment_config(path)
        assert config.generator == GeneratorConfig(pop_count=5, vnf_count=6, seed=9)
        assert config.vnf_counts == (4, 8)
        assert config.algorithms == ("exact", "tsp")
        assert config.runs_per_point == 2

    @pytest.mark.parametrize("payload, fragment", [
        ("[1, 2]", "configuration object"),
        ("{not json", "not valid JSON"),
        ('{"instance_file": "x.json", "runz": 3}', "unknown key"),
        ('{"instance_file": "x.json", "generator": {"pop_count": 4, "vnf_count": 4}}',
         "exactly one"),
        ('{"generator": {"pop_count": 4, "vnf_count": 4, "popz": 1}}',
         "unknown key"),
        ('{"generator": 7}', "generator must be an object"),
        ('{"instance_file": "x.json", "algorithms": ["simplex"]}',
         "unknown algorithm"),
        ('{"instance_file": "x.json", "algorithms": [["tsp"]]}',
         "unknown algorithm \\['tsp'\\] \\(expected 'tsp' or 'exact'\\)"),
    ])
    def test_load_rejects_malformed_files(self, tmp_path, payload, fragment):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(InstanceFormatError, match=fragment):
            load_experiment_config(path)

    @pytest.mark.parametrize("generator, message", [
        ({"pop_count": 4, "vnf_count": 4, "popz": 1}, "generator: unknown key(s) ['popz']"),
        ({"pop_count": 4}, "generator: missing key(s) ['vnf_count']"),
        ({"pop_count": 0, "vnf_count": 4}, "generator: pop_count must be >= 1"),
        (7, "generator must be an object, got 7"),
    ], ids=["unknown-key", "missing-key", "bad-value", "not-an-object"])
    def test_generator_errors_name_the_sweep_file(self, tmp_path, generator, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generator": generator}))
        with pytest.raises(InstanceFormatError) as caught:
            load_experiment_config(path)
        assert str(caught.value) == f"{path}: configuration object: {message}"


class TestRunExperiment:
    def test_csv_shape_and_canonical_order(self, tmp_path):
        config = small_config(tmp_path)
        records = run_experiment(config)
        # 2 points x (3 tsp runs + 1 exact run)
        assert len(records) == 8
        rows = read_rows(config.output)
        assert rows[0] == list(CSV_HEADER)
        body = rows[1:]
        assert len(body) == 8 + 4  # one aggregate per (point, algorithm)
        keys = [(int(r[2]), r[3]) for r in body]
        assert keys == [
            (3, "exact"), (3, "exact:mean"),
            (3, "tsp"), (3, "tsp"), (3, "tsp"), (3, "tsp:mean"),
            (5, "exact"), (5, "exact:mean"),
            (5, "tsp"), (5, "tsp"), (5, "tsp"), (5, "tsp:mean"),
        ]
        tsp_seeds = [int(r[4]) for r in body if r[3] == "tsp" and int(r[2]) == 3]
        assert tsp_seeds == [7, 8, 9]
        exact_rows = [r for r in body if r[3] == "exact"]
        assert [r[4] for r in exact_rows] == ["7", "7"]
        for r in body:
            assert r[1] == "4"
            assert r[0] == "gen4s2"

    def test_rows_match_direct_solver_calls(self, tmp_path):
        config = small_config(tmp_path)
        records = run_experiment(config)
        base = generate_instance(config.generator)
        for record in records:
            point = with_uniform_vnfs(base, record.vnfs,
                                      seed=config.base_seed + record.vnfs)
            if record.algorithm == "tsp":
                sol = two_step_place(point, TabuParams(seed=record.seed))
            else:
                sol = solve_exact(point).solution
            assert record.status == "ok"
            assert record.objective == sol.objective
            assert record.nfvo_count == sol.plan.nfvo_count
            assert record.vnfm_count == sol.vnfm_count

    def test_reruns_are_byte_identical(self, tmp_path):
        first = small_config(tmp_path, output=str(tmp_path / "a.csv"))
        second = small_config(tmp_path, output=str(tmp_path / "b.csv"))
        run_experiment(first)
        run_experiment(second)
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert b"\r" not in a  # one newline convention on every platform

    def test_default_runtime_is_zero_and_wall_clock_opts_in(self, tmp_path):
        config = small_config(tmp_path, runs_per_point=1)
        run_experiment(config)
        runtimes = {r[9] for r in read_rows(config.output)[1:]}
        assert runtimes == {"0.000", "0.00"}  # per-run and aggregate cells
        timed = small_config(tmp_path, runs_per_point=1, wall_clock=True,
                             output=str(tmp_path / "timed.csv"))
        run_experiment(timed)
        per_run = [r[9] for r in read_rows(timed.output)[1:]
                   if r[10] == "ok"]
        assert any(cell not in ("0.000", "") for cell in per_run)

    def test_emitted_solutions_are_feasible(self, tmp_path):
        config = small_config(
            tmp_path, runs_per_point=2, emit_solutions=True,
            solutions_dir=str(tmp_path / "sols"))
        records = run_experiment(config)
        base = generate_instance(config.generator)
        ok = [r for r in records if r.status == "ok"]
        assert ok
        for record in ok:
            name = (f"{record.instance}_v{record.vnfs}_{record.algorithm}"
                    f"_s{record.seed}.json")
            sol = load_solution(tmp_path / "sols" / name)
            point = with_uniform_vnfs(base, record.vnfs,
                                      seed=config.base_seed + record.vnfs)
            assert check_feasibility(point, sol).ok
            assert sol.objective == record.objective

    def test_instance_file_source_uses_the_file_stem(self, tmp_path):
        inst = generate_instance(GeneratorConfig(pop_count=4, vnf_count=4, seed=0))
        inst_path = tmp_path / "metro.json"
        save_problem(inst, inst_path)
        config = ExperimentConfig(
            instance_file=str(inst_path), vnf_counts=(3,),
            algorithms=("tsp",), runs_per_point=1,
            output=str(tmp_path / "r.csv"))
        records = run_experiment(config)
        assert {r.instance for r in records} == {"metro"}

    def test_failed_runs_leave_numeric_cells_empty(self, tmp_path):
        inst = make_instance([[0.0, 200.0], [200.0, 0.0]], vnf_locs=(1,))
        inst_path = tmp_path / "split.json"
        save_problem(inst, inst_path)
        config = ExperimentConfig(
            instance_file=str(inst_path), vnf_counts=(1,),
            algorithms=("tsp", "exact"), runs_per_point=2,
            output=str(tmp_path / "r.csv"))
        records = run_experiment(config)
        assert [r.status for r in records] == [
            "infeasible", "no_feasible_plan", "no_feasible_plan"]
        rows = read_rows(config.output)[1:]
        tsp_rows = [r for r in rows if r[3] == "tsp"]
        for r in tsp_rows:
            assert r[5:9] == ["", "", "", ""]
        # aggregates over zero successful runs carry no numbers at all
        agg = [r for r in rows if r[10] == "aggregate"]
        assert len(agg) == 2
        for r in agg:
            assert r[4:10] == [""] * 6


def test_sweep_outputs_are_pinned(tmp_path):
    """The CSV and every solution file of a sweep whose groups all succeed
    (3 VNFs), partly fail (8 VNFs: two of five tsp runs find a plan) or all
    fail (40 VNFs overfill the four domains), with a count and an algorithm
    repeated, byte for byte."""
    config = ExperimentConfig(
        generator=GeneratorConfig(pop_count=4, vnf_count=4, seed=2,
                                  gso_nfvo_delay_bound=20.0, nfvo_capacity=4),
        vnf_counts=(8, 3, 40, 8), algorithms=("tsp", "exact", "tsp"), runs_per_point=5,
        stop_patience=1, output=str(tmp_path / "r.csv"), emit_solutions=True,
        solutions_dir=str(tmp_path / "sols"))
    statuses = [(r.vnfs, r.algorithm, r.status) for r in run_experiment(config)]
    assert statuses.count((8, "tsp", "ok")) == 2
    assert statuses.count((8, "tsp", "no_feasible_plan")) == 3
    assert (40, "exact", "infeasible") in statuses
    digest = hashlib.sha256((tmp_path / "r.csv").read_bytes()).hexdigest()
    assert digest == "a017a40164c89e78284829a261142d767ae2ee4b10a6d34dbfbcc498ff2e486a"
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted((tmp_path / "sols").iterdir())}
    v3, v3_tsp0, v8_exact, v8_tsp = (
        "5d2d7886c90b18a2c698a6e1cbef313dd86d5212ba554df297d35308cfe1b6bc",
        "02090d3727ed4d716a385af4c08f128cc51863c23363c5862f105407b22d52b6",
        "26fbbe36689ca95717bcb42addbbb0139fd66f2b5a448c91420a467e6828180d",
        "ba9e5313cb016107aecc41414b44b60bc238402dba0bb27bf53386da805fdb1e")
    assert files == {
        "gen4s2_v3_exact_s0.json": v3, "gen4s2_v3_tsp_s0.json": v3_tsp0,
        **{f"gen4s2_v3_tsp_s{seed}.json": v3 for seed in (1, 2, 3, 4)},
        "gen4s2_v8_exact_s0.json": v8_exact,
        "gen4s2_v8_tsp_s2.json": v8_tsp, "gen4s2_v8_tsp_s3.json": v8_tsp,
    }


@pytest.mark.parametrize("target", ["output", "solution"])
def test_sweep_refuses_to_write_over_its_instance(monkeypatch, tmp_path, target):
    # The instance sits where the sweep's first solution would go, and
    # i.json links to it; the CSV would go over the instance itself.
    (tmp_path / "sols").mkdir()
    real = tmp_path / "sols" / "i_v3_exact_s0.json"
    save_problem(generate_instance(GeneratorConfig(pop_count=4, vnf_count=4, seed=0)), real)
    (tmp_path / "i.json").symlink_to(real)
    before = real.read_bytes()
    loads, load = [], harness.load_problem
    monkeypatch.setattr(harness, "load_problem", lambda path: loads.append(path) or load(path))
    sweep = dict(instance_file=str(tmp_path / "i.json"), vnf_counts=(3,),
                 algorithms=("exact", "tsp"), runs_per_point=1)
    if target == "output":
        config = ExperimentConfig(**sweep, output=str(real))
    else:
        config = ExperimentConfig(**sweep, output=str(tmp_path / "r.csv"),
                                  emit_solutions=True, solutions_dir=str(tmp_path / "sols"))
    with pytest.raises(FileExistsError) as caught:
        run_experiment(config)
    assert str(caught.value) == f"{real} is an input of this command and would be overwritten"
    assert loads == []  # refused before the instance loads, so before any solve
    assert real.read_bytes() == before
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["i.json", "i_v3_exact_s0.json", "sols"]


def test_a_missing_instance_is_reported_before_a_directory_output(tmp_path):
    config = ExperimentConfig(instance_file=str(tmp_path / "missing.json"), vnf_counts=(3,),
                              runs_per_point=1, output=str(tmp_path))
    with pytest.raises(FileNotFoundError):
        run_experiment(config)
