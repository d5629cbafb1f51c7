"""Command line interface, driven in process through ``cli_main``."""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from manoplace import (
    check_feasibility,
    check_lp_file,
    load_problem,
    load_solution,
    save_problem,
)
from manoplace import cli
from manoplace.cli import cli_main

from conftest import make_instance


@pytest.fixture
def line3_file(tmp_path, line3):
    path = tmp_path / "line3.json"
    save_problem(line3, path)
    return str(path)


@pytest.fixture
def split_file(tmp_path):
    inst = make_instance([[0.0, 200.0], [200.0, 0.0]], vnf_locs=(1,))
    path = tmp_path / "split.json"
    save_problem(inst, path)
    return str(path)


class TestParsing:
    def test_no_command_prints_usage(self, capsys):
        assert cli_main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert cli_main(["validate", "--frobnicate"]) == 1
        assert "manoplace: error:" in capsys.readouterr().err

    def test_gen_requires_a_size(self, capsys, tmp_path):
        rc = cli_main(["gen", "--pops", "4",
                       "--output", str(tmp_path / "i.json")])
        assert rc == 1
        assert "gen requires" in capsys.readouterr().err


# Files that are not UTF-8, or JSON nested deeper than the decoder goes.
NOT_UTF8 = b'{"pop_count": \xff}'
DEEP = b"[" * 3000 + b"]" * 3000


@pytest.mark.parametrize("files, argv, fragment", [
    ({"gen.json": '{"pop_count": 4, "vnf_count": 3, "popz": 1}'},
     ["gen", "--config", "gen.json", "--output", "i.json"], "unknown key"),
    ({"gen.json": "{not json"},
     ["gen", "--config", "gen.json", "--output", "i.json"], "not valid JSON"),
    ({"gen.json": "[1, 2]"},
     ["gen", "--config", "gen.json", "--output", "i.json"],
     "gen.json must be an object, got [1, 2]"),
    ({}, ["gen", "--pops", "0", "--vnfs", "3", "--output", "i.json"],
     "error: --pops must be >= 1"),
    ({"sweep.json": json.dumps({"generator": {"pop_count": 4, "vnf_count": 4},
                                "stop_patience": 0, "output": "r.csv"})},
     ["experiment", "--config", "sweep.json"], "stop_patience must be >= 1"),
    ({}, ["solve-tsp", "bundled:pop8", "--patience", "0"], "--patience must be >= 1"),
    ({}, ["solve-tsp", "bundled:pop8", "--tenure", "0"], "--tenure must be >= 1"),
    ({}, ["solve-tsp", "bundled:pop8", "--samples", "0"], "--samples must be >= 1"),
    ({}, ["solve-exact", "bundled:pop8", "--max-nodes", "0"], "--max-nodes must be >= 1"),
    ({}, ["solve-exact", "bundled:pop8", "--time-limit", "0"], "--time-limit must be > 0"),
    ({}, ["solve-exact", "bundled:pop8", "--time-limit", "nan"], "--time-limit must be > 0"),
    ({"gen.json": '{"pop_count": 4.5, "vnf_count": 3}'},
     ["gen", "--config", "gen.json", "--output", "i.json"], "pop_count must be an integer"),
    ({"gen.json": '{"pop_count": true, "vnf_count": 3}'},
     ["gen", "--config", "gen.json", "--output", "i.json"], "pop_count must be an integer"),
    *(({"sweep.json": json.dumps({"generator": {"pop_count": 4, "vnf_count": 4},
                                  "output": "r.csv", **entries})},
       ["experiment", "--config", "sweep.json"], fragment)
      for entries, fragment in [
          ({"base_seed": 1.5}, "base_seed must be an integer"),
          ({"runs_per_point": 2.5}, "runs_per_point must be an integer"),
          ({"vnf_counts": [1.5]}, "vnf_counts entry must be an integer"),
          ({"vnf_counts": [True]}, "vnf_counts entry must be an integer"),
          ({"neighborhood_samples": 2.5}, "neighborhood_samples must be an integer"),
          ({"emit_solutions": "no"}, "emit_solutions must be a boolean"),
          ({"output": 5}, "output must be a string"),
          ({"solutions_dir": 5, "emit_solutions": True}, "solutions_dir must be a string"),
          ({"solutions_dir": "sols"}, "solutions_dir is set but emit_solutions is not"),
          ({"vnfm_delay_bound": "x"}, "vnfm_delay_bound must be a number"),
          ({"vnfm_delay_bound": -5}, "vnfm_delay_bound must be > 0"),
          ({"nfvo_vnfm_delay_bound": -5}, "nfvo_vnfm_delay_bound must be > 0"),
          ({"vnfm_delay_bound": float("nan")}, "vnfm_delay_bound must be > 0"),
          ({"nfvo_vnfm_delay_bound": float("inf")},
           "nfvo_vnfm_delay_bound must be > 0 and finite"),
          ({"oracle_time_limit_s": True}, "oracle_time_limit_s must be a number, got True"),
          ({"oracle_max_nodes": 0}, "oracle_max_nodes must be >= 1"),
          ({"oracle_time_limit_s": 0}, "oracle_time_limit_s must be > 0"),
          ({"base_seed": -5, "vnf_counts": [2]}, "base_seed must be >= 0"),
          ({"generator": {"pop_count": 4, "vnf_count": 4, "seed": -1}},
           "seed must be >= 0"),
          ({"generator": {"pop_count": 4, "vnf_count": 4, "vnfm_delay_bound": 1.0}},
           "generator.vnfm_delay_bound (1.0) differs from vnfm_delay_bound (30.0)"),
          ({"generator": {"pop_count": 4, "vnf_count": 4, "nfvo_vnfm_delay_bound": 1.0},
            "nfvo_vnfm_delay_bound": 1.0, "vnfm_delay_bound": 20.0},
           "generator.vnfm_delay_bound (30.0) differs from vnfm_delay_bound (20.0)"),
          ({"solutions_dir": "", "emit_solutions": True},
           "configuration object: solutions_dir must name a path, got ''"),
          ({"output": ""}, "configuration object: output must name a path, got ''")]),
    ({}, ["gen", "--pops", "3", "--vnfs", "2", "--seed", "-1", "--output", "i.json"],
     "error: --seed must be >= 0"),
    ({"gen.json": '{"pop_count": 4, "vnf_count": 3}'},
     ["gen", "--config", "gen.json", "--seed", "-1", "--output", "i.json"],
     "--seed must be >= 0"),
    ({}, ["solve-tsp", "bundled:pop8", "--seed", "-1"], "error: --seed must be >= 0"),
    ({"gen.json": '{"pop_count": 4, "vnf_count": 3}'},
     ["gen", "--config", "gen.json", "--jitter", "2", "--output", "i.json"],
     "--jitter must be in [0, 1)"),
    ({"gen.json": '{"pop_count": 4, "vnf_count": 3, "area_side_km": true}'},
     ["gen", "--config", "gen.json", "--output", "i.json"], "area_side_km must be a number"),
    ({"gen.json": '{"pop_count": 4, "vnf_count": 3, "area_side_km": Infinity}'},
     ["gen", "--config", "gen.json", "--output", "i.json"], "area_side_km must be > 0 and finite"),
    ({}, ["gen", "--pops", "3", "--vnfs", "2", "--area-km", "1e308", "--delay-per-km", "1e308",
          "--output", "i.json"], "--area-km and --delay-per-km make the delays overflow"),
    ({}, ["gen", "--pops", "3", "--vnfs", "2", "--area-km", "1e200", "--delay-per-km", "1e-200",
          "--output", "i.json"], "make the delays overflow"),
    ({"gen.json": '{"pop_count": 3, "vnf_count": 2, "area_side_km": 1e308}'},
     ["gen", "--config", "gen.json", "--delay-per-km", "1e308", "--output", "i.json"],
     "gen.json: area_side_km and --delay-per-km make the delays overflow"),
    ({"gen.json": '{"pop_count": 3, "vnf_count": 2, "delay_per_km": 1e308}'},
     ["gen", "--config", "gen.json", "--area-km", "1e308", "--output", "i.json"],
     "gen.json: --area-km and delay_per_km make the delays overflow"),
    ({"sweep.json": json.dumps({"generator": {"pop_count": 3, "vnf_count": 2,
                                              "area_side_km": 1e308, "delay_per_km": 1e308},
                                "output": "r.csv"})},
     ["experiment", "--config", "sweep.json"], "make the delays overflow"),
    *(({"s.json": json.dumps({"nfvos": [0], "assignments": assignments, "vnfms": vnfms})},
       ["check", "bundled:pop8", "s.json"], fragment)
      for assignments, vnfms, fragment in [
          ([0, 0], [], "plan covers 2 PoPs but instance has 8"),
          ([0] * 7 + [9], [], "head of PoP 7 is 9, out of range"),
          ([0] * 8, [{"location": 99, "vnf_ids": [0]}], "location 99 is out of range"),
          ([0] * 8, [{"location": 0, "vnf_ids": [999]}], "unknown VNF id 999")]),
    *(({"s.json": json.dumps({"objective": 3, "assignments": [0] * 8, "vnfms": [], **entries})},
       ["check", "bundled:pop8", "s.json"], fragment)
      for entries, fragment in [
          ({"nfvos": [0, 0]}, "solution: nfvos entry 0 is repeated"),
          ({"nfvos": [0]}, "solution: objective 3 differs from the solution's count of "
                           "orchestrators and managers, 1")]),
    # A file that is no solution object is named once, not as "solution: solution".
    ({"s.json": "[1, 2]"}, ["check", "bundled:pop8", "s.json"],
     "error: solution must be an object, got [1, 2]"),
    ({"s.json": json.dumps({"nfvos": [0], "assignments": [0] * 8})},
     ["check", "bundled:pop8", "s.json"], "error: solution: missing key(s) ['vnfms']"),
    ({"s.json": (resources.files("manoplace") / "data" / "pop8.json").read_text()},
     ["check", "bundled:pop8", "s.json"],
     "error: solution: unknown key(s) ['delays', 'params', 'pops', 'vnfs']"),
    ({"sweep.json": json.dumps({"instance_file": "", "output": "r.csv"})},
     ["experiment", "--config", "sweep.json"],
     "configuration object: instance_file must name a path, got ''"),
    ({"sweep.json": json.dumps({"generator": {"pop_count": 4, "vnf_count": 4},
                                "output": "r.csv"})},
     ["experiment", "--config", "sweep.json", "--output", ""],
     "error: argument --output: must name a file, got ''"),
    ({}, ["solve-tsp", "bundled:nope"],
     "error: bundled:nope: no such bundled topology; the bundled ones are pop8, pop16"),
    ({}, ["export-lp", "bundled:nope"], "error: bundled:nope: no such bundled topology"),
    ({"sweep.json": json.dumps({"instance_file": "bundled:nope", "output": "r.csv"})},
     ["experiment", "--config", "sweep.json"],
     "sweep.json: configuration object: bundled:nope: no such bundled topology; "
     "the bundled ones are pop8, pop16"),
    *[({"bad.json": text}, argv, fragment)
      for text, fragment in ((NOT_UTF8, "bad.json: not UTF-8 text"),
                             (DEEP, "bad.json: JSON nested too deeply to decode"))
      for argv in (["validate", "bad.json"], ["check", "bundled:pop8", "bad.json"],
                   ["experiment", "--config", "bad.json"],
                   ["gen", "--config", "bad.json", "--output", "i.json"])],
], ids=["gen-unknown-key", "gen-bad-json", "gen-list-config", "gen-zero-pops", "sweep-zero-patience",
        "tsp-zero-patience", "tsp-zero-tenure", "tsp-zero-samples", "exact-zero-nodes",
        "exact-zero-time", "exact-nan-time", "gen-float-pops", "gen-bool-pops",
        "sweep-float-seed", "sweep-float-runs", "sweep-float-count", "sweep-bool-count",
        "sweep-float-samples", "sweep-string-flag", "sweep-int-output",
        "sweep-int-solutions-dir", "sweep-solutions-dir-without-emit", "sweep-string-bound",
        "sweep-negative-bound", "sweep-negative-manager-bound", "sweep-nan-bound",
        "sweep-infinite-bound",
        "sweep-bool-time-limit", "sweep-zero-max-nodes", "sweep-zero-time-limit",
        "sweep-negative-seed", "sweep-negative-generator-seed",
        "sweep-generator-manager-bound", "sweep-bound-without-generator-bound",
        "sweep-empty-solutions-dir", "sweep-empty-output",
        "gen-negative-seed", "gen-config-negative-seed", "tsp-negative-seed",
        "gen-config-bad-jitter",
        "gen-bool-area", "gen-infinite-area", "gen-overflowing-delays", "gen-overflowing-area",
        "gen-config-overflowing-delays", "gen-flag-overflowing-config-delays",
        "sweep-overflowing-generator",
        "check-pop-count", "check-head-range", "check-manager-location", "check-unknown-vnf",
        "check-repeated-nfvo", "check-wrong-objective", "check-list-solution",
        "check-missing-key", "check-instance-as-solution", "sweep-empty-instance-file",
        "experiment-empty-output", "tsp-unknown-bundled", "lp-unknown-bundled",
        "sweep-unknown-bundled",
        *[f"{command}-{fault}" for fault in ("not-utf8", "deep")
          for command in ("validate", "check", "experiment", "gen")]])
def test_bad_inputs_are_usage_errors(capsys, monkeypatch, tmp_path, files, argv, fragment):
    monkeypatch.chdir(tmp_path)  # so a sweep that wrongly runs writes r.csv here
    for name, text in files.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("manoplace: error:") and err.count("\n") == 1, err
    assert fragment in err
    assert not (tmp_path / "i.json").exists() and not (tmp_path / "r.csv").exists()


INPUT = "is an input of this command and would be overwritten"


@pytest.mark.parametrize("argv, fragment", [
    (["gen", "--config", "gen.json", "--output", "gen.json"], INPUT),
    (["solve-tsp", "i.json", "--output", "i.json"], INPUT),
    (["solve-exact", "i.json", "--output", "./i.json"], INPUT),
    (["export-lp", "i.lp"], INPUT),
    (["export-lp", "i.json", "--output", "i.json"], INPUT),
    (["experiment", "--config", "sweep.json", "--output", "sweep.json"], INPUT),
    (["experiment", "--config", "onto-instance.json"], INPUT),
    (["experiment", "--config", "i_v2_tsp_s0.json"], INPUT),
    (["experiment", "--config", "onto-output.json"],
     "is the sweep's output and would be overwritten by a solution"),
    (["experiment", "--config", "dir-is-a-file.json"], "File exists: 'i.lp'"),
    (["experiment", "--config", "dir-is-the-csv.json"], "r.csv is a directory"),
    (["experiment", "--config", "sweep.json", "--output", "."], ". is a directory"),
], ids=["gen-config", "tsp", "exact", "export-lp-default", "export-lp", "experiment-config",
        "experiment-instance", "experiment-solution-config", "experiment-solution-output",
        "experiment-solutions-dir-is-a-file", "experiment-solutions-dir-is-the-csv",
        "experiment-csv-is-a-directory"])
def test_writing_over_an_input_is_a_usage_error(capsys, monkeypatch, tmp_path, line3, argv,
                                                fragment):
    monkeypatch.chdir(tmp_path)
    save_problem(line3, "i.json")
    Path("i.lp").write_bytes(Path("i.json").read_bytes())  # an instance named like its export
    Path("gen.json").write_text('{"pop_count": 3, "vnf_count": 2}')
    sweep = {"instance_file": "i.json", "vnf_counts": [2], "runs_per_point": 1}
    Path("sweep.json").write_text(json.dumps({**sweep, "output": "r.csv"}))
    Path("onto-instance.json").write_text(json.dumps({**sweep, "output": "i.json"}))
    # Solutions go to <instance>_v<count>_<algorithm>_s<seed>.json, beside the
    # CSV unless solutions_dir says otherwise.
    emit = {**sweep, "emit_solutions": True}
    Path("i_v2_tsp_s0.json").write_text(json.dumps({**emit, "output": "r.csv"}))
    Path("onto-output.json").write_text(json.dumps(
        {**emit, "algorithms": ["exact"], "output": "i_v2_exact_s0.json", "solutions_dir": "."}))
    # A solutions_dir that is a file, or a CSV that is a directory, fails
    # before any run, not after the CSV.
    pop8 = {**emit, "instance_file": "bundled:pop8", "vnf_counts": [6], "algorithms": ["exact"],
            "output": "r.csv"}
    Path("dir-is-a-file.json").write_text(json.dumps({**pop8, "solutions_dir": "i.lp"}))
    Path("dir-is-the-csv.json").write_text(json.dumps({**pop8, "solutions_dir": "r.csv"}))
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("manoplace: error:") and err.count("\n") == 1, err
    assert fragment in err
    assert not Path("r.csv").exists()
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


MISSING = "directory nodir does not exist"
EMPTY = "error: argument --output: must name a file, got ''"


@pytest.mark.parametrize("argv, fragment", [
    (["gen", "--pops", "3", "--vnfs", "2", "--output", "nodir/g.json"], MISSING),
    (["gen", "--pops", "3", "--vnfs", "2", "--output", "adir"], "adir is a directory"),
    (["solve-tsp", "bundled:pop16", "--output", "nodir/s.json"], MISSING),
    (["solve-tsp", "bundled:pop8", "--output", "adir"], "adir is a directory"),
    (["solve-tsp", "bundled:pop8", "--output", "f.json/s.json"],
     "directory f.json does not exist"),
    (["solve-exact", "bundled:pop8", "--output", "nodir/e.json"], MISSING),
    (["solve-exact", "bundled:pop8", "--output", "adir"], "adir is a directory"),
    (["export-lp", "bundled:pop8", "--output", "nodir/x.lp"], MISSING),
    (["export-lp", "bundled:pop8", "--output", "adir"], "adir is a directory"),
    (["gen", "--pops", "3", "--vnfs", "2", "--output", ""], EMPTY),
    (["solve-tsp", "bundled:pop8", "--output", ""], EMPTY),
    (["solve-exact", "bundled:pop8", "--output", ""], EMPTY),
    (["export-lp", "bundled:pop8", "--output", ""], EMPTY),
], ids=["gen-missing-dir", "gen-dir", "tsp-missing-dir", "tsp-dir", "tsp-dir-is-a-file",
        "exact-missing-dir", "exact-dir", "export-lp-missing-dir", "export-lp-dir",
        "gen-empty", "tsp-empty", "exact-empty", "export-lp-empty"])
def test_an_unwritable_output_is_refused_before_any_work(capsys, monkeypatch, tmp_path, argv,
                                                         fragment):
    monkeypatch.chdir(tmp_path)
    Path("adir").mkdir()
    Path("f.json").write_text("{}")
    for name in ("load_problem", "generate_instance"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    before = sorted(tmp_path.rglob("*"))
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("manoplace: error:") and err.count("\n") == 1, err
    assert fragment in err and argv[-1] in err
    assert sorted(tmp_path.rglob("*")) == before


# sha256 of the file ``gen`` writes with these flags: a change to the stream
# that draws generated instances fails here, with or without numpy.
GEN_P16 = ("--pops", "16", "--vnfs", "60", "--seed", "7")
GEN_DIGESTS = {
    GEN_P16:
        "90863302ede737874353b49343c14ee788391768f5bee3b35fe06a9f709a3170",
    ("--pops", "64", "--vnfs", "240", "--seed", "1"):
        "17895122c6d2cc24bfdd3255377ceffbb8e293d9a51bad905d428ce08352599f",
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGen:
    @pytest.mark.parametrize("flags", GEN_DIGESTS)
    def test_files_have_pinned_digests(self, tmp_path, flags):
        out = tmp_path / "i.json"
        assert cli_main(["gen", *flags, "--output", str(out)]) == 0
        assert sha256_of(out) == GEN_DIGESTS[flags]

    def test_writes_a_valid_instance(self, capsys, tmp_path):
        out = tmp_path / "i.json"
        rc = cli_main(["gen", "--pops", "4", "--vnfs", "5", "--seed", "3",
                       "--output", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        assert cli_main(["validate", str(out)]) == 0
        assert "ok (4 pops, 5 vnfs)" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert cli_main(["gen", "--pops", "5", "--vnfs", "6",
                             "--seed", "11", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_drives_the_generator(self, capsys, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"pop_count": 6, "vnf_count": 7, "seed": 2}))
        out = tmp_path / "i.json"
        rc = cli_main(["gen", "--config", str(cfg), "--output", str(out)])
        assert rc == 0
        inst = load_problem(out)
        assert (inst.pop_count, inst.vnf_count) == (6, 7)

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"pop_count": 6, "vnf_count": 7, "seed": 5}))
        runs = {"config": ["--config", str(cfg)],
                "flag": ["--config", str(cfg), "--seed", "0"],
                "plain": ["--pops", "6", "--vnfs", "7", "--seed", "0"]}
        for name, argv in runs.items():
            assert cli_main(["gen", *argv, "--output", str(tmp_path / name)]) == 0
        read = {name: (tmp_path / name).read_bytes() for name in runs}
        assert read["flag"] == read["plain"] != read["config"]

    def test_flags_override_the_config_file(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"pop_count": 4, "vnf_count": 5, "seed": 3}))
        flags = ["--pops", "9", "--vnfs", "30", "--area-km", "10",
                 "--delay-per-km", "0.5", "--jitter", "0.2"]
        runs = {"over": ["--config", str(cfg), *flags], "plain": [*flags, "--seed", "3"]}
        for name, argv in runs.items():
            assert cli_main(["gen", *argv, "--output", str(tmp_path / name)]) == 0
        assert (tmp_path / "over").read_bytes() == (tmp_path / "plain").read_bytes()
        inst = load_problem(tmp_path / "over")
        assert (inst.pop_count, inst.vnf_count) == (9, 30)

    def test_flags_complete_a_partial_config_file(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"seed": 3}))
        out = tmp_path / "i.json"
        assert cli_main(["gen", "--config", str(cfg), "--pops", "4", "--vnfs", "5",
                         "--output", str(out)]) == 0
        inst = load_problem(out)
        assert (inst.pop_count, inst.vnf_count) == (4, 5)


class TestValidate:
    def test_bundled_instances_pass(self, capsys):
        assert cli_main(["validate", "bundled:pop8"]) == 0
        assert cli_main(["validate", "bundled:pop16"]) == 0

    def test_defective_instance_lists_findings(self, capsys, tmp_path, line3):
        path = tmp_path / "bad.json"
        save_problem(line3, path)
        data = json.loads(path.read_text())
        data["delays"][0][1] = 99.0  # break symmetry
        path.write_text(json.dumps(data))
        assert cli_main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "not symmetric" in out
        assert err.startswith("manoplace: invalid instance:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("section, key, fragment", [
        ("params", "psi_ms", "GSO-orchestrator delay bound"),
        ("params", "big_psi_ms", "orchestrator-VIM delay bound"),
        ("vnfs", "omega_ms", "VNF-manager delay bound"),
        ("vnfs", "big_omega_ms", "orchestrator-manager delay bound"),
    ])
    def test_non_finite_bounds_are_findings(self, capsys, tmp_path, line3, section, key,
                                            fragment):
        path = tmp_path / "bound.json"
        save_problem(line3, path)
        data = json.loads(path.read_text())
        target = data["params"] if section == "params" else data["vnfs"][0]
        for value in (float("nan"), float("inf")):  # JSON NaN and Infinity, which json reads
            target[key] = value
            path.write_text(json.dumps(data))
            assert cli_main(["validate", str(path)]) == 2
            assert f"{fragment} must be > 0 and finite" in capsys.readouterr().out
            # No row ends in "<= inf": the export stops before writing.
            assert cli_main(["export-lp", str(path)]) == 2
            assert not path.with_suffix(".lp").exists()

    def test_unreadable_files_are_usage_errors(self, capsys, tmp_path):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{]")
        assert cli_main(["validate", str(garbled)]) == 1
        assert cli_main(["validate", str(tmp_path / "absent.json")]) == 1


class TestSolve:
    def test_tsp_prints_and_writes_a_feasible_solution(self, capsys, tmp_path,
                                                       line3_file, line3):
        out = tmp_path / "sol.json"
        rc = cli_main(["solve-tsp", line3_file, "--seed", "4",
                       "--output", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "objective=" in text
        assert "nfvo locations:" in text
        assert "iterations=" in text
        sol = load_solution(out)
        assert check_feasibility(line3, sol).ok

    def test_tsp_is_deterministic_per_seed(self, capsys, tmp_path, line3_file):
        outs = []
        for name in ("a.json", "b.json"):
            cli_main(["solve-tsp", line3_file, "--seed", "9",
                      "--output", str(tmp_path / name)])
            outs.append((tmp_path / name).read_bytes())
            capsys.readouterr()
        assert outs[0] == outs[1]

    def test_tsp_reports_infeasibility(self, capsys, split_file):
        assert cli_main(["solve-tsp", split_file]) == 2
        err = capsys.readouterr().err
        assert "no feasible plan" in err and err.count("\n") == 1
        # PoP 1 is out of reach of the GSO and of PoP 0: one per-PoP rule is left.
        assert "best penalty reached: 1 = per-PoP rules 1 + look-ahead 0 + capacity 0" in err

    def test_exact_solves_and_reports_status(self, capsys, line3_file):
        assert cli_main(["solve-exact", line3_file]) == 0
        assert "status=optimal" in capsys.readouterr().out

    def test_exact_writes_its_status_and_node_count(self, capsys, tmp_path, line3_file):
        out = tmp_path / "e.json"
        assert cli_main(["solve-exact", line3_file, "--output", str(out)]) == 0
        status_line = capsys.readouterr().out.splitlines()[0]
        data = json.loads(out.read_text())
        assert status_line == (f"status={data['status']} "
                               f"nodes_explored={data['nodes_explored']}")
        assert data["status"] == "optimal"
        assert cli_main(["check", line3_file, str(out)]) == 0
        # An exceeded budget writes its incumbent, with the same two keys.
        instance = tmp_path / "g.json"
        assert cli_main(["gen", "--pops", "12", "--vnfs", "40", "--seed", "3",
                         "--output", str(instance)]) == 0
        capsys.readouterr()
        assert cli_main(["solve-exact", str(instance), "--max-nodes", "200",
                         "--output", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["status=budget_exceeded nodes_explored=201",
                              "objective=6 nfvos=2 vnfms=4"]
        data = json.loads(out.read_text())
        assert (data["status"], data["nodes_explored"], data["objective"]) == (
            "budget_exceeded", 201, 6)
        assert cli_main(["check", str(instance), str(out)]) == 0

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "two_step_place_detailed", boom)
        assert cli_main(["solve-tsp", "bundled:pop8"]) == 3
        assert capsys.readouterr().err == "manoplace: internal error: boom\n"

    def test_exact_infeasible_exit_code(self, capsys, split_file):
        assert cli_main(["solve-exact", split_file]) == 2
        out, err = capsys.readouterr()
        assert "status=infeasible" in out
        assert err.startswith("manoplace: no solution: infeasible after")
        assert err.count("\n") == 1, err

    def test_exact_budget_exhaustion_exit_code(self, capsys):
        rc = cli_main(["solve-exact", "bundled:pop8", "--max-nodes", "1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "status=budget_exceeded" in out
        assert err == "manoplace: no solution: budget_exceeded after 2 nodes\n"

    def test_exact_time_limit_covers_manager_placement(self, capsys, tmp_path, bridged_pairs,
                                                       alarm):
        path = tmp_path / "slow.json"
        save_problem(bridged_pairs, path)
        alarm(10)
        start = time.monotonic()
        assert cli_main(["solve-exact", str(path), "--time-limit", "1"]) == 2
        # The solver reports an alarm's TimeoutError as its own budget hit.
        assert time.monotonic() - start < 3.0
        out, err = capsys.readouterr()
        assert out == "status=budget_exceeded nodes_explored=2\n"
        assert err == "manoplace: no solution: budget_exceeded after 2 nodes\n"


class TestCheck:
    def test_feasible_pair(self, capsys, tmp_path, line3_file):
        sol = tmp_path / "sol.json"
        cli_main(["solve-tsp", line3_file, "--output", str(sol)])
        capsys.readouterr()
        assert cli_main(["check", line3_file, str(sol)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_violations_are_listed(self, capsys, tmp_path, line3_file):
        sol = tmp_path / "sol.json"
        cli_main(["solve-tsp", line3_file, "--output", str(sol)])
        tight = make_instance([[0, 10, 20], [10, 0, 10], [20, 10, 0]],
                              vnf_locs=(0, 1, 2), nfvo_vim_bound=5.0)
        tight_file = tmp_path / "tight.json"
        save_problem(tight, tight_file)
        capsys.readouterr()
        assert cli_main(["check", str(tight_file), str(sol)]) == 2
        out, err = capsys.readouterr()
        assert "violation(s)" in out
        assert err.startswith(f"manoplace: infeasible solution: {sol}: ")
        assert err.endswith(" violation(s)\n") and err.count("\n") == 1, err


class TestExportLp:
    def test_summary_line_and_grammar(self, capsys, tmp_path):
        inst = make_instance([[0, 10], [10, 0]], vnf_locs=(1,))
        path = tmp_path / "tiny.json"
        save_problem(inst, path)
        rc = cli_main(["export-lp", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "variables=14 constraints=40" in out
        lp_path = tmp_path / "tiny.lp"
        assert lp_path.exists()
        assert check_lp_file(lp_path) == []

    def test_bundled_instance_writes_to_the_current_directory(self, capsys, tmp_path,
                                                              monkeypatch):
        data = resources.files("manoplace") / "data"
        before = sorted(p.name for p in data.iterdir())
        monkeypatch.chdir(tmp_path)
        assert cli_main(["export-lp", "bundled:pop8"]) == 0
        assert capsys.readouterr().out.endswith("\nwrote pop8.lp\n")
        assert check_lp_file(tmp_path / "pop8.lp") == []
        assert sorted(p.name for p in data.iterdir()) == before

    def test_explicit_output_path(self, capsys, tmp_path, line3_file):
        target = tmp_path / "model.lp"
        assert cli_main(["export-lp", line3_file,
                         "--output", str(target)]) == 0
        assert target.exists()


class TestExperiment:
    def test_sweep_runs_and_reports(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "generator": {"pop_count": 4, "vnf_count": 4, "seed": 1},
            "vnf_counts": [3],
            "algorithms": ["tsp"],
            "runs_per_point": 2,
            "output": str(tmp_path / "r.csv"),
        }))
        assert cli_main(["experiment", "--config", str(cfg)]) == 0
        assert "2 runs, 0 failed" in capsys.readouterr().out
        assert (tmp_path / "r.csv").exists()

    def test_output_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "generator": {"pop_count": 4, "vnf_count": 4, "seed": 1},
            "vnf_counts": [3],
            "algorithms": ["tsp"],
            "runs_per_point": 1,
            "output": str(tmp_path / "ignored.csv"),
        }))
        target = tmp_path / "elsewhere.csv"
        assert cli_main(["experiment", "--config", str(cfg),
                         "--output", str(target)]) == 0
        assert target.exists()
        assert not (tmp_path / "ignored.csv").exists()


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "i.json"
    proc = subprocess.run(
        [sys.executable, "-m", "manoplace", "gen", "--pops", "4",
         "--vnfs", "3", "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


# A two-point sweep over a bundled topology, for the numpy-free runs.
SWEEP = {"instance_file": "bundled:pop8", "vnf_counts": [6, 12],
         "algorithms": ["tsp", "exact"], "runs_per_point": 1, "output": "r.csv"}
NUMPY_FREE_RUNS = [["validate", "bundled:pop8"],
                   ["solve-tsp", "bundled:pop8", "--output", "s.json"],
                   ["check", "bundled:pop8", "s.json"],
                   ["solve-exact", "bundled:pop8"],
                   ["export-lp", "bundled:pop8"],
                   ["gen", *GEN_P16, "--output", "g.json"],
                   ["experiment", "--config", "sweep.json"]]
NUMPY_FREE_FILES = ["s.json", "pop8.lp", "g.json", "r.csv"]


def test_every_command_runs_without_numpy(capsys, monkeypatch, tmp_path):
    # None in sys.modules makes every ``import numpy`` raise ImportError.
    script = ("import contextlib, io, json, sys\n"
              "sys.modules['numpy'] = None\n"
              "from manoplace import check_lp_file\n"
              "from manoplace.cli import cli_main\n"
              "runs = []\n"
              f"for argv in {NUMPY_FREE_RUNS!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "        runs.append((cli_main(argv), out.getvalue()))\n"
              "print(json.dumps([runs, check_lp_file('pop8.lp')]))\n")
    src = str(Path(resources.files("manoplace")).parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    bare = tmp_path / "bare"
    bare.mkdir()
    for where in (bare, tmp_path):
        (where / "sweep.json").write_text(json.dumps(SWEEP))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=bare, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    runs, findings = json.loads(proc.stdout)
    assert findings == []
    monkeypatch.chdir(tmp_path)
    for argv, (code, out) in zip(NUMPY_FREE_RUNS, runs, strict=True):
        assert code == 0, argv
        assert cli_main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv
    for name in NUMPY_FREE_FILES:
        assert (bare / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert sha256_of(bare / "g.json") == GEN_DIGESTS[GEN_P16]


def readme_transcript():
    """``(argv, expected output lines)`` of each ``$ manoplace`` command in
    the README's command-line block; a ``...`` line ends the lines compared."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ manoplace "):
            runs.append((shlex.split(line)[2:], []))
        elif line and runs:
            runs[-1][1].append(line)
    return runs


def test_readme_transcript(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runs = readme_transcript()
    assert len(runs) == 5
    for argv, expected in runs:
        assert cli_main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if "..." in expected:
            expected = expected[:expected.index("...")]
            out = out[:len(expected)]
        assert out == expected, argv


def test_readme_python_example(capsys):
    """The README's Python block runs as written, and the heuristic it runs
    is no better than the optimum it prints beside it."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    tsp, exact = namespace["solution"].objective, namespace["reference"].objective
    assert exact is not None and tsp >= exact
    assert capsys.readouterr().out == f"{tsp} {exact}\n"
