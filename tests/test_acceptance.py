"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
``[PASS]``/``[FAIL]`` line with the measured evidence, so a test run reads
as a checklist. The criteria deliberately re-derive their expectations with
independent code (brute-force enumeration, raw constraint arithmetic, byte
comparison) instead of trusting the library's own reporting.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from itertools import product
from types import SimpleNamespace

import pytest

from manoplace import (
    GeneratorConfig,
    OracleStatus,
    TabuParams,
    check_feasibility,
    check_lp_file,
    export_lp,
    generate_instance,
    run_experiment,
    solve_exact,
    two_step_place,
    two_step_place_detailed,
)
from manoplace.harness import ExperimentConfig

from conftest import _parse_lp, cluster_instance, make_instance
from test_oracle import brute_force


@pytest.fixture
def report(capsys):
    """Print one checklist line per criterion, then enforce it."""
    def _emit(criterion: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[{verdict}] criterion {criterion}: {detail}")
        assert ok, f"criterion {criterion}: {detail}"
    return _emit


# ---------------------------------------------------------------------------
# Shared corpus: 50 small instances, each solved exactly once and by the
# heuristic under 20 seeds. Criteria 1 to 3 all read from this.

@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    entries = []
    for i in range(50):
        config = GeneratorConfig(pop_count=4 + i % 2, vnf_count=6 + i % 7,
                                 seed=i)
        instance = generate_instance(config)
        exact = solve_exact(instance)
        assert exact.status is OracleStatus.OPTIMAL, (i, exact.status)
        tsp = {seed: two_step_place(instance, TabuParams(seed=seed))
               for seed in range(20)}
        entries.append(SimpleNamespace(instance=instance, exact=exact, tsp=tsp))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(entries=entries, elapsed=elapsed)


def test_criterion_01_heuristic_tracks_the_optimum(corpus, report):
    within = 0
    worst = 0.0
    never_below = True
    for entry in corpus.entries:
        optimal = entry.exact.objective
        ratios = [sol.objective / optimal for sol in entry.tsp.values()]
        if any(sol.objective < optimal for sol in entry.tsp.values()):
            never_below = False
        mean_ratio = sum(ratios) / len(ratios)
        worst = max(worst, mean_ratio)
        if mean_ratio <= 1.4:
            within += 1
    ok = (within >= 45 and never_below and corpus.elapsed < 300.0)
    report(1, ok,
           f"{within}/50 instances with mean objective ratio <= 1.4 "
           f"(worst {worst:.3f}), heuristic never beat the optimum, "
           f"corpus solved in {corpus.elapsed:.1f}s")


def test_criterion_02_every_solution_checks_clean(corpus, report):
    checked = 0
    violations = 0
    for entry in corpus.entries:
        solutions = [entry.exact.solution] + list(entry.tsp.values())
        for sol in solutions:
            result = check_feasibility(entry.instance, sol)
            checked += 1
            violations += len(result.entries)
    ok = checked >= 200 and violations == 0
    report(2, ok, f"{checked} feasibility checks, {violations} violations")


def test_criterion_03_objective_respects_the_capacity_floor(corpus, report):
    checked = 0
    breaches = 0
    for entry in corpus.entries:
        params = entry.instance.params
        floor = (math.ceil(entry.instance.vnf_count / params.nfvo_capacity)
                 + math.ceil(entry.instance.vnf_count / params.vnfm_capacity))
        for sol in [entry.exact.solution] + list(entry.tsp.values()):
            checked += 1
            if sol.objective < floor:
                breaches += 1
    ok = breaches == 0
    report(3, ok, f"{checked} solutions all at or above "
                  f"ceil(V/Phi) + ceil(V/phi); {breaches} below")


# ---------------------------------------------------------------------------
# Criterion 4: the linearized model must describe exactly the same plans as
# the products it replaced. Everything here is re-derived from raw instance
# data; the library only contributes the exported file, read back by the
# test suite's own parser.

def structured_assignments(P, V, plans=None):
    """All 0/1 assignments whose r rows, x rows, and y rows are one-hot;
    ``plans``, a list of head tuples, limits the r rows to those plans."""
    M = V
    for heads in plans or product(range(P), repeat=P):
        base = {}
        for q in range(P):
            for p in range(P):
                base[f"r_{q}_{p}"] = 1.0 if heads[q] == p else 0.0
        for p in range(P):
            base[f"h_{p}"] = base[f"r_{p}_{p}"]
        for x_of in product(range(-1, P), repeat=M):
            with_x = dict(base)
            for m in range(M):
                for p in range(P):
                    with_x[f"x_{m}_{p}"] = 1.0 if x_of[m] == p else 0.0
            for y_of in product(range(M * P), repeat=V):
                a = dict(with_x)
                for v in range(V):
                    mi, pi = divmod(y_of[v], P)
                    for m in range(M):
                        for p in range(P):
                            a[f"y_{v}_{m}_{p}"] = (
                                1.0 if (m, p) == (mi, pi) else 0.0)
                yield a


def hand_feasible(instance, a):
    """Direct arithmetic over the quadratic formulation; ignores z values."""
    P, V = instance.pop_count, instance.vnf_count
    M = V
    d = instance.delays
    params = instance.params
    locs = [v.location for v in instance.vnfs]

    def r(q, p):
        return a[f"r_{q}_{p}"]

    def y(v, m, p):
        return a[f"y_{v}_{m}_{p}"]

    for q in range(P):
        if sum(r(q, p) for p in range(P)) != 1.0:
            return False
    for q in range(P):
        for p in range(P):
            if r(q, p) > a[f"h_{p}"]:
                return False
    for p in range(P):
        if r(p, p) != a[f"h_{p}"]:
            return False
    for m in range(M):
        if sum(a[f"x_{m}_{p}"] for p in range(P)) > 1.0:
            return False
    for v in range(V):
        if sum(y(v, m, p) for m in range(M) for p in range(P)) != 1.0:
            return False
    for v in range(V):
        for m in range(M):
            for p in range(P):
                if y(v, m, p) > a[f"x_{m}_{p}"]:
                    return False
    for m in range(M):
        for p in range(P):
            managed = sum(y(v, m, p) for v in range(V))
            if managed > params.vnfm_capacity * a[f"x_{m}_{p}"]:
                return False
            if a[f"x_{m}_{p}"] > managed:
                return False
    for q in range(P):
        if a[f"h_{q}"] and d[params.gso_location][q] > params.gso_nfvo_delay_bound:
            return False
    for q in range(P):
        for p in range(P):
            if r(q, p) and d[q][p] > params.nfvo_vim_delay_bound:
                return False
    for v in range(V):
        for m in range(M):
            for q in range(P):
                if y(v, m, q) and d[locs[v]][q] > instance.vnfs[v].vnfm_delay_bound:
                    return False
    # Product constraints, evaluated as products.
    for v in range(V):
        for m in range(M):
            for host in range(P):
                if not y(v, m, host):
                    continue
                for p in range(P):
                    if r(host, p) and not r(locs[v], p):
                        return False
                    if r(host, p) and d[p][host] > instance.vnfs[v].nfvo_vnfm_delay_bound:
                        return False
    for p in range(P):
        managed = sum(y(v, m, q) * r(q, p)
                      for v in range(V) for m in range(M) for q in range(P))
        if managed > params.nfvo_capacity * a[f"h_{p}"]:
            return False
    return True


def model_holds(rows, a):
    """Whether ``a`` satisfies every row read back by ``_parse_lp``."""
    for _name, terms, sense, rhs in rows:
        lhs = sum(coef * a[name] for name, coef in terms.items())
        if sense == "<=":
            if lhs > rhs + 1e-9:
                return False
        elif sense == ">=":
            if lhs < rhs - 1e-9:
                return False
        elif abs(lhs - rhs) > 1e-9:
            return False
    return True


def plug_z(a, variables):
    b = dict(a)
    for name in variables:
        if name.startswith("z_"):
            _, v, m, q, p = name.split("_")
            b[name] = a[f"y_{v}_{m}_{q}"] * a[f"r_{q}_{p}"]
    return b


def test_criterion_04_linearization_is_exact(report, tmp_path):
    instances = [
        make_instance([[0, 10], [10, 0]], (1,)),
        make_instance([[0, 10], [10, 0]], (1,), vnf_bounds=[(5.0, 45.0)]),
        make_instance([[0, 25], [25, 0]], (0, 1),
                      vnf_bounds=[(5.0, 45.0), (30.0, 20.0)]),
        make_instance([[0, 10, 20], [10, 0, 10], [20, 10, 0]], (2,)),
        make_instance([[0, 10, 70], [10, 0, 40], [70, 40, 0]], (0, 2),
                      vnf_bounds=[(15.0, 45.0), (30.0, 45.0)]),
        make_instance([[0, 10, 70], [10, 0, 40], [70, 40, 0]], (0, 2),
                      nfvo_capacity=1, vnfm_capacity=1),
    ]
    start = time.perf_counter()
    compared = 0
    feasible_seen = 0
    mismatches = 0
    rng = random.Random(20240822)
    for i, instance in enumerate(instances):
        path = tmp_path / f"c4_{i}.lp"
        export_lp(instance, path)
        _objective, rows, variables = _parse_lp(path)
        z_names = [n for n in variables if n.startswith("z_")]
        exhaustive_z = len(z_names) <= 4
        for a in structured_assignments(instance.pop_count, instance.vnf_count):
            direct = hand_feasible(instance, a)
            linearized = model_holds(rows, plug_z(a, variables))
            if exhaustive_z:
                exists = any(
                    model_holds(rows, {**a, **dict(zip(z_names, bits))})
                    for bits in product((0.0, 1.0), repeat=len(z_names)))
                if exists != linearized:
                    mismatches += 1
            compared += 1
            feasible_seen += direct
            if direct != linearized:
                mismatches += 1
        # Unstructured corners: arbitrary 0/1 vectors, z included.
        for _ in range(300):
            a = {name: float(rng.getrandbits(1)) for name in variables}
            if model_holds(rows, a) and not hand_feasible(instance, a):
                mismatches += 1
            if hand_feasible(instance, a) and not model_holds(
                    rows, plug_z(a, variables)):
                mismatches += 1
            compared += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and feasible_seen > 0 and elapsed < 30.0
    report(4, ok,
           f"{compared} assignments compared across 6 instances, "
           f"{feasible_seen} feasible, {mismatches} formulation "
           f"disagreements, {elapsed:.1f}s")


def test_criterion_05_clusters_force_two_orchestrators(report):
    instance = cluster_instance(2)
    exact = solve_exact(instance)
    counts = {("exact", 0): exact.solution.plan.nfvo_count}
    for seed in range(5):
        sol = two_step_place(instance, TabuParams(seed=seed))
        counts[("tsp", seed)] = sol.plan.nfvo_count
    ok = (exact.status is OracleStatus.OPTIMAL
          and all(c == 2 for c in counts.values()))
    report(5, ok, f"two 5 ms clusters 70 ms apart: orchestrator counts "
                  f"{sorted(set(counts.values()))} from the exact solver "
                  f"and 5 heuristic seeds (need exactly 2)")


def test_criterion_06_bundled_sweep_grows_sensibly(report, tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        instance_file="bundled:pop16",
        vnf_counts=(10, 20, 30, 40, 50, 60),
        algorithms=("tsp",),
        runs_per_point=20,
        base_seed=0,
        output=str(tmp_path / "sweep.csv"),
    )
    records = run_experiment(config)
    elapsed = time.perf_counter() - start
    assert all(r.status == "ok" for r in records)
    means = {}
    for count in config.vnf_counts:
        group = [r for r in records if r.vnfs == count]
        assert len(group) == 20
        means[count] = (
            sum(r.objective for r in group) / 20,
            sum(r.nfvo_count for r in group) / 20,
            sum(r.vnfm_count for r in group) / 20,
        )
    totals = [means[c][0] for c in config.vnf_counts]
    monotone = all(a <= b + 1e-9 for a, b in zip(totals, totals[1:]))
    nfvo_growth = means[60][1] - means[10][1]
    vnfm_growth = means[60][2] - means[10][2]
    ok = monotone and vnfm_growth >= nfvo_growth and elapsed < 180.0
    report(6, ok,
           f"16-PoP sweep, mean objective {totals[0]:.1f} -> {totals[-1]:.1f} "
           f"({'non-decreasing' if monotone else 'NOT monotone'}), "
           f"manager growth {vnfm_growth:.1f} vs orchestrator growth "
           f"{nfvo_growth:.1f}, {elapsed:.1f}s")


def test_criterion_07_stop_rule_accounting_is_exact(report):
    cases = [(4, 0), (4, 3), (5, 1), (5, 7), (7, 2)]
    checked = 0
    exact = True
    for pop_count, inst_seed in cases:
        instance = generate_instance(GeneratorConfig(
            pop_count=pop_count, vnf_count=8, seed=inst_seed))
        for seed in (0, 1):
            search = two_step_place_detailed(
                instance, TabuParams(seed=seed)).search
            checked += 1
            if search.stop_patience != 4 * pop_count:
                exact = False
            if search.iterations - search.last_improvement != search.stop_patience:
                exact = False
    report(7, exact,
           f"{checked} searches all stopped exactly 4|P| iterations after "
           f"their last improvement")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, cwd):
    exe = shutil.which("manoplace")
    cmd = [exe] if exe else [sys.executable, "-m", "manoplace"]
    # The child runs in ``cwd``, where a relative PYTHONPATH would not resolve.
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd + list(args), capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, (args, proc.stderr)
    return proc


def test_criterion_08_cli_runs_are_byte_identical(report, tmp_path):
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()

    def pair_of(command_for):
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            run_cli(command_for(out), cwd=tmp_path)
            outs.append(out)
        return outs

    identical = []

    one, two = pair_of(lambda out: [
        "gen", "--pops", "6", "--vnfs", "9", "--seed", "13",
        "--output", str(out / "inst.json")])
    identical.append((one / "inst.json").read_bytes()
                     == (two / "inst.json").read_bytes())

    instance_file = str(tmp_path / "one" / "inst.json")
    one, two = pair_of(lambda out: [
        "solve-tsp", instance_file, "--seed", "5",
        "--output", str(out / "tsp.json")])
    identical.append((one / "tsp.json").read_bytes()
                     == (two / "tsp.json").read_bytes())

    one, two = pair_of(lambda out: [
        "solve-exact", instance_file, "--output", str(out / "exact.json")])
    identical.append((one / "exact.json").read_bytes()
                     == (two / "exact.json").read_bytes())

    for sub in ("one", "two"):
        out = tmp_path / sub
        (out / "sweep.json").write_text(json.dumps({
            "instance_file": instance_file,
            "vnf_counts": [4, 6],
            "algorithms": ["tsp", "exact"],
            "runs_per_point": 3,
            "emit_solutions": True,
            "solutions_dir": str(out / "sols"),
            "output": str(out / "runs.csv"),
        }))
        run_cli(["experiment", "--config", str(out / "sweep.json")],
                cwd=tmp_path)
    identical.append((tmp_path / "one" / "runs.csv").read_bytes()
                     == (tmp_path / "two" / "runs.csv").read_bytes())
    names_one = sorted(os.listdir(tmp_path / "one" / "sols"))
    names_two = sorted(os.listdir(tmp_path / "two" / "sols"))
    identical.append(bool(names_one) and names_one == names_two)
    identical.append(all(
        (tmp_path / "one" / "sols" / n).read_bytes()
        == (tmp_path / "two" / "sols" / n).read_bytes()
        for n in names_one))

    # Same flags and same paths must also reproduce the printed output.
    first = run_cli(["solve-tsp", instance_file, "--seed", "5"], cwd=tmp_path)
    second = run_cli(["solve-tsp", instance_file, "--seed", "5"], cwd=tmp_path)
    identical.append(first.stdout == second.stdout)

    ok = all(identical)
    report(8, ok,
           f"gen, solve-tsp, solve-exact, experiment CSV and "
           f"{len(names_one)} emitted solution files reproduced byte for "
           f"byte ({sum(identical)}/{len(identical)} comparisons identical)")


def test_criterion_09_exact_solver_equals_total_enumeration(report):
    start = time.perf_counter()
    agreements = 0
    infeasible = 0
    mismatches = []
    for i in range(20):
        instance = generate_instance(GeneratorConfig(
            pop_count=3, vnf_count=2 + i % 4, seed=200 + i))
        expected = brute_force(instance)
        result = solve_exact(instance)
        if expected is None:
            infeasible += 1
            if result.status is OracleStatus.INFEASIBLE:
                agreements += 1
            else:
                mismatches.append(i)
        elif (result.status is OracleStatus.OPTIMAL
              and result.objective == expected[0]):
            agreements += 1
        else:
            mismatches.append(i)
    elapsed = time.perf_counter() - start
    ok = agreements == 20 and elapsed < 60.0
    report(9, ok,
           f"{agreements}/20 instances agree with flat enumeration "
           f"({infeasible} infeasible on both sides), {elapsed:.1f}s")


def test_criterion_10_exported_model_has_the_frozen_shape(report, tmp_path):
    expected_families = {
        "c2": 2, "c3": 4, "c4": 2, "c5": 1, "c6": 1, "c7": 2,
        "c10": 2, "c11": 2, "c12": 1, "c13": 2, "c14": 1,
        "c16": 4, "c17": 2, "c18": 2, "c19": 4, "c20": 4, "c21": 4,
    }
    instance = make_instance([[0, 10], [10, 0]], (1,))
    path = tmp_path / "tiny.lp"
    summary = export_lp(instance, path)
    diagnostics = check_lp_file(path)
    ok = (summary.variables == 14
          and summary.constraints == 40
          and summary.family_rows == expected_families
          and diagnostics == [])
    report(10, ok,
           f"one VNF on two PoPs exports variables={summary.variables} "
           f"constraints={summary.constraints} (expected 14/40), "
           f"c2/c3/c4 rows {summary.family_rows.get('c2')}/"
           f"{summary.family_rows.get('c3')}/{summary.family_rows.get('c4')}, "
           f"{len(diagnostics)} grammar findings")
