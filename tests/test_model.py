"""Solution types, the feasibility checker, and solution file IO."""

from __future__ import annotations

import json

import pytest

from manoplace import (
    Solution,
    SolutionFormatError,
    check_feasibility,
    load_solution,
    save_solution,
)
from manoplace.model import (
    DomainPlan,
    Violation,
    VnfmAssignment,
    parse_solution,
    solution_to_data,
)

from conftest import make_instance

LINE3 = [[0, 10, 20], [10, 0, 10], [20, 10, 0]]


def base_solution():
    plan = DomainPlan.make([False, True, False], [1, 1, 1])
    return Solution(plan, (VnfmAssignment(1, (0, 1, 2)),))


def line3_instance(**overrides):
    return make_instance(LINE3, vnf_locs=(0, 1, 2), **overrides)


class TestTypes:
    def test_plan_accessors(self):
        plan = DomainPlan.make([True, False, True], [0, 0, 2])
        assert plan.pop_count == 3
        assert plan.nfvo_count == 2
        assert plan.active_pops == (0, 2)

    def test_vnfm_assignment_sorts_managed(self):
        m = VnfmAssignment(3, (5, 1, 4))
        assert m.managed == (1, 4, 5)
        assert m.load == 3

    def test_objective_is_nfvos_plus_vnfms(self):
        sol = Solution(DomainPlan.make([True, True, False], [0, 1, 1]),
                       (VnfmAssignment(0, (0,)), VnfmAssignment(1, (1,)),
                        VnfmAssignment(1, (2,))))
        assert sol.objective == 2 + 3
        assert sol.vnfm_count == 3

    def test_violation_str(self):
        v = Violation("C13", (2, 1), measured=72.5, bound=60.0)
        assert str(v) == "C13[2,1]: measured 72.5 vs bound 60"


class TestChecker:
    def test_base_solution_is_feasible(self):
        report = check_feasibility(line3_instance(), base_solution())
        assert report.ok
        assert {e.family for e in report.entries} == set()

    @pytest.mark.parametrize("family, instance, solution", [
        ("C3",
         line3_instance(),
         Solution(DomainPlan.make([False, True, False], [0, 1, 1]),
                  (VnfmAssignment(1, (0, 1, 2)),))),
        ("C4",
         line3_instance(),
         Solution(DomainPlan.make([False, True, True], [1, 1, 1]),
                  (VnfmAssignment(1, (0, 1, 2)),))),
        ("C6",  # vnf 2 never managed
         line3_instance(),
         Solution(DomainPlan.make([False, True, False], [1, 1, 1]),
                  (VnfmAssignment(1, (0, 1)),))),
        ("C6",  # vnf 2 managed twice
         line3_instance(),
         Solution(DomainPlan.make([False, True, False], [1, 1, 1]),
                  (VnfmAssignment(1, (0, 1, 2)), VnfmAssignment(1, (2,))))),
        ("C8",  # vnf 0 lives in domain 0 but its manager sits in domain 1
         line3_instance(),
         Solution(DomainPlan.make([True, True, False], [0, 1, 1]),
                  (VnfmAssignment(1, (0, 1, 2)),))),
        ("C9",
         line3_instance(nfvo_capacity=2),
         base_solution()),
        ("C10",
         line3_instance(vnfm_capacity=2),
         base_solution()),
        ("C11",  # second manager runs nothing
         line3_instance(),
         Solution(DomainPlan.make([False, True, False], [1, 1, 1]),
                  (VnfmAssignment(1, (0, 1, 2)), VnfmAssignment(2, ())))),
        ("C12",
         line3_instance(gso_nfvo_bound=5.0),
         base_solution()),
        ("C13",
         line3_instance(nfvo_vim_bound=5.0),
         base_solution()),
        ("C14",  # manager 10 ms from vnf 0, whose own bound is 5 ms
         line3_instance(vnf_bounds=[(5.0, 45.0), (30.0, 45.0), (30.0, 45.0)]),
         base_solution()),
        ("C15",  # manager at pop 2 is 10 ms from the head, bound 5 ms
         line3_instance(vnf_bounds=[(30.0, 5.0)] * 3),
         Solution(DomainPlan.make([False, True, False], [1, 1, 1]),
                  (VnfmAssignment(2, (0, 1, 2)),))),
    ])
    def test_each_family_is_detected(self, family, instance, solution):
        report = check_feasibility(instance, solution)
        assert not report.ok
        assert family in {e.family for e in report.entries}, report.entries

    def test_c9_counts_vnfs_by_their_location_domain(self):
        # Two domains; three VNFs all located in domain 0, capacity 2.
        inst = make_instance(LINE3, vnf_locs=(0, 0, 0), nfvo_capacity=2)
        plan = DomainPlan.make([True, False, True], [0, 0, 2])
        sol = Solution(plan, (VnfmAssignment(0, (0, 1)), VnfmAssignment(0, (2,))))
        report = check_feasibility(inst, sol)
        assert "C9" in {e.family for e in report.entries}
        offenders = [v.indices for v in report.entries if v.family == "C9"]
        assert offenders == [(0,)]

    @pytest.mark.parametrize("plan, vnfms, fragment", [
        (DomainPlan.make([True, True], [0, 1]), (), "plan covers"),
        (DomainPlan.make([True] * 3, [0, 1, 9]), (), "out of range"),
        (DomainPlan.make([False, True, False], [1, 1, 1]),
         (VnfmAssignment(7, (0,)),), "location"),
        (DomainPlan.make([False, True, False], [1, 1, 1]),
         (VnfmAssignment(1, (0, 99)),), "unknown VNF"),
    ])
    def test_malformed_solutions_raise(self, plan, vnfms, fragment):
        with pytest.raises(ValueError, match=fragment):
            check_feasibility(line3_instance(), Solution(plan, vnfms))


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        sol = base_solution()
        path = tmp_path / "sol.json"
        save_solution(sol, path)
        assert load_solution(path) == sol

    def test_data_shape(self):
        data = solution_to_data(base_solution())
        assert data == {
            "objective": 2,
            "nfvos": [1],
            "assignments": [1, 1, 1],
            "vnfms": [{"location": 1, "vnf_ids": [0, 1, 2]}],
        }

    def test_extra_keys_round_trip(self, tmp_path):
        path = tmp_path / "sol.json"
        save_solution(base_solution(), path,
                      extra={"status": "optimal", "nodes_explored": 17})
        data = json.loads(path.read_text())
        assert data["status"] == "optimal"
        assert parse_solution(data) == base_solution()

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(surprise=1),
        lambda d: d.pop("assignments"),
        lambda d: d.update(assignments=[0, True, 0]),
        lambda d: d.update(nfvos=[9]),
        lambda d: d.update(vnfms=[{"location": 0}]),
        lambda d: d.update(vnfms=[{"location": 0, "vnf_ids": ["a"]}]),
    ])
    def test_strict_parser_rejects(self, mutate):
        data = solution_to_data(base_solution())
        mutate(data)
        with pytest.raises(SolutionFormatError):
            parse_solution(data)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SolutionFormatError, match="JSON"):
            load_solution(path)
