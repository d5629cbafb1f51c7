"""Property tests on generated instances (up to 6 PoPs and 12 VNFs).

The heuristic's solutions must check clean and never beat the exact
optimum, and the reachability look-ahead shared by the search and the exact
solver must agree with a per-VNF recount on arbitrary head assignments.
Examples are derandomized, so every run checks the same instances.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from manoplace import (
    GeneratorConfig,
    NoFeasiblePlan,
    OracleStatus,
    TabuParams,
    check_feasibility,
    generate_instance,
    solve_exact,
    two_step_place,
)
from manoplace.tabu import unreachable_vnf_groups

from test_tabu import naive_look_ahead

SMALL = settings(max_examples=100, derandomize=True, deadline=None, database=None)

instances = st.builds(
    GeneratorConfig,
    pop_count=st.integers(2, 6),
    vnf_count=st.integers(1, 12),
    area_side_km=st.sampled_from([1500.0, 3000.0, 4500.0]),
    nfvo_capacity=st.integers(2, 20),
    vnfm_capacity=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
).map(generate_instance)


@SMALL
@given(instances, st.integers(0, 3))
def test_tabu_solutions_check_clean_and_never_beat_the_optimum(instance, seed):
    exact = solve_exact(instance)
    assert exact.status is not OracleStatus.BUDGET_EXCEEDED
    try:
        solution = two_step_place(instance, TabuParams(seed=seed))
    except NoFeasiblePlan:
        return  # a heuristic may miss a feasible plan, never invent one
    assert check_feasibility(instance, solution).ok
    assert exact.status is OracleStatus.OPTIMAL
    assert solution.objective >= exact.objective


@SMALL
@given(instances, st.data())
def test_look_ahead_matches_the_per_vnf_recount(instance, data):
    n = instance.pop_count
    head_of = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    count = sum(unreachable_vnf_groups(instance, head_of))
    assert count == naive_look_ahead(instance, head_of)
