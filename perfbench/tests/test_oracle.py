import numpy as np

from perfbench.oracle import check_answer

COSTS = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])


def test_optimal_answer_passes():
    assert check_answer(COSTS, [1, 0, 2], 5.0) is None


def test_not_a_permutation():
    assert "permutation" in check_answer(COSTS, [1, 1, 2], 5.0)


def test_claimed_cost_must_match_the_assignment():
    assert "claimed" in check_answer(COSTS, [1, 0, 2], 4.0)


def test_suboptimal_exact_answer_fails():
    assert "optimum" in check_answer(COSTS, [0, 1, 2], 6.0)


def test_approximate_answer_within_its_gap_bound():
    assert check_answer(COSTS, [0, 1, 2], 6.0, gap_bound=1.0) is None
    assert "gap bound" in check_answer(COSTS, [0, 1, 2], 6.0, gap_bound=0.5)


def test_wide_spread_costs_are_compared_exactly():
    costs = np.zeros((3, 3))
    costs[0, 0] = 1e12
    costs[1, 1] = 1.0
    assert check_answer(costs, [1, 0, 2], 0.0) is None
    assert "optimum" in check_answer(costs, [2, 1, 0], 1.0)
