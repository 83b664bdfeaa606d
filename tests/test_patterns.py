import numpy as np
import pytest
from numpy.testing import assert_array_equal

from otfspectrum.errors import ConfigurationError
from otfspectrum.patterns import builtin_pattern, column_support_profile


def test_column_support_profile():
    prof = column_support_profile([0, 2], 2, 4, power=3.0)
    expected = np.array([[3.0, 0.0, 3.0, 0.0], [3.0, 0.0, 3.0, 0.0]])
    assert_array_equal(prof.sigma2, expected)


def test_column_support_rejects_bad_columns():
    with pytest.raises(ConfigurationError):
        column_support_profile([4], 2, 4)


def test_block_diag_layout():
    prof = builtin_pattern("block_diag_x1", 4, 8)
    sigma2 = prof.sigma2
    for l in range(4):
        row = np.zeros(8)
        row[2 * l : 2 * l + 2] = 1.0
        assert_array_equal(sigma2[l], row)
    assert sigma2.sum() == 8


def test_block_diag_requires_divisibility():
    with pytest.raises(ConfigurationError):
        builtin_pattern("block_diag_x1", 3, 8)


def test_block_diag_budget_must_match():
    assert builtin_pattern("block_diag_x1", 2, 8, budget=8) is not None
    with pytest.raises(ConfigurationError):
        builtin_pattern("block_diag_x1", 2, 8, budget=10)


def test_head_tail_columns_lte_budget():
    """1201 active bins on the 16x128 grid: 601 head, 600 tail, odd bin at the head."""
    prof = builtin_pattern("head_tail_columns", 16, 128, budget=1201)
    sigma2 = prof.sigma2
    assert int(sigma2.sum()) == 1201
    # head: 37 full columns (592) + 9 bins of column 37
    assert_array_equal(sigma2[:, :37], np.ones((16, 37)))
    assert_array_equal(sigma2[:9, 37], np.ones(9))
    assert_array_equal(sigma2[9:, 37], np.zeros(7))
    # tail: 37 full columns (592) + 8 bins of column 90
    assert_array_equal(sigma2[:, 91:], np.ones((16, 37)))
    assert_array_equal(sigma2[:8, 90], np.ones(8))
    # middle stays silent
    assert sigma2[:, 38:90].sum() == 0


def test_head_tail_rows_small_oracle():
    prof = builtin_pattern("head_tail_rows", 3, 4, budget=7)
    expected = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],  # head row 0 full
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],  # tail: row 2 gets 3 bins from index 0
        ]
    )
    assert_array_equal(prof.sigma2, expected)


def test_head_tail_columns_small_oracle():
    prof = builtin_pattern("head_tail_columns", 2, 4, budget=5)
    expected = np.array(
        [
            [1.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    assert_array_equal(prof.sigma2, expected)


def test_head_tail_requires_budget():
    with pytest.raises(ConfigurationError):
        builtin_pattern("head_tail_columns", 2, 4)


def test_head_tail_overlap_detected():
    # 3x3, budget 9: head takes col 0 + rows 0,1 of col 1; tail takes col 2
    # + row 0 of col 1, colliding with the head in the middle column.
    with pytest.raises(ConfigurationError, match="overlap"):
        builtin_pattern("head_tail_columns", 3, 3, budget=9)


def test_head_tail_budget_bounds():
    with pytest.raises(ConfigurationError):
        builtin_pattern("head_tail_rows", 2, 4, budget=0)
    with pytest.raises(ConfigurationError):
        builtin_pattern("head_tail_rows", 2, 4, budget=9)
    full = builtin_pattern("head_tail_rows", 2, 4, budget=8)
    assert full.sigma2.sum() == 8


def test_unknown_pattern():
    with pytest.raises(ConfigurationError):
        builtin_pattern("checkerboard", 2, 4)


def _head_tail_columns_by_loop(num_delay, num_doppler, budget):
    """The head/tail-columns layout filled one column at a time (the pattern's reference)."""
    sigma2 = np.zeros((num_delay, num_doppler))
    head = (budget + 1) // 2
    for remaining, cols in ((head, range(num_doppler)), (budget - head, range(num_doppler - 1, -1, -1))):
        for k in cols:
            take = min(num_delay, remaining)
            sigma2[:take, k] = 1.0
            remaining -= take
    return sigma2


def test_head_tail_rows_is_the_transpose_of_head_tail_columns():
    """Every budget on every grid up to 8x8: the loop's layout and its transpose, or both overlap."""
    for m in range(1, 9):
        for n in range(1, 9):
            for budget in range(1, m * n + 1):
                expected = _head_tail_columns_by_loop(n, m, budget)
                if expected.sum() != budget:  # the head and tail regions overlap
                    for name, shape in (("head_tail_columns", (n, m)), ("head_tail_rows", (m, n))):
                        with pytest.raises(ConfigurationError, match="overlap"):
                            builtin_pattern(name, *shape, budget)
                    continue
                assert_array_equal(builtin_pattern("head_tail_columns", n, m, budget).sigma2, expected)
                assert_array_equal(builtin_pattern("head_tail_rows", m, n, budget).sigma2, expected.T)
