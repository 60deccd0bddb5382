import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsplines import (
    IndexOutOfTable,
    custom_table,
    default_alpha,
    factor_at,
    factor_values,
    sinc_power,
    tail_bound,
)

ALPHA9 = default_alpha(9)

# sin(pi/9), frozen from independent evaluation.
SIN_PI_OVER_9 = 0.3420201433256687


def brute_alias_tail(r, n_nodes, k, m_from, m_to):
    """Independent |v_{mN+k}| + |v_{mN-k}| mass over a block range, summed
    directly from the defining formula."""
    alpha = 2.0 * math.pi / n_nodes
    m = np.arange(m_from, m_to + 1, dtype=float)
    jp = m * n_nodes + k
    jm = m * n_nodes - k
    vp = np.abs((np.sin(alpha * jp / 2.0) / jp) ** (1 + r))
    vm = np.abs((np.sin(alpha * jm / 2.0) / jm) ** (1 + r))
    return float((vp + vm).sum())


def test_sinc_power_vanishes_at_full_period():
    fam = sinc_power(1, ALPHA9)
    assert abs(factor_at(fam, 9)) < 1e-30


def test_sinc_power_r0_k1_value():
    fam = sinc_power(0, ALPHA9)
    assert factor_at(fam, 1) == pytest.approx(SIN_PI_OVER_9, abs=1e-15)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_sinc_power_vanishes_at_all_multiples(r, m):
    fam = sinc_power(r, ALPHA9)
    assert abs(factor_at(fam, m * 9)) < 1e-15


def test_sinc_power_even_r_can_go_negative():
    # Exponent 1+r is odd for even r, so signs survive.
    fam = sinc_power(0, ALPHA9)
    assert factor_at(fam, 10) < 0.0


def test_factor_values_matches_factor_at():
    fam = sinc_power(2, ALPHA9)
    idx = np.arange(1, 40)
    vals = factor_values(fam, idx)
    for k in (1, 5, 17, 39):
        assert vals[k - 1] == pytest.approx(factor_at(fam, k), rel=1e-15)


def test_k_below_one_rejected():
    with pytest.raises(ValueError):
        factor_at(sinc_power(1, ALPHA9), 0)


class TestCustomTable:
    def test_returns_stored_entries(self):
        fam = custom_table([0.5, 0.25, 0.125], r=1)
        assert factor_at(fam, 2) == 0.25

    def test_beyond_range_raises(self):
        fam = custom_table([0.5, 0.25], r=1)
        with pytest.raises(IndexOutOfTable):
            factor_at(fam, 3)

    def test_series_view_zero_extends(self):
        fam = custom_table([0.5, 0.25], r=1)
        np.testing.assert_array_equal(
            factor_values(fam, np.array([1, 2, 3, 100])), [0.5, 0.25, 0.0, 0.0]
        )

    def test_tail_bound_without_exponent_is_infinite(self):
        fam = custom_table([0.5, 0.25], r=1)
        assert math.isinf(tail_bound(fam, 3, 1, 1))

    def test_tail_bound_with_exponent_is_exact_remainder(self):
        # N=3, k=1: block m covers indices 3m-1 and 3m+1.
        table = [1.0, 0.5, 0.0, 0.25, 2.0, 0.0, 0.125, 0.0625]
        fam = custom_table(table, r=1, decay_exponent=2.0)
        # Beyond m=1: v5 + v7 (m=2) and v8 (m=3; index 10 is out of range).
        assert tail_bound(fam, 3, 1, 1) == pytest.approx(2.0 + 0.125 + 0.0625, abs=0)
        assert tail_bound(fam, 3, 1, 3) == 0.0


class TestTailBound:
    def test_r0_has_no_bound(self):
        assert math.isinf(tail_bound(sinc_power(0, ALPHA9), 9, 1, 10))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monotone_nonincreasing(self, k):
        fam = sinc_power(3, ALPHA9)
        bounds = [tail_bound(fam, 9, k, m) for m in (1, 2, 4, 8, 64, 512)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-8  # decays towards zero

    def test_bound_dominates_brute_force_tail(self):
        # One million further blocks approximate the true infinite tail.
        fam = sinc_power(1, ALPHA9)
        actual = brute_alias_tail(1, 9, 1, 101, 1_000_100)
        bound = tail_bound(fam, 9, 1, 100)
        assert bound >= actual
        assert bound < 10.0 * actual  # and it is not wildly loose

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bound_dominates_for_various_r(self, r):
        fam = sinc_power(r, ALPHA9)
        for m_terms in (10, 50):
            actual = brute_alias_tail(r, 9, 2, m_terms + 1, m_terms + 200_000)
            assert tail_bound(fam, 9, 2, m_terms) >= actual

    def test_preconditions(self):
        fam = sinc_power(1, ALPHA9)
        with pytest.raises(ValueError):
            tail_bound(fam, 9, 5, 10)  # k beyond (N-1)/2
        with pytest.raises(ValueError):
            tail_bound(fam, 9, 1, 0)


def test_family_validation():
    with pytest.raises(ValueError):
        sinc_power(-1, ALPHA9)
    with pytest.raises(ValueError):
        sinc_power(1, 0.0)
    with pytest.raises(ValueError):
        custom_table([], r=1)
    with pytest.raises(ValueError):
        custom_table([1.0], r=1, decay_exponent=0.5)


@given(
    st.one_of(st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan)),
    st.integers(min_value=0, max_value=5),
)
def test_non_finite_or_non_positive_alpha_rejected(alpha, r):
    with pytest.raises(ValueError, match="alpha"):
        sinc_power(r, alpha)
