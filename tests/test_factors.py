import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigsplines import custom_table, default_alpha, factor_values, sinc_power
from trigsplines.basis import _tail_bound

ALPHA9 = default_alpha(9)

# sin(pi/9), frozen from independent evaluation.
SIN_PI_OVER_9 = 0.3420201433256687


def factor_at(family, k):
    """The factor v_k at one positive index k."""
    return float(factor_values(family, np.array([k]))[0])


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


@given(
    p=st.integers(min_value=1, max_value=4),
    r=st.integers(min_value=0, max_value=6),
    j=st.integers(min_value=1, max_value=10**6),
)
def test_sinc_power_is_exactly_zero_where_the_sine_vanishes(p, r, j):
    # alpha*j/2 = pi*p*j: sin there is rounding noise, which becomes 0.
    assert factor_values(sinc_power(r, 2.0 * math.pi * p), np.array([j]))[0] == 0.0


class TestCustomTable:
    def test_returns_stored_entries(self):
        fam = custom_table([0.5, 0.25, 0.125], r=1)
        assert factor_at(fam, 2) == 0.25

    def test_series_view_zero_extends(self):
        fam = custom_table([0.5, 0.25], r=1)
        np.testing.assert_array_equal(
            factor_values(fam, np.array([1, 2, 3, 100])), [0.5, 0.25, 0.0, 0.0]
        )


class TestTailBound:
    """The closed-form alias tail bound behind :func:`trigsplines.alias_depth`."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monotone_nonincreasing(self, k):
        bounds = [_tail_bound(3, 9, k, m) for m in (1, 2, 4, 8, 64, 512)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] < 1e-8  # decays towards zero

    def test_bound_dominates_brute_force_tail(self):
        # One million further blocks approximate the true infinite tail.
        actual = brute_alias_tail(1, 9, 1, 101, 1_000_100)
        bound = _tail_bound(1, 9, 1, 100)
        assert bound >= actual
        assert bound < 10.0 * actual  # and it is not wildly loose

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_bound_dominates_for_various_r(self, r):
        for m_terms in (10, 50):
            actual = brute_alias_tail(r, 9, 2, m_terms + 1, m_terms + 200_000)
            assert _tail_bound(r, 9, 2, m_terms) >= actual


def test_family_validation():
    with pytest.raises(ValueError):
        sinc_power(-1, ALPHA9)
    with pytest.raises(ValueError):
        sinc_power(1, 0.0)
    with pytest.raises(ValueError):
        custom_table([], r=1)


@given(
    st.one_of(st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan)),
    st.integers(min_value=0, max_value=5),
)
def test_non_finite_or_non_positive_alpha_rejected(alpha, r):
    with pytest.raises(ValueError, match="alpha"):
        sinc_power(r, alpha)
