import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigsplines import (
    GridSpec,
    InvalidGrid,
    TruncationNotConverged,
    TruncationPolicy,
    alias_depth,
    custom_table,
    default_alpha,
    lookup,
    nodes,
    sinc_power,
)
from trigsplines.basis import M_MIN, _tail_bound

from reference import basis_cos, basis_sin, enumerate_all, variant_factors

ALPHA9 = default_alpha(9)
A1 = lookup("A1")

# Small-order policy: nodal identities hold at any truncation depth as long
# as basis and factors share it, so sweeps stay cheap.
FAST = TruncationPolicy(m_max=300)


def brute_series(r, n_nodes, i1, k, t, m_count, outer, inner, use_sin):
    """Direct dumb summation of the basis series from the defining formula."""
    alpha = 2.0 * math.pi / n_nodes
    trig = np.sin if use_sin else np.cos
    m = np.arange(1, m_count + 1, dtype=float)
    jp = m * n_nodes + k
    jm = m * n_nodes - k
    vp = (np.sin(alpha * jp / 2.0) / jp) ** (1 + r)
    vm = (np.sin(alpha * jm / 2.0) / jm) ** (1 + r)
    alt = (-1.0) ** (m * i1)
    v_k = (math.sin(alpha * k / 2.0) / k) ** (1 + r)
    tail = float((alt * (vp * trig(jp * t) + inner * vm * trig(jm * t))).sum())
    return v_k * trig(k * t) + outer * tail


def test_at_zero_cosine_series_equals_factor():
    # All cosines are 1 at t=0, so the series collapses to hc of the
    # matched-grid variant.
    fam = sinc_power(3, ALPHA9)
    pair = variant_factors(fam, A1, 0, 0, 9, FAST)
    for k in (1, 2, 3, 4):
        val = basis_cos(fam, A1, 0, 9, k, 0.0, FAST)
        assert val == pytest.approx(pair.hc[k - 1], rel=1e-13)


def test_custom_table_with_empty_tail_is_single_term():
    fam = custom_table([0.0, 0.7], r=1)
    k, t = 2, 0.9
    val = basis_cos(fam, A1, 0, 9, k, t, TruncationPolicy())
    assert val == pytest.approx(0.7 * math.cos(k * t), rel=0, abs=1e-16)


def test_long_sum_oracle_r3():
    fam = sinc_power(3, ALPHA9)
    val = basis_cos(fam, A1, 0, 9, 1, 1.0, TruncationPolicy())
    oracle = brute_series(3, 9, 0, 1, 1.0, 1_000_000, outer=+1, inner=+1, use_sin=False)
    assert val == pytest.approx(oracle, abs=1e-9)


def test_long_sum_oracle_r1_alternating():
    fam = sinc_power(1, ALPHA9)
    val = basis_sin(fam, A1, 1, 9, 2, 0.7, TruncationPolicy())
    oracle = brute_series(1, 9, 1, 2, 0.7, 1_000_000, outer=+1, inner=-1, use_sin=True)
    assert val == pytest.approx(oracle, abs=1e-9)


def test_sine_series_vanishes_at_zero():
    for element in ("A1", "B3", "C2", "D4"):
        fam = sinc_power(2, ALPHA9)
        assert basis_sin(fam, lookup(element), 0, 9, 3, 0.0, FAST) == 0.0


@pytest.mark.parametrize("i1", [0, 1])
@pytest.mark.parametrize("r", [1, 3])
def test_a1_parity(i1, r):
    fam = sinc_power(r, ALPHA9)
    for t in (0.3, 1.1, 2.9):
        even = basis_cos(fam, A1, i1, 9, 2, t, FAST)
        assert basis_cos(fam, A1, i1, 9, 2, -t, FAST) == pytest.approx(even, abs=1e-12)
        odd = basis_sin(fam, A1, i1, 9, 2, t, FAST)
        assert basis_sin(fam, A1, i1, 9, 2, -t, FAST) == pytest.approx(-odd, abs=1e-12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_two_pi_periodicity(r):
    fam = sinc_power(r, ALPHA9)
    for t in (0.0, 0.41, 3.3):
        a = basis_cos(fam, A1, 0, 9, 2, t, FAST)
        b = basis_cos(fam, A1, 0, 9, 2, t + 2.0 * math.pi, FAST)
        assert b == pytest.approx(a, abs=1e-12)


def test_nodal_proportionality_all_elements():
    # The structural identity behind interpolation: on the kind-I2 grid every
    # basis series is the bare harmonic scaled by its factor.
    for r in (1, 3):
        fam = sinc_power(r, ALPHA9)
        for signs in enumerate_all():
            for i1 in (0, 1):
                for i2 in (0, 1):
                    pair = variant_factors(fam, signs, i1, i2, 9, FAST)
                    t = nodes(GridSpec(9, i2))
                    for k in (1, 4):
                        bc = basis_cos(fam, signs, i1, 9, k, t, FAST)
                        bs = basis_sin(fam, signs, i1, 9, k, t, FAST)
                        np.testing.assert_allclose(
                            bc, pair.hc[k - 1] * np.cos(k * t), atol=1e-8
                        )
                        np.testing.assert_allclose(
                            bs, pair.hs[k - 1] * np.sin(k * t), atol=1e-8
                        )


def direct_alias_tail(r, n_nodes, m_from, blocks):
    """|v_{mN+k}| + |v_{mN-k}| summed over blocks m_from .. m_from+blocks-1
    for every harmonic k, from the defining formula."""
    alpha = 2.0 * math.pi / n_nodes
    k = np.arange(1, (n_nodes - 1) // 2 + 1)[:, None]
    m = np.arange(m_from, m_from + blocks)[None, :]
    j = np.concatenate((m * n_nodes + k, m * n_nodes - k), axis=1).astype(float)
    return (np.abs(np.sin(alpha * j / 2.0) / j) ** (1 + r)).sum(axis=1)


def direct_table_series(table, n_nodes, i1, k, t, outer, inner, trig):
    """A custom table's basis series summed over every stored index j = +-k
    (mod N), from the defining formula."""
    total = 0.0
    for j, v in enumerate(table, 1):
        if j == k:
            total += v * trig(k * t)
        elif j % n_nodes in (k, n_nodes - k):
            m = (j + k) // n_nodes
            side = 1.0 if j % n_nodes == k else inner
            total += outer * (-1.0) ** (m * i1) * side * v * trig(j * t)
    return total


class TestTruncationOrder:
    def test_tolerance_driven_order_ignores_cap_growth(self):
        fam = sinc_power(3, ALPHA9)
        pol = TruncationPolicy(tol=1e-10, m_max=20_000)
        pol2 = TruncationPolicy(tol=1e-10, m_max=40_000)
        m1 = alias_depth(fam, 9, pol)
        assert m1 < 20_000  # genuinely tolerance-determined
        assert alias_depth(fam, 9, pol2) == m1
        for k in (1, 2, 3, 4):
            val1 = basis_cos(fam, A1, 0, 9, k, 0.77, pol)
            val2 = basis_cos(fam, A1, 0, 9, k, 0.77, pol2)
            assert abs(val1 - val2) < pol.tol

    def test_doubling_cap_stable_for_r1_at_reachable_tol(self):
        fam = sinc_power(1, ALPHA9)
        pol = TruncationPolicy(tol=2e-6, m_max=20_000)
        pol2 = TruncationPolicy(tol=2e-6, m_max=40_000)
        for k in (1, 4):
            v1 = basis_sin(fam, A1, 1, 9, k, 2.2, pol)
            v2 = basis_sin(fam, A1, 1, 9, k, 2.2, pol2)
            assert abs(v1 - v2) < pol.tol

    def test_unreachable_tolerance_caps_at_m_max(self):
        fam = sinc_power(1, ALPHA9)
        pol = TruncationPolicy(tol=1e-10, m_max=500)
        assert alias_depth(fam, 9, pol) == 500

    @settings(deadline=None, max_examples=40)
    @given(
        r=st.integers(min_value=1, max_value=6),
        half=st.integers(min_value=1, max_value=100),
        log_tol=st.floats(min_value=-14.0, max_value=-4.0),
    )
    # The default tol where harmonic 1 alone would stop one block earlier.
    @example(r=5, half=4, log_tol=-10.0)
    @example(r=4, half=10, log_tol=-10.0)
    def test_bound_respected_when_tolerance_met(self, r, half, log_tol):
        # One depth serves every harmonic: unless the cap was hit, the bound at
        # the worst harmonic and each harmonic's directly summed tail (over
        # the next 2000 blocks) are below tol, and no smaller depth passes.
        n_nodes, policy = 2 * half + 1, TruncationPolicy(tol=10.0**log_tol)
        m = alias_depth(sinc_power(r, default_alpha(n_nodes)), n_nodes, policy)
        assert M_MIN <= m <= policy.m_max
        if m < policy.m_max:
            assert _tail_bound(r, n_nodes, half, m) < policy.tol
            assert direct_alias_tail(r, n_nodes, m + 1, 2000).max() < policy.tol
        assert m == M_MIN or _tail_bound(r, n_nodes, half, m - 1) >= policy.tol

    @settings(deadline=None, max_examples=60)
    @given(
        half=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k_index=st.integers(min_value=0, max_value=4),
        i1=st.integers(min_value=0, max_value=1),
        element=st.sampled_from(["A1", "B2", "C3", "D4"]),
        t=st.floats(min_value=-7.0, max_value=7.0),
        log_tol=st.floats(min_value=-12.0, max_value=0.0),
        m_max=st.integers(min_value=M_MIN, max_value=60),
    )
    def test_custom_table_series_is_its_full_sum(
        self, half, length, seed, k_index, i1, element, t, log_tol, m_max
    ):
        # A finite table is summed to its end whatever tol and m_max say.
        n_nodes, k = 2 * half + 1, k_index % half + 1
        rng = np.random.default_rng(seed)
        table = rng.uniform(-1.0, 1.0, length) / np.arange(1, length + 1)
        fam, signs = custom_table(table, r=1), lookup(element)
        policy = TruncationPolicy(tol=10.0**log_tol, m_max=m_max)
        for basis, trig, outer, inner in (
            (basis_cos, np.cos, signs.cos_outer, signs.cos_inner),
            (basis_sin, np.sin, signs.sin_outer, signs.sin_inner),
        ):
            expected = direct_table_series(table, n_nodes, i1, k, t, outer, inner, trig)
            got = basis(fam, signs, i1, n_nodes, k, t, policy)
            assert got == pytest.approx(expected, rel=0, abs=1e-13)

    @settings(deadline=None, max_examples=20)
    @given(
        half=st.integers(min_value=1, max_value=100),
        log_tol=st.floats(min_value=-14.0, max_value=-1.0),
        fixed_m=st.integers(min_value=1, max_value=10**6),
    )
    def test_r0_requires_fixed_m(self, half, log_tol, fixed_m):
        n_nodes = 2 * half + 1
        fam = sinc_power(0, default_alpha(n_nodes))
        with pytest.raises(TruncationNotConverged):
            alias_depth(fam, n_nodes, TruncationPolicy(tol=10.0**log_tol))
        assert alias_depth(fam, n_nodes, TruncationPolicy(fixed_m=fixed_m)) == fixed_m

    def test_basis_evaluation_surfaces_the_error(self):
        fam = sinc_power(0, ALPHA9)
        with pytest.raises(TruncationNotConverged):
            basis_cos(fam, A1, 0, 9, 1, 0.5, TruncationPolicy())


def test_r0_fixed_m_matches_brute_force():
    fam = sinc_power(0, ALPHA9)
    pol = TruncationPolicy(fixed_m=10_000)
    val = basis_cos(fam, A1, 0, 9, 2, 1.3, pol)
    oracle = brute_series(0, 9, 0, 2, 1.3, 10_000, outer=+1, inner=+1, use_sin=False)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_vector_and_scalar_evaluation_agree():
    fam = sinc_power(2, ALPHA9)
    ts = np.array([0.1, 1.7, 4.4])
    vec = basis_cos(fam, A1, 1, 9, 3, ts, FAST)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(basis_cos(fam, A1, 1, 9, 3, float(t), FAST), abs=1e-14)


def test_node_count_and_harmonic_checked():
    fam = sinc_power(1, ALPHA9)
    with pytest.raises(InvalidGrid):
        alias_depth(fam, 8, FAST)
    with pytest.raises(ValueError, match="k must be"):
        basis_cos(fam, A1, 0, 9, 5, 0.1, FAST)  # k beyond (N-1)/2
    with pytest.raises(ValueError, match="k must be"):
        basis_sin(fam, A1, 0, 9, 0, 0.1, FAST)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(tol=0.0)
    with pytest.raises(ValueError, match="m_max"):
        TruncationPolicy(m_max=M_MIN - 1)
    with pytest.raises(ValueError):
        TruncationPolicy(fixed_m=0)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=-10.0, max_value=10.0), st.integers(min_value=1, max_value=4))
def test_parity_property(t, k):
    fam = sinc_power(1, ALPHA9)
    assert basis_cos(fam, A1, 0, 9, k, -t, FAST) == pytest.approx(
        basis_cos(fam, A1, 0, 9, k, t, FAST), abs=1e-12
    )
    assert basis_sin(fam, A1, 0, 9, k, -t, FAST) == pytest.approx(
        -basis_sin(fam, A1, 0, 9, k, t, FAST), abs=1e-12
    )
