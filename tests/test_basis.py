import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trigsplines import (
    GridSpec,
    TruncationNotConverged,
    TruncationPolicy,
    basis_cos,
    basis_sin,
    custom_table,
    default_alpha,
    enumerate_all,
    interp_factors,
    lookup,
    nodes,
    sinc_power,
    truncation_order,
)
from trigsplines.basis import M_MIN

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
    pair = interp_factors(fam, A1, 0, 0, 9, FAST)
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
                    pair = interp_factors(fam, signs, i1, i2, 9, FAST)
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


class TestTruncationOrder:
    def test_tolerance_driven_order_ignores_cap_growth(self):
        fam = sinc_power(3, ALPHA9)
        pol = TruncationPolicy(tol=1e-10, m_max=20_000)
        pol2 = TruncationPolicy(tol=1e-10, m_max=40_000)
        for k in (1, 2, 3, 4):
            m1 = truncation_order(fam, 9, k, pol)
            assert m1 < 20_000  # genuinely tolerance-determined
            assert truncation_order(fam, 9, k, pol2) == m1
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
        assert truncation_order(fam, 9, 1, pol) == 500

    def test_bound_respected_when_tolerance_met(self):
        fam = sinc_power(2, ALPHA9)
        pol = TruncationPolicy(tol=1e-8)
        m = truncation_order(fam, 9, 3, pol)
        from trigsplines import tail_bound

        assert tail_bound(fam, 9, 3, m) < pol.tol
        assert m == M_MIN or tail_bound(fam, 9, 3, m - 1) >= pol.tol

    @settings(deadline=None, max_examples=60)
    @given(
        half=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        decay=st.floats(min_value=0.0, max_value=4.0),
        k_index=st.integers(min_value=0, max_value=4),
        log_tol=st.floats(min_value=-12.0, max_value=0.0),
        m_max=st.integers(min_value=M_MIN, max_value=60),
    )
    def test_custom_table_order_is_smallest_below_brute_force_remainder(
        self, half, length, seed, decay, k_index, log_tol, m_max
    ):
        # A finite table's tail is its exact remaining mass, so truncation
        # needs no declaration: the order is the first m >= M_MIN whose
        # directly summed remainder is below tol, or the cap.
        n_nodes, k, tol = 2 * half + 1, k_index % half + 1, 10.0**log_tol
        rng = np.random.default_rng(seed)
        entries = rng.uniform(-1.0, 1.0, length) * (rng.uniform(size=length) < 0.8)
        table = entries / np.arange(1, length + 1) ** decay
        stored = np.abs(table)

        def remainder(m):
            j = [i * n_nodes + s for i in range(m + 1, len(table) // n_nodes + 2)
                 for s in (k, -k)]
            return math.fsum(stored[i - 1] for i in j if i <= len(table))

        remainders = [remainder(m) for m in range(M_MIN, m_max + 1)]
        assume(all(abs(r - tol) > 1e-9 * tol for r in remainders))
        expected = next((m for m, r in enumerate(remainders, M_MIN) if r < tol), m_max)
        policy = TruncationPolicy(tol=tol, m_max=m_max)
        assert truncation_order(custom_table(table, r=1), n_nodes, k, policy) == expected

    def test_r0_requires_fixed_m(self):
        fam = sinc_power(0, ALPHA9)
        with pytest.raises(TruncationNotConverged):
            truncation_order(fam, 9, 1, TruncationPolicy())
        assert truncation_order(fam, 9, 1, TruncationPolicy(fixed_m=123)) == 123

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
