import math

import numpy as np
import pytest

from trigsplines import (
    DegenerateVariant,
    GridSpec,
    TruncationPolicy,
    alias_grid,
    custom_table,
    default_alpha,
    interp_factors,
    lookup,
    sinc_power,
)

from reference import NoUsableNode, enumerate_all, factor_sums, nodal_factor_oracle

ALPHA9 = default_alpha(9)
A1 = lookup("A1")
FAST = TruncationPolicy(m_max=300)
GRID_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def brute_factor(r, n_nodes, k, m_count, alternating, plus_sign, minus_sign):
    """v_k + sum_m (-1)^(m*J) (plus_sign*v_{mN+k} + minus_sign*v_{mN-k}),
    straight from the formula."""
    alpha = 2.0 * math.pi / n_nodes
    m = np.arange(1, m_count + 1, dtype=float)
    vp = (np.sin(alpha * (m * n_nodes + k) / 2.0) / (m * n_nodes + k)) ** (1 + r)
    vm = (np.sin(alpha * (m * n_nodes - k) / 2.0) / (m * n_nodes - k)) ** (1 + r)
    alt = (-1.0) ** (m * alternating)
    v_k = (math.sin(alpha * k / 2.0) / k) ** (1 + r)
    return v_k + float((alt * (plus_sign * vp + minus_sign * vm)).sum())


def test_a1_matched_grids_match_brute_force():
    fam = sinc_power(1, ALPHA9)
    pol = TruncationPolicy(fixed_m=5000)
    pair = interp_factors(alias_grid(fam, 9, pol), A1, 0, 0)
    for k in (1, 2, 3, 4):
        expected = brute_factor(1, 9, k, 5000, 0, +1, +1)
        assert pair.hc[k - 1] == pytest.approx(expected, rel=1e-13)
        assert pair.hs[k - 1] == pytest.approx(expected, rel=1e-13)


def test_a1_r1_infinite_sum_is_constant_in_k():
    # For the half-period sinc squared the full factor sum telescopes to the
    # same constant (pi/N)^2 for every harmonic; check against a long sum.
    for k in (1, 4):
        long = brute_factor(1, 9, k, 2_000_000, 0, +1, +1)
        assert long == pytest.approx((math.pi / 9.0) ** 2, abs=1e-7)


def test_a1_mismatched_grids_alternate():
    fam = sinc_power(1, ALPHA9)
    pol = TruncationPolicy(fixed_m=4000)
    pair = interp_factors(alias_grid(fam, 9, pol), A1, 0, 1)
    for k in (1, 3):
        expected = brute_factor(1, 9, k, 4000, 1, +1, +1)
        assert pair.hc[k - 1] == pytest.approx(expected, rel=1e-12)


def test_custom_table_with_zero_tail_reduces_to_vk():
    # Four stored factors, nothing at the alias indices 9m +/- k.
    table = [0.3, 0.8, 0.5, 0.4]
    fam = custom_table(table, r=2)
    for signs in (A1, lookup("C2")):
        pair = interp_factors(alias_grid(fam, 9, TruncationPolicy()), signs, 1, 0)
        np.testing.assert_array_equal(pair.hc, table)
        np.testing.assert_array_equal(pair.hs, table)


def test_index_symmetry_all_elements():
    # Only the parity of I1+I2 enters the factor series.
    for r in (1, 3):
        fam = sinc_power(r, ALPHA9)
        for signs in enumerate_all():
            p00 = factor_sums(fam, signs, 0, 0, 9, FAST)
            p11 = factor_sums(fam, signs, 1, 1, 9, FAST)
            p01 = factor_sums(fam, signs, 0, 1, 9, FAST)
            p10 = factor_sums(fam, signs, 1, 0, 9, FAST)
            np.testing.assert_allclose(p00.hc, p11.hc, rtol=0, atol=1e-12)
            np.testing.assert_allclose(p00.hs, p11.hs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(p01.hc, p10.hc, rtol=0, atol=1e-12)
            np.testing.assert_allclose(p01.hs, p10.hs, rtol=0, atol=1e-12)


def test_a1_cosine_and_sine_factors_coincide():
    for r in (1, 3):
        fam = sinc_power(r, ALPHA9)
        for i1, i2 in GRID_PAIRS:
            pair = interp_factors(alias_grid(fam, 9, FAST), A1, i1, i2)
            np.testing.assert_allclose(pair.hc, pair.hs, rtol=1e-12)


class TestNodalOracle:
    def test_agrees_with_closed_form_everywhere(self):
        # The defining property measured directly at a node is the acceptance
        # arbiter for the closed-form sums.
        for r in (1, 3):
            fam = sinc_power(r, ALPHA9)
            for signs in enumerate_all():
                for i1, i2 in GRID_PAIRS:
                    pair = interp_factors(alias_grid(fam, 9, FAST), signs, i1, i2)
                    grid = GridSpec(9, i2)
                    for k in (1, 2, 3, 4):
                        hc, hs = nodal_factor_oracle(fam, signs, i1, grid, k, FAST)
                        assert hc == pytest.approx(pair.hc[k - 1], abs=1e-8)
                        assert hs == pytest.approx(pair.hs[k - 1], abs=1e-8)

    def test_a1_oracle_sides_agree(self):
        fam = sinc_power(3, ALPHA9)
        for i1, i2 in GRID_PAIRS:
            grid = GridSpec(9, i2)
            for k in (1, 4):
                hc, hs = nodal_factor_oracle(fam, A1, i1, grid, k, FAST)
                assert hc == pytest.approx(hs, rel=1e-10)

    def test_no_usable_node(self):
        # sin(9 t_j) vanishes at every kind-0 node, so the sine reference is
        # unusable for k = 9.
        fam = sinc_power(3, ALPHA9)
        with pytest.raises(NoUsableNode):
            nodal_factor_oracle(fam, A1, 0, GridSpec(9, 0), 9, FAST)


def test_degenerate_variant_detected():
    # Engineered table: v_1 = 1 and the only alias block contributes
    # v_2 + v_4 = 1, which the B1 cosine row subtracts exactly.
    fam = custom_table([1.0, 1.0, 0.0, 0.0], r=1)
    pol = TruncationPolicy(fixed_m=3)
    with pytest.raises(DegenerateVariant) as err:
        interp_factors(alias_grid(fam, 3, pol), lookup("B1"), 0, 0)
    assert err.value.k == 1
    assert err.value.which == "hc"
    # The raw sums remain available for classification sweeps.
    raw = factor_sums(fam, lookup("B1"), 0, 0, 3, pol)
    assert raw.hc[0] == 0.0


def test_bad_grid_indices_rejected():
    fam = sinc_power(1, ALPHA9)
    with pytest.raises(ValueError):
        factor_sums(fam, A1, 2, 0, 9, FAST)
