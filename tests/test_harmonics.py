import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsplines import (
    GridSpec,
    SampleSet,
    dft_coeffs,
    nodes,
)

from conftest import warnings_as_errors
from reference import trig_poly_eval


def solve_interpolation_system(values, grid):
    """Independent oracle: solve the N x N linear interpolation conditions
    a0/2 + sum a_k cos(k t_j) + sum b_k sin(k t_j) = f_j directly."""
    t = nodes(grid)
    n = grid.n_harmonics
    cols = [np.full(grid.n_nodes, 0.5)]
    cols += [np.cos(k * t) for k in range(1, n + 1)]
    cols += [np.sin(k * t) for k in range(1, n + 1)]
    coef = np.linalg.solve(np.column_stack(cols), np.asarray(values, dtype=float))
    return coef[0], coef[1 : n + 1], coef[n + 1 :]


def test_constant_data():
    grid = GridSpec(9, 0)
    c = dft_coeffs(SampleSet(values=np.full(9, 2.5), grid=grid))
    assert c.a0 == pytest.approx(5.0, abs=1e-14)
    np.testing.assert_allclose(c.a, 0.0, atol=1e-14)
    np.testing.assert_allclose(c.b, 0.0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 9, 21])
@pytest.mark.parametrize("kind", [0, 1])
def test_pure_cosine_isolates_first_harmonic(n, kind):
    grid = GridSpec(n, kind)
    c = dft_coeffs(SampleSet(values=np.cos(nodes(grid)), grid=grid))
    assert c.a[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(c.a0) < 1e-12
    np.testing.assert_allclose(c.a[1:], 0.0, atol=1e-12)
    np.testing.assert_allclose(c.b, 0.0, atol=1e-12)


def test_demo_data_mean_coefficient(demo_data):
    c = dft_coeffs(SampleSet(values=demo_data, grid=GridSpec(9, 0)))
    assert c.a0 == pytest.approx(40.0 / 9.0, abs=1e-14)


def test_coeffs_match_linear_system_oracle(demo_data):
    grid = GridSpec(9, 0)
    c = dft_coeffs(SampleSet(values=demo_data, grid=grid))
    a0, a, b = solve_interpolation_system(demo_data, grid)
    assert c.a0 == pytest.approx(a0, abs=1e-10)
    np.testing.assert_allclose(c.a, a, atol=1e-10)
    np.testing.assert_allclose(c.b, b, atol=1e-10)


def test_poly_reproduces_demo_data_at_nodes(demo_data):
    grid = GridSpec(9, 0)
    c = dft_coeffs(SampleSet(values=demo_data, grid=grid))
    np.testing.assert_allclose(trig_poly_eval(c, nodes(grid)), demo_data, atol=1e-10)


def test_zero_coeffs_evaluate_to_zero():
    c = dft_coeffs(SampleSet(values=np.zeros(5), grid=GridSpec(5, 0)))
    assert trig_poly_eval(c, 1.2345) == 0.0


def test_constant_poly_everywhere():
    c = dft_coeffs(SampleSet(values=np.full(7, -3.25), grid=GridSpec(7, 1)))
    ts = np.linspace(0.0, 2.0 * np.pi, 41)
    np.testing.assert_allclose(trig_poly_eval(c, ts), -3.25, atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=50).map(lambda m: 2 * m + 1),
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_at_nodes(n, kind, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e3, 1e3, size=n)
    grid = GridSpec(n, kind)
    c = dft_coeffs(SampleSet(values=values, grid=grid))
    np.testing.assert_allclose(trig_poly_eval(c, nodes(grid)), values, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=5, max_size=5),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=5, max_size=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_linearity_in_data(f, g, lam, mu):
    grid = GridSpec(5, 0)
    f = np.asarray(f)
    g = np.asarray(g)
    cf = dft_coeffs(SampleSet(values=f, grid=grid))
    cg = dft_coeffs(SampleSet(values=g, grid=grid))
    mix = dft_coeffs(SampleSet(values=lam * f + mu * g, grid=grid))
    scale = 1.0 + np.abs(f).max() + np.abs(g).max()
    np.testing.assert_allclose(mix.a0, lam * cf.a0 + mu * cg.a0, atol=1e-11 * scale)
    np.testing.assert_allclose(mix.a, lam * cf.a + mu * cg.a, atol=1e-11 * scale)
    np.testing.assert_allclose(mix.b, lam * cf.b + mu * cg.b, atol=1e-11 * scale)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=500).map(lambda m: 2 * m + 1),
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fft_coeffs_match_direct_sum(n, kind, seed):
    # The defining O(N^2) sums over the grid nodes.
    grid = GridSpec(n, kind)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    kt = np.outer(np.arange(1, grid.n_harmonics + 1), nodes(grid))
    c = dft_coeffs(SampleSet(values=values, grid=grid))
    assert c.a0 == pytest.approx(2.0 / n * values.sum(), abs=1e-12)
    np.testing.assert_allclose(c.a, 2.0 / n * (np.cos(kt) @ values), rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.b, 2.0 / n * (np.sin(kt) @ values), rtol=0, atol=1e-12)


def test_sample_length_mismatch_rejected():
    with pytest.raises(ValueError):
        SampleSet(values=np.ones(5), grid=GridSpec(9, 0))


@warnings_as_errors
@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=50).map(lambda m: 2 * m + 1),
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=-1000, max_value=1020),
)
def test_power_of_two_scaled_data_scale_the_coefficients_exactly(n, kind, seed, e):
    grid = GridSpec(n, kind)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    c = dft_coeffs(SampleSet(values=values, grid=grid))
    scaled = dft_coeffs(SampleSet(values=np.ldexp(values, e), grid=grid))
    assert scaled.a0 == np.ldexp(c.a0, e)
    np.testing.assert_array_equal(scaled.a, np.ldexp(c.a, e))
    np.testing.assert_array_equal(scaled.b, np.ldexp(c.b, e))


@warnings_as_errors
def test_coefficients_beyond_the_float_range_raise_value_error():
    grid = GridSpec(5, 0)
    near_max = dft_coeffs(SampleSet(values=np.array([1e308, -1e308, 1e308, -1e308, 1e308]), grid=grid))
    assert np.isfinite(near_max.a).all() and np.isfinite(near_max.b).all()
    assert near_max.a0 == pytest.approx(0.4e308)
    # a0 is twice the mean, 3.4e308.
    with pytest.raises(ValueError, match="exceeds the float range"):
        dft_coeffs(SampleSet(values=np.full(5, 1.7e308), grid=grid))
