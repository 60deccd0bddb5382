import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigsplines.analog as analog_mod
from trigsplines import (
    GridSpec,
    SolverFailure,
    TruncationPolicy,
    build,
    default_alpha,
    fit_broken_line,
    fit_periodic_cubic,
    fit_periodic_quadratic,
    lookup,
    max_deviation,
    nodes,
    sinc_power,
    solve_cyclic_tridiagonal,
    SplineSpec,
)


def dense_cyclic_solve(sub, diag, sup, rhs):
    """Oracle: assemble the full periodic matrix and use a dense solver."""
    n = len(diag)
    A = np.zeros((n, n))
    for i in range(n):
        A[i, (i - 1) % n] += sub[i]
        A[i, i] += diag[i]
        A[i, (i + 1) % n] += sup[i]
    return np.linalg.solve(A, rhs)


class TestCyclicSolver:
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=3, max_value=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_dense_solver(self, n, seed):
        rng = np.random.default_rng(seed)
        sub = rng.uniform(-1.0, 1.0, n)
        sup = rng.uniform(-1.0, 1.0, n)
        diag = rng.uniform(3.0, 6.0, n)  # diagonally dominant
        rhs = rng.uniform(-10.0, 10.0, n)
        x = solve_cyclic_tridiagonal(sub, diag, sup, rhs)
        oracle = dense_cyclic_solve(sub, diag, sup, rhs)
        np.testing.assert_allclose(x, oracle, atol=1e-10)

    def test_small_system_rejected(self):
        with pytest.raises(ValueError):
            solve_cyclic_tridiagonal([1, 1], [4, 4], [1, 1], [1, 2])


class TestBrokenLine:
    def test_constant(self):
        bl = fit_broken_line(np.full(9, 4.0), GridSpec(9, 0))
        ts = np.linspace(0.0, 2.0 * np.pi, 50)
        np.testing.assert_allclose(bl(ts), 4.0, atol=0.0)

    def test_exact_at_nodes(self, demo_data):
        grid = GridSpec(9, 0)
        bl = fit_broken_line(demo_data, grid)
        np.testing.assert_allclose(bl(nodes(grid)), demo_data, atol=0.0)

    def test_midpoints_are_means(self, demo_data):
        grid = GridSpec(9, 0)
        bl = fit_broken_line(demo_data, grid)
        mids = nodes(grid) + np.pi / 9.0
        expected = (demo_data + np.roll(demo_data, -1)) / 2.0
        np.testing.assert_allclose(bl(mids), expected, atol=1e-13)

    def test_kind1_grid_supported(self, demo_data):
        grid = GridSpec(9, 1)
        bl = fit_broken_line(demo_data, grid)
        np.testing.assert_allclose(bl(nodes(grid)), demo_data, atol=1e-13)


class TestPeriodicCubic:
    def test_constant_has_zero_curvature(self):
        cub = fit_periodic_cubic(np.full(9, 1.25), GridSpec(9, 0))
        np.testing.assert_allclose(cub.second_derivs, 0.0, atol=1e-12)
        ts = np.linspace(0.0, 2.0 * np.pi, 33)
        np.testing.assert_allclose(cub(ts), 1.25, atol=1e-12)

    def test_exact_at_knots(self, demo_data):
        grid = GridSpec(9, 0)
        cub = fit_periodic_cubic(demo_data, grid)
        np.testing.assert_allclose(cub(nodes(grid)), demo_data, atol=1e-12)

    def test_second_derivatives_satisfy_cyclic_system(self, demo_data):
        grid = GridSpec(9, 0)
        cub = fit_periodic_cubic(demo_data, grid)
        h = grid.spacing
        m = cub.second_derivs
        f = demo_data
        lhs = np.roll(m, 1) + 4.0 * m + np.roll(m, -1)
        rhs = 6.0 / h**2 * (np.roll(f, 1) - 2.0 * f + np.roll(f, -1))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_second_derivatives_match_dense_oracle(self, demo_data):
        grid = GridSpec(9, 0)
        cub = fit_periodic_cubic(demo_data, grid)
        h = grid.spacing
        f = demo_data
        n = 9
        rhs = 6.0 / h**2 * (np.roll(f, 1) - 2.0 * f + np.roll(f, -1))
        oracle = dense_cyclic_solve(np.ones(n), np.full(n, 4.0), np.ones(n), rhs)
        np.testing.assert_allclose(cub.second_derivs, oracle, atol=1e-10)

    def test_sine_data_tracks_sine(self):
        grid = GridSpec(21, 0)
        cub = fit_periodic_cubic(np.sin(nodes(grid)), grid)
        ts = np.linspace(0.0, 2.0 * np.pi, 400)
        assert np.abs(cub(ts) - np.sin(ts)).max() < 2e-3

    def test_solver_failure_gate(self, demo_data, monkeypatch):
        def bad_solver(sub, diag, sup, rhs):
            return np.zeros_like(np.asarray(rhs, dtype=float))

        monkeypatch.setattr(analog_mod, "solve_cyclic_tridiagonal", bad_solver)
        with pytest.raises(SolverFailure):
            analog_mod.fit_periodic_cubic(demo_data, GridSpec(9, 0))

    def test_solver_gate_catches_a_small_relative_error(self, demo_data, monkeypatch):
        # The limit scales with max|rhs|, yet a solution off by 1e-6 relative
        # still fails it.
        solve = analog_mod.solve_cyclic_tridiagonal
        monkeypatch.setattr(
            analog_mod, "solve_cyclic_tridiagonal", lambda *a: solve(*a) * (1.0 + 1e-6)
        )
        with pytest.raises(SolverFailure):
            analog_mod.fit_periodic_cubic(demo_data, GridSpec(9, 0))
        with pytest.raises(SolverFailure):
            analog_mod.fit_periodic_quadratic(demo_data, GridSpec(9, 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_nodes", [1001, 2001])
    def test_large_grids_fit(self, n_nodes, seed):
        # The right-hand side grows like N**2, and so does the solve's rounding.
        values = np.random.default_rng(seed).standard_normal(n_nodes)
        grid = GridSpec(n_nodes, 0)
        np.testing.assert_allclose(fit_periodic_cubic(values, grid)(nodes(grid)), values, atol=1e-9)


class TestPeriodicQuadratic:
    def test_interpolates_at_kind1_nodes(self, demo_data):
        grid = GridSpec(9, 1)
        quad = fit_periodic_quadratic(demo_data, grid)
        np.testing.assert_allclose(quad(nodes(grid)), demo_data, atol=1e-12)

    def test_knot_values_satisfy_cyclic_system(self, demo_data):
        quad = fit_periodic_quadratic(demo_data, GridSpec(9, 1))
        u = quad.knot_values
        f = demo_data
        lhs = np.roll(u, 1) + 6.0 * u + np.roll(u, -1)
        rhs = 4.0 * (np.roll(f, 1) + f)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_c1_continuity_at_knots(self, demo_data):
        quad = fit_periodic_quadratic(demo_data, GridSpec(9, 1))
        eps = 1e-7
        for t in nodes(GridSpec(9, 0)):
            left = (quad(t) - quad(t - eps)) / eps
            right = (quad(t + eps) - quad(t)) / eps
            assert right == pytest.approx(left, abs=1e-5)

    def test_requires_kind1_grid(self, demo_data):
        with pytest.raises(ValueError):
            fit_periodic_quadratic(demo_data, GridSpec(9, 0))


class TestMaxDeviation:
    def test_model_against_itself_is_zero(self, demo_data):
        from trigsplines import evaluate

        spec = SplineSpec(
            family=sinc_power(3, default_alpha(9)),
            signs=lookup("A1"),
            r=3,
            n_nodes=9,
            i1=0,
            i2=0,
            policy=TruncationPolicy(),
        )
        model = build(demo_data, spec)
        # The analog slot takes any callable; the model itself gives the
        # sampling-order-only discrepancy.
        assert max_deviation(model, lambda t: evaluate(model, t), 256) < 1e-9

    def test_constant_model_vs_constant_analog(self):
        spec = SplineSpec(
            family=sinc_power(1, default_alpha(9)),
            signs=lookup("A1"),
            r=1,
            n_nodes=9,
            i1=0,
            i2=0,
            policy=TruncationPolicy(m_max=500),
        )
        model = build(np.full(9, 3.5), spec)
        bl = fit_broken_line(np.full(9, 3.5), GridSpec(9, 0))
        assert max_deviation(model, bl, 512) < 1e-12

    def test_value_length_mismatch_rejected(self, demo_data):
        with pytest.raises(ValueError):
            fit_broken_line(demo_data, GridSpec(11, 0))


class TestMatchedGridEquivalences:
    """Matched crosslink/interpolation grids reproduce the classical periodic
    splines on that same grid, for both grid kinds."""

    @pytest.mark.parametrize("i", [0, 1])
    def test_r1_equals_broken_line(self, demo_data, i):
        spec = SplineSpec(
            family=sinc_power(1, default_alpha(9)),
            signs=lookup("A1"),
            r=1,
            n_nodes=9,
            i1=i,
            i2=i,
            policy=TruncationPolicy(m_max=1_000_000),
        )
        model = build(demo_data, spec)
        broken = fit_broken_line(demo_data, GridSpec(9, i))
        assert max_deviation(model, broken, 1024) < 1e-6

    @pytest.mark.parametrize("i", [0, 1])
    def test_r3_equals_periodic_cubic(self, demo_data, i):
        spec = SplineSpec(
            family=sinc_power(3, default_alpha(9)),
            signs=lookup("A1"),
            r=3,
            n_nodes=9,
            i1=i,
            i2=i,
            policy=TruncationPolicy(),
        )
        model = build(demo_data, spec)
        cubic = fit_periodic_cubic(demo_data, GridSpec(9, i))
        assert max_deviation(model, cubic, 1024) < 1e-5


    @pytest.mark.parametrize("n_nodes", [5, 9, 21])
    def test_r2_kind1_equals_periodic_quadratic(self, demo_data, n_nodes):
        # Kind-1 data, knots on the kind-0 grid.  The deviation grows with N
        # (2e-11 at N=5, 4e-10 at N=9, 3e-8 at N=21) because the absolute
        # tail tolerance is fixed while v_k shrinks like (pi/N)^3.
        values = (
            demo_data if n_nodes == 9
            else np.random.default_rng(n_nodes).uniform(-1.0, 1.0, n_nodes)
        )
        spec = SplineSpec(
            family=sinc_power(2, default_alpha(n_nodes)),
            signs=lookup("A1"),
            r=2,
            n_nodes=n_nodes,
            i1=1,
            i2=1,
            policy=TruncationPolicy(),
        )
        model = build(values, spec)
        quad = fit_periodic_quadratic(values, GridSpec(n_nodes, 1))
        assert max_deviation(model, quad, 2048) < 1e-7


def test_quadratic_vs_r2_spline_is_a_reported_finding(demo_data):
    # The prescribed even-degree comparison: quadratic stitched at kind-0
    # knots vs the r=2 mismatched-grid spline.  Empirically these disagree by
    # O(1); the deviation is reported, never asserted small.  (The r=2 spline
    # instead matches a quadratic with knots on the kind-1 grid.)
    spec = SplineSpec(
        family=sinc_power(2, default_alpha(9)),
        signs=lookup("A1"),
        r=2,
        n_nodes=9,
        i1=0,
        i2=1,
        policy=TruncationPolicy(),
    )
    model = build(demo_data, spec)
    quad = fit_periodic_quadratic(demo_data, GridSpec(9, 1))
    dev = max_deviation(model, quad, 512)
    assert np.isfinite(dev)
    print(f"[finding] r=2 (0,1) vs kind-0-knot quadratic: max deviation = {dev:.6f}")
