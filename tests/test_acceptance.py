"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (one line per criterion from
pytest) or ``pytest -s`` to see the explicit [criterion NN] lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from trigsplines import (
    DegenerateVariant,
    GridSpec,
    SampleSet,
    SplineSpec,
    TruncationPolicy,
    build,
    custom_table,
    default_alpha,
    dft_coeffs,
    enumerate_all,
    evaluate,
    factor_sums,
    fit_broken_line,
    fit_periodic_cubic,
    interp_factors,
    lookup,
    max_deviation,
    nodal_factor_oracle,
    nodes,
    sample,
    sinc_power,
    trig_poly_eval,
    verify_interpolation,
)
from trigsplines.cli import main as cli_main

DATA = np.array([3.0, 1.0, 3.0, 2.0, 4.0, 1.0, 3.0, 1.0, 2.0])
N = 9
A1 = lookup("A1")
GRID_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Nodal identities hold at any truncation depth shared by basis and factors,
# so the exactness criteria run with a short series.
FAST = TruncationPolicy(m_max=2000)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL")
        raise
    print(f"[criterion {num:02d}] {label}: PASS")


def spec_for(r, i1, i2, signs=A1, policy=FAST, n_nodes=N):
    return SplineSpec(
        family=sinc_power(r, default_alpha(n_nodes)),
        signs=signs,
        r=r,
        n_nodes=n_nodes,
        i1=i1,
        i2=i2,
        policy=policy,
    )


def test_criterion_01_interpolation_exactness():
    with criterion(1, "interpolation exactness on the nine-point data"):
        start = time.perf_counter()
        worst = 0.0
        for r in (1, 3):
            for i1, i2 in GRID_PAIRS:
                model = build(DATA, spec_for(r, i1, i2))
                worst = max(worst, verify_interpolation(model).max_residual)
        elapsed = time.perf_counter() - start
        assert worst < 1e-8, f"max nodal residual {worst:.3e}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def test_criterion_02_factor_identity_for_a1():
    with criterion(2, "cosine and sine factors coincide for A1"):
        for r in (1, 3):
            fam = sinc_power(r, default_alpha(N))
            for i1, i2 in GRID_PAIRS:
                pair = interp_factors(fam, A1, i1, i2, N, FAST)
                for k in range(1, 5):
                    hc, hs = pair.hc[k - 1], pair.hs[k - 1]
                    assert abs(hc - hs) < 1e-10 * abs(hc), (r, i1, i2, k)


def test_criterion_03_closed_form_vs_nodal_oracle():
    with criterion(3, "closed-form factors agree with the nodal oracle"):
        degenerate = []
        for r in (1, 3):
            fam = sinc_power(r, default_alpha(N))
            for signs in enumerate_all():
                for i1, i2 in GRID_PAIRS:
                    try:
                        pair = interp_factors(fam, signs, i1, i2, N, FAST)
                    except DegenerateVariant:
                        degenerate.append((signs.name, i1, i2, r))
                        continue
                    grid = GridSpec(N, i2)
                    for k in range(1, 5):
                        hc, hs = nodal_factor_oracle(fam, signs, i1, grid, k, FAST)
                        assert abs(hc - pair.hc[k - 1]) < 1e-8, (signs.name, i1, i2, r, k)
                        assert abs(hs - pair.hs[k - 1]) < 1e-8, (signs.name, i1, i2, r, k)
        if degenerate:
            print(f"  degenerate variants excluded: {degenerate}")


def test_criterion_04_broken_line_equivalence():
    with criterion(4, "r=1 spline equals the periodic broken line"):
        policy = TruncationPolicy(m_max=1_500_000)  # factor tail decays like 1/M
        model = build(DATA, spec_for(1, 0, 0, policy=policy))
        broken = fit_broken_line(DATA, GridSpec(N, 0))
        dev = max_deviation(model, broken, 2048)
        assert dev < 1e-6, f"max deviation {dev:.3e}"


def test_criterion_05_cubic_equivalence():
    with criterion(5, "r=3 spline equals the periodic cubic interpolant"):
        cubic = fit_periodic_cubic(DATA, GridSpec(N, 0))
        # Independent residual check of the cyclic solve.
        h = 2.0 * np.pi / N
        m = cubic.second_derivs
        lhs = np.roll(m, 1) + 4.0 * m + np.roll(m, -1)
        rhs = 6.0 / h**2 * (np.roll(DATA, 1) - 2.0 * DATA + np.roll(DATA, -1))
        assert np.abs(lhs - rhs).max() < 1e-10
        model = build(DATA, spec_for(3, 0, 0, policy=TruncationPolicy()))
        dev = max_deviation(model, cubic, 2048)
        assert dev < 1e-5, f"max deviation {dev:.3e}"


def test_criterion_06_index_symmetry():
    with criterion(6, "factors depend only on the grid-index parity"):
        for r in (1, 3):
            fam = sinc_power(r, default_alpha(N))
            for signs in enumerate_all():
                p00 = factor_sums(fam, signs, 0, 0, N, FAST)
                p11 = factor_sums(fam, signs, 1, 1, N, FAST)
                p01 = factor_sums(fam, signs, 0, 1, N, FAST)
                p10 = factor_sums(fam, signs, 1, 0, N, FAST)
                assert np.abs(p00.hc - p11.hc).max() < 1e-12
                assert np.abs(p00.hs - p11.hs).max() < 1e-12
                assert np.abs(p01.hc - p10.hc).max() < 1e-12
                assert np.abs(p01.hs - p10.hs).max() < 1e-12


def test_criterion_07_scale_invariance():
    with criterion(7, "factor-family scaling cancels in spline values"):
        # A tolerance-driven order adapts to the absolute scale of the tail,
        # so the comparison runs in fixed-order mode: every scale then sums
        # the identical term set and c cancels algebraically.
        length = 2000
        alpha = default_alpha(N)
        j = np.arange(1, length + 1, dtype=float)
        base = (np.sin(alpha * j / 2.0) / j) ** 4
        policy = TruncationPolicy(fixed_m=250)  # covers the whole table
        reference = None
        for c in (1e-3, 1.0, 1e3):
            fam = custom_table(c * base, r=3)
            spec = SplineSpec(
                family=fam, signs=A1, r=3, n_nodes=N, i1=0, i2=0, policy=policy,
            )
            values = sample(build(DATA, spec), 256)[:, 1]
            if reference is None:
                reference = values
            else:
                rel = np.abs(values - reference) / np.abs(reference)
                assert rel.max() < 1e-12, f"relative change {rel.max():.3e}"


def test_criterion_08_truncation_stability(tmp_path, capsys):
    with criterion(8, "reported values are stable under cap doubling"):
        # r >= 1: at an attainable tolerance the order is tolerance-driven,
        # so doubling the cap must not move any reported value by tol.
        cases = [(1, TruncationPolicy(tol=2e-6, m_max=20_000)),
                 (3, TruncationPolicy(tol=1e-10, m_max=20_000))]
        for r, policy in cases:
            doubled = TruncationPolicy(tol=policy.tol, m_max=2 * policy.m_max)
            m_a = build(DATA, spec_for(r, 0, 1, policy=policy))
            m_b = build(DATA, spec_for(r, 0, 1, policy=doubled))
            assert np.abs(m_a.factors.hc - m_b.factors.hc).max() < policy.tol
            assert np.abs(m_a.factors.hs - m_b.factors.hs).max() < policy.tol
            s_a = sample(m_a, 64)[:, 1]
            s_b = sample(m_b, 64)[:, 1]
            assert np.abs(s_a - s_b).max() < policy.tol
            r_a = verify_interpolation(m_a).max_residual
            r_b = verify_interpolation(m_b).max_residual
            assert abs(r_a - r_b) < policy.tol

        # r = 0: fixed-order mode completes and reports, no bound asserted.
        data_path = tmp_path / "data.json"
        data_path.write_text('{"values": [3,1,3,2,4,1,3,1,2]}')
        code = cli_main(["verify", str(data_path), "--r", "0", "--fixed-m"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# max_residual = " in captured.out


def test_criterion_09_linearity_and_constants():
    with criterion(9, "superposition and constant reproduction"):
        rng = np.random.default_rng(42)
        spec = spec_for(3, 0, 0, policy=TruncationPolicy())
        ts = rng.uniform(0.0, 2.0 * np.pi, size=32)
        for _ in range(3):
            f = rng.uniform(-10.0, 10.0, size=N)
            g = rng.uniform(-10.0, 10.0, size=N)
            lam, mu = rng.uniform(-3.0, 3.0, size=2)
            lhs = evaluate(build(lam * f + mu * g, spec), ts)
            rhs = lam * evaluate(build(f, spec), ts) + mu * evaluate(build(g, spec), ts)
            assert np.abs(lhs - rhs).max() < 1e-9

        constant = np.full(N, 2.5)
        probe = np.linspace(0.0, 2.0 * np.pi, 17)
        for signs in enumerate_all():
            for i1, i2 in GRID_PAIRS:
                model = build(constant, spec_for(3, i1, i2, signs=signs))
                dev = np.abs(evaluate(model, probe) - 2.5).max()
                assert dev < 1e-12, (signs.name, i1, i2, dev)


def test_criterion_10_dft_round_trip():
    with criterion(10, "coefficients invert exactly at the nodes"):
        grid = GridSpec(N, 0)
        samples = SampleSet(values=DATA, grid=grid)
        coeffs = dft_coeffs(samples)
        t = nodes(grid)
        assert np.abs(trig_poly_eval(coeffs, t) - DATA).max() < 1e-10

        # Cross-check once against a dense solve of the interpolation system.
        n = grid.n_harmonics
        cols = [np.full(N, 0.5)]
        cols += [np.cos(k * t) for k in range(1, n + 1)]
        cols += [np.sin(k * t) for k in range(1, n + 1)]
        coefs = np.linalg.solve(np.column_stack(cols), DATA)
        assert abs(coeffs.a0 - coefs[0]) < 1e-10
        assert np.abs(coeffs.a - coefs[1 : n + 1]).max() < 1e-10
        assert np.abs(coeffs.b - coefs[n + 1 :]).max() < 1e-10
