import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigsplines import (
    ELEMENT_NAMES,
    DegenerateVariant,
    GridSpec,
    SplineSpec,
    TruncationPolicy,
    basis_cos,
    basis_sin,
    build,
    custom_table,
    default_alpha,
    enumerate_all,
    evaluate,
    factor_sums,
    fit_periodic_cubic,
    lookup,
    nodes,
    sample,
    sinc_power,
    trig_poly_eval,
    verify_interpolation,
)

A1 = lookup("A1")
FAST = TruncationPolicy(m_max=300)
GRID_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def make_spec(r, n_nodes, i1=0, i2=0, signs=A1, policy=FAST, alpha=None):
    fam = sinc_power(r, alpha if alpha is not None else default_alpha(n_nodes))
    return SplineSpec(
        family=fam, signs=signs, r=r, n_nodes=n_nodes, i1=i1, i2=i2, policy=policy
    )


def test_build_succeeds_on_demo_data(demo_data):
    model = build(demo_data, make_spec(1, 9))
    assert model.coeffs.a0 == pytest.approx(40.0 / 9.0, abs=1e-14)
    assert model.factors.hc.shape == (4,)


def test_constant_data_reproduces_constant():
    for r in (1, 2, 3):
        model = build(np.full(9, 2.75), make_spec(r, 9, i1=1, i2=1))
        ts = np.linspace(0.0, 2.0 * np.pi, 23)
        np.testing.assert_allclose(evaluate(model, ts), 2.75, atol=1e-12)


def test_wrong_data_length_rejected(demo_data):
    with pytest.raises(ValueError):
        build(demo_data[:-2], make_spec(1, 9))


@pytest.mark.parametrize("bad", [1.0, "1", 2])
@pytest.mark.parametrize("index", ["i1", "i2"])
def test_grid_index_must_be_0_or_1(index, bad):
    grid_indices = {"i1": 0, "i2": 0, index: bad}
    with pytest.raises(ValueError, match="i1 and i2"):
        SplineSpec(family=sinc_power(2, default_alpha(9)), signs=A1, r=2, n_nodes=9, **grid_indices)


def test_grid_indices_stored_as_plain_ints():
    spec = make_spec(2, 9, i1=np.int64(1), i2=True)
    assert (spec.i1, spec.i2) == (1, 1)
    assert type(spec.i1) is int and type(spec.i2) is int


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=9, max_size=9),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_data_rejected(values, index, bad):
    values[index] = bad
    with pytest.raises(ValueError, match="finite"):
        build(values, make_spec(2, 9))


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=6),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_angles_rejected(angles, index, bad):
    index = min(index, len(angles))
    angles.insert(index, bad)
    model = build(np.arange(9.0), make_spec(3, 9))
    with pytest.raises(ValueError, match=f"angles must be finite, got .* at index {index}$"):
        evaluate(model, np.array(angles))
    with pytest.raises(ValueError, match="finite"):
        evaluate(model, bad)


def test_degenerate_variant_does_not_build():
    # v_2 + v_4 = 1, which the B1 cosine row subtracts exactly (k = 1).
    spec = SplineSpec(
        family=custom_table([1.0, 1.0, 0.0, 0.0], r=1), signs=lookup("B1"), r=1, n_nodes=3,
        i1=0, i2=0, policy=TruncationPolicy(fixed_m=3),
    )
    with pytest.raises(DegenerateVariant) as err:
        build([1.0, 2.0, 3.0], spec)
    assert (err.value.k, err.value.which) == (1, "hc")
    raw = factor_sums(spec.family, spec.signs, spec.i1, spec.i2, spec.n_nodes, spec.policy)
    np.testing.assert_array_equal(err.value.pair.hc, raw.hc)
    np.testing.assert_array_equal(err.value.pair.hs, raw.hs)


@settings(deadline=None, max_examples=40)
@given(
    half=st.integers(min_value=2, max_value=10),
    data=st.data(),
    element=st.sampled_from(ELEMENT_NAMES),
    pair=st.sampled_from(GRID_PAIRS),
)
def test_short_custom_table_is_degenerate_past_its_end(half, data, element, pair):
    # Entries past the table are zero, so v_{len+1} and all its aliases are.
    length = data.draw(st.integers(min_value=1, max_value=half - 1))
    table = data.draw(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=length,
                               max_size=length))
    spec = SplineSpec(family=custom_table(table, r=1), signs=lookup(element), r=1,
                      n_nodes=2 * half + 1, i1=pair[0], i2=pair[1])
    with pytest.raises(DegenerateVariant) as err:
        build(np.ones(2 * half + 1), spec)
    assert err.value.k == length + 1


@settings(deadline=None, max_examples=40)
@given(
    p=st.integers(min_value=1, max_value=4),
    r=st.integers(min_value=1, max_value=6),
    half=st.integers(min_value=1, max_value=15),
    element=st.sampled_from(ELEMENT_NAMES),
    pair=st.sampled_from(GRID_PAIRS),
)
def test_alpha_multiple_of_two_pi_does_not_build(p, r, half, element, pair):
    # Every sin(alpha*j/2) = sin(p*pi*j) is zero, so no factor is usable.
    n_nodes = 2 * half + 1
    spec = make_spec(r, n_nodes, *pair, signs=lookup(element), alpha=2.0 * math.pi * p)
    with pytest.raises(DegenerateVariant) as err:
        build(np.ones(n_nodes), spec)
    assert err.value.k == 1
    assert not err.value.pair.hc.any() and not err.value.pair.hs.any()


def test_alpha_four_pi_thirds_fails_at_k3_and_pi_builds():
    # At alpha = 4*pi/3 every j = 9m +/- 3 is a multiple of 3, so v_j = 0.
    with pytest.raises(DegenerateVariant) as err:
        build(np.ones(9), make_spec(3, 9, alpha=4.0 * math.pi / 3.0))
    assert (err.value.k, err.value.which) == (3, "hc")
    # At alpha = pi only even j vanish; the odd aliases of k = 2 remain.
    model = build(np.arange(9.0), make_spec(3, 9, alpha=math.pi))
    assert np.abs(model.factors.hc[1]) > 1e-4
    assert verify_interpolation(model).max_residual < 1e-12


def test_family_spec_smoothness_must_agree():
    fam = sinc_power(2, default_alpha(9))
    with pytest.raises(ValueError):
        SplineSpec(family=fam, signs=A1, r=3, n_nodes=9, i1=0, i2=0)


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("i1,i2", GRID_PAIRS)
def test_nodal_interpolation_demo_data(demo_data, r, i1, i2):
    model = build(demo_data, make_spec(r, 9, i1, i2))
    report = verify_interpolation(model)
    assert report.max_residual < 1e-8


@pytest.mark.parametrize("n_nodes", [3, 5, 21])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_nodal_interpolation_random_data(n_nodes, r):
    rng = np.random.default_rng(n_nodes * 10 + r)
    values = rng.uniform(-10.0, 10.0, size=n_nodes)
    for signs in (A1, lookup("D3")):
        for i1, i2 in ((0, 0), (1, 0)):
            model = build(values, make_spec(r, n_nodes, i1, i2, signs=signs))
            assert verify_interpolation(model).max_residual < 1e-7


def test_midpoint_values_match_broken_line_mean(demo_data):
    # Deep truncation: the factor tail decays like 1/M for r=1.
    pol = TruncationPolicy(m_max=1_000_000)
    model = build(demo_data, make_spec(1, 9, policy=pol))
    pts = sample(model, 18)  # odd rows land midway between kind-0 nodes
    mids = pts[1::2, 1]
    expected = (demo_data + np.roll(demo_data, -1)) / 2.0
    np.testing.assert_allclose(mids, expected, atol=1e-6)


class TestSample:
    def test_count_equal_to_nodes_returns_data(self, demo_data):
        model = build(demo_data, make_spec(2, 9))
        pts = sample(model, 9)
        np.testing.assert_allclose(pts[:, 0], nodes(GridSpec(9, 0)), atol=1e-15)
        np.testing.assert_allclose(pts[:, 1], demo_data, atol=1e-9)

    def test_doubling_count_preserves_shared_points(self, demo_data):
        model = build(demo_data, make_spec(1, 9))
        a = sample(model, 64)
        b = sample(model, 128)
        np.testing.assert_allclose(b[::2, 1], a[:, 1], atol=1e-12)

    def test_agrees_with_direct_evaluation(self, demo_data):
        for r, i1, i2 in ((1, 0, 0), (3, 0, 1), (2, 1, 0)):
            model = build(demo_data, make_spec(r, 9, i1, i2))
            pts = sample(model, 40)
            np.testing.assert_allclose(pts[:, 1], evaluate(model, pts[:, 0]), atol=1e-9)

    def test_count_validation(self, demo_data):
        model = build(demo_data, make_spec(1, 9))
        with pytest.raises(ValueError):
            sample(model, 1)

    def test_r3_curve_matches_cubic_oracle_at_512_points(self, demo_data):
        from trigsplines import fit_periodic_cubic

        model = build(demo_data, make_spec(3, 9, policy=TruncationPolicy()))
        pts = sample(model, 512)
        cubic = fit_periodic_cubic(demo_data, GridSpec(9, 0))
        assert np.abs(pts[:, 1] - cubic(pts[:, 0])).max() < 1e-5


def test_scale_invariance_of_factor_family(demo_data):
    # Multiplying every factor by c cancels in each a_k * basis / h ratio;
    # fixed-order summation keeps the term set identical across scales.
    length = 2000
    alpha = default_alpha(9)
    j = np.arange(1, length + 1, dtype=float)
    base = (np.sin(alpha * j / 2.0) / j) ** 4  # r = 3 profile
    policy = TruncationPolicy(fixed_m=250)
    reference = None
    ts = None
    for c in (1e-3, 1.0, 1e3):
        fam = custom_table(c * base, r=3)
        spec = SplineSpec(
            family=fam, signs=A1, r=3, n_nodes=9, i1=0, i2=0, policy=policy
        )
        pts = sample(build(demo_data, spec), 128)
        if reference is None:
            reference, ts = pts[:, 1], pts[:, 0]
        else:
            np.testing.assert_allclose(pts[:, 1], reference, rtol=1e-12)
            np.testing.assert_array_equal(pts[:, 0], ts)


def test_linearity_superposition(demo_data):
    rng = np.random.default_rng(7)
    g = rng.uniform(-5.0, 5.0, size=9)
    lam, mu = 1.7, -0.9
    spec = make_spec(3, 9, 0, 1)
    mf = build(demo_data, spec)
    mg = build(g, spec)
    mix = build(lam * demo_data + mu * g, spec)
    ts = rng.uniform(0.0, 2.0 * np.pi, size=24)
    np.testing.assert_allclose(
        evaluate(mix, ts),
        lam * evaluate(mf, ts) + mu * evaluate(mg, ts),
        atol=1e-9,
    )


def test_periodicity(demo_data):
    for r in (1, 3):
        model = build(demo_data, make_spec(r, 9, 1, 0))
        ts = np.linspace(0.1, 6.1, 13)
        np.testing.assert_allclose(
            evaluate(model, ts + 2.0 * np.pi), evaluate(model, ts), atol=1e-10
        )


def test_pure_cosine_data_exercises_single_channel():
    # Data sampled from cos(t) leaves only the k=1 cosine channel.
    grid = GridSpec(9, 0)
    values = np.cos(nodes(grid))
    spec = make_spec(2, 9)
    model = build(values, spec)
    ts = np.linspace(0.0, 2.0 * np.pi, 31)
    expected = basis_cos(spec.family, A1, 0, 9, 1, ts, spec.policy) / model.factors.hc[0]
    np.testing.assert_allclose(evaluate(model, ts), expected, atol=1e-9)


def test_r0_fixed_order_model_reports_residuals(demo_data):
    pol = TruncationPolicy(fixed_m=2000)
    model = build(demo_data, make_spec(0, 9, policy=pol))
    report = verify_interpolation(model)
    assert np.isfinite(report.max_residual)
    assert len(report.residuals) == 9


def test_model_is_callable(demo_data):
    model = build(demo_data, make_spec(2, 9))
    assert model(1.1) == pytest.approx(evaluate(model, 1.1), abs=0.0)


def test_all_elements_constant_reproduction():
    # Non-degenerate variants reproduce constants; only a0 survives the DFT.
    ts = np.linspace(0.0, 2.0 * np.pi, 17)
    for signs in enumerate_all():
        for i1, i2 in GRID_PAIRS:
            spec = make_spec(3, 9, i1, i2, signs=signs)
            model = build(np.full(9, -1.5), spec)
            np.testing.assert_allclose(evaluate(model, ts), -1.5, atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_interpolation_property_random_data(seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-10.0, 10.0, size=9)
    model = build(values, make_spec(2, 9, 0, 1))
    assert verify_interpolation(model).max_residual < 1e-7


def series_reference(model, t):
    """a0/2 + sum_k a_k basis_cos_k(t)/hc_k + b_k basis_sin_k(t)/hs_k, each
    basis series summed directly, term by term."""
    spec, c, f = model.spec, model.coeffs, model.factors
    args = (spec.family, spec.signs, spec.i1, spec.n_nodes)
    out = np.full(len(t), c.a0 / 2.0)
    for k in range(1, spec.n_harmonics + 1):
        out += c.a[k - 1] * basis_cos(*args, k, t, spec.policy) / f.hc[k - 1]
        out += c.b[k - 1] * basis_sin(*args, k, t, spec.policy) / f.hs[k - 1]
    return out


angles = st.lists(
    st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6
).map(np.array)


@pytest.mark.parametrize("i1,i2", GRID_PAIRS)
@pytest.mark.parametrize("element", ELEMENT_NAMES)
@settings(deadline=None, max_examples=6)
@given(
    r=st.sampled_from([1, 2, 3]),
    alpha_scale=st.sampled_from([1.0, 0.8]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=angles,
)
def test_evaluate_matches_direct_series(element, i1, i2, r, alpha_scale, seed, t):
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=9)
    spec = make_spec(r, 9, i1, i2, signs=lookup(element), alpha=alpha_scale * default_alpha(9))
    model = build(values, spec)
    reference = series_reference(model, t)
    atol = 1e-12 * max(1.0, np.abs(reference).max())
    np.testing.assert_allclose(evaluate(model, t), reference, rtol=0, atol=atol)


@settings(deadline=None, max_examples=30)
@given(
    element=st.sampled_from(ELEMENT_NAMES),
    pair=st.sampled_from(GRID_PAIRS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    t=angles,
)
# Near-degenerate: values reach ~240, where rounding alone exceeds 1e-12.
@example(element="C2", pair=(0, 1), seed=6556, t=np.array([-9.5]))
def test_custom_table_evaluate_matches_direct_series(element, pair, seed, t):
    rng = np.random.default_rng(seed)
    j = np.arange(1, 201)
    fam = custom_table(rng.uniform(0.5, 1.5, size=j.size) / j**2.0, r=1)
    spec = SplineSpec(
        family=fam, signs=lookup(element), r=1, n_nodes=9, i1=pair[0], i2=pair[1],
        policy=TruncationPolicy(fixed_m=30),
    )
    model = build(rng.uniform(-1.0, 1.0, size=9), spec)
    reference = series_reference(model, t)
    atol = 1e-12 * max(1.0, np.abs(reference).max())
    np.testing.assert_allclose(evaluate(model, t), reference, rtol=0, atol=atol)


def test_sample_at_65536_points_matches_evaluate(demo_data):
    model = build(demo_data, make_spec(3, 9, policy=TruncationPolicy()))
    pts = sample(model, 2**16)
    probe = np.random.default_rng(11).choice(2**16, size=24, replace=False)
    np.testing.assert_allclose(pts[probe, 1], evaluate(model, pts[probe, 0]), rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(
    st.floats(min_value=1e6, max_value=1e12),
    st.sampled_from([1.0, -1.0]),
)
def test_large_angles_reduce_modulo_two_pi(magnitude, sign):
    model = build(np.random.default_rng(3).uniform(-1.0, 1.0, size=9), make_spec(1, 9, 1, 0))
    t = sign * magnitude
    assert evaluate(model, t) == evaluate(model, float(np.mod(t, 2.0 * np.pi)))


@settings(deadline=None, max_examples=30)
@given(
    shape=st.sampled_from([(), (0,), (1,), (5,), (2, 3), (0, 2), (3, 1)]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_evaluators_return_the_shape_of_t(shape, seed):
    # A float for a scalar angle, else an array of the angles' shape holding
    # the values at the flattened angles.
    rng = np.random.default_rng(seed)
    spec = make_spec(2, 9, i1=1)
    model = build(rng.standard_normal(9), spec)
    evaluators = (
        model,
        lambda t: trig_poly_eval(model.coeffs, t),
        lambda t: basis_cos(spec.family, spec.signs, 1, 9, 3, t, FAST),
        lambda t: basis_sin(spec.family, spec.signs, 1, 9, 3, t, FAST),
        fit_periodic_cubic(model.source.values, GridSpec(9, 0)),
    )
    t = np.asarray(rng.uniform(-10.0, 10.0, shape))
    for f in evaluators:
        out = f(t)
        if shape == ():
            assert type(out) is float and type(f(float(t))) is float
        else:
            assert out.shape == shape
        np.testing.assert_allclose(np.ravel(out), f(t.ravel()), rtol=1e-13, atol=1e-13)
