"""The public surface: the README's library example, ``__all__``, the
records' immutability and equality, and the one-of rule of
:class:`trigsplines.FactorFamily`."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import trigsplines
from trigsplines import FactorFamily

README = Path(__file__).resolve().parents[1] / "README.md"

# Test references that live in tests/reference.py, and names that are gone.
NOT_EXPORTED = ("factor_at", "factor_sums", "nodal_factor_oracle", "trig_poly_eval",
                "enumerate_all", "IndexOutOfTable", "NoUsableNode", "basis_cos", "basis_sin",
                "variant_factors", "nodal_factors", "gated_factors")


def test_readme_library_usage_runs_as_written(capsys):
    section = README.read_text().split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    residual, value = capsys.readouterr().out.split()
    assert float(residual) < 1e-13 and math.isfinite(float(value))


def test_every_exported_name_resolves():
    assert len(set(trigsplines.__all__)) == len(trigsplines.__all__)
    for name in trigsplines.__all__:
        assert getattr(trigsplines, name) is not None, name


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_test_references_and_removed_names_are_not_exported(name):
    assert name not in trigsplines.__all__
    assert not hasattr(trigsplines, name)


def test_grid_spec_is_the_one_owner_of_the_harmonic_count():
    assert trigsplines.GridSpec(9).n_harmonics == 4
    for cls in (trigsplines.SplineSpec, trigsplines.HarmonicCoeffs):
        assert not hasattr(cls, "n_harmonics")


def test_factor_family_has_no_kind():
    family = trigsplines.sinc_power(3, 0.5)
    assert not hasattr(family, "kind")
    assert (family.alpha, family.table) == (0.5, None)
    table = trigsplines.custom_table([0.5, 0.25], r=1)
    assert (table.alpha, table.table) == (None, (0.5, 0.25))


@given(
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=1e-3, max_value=10.0),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
)
def test_factor_family_takes_exactly_one_of_alpha_and_table(r, alpha, table):
    with pytest.raises(ValueError, match="exactly one of alpha and table"):
        FactorFamily(r, alpha=alpha, table=table)
    with pytest.raises(ValueError, match="exactly one of alpha and table"):
        FactorFamily(r)
    assert FactorFamily(r, alpha=alpha).alpha == alpha
    assert FactorFamily(r, table=table).table == tuple(table)


def _spec_records():
    """Fresh instances of the five value records, from the same arguments."""
    family = trigsplines.sinc_power(3, trigsplines.default_alpha(9))
    policy = trigsplines.TruncationPolicy(m_max=300)
    spec = trigsplines.SplineSpec(family, trigsplines.lookup("B2"), 3, 9, 1, 1, policy)
    return [trigsplines.GridSpec(9, 1), spec.signs, family, policy, spec]


def test_records_are_immutable_and_value_records_compare_by_value():
    grid, signs, family, policy, spec = values = _spec_records()
    data = np.arange(9.0)
    model = trigsplines.build(data, spec)
    analog = trigsplines.fit_periodic_cubic(data, grid)
    records = [(grid, "n_nodes"), (signs, "name"), (family, "r"), (policy, "tol"), (spec, "i1"),
               (model.source, "values"), (model.coeffs, "a0"), (model.factors, "hc"),
               (trigsplines.verify_interpolation(model), "max_residual"), (model, "spec"),
               (analog, "knots")]
    assert len({type(record) for record, _ in records}) == 11
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    for one, twin in zip(values, _spec_records()):
        assert one is not twin and one == twin and hash(one) == hash(twin)
    # A built model and a fitted oracle equal only themselves.
    for one, twin in ((model, trigsplines.build(data, spec)),
                      (analog, trigsplines.fit_periodic_cubic(data, grid))):
        assert one == one and one != twin and not one == twin
        assert len({one, twin, one}) == 2


def test_replace_checks_the_replaced_fields():
    spec = _spec_records()[-1]
    assert spec._replace(i1=0).i1 == 0 and trigsplines.GridSpec(9)._replace(kind=1) == (9, 1)
    with pytest.raises(ValueError, match=r"i1 and i2 must be 0 or 1, got 2, 1$"):
        spec._replace(i1=2)
    with pytest.raises(trigsplines.InvalidGrid, match="odd integer"):
        trigsplines.GridSpec(9)._replace(n_nodes=4)
    with pytest.raises(ValueError, match="tol must be positive"):
        spec.policy._replace(tol=0.0)
