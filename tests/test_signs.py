import pytest

from trigsplines import ELEMENT_NAMES, UnknownElement, lookup

from reference import enumerate_all

# Independent transcription of the full sign table:
# (cos_outer, cos_inner, sin_outer, sin_inner).
EXPECTED = {
    "A1": (+1, +1, +1, -1), "A2": (+1, +1, +1, +1), "A3": (+1, -1, +1, +1), "A4": (+1, -1, +1, -1),
    "B1": (-1, +1, +1, -1), "B2": (-1, +1, +1, +1), "B3": (-1, -1, +1, +1), "B4": (-1, -1, +1, -1),
    "C1": (-1, +1, -1, -1), "C2": (-1, +1, -1, +1), "C3": (-1, -1, -1, +1), "C4": (-1, -1, -1, -1),
    "D1": (+1, +1, -1, -1), "D2": (+1, +1, -1, +1), "D3": (+1, -1, -1, +1), "D4": (+1, -1, -1, -1),
}


def signs_tuple(m):
    return (m.cos_outer, m.cos_inner, m.sin_outer, m.sin_inner)


def test_a1():
    assert signs_tuple(lookup("A1")) == (+1, +1, +1, -1)


def test_c4():
    assert signs_tuple(lookup("C4")) == (-1, -1, -1, -1)


def test_d3():
    assert signs_tuple(lookup("D3")) == (+1, -1, -1, +1)


def test_whole_table():
    for name, expected in EXPECTED.items():
        assert signs_tuple(lookup(name)) == expected, name


def test_enumerate_order_and_size():
    all_elements = enumerate_all()
    assert len(all_elements) == 16
    assert all_elements[0].name == "A1"
    assert [m.name for m in all_elements] == list(EXPECTED)
    assert ELEMENT_NAMES == tuple(EXPECTED)


def test_all_sign_tuples_distinct():
    tuples = {signs_tuple(m) for m in enumerate_all()}
    assert len(tuples) == 16


def test_cos_outer_split():
    assert sum(1 for m in enumerate_all() if m.cos_outer == +1) == 8


@pytest.mark.parametrize("bad", ["E1", "A5", "a1", "", "A0", "XX"])
def test_unknown_labels_rejected(bad):
    with pytest.raises(UnknownElement):
        lookup(bad)
