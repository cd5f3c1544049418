import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from filterlab import monoid as mon

elems3 = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)


def test_add_examples():
    assert mon.add((1, 2), (2, 0)) == (3, 2)
    assert mon.add((0, 0), (3, 1)) == (3, 1)
    assert mon.add((1,), (1,)) == (2,)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        mon.add((1, 2), (1,))


def test_preceq_examples():
    assert mon.preceq((1, 0), (1, 2), mon.POINTWISE)
    assert not mon.preceq((2, 0), (1, 2), mon.POINTWISE)
    assert mon.preceq((0, 5), (1, 0), mon.LEX)


def test_box_enumerate_examples():
    assert mon.box_enumerate((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert mon.box_enumerate((2,)) == [(0,), (1,), (2,)]
    assert mon.box_enumerate((0, 0)) == [(0, 0)]


def test_box_enumerate_size_and_meet_closure():
    box = (2, 1, 2)
    elems = mon.box_enumerate(box)
    assert len(elems) == 3 * 2 * 3
    assert (0, 0, 0) in elems
    s = set(elems)
    for a in elems:
        for b in elems:
            assert tuple(map(min, a, b)) in s


@given(elems3, elems3, elems3)
def test_add_associative_commutative(a, b, c):
    assert mon.add(mon.add(a, b), c) == mon.add(a, mon.add(b, c))
    assert mon.add(a, b) == mon.add(b, a)
    assert mon.add(a, mon.zero(3)) == a


@given(elems3, elems3, elems3, elems3)
@settings(max_examples=200)
def test_preorder_compatible_with_addition(a, b, c, d):
    for kind in (mon.POINTWISE, mon.LEX):
        if mon.preceq(a, b, kind) and mon.preceq(c, d, kind):
            assert mon.preceq(mon.add(a, c), mon.add(b, d), kind)


@given(elems3)
def test_zero_below_everything(a):
    for kind in (mon.POINTWISE, mon.LEX):
        assert mon.preceq(mon.zero(3), a, kind)


def test_graded_monoid_validation():
    with pytest.raises(ValueError):
        mon.GradedMonoid(0)
    with pytest.raises(ValueError):
        mon.GradedMonoid(2, "weird")
    m = mon.GradedMonoid(2, mon.LEX)
    assert m.preceq((0, 9), (1, 0))


def test_atoms():
    assert mon.GradedMonoid(3).atoms == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert mon.GradedMonoid(3, mon.LEX).atoms == [(0, 0, 1)]
    assert mon.GradedMonoid(1).atoms == mon.GradedMonoid(1, mon.LEX).atoms == [(1,)]


@pytest.mark.parametrize("kind", [mon.POINTWISE, mon.LEX])
def test_every_nonzero_grade_lies_above_an_atom(kind):
    for box in ((2,), (1, 2), (2, 0, 1), (1, 1, 1, 1)):
        m = mon.GradedMonoid(len(box), kind)
        for t in mon.box_iter(box):
            if t != m.zero:
                assert any(m.preceq(a, t) for a in m.atoms), (kind, t)
        # and no atom lies above another nonzero grade: they are minimal
        for a in m.atoms:
            assert not any(
                t not in (m.zero, a) and m.preceq(t, a) for t in mon.box_iter((1,) * len(box))
            )
