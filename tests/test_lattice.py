import itertools

import pytest
from hypothesis import given, settings, strategies as st

from spincorr import (
    Configuration,
    DomainError,
    EMPTY_CONFIG,
    SpinSpace,
    ball,
    box,
    concat,
    distance_to_complement,
    enumerate_configs,
    interior,
)
from spincorr.errors import BudgetExceededError, ModelDefinitionError


class TestSpinSpace:
    def test_basic(self):
        spins = SpinSpace(("0", "+", "-"), vacuum_index=0)
        assert spins.size == 3
        assert spins.n_x == 2
        assert spins.star_indices == (1, 2)
        assert spins.indices == (0, 1, 2)
        assert spins.index_of("+") == 1

    def test_nonzero_vacuum(self):
        spins = SpinSpace(("a", "b"), vacuum_index=1)
        assert spins.star_indices == (0,)

    def test_errors(self):
        with pytest.raises(ModelDefinitionError):
            SpinSpace(("x",))  # need at least two spins
        with pytest.raises(ModelDefinitionError):
            SpinSpace(("a", "a"))
        with pytest.raises(ModelDefinitionError):
            SpinSpace(("a", "b"), vacuum_index=5)
        with pytest.raises(DomainError):
            SpinSpace(("a", "b")).index_of("zz")


class TestConfiguration:
    def test_sorted_items(self):
        c = Configuration((((3,), 1), ((0,), 2), ((1,), 1)))
        assert c.items == (((0,), 2), ((1,), 1), ((3,), 1))

    def test_duplicate_site_rejected(self):
        with pytest.raises(DomainError):
            Configuration((((0,), 1), ((0,), 2)))

    def test_support_and_mapping(self):
        c = Configuration((((0, 0), 1), ((2, 1), 1)))
        assert c.support == frozenset({(0, 0), (2, 1)})
        assert c.mapping[(2, 1)] == 1

    def test_mapping_is_a_copy(self):
        c = Configuration((((0,), 1), ((2,), 1)))
        twin = Configuration((((0,), 1), ((2,), 1)))
        m = c.mapping
        m[(5,)] = 1
        del m[(0,)]
        assert c.support == frozenset({(0,), (2,)})
        assert c.mapping == {(0,): 1, (2,): 1}
        assert c == twin and hash(c) == hash(twin)

    def test_equality_and_hash(self):
        a = Configuration((((0,), 1), ((1,), 1)))
        b = Configuration((((1,), 1), ((0,), 1)))
        assert a == b and hash(a) == hash(b)
        assert a != EMPTY_CONFIG

    def test_concat_disjoint_only(self):
        a = Configuration((((0,), 1),))
        b = Configuration((((1,), 1),))
        assert concat(a, b).items == (((0,), 1), ((1,), 1))
        with pytest.raises(DomainError):
            concat(a, a)

    def test_lexicographic_min_site_2d(self):
        c = Configuration((((1, 0), 1), ((0, 5), 1)))
        assert c.items[0][0] == (0, 5)


class TestGeometry:
    def test_box_and_ball(self):
        assert len(box((-2,), (2,))) == 5
        assert len(box((0, 0), (2, 1))) == 6
        assert len(ball((0, 0), 1)) == 9
        assert ball((3,), 0) == frozenset({(3,)})
        with pytest.raises(DomainError):
            box((1,), (0,))

    def test_distance_to_complement(self):
        w = box((0,), (4,))
        assert distance_to_complement((0,), w) == 1
        assert distance_to_complement((2,), w) == 3
        assert distance_to_complement((9,), w) == 0

    def test_interior(self):
        w = box((0,), (4,))
        assert interior(w, 0) == w
        assert interior(w, 1) == frozenset({(1,), (2,), (3,)})
        assert interior(w, 2) == frozenset({(2,)})
        assert interior(w, 3) == frozenset()
        w2 = box((0, 0), (4, 4))
        assert interior(w2, 1) == box((1, 1), (3, 3))

    @given(r=st.integers(0, 3), hi=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_interior_nested(self, r, hi):
        w = box((0,), (hi,))
        inner = interior(w, r)
        assert inner <= w
        assert interior(w, r + 1) <= inner


class TestEnumeration:
    def test_counts(self):
        spins = SpinSpace(("0", "1", "2"))
        w = box((0,), (2,))
        configs = list(enumerate_configs(w, spins))
        assert len(configs) == 3 ** 3  # vacuum implicit
        assert len(set(configs)) == len(configs)
        assert EMPTY_CONFIG in configs

    def test_budget(self):
        spins = SpinSpace(("0", "1"))
        with pytest.raises(BudgetExceededError):
            list(enumerate_configs(box((0,), (29,)), spins))

    def test_code_order(self):
        # the spin indices of the sorted sites spell the list position in
        # base q, first site most significant
        spins = SpinSpace(("a", "0", "b"), vacuum_index=1)
        w = box((0,), (2,))
        sites = sorted(w)
        expected = [
            Configuration((s, b) for s, b in zip(sites, combo) if b != 1)
            for combo in itertools.product(range(3), repeat=3)
        ]
        assert enumerate_configs(w, spins) == expected

    def test_deterministic_order(self):
        spins = SpinSpace(("0", "1"))
        w = box((0,), (3,))
        a = list(enumerate_configs(w, spins))
        b = list(enumerate_configs(w, spins))
        assert a == b
