import random
from fractions import Fraction

import pytest

from rangemodes import Config, SetFamily


def direct_intersection(family, i, j):
    return set(family.members(i)) & set(family.members(j))


def check_all_pairs(family):
    for i in range(1, family.num_sets + 1):
        for j in range(i + 1, family.num_sets + 1):
            want = direct_intersection(family, i, j)
            assert family.intersect(i, j) == bool(want), (i, j)
            assert family.enumerate_intersection(i, j) == want, (i, j)


class TestBuild:
    def test_gadget_layout(self):
        family = SetFamily([[0], [1]], universe_size=2)
        assert family.engine.to_list() == [0, 1, 1, 0, 1, 0, 0, 1]
        assert family.gadget_symbols(1) == [0, 1, 1, 0]
        assert family.gadget_symbols(2) == [1, 0, 0, 1]

    def test_empty_set_gadget(self):
        family = SetFamily([[]], universe_size=1)
        assert family.gadget_symbols(1) == [0, 0]

    def test_full_set_gadget(self):
        family = SetFamily([[0]], universe_size=1)
        assert family.gadget_symbols(1) == [0, 0]

    def test_every_universe_element_twice_per_gadget(self):
        family = SetFamily([[0, 2], [1], []], universe_size=4)
        for k in range(1, 4):
            gadget = family.gadget_symbols(k)
            assert len(gadget) == 8
            assert all(gadget.count(x) == 2 for x in range(4))

    def test_member_out_of_universe(self):
        with pytest.raises(IndexError):
            SetFamily([[3]], universe_size=2)

    def test_duplicate_member_rejected(self):
        with pytest.raises(ValueError):
            SetFamily([[1, 1]], universe_size=2)


class TestQueries:
    def test_disjoint_pair(self):
        family = SetFamily([[0], [1]], universe_size=2)
        assert family.intersect(1, 2) is False
        assert family.enumerate_intersection(1, 2) == set()

    def test_overlapping_pair(self):
        family = SetFamily([[0, 1], [0]], universe_size=2)
        assert family.intersect(1, 2) is True
        assert family.enumerate_intersection(1, 2) == {0}

    def test_adjacent_empty_sets_short_circuit(self):
        family = SetFamily([[], []], universe_size=3)
        assert family.intersect(1, 2) is False
        assert family.enumerate_intersection(1, 2) == set()

    def test_full_sets_with_gap_gadget(self):
        universe = list(range(3))
        family = SetFamily([universe, [1], universe], universe_size=3)
        assert family.enumerate_intersection(1, 3) == set(universe)

    def test_all_pairs_random_families(self):
        rng = random.Random(6)
        for _ in range(25):
            universe = rng.randint(1, 8)
            count = rng.randint(2, 5)
            sets = [
                [x for x in range(universe) if rng.random() < 0.4]
                for _ in range(count)
            ]
            check_all_pairs(SetFamily(sets, universe))

    def test_index_validation(self):
        family = SetFamily([[0], [1]], universe_size=2)
        with pytest.raises(ValueError):
            family.intersect(2, 1)
        with pytest.raises(ValueError):
            family.intersect(1, 1)
        with pytest.raises(IndexError):
            family.intersect(0, 1)
        with pytest.raises(IndexError):
            family.enumerate_intersection(1, 3)

    def test_configured_family(self):
        family = SetFamily([[0, 1], [1, 2]], 3, Config(alpha=Fraction(1, 2), audit_mode=True))
        assert family.enumerate_intersection(1, 2) == {1}


class TestUpdates:
    def test_add_member_rewrites_gadget(self):
        family = SetFamily([[0]], universe_size=2)
        family.add_member(1, 1)
        assert family.gadget_symbols(1) == [0, 1, 0, 1]
        assert family.members(1) == [0, 1]

    def test_add_then_remove_roundtrip(self):
        family = SetFamily([[0], [1]], universe_size=2)
        before = family.engine.to_list()
        family.add_member(1, 1)
        family.remove_member(1, 1)
        assert family.engine.to_list() == before
        assert family.members(1) == [0]

    def test_queries_after_update(self):
        family = SetFamily([[0], [1]], universe_size=2)
        assert family.intersect(1, 2) is False
        family.add_member(2, 0)
        assert family.intersect(1, 2) is True
        assert family.enumerate_intersection(1, 2) == {0}
        check_all_pairs(family)

    def test_update_preserves_gadget_invariant(self):
        rng = random.Random(9)
        universe = 6
        sets = [[0, 3], [], [1, 2, 4, 5]]
        family = SetFamily(sets, universe)
        for _ in range(120):
            k = rng.randint(1, 3)
            members = family.members(k)
            if members and rng.random() < 0.5:
                family.remove_member(k, rng.choice(members))
            elif len(members) < universe:
                absent = [x for x in range(universe) if x not in members]
                family.add_member(k, rng.choice(absent))
            gadget = family.gadget_symbols(k)
            assert len(gadget) == 2 * universe
            assert all(gadget.count(x) == 2 for x in range(universe))
        check_all_pairs(family)

    def test_membership_preconditions(self):
        family = SetFamily([[0]], universe_size=2)
        with pytest.raises(ValueError):
            family.add_member(1, 0)
        with pytest.raises(ValueError):
            family.remove_member(1, 1)
        with pytest.raises(IndexError):
            family.add_member(1, 9)
        with pytest.raises(IndexError):
            family.add_member(4, 1)
