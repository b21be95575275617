import gc
import random
import struct
import sys
from bisect import bisect_left
from fractions import Fraction

import pytest

from rangemodes import Config, RangeModeEngine, SetFamily, multiset


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

    def test_empty_universe_gadget(self):
        family = SetFamily([[], []], universe_size=0)
        assert family.gadget_symbols(2) == [] and family.engine.to_list() == []

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

    @pytest.mark.parametrize("sets", [[[True]], [[1.0]], [[None]], [[1, None]], [[0], ["1"]]])
    def test_member_ids_must_be_ints(self, sets):
        # True and 1.0 passed the family's checks and failed in the engine;
        # None failed inside a comparison.
        bad = type(sets[-1][-1]).__name__
        with pytest.raises(TypeError, match=f"^member id must be an int, got {bad}$"):
            SetFamily(sets, 2)

    @pytest.mark.parametrize("universe", [True, 2.0, "2", None])
    def test_universe_size_must_be_an_int(self, universe):
        # True passed as a universe of 1, and 2.0 failed inside range().
        with pytest.raises(TypeError, match="universe_size must be an int"):
            SetFamily([[0]], universe)


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
        with pytest.raises(TypeError):
            family.enumerate_intersection(True, 2)

    def test_configured_family(self):
        family = SetFamily([[0, 1], [1, 2]], 3, Config(alpha=Fraction(1, 2)))
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

    @pytest.mark.parametrize(
        "method, k, bad",
        [
            ("add_member", 1, True),
            ("add_member", 1, 1.0),
            ("add_member", 1, "1"),
            ("remove_member", 2, True),
            ("remove_member", 1, 2.0),
            ("remove_member", 1, None),
            ("add_member", True, 3),
            ("remove_member", True, 0),
        ],
    )
    def test_rejected_member_leaves_family_unchanged(self, method, k, bad):
        # True == 1 and 2.0 == 2 pass the range and rank checks, so the types
        # of the set index and the member are checked before the first point
        # update of the gadget.
        family = SetFamily([[0, 2], [1, 2]], universe_size=4)
        members = [family.members(s) for s in (1, 2)]
        gadgets = [family.gadget_symbols(s) for s in (1, 2)]
        with pytest.raises(TypeError):
            getattr(family, method)(k, bad)
        assert [family.members(s) for s in (1, 2)] == members
        assert [family.gadget_symbols(s) for s in (1, 2)] == gadgets
        assert family.engine.audit().ok


def allocated(items):
    """How many items the list ``items`` has room for."""
    return (sys.getsizeof(items) - sys.getsizeof([])) // struct.calcsize("P")


class TestUpdateFaults:
    """An update that fails before its first relocation stores changes
    nothing, and once its second has stored, it completes whatever fails."""

    @pytest.mark.parametrize(("method", "x"), [("add_member", 11), ("remove_member", 7)])
    def test_a_failed_first_relocation_changes_nothing(self, monkeypatch, method, x):
        family = SetFamily([[1, 5, 9], [2, 5, 7, 9]], 16)
        before = family.members(2), family.gadget_symbols(2), family.engine.to_list()

        def refuse(src, dst):
            raise MemoryError

        monkeypatch.setattr(family.engine, "relocate", refuse)
        with pytest.raises(MemoryError):
            getattr(family, method)(2, x)
        assert (family.members(2), family.gadget_symbols(2), family.engine.to_list()) == before
        assert family.engine.audit().ok

    @pytest.mark.parametrize(("method", "x"), [("add_member", 11), ("remove_member", 7)])
    def test_every_allocation_failing_after_the_second_relocation(self, monkeypatch, method, x):
        # The member list is first brought to where its own insert must grow
        # it, or its own delete shrink it, so that an update that edits the
        # list after the relocations raises here.  When each update stores
        # a new list, that point may never come, and the ids run out first.
        _testcapi = pytest.importorskip("_testcapi")
        u = 32
        family = SetFamily([[], [y for y in range(20) if y % 3 != 2]], u)  # 7 in, 11 out
        relocate, armed = family.engine.relocate, [0]

        def relocate_then_fail(src, dst):
            moved = relocate(src, dst)
            if armed[0]:
                armed[0] -= 1
                if not armed[0]:
                    _testcapi.set_nomemory(0)  # every allocation from here on fails
            return moved

        monkeypatch.setattr(family.engine, "relocate", relocate_then_fail)
        family.add_member(1, 3)  # warm-up of the update's path
        family.remove_member(1, 3)
        add = method == "add_member"
        others = [y for y in range(u) if y != x and (y in family.members(2)) != add]

        def edit_allocates(members):
            if add:
                return len(members) == allocated(members)
            return len(members) - 1 < allocated(members) // 2

        while others and not edit_allocates(family._members[1]):
            getattr(family, method)(2, others.pop())
        want = sorted({*family.members(2)} ^ {x})
        gc.disable()
        armed[0] = 2
        try:
            getattr(family, method)(2, x)
        finally:
            _testcapi.remove_mem_hooks()
            gc.enable()
        assert armed[0] == 0
        gadget = family.gadget_symbols(2)
        assert family.members(2) == want == gadget[: len(want)] == gadget[2 * u - len(want) :]
        assert family.engine.audit().ok


def four_edit_update(engine, universe, members, k, x):
    """Add ``x`` to set ``k``, or remove it, as two deletes and two inserts.

    ``members`` is the set before the update.  This is how an update was
    done before it became two relocations, kept as the reference.
    """
    rank_m = bisect_left(members, x)
    base = 2 * (k - 1) * universe
    size = len(members)
    comp = universe - size
    rank_c = x - rank_m
    if rank_m < size and members[rank_m] == x:
        engine.delete(base + size + 2 * comp + rank_m)
        engine.delete(base + rank_m)
        engine.insert(base + (size - 1) + rank_c, x)
        engine.insert(base + (size - 1) + (comp + 1) + rank_c, x)
    else:
        engine.delete(base + size + comp + rank_c)
        engine.delete(base + size + rank_c)
        engine.insert(base + rank_m, x)
        engine.insert(base + (size + 1) + 2 * (comp - 1) + rank_m, x)


class TestRelocatingUpdates:
    @pytest.mark.parametrize("universe, count", [(256, 64), (100, 37), (33, 200), (7, 300)])
    def test_same_layout_as_four_point_edits(self, monkeypatch, universe, count):
        rng = random.Random(universe * count)
        sets = [[x for x in range(universe) if rng.random() < 0.5] for _ in range(count)]
        family = SetFamily(sets, universe)
        reference = RangeModeEngine(family.engine.to_list())
        assert reference.block_sizes() == family.engine.block_sizes()
        # Count the relocations of the family's engine that edit its table.
        table, edits, editing = family.engine._table, [0], [0]
        apply_point = multiset.PairTable.apply_point
        relocate = family.engine.relocate

        def counted_apply_point(self, *args):
            edits[0] += self is table
            return apply_point(self, *args)

        def counted_relocate(src, dst):
            before = edits[0]
            symbol = relocate(src, dst)
            editing[0] += edits[0] > before
            return symbol

        monkeypatch.setattr(multiset.PairTable, "apply_point", counted_apply_point)
        monkeypatch.setattr(family.engine, "relocate", counted_relocate)
        for step in range(6000):
            k, x = rng.randint(1, count), rng.randrange(universe)
            members = family.members(k)
            four_edit_update(reference, universe, members, k, x)
            (family.remove_member if x in members else family.add_member)(k, x)
            assert family.engine.block_sizes() == reference.block_sizes(), step
        assert family.engine.to_list() == reference.to_list()
        assert family.engine.reset_events == reference.reset_events
        assert family.engine._table is table and family.engine.audit().ok
        if (universe, count) == (256, 64):  # each gadget fills two blocks
            assert editing[0] <= 0.01 * 2 * 6000, editing[0]
