import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemodes import CharSeq, InvariantError


def flatten(blocks):
    return [symbol for block in blocks for symbol in block]


def check_mirror(seq, mirror):
    """The sequence holds exactly the mirror's blocks, and its size index agrees."""
    assert seq.blocks == mirror
    assert seq.sizes.to_list() == [len(block) for block in mirror]
    assert seq.to_list() == flatten(mirror)
    assert len(seq) == len(flatten(mirror))


def mirror_insert(mirror, pos, symbol):
    """Insert into plain lists by the documented rule; return the block joined."""
    if not any(mirror):
        mirror[0].insert(0, symbol)
        return 0
    # Join the block holding pos - 1 (at the front, the block holding 0).
    target = max(pos - 1, 0)
    for j, block in enumerate(mirror):
        if target < len(block):
            block.insert(target + (pos > 0), symbol)
            return j
        target -= len(block)
    raise AssertionError("position past the end")


def mirror_delete(mirror, pos):
    for block in mirror:
        if pos < len(block):
            return block.pop(pos)
        pos -= len(block)
    raise AssertionError("position past the end")


def test_access_range_basic():
    seq = CharSeq([[10], [], [11, 12], [13]])
    assert seq.access_range(1, 2) == [11, 12]
    assert seq.access_range(0, 3) == [10, 11, 12, 13]
    assert seq.access_range(2, 3) == [12, 13]


def test_access_range_singleton():
    seq = CharSeq([[], [7], []])
    assert seq.access_range(0, 0) == [7]


def test_access_range_full():
    seq = CharSeq([[], [1], [], [2, 1], []])
    assert seq.access_range(0, 2) == [1, 2, 1]


def test_access_range_leaves_sequence_unchanged():
    seq = CharSeq([[5], [6, 7]])
    seq.access_range(0, 2)
    check_mirror(seq, [[5], [6, 7]])


@pytest.mark.parametrize("lo,hi", [(-1, 0), (0, 3), (2, 1), (3, 3)])
def test_access_range_bounds(lo, hi):
    seq = CharSeq([[1], [], [2, 3], []])
    with pytest.raises(IndexError):
        seq.access_range(lo, hi)


def test_takes_the_block_lists_without_copying():
    blocks = [[1, 2], [], [3]]
    seq = CharSeq(blocks)
    assert seq.blocks is blocks
    assert seq.blocks[0] is blocks[0]
    assert seq.sizes.to_list() == [2, 0, 1]


def test_insert_middle():
    seq = CharSeq([[1], [2]])
    assert seq.insert_block(1) == 0  # the block holding position 0
    seq.insert_at(1, 9)
    check_mirror(seq, [[1, 9], [2]])


def test_insert_into_empty():
    seq = CharSeq([[], [], []])
    assert seq.insert_block(0) == 0
    seq.insert_at(0, 4)
    check_mirror(seq, [[4], [], []])


def test_insert_append():
    seq = CharSeq([[1], []])
    assert seq.insert_block(1) == 0
    seq.insert_at(1, 2)
    check_mirror(seq, [[1, 2], []])


def test_insert_at_front_joins_first_nonempty_block():
    seq = CharSeq([[], [], [5, 6], [7]])
    assert seq.insert_block(0) == 2
    seq.insert_at(0, 4)
    check_mirror(seq, [[], [], [4, 5, 6], [7]])


def test_insert_after_a_block_end_stays_in_that_block():
    seq = CharSeq([[1, 2], [], [3]])
    assert seq.insert_block(2) == 0
    seq.insert_at(2, 9)
    check_mirror(seq, [[1, 2, 9], [], [3]])
    assert seq.insert_block(4) == 2
    seq.insert_at(4, 8)
    check_mirror(seq, [[1, 2, 9], [], [3, 8]])


def test_insert_out_of_range():
    seq = CharSeq([[1], []])
    for pos in (2, -1):
        with pytest.raises(IndexError):
            seq.insert_at(pos, 5)
        with pytest.raises(IndexError):
            seq.insert_block(pos)
    check_mirror(seq, [[1], []])


def test_delete_front():
    seq = CharSeq([[], [1, 2], [3]])
    assert seq.delete_at(0) == 1
    check_mirror(seq, [[], [2], [3]])


def test_delete_only_element():
    seq = CharSeq([[], [1], []])
    assert seq.delete_at(0) == 1
    check_mirror(seq, [[], [], []])


def test_delete_last():
    seq = CharSeq([[1], [2], []])
    assert seq.delete_at(1) == 2
    check_mirror(seq, [[1], [], []])


def test_delete_out_of_range():
    with pytest.raises(IndexError):
        CharSeq([[]]).delete_at(0)
    with pytest.raises(IndexError):
        CharSeq([[1], []]).delete_at(1)
    with pytest.raises(IndexError):
        CharSeq([[1], []]).delete_at(-1)


def test_getitem():
    seq = CharSeq([[4], [], [5, 6]])
    assert [seq[i] for i in range(3)] == [4, 5, 6]
    for pos in (3, -1):
        with pytest.raises(IndexError):
            seq[pos]


def test_locate_skips_empty_blocks():
    seq = CharSeq([[], [4], [], [5, 6], []])
    assert [seq.locate(pos) for pos in range(3)] == [(1, 0), (3, 0), (3, 1)]


def test_moves_carry_one_element_across_a_boundary():
    seq = CharSeq([[1, 2], [], [3]])
    assert seq.move_right(0) == 2
    check_mirror(seq, [[1], [2], [3]])
    assert seq.move_left(2) == 3
    check_mirror(seq, [[1], [2, 3], []])
    assert seq.move_right(1) == 3
    check_mirror(seq, [[1], [2], [3]])
    assert seq.move_left(1) == 2
    check_mirror(seq, [[1, 2], [], [3]])


def test_move_bounds_and_empty_source():
    seq = CharSeq([[1], [], [2]])
    with pytest.raises(IndexError):
        seq.move_left(0)
    with pytest.raises(IndexError):
        seq.move_left(3)
    with pytest.raises(IndexError):
        seq.move_right(2)
    with pytest.raises(IndexError):
        seq.move_right(-1)
    with pytest.raises(InvariantError):
        seq.move_left(1)
    with pytest.raises(InvariantError):
        seq.move_right(1)
    check_mirror(seq, [[1], [], [2]])


def test_distinct_inserts_read_back_in_order():
    seq = CharSeq([[] for _ in range(4)])
    for k in range(50):
        seq.insert_at(len(seq), k)
    assert seq.access_range(0, 49) == list(range(50))
    assert seq.sizes.to_list() == [50, 0, 0, 0]


def test_differential_against_list_mirror():
    # Empty blocks at the front, in the middle and at the end; boundary moves
    # keep spreading the elements over the row.
    rng = random.Random(1234)
    mirror = [[], [], [3, 1], [], [4], [], []]
    seq = CharSeq([list(block) for block in mirror])
    for step in range(20000):
        n = len(flatten(mirror))
        roll = rng.random()
        if n == 0 or roll < 0.4:
            pos = rng.randint(0, n)
            sym = rng.randrange(1000)
            assert seq.insert_block(pos) == mirror_insert(mirror, pos, sym)
            seq.insert_at(pos, sym)
        elif roll < 0.7:
            pos = rng.randrange(n)
            assert seq.delete_at(pos) == mirror_delete(mirror, pos)
        else:
            i = rng.randrange(len(mirror))
            if roll < 0.85 and i > 0 and mirror[i]:
                mirror[i - 1].append(mirror[i].pop(0))
                assert seq.move_left(i) == mirror[i - 1][-1]
            elif i + 1 < len(mirror) and mirror[i]:
                mirror[i + 1].insert(0, mirror[i].pop())
                assert seq.move_right(i) == mirror[i + 1][0]
        if step % 500 == 0:
            check_mirror(seq, mirror)
            flat = flatten(mirror)
            if flat:
                lo = rng.randrange(len(flat))
                hi = rng.randint(lo, len(flat) - 1)
                assert seq.access_range(lo, hi) == flat[lo : hi + 1]
    check_mirror(seq, mirror)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 5), max_size=4), min_size=1, max_size=6),
    st.lists(
        st.tuples(st.sampled_from("idlr"), st.integers(0, 10**6), st.integers(0, 5)),
        max_size=60,
    ),
)
def test_property_matches_list(blocks, ops):
    mirror = [list(block) for block in blocks]
    seq = CharSeq(blocks)
    for kind, raw, sym in ops:
        n = len(flatten(mirror))
        if kind == "i" or (kind == "d" and not n):
            pos = raw % (n + 1)
            assert seq.insert_block(pos) == mirror_insert(mirror, pos, sym)
            seq.insert_at(pos, sym)
        elif kind == "d":
            pos = raw % n
            assert seq.delete_at(pos) == mirror_delete(mirror, pos)
        elif kind == "l":
            i = raw % len(mirror)
            if i == 0 or not mirror[i]:
                with pytest.raises((IndexError, InvariantError)):
                    seq.move_left(i)
            else:
                mirror[i - 1].append(mirror[i].pop(0))
                seq.move_left(i)
        else:
            i = raw % len(mirror)
            if i + 1 == len(mirror) or not mirror[i]:
                with pytest.raises((IndexError, InvariantError)):
                    seq.move_right(i)
            else:
                mirror[i + 1].insert(0, mirror[i].pop())
                seq.move_right(i)
        check_mirror(seq, mirror)
