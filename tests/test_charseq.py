import random
from array import array
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from probe import add_columns, ends, word_count, words

from rangemodes import CharSeq, InvariantError, charseq
from rangemodes.multiset import id_type, unpack


def flatten(blocks):
    return [symbol for block in blocks for symbol in block]


def seq_of(blocks):
    """A CharSeq holding the symbol lists ``blocks``, priced for twice their length."""
    symbols = flatten(blocks)
    return CharSeq(symbols, [len(block) for block in blocks], set(symbols), 2 * len(symbols))


def symbol_blocks(seq):
    """The blocks of ``seq`` as symbol lists, read through its column map."""
    return [[seq.symbol[col] for col in block] for block in seq.blocks]


def seq_over(blocks, alphabet=range(1000)):
    """A CharSeq over ``blocks`` whose column map also holds ``alphabet``.

    In the engine the summary table hands a new symbol its column before
    the sequence takes it; a sequence without a table needs them up front.
    """
    seq = seq_of(blocks)
    add_columns(seq, alphabet)
    return seq


def all_words(seq):
    """The running words of every block, as per-column counts."""
    return [words(seq, k) for k in range(len(seq.blocks))]


def check_mirror(seq, mirror):
    """The sequence holds exactly the mirror's blocks, in arrays of the type
    the width needs, and its block ends agree."""
    code = id_type(len(seq.symbol))
    assert all(type(block) is array and block.typecode == code for block in seq.blocks)
    assert symbol_blocks(seq) == mirror
    assert ends(seq) == list(accumulate(map(len, mirror)))
    assert seq.to_list() == flatten(mirror)
    assert len(seq) == len(flatten(mirror))
    assert seq.chunk_fault() is None


def insert(seq, pos, symbol):
    """Insert ``symbol`` at position ``pos`` as the engine does; return the block joined."""
    k, off = seq.insert_place(pos)
    seq.insert_at(k, off, seq.column[symbol])
    return k


def delete(seq, pos):
    """Remove and return the element at position ``pos`` as the engine does."""
    k, off = seq.locate(pos)
    return seq.symbol[seq.delete_at(k, off)]


def move(seq, name, i):
    """Make the boundary move ``name`` from block ``i``; return the symbol moved."""
    return seq.symbol[getattr(seq, name)(i)]


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
    seq = seq_of([[10], [], [11, 12], [13]])
    assert seq.access_range(1, 2) == [11, 12]
    assert seq.access_range(0, 3) == [10, 11, 12, 13]
    assert seq.access_range(2, 3) == [12, 13]


def test_access_range_singleton():
    seq = seq_of([[], [7], []])
    assert seq.access_range(0, 0) == [7]


def test_access_range_full():
    seq = seq_of([[], [1], [], [2, 1], []])
    assert seq.access_range(0, 2) == [1, 2, 1]


def test_access_range_leaves_sequence_unchanged():
    seq = seq_of([[5], [6, 7]])
    seq.access_range(0, 2)
    check_mirror(seq, [[5], [6, 7]])


@pytest.mark.parametrize("lo,hi", [(-1, 0), (0, 3), (2, 1), (3, 3)])
def test_access_range_bounds(lo, hi):
    seq = seq_of([[1], [], [2, 3], []])
    with pytest.raises(IndexError):
        seq.access_range(lo, hi)


def test_writes_column_arrays_from_the_symbol_list():
    symbols = [2, 0, 1, 2]
    seq = CharSeq(symbols, [2, 0, 2], set(symbols), 8)
    assert symbols == [2, 0, 1, 2]  # read, not changed
    assert seq.blocks == [array("B", [2, 0]), array("B"), array("B", [1, 2])]
    assert seq.symbol == [0, 1, 2] and seq.column == {0: 0, 1: 1, 2: 2}
    assert ends(seq) == [2, 2, 4] and seq.room == 8
    # Symbols get columns in increasing order, whatever their size.
    big = [1 << 63, 7, 1 << 32, 7]
    seq = CharSeq(big, [1, 3], set(big), 8)
    assert seq.symbol == [7, 1 << 32, 1 << 63]
    assert seq.blocks == [array("B", [2]), array("B", [0, 1, 0])]
    check_mirror(seq, [[1 << 63], [7, 1 << 32, 7]])
    with pytest.raises(ValueError):
        CharSeq([1, 2], [1, 0], {1, 2}, 4)


def test_insert_middle():
    seq = seq_over([[1], [2]])
    assert seq.insert_place(1) == (0, 1)  # after the element of block 0
    insert(seq, 1, 9)
    check_mirror(seq, [[1, 9], [2]])


def test_insert_into_empty():
    seq = seq_over([[], [], []])
    assert seq.insert_place(0) == (0, 0)
    insert(seq, 0, 4)
    check_mirror(seq, [[4], [], []])


def test_insert_append():
    seq = seq_over([[1], []])
    assert seq.insert_place(1) == (0, 1)
    insert(seq, 1, 2)
    check_mirror(seq, [[1, 2], []])


def test_insert_at_front_joins_first_nonempty_block():
    seq = seq_over([[], [], [5, 6], [7]])
    assert seq.insert_place(0) == (2, 0)
    insert(seq, 0, 4)
    check_mirror(seq, [[], [], [4, 5, 6], [7]])


def test_insert_after_a_block_end_stays_in_that_block():
    seq = seq_over([[1, 2], [], [3]])
    assert seq.insert_place(2) == (0, 2)
    insert(seq, 2, 9)
    check_mirror(seq, [[1, 2, 9], [], [3]])
    assert seq.insert_place(4) == (2, 1)
    insert(seq, 4, 8)
    check_mirror(seq, [[1, 2, 9], [], [3, 8]])


@pytest.mark.parametrize(
    "blocks, pos, place",
    [
        ([[], [], []], 0, (0, 0)),  # an empty sequence: slot 0
        ([[], [], [5]], 0, (2, 0)),  # the front: the block holding position 0
        ([[], [5, 6], [], []], 1, (1, 1)),
        ([[], [5, 6], [], [7], []], 2, (1, 2)),  # a block end, empty blocks after it
        ([[], [5, 6], [], [7], []], 3, (3, 1)),  # the end of the sequence
        ([[5], [], [], [7, 8]], 1, (0, 1)),  # not the empty blocks in between
        ([[5], [], [], [7, 8]], 2, (3, 1)),
    ],
)
def test_insert_place(blocks, pos, place):
    seq = seq_over(blocks)
    assert seq.insert_place(pos) == place
    mirror = [list(block) for block in blocks]
    assert insert(seq, pos, 9) == mirror_insert(mirror, pos, 9) == place[0]
    check_mirror(seq, mirror)


def test_insert_out_of_range():
    seq = seq_of([[1], []])
    for pos in (2, -1):
        with pytest.raises(IndexError):
            seq.insert_place(pos)
    check_mirror(seq, [[1], []])
    with pytest.raises(IndexError):
        seq_of([[], []]).insert_place(1)


def test_delete_front():
    seq = seq_of([[], [1, 2], [3]])
    assert seq.locate(0) == (1, 0)
    assert delete(seq, 0) == 1
    check_mirror(seq, [[], [2], [3]])


def test_delete_only_element():
    seq = seq_of([[], [1], []])
    assert delete(seq, 0) == 1
    check_mirror(seq, [[], [], []])


def test_delete_last():
    seq = seq_of([[1], [2], []])
    assert seq.locate(1) == (1, 0)
    assert delete(seq, 1) == 2
    check_mirror(seq, [[1], [], []])


def test_delete_out_of_range():
    with pytest.raises(IndexError):
        seq_of([[]]).locate(0)
    seq = seq_of([[1], []])
    for pos in (1, -1):
        with pytest.raises(IndexError):
            seq.locate(pos)
    check_mirror(seq, [[1], []])


def test_getitem():
    seq = seq_of([[4], [], [5, 6]])
    assert [seq[i] for i in range(3)] == [4, 5, 6]
    for pos in (3, -1):
        with pytest.raises(IndexError):
            seq[pos]


def test_locate_skips_empty_blocks():
    seq = seq_of([[], [4], [], [5, 6], []])
    assert [seq.locate(pos) for pos in range(3)] == [(1, 0), (3, 0), (3, 1)]


def test_moves_carry_one_element_across_a_boundary():
    seq = seq_of([[1, 2], [], [3]])
    assert move(seq, "move_right", 0) == 2
    check_mirror(seq, [[1], [2], [3]])
    assert move(seq, "move_left", 2) == 3
    check_mirror(seq, [[1], [2, 3], []])
    assert move(seq, "move_right", 1) == 3
    check_mirror(seq, [[1], [2], [3]])
    assert move(seq, "move_left", 1) == 2
    check_mirror(seq, [[1, 2], [], [3]])


def test_move_bounds_and_empty_source():
    seq = seq_of([[1], [], [2]])
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


def test_opposite_moves_restore_every_word(monkeypatch):
    # S = 2: the words follow from the block arrays alone, so a run of
    # boundary moves undone by the opposite moves in reverse order gives
    # back every word list exactly, whichever words it appended or dropped.
    monkeypatch.setattr(charseq, "CHUNK", 2)
    rng = random.Random(7)
    for _ in range(200):
        seq = seq_over([[rng.randrange(4) for _ in range(rng.randrange(6))] for _ in range(4)])
        before = symbol_blocks(seq), all_words(seq)
        made = []
        for _ in range(rng.randrange(1, 8)):
            i, step = rng.randrange(4), rng.choice((-1, 1))
            if not seq.blocks[i] or not 0 <= i + step < 4:
                continue
            if step < 0:
                seq.move_left(i)
                made.append(("move_right", i - 1))
            else:
                seq.move_right(i)
                made.append(("move_left", i + 1))
            assert seq.chunk_fault() is None
        for name, i in reversed(made):
            getattr(seq, name)(i)
        assert (symbol_blocks(seq), all_words(seq)) == before


def test_distinct_inserts_read_back_in_order():
    seq = seq_over([[] for _ in range(4)])
    for k in range(50):
        insert(seq, len(seq), k)
    assert seq.access_range(0, 49) == list(range(50))
    assert ends(seq) == [50, 50, 50, 50]


def test_differential_against_list_mirror():
    # Empty blocks at the front, in the middle and at the end; boundary moves
    # keep spreading the elements over the row.
    rng = random.Random(1234)
    mirror = [[], [], [3, 1], [], [4], [], []]
    seq = seq_over([list(block) for block in mirror])
    for step in range(20000):
        n = len(flatten(mirror))
        roll = rng.random()
        if n == 0 or roll < 0.4:
            pos = rng.randint(0, n)
            sym = rng.randrange(1000)
            assert insert(seq, pos, sym) == mirror_insert(mirror, pos, sym)
        elif roll < 0.7:
            pos = rng.randrange(n)
            assert delete(seq, pos) == mirror_delete(mirror, pos)
        else:
            i = rng.randrange(len(mirror))
            if roll < 0.85 and i > 0 and mirror[i]:
                mirror[i - 1].append(mirror[i].pop(0))
                assert move(seq, "move_left", i) == mirror[i - 1][-1]
            elif i + 1 < len(mirror) and mirror[i]:
                mirror[i + 1].insert(0, mirror[i].pop())
                assert move(seq, "move_right", i) == mirror[i + 1][0]
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
    seq = seq_over(blocks)
    for kind, raw, sym in ops:
        n = len(flatten(mirror))
        if kind == "i" or (kind == "d" and not n):
            pos = raw % (n + 1)
            assert insert(seq, pos, sym) == mirror_insert(mirror, pos, sym)
        elif kind == "d":
            pos = raw % n
            assert delete(seq, pos) == mirror_delete(mirror, pos)
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


def word_counts(seq, word):
    """The symbol counts a chunk count word holds."""
    fields = unpack(word, len(seq.symbol))
    return Counter({seq.symbol[col]: count for col, count in enumerate(fields) if count})


def test_chunks_follow_edits_and_count_margins(monkeypatch):
    # S = 3: a few hundred edits append and drop words many times over,
    # and margins cut chunks at both ends.
    monkeypatch.setattr(charseq, "CHUNK", 3)
    rng = random.Random(99)
    mirror = [[rng.randrange(5) for _ in range(size)] for size in (0, 13, 30, 1, 9)]
    seq = seq_over([list(block) for block in mirror])
    assert [word_count(seq, k) - 1 for k in range(5)] == [0, 5, 10, 1, 3]
    counted = took = 0
    for _ in range(600):
        n = len(flatten(mirror))
        roll = rng.random()
        if n == 0 or roll < 0.45:
            pos, sym = rng.randint(0, n), rng.randrange(7)
            assert insert(seq, pos, sym) == mirror_insert(mirror, pos, sym)
        elif roll < 0.8:
            pos = rng.randrange(n)
            assert delete(seq, pos) == mirror_delete(mirror, pos)
        else:
            i = rng.randrange(1, len(mirror))
            if mirror[i]:
                mirror[i - 1].append(mirror[i].pop(0))
                seq.move_left(i)
        check_mirror(seq, mirror)
        k = rng.randrange(len(mirror))
        base = len(flatten(mirror[:k]))
        if len(mirror[k]) > 1:
            lo = base + rng.randrange(len(mirror[k]) - 1)
            stop = rng.randint(lo + 1, base + len(mirror[k]) - (lo == base))
            loose, taken = [], []
            word = seq.count(k, lo - base, stop - base, loose, taken)
            if word:
                counted += 1
                took += bool(taken)
                # Each end reads at most half the chunk it cuts.
                assert len(loose) + len(taken) <= 2 * (charseq.CHUNK // 2)
            else:  # no whole chunk: under 2S elements
                assert not taken and len(loose) < 2 * charseq.CHUNK
            # subtract, unlike -, keeps a count that falls to 0 or below.
            total = word_counts(seq, word) + Counter(seq.symbol[col] for col in loose)
            total.subtract(seq.symbol[col] for col in taken)
            total = {symbol: count for symbol, count in total.items() if count}
            assert total == Counter(flatten(mirror)[lo:stop])
    assert counted > 100 and took > 30
