import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from probe import add_columns, ends, words

import rangemodes.engine as engine_module
from rangemodes import CharSeq, Config, NaiveSeq, PairTable, RangeModeEngine, charseq
from rangemodes.multiset import id_type, unpack


def flatten(blocks):
    return [symbol for block in blocks for symbol in block]


def seq_of(blocks):
    """A CharSeq holding the symbol lists ``blocks``."""
    symbols = flatten(blocks)
    return CharSeq(symbols, [len(block) for block in blocks], set(symbols))


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
    seq.edit(None, None, k, off, seq.column[symbol])
    return k


def delete(seq, pos):
    """Remove and return the element at position ``pos`` as the engine does."""
    k, off = seq.locate(pos)
    col = seq.blocks[k][off]
    seq.edit(k, off, None, None, col)
    return seq.symbol[col]


def move(seq, i, k):
    """Carry the end element of block ``i`` that faces its neighbour ``k``
    into it, by one edit across the boundary; return the symbol moved."""
    off = 0 if k < i else len(seq.blocks[i]) - 1
    col = seq.blocks[i][off]
    seq.edit(i, off, k, len(seq.blocks[k]) if k < i else 0, col)
    return seq.symbol[col]


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


def test_writes_column_arrays_from_the_symbol_list():
    symbols = [2, 0, 1, 2]
    seq = CharSeq(symbols, [2, 0, 2], set(symbols))
    assert symbols == [2, 0, 1, 2]  # read, not changed
    assert seq.blocks == [array("B", [2, 0]), array("B"), array("B", [1, 2])]
    assert seq.symbol == [0, 1, 2] and seq.column == {0: 0, 1: 1, 2: 2}
    assert ends(seq) == [2, 2, 4]
    # Symbols get columns in increasing order, whatever their size.
    big = [1 << 63, 7, 1 << 32, 7]
    seq = CharSeq(big, [1, 3], set(big))
    assert seq.symbol == [7, 1 << 32, 1 << 63]
    assert seq.blocks == [array("B", [2]), array("B", [0, 1, 0])]
    check_mirror(seq, [[1 << 63], [7, 1 << 32, 7]])
    with pytest.raises(ValueError):
        CharSeq([1, 2], [1, 0], {1, 2})


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


def test_locate_skips_empty_blocks():
    seq = seq_of([[], [4], [], [5, 6], []])
    assert [seq.locate(pos) for pos in range(3)] == [(1, 0), (3, 0), (3, 1)]


@pytest.mark.parametrize("pos", [-1, 3, 4, -4])
def test_locate_out_of_range(pos):
    # A negative position is out of range too: locate does not count from
    # the end, as a list does.
    seq = seq_of([[1], [], [2, 3], []])
    with pytest.raises(IndexError, match=rf"^position {pos} out of range \(length 3\)$"):
        seq.locate(pos)
    check_mirror(seq, [[1], [], [2, 3], []])


def test_locate_at_each_block_end():
    # A block's last position lies in it, and the position after it at the
    # front of the next block that holds any.
    blocks = [[3], [], [1, 4], [], [], [1, 5, 9], [2]]
    seq = seq_of(blocks)
    filled = [k for k, block in enumerate(blocks) if block]
    for k, after in zip(filled, filled[1:]):
        end = ends(seq)[k]
        assert seq.locate(end - 1) == (k, len(blocks[k]) - 1)
        assert seq.locate(end) == (after, 0)


def walk_locate(sizes, pos):
    """Block slot and offset of position ``pos``, by a walk over the block sizes."""
    for k, size in enumerate(sizes):
        if pos < size:
            return k, pos
        pos -= size
    raise AssertionError("position past the end")


def walk_insert_place(sizes, pos):
    """Block and offset an insert at ``pos`` takes, by :func:`walk_locate`."""
    if not sum(sizes):
        return 0, 0
    if not pos:
        return walk_locate(sizes, 0)
    k, off = walk_locate(sizes, pos - 1)
    return k, off + 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=12))
def test_property_locate_and_insert_place_match_a_walk(blocks):
    seq = seq_of(blocks)
    sizes, n = list(map(len, blocks)), len(flatten(blocks))
    assert [seq.locate(pos) for pos in range(n)] == [walk_locate(sizes, p) for p in range(n)]
    assert [seq.insert_place(pos) for pos in range(n + 1)] == [
        walk_insert_place(sizes, pos) for pos in range(n + 1)
    ]


def test_ends_and_locate_follow_random_edits():
    # Inserts, deletes and moves across boundaries over a row with empty
    # blocks; after each, the block ends are the running sums of the block
    # sizes, and a position is found where a walk over them finds it.
    rng = random.Random(99)
    mirror = [[], [4], [], [], [1, 5], []]
    seq = seq_over([list(block) for block in mirror])
    for _ in range(3000):
        n, roll = len(flatten(mirror)), rng.random()
        if n == 0 or roll < 0.4:
            pos, symbol = rng.randint(0, n), rng.randrange(6)
            assert insert(seq, pos, symbol) == mirror_insert(mirror, pos, symbol)
        elif roll < 0.7:
            pos = rng.randrange(n)
            assert delete(seq, pos) == mirror_delete(mirror, pos)
        else:
            i = rng.randrange(len(mirror))
            k = i + rng.choice((-1, 1))
            if mirror[i] and 0 <= k < len(mirror):
                if k < i:
                    mirror[k].append(mirror[i].pop(0))
                else:
                    mirror[k].insert(0, mirror[i].pop())
                move(seq, i, k)
        sizes = list(map(len, mirror))
        assert ends(seq) == list(accumulate(sizes))
        if sum(sizes):
            pos = rng.randrange(sum(sizes))
            assert seq.locate(pos) == walk_locate(sizes, pos)
    check_mirror(seq, mirror)


def test_to_list_skips_empty_blocks():
    assert seq_of([[10], [], [11, 12], [13]]).to_list() == [10, 11, 12, 13]


def test_to_list_of_one_element():
    assert seq_of([[], [7], []]).to_list() == [7]


def test_to_list_of_an_empty_sequence():
    assert seq_of([[], [], []]).to_list() == []


def test_to_list_leaves_sequence_unchanged():
    seq = seq_of([[5], [6, 7]])
    assert seq.to_list() == [5, 6, 7]
    check_mirror(seq, [[5], [6, 7]])


def test_moves_carry_one_element_across_a_boundary():
    seq = seq_of([[1, 2], [], [3]])
    assert move(seq, 0, 1) == 2
    check_mirror(seq, [[1], [2], [3]])
    assert move(seq, 2, 1) == 3
    check_mirror(seq, [[1], [2, 3], []])
    assert move(seq, 1, 2) == 3
    check_mirror(seq, [[1], [2], [3]])
    assert move(seq, 1, 0) == 2
    check_mirror(seq, [[1, 2], [], [3]])


def test_opposite_moves_restore_every_word(monkeypatch):
    # S = 2: the words follow from the block arrays alone, so a run of
    # moves across boundaries undone by the opposite moves in reverse order
    # gives back every word list exactly, whichever words it appended or
    # dropped.
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
            move(seq, i, i + step)
            made.append((i + step, i))
            assert seq.chunk_fault() is None
        for i, k in reversed(made):
            move(seq, i, k)
        assert (symbol_blocks(seq), all_words(seq)) == before


def test_distinct_inserts_read_back_in_order():
    seq = seq_over([[] for _ in range(4)])
    for k in range(50):
        insert(seq, len(seq), k)
    assert seq.to_list() == list(range(50))
    assert ends(seq) == [50, 50, 50, 50]


def test_differential_against_list_mirror():
    # Empty blocks at the front, in the middle and at the end; moves of an
    # end element across a boundary keep spreading the elements over the row.
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
                assert move(seq, i, i - 1) == mirror[i - 1][-1]
            elif i + 1 < len(mirror) and mirror[i]:
                mirror[i + 1].insert(0, mirror[i].pop())
                assert move(seq, i, i + 1) == mirror[i + 1][0]
        if step % 500 == 0:
            check_mirror(seq, mirror)
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
        elif kind == "l":  # a move from an empty block or past the row is not made
            i = raw % len(mirror)
            if i and mirror[i]:
                mirror[i - 1].append(mirror[i].pop(0))
                assert move(seq, i, i - 1) == mirror[i - 1][-1]
        else:
            i = raw % len(mirror)
            if i + 1 < len(mirror) and mirror[i]:
                mirror[i + 1].insert(0, mirror[i].pop())
                assert move(seq, i, i + 1) == mirror[i + 1][0]
        check_mirror(seq, mirror)


def word_counts(seq, word):
    """The symbol counts a chunk count word holds."""
    fields = unpack(word, len(seq.symbol))
    return Counter({seq.symbol[col]: count for col, count in enumerate(fields) if count})


@pytest.mark.parametrize("chunk", [2, 3, 128])
def test_chunks_follow_edits_and_count_margins(monkeypatch, chunk):
    # Blocks of about 20 chunks at S = 2 and 3, and 7 at S = 128: edits
    # append and drop words many times over, and each is followed by a
    # query inside one block, whose margin cuts chunks at both ends.  The
    # margin is captured as the query passes it to PairTable.modes, or, with
    # no cell and no word, as it counts its slices alone.
    monkeypatch.setattr(charseq, "CHUNK", chunk)
    passed, alone = [], []
    table_modes, count_elements = PairTable.modes, engine_module._count_elements

    def modes(self, l, r, word, add_l, add_r, sub_l, sub_r):
        passed.append((word, [add_l, add_r], [sub_l, sub_r]))
        return table_modes(self, l, r, word, add_l, add_r, sub_l, sub_r)

    def count_alone(counts, ids):
        alone.append(ids)
        return count_elements(counts, ids)

    monkeypatch.setattr(PairTable, "modes", modes)
    monkeypatch.setattr(engine_module, "_count_elements", count_alone)
    rng = random.Random(99)
    symbols = [rng.randrange(5) for _ in range(80 * chunk)]
    engine, oracle = RangeModeEngine(symbols, Config(alpha=Fraction(1, 4))), NaiveSeq(symbols)
    counted = took = loose_only = 0
    for step in range(600):
        n = len(oracle)
        roll = rng.random()
        if roll < 0.45:
            pos, sym = rng.randint(0, n), rng.randrange(7)
            engine.insert(pos, sym)
            oracle.insert_at(pos, sym)
        elif roll < 0.8:
            pos = rng.randrange(n)
            assert engine.delete(pos) == oracle.delete_at(pos)
        else:
            src, dst = rng.randrange(n), rng.randrange(n)
            assert engine.relocate(src, dst) == oracle.relocate(src, dst)
        assert engine._seq.chunk_fault() is None
        if step % 50 == 0:
            assert engine.audit().ok and engine.to_list() == oracle.to_list()
        sizes = engine.block_sizes()
        k = rng.choice([k for k, size in enumerate(sizes) if size > 1])
        base = sum(sizes[:k])
        lo = base + rng.randrange(sizes[k] - 1)
        stop = rng.randint(lo + 1, base + sizes[k] - (lo == base))  # never the whole block
        passed.clear()
        alone.clear()
        assert engine.modes(lo, stop - 1) == oracle.modes(lo, stop - 1)
        word, adds, subs = passed[0] if passed else (0, alone[:], [])
        if word:
            counted += 1
            took += any(subs)
            # Each end passes at most half the chunk it cuts.
            assert all(len(add) + len(sub) <= chunk // 2 for add, sub in zip(adds, subs))
        else:  # no whole chunk: under 2S elements
            loose_only += 1
            assert not any(subs) and sum(map(len, adds)) < 2 * chunk
        seq = engine._seq
        # subtract, unlike -, keeps a count that falls to 0 or below.
        total = word_counts(seq, word) + Counter(seq.symbol[col] for ids in adds for col in ids)
        total.subtract(seq.symbol[col] for ids in subs for col in ids)
        total = {symbol: count for symbol, count in total.items() if count}
        assert total == Counter(oracle.to_list()[lo:stop])
    assert engine.audit().ok
    assert counted > 100 and loose_only > 10
    # At S = 2 an end that cuts a chunk lies 1 from each of its boundaries,
    # a tie, which rounds inwards, so nothing is taken away.
    assert took > 30 if chunk > 2 else not took


def recount(seq, cols):
    """The running words of the column ids ``cols``, 0 first, each chunk
    counted afresh by :func:`charseq.chunk_word`."""
    counts, zeros = {}, array("I", bytes(4 * len(seq.symbol)))
    sums = [0]
    for lo in range(0, len(cols), charseq.CHUNK):
        sums.append(sums[-1] + charseq.chunk_word(cols[lo : lo + charseq.CHUNK], counts, zeros))
    return sums


def test_edited_words_equal_a_recount_at_every_offset(monkeypatch):
    # S = 3: blocks of 0-14 elements, edited at every offset.  An offset at
    # or past a block's last chunk boundary has none in (offset, length],
    # so only the last word changes (or a word is appended or dropped); an
    # offset before it crosses one boundary or more.  Either way the words
    # returned are those of the edited block, and nothing is stored.
    monkeypatch.setattr(charseq, "CHUNK", 3)
    rng = random.Random(44)
    for size in range(15):
        seq = seq_over([[rng.randrange(4) for _ in range(size)], [1, 2]], range(4))
        cols = list(seq.blocks[0])
        before = all_words(seq)
        for off in range(size + 1):
            for col in range(len(seq.symbol)):
                got = seq.insert_at(0, off, col)
                assert got == recount(seq, cols[:off] + [col] + cols[off:]), (size, off, col)
        for off in range(size):
            assert seq.delete_at(0, off) == recount(seq, cols[:off] + cols[off + 1 :]), (size, off)
        assert all_words(seq) == before and seq.chunk_fault() is None
