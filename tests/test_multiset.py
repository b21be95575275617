import os
import random
import re
import struct
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from probe import held_bytes, priced_bytes, word_count, words

import rangemodes.engine as engine_module
from rangemodes import CharSeq, Config, CountedSet, InvariantError, PairTable, RangeModeEngine
from rangemodes import multiset
from rangemodes.charseq import word_bound
from rangemodes.multiset import MAX_COUNT, MAX_SYMBOL, id_type, mask_fields, pack

A, B, C = 0, 1, 2


def drain(cs):
    """Full ranked iteration via the cursor protocol."""
    out = []
    cur = cs.cursor()
    while (entry := cs.next_entry(cur)) is not None:
        out.append(entry)
    return out


def hand_cell(symbols):
    """The cell snapshot of a hand count of ``symbols``."""
    return CountedSet(Counter(symbols))


class TestCountedSet:
    def test_increment_hand_count(self):
        cs = hand_cell((A, A, B))
        assert cs.count_of(A) == 2
        assert cs.count_of(B) == 1

    def test_single_increment_max(self):
        assert hand_cell((A,)).max_entry() == (1, A)

    def test_increment_merges_ranked_entry(self):
        assert drain(hand_cell((A, A))) == [(2, A)]

    def test_decrement_hand_count_with_tie(self):
        counts = Counter((A, A, B))
        counts[A] -= 1
        cs = CountedSet(counts)
        # Both at count 1; ties rank the higher id first.
        assert cs.max_entry() == (1, B)
        assert drain(cs) == [(1, B), (1, A)]

    def test_count_of_absent(self):
        assert hand_cell((A, A)).count_of(25) == 0

    def test_max_entry_hand_count(self):
        assert hand_cell((A, A, B)).max_entry() == (2, A)

    def test_max_entry_empty(self):
        assert CountedSet().max_entry() is None

    def test_max_entry_tie_prefers_higher_id(self):
        assert hand_cell((A, B)).max_entry() == (1, B)

    def test_cursor_iteration(self):
        assert drain(hand_cell((A, A, B))) == [(2, A), (1, B)]

    def test_cursor_singleton(self):
        assert drain(hand_cell((A,))) == [(1, A)]

    def test_cursor_counts_with_ties(self):
        cs = hand_cell((A, A, A, B, B, B, C))
        assert [count for count, _ in drain(cs)] == [3, 3, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 8), max_size=80))
    def test_views_stay_mirrored(self, symbols):
        reference = Counter(symbols)
        cs = CountedSet(reference)
        assert cs == dict(reference)
        assert [cs.count_of(s) for s in range(9)] == [reference[s] for s in range(9)]
        assert drain(cs) == sorted(((c, s) for s, c in reference.items()), reverse=True)
        assert cs.max_entry() == (drain(cs) or [None])[0]


def build_table(blocks):
    symbols = [s for b in blocks for s in b]
    room, alphabet = 2 * len(symbols), set(symbols)
    guard = (word_bound(room, len(blocks)), room, id_type(len(alphabet)))
    return PairTable(CharSeq(symbols, [len(b) for b in blocks], alphabet), guard)


def point(table, j, symbol, delta):
    """A point edit of ``symbol`` in block ``j``, as the engine makes it: a
    gain claims a new symbol's column, a loss reads it from the column map
    and frees it with its last copy, and the run is stored once computed,
    with an edit that changes no block."""
    col, claim = table._seq.column.get(symbol), None
    if delta == 1 and col is None:
        col, claim = table.claim_column(symbol)
    table.store(table.apply_point(j, col, delta, None, claim), None, None, None, None, col)


def shift_left(table, i, symbol):
    table.shift_left(i, table._seq.column[symbol])


def shift_right(table, i, symbol):
    table.shift_right(i, table._seq.column[symbol])


def cols(table, symbols):
    """The column ids of ``symbols`` as a query's margin passes them: an
    array of the blocks' id type, as a slice of a block is."""
    return array(table._seq.blocks[0].typecode, [table._seq.column[s] for s in symbols])


NO_MARGIN = ((), (), (), ())
"""The four margin slices of a query that reads its cell alone."""


def cell_counts(table, l, r):
    return dict(table.cell(l, r).items())


def all_cells(table):
    slots = table.slots
    return {(l, r): cell_counts(table, l, r) for l in range(slots) for r in range(l, slots)}


def recount(blocks):
    slots = len(blocks)
    return {
        (l, r): dict(Counter(s for b in blocks[l : r + 1] for s in b))
        for l in range(slots)
        for r in range(l, slots)
    }


class TestPairTable:
    def test_build_two_blocks(self):
        table = build_table([[A], [B]])
        assert cell_counts(table, 0, 0) == {A: 1}
        assert cell_counts(table, 1, 1) == {B: 1}
        assert cell_counts(table, 0, 1) == {A: 1, B: 1}

    def test_build_empty_blocks(self):
        table = build_table([[], []])
        for l in range(2):
            for r in range(l, 2):
                assert cell_counts(table, l, r) == {}

    def test_build_multiplicity(self):
        table = build_table([[A, A]])
        assert cell_counts(table, 0, 0) == {A: 2}

    def test_cell_count_is_triangular(self):
        assert build_table([[]] * 5).cell_count() == 15

    def test_apply_point_affected_cells(self):
        table = build_table([[], [], []])
        point(table, 1, C, 1)
        changed = {(0, 1), (0, 2), (1, 1), (1, 2)}
        for l in range(3):
            for r in range(l, 3):
                expected = {C: 1} if (l, r) in changed else {}
                assert cell_counts(table, l, r) == expected, (l, r)

    def test_apply_point_single_block(self):
        table = build_table([[]])
        point(table, 0, C, 1)
        assert cell_counts(table, 0, 0) == {C: 1}

    def test_apply_point_inverse(self):
        table = build_table([[A], [B]])
        reference = [cell_counts(table, l, r) for l in range(2) for r in range(l, 2)]
        point(table, 1, C, 1)
        point(table, 1, C, -1)
        assert [
            cell_counts(table, l, r) for l in range(2) for r in range(l, 2)
        ] == reference

    def test_apply_point_touches_expected_cell_count(self):
        slots = 6
        for j in range(slots):
            table = build_table([[] for _ in range(slots)])
            point(table, j, A, 1)
            touched = sum(
                1
                for l in range(slots)
                for r in range(l, slots)
                if cell_counts(table, l, r)
            )
            assert touched == (j + 1) * (slots - j)

    def test_shift_left_three_blocks(self):
        # Moving one C from block 1 to block 0: cells ending at 0 gain,
        # cells starting at 1 lose, spanning cells unchanged.
        table = build_table([[A], [C, B], [B]])
        shift_left(table, 1, C)
        assert cell_counts(table, 0, 0) == {A: 1, C: 1}
        assert cell_counts(table, 1, 1) == {B: 1}
        assert cell_counts(table, 1, 2) == {B: 2}
        assert cell_counts(table, 0, 2) == {A: 1, B: 2, C: 1}
        assert cell_counts(table, 0, 1) == {A: 1, B: 1, C: 1}

    def test_shift_left_two_blocks(self):
        table = build_table([[], [C]])
        shift_left(table, 1, C)
        assert cell_counts(table, 0, 0) == {C: 1}
        assert cell_counts(table, 1, 1) == {}
        assert cell_counts(table, 0, 1) == {C: 1}

    def test_shift_right_three_blocks(self):
        table = build_table([[A], [B, C], []])
        shift_right(table, 1, C)
        assert cell_counts(table, 0, 1) == {A: 1, B: 1}
        assert cell_counts(table, 1, 1) == {B: 1}
        assert cell_counts(table, 2, 2) == {C: 1}
        assert cell_counts(table, 0, 2) == {A: 1, B: 1, C: 1}

    def test_shift_right_two_blocks(self):
        table = build_table([[C], []])
        shift_right(table, 0, C)
        assert cell_counts(table, 0, 0) == {}
        assert cell_counts(table, 1, 1) == {C: 1}

    def test_shift_pair_is_identity(self):
        table = build_table([[A], [B, C], [B]])
        reference = [cell_counts(table, l, r) for l in range(3) for r in range(l, 3)]
        shift_right(table, 1, C)
        shift_left(table, 2, C)
        assert [
            cell_counts(table, l, r) for l in range(3) for r in range(l, 3)
        ] == reference

    def test_bad_indices(self):
        table = build_table([[], []])
        with pytest.raises(IndexError):
            table.cell(1, 0)
        with pytest.raises(IndexError):
            table.apply_point(2, A, 1)
        with pytest.raises(ValueError):
            table.apply_point(0, A, 2)
        with pytest.raises(InvariantError):
            table.apply_point(0, A, 1)  # no column was handed out
        with pytest.raises(IndexError):
            table.shift_left(0, A)
        with pytest.raises(IndexError):
            table.shift_right(1, A)

    def test_audit_against_recount_random(self):
        rng = random.Random(5)
        for _ in range(20):
            slots = rng.randint(1, 6)
            blocks = [
                [rng.randrange(4) for _ in range(rng.randint(0, 5))]
                for _ in range(slots)
            ]
            table = build_table(blocks)
            for l in range(slots):
                for r in range(l, slots):
                    merged = Counter()
                    for b in blocks[l : r + 1]:
                        merged.update(b)
                    assert table.cell(l, r) == dict(merged), (l, r)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: point(t, 1, A, -1),
            lambda t: shift_left(t, 1, A),
            lambda t: shift_right(t, 1, A),
        ],
        ids=["apply_point", "shift_left", "shift_right"],
    )
    def test_absent_source_symbol_changes_nothing(self, edit):
        # A occurs in blocks 0 and 2, so every cell spanning block 1 holds it,
        # but block 1 itself does not.
        table = build_table([[A], [B], [A]])
        before = all_cells(table)
        with pytest.raises(InvariantError):
            edit(table)
        assert all_cells(table) == before
        assert table.sigma_prime == 2

    def test_counts_above_16_bits_in_neighbouring_columns(self):
        blocks = [[A] * 65535 + [B] * 3, [B] * 65536 + [C], [C] * 70000 + [A]]
        table = build_table(blocks)
        assert all_cells(table) == recount(blocks)
        edits = [
            ("point", 0, A, 1),  # A in block 0 carries into bit 16 of its field
            ("point", 1, B, -1),  # B in block 1 borrows out of bit 16
            ("point", 2, B, 1),
            ("left", 1, B),
            ("right", 1, C),
            ("left", 2, C),
            ("point", 0, B, -1),
        ]
        for kind, i, symbol, *delta in edits:
            if kind == "point":
                point(table, i, symbol, delta[0])
                if delta[0] == 1:
                    blocks[i].append(symbol)
                else:
                    blocks[i].remove(symbol)
            else:
                dst = i - 1 if kind == "left" else i + 1
                (shift_left if kind == "left" else shift_right)(table, i, symbol)
                blocks[i].remove(symbol)
                blocks[dst].append(symbol)
            assert all_cells(table) == recount(blocks), (kind, i, symbol)

    def test_max_symbol(self):
        blocks = [[MAX_SYMBOL, A], [MAX_SYMBOL]]
        table = build_table(blocks)
        assert cell_counts(table, 0, 1) == {MAX_SYMBOL: 2, A: 1}
        point(table, 1, MAX_SYMBOL, 1)
        shift_right(table, 0, A)
        assert cell_counts(table, 1, 1) == {MAX_SYMBOL: 2, A: 1}
        assert table.modes(0, 1, 0, *NO_MARGIN) == (3, [MAX_SYMBOL])

    def test_freed_column_is_reused(self):
        table = build_table([[A], [B]])
        point(table, 0, A, -1)
        assert table.sigma_prime == 1
        point(table, 1, C, 1)
        assert table.sigma_prime == 2
        assert len(table._seq.symbol) == 2  # C took A's column
        assert all_cells(table) == recount([[], [B, C]])

    def test_modes_adds_margin_counts(self):
        table = build_table([[A, A, B], [B, C]])
        best, winners = table.modes(0, 1, 0, *NO_MARGIN)
        assert (best, sorted(winners)) == (2, [A, B])
        assert table.modes(1, 1, 0, cols(table, [C]), (), (), ()) == (2, [C])
        assert table.modes(1, 1, 0, (), cols(table, [C]), (), ()) == (2, [C])
        best, winners = table.modes(0, 0, 0, cols(table, [B]), cols(table, [C, C]), (), ())
        assert (best, sorted(winners)) == (2, [A, B, C])

    def test_modes_takes_away_taken_counts(self):
        table = build_table([[A, A, B], [B, C]])
        assert table.modes(0, 1, 0, (), (), cols(table, [B]), cols(table, [C])) == (2, [A])
        best, winners = table.modes(0, 1, 0, (), cols(table, [C]), cols(table, [A, B]), ())
        assert (best, sorted(winners)) == (2, [C])
        # The word adds to the cell's counts: one more C makes C the mode.
        word = 1 << (multiset._FIELD_BITS * table._seq.column[C])
        assert table.modes(1, 1, word, *NO_MARGIN) == (2, [C])
        # With no cell, the counts are the word plus the added ids, less
        # the taken ones: here the word of one A and two Bs.
        word = sum(1 << (multiset._FIELD_BITS * table._seq.column[s]) for s in (A, B, B))
        assert table.modes(None, None, word, cols(table, [A]), (), (), cols(table, [B])) == (2, [A])

    @pytest.mark.parametrize("l, r", [(-1, 0), (-1, -1), (1, 0), (0, 2)])
    def test_modes_rejects_cells_out_of_range(self, l, r):
        table = build_table([[A, A, B], [B, C]])
        with pytest.raises(IndexError):
            table.modes(l, r, 0, *NO_MARGIN)

    def test_modes_rejects_margin_symbol_without_column(self):
        # Two columns are in use; a margin column id of 2 has no symbol, in
        # whichever of the four slices it comes.
        table = build_table([[A], [B]])
        for at in range(4):
            margin = [()] * 4
            margin[at] = array("B", [2])
            with pytest.raises(InvariantError):
                table.modes(0, 1, 0, *margin)

    def test_widening_past_the_memory_limit_changes_nothing(self, monkeypatch):
        blocks = [[A], [B, B]]
        table = build_table(blocks)
        width = table._width
        # Beside the cells, 2 offset words and 2·3/128 + 2 = 2 running chunk
        # words of the new width, and the 2 edit masks of 2 fields each, as
        # 6 ints, each with a header and a list slot, and the 2 word lists,
        # each a header, a list slot and a list slot for the 0 that leads
        # it; and the 2 blocks, 'B' arrays of the 2·3 column ids they hold
        # before the next rebuild.

        def priced(width):
            return sum(priced_bytes(2, width, 2, 6, "B").values())

        monkeypatch.setattr(multiset, "_memory_limit", lambda: priced(width))
        with pytest.raises(MemoryError, match=str(priced(width + width // 2 + 1))):
            point(table, 0, C, 1)
        assert table._width == width and table.sigma_prime == 2
        assert all_cells(table) == recount(blocks)

    def test_int_held_fields_are_priced_at_their_digits(self):
        digit = sys.int_info.sizeof_digit
        header = sys.getsizeof(1) - digit  # an int's bytes besides its digits
        for fields in range(1, 200):
            assert sys.getsizeof((1 << 32 * fields) - 1) - header == multiset.int_bytes(fields)
        # Real words and masks: a top field under 2^32 saves at most 2 digits.
        # Every chunk of 128 holds all 26 symbols, so every running word
        # past the leading 0 of a block's list has its top field set.  The
        # 16 blocks of 256 hold two chunks each, and the edit in block 10
        # takes it to 257 elements, which appends a third word.
        engine = RangeModeEngine([k % 26 for k in range(4096)])
        engine.insert(engine.block_sizes()[0] * 10 + 1, 3)  # an edit in block 10
        table, seq = engine._table, engine._seq
        assert table._masks[10] is not None
        # Each running word past the leading 0s, as the int of its counts.
        ints = [
            pack(array("I", counts)) for k in range(table.slots) for counts in words(seq, k)[1:]
        ]
        assert len(ints) == 33 and word_count(seq, 10) == 4
        for value, fields in [
            (table._masks[10], mask_fields(table.slots, 10)),
            (table._base[-1], table._width),
            *[(word, table._width) for word in ints],
        ]:
            held = sys.getsizeof(value) - header
            assert 4 * fields < held <= multiset.int_bytes(fields) <= held + 2 * digit

    def test_chunk_words_are_priced_with_their_headers(self, monkeypatch):
        # Each block keeps a list of running count words, 0 first, built at
        # its length.  The list takes a header and a slot in the list of
        # lists; the 0 is CPython's shared small int, so it holds its list
        # slot alone; every other word is an int with a header and a slot in
        # its list.  Its digits are priced for a full top field, which holds
        # a count of at most the block's length: at σ' = 26 a word takes 27
        # digits, priced at 28 (+2.9 %).  26 blocks of 630 or 631 hold five
        # chunks each, and the other slots are empty.
        rng = random.Random(14)
        engine = RangeModeEngine([rng.randrange(26) for _ in range(1 << 14)])
        prefix_list_bytes, array_bytes = multiset.prefix_list_bytes, multiset.array_bytes
        seq, slots = engine._seq, engine._table.slots
        bound, room, _ = engine._table._guard
        slot = struct.calcsize("P")
        assert len(seq.blocks) == slots == engine_module._layout(1 << 14, Fraction(1, 3))[0]
        count = sum(word_count(seq, k) - 1 for k in range(slots))
        held = held_bytes(engine)["words"]  # which checks that each list leads with the shared 0
        assert count == 26 * 5
        assert held <= prefix_list_bytes(slots, 26, count) <= 1.03 * held
        # The guard prices the most words the blocks can hold before the
        # next rebuild: ⌈c/S⌉ for a block of c, at most 2·n0/S + L.
        assert bound == 2 * (1 << 14) // 128 + slots
        monkeypatch.setattr(multiset, "_memory_limit", lambda: 0)

        def priced(words, elements):
            with pytest.raises(MemoryError) as refused:
                multiset.check_table_fits(slots, 26, words, elements, "B")
            return int(re.search(r"needs (\d+) bytes", str(refused.value))[1])

        # The guard prices each word, and the lists even with no word.
        extra = priced(count, room) - priced(0, room)
        assert extra == prefix_list_bytes(slots, 26, count) - prefix_list_bytes(slots, 26, 0)
        assert prefix_list_bytes(slots, 26, 0) == slots * (sys.getsizeof([]) + 2 * slot)
        # The blocks, 'B' arrays at 26 columns, are priced by array_bytes
        # for the 2·n0 column ids they hold at most before the next rebuild,
        # a byte each and their growth room: more than the arrays of n0 ids
        # take now, which the build sizes exactly, with no room to spare.
        assert priced(0, room) - priced(0, 0) == (
            array_bytes(slots, room, "B") - array_bytes(slots, 0, "B")
        )
        assert 1.06 * room < array_bytes(slots, room, "B") - array_bytes(slots, 0, "B")
        arrays = held_bytes(engine)["arrays"]
        assert arrays == slots * (sys.getsizeof(array("B")) + slot) + (1 << 14)
        assert arrays <= array_bytes(slots, 1 << 14, "B")

    def test_claiming_column_256_for_one_byte_ids_changes_nothing(self):
        # The blocks take the narrower type that holds every column handed
        # out: 256 columns fit 'B', one more does not.  The table keeps the
        # type of its build and hands out no column 256: the claim returns
        # None before anything changes, and the engine rebuilds its layout
        # instead.  A free column is handed out as usual.
        assert (id_type(256), id_type(257)) == ("B", "I")
        symbols = [(k * 7919) % 256 for k in range(256)]
        blocks = [symbols[:85], [], symbols[85:]]
        table = build_table(blocks)
        before = all_cells(table)
        assert table.claim_column(256) == (None, None)
        assert all_cells(table) == before and len(table._seq.symbol) == table._width == 256
        assert 256 not in table._seq.column and table._free == []
        point(table, 0, 0, -1)  # symbol 0, in column 0, leaves block 0 and the table
        assert table._free == [0]
        point(table, 1, 256, 1)
        assert table._seq.column[256] == 0
        blocks[0].remove(0)
        blocks[1].append(256)
        assert table._free == [] and all_cells(table) == recount(blocks)

    def test_new_symbols_widen_every_cell(self):
        blocks = [[A], [], [B, B]]
        table = build_table(blocks)
        assert table._width == 2
        for k in range(40):
            j, symbol = k % 3, 100 + k % 17
            point(table, j, symbol, 1)
            blocks[j].append(symbol)
        assert table._width >= table.sigma_prime == 19
        shift_left(table, 2, 102)
        blocks[2].remove(102)
        blocks[1].append(102)
        shift_right(table, 0, A)
        blocks[0].remove(A)
        blocks[1].append(A)
        assert all_cells(table) == recount(blocks)
        best, winners = table.modes(0, 2, 0, *NO_MARGIN)
        assert (best, sorted(winners)) == (3, sorted(100 + k for k in range(6)))


def moved(before, after):
    """Each cell whose counts changed, mapped to each symbol's change."""
    out = {}
    for cell, counts in before.items():
        change = Counter(after[cell])
        change.subtract(counts)
        change = {symbol: c for symbol, c in change.items() if c}
        if change:
            out[cell] = change
    return out


def offset(table, l, symbol):
    """The offset row ``l`` of ``symbol``'s plane carries."""
    return table._base[l] >> (32 * table._seq.column[symbol]) & MAX_COUNT


def stored(table, l, r, col):
    """The stored field of cell (l, r) in plane ``col``: its count plus its offset."""
    return table._counts.obj[col * table.cell_count() + table._row_base[l] + r]


def check_masks(table):
    """Each stored mask is its slot's step, built afresh here, and the stored
    masks take at most the table's own field count."""
    slots = table.slots
    stored = {j: mask for j, mask in enumerate(table._masks) if mask is not None}
    for j, mask in stored.items():
        fields = array("I", [0] * mask_fields(slots, j))
        for l in range(j + 1):
            for r in range(j, slots):
                fields[table._row_base[l] + r - j] = 1
        assert mask == int.from_bytes(fields.tobytes(), "little"), j
    total = sum(mask_fields(slots, j) for j in stored)
    assert table._mask_fields == total <= table.cell_count() * table._width


class TestSymbolMajorLayout:
    """Each symbol owns one plane of cells in row order, each row offset by
    the symbol's count in the blocks before it at the build."""

    @pytest.mark.parametrize("slots", [1, 2, 3, 6, 7])
    def test_each_edit_moves_exactly_its_cells(self, slots):
        # Block k holds k+1 of A and slots-k of B, so every row past 0
        # carries an offset in both planes, and the offsets differ per row.
        table = build_table([[A] * (k + 1) + [B] * (slots - k) for k in range(slots)])
        assert all(offset(table, l, A) == l * (l + 1) // 2 for l in range(slots))
        cells = [(l, r) for l in range(slots) for r in range(l, slots)]
        # The first run builds each mask; the second adds the stored ones,
        # and at 6 or 7 slots builds those past the cap again.
        for run in range(2):
            for j in range(slots):
                for delta in (1, -1):
                    before = all_cells(table)
                    point(table, j, A, delta)
                    # Rows 0..j from column j on; the head cells (l, l..j-1) of
                    # rows 1..j lie inside the edit's slice and must not move.
                    expected = {(l, r): {A: delta} for l, r in cells if l <= j <= r}
                    assert moved(before, all_cells(table)) == expected, (run, j, delta)
            for i in range(1, slots):
                before = all_cells(table)
                shift_left(table, i, A)
                gained = {(l, i - 1): {A: 1} for l in range(i)}
                lost = {(i, r): {A: -1} for r in range(i, slots)}
                assert moved(before, all_cells(table)) == {**gained, **lost}, (run, i)
                before = all_cells(table)
                shift_right(table, i - 1, A)
                lost = {(l, i - 1): {A: -1} for l in range(i)}
                gained = {(i, r): {A: 1} for r in range(i, slots)}
                assert moved(before, all_cells(table)) == {**lost, **gained}, (run, i)
            check_masks(table)
        assert all(offset(table, l, A) == l * (l + 1) // 2 for l in range(slots))
        stored_masks = [mask is not None for mask in table._masks]
        # Two planes of slots(slots+1)/2 fields hold every mask up to 3 slots,
        # the first four of 7 slots (7 + 12 + 16 + 19 = 54 of 56 fields).
        if slots <= 3:
            assert all(stored_masks)
        elif slots == 7:
            assert stored_masks == [True] * 4 + [False] * 3

    def test_masks_past_the_cap_are_built_per_edit(self, monkeypatch):
        # One symbol at alpha 1/2: 200 elements fill 15 slots, whose masks
        # take far more fields than the table's one plane of cells.
        built = Counter()
        honest_mask = PairTable._mask

        def counted_mask(table, j, width):
            built[j] += 1
            return honest_mask(table, j, width)

        monkeypatch.setattr(PairTable, "_mask", counted_mask)
        engine = RangeModeEngine([0] * 200, Config(alpha=Fraction(1, 2)))
        table = engine._table
        slots = engine_module._layout(200, Fraction(1, 2))[0]
        cells = slots * (slots + 1) // 2
        assert (table.slots, table.cell_count(), table._width) == (slots, cells, 1)
        assert sum(mask_fields(slots, j) for j in range(15)) > 2 * table.cell_count()
        rng = random.Random(3)
        for _ in range(400):
            engine.insert(rng.randint(0, 200), 0)
            engine.delete(rng.randrange(201))
        assert engine._table is table and engine.reset_events == []
        check_masks(table)
        assert engine.audit().ok
        # Every edited slot builds its mask once if it is stored, else per edit.
        again = {j for j, times in built.items() if times > 1}
        assert again and all(table._masks[j] is None for j in again)
        assert all(built[j] == 1 for j, mask in enumerate(table._masks) if mask is not None)
        assert any(mask is not None for mask in table._masks)

    def test_the_first_insert_into_an_empty_engine_keeps_its_mask(self):
        # Built empty, the table has no column, and the first insert claims
        # one, widening the table as it stores the edit: its mask is kept
        # against the widened table's field count, not the empty one's.
        engine = RangeModeEngine()
        table = engine._table
        assert table._width == 0 and table._masks == [None] * table.slots
        engine.insert(0, 5)
        assert engine._table is table and table._width == 1
        assert table._masks[0] is not None
        check_masks(table)
        assert engine.audit().ok

    def test_widening_between_two_edits_keeps_the_mask(self):
        blocks = [[A], [A, A], [A]]
        table = build_table(blocks)
        point(table, 1, A, 1)
        blocks[1].append(A)
        mask = table._masks[1]
        assert mask is not None and table._width == 1
        point(table, 0, B, 1)  # a second symbol widens the table
        blocks[0].append(B)
        assert table._width == 2 and table._masks[1] is mask
        point(table, 1, B, 1)
        point(table, 1, A, -1)
        blocks[1].remove(A)
        blocks[1].append(B)
        assert all_cells(table) == recount(blocks)
        check_masks(table)

    def test_reclaimed_column_reads_zero_over_old_offsets(self):
        table = build_table([[A, B], [A, A], [A, B]])
        col = table._seq.column[A]
        for j, copies in ((0, 1), (1, 2), (2, 1)):
            for _ in range(copies):
                point(table, j, A, -1)
        assert table.sigma_prime == 1 and table._free == [col]
        claimed, claim = table.claim_column(C)
        assert claimed == col
        table.store(table.apply_point(0, col, 1, None, claim), None, None, None, None, col)
        table.store(table.apply_point(0, col, -1), None, None, None, None, col)
        # The fields still hold A's offsets, 1 in row 1 and 3 in row 2...
        assert [stored(table, l, 2, col) for l in range(3)] == [0, 1, 3]
        # ...and every cell of C reads 0.
        assert all_cells(table) == recount([[B], [], [B]])
        point(table, 1, C, 1)
        assert all_cells(table) == recount([[B], [C], [B]])
        point(table, 1, C, -1)
        assert table._free == [col]

    def test_widening_keeps_cells_over_offsets(self):
        blocks = [[A, A, B], [B, C], [A, C, C]]
        table = build_table(blocks)
        assert table._width == 3 and offset(table, 2, A) == 2 and offset(table, 2, C) == 1
        for symbol in (10, 11, 12):
            point(table, 1, symbol, 1)
            blocks[1].append(symbol)
        assert table._width == 8  # widened twice: 3 -> 5 -> 8 columns
        assert all_cells(table) == recount(blocks)
        shift_right(table, 1, C)
        blocks[1].remove(C)
        blocks[2].append(C)
        assert all_cells(table) == recount(blocks)

    def _engine(self):
        # 30 elements fill blocks 0..3 of 8 slots with 7 or 8 each.
        engine = RangeModeEngine([k % 3 for k in range(30)])
        assert engine.block_sizes()[:5] == [8, 8, 7, 7, 0] and engine.audit().ok
        return engine

    def test_audit_reports_a_corrupted_head_cell(self):
        # Cell (1, 2) lies between the row tails an edit in block 3 changes.
        engine = self._engine()
        table = engine._table
        col = table._seq.column[0]
        table._counts.obj[col * table.cell_count() + table._row_base[1] + 2] += 1
        point(table, 3, 0, 1)
        point(table, 3, 0, -1)
        report = engine.audit()
        assert not report.ok
        assert report.message == "summary cell (1, 2) disagrees with a recount"

    def test_audit_reports_a_corrupted_offset_word(self):
        engine = self._engine()
        engine._table._base[2] += 1 << (32 * engine._table._seq.column[1])
        report = engine.audit()
        assert not report.ok
        assert report.message == "summary cell (2, 2) disagrees with a recount"

    def test_audit_reports_an_offset_past_the_columns(self):
        engine = self._engine()
        engine._table._base[1] += 1 << (32 * engine.sigma_prime)
        report = engine.audit()
        assert not report.ok
        assert report.message == "offset word of row 1 has a field outside the summary table"


def test_a_big_endian_host_is_refused_at_import():
    # The fields are stored in the host's order and read as little-endian
    # count words, so the package refuses any other order when imported.
    src = str(Path(multiset.__file__).resolve().parents[1])
    code = "import sys; sys.byteorder = 'big'; import rangemodes"
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.returncode == 1
    assert "ImportError: rangemodes needs a little-endian host" in child.stderr
