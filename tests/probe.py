"""What the tests know of the engine's storage, in one place.

Every test that reads or corrupts the state :class:`CharSeq` keeps beside
its blocks, prices the engine's bytes, makes an op fail, or lays blocks out
by hand goes through this module, so a change of that storage rewrites the
readers here and not the tests.

- :func:`words` and :func:`set_words`: block k's running chunk words as
  lists of per-column counts, read and written, and :func:`word_count`.
- :func:`ends` and :func:`set_end`: the block ends, read and written.
- :func:`snapshot`: everything an op that raises must leave as it was.
- :func:`add_columns`: the column map grown as the summary table grows it.
- :func:`held_bytes` and :func:`priced_bytes`: the bytes the sequence's
  parts hold, and the memory guard's price of every part, recomputed.
- :data:`FAULTS`, :data:`WIDEN_FAULTS` and :data:`EDIT_FAULTS`: the places
  an op can fail for lack of memory, ready to patch in, and
  :func:`ignore_capacity`, an engine whose edits never rebuild.
- :func:`lay_out`, :func:`pack_front` and :func:`assert_within_capacity`: block
  sizes set by a build, and checked against the capacity.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array

import rangemodes.engine as engine_module
from rangemodes import charseq, multiset
from rangemodes.multiset import array_bytes, int_bytes, pack, unpack

HIDDEN = (r"chunk_sums", r"\.ends\b")
"""Patterns of the storage's names that no test module but this one may use."""
OLD_INDEX = (r"\b_sizes\b", r"\.sizes\.", r"prefix_sums")
"""Patterns of the names the block boundaries had in the old size index,
which no test module but this one may use."""
RETIRED = (
    r"\b(BlockSizeIndex|CountedSet)\b",
    r"""(\.|["'])(__getitem__|access_range|shift_left|shift_right|move_left|move_right)\b""",
)
"""Patterns of the removed code whose names only raising stubs keep, for the
benchmark's tracer: its two classes, and its methods as attributes or
quoted names.  No test module but this one may use them, besides the one
test that checks that each stub raises."""
BYTE_HELPERS = ("prefix_list_bytes", "array_bytes", "int_bytes")
"""The guard's byte helpers, used outside this module only by their own tests."""

_FIELD_BITS = 32
_SLOT = struct.calcsize("P")  # a list slot
_INT_HEAD = sys.getsizeof(1) - sys.int_info.sizeof_digit + _SLOT  # an int's header, its list slot
_LIST_HEAD = sys.getsizeof([]) + _SLOT  # an empty list, its list slot
_ZERO = 0  # CPython's shared small int


# ----------------------------------------------------------------------
# chunk words
# ----------------------------------------------------------------------


def words(seq, k):
    """Block ``k``'s running words, 0 first, each a list of its count of
    every column below the width.

    Raises :class:`AssertionError` when a word has bits past the width, so
    that decoding never hides a difference the stored words show.
    """
    width = len(seq.symbol)
    out = []
    for t, word in enumerate(seq.chunk_sums[k]):
        if not 0 <= word < 1 << (_FIELD_BITS * width):
            raise AssertionError(f"word {t} of block {k} has bits past the {width} columns")
        out.append(unpack(word, width))
    return out


def word_count(seq, k):
    """How many running words block ``k`` keeps, the leading 0 included."""
    return len(seq.chunk_sums[k])


def set_words(seq, k, lists):
    """Store ``lists``, each a count of every column below the width, as
    block ``k``'s running words; the one writer of chunk words."""
    width = len(seq.symbol)
    assert all(len(counts) == width for counts in lists), "a word needs one count per column"
    seq.chunk_sums[k][:] = [pack(array("I", counts)) for counts in lists]


# ----------------------------------------------------------------------
# block ends
# ----------------------------------------------------------------------


def ends(seq):
    """The block ends ``seq`` keeps, the list itself: entry k is one past
    the last position of block k."""
    return seq.ends


def set_end(seq, k, end):
    """Store ``end`` as block ``k``'s end, whatever the blocks hold; the one
    writer of the ends."""
    seq.ends[k] = end


# ----------------------------------------------------------------------
# engine state
# ----------------------------------------------------------------------


def typecodes(engine):
    """The array type of each block's column ids."""
    return [block.typecode for block in engine._seq.blocks]


def snapshot(engine):
    """Everything an op that raises must leave as it was, the column map
    both ways and the free list included."""
    seq = engine._seq
    return {
        "column": dict(seq.column),
        "symbol": list(seq.symbol),
        "free": list(engine._table._free),
        "list": engine.to_list(),
        "sizes": engine.block_sizes(),
        "ends": list(seq.ends),
        "n0": engine.n0,
        "resets": list(engine.reset_events),
        "sigma_prime": engine.sigma_prime,
        "typecodes": typecodes(engine),
        "words": [
            [{col: n for col, n in enumerate(counts) if n} for counts in words(seq, k)]
            for k in range(len(seq.blocks))
        ],
    }


def stored_layout(engine):
    """Every field a layout stores: the blocks' types and bytes, their ends
    and chunk words, the column map both ways, the table's fields and row
    offsets, and the reference length and block capacity."""
    seq, table = engine._seq, engine._table
    return {
        "blocks": [(block.typecode, block.tobytes()) for block in seq.blocks],
        "ends": seq.ends,
        "words": seq.chunk_sums,
        "symbol": seq.symbol,
        "column": seq.column,
        "fields": table._counts.tobytes(),
        "base": table._base,
        "n0": engine.n0,
        "capacity": engine.capacity,
    }


def add_columns(seq, symbols):
    """Hand each of ``symbols`` that has no column the next one, as
    :meth:`PairTable.claim_column` does with no free column, and rewrite
    every block to the wider id type before column 256 is handed out, which
    the engine does by a rebuild instead; the one writer of the blocks' type."""
    for symbol in symbols:
        if symbol not in seq.column:
            col = len(seq.symbol)
            code = multiset.id_type(col + 1)
            if code != multiset.id_type(col):
                seq.blocks[:] = [array(code, block) for block in seq.blocks]
            seq.symbol.append(symbol)
            seq.column[symbol] = col


# ----------------------------------------------------------------------
# bytes
# ----------------------------------------------------------------------


def held_bytes(engine):
    """Bytes the sequence's parts hold by :func:`sys.getsizeof`, each
    object with its list slot.

    ``"words"``: the word lists and every word past the 0 that leads each
    list, which must be CPython's shared small int, as the guard prices it
    at its list slot alone.  ``"arrays"``: the block arrays.
    """
    seq = engine._seq
    held = {"words": 0, "arrays": 0}
    for sums in seq.chunk_sums:
        assert sums[0] is _ZERO, "a word list leads with a 0 of its own"
        held["words"] += sys.getsizeof(sums) + _SLOT + sum(map(sys.getsizeof, sums[1:]))
    for block in seq.blocks:
        held["arrays"] += sys.getsizeof(block) + _SLOT
    return held


def priced_bytes(slots, width, words, elements, code):
    """The memory guard's price of each part of an engine of ``slots``
    blocks and ``width`` columns, whose blocks hold ``words`` running words
    past their leading 0s and ``elements`` column ids of type ``code``.

    Recomputed here from the guard's model, not read from it: the table's
    32-bit fields; the offset words and the kept edit masks, ints of
    :func:`int_bytes` digits with a header and a list slot each, the masks
    capped at the table's own field count; the word lists, each word an int
    of ``width`` fields, each list a header, a slot in the list of lists
    and a slot for its leading 0; and the arrays, by :func:`array_bytes`.
    The guard refuses when the sum of the parts passes the limit.
    """
    cells = slots * (slots + 1) // 2
    masks = min(slots * (slots * slots + 2) // 3, cells * width)
    return {
        "table": 4 * width * cells,
        "offsets": slots * (int_bytes(width) + _INT_HEAD),
        "masks": int_bytes(masks) + slots * _INT_HEAD,
        "words": words * (int_bytes(width) + _INT_HEAD) + slots * (_SLOT + _LIST_HEAD),
        "arrays": array_bytes(slots, elements, code),
    }


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------


def refuse(*args, **kwargs):
    raise MemoryError("refused")


FAULTS = {  # where a rebuild can fail
    "check_table_fits": lambda mp: mp.setattr(engine_module, "check_table_fits", refuse),
    "CharSeq.__init__": lambda mp: mp.setattr(charseq.CharSeq, "__init__", refuse),
    "PairTable.__init__": lambda mp: mp.setattr(multiset.PairTable, "__init__", refuse),
    "MAX_COUNT": lambda mp: mp.setattr(engine_module, "MAX_COUNT", 1),  # the length's ValueError
}
WIDEN_FAULTS = {  # where handing a new symbol a column can fail
    "PairTable._widen": lambda mp: mp.setattr(multiset.PairTable, "_widen", refuse),
    "multiset.check_table_fits": lambda mp: mp.setattr(multiset, "check_table_fits", refuse),
}


def _fail_array_insert(mp):
    """Make the array insert of the next edit that inserts raise
    :class:`MemoryError`, as one that runs out of memory does: before it
    changes anything, as the first store of the edit, a move inside one
    block included."""
    edit = charseq.CharSeq.edit

    def failing(self, js, offs, jd, *rest):
        if jd is not None:  # the block the edit inserts into
            raise MemoryError("refused")
        edit(self, js, offs, jd, *rest)

    mp.setattr(charseq.CharSeq, "edit", failing)


EDIT_FAULTS = {  # where an edit that does not rebuild can fail
    "array insert": _fail_array_insert,
    "slice compute": lambda mp: mp.setattr(multiset.PairTable, "apply_point", refuse),
    "column claim": lambda mp: mp.setattr(multiset.PairTable, "claim_column", refuse),
}


def ignore_capacity(mp):
    """Make every edit take the block it targets, full or not, as an engine
    with no overflow rebuild: each runs with the block capacity lifted."""
    edit = engine_module.RangeModeEngine._edit

    def careless(self, *args):
        cap, self._capacity = self._capacity, math.inf
        try:
            return edit(self, *args)
        finally:
            if self._capacity is math.inf:  # no rebuild set a new one
                self._capacity = cap

    mp.setattr(engine_module.RangeModeEngine, "_edit", careless)


# ----------------------------------------------------------------------
# layouts
# ----------------------------------------------------------------------


def lay_out(engine, sizes):
    """Lay ``engine``'s elements out in blocks of ``sizes``, the sizes of
    the leading slots, the rest left empty, independent of the rebuild's
    fill rule: a :class:`CharSeq` and a :class:`PairTable` built from its
    column ids, with the engine's own guard, installed in place of its own.
    The column map both ways, the free columns and the blocks' id type
    stay as they were."""
    old = engine._seq
    slots = len(old.blocks)
    assert sum(sizes) == len(engine) and len(sizes) <= slots, (sizes, slots)
    sizes = [*sizes, *[0] * (slots - len(sizes))]
    ids = array(old.blocks[0].typecode, b"".join(old.blocks))
    seq = charseq.CharSeq(ids, sizes, range(len(old.symbol)))
    seq.symbol, seq.column = old.symbol[:], dict(old.column)
    table = multiset.PairTable(seq, engine._table._guard)
    table._free = engine._table._free[:]
    engine._seq, engine._table = seq, table
    assert engine.block_sizes() == sizes and engine.audit().ok


def pack_front(engine):
    """Lay ``engine``'s blocks out full from block 0 on, the rest of the
    elements in the block after them; return ``engine``."""
    q, r = divmod(len(engine), engine.capacity)
    lay_out(engine, [engine.capacity] * q + ([r] if r else []))
    return engine


def assert_within_capacity(engine):
    """Assert that no block holds more than the block capacity."""
    assert max(engine.block_sizes()) <= engine.capacity, (engine.block_sizes(), engine.capacity)
