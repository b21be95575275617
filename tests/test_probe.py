"""The probe reads the chunk words right, and no other test module reads
them or the block ends."""

import ast
import random
import re
from collections import Counter
from pathlib import Path

import probe
import pytest
from probe import add_columns, set_words, words

from rangemodes import CharSeq, charseq

TESTS = Path(__file__).parent
HELPER_TESTS = {  # the tests of the byte helpers themselves, which may name them
    "test_multiset.py": {
        "test_int_held_fields_are_priced_at_their_digits",
        "test_chunk_words_are_priced_with_their_headers",
    },
}
INDEX_TESTS = "test_blockindex.py"  # the old size index's own tests, which may name its parts
QUOTED = ("test_probe.py", "test_the_guard_patterns_catch_the_names")  # quotes the names


def random_seq(rng, code):
    """A CharSeq over random blocks of up to 400 elements, edited at random.

    Its edits insert symbols of columns added after the build: 20 columns
    in all for ``code`` "B", and past 256 for "I", with the blocks rewritten
    to 'I' by the probe.
    """
    blocks = [[rng.randrange(20) for _ in range(rng.choice((0, 1, 5, 130, 400)))] for _ in range(6)]
    symbols = [s for block in blocks for s in block]
    seq = CharSeq(symbols, [len(block) for block in blocks], set(symbols))
    alphabet = range(20) if code == "B" else range(1000, 1300)
    add_columns(seq, alphabet)
    for _ in range(300):
        k = rng.randrange(len(seq.blocks))
        size = len(seq.blocks[k])
        roll = rng.random()
        if roll < 0.4 or not size:
            off = rng.randint(0, size)
            seq.edit(None, None, k, off, seq.column[rng.choice(alphabet)])
        elif roll < 0.7:
            off = rng.randrange(size)
            seq.edit(k, off, None, None, seq.blocks[k][off])
        elif roll < 0.85:
            off, to = rng.randrange(size), rng.randrange(size)  # to: its offset once moved
            seq.edit(k, off, k, to, seq.blocks[k][off])
        elif k:  # block k's first element to the end of block k - 1
            seq.edit(k, 0, k - 1, len(seq.blocks[k - 1]), seq.blocks[k][0])
    assert {block.typecode for block in seq.blocks} == {code}
    return seq


@pytest.mark.parametrize("code", ["B", "I"])
@pytest.mark.parametrize("chunk", [2, 128])
def test_words_recount_every_prefix(monkeypatch, chunk, code):
    monkeypatch.setattr(charseq, "CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(3):
        seq = random_seq(rng, code)
        width = len(seq.symbol)
        for k, block in enumerate(seq.blocks):
            prefixes = []
            for t in range(-(-len(block) // chunk) + 1):
                count = Counter(block[: t * chunk])
                prefixes.append([count[col] for col in range(width)])
            assert words(seq, k) == prefixes


@pytest.mark.parametrize("code", ["B", "I"])
@pytest.mark.parametrize("chunk", [2, 128])
def test_written_words_read_back(monkeypatch, chunk, code):
    monkeypatch.setattr(charseq, "CHUNK", chunk)
    seq = random_seq(random.Random(chunk + 1), code)
    before = [words(seq, k) for k in range(len(seq.blocks))]
    for k in range(len(seq.blocks)):
        set_words(seq, k, words(seq, k))
    assert seq.chunk_fault() is None
    assert [words(seq, k) for k in range(len(seq.blocks))] == before


def test_a_word_past_the_width_is_refused():
    # Column 2 counted in block 0's words, then dropped from the column map:
    # a decoding at the two columns left would hide it.
    seq = CharSeq([5, 6], [2], {5, 6})
    add_columns(seq, [7])
    seq.edit(None, None, 0, 1, seq.column[7])
    assert words(seq, 0) == [[0, 0, 0], [1, 1, 1]]
    del seq.column[seq.symbol.pop()]
    with pytest.raises(AssertionError, match="bits past the 2 columns"):
        words(seq, 0)


def test_add_columns_rewrites_the_blocks_at_column_256():
    # The engine rebuilds its layout for column 256; a sequence without an
    # engine has the probe rewrite its arrays instead.
    seq = CharSeq([0, 1], [1, 1], {0, 1})
    add_columns(seq, range(256))
    assert len(seq.symbol) == 256 and {block.typecode for block in seq.blocks} == {"B"}
    add_columns(seq, [256])
    assert seq.column[256] == 256 and {block.typecode for block in seq.blocks} == {"I"}
    assert seq.chunk_fault() is None


def test_the_guard_patterns_catch_the_names():
    # Each storage name in a line of code, and none of the lines that only
    # look alike.
    caught = ["seq.chunk_sums[k]", "seq.ends[-1]", "engine._sizes.adjust(0, 1)",
              "seq.sizes.to_list()", "self.sizes.prefix_sums()[k - 1]"]
    passed = ["engine.block_sizes()", "name.endswith('.py')", "ends = (0, 255)", "# ends after it"]
    patterns = [*probe.HIDDEN, *probe.OLD_INDEX]
    assert all(any(re.search(p, line) for p in patterns) for line in caught)
    assert all(any(re.search(p, line) for line in caught) for p in patterns)
    assert not any(re.search(p, line) for p in patterns for line in passed)


def test_only_the_probe_names_the_storage():
    # The chunk words and the block ends are named only in the probe, the
    # old size index's parts only there and in that class's own tests, and
    # the guard's byte helpers only in the probe and in their own tests.
    found, seen = [], set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "probe.py":
            continue
        text = path.read_text()
        exempt, quoted = set(), set()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if (path.name, node.name) == QUOTED:
                quoted.update(range(node.lineno, node.end_lineno + 1))
                seen.add(QUOTED)
            if node.name in HELPER_TESTS.get(path.name, ()):
                exempt.update(range(node.lineno, node.end_lineno + 1))
                seen.add((path.name, node.name))
                assert any(name in ast.unparse(node) for name in probe.BYTE_HELPERS), node.name
        for number, line in enumerate(text.splitlines(), 1):
            patterns = [
                *(probe.HIDDEN if number not in quoted else ()),
                *(probe.OLD_INDEX if path.name != INDEX_TESTS and number not in quoted else ()),
                *(probe.BYTE_HELPERS if number not in exempt else ()),
            ]
            found += [(path.name, number, p) for p in patterns if re.search(p, line)]
    assert found == []
    helpers = {(name, test) for name, tests in HELPER_TESTS.items() for test in tests}
    assert seen == {QUOTED} | helpers
    assert not (TESTS / "layout.py").exists()
