import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangemodes import BlockSizeIndex, InvariantError


def linear_argmin(sizes, lo, hi):
    best = lo
    for k in range(lo, hi + 1):
        if sizes[k] < sizes[best]:
            best = k
    return best


def linear_select(sizes, a):
    acc = 0
    for k, size in enumerate(sizes):
        acc += size
        if acc >= a:
            return k
    raise AssertionError("target exceeds total")


def test_adjust_up():
    idx = BlockSizeIndex([2, 0, 3])
    idx.adjust(1, 1)
    assert idx.to_list() == [2, 1, 3]


def test_adjust_down():
    idx = BlockSizeIndex([2, 0, 3])
    idx.adjust(0, -2)
    assert idx.to_list() == [0, 0, 3]


def test_adjust_below_zero():
    idx = BlockSizeIndex([5])
    with pytest.raises(InvariantError):
        idx.adjust(0, -6)
    assert idx.to_list() == [5]  # structure untouched


def test_argmin_basic():
    assert BlockSizeIndex([2, 0, 3]).argmin_size() == 1


def test_argmin_tie_breaks_low():
    assert BlockSizeIndex([4, 4, 4]).argmin_size() == 0


def test_argmin_derived():
    sizes = [1, 0, 0, 2]
    assert BlockSizeIndex(sizes).argmin_size() == linear_argmin(sizes, 0, 3) == 1


def test_argmin_in_range():
    sizes = [2, 0, 3, 0]
    assert BlockSizeIndex(sizes).argmin_size_in(2, 3) == linear_argmin(sizes, 2, 3) == 3


def test_argmin_in_singleton_range():
    assert BlockSizeIndex([2, 0, 3]).argmin_size_in(0, 0) == 0


def test_argmin_in_tie():
    assert BlockSizeIndex([7, 7]).argmin_size_in(0, 1) == 0


def test_argmin_empty_range():
    idx = BlockSizeIndex([1, 2])
    with pytest.raises(IndexError):
        idx.argmin_size_in(1, 0)
    with pytest.raises(ValueError):
        BlockSizeIndex([]).argmin_size()


def test_select_prefix():
    idx = BlockSizeIndex([2, 0, 3])  # prefix sums 2, 2, 5
    assert idx.select_prefix(3) == linear_select([2, 0, 3], 3) == 2
    assert idx.select_prefix(2) == linear_select([2, 0, 3], 2) == 0
    assert BlockSizeIndex([1]).select_prefix(1) == 0


def test_select_prefix_bounds():
    idx = BlockSizeIndex([2, 0, 3])
    with pytest.raises(IndexError):
        idx.select_prefix(0)
    with pytest.raises(IndexError):
        idx.select_prefix(6)


def test_prefix_sum():
    idx = BlockSizeIndex([2, 0, 3])
    assert idx.prefix_sum(1) == 2
    assert idx.prefix_sum(2) == 5
    assert BlockSizeIndex([4]).prefix_sum(0) == 4
    with pytest.raises(IndexError):
        idx.prefix_sum(3)


def test_negative_slot_index_rejected():
    idx = BlockSizeIndex([2, 0, 3])
    with pytest.raises(IndexError):
        idx.size_of(-1)
    with pytest.raises(IndexError):
        idx.adjust(-1, 1)
    with pytest.raises(IndexError):
        idx.prefix_sum(-1)
    with pytest.raises(IndexError):
        idx.argmin_size_in(-1, 0)
    assert idx.to_list() == [2, 0, 3]


def test_insert_slot():
    idx = BlockSizeIndex([2, 3])
    idx.insert_slot(1, 0)
    assert idx.to_list() == [2, 0, 3]

    empty = BlockSizeIndex()
    empty.insert_slot(0, 5)
    assert empty.to_list() == [5]

    idx2 = BlockSizeIndex([1])
    idx2.insert_slot(1, 2)
    assert idx2.to_list() == [1, 2]


def test_delete_slot():
    idx = BlockSizeIndex([2, 0, 3])
    idx.delete_slot(1)
    assert idx.to_list() == [2, 3]

    one = BlockSizeIndex([5])
    one.delete_slot(0)
    assert one.to_list() == []

    idx2 = BlockSizeIndex([1, 2])
    idx2.delete_slot(1)
    assert idx2.to_list() == [1]

    with pytest.raises(IndexError):
        idx2.delete_slot(5)


def test_select_of_prefix_property():
    sizes = [3, 0, 1, 0, 0, 7, 2]
    idx = BlockSizeIndex(sizes)
    for k, size in enumerate(sizes):
        if size > 0:
            assert idx.select_prefix(idx.prefix_sum(k)) <= k


def test_differential_random_ops():
    rng = random.Random(99)
    idx = BlockSizeIndex()
    mirror: list[int] = []
    for _ in range(4000):
        n = len(mirror)
        roll = rng.random()
        if n == 0 or roll < 0.25:
            pos = rng.randint(0, n)
            val = rng.randrange(6)
            idx.insert_slot(pos, val)
            mirror.insert(pos, val)
        elif roll < 0.35:
            pos = rng.randrange(n)
            idx.delete_slot(pos)
            del mirror[pos]
        elif roll < 0.6:
            pos = rng.randrange(n)
            delta = rng.randint(-mirror[pos], 4)
            idx.adjust(pos, delta)
            mirror[pos] += delta
        elif roll < 0.75:
            lo = rng.randrange(n)
            hi = rng.randint(lo, n - 1)
            assert idx.argmin_size_in(lo, hi) == linear_argmin(mirror, lo, hi)
        elif roll < 0.9 and sum(mirror) > 0:
            a = rng.randint(1, sum(mirror))
            assert idx.select_prefix(a) == linear_select(mirror, a)
        else:
            k = rng.randrange(n)
            assert idx.prefix_sum(k) == sum(mirror[: k + 1])
    assert idx.to_list() == mirror
    assert idx.total() == sum(mirror)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_property_queries_match_linear_scan(sizes, rng):
    idx = BlockSizeIndex(sizes)
    n = len(sizes)
    assert idx.to_list() == sizes
    assert idx.argmin_size() == linear_argmin(sizes, 0, n - 1)
    for _ in range(5):
        lo = rng.randrange(n)
        hi = rng.randint(lo, n - 1)
        assert idx.argmin_size_in(lo, hi) == linear_argmin(sizes, lo, hi)
    total = sum(sizes)
    if total:
        a = rng.randint(1, total)
        assert idx.select_prefix(a) == linear_select(sizes, a)
    k = rng.randrange(n)
    assert idx.prefix_sum(k) == sum(sizes[: k + 1])
