import pytest

from rangemodes import ModesResult, NaiveSeq


def test_insert_shifts():
    seq = NaiveSeq([1, 2])
    seq.insert_at(1, 9)
    assert seq.to_list() == [1, 9, 2]


def test_insert_empty():
    seq = NaiveSeq()
    seq.insert_at(0, 1)
    assert seq.to_list() == [1]


def test_delete_front():
    seq = NaiveSeq([1, 2])
    assert seq.delete_at(0) == 1
    assert seq.to_list() == [2]


def test_relocate_is_delete_then_insert():
    seq = NaiveSeq([1, 2, 3, 4])
    assert seq.relocate(0, 2) == 1
    assert seq.to_list() == [2, 3, 1, 4]
    assert seq.relocate(3, 0) == 4
    assert seq.to_list() == [4, 2, 3, 1]
    with pytest.raises(IndexError):
        seq.relocate(0, 4)
    assert seq.to_list() == [4, 2, 3, 1]


def test_modes_hand_checked():
    seq = NaiveSeq([1, 2, 1, 2, 3])
    assert seq.modes(0, 4) == ModesResult(2, (1, 2))


def test_modes_singleton():
    assert NaiveSeq([9]).modes(0, 0) == ModesResult(1, (9,))


def test_modes_subrange_tie():
    assert NaiveSeq([1, 1, 2, 2]).modes(1, 2) == ModesResult(1, (1, 2))


def test_bounds():
    seq = NaiveSeq([1])
    with pytest.raises(IndexError):
        seq.modes(0, 1)
    with pytest.raises(IndexError):
        seq.insert_at(3, 0)
    with pytest.raises(IndexError):
        seq.delete_at(1)
