"""Stubs of removed code whose names the benchmark's tracer still wraps.

Each is bound to :func:`retired`: the methods and constructors of the two
classes here, ``CharSeq.__getitem__`` and ``access_range``,
``PairTable.shift_left`` and ``shift_right``, and ``RangeModeEngine.move_left``
and ``move_right``.  No module of the package calls them.
"""


def retired(*args, **kwargs):
    """Raise :class:`NotImplementedError`: the method was removed, its name kept."""
    raise NotImplementedError("removed from rangemodes; only the name is kept")


class BlockSizeIndex:
    """The block-size index that :class:`CharSeq`'s list of block ends replaced."""

    __init__ = size_of = to_list = adjust = prefix_sum = select_prefix = retired
    argmin_size = argmin_size_in = insert_slot = delete_slot = retired


class CountedSet:
    """The ranked summary cell that the packed count words replaced."""

    __init__ = count_of = max_entry = cursor = next_entry = retired
