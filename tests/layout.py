"""Lay out an engine's blocks by hand, independent of the rebuild's fill rule,
and check their sizes against the block capacity."""


def lay_out(engine, sizes):
    """Move block boundaries until the block sizes equal ``sizes``."""
    assert sum(sizes) == len(engine) and len(sizes) == len(engine.block_sizes())
    want = 0
    for k in range(len(sizes) - 1):
        want += sizes[k]
        while sum(engine.block_sizes()[: k + 1]) > want:
            engine.move_right(k)
        while sum(engine.block_sizes()[: k + 1]) < want:
            # Walk the first element of the next nonempty block left to block k.
            m = next(i for i, size in enumerate(engine.block_sizes()) if i > k and size)
            for i in range(m, k, -1):
                engine.move_left(i)
    assert engine.block_sizes() == sizes


def assert_within_capacity(engine):
    """Assert that no block holds more than the block capacity."""
    assert max(engine.block_sizes()) <= engine.capacity, (engine.block_sizes(), engine.capacity)
