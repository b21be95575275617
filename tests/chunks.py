"""Chunk sizes read off the chunk offsets of a :class:`CharSeq`."""


def chunk_sizes(seq, k):
    """The size of each chunk of block ``k``: the gaps between its offsets."""
    bounds = seq.chunk_bounds[k]
    return [end - start for start, end in zip(bounds, bounds[1:])]
