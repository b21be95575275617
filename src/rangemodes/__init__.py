"""Dynamic sequence with output-sensitive enumeration of all range modes.

The package provides the block-decomposed engine (:class:`RangeModeEngine`),
its building blocks (:class:`CharSeq`, the symbols as one list per block,
located through their :class:`BlockSizeIndex`; :class:`CountedSet`;
:class:`PairTable`), a naive oracle for differential
testing (:class:`NaiveSeq`), and a set-intersection application
(:class:`SetFamily`).  See the ``rangemodes`` CLI for traces, fuzzing, and
benchmarks.
"""

from .blockindex import BlockSizeIndex
from .charseq import CharSeq
from .engine import AuditReport, Config, RangeModeEngine, Region
from .errors import AuditError, InvariantError, StaleCursorError
from .multiset import CountedSet, PairTable, RankedCursor
from .oracle import NaiveSeq
from .results import ModesResult
from .setintersect import SetFamily

__version__ = "0.1.0"

__all__ = [
    "AuditError",
    "AuditReport",
    "BlockSizeIndex",
    "CharSeq",
    "Config",
    "CountedSet",
    "InvariantError",
    "ModesResult",
    "NaiveSeq",
    "PairTable",
    "RangeModeEngine",
    "RankedCursor",
    "Region",
    "SetFamily",
    "StaleCursorError",
    "__version__",
]
