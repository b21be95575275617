"""Dynamic sequence with output-sensitive enumeration of all range modes.

The package provides the block-decomposed engine (:class:`RangeModeEngine`),
its building blocks (:class:`CharSeq`, the symbols as one array of column
ids per block, one byte each up to 256 columns and four beyond,
located through their :class:`BlockSizeIndex`; :class:`PairTable` and
its cell snapshots, :class:`CountedSet`), a naive oracle for differential
testing (:class:`NaiveSeq`), and a set-intersection application
(:class:`SetFamily`).  The engine's one parameter is the block exponent of
its :class:`Config`, and :meth:`RangeModeEngine.audit` is its one checker.
See the ``rangemodes`` CLI for traces, fuzzing, and set intersections.
"""

from .blockindex import BlockSizeIndex
from .charseq import CharSeq
from .engine import AuditReport, Config, RangeModeEngine
from .errors import InvariantError
from .multiset import CountedSet, PairTable
from .oracle import NaiveSeq
from .results import ModesResult
from .setintersect import SetFamily

__version__ = "0.1.0"

__all__ = [
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
    "SetFamily",
    "__version__",
]
