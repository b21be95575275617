"""Dynamic set-intersection queries reduced to range mode queries.

Each set S over a universe of ``u`` ids occupies one gadget of exactly
``2u`` sequence positions: the members ascending, the non-members ascending,
the non-members again, the members again.  Every universe element appears
exactly twice per gadget, so in the query range spanning the tail copy of
gadget ``i``, all full gadgets between, and the head copy of gadget ``j``,
an element ``x`` occurs ``2(j - i - 1) + [x in S_i] + [x in S_j]`` times.
The range modes therefore reach multiplicity ``2(j - i)`` exactly when the
two sets intersect, and the modes are then exactly the intersection.

A member update is one rule: it moves each of the two copies of one element
between a non-member run and the member run beside it, one
:meth:`RangeModeEngine.relocate` of at most ``u`` positions each, then
stores the set's new member list, computed first, by a list item store,
which cannot fail.  Each relocation stores on its own, so only a failure
inside the second leaves an update half done.

The build admits the engine's layout for the ``2·u·m`` positions of ``m``
gadgets over ``u`` symbols (:func:`admit_layout`) once it has checked the
members and before it writes a gadget, so a family too large for the
process is refused before its sequence is built.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import countOf
from typing import Iterable, Sequence

from .engine import Config, RangeModeEngine, admit_layout
from .errors import check_int


class SetFamily:
    """A family of dynamic sets with intersection queries via mode queries.

    Set indices are 1-based; universe members are the ids ``0..universe_size-1``.
    The number of sets and the universe are fixed at build time.
    """

    def __init__(
        self,
        sets: Sequence[Iterable[int]],
        universe_size: int,
        config: Config | None = None,
    ) -> None:
        check_int(universe_size, "universe_size")
        if universe_size < 0:
            raise ValueError("universe_size must be non-negative")
        self._universe = universe_size
        self._members: list[list[int]] = []
        for idx, raw in enumerate(sets, start=1):
            members = list(raw)
            # Every id an int before any is compared: at C speed while all pass.
            if countOf(map(type, members), int) != len(members):
                for x in members:
                    check_int(x, "member id")
            members.sort()
            for a, b in zip(members, members[1:]):
                if a == b:
                    raise ValueError(f"set {idx} lists member {a} twice")
            if members and not (0 <= members[0] and members[-1] < universe_size):
                raise IndexError(f"set {idx} has members outside the universe")
            self._members.append(members)
        config = config if config is not None else Config()
        m = len(self._members)  # each gadget holds the whole universe
        admit_layout(2 * universe_size * m, universe_size if m else 0, config.alpha)
        symbols: list[int] = []
        for members in self._members:
            symbols.extend(self._gadget(members))
        self.engine = RangeModeEngine(symbols, config)

    def _gadget(self, members: list[int]) -> list[int]:
        complement = sorted(set(range(self._universe)) - set(members))
        return members + complement + complement + members

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def universe_size(self) -> int:
        return self._universe

    @property
    def num_sets(self) -> int:
        return len(self._members)

    def members(self, k: int) -> list[int]:
        """Snapshot of set ``k``'s members, ascending."""
        self._check_set(k)
        return list(self._members[k - 1])

    def _check_set(self, k: int) -> None:
        if type(k) is not int:
            check_int(k, "set index")
        if not 1 <= k <= len(self._members):
            raise IndexError(f"set index {k} out of range (1..{len(self._members)})")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _query_range(self, i: int, j: int) -> tuple[int, int]:
        u = self._universe
        lo = 2 * i * u - len(self._members[i - 1])
        hi = 2 * (j - 1) * u + len(self._members[j - 1]) - 1
        return lo, hi

    def intersect(self, i: int, j: int) -> bool:
        """Whether sets ``i`` and ``j`` share a member (requires ``i < j``)."""
        return bool(self.enumerate_intersection(i, j))

    def enumerate_intersection(self, i: int, j: int) -> set[int]:
        """The members of ``S_i ∩ S_j`` (empty when the sets are disjoint)."""
        self._check_set(i)
        self._check_set(j)
        if not i < j:
            raise ValueError(f"intersect requires i < j, got ({i}, {j})")
        lo, hi = self._query_range(i, j)
        if lo > hi:
            return set()
        result = self.engine.modes(lo, hi)
        if result.multiplicity != 2 * (j - i):
            return set()
        return set(result.modes)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _rank(self, k: int, x: int) -> tuple[list[int], int, bool]:
        """Set ``k``'s members, the rank of ``x`` among them, and whether ``x`` is one.

        Validates ``k`` and ``x`` before a caller changes anything.
        """
        self._check_set(k)
        if type(x) is not int:
            check_int(x, "member id")
        if not 0 <= x < self._universe:
            raise IndexError(f"member {x} outside the universe")
        members = self._members[k - 1]
        rank = bisect_left(members, x)
        return members, rank, rank < len(members) and members[rank] == x

    def add_member(self, k: int, x: int) -> None:
        """Add ``x`` to set ``k``: two relocations inside gadget ``k``."""
        self._update(k, x, True)

    def remove_member(self, k: int, x: int) -> None:
        """Remove ``x`` from set ``k``: two relocations inside gadget ``k``."""
        self._update(k, x, False)

    def _update(self, k: int, x: int, add: bool) -> None:
        """Add ``x`` to set ``k`` or remove it, from ``x``'s four slots in
        gadget ``k``: its head and tail member and complement slots."""
        members, rank_m, present = self._rank(k, x)
        if present == add:
            raise ValueError(f"member {x} {'already' if add else 'not'} in set {k}")
        u, size, i = self._universe, len(members), k - 1
        base, rank_c = 2 * i * u, x - rank_m  # rank_c: non-members below x
        head_m, head_c = base + rank_m, base + size + rank_c
        tail_c, tail_m = base + u + rank_c, base + 2 * u - size + rank_m
        new = members.copy()
        if add:
            new.insert(rank_m, x)
            src, dst, src2, dst2 = head_c, head_m, tail_c, tail_m - 1
        else:
            del new[rank_m]
            src, dst, src2, dst2 = head_m, head_c - 1, tail_m, tail_c
        self.engine.relocate(src, dst)
        self.engine.relocate(src2, dst2)
        self._members[i] = new

    def gadget_symbols(self, k: int) -> list[int]:
        """Current sequence contents of gadget ``k`` (for audits and tests)."""
        self._check_set(k)
        base = 2 * (k - 1) * self._universe
        return self.engine.to_list()[base : base + 2 * self._universe]
