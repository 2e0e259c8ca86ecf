"""Independence structures: uniform, partition, and explicit small matroids.

All three variants answer the same four queries: membership of a set in the
independence family (``is_independent``), whether one more element fits
(``can_add``), the exchange candidates that would make room for a new element
(``exchange_set``), and exhaustive enumeration of independent subsets of a
small ground set (the reference optimum needs the last one).

``exchange_set`` is written once, on the base class.  ``UniformMatroid`` and
``PartitionMatroid`` answer ``can_add`` and its blocking-members step natively,
by a count and by the arriving element's part, without one independence test
per member; ``ExplicitMatroid`` keeps the generic definitions.
"""

from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Dict, FrozenSet, Iterable, List

MAX_ENUM_GROUND = 20
# Full exchange-axiom validation enumerates pairs of independent sets, so it
# is only run for grounds this small.
MAX_AXIOM_CHECK_GROUND = 10


class MatroidError(ValueError):
    """Unknown element, missing part label, or an invalid family."""


class Matroid:
    """Base independence oracle; subclasses define `is_independent`."""

    def is_independent(self, s: Iterable[str]) -> bool:
        raise NotImplementedError

    def can_add(self, s: AbstractSet[str], u: str) -> bool:
        """Whether ``s + u`` is independent."""
        return self.is_independent(frozenset(s) | {u})

    def exchange_set(self, s: Iterable[str], u: str) -> FrozenSet[str]:
        """All members whose removal admits ``u``: {v in s : s - v + u independent}.

        When ``s + u`` is already independent this is all of ``s``.
        """
        s = frozenset(s)
        if not self.is_independent(s):
            raise MatroidError("exchange_set requires an independent set")
        if u in s:
            raise MatroidError(f"element {u!r} is already in the set")
        if self.can_add(s, u):
            return s
        return self._blocking_members(s, u)

    def _blocking_members(self, s: FrozenSet[str], u: str) -> FrozenSet[str]:
        """{v in s : s - v + u independent}, for an independent s with s + u dependent."""
        return frozenset(v for v in s if self.is_independent((s - {v}) | {u}))

    def enumerate_independent_sets(self, ground: Iterable[str]) -> List[FrozenSet[str]]:
        """Every independent subset of ``ground``, each exactly once."""
        ground = sorted(set(ground))
        if len(ground) > MAX_ENUM_GROUND:
            raise MatroidError(
                f"ground of size {len(ground)} exceeds enumeration limit {MAX_ENUM_GROUND}"
            )
        out = [frozenset()]
        # DFS over sorted extensions; downward closure makes the pruning exact.
        stack = [(frozenset(), 0)]
        while stack:
            base, start = stack.pop()
            for i in range(start, len(ground)):
                cand = base | {ground[i]}
                if self.is_independent(cand):
                    out.append(cand)
                    stack.append((cand, i + 1))
        return out


class UniformMatroid(Matroid):
    """Independent iff cardinality is at most k; any element id is valid."""

    def __init__(self, k: int):
        if not isinstance(k, int) or k < 1:
            raise MatroidError("uniform matroid needs integer k >= 1")
        self.k = k

    def is_independent(self, s: Iterable[str]) -> bool:
        return len(frozenset(s)) <= self.k

    def can_add(self, s: AbstractSet[str], u: str) -> bool:
        return len(s) + (u not in s) <= self.k

    def _blocking_members(self, s: FrozenSet[str], u: str) -> FrozenSet[str]:
        # s is full, so removing any member makes room
        return s

    def __repr__(self):
        return f"UniformMatroid(k={self.k})"


class PartitionMatroid(Matroid):
    """Per-part cardinality caps over a labelled ground set."""

    def __init__(self, part_of: Dict[str, str], capacity: Dict[str, int]):
        for part, cap in capacity.items():
            if not isinstance(cap, int) or cap < 1:
                raise MatroidError(f"capacity of part {part!r} must be an integer >= 1")
        for el, part in part_of.items():
            if part not in capacity:
                raise MatroidError(f"element {el!r} labelled with unknown part {part!r}")
        self.part_of = dict(part_of)
        self.capacity = dict(capacity)

    def part(self, u: str) -> str:
        try:
            return self.part_of[u]
        except KeyError:
            raise MatroidError(f"element {u!r} has no part label") from None

    def is_independent(self, s: Iterable[str]) -> bool:
        return self._within_capacity(frozenset(s), {})

    def can_add(self, s: AbstractSet[str], u: str) -> bool:
        return self._within_capacity(s, {} if u in s else {self.part(u): 1})

    def _within_capacity(self, s: AbstractSet[str], counts: Dict[str, int]) -> bool:
        """Whether s, on top of the given per-part counts, stays within every cap."""
        for v in s:
            p = self.part(v)
            counts[p] = counts.get(p, 0) + 1
            if counts[p] > self.capacity[p]:
                return False
        return True

    def _blocking_members(self, s: FrozenSet[str], u: str) -> FrozenSet[str]:
        # u's part is full in s; only a member of that part makes room
        p = self.part_of[u]
        return frozenset(v for v in s if self.part_of[v] == p)

    def __repr__(self):
        return f"PartitionMatroid(parts={len(self.capacity)})"


class ExplicitMatroid(Matroid):
    """Small matroid given by its maximal independent sets.

    Membership is "subset of some maximal set", which is downward closed by
    construction.  Loading validates that every singleton is independent,
    that all bases have equal size, and (for grounds small enough to
    enumerate) that the exchange axiom holds.
    """

    def __init__(self, ground: Iterable[str], maximal_sets: Iterable[Iterable[str]]):
        self.ground = frozenset(ground)
        if len(self.ground) > MAX_ENUM_GROUND:
            raise MatroidError("explicit matroid ground too large")
        self.maximal_sets = frozenset(frozenset(m) for m in maximal_sets)
        if not self.maximal_sets:
            raise MatroidError("explicit matroid needs at least one maximal set")
        covered = frozenset().union(*self.maximal_sets)
        if not covered <= self.ground:
            raise MatroidError("maximal set mentions element outside the ground set")
        if covered != self.ground:
            missing = sorted(self.ground - covered)
            raise MatroidError(f"singletons not independent: {missing}")
        sizes = {len(m) for m in self.maximal_sets}
        if len(sizes) != 1:
            raise MatroidError("bases of a matroid must have equal cardinality")
        for a in self.maximal_sets:
            for b in self.maximal_sets:
                if a < b:
                    raise MatroidError("family contains a non-maximal set")
        if len(self.ground) <= MAX_AXIOM_CHECK_GROUND:
            self._validate_exchange_axiom()

    def _validate_exchange_axiom(self):
        sets = self.enumerate_independent_sets(self.ground)
        by_size: Dict[int, List[FrozenSet[str]]] = {}
        for s in sets:
            by_size.setdefault(len(s), []).append(s)
        for small_size in sorted(by_size):
            for big_size in sorted(by_size):
                if big_size <= small_size:
                    continue
                for s in by_size[small_size]:
                    for t in by_size[big_size]:
                        if not any(self.is_independent(s | {v}) for v in t - s):
                            raise MatroidError(
                                f"exchange axiom fails for {sorted(s)} and {sorted(t)}"
                            )

    def is_independent(self, s: Iterable[str]) -> bool:
        s = frozenset(s)
        if not s <= self.ground:
            unknown = sorted(s - self.ground)
            raise MatroidError(f"unknown elements: {unknown}")
        return any(s <= m for m in self.maximal_sets)

    def __repr__(self):
        return f"ExplicitMatroid(|ground|={len(self.ground)}, bases={len(self.maximal_sets)})"


def uniform_as_explicit(k: int, ground: Iterable[str]) -> ExplicitMatroid:
    """Materialize a small uniform matroid as an explicit family (test helper)."""
    ground = sorted(set(ground))
    k = min(k, len(ground))
    return ExplicitMatroid(ground, [frozenset(c) for c in combinations(ground, k)])
