"""Independence structures: uniform, partition, and explicit small matroids.

All three variants answer the same set-argument queries: membership of a set
in the independence family (``is_independent``), whether one more element
fits (``can_add``), the exchange candidates that would make room for a new
element (``exchange_set``), and exhaustive enumeration of independent subsets
of a small ground set (the reference optimum needs the last one).
``can_add`` and ``exchange_set`` are written once, on the base class, from
``is_independent``.

An online run asks ``can_add`` and ``exchange_set`` of one growing and
shrinking set, once or twice per arrival.  ``occupancy()`` returns a record of
that set, which the run updates with ``add`` and ``remove`` and which answers
both queries without an argument set.  Every occupancy holds the set as an
immutable snapshot.  The base class's answers through the generic queries
on it; that one is the reference, and ``ExplicitMatroid`` uses it.
``UniformMatroid``'s counts the snapshot and ``PartitionMatroid``'s also
keeps each part's members, so that either answers in O(1) apart from copying
the arriving element's part.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional

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
        return frozenset(v for v in s if self.is_independent((s - {v}) | {u}))

    def occupancy(self) -> "Occupancy":
        """A record of a held set, initially empty, that answers ``can_add``
        and ``exchange_set`` for it."""
        return Occupancy(self)

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

    def occupancy(self) -> "UniformOccupancy":
        return UniformOccupancy(self)

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
        counts: Dict[str, int] = {}
        for v in frozenset(s):
            p = self.part(v)
            counts[p] = counts.get(p, 0) + 1
            if counts[p] > self.capacity[p]:
                return False
        return True

    def occupancy(self) -> "PartitionOccupancy":
        return PartitionOccupancy(self)

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


class Occupancy:
    """The reference occupancy: the held set, an immutable snapshot that
    ``add`` and ``remove`` replace, asked through the matroid's set-argument
    queries.

    ``add(u)`` takes an element not held and ``remove(v)`` a held one;
    neither checks independence, which is the caller's to ask first.
    ``can_add(u, evict)`` is whether the held set less ``evict`` (a held
    member other than u) plus u is independent.
    """

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        self.held: FrozenSet[str] = frozenset()

    def add(self, u: str) -> None:
        self.held = self.held | {u}

    def remove(self, v: str) -> None:
        self.held = self.held - {v}

    def can_add(self, u: str, evict: Optional[str] = None) -> bool:
        return self.matroid.can_add(self.held if evict is None else self.held - {evict}, u)

    def exchange_set(self, u: str) -> FrozenSet[str]:
        return self.matroid.exchange_set(self.held, u)


class UniformOccupancy(Occupancy):
    """Counts the held set.  Every exchange set is all of it, so it is the
    held snapshot itself, never a copy."""

    def can_add(self, u: str, evict: Optional[str] = None) -> bool:
        return len(self.held) - (evict is not None) + (u not in self.held) <= self.matroid.k

    def exchange_set(self, u: str) -> FrozenSet[str]:
        if len(self.held) > self.matroid.k:
            raise MatroidError("exchange_set requires an independent set")
        if u in self.held:
            raise MatroidError(f"element {u!r} is already in the set")
        return self.held


class PartitionOccupancy(Occupancy):
    """The members held in each part, and how many parts hold more than their
    capacity (never any, unless ``add`` went unchecked)."""

    def __init__(self, matroid: PartitionMatroid):
        super().__init__(matroid)
        self.by_part: Dict[str, set] = {p: set() for p in matroid.capacity}
        self.over = 0

    def add(self, u: str) -> None:
        p = self.matroid.part(u)
        super().add(u)
        in_part = self.by_part[p]
        in_part.add(u)
        self.over += len(in_part) == self.matroid.capacity[p] + 1

    def remove(self, v: str) -> None:
        super().remove(v)
        p = self.matroid.part_of[v]
        in_part = self.by_part[p]
        in_part.remove(v)
        self.over -= len(in_part) == self.matroid.capacity[p]

    def can_add(self, u: str, evict: Optional[str] = None) -> bool:
        p = self.matroid.part(u)
        in_part = self.by_part[p]
        size, over = len(in_part), self.over
        if evict is not None:
            q = self.matroid.part_of[evict]
            over -= len(self.by_part[q]) == self.matroid.capacity[q] + 1
            size -= q == p
        return over == 0 and (u in in_part or size < self.matroid.capacity[p])

    def exchange_set(self, u: str) -> FrozenSet[str]:
        if self.over:
            raise MatroidError("exchange_set requires an independent set")
        p = self.matroid.part(u)
        in_part = self.by_part[p]
        if u in in_part:
            raise MatroidError(f"element {u!r} is already in the set")
        if len(in_part) < self.matroid.capacity[p]:
            return self.held
        # u's part is full; only a member of that part makes room
        return frozenset(in_part)
