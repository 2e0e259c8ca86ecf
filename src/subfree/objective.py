"""Submodular value oracles and their fractional extensions.

Four concrete oracle families (weighted coverage, geometric interval
coverage, explicit tables, linear weights) share one interface: ``value`` on
a set, ``marginal`` of an element against a set, plus two hooks the online
bookkeeping relies on for speed:

* ``interacts(u, v)`` - may removing ``v`` from a context change the
  marginal of ``u``?  Conservative ``True`` is always sound; coverage
  oracles answer exactly by overlap, linear oracles always answer ``False``.
* ``accumulator()`` - incremental marginals against a grow-only set.

Interval coverage works in exact rational arithmetic end to end so that
threshold comparisons on adversarial streams are tie-free by construction.

The module-level functions implement the fractional extensions: the
exponential extension over nonnegative mass vectors (element ``u`` realized
with probability ``1 - exp(-mass_u)``), its coordinate derivative, and the
independent p-thinning extension over ordinary sets.  All three are exact:
they enumerate every realization of a support of at most
``EXACT_SUPPORT_LIMIT`` elements.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

EXACT_SUPPORT_LIMIT = 15

# A mass vector over elements; absent keys mean zero mass.
FractionalVector = Mapping[str, float]

Interval = Tuple[Fraction, Fraction]


class ObjectiveError(ValueError):
    """Unknown element, invalid table, or an out-of-range parameter."""


def _as_set(s: Iterable[str]) -> FrozenSet[str]:
    return s if isinstance(s, frozenset) else frozenset(s)


class Objective:
    """Base value oracle; immutable and shareable across runs."""

    monotone: bool = True

    def elements(self) -> FrozenSet[str]:
        raise NotImplementedError

    def value(self, s: Iterable[str]):
        raise NotImplementedError

    def marginal(self, u: str, s: Iterable[str]):
        """f(s + u) - f(s); zero when u is already in s."""
        s = _as_set(s)
        if u in s:
            return 0
        return self.value(s | {u}) - self.value(s)

    def check_known(self, s: Iterable[str]) -> None:
        unknown = _as_set(s) - self.elements()
        if unknown:
            raise ObjectiveError(f"unknown elements: {sorted(unknown)}")

    def interacts(self, u: str, v: str) -> bool:
        """Whether v's presence in a context can influence u's marginal."""
        return True

    def accumulator(self) -> "MarginalAccumulator":
        return MarginalAccumulator(self)


class MarginalAccumulator:
    """Marginals against a set that only ever grows; generic fallback."""

    def __init__(self, objective: Objective):
        self._f = objective
        self._base: set = set()
        self._val = objective.value(frozenset())

    def marginal(self, u: str):
        if u in self._base:
            return 0
        return self._f.value(frozenset(self._base | {u})) - self._val

    def add(self, u: str) -> None:
        self._base.add(u)
        self._val = self._f.value(frozenset(self._base))


class WeightedCoverage(Objective):
    """f(S) = total weight of the universe items covered by S."""

    def __init__(self, universe_weight: Mapping[str, object], covers: Mapping[str, Iterable[str]]):
        for item, w in universe_weight.items():
            if w < 0:
                raise ObjectiveError(f"item {item!r} has negative weight")
        self.universe_weight = dict(universe_weight)
        self.covers = {el: frozenset(items) for el, items in covers.items()}
        for el, items in self.covers.items():
            missing = items.difference(self.universe_weight)
            if missing:
                raise ObjectiveError(f"element {el!r} covers unknown items {sorted(missing)}")
        self._elements = frozenset(self.covers)

    def elements(self) -> FrozenSet[str]:
        return self._elements

    def value(self, s: Iterable[str]):
        s = _as_set(s)
        self.check_known(s)
        covered: set = set()
        for el in s:
            covered |= self.covers[el]
        # sorted so float accumulation is independent of set iteration order
        return sum(self.universe_weight[i] for i in sorted(covered))

    def interacts(self, u: str, v: str) -> bool:
        return bool(self.covers[u] & self.covers[v])

    def accumulator(self) -> "MarginalAccumulator":
        return _CoverageAccumulator(self)


class _CoverageAccumulator(MarginalAccumulator):
    def __init__(self, objective: WeightedCoverage):
        self._f = objective
        self._covered: set = set()

    def marginal(self, u: str):
        return sum(
            self._f.universe_weight[i]
            for i in sorted(self._f.covers[u])
            if i not in self._covered
        )

    def add(self, u: str) -> None:
        self._covered |= self._f.covers[u]


class Linear(Objective):
    """Additive weights; marginals never depend on the context."""

    def __init__(self, weight: Mapping[str, object]):
        for el, w in weight.items():
            if w < 0:
                raise ObjectiveError(f"element {el!r} has negative weight")
        self.weight = dict(weight)

    def elements(self) -> FrozenSet[str]:
        return frozenset(self.weight)

    def value(self, s: Iterable[str]):
        s = _as_set(s)
        self.check_known(s)
        return sum(self.weight[el] for el in sorted(s))

    def interacts(self, u: str, v: str) -> bool:
        return False

    def accumulator(self) -> "MarginalAccumulator":
        return _LinearAccumulator(self)


class _LinearAccumulator(MarginalAccumulator):
    def __init__(self, objective: Linear):
        self._f = objective
        self._seen: set = set()

    def marginal(self, u: str):
        return 0 if u in self._seen else self._f.weight[u]

    def add(self, u: str) -> None:
        self._seen.add(u)


def normalize_intervals(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort and merge half-open intervals into a disjoint canonical form."""
    ivs = sorted((Fraction(lo), Fraction(hi)) for lo, hi in intervals)
    out: List[Interval] = []
    for lo, hi in ivs:
        if lo < 0:
            raise ObjectiveError("intervals must lie in the nonnegative reals")
        if hi <= lo:
            raise ObjectiveError("intervals must satisfy lo < hi")
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


class IntervalCoverage(Objective):
    """Coverage of [0, inf) under a geometric step density.

    Unit cell ``[i-1, i)`` carries density ``(1 - eps)^(-i)`` and the value of
    a set is twice the density-weighted measure of the union of its members'
    intervals.  All endpoint arithmetic is exact rational, so equal-by-design
    values compare equal.
    """

    def __init__(self, epsilon, covers: Mapping[str, Iterable[Interval]]):
        self.epsilon = Fraction(epsilon)
        if not 0 < self.epsilon < 1:
            raise ObjectiveError("epsilon must lie in (0, 1)")
        self._cell_w: List[Fraction] = [Fraction(0)]  # cell i covers [i-1, i)
        self.covers = {el: normalize_intervals(ivs) for el, ivs in covers.items()}

    def cell_weight(self, i: int) -> Fraction:
        # density on [i-1, i)
        while len(self._cell_w) <= i:
            base = 1 / (1 - self.epsilon)
            self._cell_w.append(base ** len(self._cell_w))
        return self._cell_w[i]

    def register(self, el: str, intervals: Iterable[Interval]) -> None:
        """Add an element id; used by adaptive stream generators that own
        this instance exclusively.  Existing ids cannot be redefined."""
        if el in self.covers:
            raise ObjectiveError(f"element {el!r} already registered")
        self.covers[el] = normalize_intervals(intervals)

    def elements(self) -> FrozenSet[str]:
        return frozenset(self.covers)

    def weighted_measure(self, intervals: Sequence[Interval]) -> Fraction:
        """Integral of the step density over disjoint sorted intervals."""
        total = Fraction(0)
        for lo, hi in intervals:
            i = int(math.floor(lo)) + 1  # cell index containing lo
            pos = lo
            while pos < hi:
                cell_hi = Fraction(i)  # cell i ends at integer i
                seg_hi = min(hi, cell_hi)
                total += (seg_hi - pos) * self.cell_weight(i)
                pos = seg_hi
                i += 1
        return total

    def value(self, s: Iterable[str]):
        s = _as_set(s)
        self.check_known(s)
        merged: List[Interval] = []
        for el in s:
            merged.extend(self.covers[el])
        return 2 * self.weighted_measure(normalize_intervals(merged))

    def interacts(self, u: str, v: str) -> bool:
        a, b = self.covers[u], self.covers[v]
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                return True
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return False

    def accumulator(self) -> "MarginalAccumulator":
        return _IntervalAccumulator(self)


class _IntervalAccumulator(MarginalAccumulator):
    """Grow-only interval union with exact uncovered-measure queries."""

    def __init__(self, objective: IntervalCoverage):
        self._f = objective
        self._starts: List[Fraction] = []
        self._cover: List[Interval] = []

    def _uncovered(self, lo: Fraction, hi: Fraction) -> List[Interval]:
        out = []
        idx = bisect_left(self._starts, lo)
        if idx > 0 and self._cover[idx - 1][1] > lo:
            idx -= 1
        pos = lo
        while pos < hi and idx < len(self._cover):
            clo, chi = self._cover[idx]
            if clo >= hi:
                break
            if clo > pos:
                out.append((pos, clo))
            pos = max(pos, chi)
            idx += 1
        if pos < hi:
            out.append((pos, hi))
        return out

    def marginal(self, u: str):
        gaps: List[Interval] = []
        for lo, hi in self._f.covers[u]:
            gaps.extend(self._uncovered(lo, hi))
        return 2 * self._f.weighted_measure(gaps)

    def add(self, u: str) -> None:
        merged = list(self._cover)
        merged.extend(self._f.covers[u])
        self._cover = list(normalize_intervals(merged))
        self._starts = [lo for lo, _ in self._cover]


def subset_key(s: Iterable[str]) -> str:
    """Canonical table key: comma-joined sorted ids, empty string for the empty set."""
    return ",".join(sorted(s))


class ExplicitTable(Objective):
    """Complete value table on a tiny ground set, validated at load.

    Submodularity is checked exhaustively through the pairwise local
    condition f(T+u) + f(T+v) >= f(T+u+v) + f(T); monotonicity is recorded
    as a flag rather than required.
    """

    def __init__(self, ground: Sequence[str], value: Mapping[str, object]):
        self.ground = tuple(sorted(set(ground)))
        n = len(self.ground)
        if n > EXACT_SUPPORT_LIMIT:
            raise ObjectiveError(f"explicit table ground exceeds {EXACT_SUPPORT_LIMIT}")
        self._table: Dict[FrozenSet[str], object] = {}
        for key, v in value.items():
            els = frozenset(key.split(",")) if key else frozenset()
            if not els <= frozenset(self.ground):
                raise ObjectiveError(f"table key {key!r} mentions unknown elements")
            if v < 0:
                raise ObjectiveError(f"table value for {key!r} is negative")
            self._table[els] = v
        if len(self._table) != 2**n:
            raise ObjectiveError("table must define every subset of the ground set")
        self._validate_submodular()
        self.monotone = self._check_monotone()

    def _validate_submodular(self) -> None:
        ground = self.ground
        for t in self._table:
            rest = [u for u in ground if u not in t]
            for i, u in enumerate(rest):
                tu = self._table[t | {u}]
                for v in rest[i + 1 :]:
                    lhs = tu + self._table[t | {v}]
                    rhs = self._table[t | {u, v}] + self._table[t]
                    if lhs < rhs - 1e-12:
                        raise ObjectiveError(
                            f"table is not submodular at {subset_key(t)!r} with {u!r},{v!r}"
                        )

    def _check_monotone(self) -> bool:
        for t in self._table:
            for u in self.ground:
                if u not in t and self._table[t | {u}] < self._table[t] - 1e-12:
                    return False
        return True

    def elements(self) -> FrozenSet[str]:
        return frozenset(self.ground)

    def value(self, s: Iterable[str]):
        s = _as_set(s)
        self.check_known(s)
        return self._table[s]


class ThinnedObjective(Objective):
    """Expected value of a set under independent p-thinning of its members.

    Submodularity survives thinning; monotonicity survives only if the base
    oracle is monotone.
    """

    def __init__(self, base: Objective, p):
        if not 0 <= p <= 1:
            raise ObjectiveError("thinning probability must lie in [0, 1]")
        self.base = base
        self.p = p
        self.monotone = base.monotone

    def elements(self) -> FrozenSet[str]:
        return self.base.elements()

    def value(self, s: Iterable[str]):
        return sampled_value_p(self.base, s, self.p)

    def interacts(self, u: str, v: str) -> bool:
        # The thinned marginal of u mixes base marginals f(u|T) over subsets
        # T of the context; if v never changes f(u|T), the mixture is
        # unchanged when v leaves the context.
        return self.base.interacts(u, v)


def _validated_masses(s: FractionalVector) -> Dict[str, float]:
    masses = {}
    for el, m in s.items():
        if m < 0:
            raise ObjectiveError(f"negative mass for element {el!r}")
        if m > 0:
            masses[el] = m
    return masses


def _subset_expectation(f: Objective, pool: List[str], prob, fixed: FrozenSet[str] = frozenset()):
    """Sum over subsets T of pool of Pr[T] * f(T | fixed present)."""
    n = len(pool)
    if n > EXACT_SUPPORT_LIMIT:
        raise ObjectiveError(f"support {n} exceeds the enumeration limit {EXACT_SUPPORT_LIMIT}")
    total = 0.0
    for mask in range(1 << n):
        pr = 1.0
        members = set(fixed)
        for i in range(n):
            if mask >> i & 1:
                pr *= prob[i]
                members.add(pool[i])
            else:
                pr *= 1.0 - prob[i]
        if pr:
            total += pr * f.value(frozenset(members))
    return total


def soft_value(f: Objective, s: FractionalVector):
    """Expected value when element u appears with probability 1 - exp(-mass_u)."""
    masses = _validated_masses(s)
    pool = sorted(masses)
    prob = [1.0 - math.exp(-float(masses[el])) for el in pool]
    return _subset_expectation(f, pool, prob)


def soft_marginal_rate(f: Objective, u: str, s: FractionalVector):
    """Derivative of soft_value in u's coordinate.

    Equals exp(-mass_u) times the expected marginal of u against a
    realization of the remaining coordinates.
    """
    masses = _validated_masses(s)
    own = float(masses.pop(u, 0.0))
    pool = sorted(masses)
    prob = [1.0 - math.exp(-float(masses[el])) for el in pool]
    with_u = _subset_expectation(f, pool, prob, fixed=frozenset({u}))
    without = _subset_expectation(f, pool, prob)
    return math.exp(-own) * (with_u - without)


def sampled_value_p(f: Objective, s: Iterable[str], p):
    """Expected value of a uniform independent p-thinning of s."""
    if not 0 <= p <= 1:
        raise ObjectiveError("p must lie in [0, 1]")
    pool = sorted(_as_set(s))
    return _subset_expectation(f, pool, [float(p)] * len(pool))
