"""Submodular value oracles and their fractional extensions.

Every oracle shares one interface: ``value`` on a set, ``marginal`` of an
element against a set, plus two hooks the online bookkeeping relies on for
speed:

* ``accumulator()`` - incremental marginals against a grow-only set.
* ``current_weights()`` - a keeper of each member's marginal against the
  members added before it: ``add(u)`` returns the newest member's weight,
  ``remove(v)`` the new weight of each member that changed.  The generic
  keeper recomputes ``marginal`` for every member added after ``v``.

The fractional extensions the randomized rules price their steps with are
methods too: ``soft_value`` and ``soft_rate`` (the exponential extension
over nonnegative mass vectors, element ``u`` realized with probability
``1 - exp(-mass_u)``, and its coordinate derivative), ``thinned(p)`` (the
oracle of the expected value under independent p-thinning) and
``block_sampled_value`` (the expected value when each block of ``rho``
slots yields one uniformly drawn slot's occupant).  Their defaults are the
module-level definitional enumerations, which sum over every realization of
a support of at most ``EXACT_SUPPORT_LIMIT`` elements and refuse larger
ones.

Three families share one normal form, ``WeightedCoverage``: elements cover
weighted items, and a set's value is the total weight of the items its
members cover.  ``value``, the accumulator and the keeper are written once
on that form, and its ``register`` is the one way to grow an instance,
element by element, as adaptive streams do.  The keeper is an ownership
ledger: each item lists the members covering it in the order they were
added, the first of them owns it, and a member's weight is the mass it
owns; removing a member hands each item it owned to the next holder in
line, so neither call evaluates ``value``.
The other two families only build items, once, at load.  ``Linear`` gives
each element one private item of its weight.  ``IntervalCoverage`` uses the
segments between consecutive interval endpoints, each weighing twice its
exact density measure, in exact rational arithmetic so that equal-by-design
values compare equal.  Weights and table values must be finite and
nonnegative.  Explicit tables keep the generic hooks and extensions.

On the coverage form every extension has a closed form in O(sum of |cov|)
float operations, with M_i the mass on item i's covering elements and c_i
the number of members covering it (the coverage relaxations of Karimi et
al., NeurIPS 2017):

* soft value  sum_i w_i (1 - exp(-M_i)), soft rate of u
  sum_{i in cov(u)} w_i exp(-M_i);
* thinned value  sum_i w_i (1 - (1-p)^c_i), thinned marginal of u
  p sum_{i in cov(u)} w_i (1-p)^c_i.  ``ThinnedCoverage``'s accumulator
  keeps c_i over the history, and its keeper reads c_i off the ledger's
  holder lines: a member's weight is p sum_i w_i (1-p)^(its place in line i),
  and a removal changes exactly the later holders of the removed member's
  items;
* block-sampled value  sum_i w_i (1 - prod_b (1 - n_{b,i} / rho)), with
  n_{b,i} the occupants of block b that cover item i.

They agree with the enumerations up to float rounding (within 1e-12 of the
total weight in the tests), and they have no support limit.

Every oracle has a ``unit``, 1 unless a ``WeightedCoverage`` is built with
another: its values are the true values times ``unit``, so exact weights
sharing one denominator can be ints, whose sums and comparisons are cheap
and stay exact.  Only the uniform hardness stream sets it.  Floats are
always in original units, and ``unscaled``, ``as_float``, ``greater`` and
``slack_floor`` are where a value in units meets them: ``as_float`` is the
correctly rounded int/int division x / unit, the same float the exact
original value gives, and ``greater`` compares a value in units with a
float exactly, through the float's integer ratio.  With ``unit`` 1 each of
them is the plain expression on the plain value.  The online state applies
them with its objective's unit (see the tracker module), so the step rules
never read it.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

EXACT_SUPPORT_LIMIT = 15

# An interval endpoint x reaches unit cell ceil(x); endpoints beyond this cell,
# or whose values would not fit a float, are rejected.
MAX_INTERVAL_CELL = 1000
FLOAT_MAX = sys.float_info.max

# A mass vector over elements; absent keys mean zero mass.
FractionalVector = Mapping[str, float]

Interval = Tuple[Fraction, Fraction]


class ObjectiveError(ValueError):
    """Unknown element, invalid table, or an out-of-range parameter."""


def _as_set(s: Iterable[str]) -> FrozenSet[str]:
    return s if isinstance(s, frozenset) else frozenset(s)


# -- values in units (see the module docstring): exact values are in units,
# floats in original units


def unscaled(x, unit: int = 1):
    """A value in units as its exact original value."""
    return x if unit == 1 or isinstance(x, float) else Fraction(x, unit)


def as_float(x, unit: int = 1) -> float:
    """The float nearest the original value: int / int division rounds
    correctly, as float() of a Fraction does, and cannot overflow on the way."""
    return float(x) if unit == 1 or isinstance(x, float) else float(x / unit)


def greater(a, b, unit: int = 1) -> bool:
    """a > b, decided exactly, as Python compares an exact number with a float."""
    if unit != 1 and isinstance(a, float) != isinstance(b, float):
        if isinstance(b, float) and math.isfinite(b):
            n, d = b.as_integer_ratio()
            return a * d > n * unit
        if isinstance(a, float) and math.isfinite(a):
            n, d = a.as_integer_ratio()
            return n * unit > b * d
    return a > b


def slack_floor(b, slack: float, unit: int = 1) -> float:
    """b - slack * (1 + |b|) in original units, rounded as for an unscaled b."""
    if unit == 1 or isinstance(b, float):
        return b - slack * (1 + abs(b))
    return b / unit - slack * ((unit + abs(b)) / unit)


class Objective:
    """Base value oracle; immutable and shareable across runs."""

    monotone: bool = True
    unit: int = 1  # values are the true values times unit

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

    def accumulator(self) -> "MarginalAccumulator":
        return MarginalAccumulator(self)

    def current_weights(self) -> "CurrentWeights":
        return CurrentWeights(self)

    # -- fractional extensions; the defaults enumerate realizations --------

    def soft_value(self, masses: FractionalVector) -> float:
        """Expected value when element u appears with probability 1 - exp(-mass_u)."""
        return soft_value(self, masses)

    def soft_rate(self, u: str, masses: FractionalVector) -> float:
        """Derivative of ``soft_value`` in u's coordinate."""
        return soft_marginal_rate(self, u, masses)

    def thinned(self, p) -> "Objective":
        """The oracle of the expected value of an independent p-thinning."""
        return ThinnedObjective(self, p)

    def block_sampled_value(self, blocks: Sequence[Sequence[str]], rho: int) -> float:
        """Expected value when each block of ``rho`` slots yields one uniformly
        drawn slot: each of its occupants with probability 1/rho, none with
        the rest."""
        return block_sampled_value(self, blocks, rho)


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


class CurrentWeights:
    """Current weights w_S(u) = f(u | members added before u); generic fallback.

    Members are kept in the order they were added.  Removing ``v``
    recomputes the marginal of each later member against the members
    before it.
    """

    def __init__(self, objective: Objective):
        self._f = objective
        self._w: Dict[str, object] = {}  # member -> current weight, in order added

    def add(self, u: str):
        """Add the newest member ``u`` and return its current weight."""
        w = self._w[u] = self._f.marginal(u, frozenset(self._w))
        return w

    def remove(self, v: str) -> Dict[str, object]:
        """Remove member ``v``; return the new weight of each member whose weight changed."""
        f, w = self._f, self._w
        members = list(w)
        i = members.index(v)
        del members[i], w[v]
        changed = {}
        for j in range(i, len(members)):
            u = members[j]
            new = f.marginal(u, frozenset(members[:j]))
            if new != w[u]:
                changed[u] = w[u] = new
        return changed


def _check_weights(what: str, weights: Mapping) -> None:
    for key, w in weights.items():
        if not 0 <= w < math.inf:  # negative, infinite or NaN
            problem = "negative weight" if w < 0 else "a non-finite weight"
            raise ObjectiveError(f"{what} {key!r} has {problem}")


class WeightedCoverage(Objective):
    """f(S) = total weight of the universe items covered by S.

    The normal form of every coverage family: ``universe_weight`` maps an
    item to its weight and ``covers`` maps an element to its items.  Weights
    are in ``unit``s (see the module docstring).
    """

    zero = 0  # value of the empty set

    def __init__(self, universe_weight: Mapping, covers: Mapping[str, Iterable],
                 unit: int = 1):
        self.unit = unit
        _check_weights("item", universe_weight)
        self.universe_weight = dict(universe_weight)
        self.covers = {el: frozenset(items) for el, items in covers.items()}
        for el, items in self.covers.items():
            missing = items.difference(self.universe_weight)
            if missing:
                raise ObjectiveError(f"element {el!r} covers unknown items {sorted(missing)}")

    def register(self, el: str, items: Iterable, new_weights: Mapping = {}) -> None:
        """Add element ``el`` covering ``items``, the new ones weighing
        ``new_weights``; validates as the constructor does, and changes
        nothing when it raises."""
        if el in self.covers:
            raise ObjectiveError(f"element {el!r} already registered")
        for item in new_weights:
            if item in self.universe_weight:
                raise ObjectiveError(f"item {item!r} already exists")
        _check_weights("item", new_weights)
        items = frozenset(items)
        missing = items.difference(self.universe_weight).difference(new_weights)
        if missing:
            raise ObjectiveError(f"element {el!r} covers unknown items {sorted(missing)}")
        self.universe_weight.update(new_weights)
        self.covers[el] = items

    def elements(self) -> FrozenSet[str]:
        return frozenset(self.covers)

    def check_known(self, s: Iterable[str]) -> None:
        # one membership test per member of s, without building elements()
        if not self.covers.keys() >= _as_set(s):
            super().check_known(s)

    def value(self, s: Iterable[str]):
        s = _as_set(s)
        self.check_known(s)
        covered: set = set()
        for el in s:
            covered |= self.covers[el]
        # sorted so float accumulation is independent of set iteration order
        return sum((self.universe_weight[i] for i in sorted(covered)), self.zero)

    def accumulator(self) -> "MarginalAccumulator":
        return _CoverageAccumulator(self)

    def current_weights(self) -> "CurrentWeights":
        return _CoverageLedger(self)

    # -- closed-form extensions (see the module docstring) ------------------

    def _item_masses(self, masses: FractionalVector, items=None) -> Dict[object, float]:
        """M_i, the mass on the elements covering item i, for every item
        covered by the support (or only for ``items``)."""
        positive = _validated_masses(masses)
        self.check_known(positive)
        total: Dict[object, float] = {} if items is None else dict.fromkeys(items, 0.0)
        for el in sorted(positive):
            m = float(positive[el])
            for i in self.covers[el]:
                if items is None or i in total:
                    total[i] = total.get(i, 0.0) + m
        return total

    def soft_value(self, masses: FractionalVector) -> float:
        w = self.universe_weight
        return sum((float(w[i]) * -math.expm1(-m)
                    for i, m in sorted(self._item_masses(masses).items())), 0.0)

    def soft_rate(self, u: str, masses: FractionalVector) -> float:
        self.check_known((u,))
        w = self.universe_weight
        return sum((float(w[i]) * math.exp(-m)
                    for i, m in sorted(self._item_masses(masses, self.covers[u]).items())), 0.0)

    def thinned(self, p) -> "Objective":
        return ThinnedCoverage(self, p)

    def block_sampled_value(self, blocks: Sequence[Sequence[str]], rho: int) -> float:
        miss: Dict[object, float] = {}  # item -> Pr[no drawn occupant covers it]
        for block in blocks:
            _check_block(block, rho)
            self.check_known(block)
            n: Dict[object, int] = {}
            for u in block:
                for i in self.covers[u]:
                    n[i] = n.get(i, 0) + 1
            for i in sorted(n):
                miss[i] = miss.get(i, 1.0) * (1.0 - n[i] / rho)
        w = self.universe_weight
        return sum((float(w[i]) * (1.0 - q) for i, q in sorted(miss.items())), 0.0)


class _CoverageAccumulator(MarginalAccumulator):
    def __init__(self, objective: WeightedCoverage):
        self._f = objective
        self._covered: set = set()

    def marginal(self, u: str):
        f = self._f
        return sum(
            (f.universe_weight[i] for i in sorted(f.covers[u]) if i not in self._covered), f.zero
        )

    def add(self, u: str) -> None:
        self._covered |= self._f.covers[u]


class _CoverageLedger(CurrentWeights):
    """Ownership ledger: each covered item is owned by the earliest-added
    member covering it, and a member's current weight is the mass it owns."""

    def __init__(self, objective: WeightedCoverage):
        super().__init__(objective)
        self._holders: Dict[object, List[str]] = {}  # item -> its covering members, in order added

    def _owned(self, u: str):
        # summed as _CoverageAccumulator sums, in sorted item order from zero
        f, holders = self._f, self._holders
        return sum((f.universe_weight[i] for i in sorted(f.covers[u]) if holders[i][0] == u), f.zero)

    def add(self, u: str):
        holders = self._holders
        for i in self._f.covers[u]:
            holders.setdefault(i, []).append(u)
        w = self._w[u] = self._owned(u)
        return w

    def remove(self, v: str) -> Dict[str, object]:
        w = self._w
        del w[v]
        heirs = self._release(v)
        changed = {}
        if heirs:
            for u in [u for u in w if u in heirs]:  # in order added
                new = self._owned(u)
                if new != w[u]:
                    changed[u] = w[u] = new
        return changed

    def _release(self, v: str) -> set:
        """Take ``v`` out of its items' lines; return the members whose share changed."""
        holders = self._holders
        heirs = set()
        for i in self._f.covers[v]:
            line = holders[i]
            if len(line) == 1:
                del holders[i]
                continue
            if line[0] == v:
                heirs.add(line[1])  # v owned item i: it passes to the next holder in line
            line.remove(v)
        return heirs


class Linear(WeightedCoverage):
    """Additive weights: each element covers one private item, its own id."""

    def __init__(self, weight: Mapping[str, object]):
        _check_weights("element", weight)
        self.universe_weight = dict(weight)
        self.covers = {el: frozenset((el,)) for el in weight}


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


class IntervalCoverage(WeightedCoverage):
    """Coverage of [0, inf) under a geometric step density, fixed at load.

    Unit cell ``[i-1, i)`` carries density ``(1 - eps)^(-i)`` and the value of
    a set is twice the density-weighted measure of the union of its members'
    intervals.  The items are the segments between consecutive
    ``breakpoints`` (every interval endpoint): item ``i`` is
    ``[breakpoints[i], breakpoints[i+1])`` and weighs twice its measure, and
    an element covers the set of its segments.  All endpoint arithmetic is
    exact rational, so equal-by-design values compare equal.
    """

    zero = Fraction(0)

    def __init__(self, epsilon, covers: Mapping[str, Iterable[Interval]]):
        self.epsilon = Fraction(epsilon)
        if not 0 < self.epsilon < 1:
            raise ObjectiveError("epsilon must lie in (0, 1)")
        self._cell_w: List[Fraction] = [Fraction(0)]  # cell i covers [i-1, i)
        merged = {el: normalize_intervals(ivs) for el, ivs in covers.items()}
        bp = self.breakpoints = sorted({x for ivs in merged.values() for iv in ivs for x in iv})
        top = math.ceil(bp[-1]) if bp else 0  # the last cell that any interval reaches
        if top > MAX_INTERVAL_CELL:
            raise ObjectiveError(
                f"interval endpoint {bp[-1]} lies beyond cell {MAX_INTERVAL_CELL}")
        # every value is at most twice the measure of [0, top), below 2 (1-eps)^-top / eps
        if 2 * self.cell_weight(top) / self.epsilon > FLOAT_MAX:
            raise ObjectiveError(f"interval endpoint {bp[-1]} gives values beyond float range")
        position = {x: i for i, x in enumerate(bp)}
        super().__init__(
            {i: 2 * self.weighted_measure([(bp[i], bp[i + 1])]) for i in range(len(bp) - 1)},
            {el: [i for lo, hi in ivs for i in range(position[lo], position[hi])]
             for el, ivs in merged.items()},
        )

    def cell_weight(self, i: int) -> Fraction:
        # density on [i-1, i)
        while len(self._cell_w) <= i:
            base = 1 / (1 - self.epsilon)
            self._cell_w.append(base ** len(self._cell_w))
        return self._cell_w[i]

    def intervals(self, el: str) -> Tuple[Interval, ...]:
        """The element's intervals in normal form: its runs of consecutive segments."""
        runs: List[List[int]] = []
        for i in sorted(self.covers[el]):
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        return tuple((self.breakpoints[a], self.breakpoints[b]) for a, b in runs)

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
            if not v < math.inf:  # infinity or NaN
                raise ObjectiveError(f"table value for {key!r} is not finite")
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


class ThinnedCoverage(ThinnedObjective):
    """p-thinned weighted coverage in closed form.

    An item stays covered unless each of its c_i covering members is thinned
    away, so g(S) = sum_i w_i (1 - (1-p)^c_i), and an element covering an
    item after c others gains w_i p (1-p)^c from it.
    """

    def __init__(self, base: WeightedCoverage, p):
        super().__init__(base, p)
        self._p = float(p)
        self._q = 1.0 - self._p

    # the ledger reads the base's items; register grows them in place
    @property
    def covers(self):
        return self.base.covers

    @property
    def universe_weight(self):
        return self.base.universe_weight

    def gain(self, i, c: int) -> float:
        """What item i adds to an element that covers it after c others."""
        return float(self.base.universe_weight[i]) * self._p * self._q ** c

    def value(self, s: Iterable[str]) -> float:
        s = _as_set(s)
        base = self.base
        base.check_known(s)
        counts: Dict[object, int] = {}
        for el in s:
            for i in base.covers[el]:
                counts[i] = counts.get(i, 0) + 1
        w, q = base.universe_weight, self._q
        return sum((float(w[i]) * (1.0 - q ** c) for i, c in sorted(counts.items())), 0.0)

    def accumulator(self) -> "MarginalAccumulator":
        return _ThinnedCoverageAccumulator(self)

    def current_weights(self) -> "CurrentWeights":
        return _ThinnedLedger(self)


class _ThinnedCoverageAccumulator(MarginalAccumulator):
    """Keeps c_i, the number of history members covering item i."""

    def __init__(self, objective: ThinnedCoverage):
        self._g = objective
        self._count: Dict[object, int] = {}

    def marginal(self, u: str) -> float:
        g, count = self._g, self._count
        return sum((g.gain(i, count.get(i, 0)) for i in sorted(g.covers[u])), 0.0)

    def add(self, u: str) -> None:
        count = self._count
        for i in self._g.covers[u]:
            count[i] = count.get(i, 0) + 1


class _ThinnedLedger(_CoverageLedger):
    """The ledger's holder lines, read as counts: a member's weight is what
    each of its items adds after the holders ahead of it in line."""

    def _owned(self, u: str) -> float:
        g, holders = self._f, self._holders
        return sum((g.gain(i, holders[i].index(u)) for i in sorted(g.covers[u])), 0.0)

    def _release(self, v: str) -> set:
        holders = self._holders
        heirs = set()
        for i in self._f.covers[v]:
            line = holders[i]
            k = line.index(v)
            heirs.update(line[k + 1:])  # every later holder moves one place up
            del line[k]
            if not line:
                del holders[i]
        return heirs


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


def _check_block(block: Sequence[str], rho: int) -> None:
    if len(block) > rho:
        raise ObjectiveError(f"a block of {rho} slots cannot hold {len(block)} occupants")


def block_sampled_value(f: Objective, blocks: Sequence[Sequence[str]], rho: int) -> float:
    """Expected value when each block of ``rho`` slots yields one uniformly
    drawn slot.  Enumerates the outcomes of the occupied blocks (an occupant,
    or none with probability (rho - n_b) / rho): at most 2^n sets for n
    occupants."""
    outcomes = []
    for block in blocks:
        _check_block(block, rho)
        if block:
            outcomes.append([(1.0 / rho, u) for u in block] + [((rho - len(block)) / rho, None)])
    n = sum(len(o) - 1 for o in outcomes)
    if n > EXACT_SUPPORT_LIMIT:
        raise ObjectiveError(f"support {n} exceeds the enumeration limit {EXACT_SUPPORT_LIMIT}")
    total = 0.0
    for draw in itertools.product(*outcomes):
        pr = 1.0
        for q, _ in draw:
            pr *= q
        if pr:
            total += pr * f.value(frozenset(u for _, u in draw if u is not None))
    return total
