"""Bookkeeping for one online run: feasible set, history, and weights.

Three weights drive every algorithm here:

* arrival weight  w(u)   - marginal of u against everything accepted before
                           it arrived (the history prefix A(u));
* current weight  w_S(u) - marginal of u against A(u) intersected with the
                           present feasible set, nondecreasing over time;
* frozen weight   what(u) - the last current weight of u, captured at the
                           moment it was evicted.

Two objective hooks keep these incremental.  The ``accumulator()`` gives
arrival weights against the grow-only history.  The ``current_weights()``
keeper gives the newest member's current weight on acceptance, and on an
eviction the new current weight of each member it raised.  On weighted
coverage the keeper is an ownership ledger: each covered item belongs to the
earliest-accepted member of S covering it, w_S(u) is the mass u owns, and an
eviction hands each item the evicted member owned to the next holder in
line.  Every weight the keeper reports is checked against the no-decrease
law, and the cached sum makes f(S) = f(empty) + sum of current weights
available in O(1).  The arrival-weight total of S is cached too: an accept
extends it, and an eviction subtracts the evicted member's arrival weight
from an exact total; a float total is dropped until the next query re-sums
it, so that it stays the left fold in acceptance order, bit for bit.

Weights and totals are kept in the objective's ``unit`` (see the objective
module): on the uniform hardness stream they are ints over one common
denominator.  ``f_S()`` divides the unit out and returns the exact original
value; ``scaled_f_S()`` is the sum the state keeps, in units.  The state
owns the boundary where a weight in units meets a float in original units:
``as_float``, ``exceeds``, ``approx_gt``, ``cut`` and ``unscaled`` apply the
objective module's helpers with its unit, so the rules never read the unit.
The no-decrease law compares each weight with its float floor the same way.

Each state is read under one weight view, fixed when it is built: current
weights (the default) for the deterministic rules and the bipartite agents,
arrival weights for the randomized rules.  ``min_member``,
``member_weights`` and ``weight_total`` rank and sum the members under it.

Four more caches keep the rules' per-arrival work independent of |S|:

* ``occupancy`` is the matroid's record of S (see the matroid module),
  which ``accept`` updates only after its independence check passes.  The
  check and the exchange rule read its ``can_add`` and ``exchange_set``
  instead of asking the matroid about the whole of S: on a partition matroid
  both look at the arriving element's part only, and on a uniform one the
  exchange set of a full S is ``feasible`` itself.
* ``feasible`` is the occupancy's held set, an immutable snapshot that
  ``accept`` replaces and never mutates, so a caller may hold it
  (``frozenset(state.feasible)`` is the same object) and it never changes
  under the caller.
* ``min_member`` over the whole set reads a lazy min-heap of
  (weight, acceptance index, member) under the state's view, built on the
  first such query.  An accept pushes the new member and, under current
  weights, each weight the keeper reports; a query pops tops whose member
  has left S or whose weight is no longer current, and a heap of more than
  2|S| entries is rebuilt from the members.  The key is the scan's, so ties
  still go to the earliest acceptance.  A query over candidates that are all
  of S (the exchange candidates on a full uniform matroid) reads the heap
  too; one over a proper subset keeps the scan.
* ``threshold_cache`` holds one rule-computed entry with its key: the
  capacity rule keeps its threshold there with the threshold's ``cut``, the
  int that an int weight in units must exceed (see ``floor_in_units`` in the
  objective module), and computes the entry only after checking that the
  rule fits the state.  Only an accept changes the weights and totals the
  rules read, and only an accept grows the history, so a key that holds
  ``len(history)`` stays valid until the next accept: between accepts a
  rejected arrival with an int weight costs its marginal and one integer
  comparison.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional

from .matroid import Matroid
from .objective import (Objective, as_float, floor_in_units, greater, greater_times,
                        slack_floor, unscaled)

WS_MONOTONE_TOL = 1e-9

# The weight views a state ranks and sums its members by (see above).
CURRENT = "current"
ARRIVAL = "arrival"


class TrackerError(ValueError):
    """Illegal transition: duplicate acceptance, bad evict, infeasible set."""


class InvariantViolation(AssertionError):
    """A lemma-level runtime invariant failed; indicates a bug upstream."""


class OnlineState:
    def __init__(self, objective: Objective, matroid: Matroid, view: str = CURRENT):
        if view not in (CURRENT, ARRIVAL):
            raise ValueError(f"unknown weight view {view!r}")
        self.view = view
        self.objective = objective
        self.matroid = matroid
        self.unit = objective.unit
        self.history: List[str] = []
        self.acc_index: Dict[str, int] = {}
        self.arrival_w: Dict[str, object] = {}
        self.feasible: FrozenSet[str] = frozenset()
        self.frozen_w: Dict[str, object] = {}
        self.f_empty = objective.value(frozenset())
        self._ws: Dict[str, object] = {}
        self._w_A_sum = 0
        self._w_S_sum = 0
        self._w_arrival_S_sum = 0  # a float total is None after an eviction, until re-summed
        self._acc = objective.accumulator()
        self._keeper = objective.current_weights()
        self.occupancy = matroid.occupancy()  # accept is its one writer
        self._heap: Optional[list] = None  # lazy min-heap (see module docstring)
        self.threshold_cache = None  # (key holding len(history), value)

    # -- weight queries -------------------------------------------------

    def w_arrival(self, u: str):
        """Marginal of a new-arriving u against the full history."""
        if u in self.acc_index:
            raise TrackerError(f"element {u!r} was already accepted")
        return self._acc.marginal(u)

    def _prefix_in_S(self, u: str) -> FrozenSet[str]:
        i = self.acc_index[u]
        return frozenset(v for v in self.feasible if self.acc_index[v] < i)

    def w_S(self, u: str):
        if u in self._ws:
            return self._ws[u]
        if u not in self.acc_index:
            raise TrackerError(f"element {u!r} is unknown to the history")
        return self.objective.marginal(u, self._prefix_in_S(u))

    def w_A_total(self):
        return self._w_A_sum

    def w_arrival_over_S(self):
        """Sum of arrival weights of the current members."""
        if self._w_arrival_S_sum is None:
            # acceptance order, so float accumulation ignores set iteration order
            self._w_arrival_S_sum = sum(
                self.arrival_w[v]
                for v in sorted(self.feasible, key=self.acc_index.__getitem__)
            )
        return self._w_arrival_S_sum

    def member_weights(self) -> Dict[str, object]:
        """Weight of each member under the view (may hold evicted elements too)."""
        return self.arrival_w if self.view == ARRIVAL else self._ws

    def weight_total(self):
        """Sum of the members' weights under the view: w(S) or w_S(S)."""
        return self.w_arrival_over_S() if self.view == ARRIVAL else self._w_S_sum

    def f_S(self):
        """f(S) in original units."""
        return self.unscaled(self.f_empty + self._w_S_sum)

    def scaled_f_S(self):
        """f(S) in the objective's units, as the state keeps it."""
        return self.f_empty + self._w_S_sum

    def hat_w(self, u: str):
        """Frozen weight for evicted elements, current weight for members."""
        if u in self.feasible:
            return self._ws[u]
        if u in self.frozen_w:
            return self.frozen_w[u]
        raise TrackerError(f"element {u!r} was never accepted")

    def min_member(self, candidates=None):
        """Member of minimal weight under the view; earliest acceptance on ties."""
        weights = self.member_weights()
        if candidates is not None and not (candidates is self.feasible
                                           or candidates == self.feasible):
            return min(candidates, key=lambda v: (weights[v], self.acc_index[v]),
                       default=None)
        heap = self._heap
        if heap is None:
            heap = self._heap = self._live_heap()
        while heap:
            w, _, v = heap[0]
            if v in self.feasible and weights[v] == w:
                return v
            heapq.heappop(heap)
        return None

    def _live_heap(self) -> list:
        weights = self.member_weights()
        heap = [(weights[v], self.acc_index[v], v) for v in self.feasible]
        heapq.heapify(heap)
        return heap

    def _push(self, v: str, w) -> None:
        if self._heap is not None:
            heapq.heappush(self._heap, (w, self.acc_index[v], v))

    # -- where a value in units meets a float in original units -------

    def unscaled(self, x):
        """A value in units as its exact original value."""
        return unscaled(x, self.unit)

    def as_float(self, x) -> float:
        """The float nearest a value's original value."""
        return as_float(x, self.unit)

    def exceeds(self, a, b, times=None) -> bool:
        """a > b, or times * a > b, decided exactly, each a value in units or
        a float."""
        if times is None:
            return greater(a, b, self.unit)
        return greater_times(times, a, b, self.unit)

    def approx_gt(self, a, b, slack: float, times=None) -> bool:
        """a > b - slack * (1 + |b|), the slack taken in original units (with
        times * a for a, as ``exceeds`` takes it)."""
        floor = slack_floor(b, slack, self.unit)
        if times is None:
            return greater(a, floor, self.unit)
        return greater_times(times, a, floor, self.unit)

    def cut(self, b):
        """The int every int weight in units must exceed to exceed the float
        b, or None for a non-finite b."""
        return floor_in_units(b, self.unit)

    # -- the single mutation --------------------------------------------

    def accept(self, u: str, evict: Optional[str] = None) -> None:
        if u in self.acc_index:
            raise TrackerError(f"element {u!r} was already accepted")
        if evict is not None and evict not in self.feasible:
            raise TrackerError(f"evict target {evict!r} is not in the feasible set")
        if not self.occupancy.can_add(u, evict):
            raise TrackerError(f"accepting {u!r} (evicting {evict!r}) violates independence")

        if evict is not None:
            w_out = self._ws.pop(evict)
            self.frozen_w[evict] = w_out
            self.occupancy.remove(evict)
            self.feasible = self.occupancy.held
            self._w_S_sum -= w_out
            total = self._w_arrival_S_sum
            self._w_arrival_S_sum = (None if total is None or isinstance(total, float)
                                     else total - self.arrival_w[evict])
            unit = self.unit
            for v, new in self._keeper.remove(evict).items():
                old = self._ws[v]
                if greater(slack_floor(old, WS_MONOTONE_TOL, unit), new, unit):
                    raise InvariantViolation(
                        f"current weight of {v!r} decreased: "
                        f"{self.unscaled(old)} -> {self.unscaled(new)}"
                    )
                self._ws[v] = new
                self._w_S_sum += new - old
                if self.view == CURRENT:
                    self._push(v, new)

        w_u = self._acc.marginal(u)
        self.acc_index[u] = len(self.history)
        self.history.append(u)
        self.arrival_w[u] = w_u
        self._w_A_sum += w_u
        if self._w_arrival_S_sum is not None:
            # u is the newest member: the same left fold as a recomputation
            self._w_arrival_S_sum += w_u
        self._acc.add(u)
        self.occupancy.add(u)
        self.feasible = self.occupancy.held
        ws_u = self._ws[u] = self._keeper.add(u)
        self._w_S_sum += ws_u
        self._push(u, w_u if self.view == ARRIVAL else ws_u)
        if self._heap is not None and len(self._heap) > 2 * len(self.feasible):
            self._heap = self._live_heap()
