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
extends it, and an eviction drops it until the next query re-sums it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from .matroid import Matroid
from .objective import Objective

WS_MONOTONE_TOL = 1e-9

# Weight views the rules rank and sum members by: current weights for the
# deterministic rules, arrival weights for the randomized ones.
CURRENT = "current"
ARRIVAL = "arrival"


class TrackerError(ValueError):
    """Illegal transition: duplicate acceptance, bad evict, infeasible set."""


class InvariantViolation(AssertionError):
    """A lemma-level runtime invariant failed; indicates a bug upstream."""


class OnlineState:
    def __init__(self, objective: Objective, matroid: Matroid):
        self.objective = objective
        self.matroid = matroid
        self.history: List[str] = []
        self.acc_index: Dict[str, int] = {}
        self.arrival_w: Dict[str, object] = {}
        self.feasible: set = set()
        self.frozen_w: Dict[str, object] = {}
        self.f_empty = objective.value(frozenset())
        self._ws: Dict[str, object] = {}
        self._w_A_sum = 0
        self._w_S_sum = 0
        self._w_arrival_S_sum = 0  # None after an eviction, until recomputed
        self._acc = objective.accumulator()
        self._keeper = objective.current_weights()

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

    def w_S_total(self):
        return self._w_S_sum

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

    def member_weights(self, view: str = CURRENT) -> Dict[str, object]:
        """Weight of each member under a view (may hold evicted elements too)."""
        return self.arrival_w if view == ARRIVAL else self._ws

    def weight_total(self, view: str = CURRENT):
        """Sum of the members' weights under a view: w(S) or w_S(S)."""
        return self.w_arrival_over_S() if view == ARRIVAL else self._w_S_sum

    def f_S(self):
        return self.f_empty + self._w_S_sum

    def hat_w(self, u: str):
        """Frozen weight for evicted elements, current weight for members."""
        if u in self.feasible:
            return self._ws[u]
        if u in self.frozen_w:
            return self.frozen_w[u]
        raise TrackerError(f"element {u!r} was never accepted")

    def min_member(self, candidates=None, view: str = CURRENT):
        """Member of minimal weight under a view; earliest acceptance on ties."""
        pool = self.feasible if candidates is None else candidates
        weights = self.member_weights(view)
        return min(pool, key=lambda v: (weights[v], self.acc_index[v]), default=None)

    # -- the single mutation --------------------------------------------

    def accept(self, u: str, evict: Optional[str] = None) -> None:
        if u in self.acc_index:
            raise TrackerError(f"element {u!r} was already accepted")
        if evict is not None and evict not in self.feasible:
            raise TrackerError(f"evict target {evict!r} is not in the feasible set")
        rest = self.feasible if evict is None else self.feasible - {evict}
        if not self.matroid.can_add(rest, u):
            raise TrackerError(f"accepting {u!r} (evicting {evict!r}) violates independence")

        if evict is not None:
            w_out = self._ws.pop(evict)
            self.frozen_w[evict] = w_out
            self.feasible.remove(evict)
            self._w_S_sum -= w_out
            self._w_arrival_S_sum = None
            for v, new in self._keeper.remove(evict).items():
                old = self._ws[v]
                if new < old - WS_MONOTONE_TOL * (1 + abs(old)):
                    raise InvariantViolation(
                        f"current weight of {v!r} decreased: {old} -> {new}"
                    )
                self._ws[v] = new
                self._w_S_sum += new - old

        w_u = self._acc.marginal(u)
        self.acc_index[u] = len(self.history)
        self.history.append(u)
        self.arrival_w[u] = w_u
        self._w_A_sum += w_u
        if self._w_arrival_S_sum is not None:
            # u is the newest member: the same left fold as a recomputation
            self._w_arrival_S_sum += w_u
        self._acc.add(u)
        self.feasible.add(u)
        ws_u = self._ws[u] = self._keeper.add(u)
        self._w_S_sum += ws_u
