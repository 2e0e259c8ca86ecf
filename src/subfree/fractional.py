"""Unit-granular fractional state for partition constraints, with rounding.

The continuous rule grows an element's coordinate while its soft marginal
rate clears the part's threshold, draining minimum-weight mass when the
part is at capacity.  Here mass moves in units of ``delta``: each accepted
unit records the rate at its start, lives in one knapsack slot of its part,
and eviction removes the live unit of minimal recorded weight (oldest on
ties).  A unit whose weight would make it the immediate eviction target is
not added at all; that is the discrete stand-in for the continuous
simultaneous drain, and it also bounds the work per arrival.

Rounding pre-samples, per part with capacity ``c``, ``c`` points uniformly
in the part's knapsack ``(0, c]``.  The rounded set consists of the
elements owning a slot interval that contains a sampled point, which is
feasible by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .matroid import PartitionMatroid
from .objective import Objective, soft_marginal_rate, soft_value
from .tracker import InvariantViolation

THRESHOLD_TOL = 1e-9


def _as_exact(delta) -> Fraction:
    # str() round-trips decimal literals like 0.02 to 1/50 exactly
    return delta if isinstance(delta, Fraction) else Fraction(str(delta))


@dataclass
class Unit:
    element: str
    seq: int
    weight: float
    slot: int


class FractionalState:
    def __init__(
        self,
        objective: Objective,
        matroid: PartitionMatroid,
        delta=None,
        seed: int = 0,
        alpha_value: Optional[float] = None,
    ):
        from .algorithms import solve_alpha  # local import avoids a cycle

        self.objective = objective
        self.matroid = matroid
        if delta is None:
            # one fiftieth of the smallest capacity, snapped to a unit
            # fraction so that every integer capacity is a whole number of units
            delta = Fraction(1, math.ceil(50 / min(matroid.capacity.values())))
        self.delta = _as_exact(delta)
        if self.delta <= 0 or (1 / self.delta).denominator != 1:
            raise ValueError("delta must be positive with integral 1/delta")
        self.alpha = alpha_value if alpha_value is not None else solve_alpha("inf").value
        self.parts = dict(matroid.capacity)
        self.slots_per_part = {
            l: int(cap / self.delta) for l, cap in self.parts.items()
        }
        self.hist_units: Dict[str, int] = {}
        self.live: Dict[str, Dict[int, Unit]] = {l: {} for l in self.parts}
        self._free: Dict[str, List[int]] = {
            l: list(range(n - 1, -1, -1)) for l, n in self.slots_per_part.items()
        }
        self.w_live: Dict[str, float] = {l: 0.0 for l in self.parts}
        self.w_hist: Dict[str, float] = {l: 0.0 for l in self.parts}
        self._max_unit_w: Dict[str, float] = {l: 0.0 for l in self.parts}
        self._seq = 0
        rng = random.Random(seed)
        self.z_points: Dict[str, List[float]] = {
            l: [cap * (1.0 - rng.random()) for _ in range(cap)]
            for l, cap in self.parts.items()
        }

    # -- mass views -------------------------------------------------------

    def history_masses(self) -> Dict[str, float]:
        return {u: float(n * self.delta) for u, n in self.hist_units.items() if n}

    def live_units_of(self, u: str) -> List[Unit]:
        part = self.matroid.part(u)
        return [unit for unit in self.live[part].values() if unit.element == u]

    def live_masses(self) -> Dict[str, float]:
        counts: Dict[str, int] = {}
        for part_units in self.live.values():
            for unit in part_units.values():
                counts[unit.element] = counts.get(unit.element, 0) + 1
        return {u: float(n * self.delta) for u, n in counts.items()}

    def soft_value_live(self):
        return soft_value(self.objective, self.live_masses())

    def part_threshold(self, part: str) -> float:
        return (self.alpha * self.w_live[part] - self.w_hist[part]) / self.parts[part]

    # -- the arrival loop ---------------------------------------------------

    def step(self, u: str) -> List[dict]:
        """Grow u's coordinate unit by unit while the rate clears the bar."""
        part = self.matroid.part(u)
        cap_units = self.slots_per_part[part]
        trace: List[dict] = []
        guard = 8 * cap_units + 16
        for _ in range(guard):
            rate = soft_marginal_rate(self.objective, u, self.history_masses())
            threshold = self.part_threshold(part)
            if not (rate > threshold and rate > 0):
                break
            g_before = self.alpha * self.w_live[part] - self.w_hist[part]
            if len(self.live[part]) == cap_units:
                weakest = self._weakest(part)
                if rate < weakest.weight:
                    break  # the new unit would evict itself; adding is a no-op
                # ties keep the incoming unit: the oldest minimal unit drains
                self._evict_weakest(part, trace)
            self._append_unit(u, part, rate, trace)
            g_after = self.alpha * self.w_live[part] - self.w_hist[part]
            slack = self.alpha * self._max_unit_w[part] * float(self.delta)
            if g_after < g_before - slack - THRESHOLD_TOL * (1 + abs(g_before)):
                raise InvariantViolation(
                    f"part {part!r} threshold fell beyond the unit slack: "
                    f"{g_before} -> {g_after}"
                )
        else:
            raise RuntimeError(f"arrival loop for {u!r} did not settle")
        return trace

    def _weakest(self, part: str) -> Unit:
        return min(self.live[part].values(), key=lambda z: (z.weight, z.seq))

    def _append_unit(self, u: str, part: str, rate: float, trace: List[dict]) -> None:
        self._seq += 1
        slot = self._free[part].pop()
        unit = Unit(u, self._seq, rate, slot)
        self.live[part][slot] = unit
        self.hist_units[u] = self.hist_units.get(u, 0) + 1
        d = float(self.delta)
        self.w_live[part] += d * rate
        self.w_hist[part] += d * rate
        self._max_unit_w[part] = max(self._max_unit_w[part], rate)
        trace.append({"event": "unit", "element": u, "slot": slot, "weight": rate})

    def _evict_weakest(self, part: str, trace: List[dict]) -> None:
        unit = self._weakest(part)
        del self.live[part][unit.slot]
        self._free[part].append(unit.slot)
        self._free[part].sort(reverse=True)  # pop() keeps yielding the lowest slot
        self.w_live[part] -= float(self.delta) * unit.weight
        trace.append(
            {"event": "drain", "element": unit.element, "slot": unit.slot,
             "weight": unit.weight}
        )

    # -- rounding -------------------------------------------------------------

    def slot_of_point(self, t: float, part: str) -> int:
        # slots are ((s)delta, (s+1)delta]; points live in (0, cap]
        idx = int(math.ceil(t / float(self.delta))) - 1
        return min(max(idx, 0), self.slots_per_part[part] - 1)

    def round_online(self, points: Optional[Dict[str, List[float]]] = None) -> frozenset:
        """Elements whose slot interval contains a pre-sampled point."""
        points = self.z_points if points is None else points
        chosen: set = set()
        for part, pts in points.items():
            occupied = self.live[part]
            for t in pts:
                unit = occupied.get(self.slot_of_point(t, part))
                if unit is not None:
                    chosen.add(unit.element)
        return frozenset(chosen)

    def round_with_seed(self, seed: int) -> frozenset:
        rng = random.Random(seed)
        pts = {
            l: [cap * (1.0 - rng.random()) for _ in range(cap)]
            for l, cap in self.parts.items()
        }
        return self.round_online(pts)

