"""Unit-granular fractional state for partition constraints, with rounding.

The continuous rule grows an element's coordinate while its soft marginal
rate clears the part's threshold, draining minimum-weight mass when the
part is at capacity.  Here mass moves in units of ``delta``: each accepted
unit records the rate at its start, lives in one knapsack slot of its part,
and eviction removes the live unit of minimal recorded weight (oldest on
ties).  A unit whose weight would make it the immediate eviction target is
not added at all; that is the discrete stand-in for the continuous
simultaneous drain, and it also bounds the work per arrival.

Rounding samples, per part with capacity ``c``, ``c`` points uniformly in
the part's knapsack ``(0, c]``.  The rounded set consists of the elements
owning a slot interval that contains a sampled point, which is feasible by
construction.  The state holds no generator: the points never depend on the
stream, so every rounding draws them after it, from a seed its caller
passes.  ``round_with_seed(s)`` is one rounding from its own generator
``random.Random(s)``; ``roundings(s, n)`` is a phase of ``n``
roundings drawn in turn from one such generator, so its first rounding is
``round_with_seed(s)`` and the phase seeds a generator once, not ``n``
times.  The state does not change during a phase, so the phase reads each
part's slot owners once, into a list padded with one owner at either end,
maps each drawn point to its owner with one index and no clamp, and returns
one shared set per distinct rounding.  ``round_online`` and
``slot_of_point`` stay the definitional path that the phase is tested
against.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Dict, Iterator, List, Tuple

from .matroid import PartitionMatroid
from .objective import Objective
from .tracker import InvariantViolation

THRESHOLD_TOL = 1e-9
# bin()'s digits as the bytes 0 and 1 by which itertools.compress selects
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass
class Unit:
    element: str
    seq: int
    weight: float
    slot: int


class FractionalState:
    def __init__(self, objective: Objective, matroid: PartitionMatroid, delta):
        from .algorithms import solve_alpha  # local import avoids a cycle

        self.objective = objective
        self.matroid = matroid
        self.delta = Fraction(delta)
        if self.delta <= 0 or (1 / self.delta).denominator != 1:
            raise ValueError("delta must be positive with integral 1/delta")
        # delta = 1/q, so float(n * delta) is n / q: both are correctly rounded
        self._q = self.delta.denominator
        self._d = float(self.delta)
        self.alpha = solve_alpha("inf").value
        self.parts = dict(matroid.capacity)
        self.slots_per_part = {
            l: int(cap / self.delta) for l, cap in self.parts.items()
        }
        self.hist_units: Dict[str, int] = {}
        self._live_units: Dict[str, int] = {}
        # each element's float(n * delta) for its n history and live units,
        # kept per unit, so a step does not rebuild the mass vectors
        self._hist_mass: Dict[str, float] = {}
        self._live_mass: Dict[str, float] = {}
        self.live: Dict[str, Dict[int, Unit]] = {l: {} for l in self.parts}
        # min-heaps of each part's live (weight, seq, slot) and free slots; a
        # unit leaves ``live`` only as the minimum, so neither heap goes stale
        self._weakest_heap: Dict[str, List[Tuple[float, int, int]]] = {l: [] for l in self.parts}
        self._free: Dict[str, List[int]] = {
            l: list(range(n)) for l, n in self.slots_per_part.items()
        }
        self.w_live: Dict[str, float] = {l: 0.0 for l in self.parts}
        self.w_hist: Dict[str, float] = {l: 0.0 for l in self.parts}
        self._max_unit_w: Dict[str, float] = {l: 0.0 for l in self.parts}
        self._seq = 0

    # -- mass views -------------------------------------------------------

    def history_masses(self) -> Dict[str, float]:
        return dict(self._hist_mass)

    def soft_value_live(self):
        return self.objective.soft_value(self._live_mass)

    def _count(self, units: Dict[str, int], masses: Dict[str, float], u: str, step: int) -> None:
        n = units[u] = units.get(u, 0) + step
        if n:
            masses[u] = n / self._q
        else:
            del units[u], masses[u]

    def part_threshold(self, part: str) -> float:
        return (self.alpha * self.w_live[part] - self.w_hist[part]) / self.parts[part]

    def unit_slack(self, part: str) -> float:
        """alpha * delta * the largest unit weight so far in the part: how far
        one unit of mass may lower its threshold quantity alpha * w_live - w_hist."""
        return self.alpha * self._max_unit_w[part] * self._d

    # -- the arrival loop ---------------------------------------------------

    def step(self, u: str) -> List[dict]:
        """Grow u's coordinate unit by unit while the rate clears the bar."""
        part = self.matroid.part(u)
        cap_units = self.slots_per_part[part]
        trace: List[dict] = []
        guard = 8 * cap_units + 16
        for _ in range(guard):
            rate = self.objective.soft_rate(u, self._hist_mass)
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
            slack = self.unit_slack(part)
            if g_after < g_before - slack - THRESHOLD_TOL * (1 + abs(g_before)):
                raise InvariantViolation(
                    f"part {part!r} threshold fell beyond the unit slack: "
                    f"{g_before} -> {g_after}"
                )
        else:
            raise RuntimeError(f"arrival loop for {u!r} did not settle")
        return trace

    def _weakest(self, part: str) -> Unit:
        return self.live[part][self._weakest_heap[part][0][2]]

    def _append_unit(self, u: str, part: str, rate: float, trace: List[dict]) -> None:
        self._seq += 1
        slot = heapq.heappop(self._free[part])
        self.live[part][slot] = Unit(u, self._seq, rate, slot)
        heapq.heappush(self._weakest_heap[part], (rate, self._seq, slot))
        self._count(self.hist_units, self._hist_mass, u, 1)
        self._count(self._live_units, self._live_mass, u, 1)
        self.w_live[part] += self._d * rate
        self.w_hist[part] += self._d * rate
        self._max_unit_w[part] = max(self._max_unit_w[part], rate)
        trace.append({"event": "unit", "element": u, "slot": slot, "weight": rate})

    def _evict_weakest(self, part: str, trace: List[dict]) -> None:
        unit = self.live[part].pop(heapq.heappop(self._weakest_heap[part])[2])
        self._count(self._live_units, self._live_mass, unit.element, -1)
        heapq.heappush(self._free[part], unit.slot)
        self.w_live[part] -= self._d * unit.weight
        trace.append(
            {"event": "drain", "element": unit.element, "slot": unit.slot,
             "weight": unit.weight}
        )

    # -- rounding -------------------------------------------------------------

    def slot_of_point(self, t: float, part: str) -> int:
        # slots are ((s)delta, (s+1)delta]; points live in (0, cap];
        # roundings folds the clamp into its padded owner lists
        idx = int(math.ceil(t / float(self.delta))) - 1
        return min(max(idx, 0), self.slots_per_part[part] - 1)

    def round_online(self, points: Dict[str, List[float]]) -> frozenset:
        """Elements whose slot interval contains one of ``points``."""
        chosen: set = set()
        for part, pts in points.items():
            for t in pts:
                unit = self.live[part].get(self.slot_of_point(t, part))
                if unit is not None:
                    chosen.add(unit.element)
        return frozenset(chosen)

    def _draw_points(self, rng: random.Random) -> Dict[str, List[float]]:
        # part by part in the matroid's order, cap points in (0, cap] for a
        # part of capacity cap: the order every rounding draws in
        return {
            l: [cap * (1.0 - rng.random()) for _ in range(cap)]
            for l, cap in self.parts.items()
        }

    def round_with_seed(self, seed: int) -> frozenset:
        return self.round_online(self._draw_points(random.Random(seed)))

    def roundings(self, seed: int, trials: int) -> Iterator[frozenset]:
        """``trials`` roundings, each from the next points of one generator
        seeded ``seed``; the first is ``round_with_seed(seed)``.  Each trial
        draws the points of ``_draw_points`` and maps them as ``round_online``
        does, but straight to a bit of the slot's owner, read once for the
        phase; equal roundings come back as one shared set.

        A part's owner list is padded with its first owner in front and its
        last at the end, so index ``ceil(t / d)`` of the padded list is the
        owner of ``slot_of_point(t)``: index c is slot c - 1, index 0 (a
        point at or below 0) is slot 0, and index N + 1 (a point that the
        float quotient puts past the last edge) is slot N - 1.  No point in
        [0, cap] reaches past N + 1, as cap / float(delta) < N + 1."""
        bit_of: Dict[str, int] = {}
        points = []  # per drawn point, in draw order: its part's cap and padded owners' bits
        for part, cap in self.parts.items():
            owners = [0] * self.slots_per_part[part]  # 0: an empty slot
            for slot, unit in self.live[part].items():
                owners[slot] = bit_of.setdefault(unit.element, 1 << len(bit_of))
            points += [(cap, [owners[0], *owners, owners[-1]])] * cap
        elements = list(bit_of)  # element i owns bit 1 << i
        sets: Dict[int, frozenset] = {}
        draw, ceil, d = random.Random(seed).random, math.ceil, self._d
        for _ in range(trials):
            mask = 0
            for cap, owners in points:
                mask |= owners[ceil(cap * (1.0 - draw()) / d)]
            chosen = sets.get(mask)
            if chosen is None:
                picks = bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)  # bit 0 first
                chosen = sets[mask] = frozenset(compress(elements, picks))
            yield chosen
