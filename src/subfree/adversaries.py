"""Adaptive hardness streams that certify per-round ratio ceilings.

Each driver owns its objective and matroid, emits the next element as a
function of the algorithm's visible feasible set, and keeps an exact
closed-form optimum for the arrived prefix, so a run certifies
min over rounds of f(S) / OPT(prefix) without any brute force.

Families:

* ``UniformHardnessDriver`` - interval-coverage phases against a k-uniform
  constraint: each phase floods 2k thin geometric-weight intervals, then
  offers the union of exactly the intervals the algorithm kept (worthless
  to it, one cheap quota slot for the optimum).  The thin intervals are
  disjoint, so the driver grows a plain ``WeightedCoverage``, one item per
  thin interval, phase by phase.  With epsilon = p/q over P phases, a
  phase-i interval weighs (q/(q-p))^i / k, the int q^i (q-p)^(P-i) over
  the common denominator ``unit`` = k (q-p)^P, so the coverage is built on
  those ints with that ``unit`` (see the objective module) and every
  per-arrival sum and comparison is an int operation.
* ``PartitionMonotoneDriver`` - capacity-1 parts; phase i offers the item
  once in the contested part and once in a private part, with weights from
  sum_{j<=i+1} a_j = alpha * a_i, driven until the recurrence
  a_{i+2} - alpha a_{i+1} + alpha a_i = 0 goes negative.
* ``PartitionGeneralDriver`` - the two-copy variant whose weights follow
  b_{i+1} - (alpha^2 - alpha + 1) b_i + alpha^2 b_{i-1} = 0; the driver
  terminates early whenever the algorithm's visible choices allow it.

Each driver writes its stream as one generator, ``_elements``: it yields an
element, receives the algorithm's visible set after that element was
offered, and returns the ``Stop``; ``AdversaryDriver.next_element`` starts
the generator on the first call and sends it each later visible set.
``run_adversary`` passes the tracker's feasible set itself, an immutable
snapshot that the next accept replaces, so a driver may keep a visible set
across a yield and it does not change.

Weight recurrences run in exact rational arithmetic: the sign of the first
negative term decides termination, and the designed ratio equalities must
survive thousands of additions untouched.

A driver keeps its optimum in its objective's ``unit``; ``current_opt()``,
``Stop`` and ``run_adversary``'s round records divide it out and hold exact
original values.  ``run_adversary`` compares f(S) / OPT with the running
minimum by cross-multiplying the kept values, and builds a ratio only for a
record and for the minimum it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Generator, List, Optional

from .matroid import PartitionMatroid, UniformMatroid
from .objective import FLOAT_MAX, WeightedCoverage, unscaled
from .tracker import InvariantViolation, OnlineState

ALPHA_INF = 3.14619  # only used for range warnings
PHASE_CAP = 400


@dataclass
class Stop:
    reason: str
    ratio: Optional[Fraction] = None
    opt: Optional[Fraction] = None
    algorithm_value: Optional[Fraction] = None


@dataclass
class AdversaryOutcome:
    stop: Stop
    min_ratio: object
    min_round: int
    rounds: List[dict] = field(default_factory=list)


class AdversaryDriver:
    """Stateful emitter; call ``next_element`` with the current visible set.

    Subclasses write their stream as the generator ``_elements`` (see the
    module docstring for the protocol).
    """

    objective = None
    matroid = None
    range_warning: Optional[str] = None
    terminated: Optional[Stop] = None
    _opt = Fraction(0)  # in the objective's unit
    _stream = None

    def _elements(self) -> Generator[str, frozenset, Stop]:
        raise NotImplementedError

    def next_element(self, visible: frozenset):
        if self.terminated:
            raise RuntimeError("driver already terminated")
        try:
            if self._stream is None:
                self._stream = self._elements()
                return next(self._stream)
            return self._stream.send(visible)
        except StopIteration as done:
            self.terminated = done.value
            return done.value

    def current_opt(self):
        """OPT of the arrived prefix in original units."""
        return unscaled(self._opt, self.objective.unit)

    def scaled_opt(self):
        """OPT of the arrived prefix in the objective's units."""
        return self._opt

    def _stop(self, reason: str, visible: frozenset) -> Stop:
        opt, unit = self._opt, self.objective.unit
        val = self.objective.value(visible)
        ratio = None if opt <= 0 else Fraction(val) / Fraction(opt)
        return Stop(reason, ratio=ratio, opt=unscaled(opt, unit),
                    algorithm_value=unscaled(val, unit))


def monotone_weight_sequence(alpha: Fraction, cap: int = PHASE_CAP) -> List[Fraction]:
    """a_1, a_2, ... up to and including the first negative term, while the
    total weight fits a float."""
    alpha = Fraction(alpha)
    seq = [Fraction(1)]
    total = Fraction(1)
    for _ in range(cap):
        nxt = alpha * seq[-1] - total
        if total + nxt > FLOAT_MAX:
            break
        seq.append(nxt)
        if nxt < 0:
            break
        total += nxt
    return seq


def general_weight_sequences(alpha: Fraction, cap: int = PHASE_CAP):
    """(a_i, b_i) pairs up to and including the first nonpositive b, while
    the total weight of the items (two copies of each a_i) fits a float."""
    alpha = Fraction(alpha)
    a = [Fraction(1)]
    b: List[Fraction] = []
    sum_a, sum_b = Fraction(1), Fraction(0)
    for _ in range(cap):
        bi = alpha * (a[-1] + sum_b) - (sum_a + a[-1] + sum_b)
        next_a = a[-1] + alpha * bi
        if bi > 0 and 2 * (sum_a + next_a) + sum_b + bi > FLOAT_MAX:
            break
        b.append(bi)
        if bi <= 0:
            break
        sum_b += bi
        a.append(next_a)
        sum_a += next_a
    return a, b


class PartitionMonotoneDriver(AdversaryDriver):
    """Contested part 0 plus one private part per phase, capacity 1 each."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        if not 1 <= self.alpha < 4:
            self.range_warning = f"alpha={alpha} outside [1, 4); no forced-failure guarantee"
        self.weights = monotone_weight_sequence(self.alpha)
        # phases run while the weight stays nonnegative
        self.n_phases = len(self.weights) - 1 if self.weights[-1] < 0 else len(self.weights)
        items = {f"x{i}": self.weights[i - 1] for i in range(1, self.n_phases + 1)}
        covers = {}
        part_of = {}
        for i in range(1, self.n_phases + 1):
            for part in ("0", str(i)):
                el = f"x{i}|{part}"
                covers[el] = {f"x{i}"}
                part_of[el] = part
        capacity = {str(p): 1 for p in range(self.n_phases + 1)}
        self.objective = WeightedCoverage(items, covers)
        self.matroid = PartitionMatroid(part_of, capacity)

    def _elements(self):
        for i in range(1, self.n_phases + 1):
            self._opt += self.weights[i - 1]
            visible = yield f"x{i}|0"
            if f"x{i}|0" not in visible:
                return self._stop("declined-contested", visible)
            visible = yield f"x{i}|{i}"
        reason = "next-weight-negative" if self.weights[-1] < 0 else "phase-cap"
        return self._stop(reason, visible)


class PartitionGeneralDriver(AdversaryDriver):
    """Two same-weight copies in part 0, then pair/echo parts 2i-1 and 2i."""

    def __init__(self, alpha):
        self.alpha = Fraction(alpha)
        if not 1 <= self.alpha or self.alpha * self.alpha - 3 * self.alpha + 1 >= 0:
            self.range_warning = (
                f"alpha={alpha} outside [1, (3+sqrt(5))/2); no forced-failure guarantee"
            )
        self.a, self.b = general_weight_sequences(self.alpha)
        items: Dict[str, Fraction] = {}
        covers: Dict[str, set] = {}
        part_of: Dict[str, str] = {}

        def register(item: str, weight, parts):
            items[item] = weight
            for p in parts:
                el = f"{item}|{p}"
                covers[el] = {item}
                part_of[el] = str(p)

        for i in range(1, len(self.a) + 1):
            ai = self.a[i - 1]
            register(f"x{i}a", ai, [0, 2 * i - 1, 2 * i])
            register(f"x{i}b", ai, [0, 2 * i - 1, 2 * i])
        for i in range(1, len(self.b) + 1):
            if self.b[i - 1] > 0:
                register(f"y{i}", self.b[i - 1], [2 * i - 1, 2 * i])
        capacity = {str(p): 1 for p in range(2 * len(self.a) + 1)}
        self.objective = WeightedCoverage(items, covers)
        self.matroid = PartitionMatroid(part_of, capacity)

    def _elements(self):
        base = Fraction(0)  # sum over finished phases of a_j + b_j
        for i, ai in enumerate(self.a, 1):
            pair, echo = 2 * i - 1, 2 * i
            self._opt = base + ai
            yield f"x{i}a|0"
            visible = yield f"x{i}b|0"
            held = [c for c in ("a", "b") if f"x{i}{c}|0" in visible]
            if not held:
                return self._stop("declined-contested", visible)
            copy = f"x{i}{held[0]}"
            if i > len(self.b):
                return self._stop("phase-cap", visible)
            bi = self.b[i - 1]
            if bi <= 0:
                self._opt = base + 2 * ai
                visible = yield f"{copy}|{pair}"
                return self._stop("forced-ratio", visible)
            self._opt = base + ai + bi
            yield f"y{i}|{pair}"
            self._opt = base + ai + max(ai, bi)
            visible = yield f"{copy}|{pair}"
            self._opt = base + 2 * ai + bi
            if f"y{i}|{pair}" in visible and f"{copy}|{pair}" not in visible:
                visible = yield f"y{i}|{echo}"
                base += ai + bi
                continue
            visible = yield f"{copy}|{echo}"
            return self._stop("forced-ratio", visible)
        return self._stop("phase-cap", visible)


class UniformHardnessDriver(AdversaryDriver):
    """Phases of 2k thin intervals plus the union of whatever was kept.

    Thin interval j of phase i, [i-1 + (j-1)/2k, i-1 + j/2k), is one new
    item of weight ``cell_weight(i)``, registered as the int
    ``cell_weight(i) * unit``; a union covers its intervals' items.
    """

    def __init__(self, alpha, epsilon, delta, k: int):
        self.alpha = Fraction(alpha)
        self.epsilon = Fraction(epsilon)
        self.delta = Fraction(delta)
        self.k = k
        if not 0 < self.epsilon < 1 or not 0 < self.delta < 1:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if not 1 <= self.alpha or float(self.alpha) >= ALPHA_INF:
            self.range_warning = (
                f"alpha={alpha} outside [1, {ALPHA_INF}); no forced-failure guarantee"
            )
        self.phases = int(self.delta * self.k)
        if self.phases < 1:
            raise ValueError("delta * k must be at least 1 (no phases otherwise)")
        self._growth = 1 / (1 - self.epsilon)  # density ratio of consecutive cells
        # every value is at most 2 (1-eps)^-phases / eps.  Logarithms decide; the exact
        # power (seconds at k = 10^7) decides only within 1e-9, far above their rounding
        eps = self.epsilon
        gap = (math.log(2) - self.phases * math.log1p(-float(eps)) - math.log(FLOAT_MAX)
               - math.log(eps.numerator) + math.log(eps.denominator))
        if gap > 1e-9 or gap > -1e-9 and 2 * self._growth ** self.phases / eps > FLOAT_MAX:
            raise ValueError(f"{self.phases} phases at epsilon={epsilon} give values "
                             "beyond float range")
        self.objective = WeightedCoverage(
            {}, {}, unit=k * (eps.denominator - eps.numerator) ** self.phases)
        self.matroid = UniformMatroid(k)
        self.union_taken: List[str] = []
        self._opt = 0
        self.kept_value = 0  # sum over finished phases of x_j w_j, in units
        self.x: List[Fraction] = []

    def cell_id(self, i: int, j: int) -> str:
        return f"p{i}.s{j}"

    def cell_weight(self, i: int) -> Fraction:
        # value of one phase-i interval: 2 * (1/2k) * (1-eps)^-i
        return self._growth ** i / self.k

    def _elements(self):
        k = self.k
        f = self.objective
        p, q = self.epsilon.numerator, self.epsilon.denominator
        for i in range(1, self.phases + 1):
            w = q ** i * (q - p) ** (self.phases - i)  # cell_weight(i) in units
            # step (a): 2k thin intervals tiling [i-1, i)
            for j in range(1, 2 * k + 1):
                el = self.cell_id(i, j)
                item = len(f.universe_weight)
                f.register(el, (item,), {item: w})
                fresh = min(j, k - (i - 1))
                self._opt = max(self._opt, self.kept_value + fresh * w)
                visible = yield el
            # step (b): the union of the kept intervals
            kept = [self.cell_id(i, j) for j in range(1, 2 * k + 1)
                    if self.cell_id(i, j) in visible]
            self.x.append(Fraction(len(kept), k))
            if not kept:
                continue
            union_id = f"p{i}.union"
            f.register(union_id, [item for c in kept for item in f.covers[c]])
            self.kept_value += len(kept) * w
            self._opt = max(self._opt, self.kept_value + (k - i) * w)
            visible = yield union_id
            if union_id in visible:
                self.union_taken.append(union_id)
        return self._stop("phases-exhausted", visible)


def run_adversary(
    driver: AdversaryDriver,
    step: Callable[[OnlineState, str], object],
    state: Optional[OnlineState] = None,
    record_rounds: bool = True,
) -> AdversaryOutcome:
    """Drive an online step rule against an adaptive stream.

    The algorithm's state must stay independent; a violation is reported as
    an algorithm bug.  Returns the full per-round log, the minimum ratio
    over rounds, and the driver's termination report.
    """
    state = state or OnlineState(driver.objective, driver.matroid)
    unit = driver.objective.unit
    rounds: List[dict] = []
    least = None  # (f(S), OPT) of the minimum ratio, in units
    min_round = -1
    n = 0
    last = None  # (f(S), OPT) of the previous round, in units
    checked = None  # the last S found independent
    while True:
        nxt = driver.next_element(frozenset(state.feasible))
        if isinstance(nxt, Stop):
            stop = nxt
            break
        step(state, nxt)
        # S is an immutable snapshot that every change replaces, so the same
        # object was already found independent
        if state.feasible is not checked:
            if not driver.matroid.is_independent(state.feasible):
                raise InvariantViolation("algorithm bug: infeasible set after round")
            checked = state.feasible
        n += 1
        opt = driver.scaled_opt()
        f_s = state.scaled_f_S()
        # most rounds change neither f(S) nor OPT, and an unchanged ratio
        # cannot undercut the minimum it was already compared with
        if last is None or last[0] != f_s or last[1] != opt:
            last = (f_s, opt)
            if opt > 0 and (least is None or f_s * least[1] < least[0] * opt):
                least, min_round = last, n
            if record_rounds:
                ratio = _ratio(f_s, opt, unit)
        if record_rounds:
            rounds.append({"round": n, "element": nxt, "f_S": unscaled(f_s, unit),
                           "opt": unscaled(opt, unit), "ratio": ratio})
    min_ratio = None if least is None else _ratio(*least, unit)
    return AdversaryOutcome(stop=stop, min_ratio=min_ratio, min_round=min_round, rounds=rounds)


def _ratio(f_s, opt, unit):
    """f(S) / OPT from values in units, as the quotient of the original values."""
    return None if opt <= 0 else unscaled(f_s, unit) / unscaled(opt, unit)


def make_driver(family: str, alpha, *, epsilon=None, delta=None, k=None) -> AdversaryDriver:
    if family == "partition-monotone":
        return PartitionMonotoneDriver(alpha)
    if family == "partition-general":
        return PartitionGeneralDriver(alpha)
    if family == "uniform":
        if epsilon is None or delta is None or k is None:
            raise ValueError("the uniform family needs epsilon, delta and k")
        return UniformHardnessDriver(alpha, epsilon, delta, k)
    raise ValueError(f"unknown adversary family {family!r}")
