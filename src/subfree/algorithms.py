"""Online step rules over tracker state, plus the threshold constants.

Each threshold rule is a ``propose_*``, which says what an arrival would do
and changes nothing, and a ``commit_*``, which applies a proposal and checks
the rule's laws only when the state changes; ``step_*`` is commit(propose).
The bipartite composition commits the winning agent's proposal, and the
randomized rules for non-monotone objectives run the same pair on a state
built under arrival weights, adding only their coins and slots.  A rule
ranks and sums members under the state's weight view (see the tracker
module) and takes no view of its own.  The laws, each raising
``InvariantViolation`` when broken rather than degrading silently:

* capacity rule: a replacement's arrival weight clears the documented factor
  over the replaced weight, and the threshold quantity does not decrease;
* exchange rule: w(A) <= c / (c - 1) * w(S), in arrival weights;
* under current weights, an accept strictly increases the objective.

Weights are in the objective's ``unit`` (see the objective module).  Where
a weight meets a float (the threshold, the replacement bound, a check's
slack) or a factor (c and c / (c - 1)), the rules go through the state's
``as_float``, ``exceeds``, ``approx_gt`` and ``cut``, so that every float and
every decision is what the weights in original units give.  The capacity
rule computes its threshold, the threshold's integer cut and its checks that
it fits the state once per accept (``_threshold``); the exchange rule
compares an exact weight with c = p / q times another as p * w(v) > q * w(u).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .matroid import UniformMatroid
from .objective import Objective
from .tracker import ARRIVAL, CURRENT, InvariantViolation, OnlineState

ALPHA_RESIDUAL = 1e-10
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class AlphaConstant:
    """Root of the capacity-rule fixed point for a given k and blow-up rho."""

    k: float  # positive integer or math.inf
    rho: int
    value: float

    @property
    def ratio(self) -> float:
        return 1.0 / self.value


def _fixed_point_gap(a: float, k: float, rho: int) -> float:
    if math.isinf(k):
        return math.exp(a - rho - 1) - a
    power = rho * k + 1
    return (1.0 + (a - rho - 1) / power) ** power - a


def solve_alpha(k, rho: int = 1) -> AlphaConstant:
    """Bisect the threshold constant to residual below 1e-10.

    For rho=1 the root lives in (3, 4) and finite k must be at least 4; for
    rho=3 the root is the one at least rho+1, bracketed by (rho+1, 8).
    """
    if rho not in (1, 3):
        raise ValueError("rho must be 1 or 3")
    k = float("inf") if k in ("inf", "infinity") else k
    if not math.isinf(k):
        if int(k) != k or k < 1:
            raise ValueError("k must be a positive integer or infinity")
        k = int(k)
        if rho == 1 and k < 4:
            raise ValueError("the capacity rule needs k >= 4 when rho=1")
    lo, hi = (3.0, 4.0) if rho == 1 else (float(rho + 1), 8.0)
    glo, ghi = _fixed_point_gap(lo, k, rho), _fixed_point_gap(hi, k, rho)
    if not glo < 0 < ghi:
        raise ValueError(f"no sign change on ({lo}, {hi}) for k={k}, rho={rho}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _fixed_point_gap(mid, k, rho) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    root = 0.5 * (lo + hi)
    if abs(_fixed_point_gap(root, k, rho)) >= ALPHA_RESIDUAL:
        raise ValueError(f"bisection residual too large for k={k}, rho={rho}")
    return AlphaConstant(k=k, rho=rho, value=root)


@dataclass
class Decision:
    element: str
    accepted: bool
    evicted: Optional[str] = None
    w_u: object = 0
    w_evicted: object = 0

    @property
    def gain(self):
        return self.w_u - self.w_evicted


def _commit(st: OnlineState, d: Decision) -> None:
    """Apply an accepted proposal; under current weights f must strictly rise."""
    if st.view != CURRENT:
        st.accept(d.element, evict=d.evicted)
        return
    f_before = st.scaled_f_S()
    st.accept(d.element, evict=d.evicted)
    if not st.approx_gt(st.scaled_f_S(), f_before, 1e-12):
        raise InvariantViolation(
            f"objective did not strictly increase: {st.unscaled(f_before)} -> {st.f_S()}"
        )


# -- capacity rule for k-uniform constraints ---------------------------------


def _threshold(st: OnlineState, alpha: AlphaConstant):
    """(key, quantity, threshold, cut) for this alpha on the state.

    The quantity is alpha * W - rho * w(A), with W the members' weight total
    under the state's view; an arrival must clear threshold = quantity /
    capacity, and an int weight in units clears it exactly when it exceeds
    the int ``cut`` (None for a non-finite threshold, or once a weight that
    is not an int has been accepted).  Cached on the state until the next
    accept, the only change to W and w(A); a miss first checks that the rule
    fits the state, so the checks too run once per accept.
    """
    key = (len(st.history), alpha)
    entry = st.threshold_cache
    if entry is not None and entry[0] == key:
        return entry
    matroid = st.matroid
    if not isinstance(matroid, UniformMatroid):
        raise ValueError("the capacity rule needs a uniform matroid")
    if st.view == CURRENT and not st.objective.monotone:
        raise ValueError("the capacity rule needs a monotone objective")
    if (alpha.k * alpha.rho != matroid.k
            or (st.view == CURRENT and (matroid.k < 4 or alpha.rho != 1))):
        raise ValueError(
            f"constant solved for k={alpha.k}, rho={alpha.rho} does not fit k={matroid.k}"
        )
    # The result is a float either way; converting w(A) first spares reducing
    # a large exact rational.
    w_A = st.w_A_total()
    quantity = (alpha.value * st.as_float(st.weight_total())
                - alpha.rho * st.as_float(w_A))
    threshold = quantity / matroid.k
    # the cut serves int weights, so it is taken while w(A) is an int sum
    cut = st.cut(threshold) if type(w_A) is int else None
    entry = st.threshold_cache = (key, quantity, threshold, cut)
    return entry


def propose_k_uniform(st: OnlineState, u: str, alpha: AlphaConstant) -> Decision:
    """Accept iff w(u) clears (alpha * W - rho * w(A)) / capacity; evict the
    member of minimal weight when the set is full.

    The deterministic rule runs current weights at rho = 1 and capacity k;
    the randomized rule runs arrival weights at capacity rho * k.
    """
    _, _, threshold, cut = _threshold(st, alpha)
    w_u = st.w_arrival(u)
    if not (w_u > cut if cut is not None and type(w_u) is int
            else st.exceeds(w_u, threshold)):
        return Decision(u, False, w_u=w_u)
    if len(st.feasible) == st.matroid.k:
        worst = st.min_member()
        return Decision(u, True, evicted=worst, w_u=w_u,
                        w_evicted=st.member_weights()[worst])
    return Decision(u, True, w_u=w_u)


def commit_k_uniform(st: OnlineState, d: Decision, alpha: AlphaConstant) -> Decision:
    """Apply a capacity-rule proposal; an accept checks that w(u) clears alpha /
    (alpha - rho) times any evicted weight, then that the threshold did not drop."""
    if not d.accepted:
        return d
    factor = alpha.value / (alpha.value - alpha.rho)
    bound = factor * st.as_float(d.w_evicted)
    if d.evicted is not None and not st.approx_gt(d.w_u, bound, CHECK_TOL):
        raise InvariantViolation(f"replacement bound failed: w(u)={st.unscaled(d.w_u)}"
                                 f" vs {bound}")
    before = _threshold(st, alpha)[1]
    _commit(st, d)
    after = _threshold(st, alpha)[1]
    if not st.approx_gt(after, before, CHECK_TOL):
        raise InvariantViolation(f"threshold quantity decreased: {before} -> {after}")
    return d


def step_k_uniform(st: OnlineState, u: str, alpha: AlphaConstant) -> Decision:
    return commit_k_uniform(st, propose_k_uniform(st, u, alpha), alpha)


# -- exchange rule for general matroids ---------------------------------------


def _check_c(c) -> None:
    # comparing a Fraction with 1 builds rationals; its terms are ints
    if not (c.numerator > c.denominator if type(c) is Fraction else c > 1):
        raise ValueError("the exchange rule needs c > 1")


def propose_general_matroid(st: OnlineState, u: str, c=2) -> Decision:
    """Free slots take any positive-weight arrival; otherwise the exchange
    candidate of minimal weight is replaced when w(u) >= c times that weight."""
    _check_c(c)
    if st.view == CURRENT and not st.objective.monotone:
        raise ValueError("the exchange rule needs a monotone objective")
    w_u = st.w_arrival(u)
    if st.occupancy.can_add(u):
        return Decision(u, w_u > 0, w_u=w_u)
    swap = st.occupancy.exchange_set(u)
    if not swap:
        return Decision(u, False, w_u=w_u)
    worst = st.min_member(swap)
    w_worst = st.member_weights()[worst]
    if not st.exceeds(w_worst, w_u, times=c):
        return Decision(u, True, evicted=worst, w_u=w_u, w_evicted=w_worst)
    return Decision(u, False, w_u=w_u)


def commit_general_matroid(st: OnlineState, d: Decision, c=2) -> Decision:
    """Apply an exchange-rule proposal; an accept checks the history bound
    w(A) <= c / (c - 1) * w(S), in arrival weights."""
    if not d.accepted:
        return d
    _commit(st, d)
    factor = c / (c - 1)
    if not st.approx_gt(st.w_arrival_over_S(), st.w_A_total(), CHECK_TOL, times=factor):
        raise InvariantViolation(
            f"history bound failed: w(A)={st.unscaled(st.w_A_total())}"
            f" vs {factor * st.unscaled(st.w_arrival_over_S())}"
        )
    return d


def step_general_matroid(st: OnlineState, u: str, c=2) -> Decision:
    return commit_general_matroid(st, propose_general_matroid(st, u, c), c)


def exchange_ratio(c=2) -> Fraction:
    """The fraction of the prefix optimum the exchange rule keeps after every
    arrival: 1 / (c / (c - 1) + c) = (c - 1) / c^2, exactly 1/4 at c = 2."""
    _check_c(c)
    return Fraction(c - 1) / Fraction(c) ** 2


# -- best-singleton fallback ---------------------------------------------------


def propose_best_singleton(st: OnlineState, u: str) -> Decision:
    """Keep the single most valuable element seen; ties keep the incumbent."""
    w_u = st.w_arrival(u)
    value_u = st.objective.value(frozenset({u}))
    if not st.feasible:
        return Decision(u, value_u > st.f_empty, w_u=w_u)
    (incumbent,) = st.feasible
    if value_u > st.objective.value(frozenset({incumbent})):
        return Decision(u, True, evicted=incumbent, w_u=w_u, w_evicted=st.w_S(incumbent))
    return Decision(u, False, w_u=w_u)


def step_best_singleton(st: OnlineState, u: str) -> Decision:
    d = propose_best_singleton(st, u)
    if d.accepted:
        _commit(st, d)
    return d


def dispatch_uniform(k: int):
    """Small capacities fall back to the best singleton (ratio 1/k beats
    1/alpha_k for k <= 3); larger ones run the capacity rule."""
    if k <= 3:
        return step_best_singleton, 1.0 / k
    alpha = solve_alpha(k)
    return (lambda st, u: step_k_uniform(st, u, alpha)), alpha.ratio


# -- bipartite composition ------------------------------------------------------


@dataclass
class Agent:
    """One offline node: its own state plus its rule's propose and commit."""

    state: OnlineState
    propose: Callable[[OnlineState, str], Decision]
    commit: Callable[[OnlineState, Decision], Decision]

    @classmethod
    def k_uniform(cls, state: OnlineState, alpha: AlphaConstant) -> "Agent":
        return cls(
            state,
            propose=lambda st, u: propose_k_uniform(st, u, alpha),
            commit=lambda st, d: commit_k_uniform(st, d, alpha),
        )

    @classmethod
    def general(cls, state: OnlineState, c=2) -> "Agent":
        return cls(
            state,
            propose=lambda st, u: propose_general_matroid(st, u, c),
            commit=lambda st, d: commit_general_matroid(st, d, c),
        )


def step_bipartite(agents: Sequence[Agent], u: str) -> Tuple[Optional[int], Optional[Decision]]:
    """Ask every agent what it would do, then commit only the winner's proposal.

    The winner maximizes the proposal gain w(u) - w_S(evicted); ties go to
    the lowest agent index.  Returns (agent index, committed decision), or
    (None, None) when nobody proposes.
    """
    best_idx = best = None
    for idx, agent in enumerate(agents):
        d = agent.propose(agent.state, u)
        if d.accepted and (best is None or d.gain > best.gain):
            best_idx, best = idx, d
    if best is None:
        return None, None
    return best_idx, agents[best_idx].commit(agents[best_idx].state, best)


# -- randomized rules for non-monotone objectives --------------------------------


class NonmonotoneGeneralRun:
    """Exchange rule driven by the half-thinned objective.

    The auxiliary set S follows the deterministic exchange rule evaluated on
    g = half-thinned f with a single value function (arrival weights only);
    the feasible output is the members of S whose fair coin, tossed once at
    acceptance, came up 1, so evictions from S evict from the output too.
    S never depends on the coins.
    """

    def __init__(self, objective: Objective, matroid, seed: int = 0,
                 coin: Optional[Callable[[], int]] = None):
        self.f = objective
        self.g = objective.thinned(0.5)
        self.state = OnlineState(self.g, matroid, ARRIVAL)
        self._rng = random.Random(seed)
        self.coin = coin or (lambda: self._rng.getrandbits(1))
        self.coins: Dict[str, int] = {}

    def step(self, u: str) -> Decision:
        d = commit_general_matroid(self.state, propose_general_matroid(self.state, u))
        if d.accepted:
            self.coins[u] = self.coin()
        return d

    def _kept(self, coins: Dict[str, int]) -> frozenset:
        return frozenset(u for u in self.state.feasible if coins[u])

    def feasible_set(self) -> frozenset:
        return self._kept(self.coins)

    def sample_with_seed(self, seed: int) -> frozenset:
        """The feasible output of a fresh run with this seed on the same
        stream: one coin per accepted element, drawn in acceptance order."""
        rng = random.Random(seed)
        return self._kept({u: rng.getrandbits(1) for u in self.state.history})

    def expected_feasible_value(self):
        """E over the coins of f(kept set): the half-thinned value of S."""
        return self.g.value(self.state.feasible)


class NonmonotoneUniformRun:
    """Capacity rule with a race-blown auxiliary set and slot sampling.

    The auxiliary set holds up to rho*k elements of a k-uniform instance,
    weighted by the (1/rho)-thinned objective with a single value function.
    Slots are grouped into k blocks of rho; the feasible output reads one
    uniformly pre-sampled slot per block.
    """

    def __init__(self, objective: Objective, k: int, seed: int = 0):
        self.f = objective
        self.k = k
        self.rho = rho = 3
        self.alpha = solve_alpha(k, rho=rho)
        self.g = objective.thinned(1.0 / rho)
        self.state = OnlineState(self.g, UniformMatroid(rho * k), ARRIVAL)
        self.slot_of: dict = {}
        self._free: List[int] = list(range(rho * k - 1, -1, -1))  # pop() yields lowest
        self.block_choice = self._draw_blocks(seed)

    def step(self, u: str) -> Decision:
        st = self.state
        d = commit_k_uniform(st, propose_k_uniform(st, u, self.alpha), self.alpha)
        if d.accepted:
            self.slot_of[u] = (self.slot_of.pop(d.evicted) if d.evicted is not None
                               else self._free.pop())
        return d

    def _draw_blocks(self, seed: int) -> List[int]:
        rng = random.Random(seed)
        return [rng.randrange(self.rho) for _ in range(self.k)]

    def sample_with_seed(self, seed: int) -> frozenset:
        """The feasible output of a fresh run with this seed on the same
        stream: S and its slots do not depend on the seed, only the block
        choice does."""
        return self.feasible_set(self._draw_blocks(seed))

    def feasible_set(self, choice: Optional[Sequence[int]] = None) -> frozenset:
        choice = self.block_choice if choice is None else choice
        chosen = {block * self.rho + c for block, c in enumerate(choice)}
        return frozenset(u for u, slot in self.slot_of.items() if slot in chosen)

    def expected_feasible_value(self):
        """E over the block choices of f(selected occupants)."""
        blocks: List[List[str]] = [[] for _ in range(self.k)]
        for u, slot in sorted(self.slot_of.items(), key=lambda kv: kv[1]):
            blocks[slot // self.rho].append(u)
        return self.f.block_sampled_value(blocks, self.rho)
