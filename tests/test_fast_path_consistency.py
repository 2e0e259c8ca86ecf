"""The incremental hooks must never change a trajectory.

Every objective ships an interaction test, a grow-only marginal
accumulator and a current-weight keeper (the ownership ledger on weighted
coverage) that the tracker uses to skip recomputation.  Wrapping the same
objective in an opaque shell (conservative interaction answers, generic
accumulator and keeper) forces the slow definitional path; both paths must
produce identical decisions, weights, and values on identical streams.
"""

import random
from fractions import Fraction

import pytest

from subfree.adversaries import UniformHardnessDriver, run_adversary
from subfree.algorithms import (
    NonmonotoneUniformRun,
    _threshold_quantity,
    solve_alpha,
    step_general_matroid,
    step_k_uniform,
)
from subfree.matroid import UniformMatroid
from subfree.objective import IntervalCoverage, Linear, Objective, WeightedCoverage
from subfree.oracle import random_escalating_instance, random_instance, random_matroid
from subfree.tracker import ARRIVAL, CURRENT, OnlineState


class OpaqueObjective(Objective):
    """Same values, no fast-path hooks."""

    def __init__(self, base):
        self.base = base
        self.monotone = base.monotone

    def elements(self):
        return self.base.elements()

    def value(self, s):
        return self.base.value(s)


def trajectories_match(f, m, order, step):
    """Steps the fast path and the opaque path side by side on coverage ``f``;
    returns the fast path's hand-off counts (see ``hand_offs``)."""
    fast = OnlineState(f, m)
    slow = OnlineState(OpaqueObjective(f), m)
    counts = [0, 0]
    for u in order:
        df = step(fast, u)
        ds = step(slow, u)
        assert (df.accepted, df.evicted, df.w_u) == (ds.accepted, ds.evicted, ds.w_u)
        assert fast.feasible == slow.feasible
        assert fast.f_S() == slow.f_S()
        assert fast.w_A_total() == slow.w_A_total()
        assert fast.w_S_total() == slow.w_S_total()
        assert {v: fast.w_S(v) for v in fast.feasible} == {v: slow.w_S(v) for v in slow.feasible}
        assert_weights_fresh(fast)
        if df.evicted is not None:
            one, several = hand_offs(fast, df.evicted)
            counts[0] += one
            counts[1] += several
    return counts


def assert_weights_fresh(st):
    """Every cached current weight against a recomputation, and f_S against value(S)."""
    f = st.objective
    for u in st.feasible:
        prefix = frozenset(v for v in st.feasible if st.acc_index[v] < st.acc_index[u])
        assert st.w_S(u) == f.marginal(u, prefix)
    assert st.f_S() == f.value(st.feasible)


def hand_offs(st, gone):
    """Items the just-evicted member owned that a later member of S covers: as
    (items with one later holder, items with two or more)."""
    f, cutoff = st.objective, st.acc_index[gone]
    earlier = [v for v in st.feasible if st.acc_index[v] < cutoff]
    later = [v for v in st.feasible if st.acc_index[v] > cutoff]
    counts = [0, 0]
    for item in f.covers[gone]:
        if any(item in f.covers[v] for v in earlier):
            continue
        holders = sum(item in f.covers[v] for v in later)
        if holders:
            counts[holders > 1] += 1
    return counts


def test_exchange_rule_paths_agree():
    for trial in range(40):
        rng = random.Random(trial)
        f, m, order = random_instance(rng, rng.randint(5, 9))
        trajectories_match(f, m, order, lambda st, u: step_general_matroid(st, u))


def test_capacity_rule_paths_agree():
    for trial in range(40):
        rng = random.Random(100 + trial)
        k = 4 + trial % 3
        f, order = random_escalating_instance(rng, 10)
        alpha = solve_alpha(k)
        trajectories_match(
            f, UniformMatroid(k), order, lambda st, u: step_k_uniform(st, u, alpha)
        )


def test_interval_hardness_paths_agree():
    k = 8
    alpha = solve_alpha(k)

    def run(fast: bool):
        driver = UniformHardnessDriver(Fraction(2), Fraction(1, 10), Fraction(1, 2), k)
        f = driver.objective if fast else OpaqueObjective(driver.objective)
        state = OnlineState(f, driver.matroid)
        out = run_adversary(
            driver, lambda st, u: step_k_uniform(st, u, alpha), state=state
        )
        return [(r["element"], r["f_S"], r["ratio"]) for r in out.rounds]

    assert run(True) == run(False)


def test_exchange_rule_paths_agree_on_intervals():
    for trial in range(20):
        rng = random.Random(300 + trial)
        covers = {}
        for i in range(rng.randint(5, 9)):
            ivs = []
            for _ in range(rng.randint(1, 3)):
                lo = Fraction(rng.randint(0, 16), rng.choice([1, 2, 4]))
                ivs.append((lo, lo + Fraction(rng.randint(1, 8), rng.choice([1, 2, 3]))))
            covers[f"e{i}"] = ivs
        f = IntervalCoverage(Fraction(1, 5), covers)
        order = sorted(covers)
        rng.shuffle(order)
        m = random_matroid(rng, sorted(covers))
        trajectories_match(f, m, order, lambda st, u: step_general_matroid(st, u))


def test_exchange_rule_paths_agree_on_linear():
    for trial in range(20):
        rng = random.Random(400 + trial)
        # exact weights: with floats, w(u) and f(A + u) - f(A) may round apart
        weights = {f"e{i}": Fraction(rng.randint(0, 12), rng.randint(1, 3)) for i in range(9)}
        order = sorted(weights)
        rng.shuffle(order)
        m = random_matroid(rng, sorted(weights))
        trajectories_match(Linear(weights), m, order, lambda st, u: step_general_matroid(st, u))


# -- the ownership ledger -------------------------------------------------------------


def overlapping_coverage(rng, n, exact=True):
    """Escalating private items plus four shared ones that many elements
    cover, so that an evicted member's items often have several later holders."""
    growth = Fraction(rng.randint(13, 20), 10)
    shared = [f"s{j}" for j in range(4)]
    weights = {i: Fraction(rng.randint(1, 6)) for i in shared}
    covers = {}
    for i in range(n):
        weights[f"x{i:02d}"] = growth**i
        items = {f"x{i:02d}"} | set(rng.sample(shared, rng.randint(1, 3)))
        items |= {f"x{j:02d}" for j in range(i) if rng.random() < 0.25}
        covers[f"e{i:02d}"] = items
    if not exact:
        weights = {i: float(w) * (1 + rng.random() / 3) for i, w in weights.items()}
    order = sorted(covers)
    head = order[: n // 3]  # the early arrivals come in any order
    rng.shuffle(head)
    return WeightedCoverage(weights, covers), head + order[n // 3:]


@pytest.mark.parametrize("kind", ["uniform", "partition", "explicit"])
def test_ledger_hands_items_on_under_the_exchange_rule(kind):
    counts = [0, 0]
    for trial in range(15):
        rng = random.Random(500 + trial)
        f, order = overlapping_coverage(rng, 6 if kind == "explicit" else 14)
        m = random_matroid(rng, sorted(f.elements()), kind)
        one, several = trajectories_match(f, m, order,
                                          lambda st, u: step_general_matroid(st, u))
        counts[0] += one
        counts[1] += several
    assert counts[0] > 0 and counts[1] > 0


def test_ledger_hands_items_on_under_the_capacity_rule():
    counts = [0, 0]
    for trial in range(20):
        rng = random.Random(600 + trial)
        k = 4 + trial % 3
        alpha = solve_alpha(k)
        f, order = overlapping_coverage(rng, 16)
        one, several = trajectories_match(f, UniformMatroid(k), order,
                                          lambda st, u: step_k_uniform(st, u, alpha))
        counts[0] += one
        counts[1] += several
    assert counts[0] > 0 and counts[1] > 0


def test_ledger_with_float_weights():
    # a credited sum and f(P + u) - f(P) may round apart in the last place
    evictions = 0
    for trial in range(20):
        rng = random.Random(700 + trial)
        f, order = overlapping_coverage(rng, 14, exact=False)
        m = random_matroid(rng, sorted(f.elements()), "partition")
        fast = OnlineState(f, m)
        slow = OnlineState(OpaqueObjective(f), m)
        for u in order:
            df = step_general_matroid(fast, u)
            ds = step_general_matroid(slow, u)
            assert (df.accepted, df.evicted) == (ds.accepted, ds.evicted)
            assert fast.f_S() == pytest.approx(slow.f_S(), rel=1e-12)
            assert fast.f_S() == pytest.approx(f.value(fast.feasible), rel=1e-12)
            evictions += df.evicted is not None
    assert evictions > 0


# -- min-member heaps and the threshold cache ------------------------------------------


class HeapAudit:
    """After every step: ``min_member()`` under both views against the full
    (weight, acc_index) scan, and the rule's cached threshold against a fresh
    recomputation.  Counts the steps that had a tie at the minimum and the
    evictions that raised a later member's current weight."""

    def __init__(self, alpha, view):
        self.alpha, self.view = alpha, view
        self.ties = self.raises = 0
        self._before = {}

    def check(self, st):
        for view in (CURRENT, ARRIVAL):
            weights = st.member_weights(view)
            ranked = sorted(st.feasible, key=lambda v: (weights[v], st.acc_index[v]))
            assert st.min_member(view=view) == (ranked[0] if ranked else None)
            self.ties += len(ranked) > 1 and weights[ranked[0]] == weights[ranked[1]]
        now = {v: st.w_S(v) for v in st.feasible}
        self.raises += any(w > self._before.get(v, w) for v, w in now.items())
        self._before = now
        a = self.alpha
        fresh = a.value * st.weight_total(self.view) - a.rho * float(st.w_A_total())
        assert _threshold_quantity(st, a, self.view) == fresh


def tied_coverage(rng, n, kind):
    """Elements in pairs with equal private items on an escalating ladder, plus
    shared items, so that weights tie and evictions hand items on.  ``kind``
    picks int, Fraction or float weights."""
    num = {"int": int, "fraction": lambda x: Fraction(x, 7), "float": lambda x: x / 7}[kind]
    shared = [f"s{j}" for j in range(3)]
    weights = {i: num(rng.randint(1, 4)) for i in shared}
    covers = {}
    for i in range(n):
        weights[f"x{i:02d}"] = num(round(10 * 1.8 ** (i // 2)))
        covers[f"e{i:02d}"] = {f"x{i:02d}"} | set(rng.sample(shared, rng.randint(0, 2)))
    return WeightedCoverage(weights, covers), sorted(covers)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_under_the_capacity_rule(kind):
    ties = raises = 0
    for trial in range(20):
        rng = random.Random(800 + trial)
        k = 4 + trial % 3
        alpha = solve_alpha(k)
        f, order = tied_coverage(rng, 24, kind)
        st = OnlineState(f, UniformMatroid(k))
        audit = HeapAudit(alpha, CURRENT)
        for u in order:
            step_k_uniform(st, u, alpha)
            audit.check(st)
        ties += audit.ties
        raises += audit.raises
    assert ties > 0 and raises > 0


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_under_the_randomized_uniform_run(kind):
    evictions = 0
    for trial in range(10):
        rng = random.Random(900 + trial)
        f, order = tied_coverage(rng, 12, kind)
        run = NonmonotoneUniformRun(f, k=2, seed=trial)  # auxiliary capacity 6
        audit = HeapAudit(run.alpha, ARRIVAL)
        for u in order:
            evictions += run.step(u).evicted is not None
            audit.check(run.state)
    assert evictions > 0


def test_min_member_heaps_match_the_scan_on_the_uniform_stream():
    k = 12
    alpha = solve_alpha(k)
    audit = HeapAudit(alpha, CURRENT)
    evictions = 0

    def step(st, u):
        nonlocal evictions
        evictions += step_k_uniform(st, u, alpha).evicted is not None
        audit.check(st)

    run_adversary(UniformHardnessDriver(Fraction(3), Fraction(1, 2), Fraction(9, 10), k), step)
    assert audit.ties > 0 and evictions > 0
