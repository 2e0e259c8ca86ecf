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
from subfree.algorithms import solve_alpha, step_general_matroid, step_k_uniform
from subfree.matroid import UniformMatroid
from subfree.objective import IntervalCoverage, Linear, Objective, WeightedCoverage
from subfree.oracle import random_escalating_instance, random_instance, random_matroid
from subfree.tracker import OnlineState


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
