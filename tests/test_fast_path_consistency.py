"""The cache-refresh hooks must never change a trajectory.

Every objective ships an interaction test and a grow-only marginal
accumulator that the tracker uses to skip recomputation.  Wrapping the
same objective in an opaque shell (conservative interaction answers,
generic accumulator) forces the slow definitional path; both paths must
produce identical decisions, weights, and values on identical streams.
"""

import random
from fractions import Fraction

from subfree.adversaries import UniformHardnessDriver, run_adversary
from subfree.algorithms import solve_alpha, step_general_matroid, step_k_uniform
from subfree.matroid import UniformMatroid
from subfree.objective import IntervalCoverage, Linear, Objective
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
    fast = OnlineState(f, m)
    slow = OnlineState(OpaqueObjective(f), m)
    for u in order:
        df = step(fast, u)
        ds = step(slow, u)
        assert (df.accepted, df.evicted, df.w_u) == (ds.accepted, ds.evicted, ds.w_u)
        assert fast.feasible == slow.feasible
        assert fast.f_S() == slow.f_S()
        assert fast.w_A_total() == slow.w_A_total()
        assert fast.w_S_total() == slow.w_S_total()


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
