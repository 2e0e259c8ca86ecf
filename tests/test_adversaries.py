import math
import random
import sys
from fractions import Fraction

import pytest

from subfree.adversaries import (
    PHASE_CAP,
    AdversaryDriver,
    PartitionGeneralDriver,
    PartitionMonotoneDriver,
    Stop,
    UniformHardnessDriver,
    general_weight_sequences,
    make_driver,
    monotone_weight_sequence,
    run_adversary,
)
from subfree.algorithms import solve_alpha, step_best_singleton, step_general_matroid, step_k_uniform
from subfree.matroid import UniformMatroid
from subfree.objective import IntervalCoverage, WeightedCoverage
from subfree.oracle import brute_force_opt, prefix_optima
from subfree.tracker import InvariantViolation, OnlineState


# -- weight recurrences -------------------------------------------------------


def test_monotone_weights_alpha_3():
    seq = monotone_weight_sequence(Fraction(3))
    assert seq[:6] == [1, 2, 3, 3, 0, -9]
    assert seq[5] < 0  # first negative at index 6 (1-based)


def test_monotone_weights_second_order_relation():
    for alpha in (Fraction(5, 2), Fraction(3), Fraction(39, 10)):
        seq = monotone_weight_sequence(alpha)
        for i in range(len(seq) - 2):
            assert seq[i + 2] - alpha * seq[i + 1] + alpha * seq[i] == 0


def test_monotone_weights_a2_close_to_3_near_4():
    seq = monotone_weight_sequence(Fraction(3999, 1000))
    assert abs(seq[1] - 3) < Fraction(1, 100)  # a_2 = alpha - 1


def test_monotone_weights_negative_exists_in_valid_range():
    for alpha in (Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(39, 10)):
        seq = monotone_weight_sequence(alpha)
        assert seq[-1] < 0


def test_general_weights_recurrence_and_discriminant():
    for alpha in (Fraction(2), Fraction(5, 2)):
        disc = (alpha**2 + alpha + 1) * (alpha**2 - 3 * alpha + 1)
        assert disc < 0
        a, b = general_weight_sequences(alpha)
        assert b[-1] <= 0
        big = alpha**2 - alpha + 1
        for i in range(1, len(b) - 1):
            assert b[i + 1] - big * b[i] + alpha**2 * b[i - 1] == 0
        for i in range(len(b) - 1):
            if b[i] > 0:
                assert a[i + 1] - a[i] == alpha * b[i]


def test_weight_sequences_stop_within_float_range():
    top = sys.float_info.max
    for alpha in (Fraction(10), Fraction(20)):
        seq = monotone_weight_sequence(alpha)
        assert len(seq) <= PHASE_CAP and seq[-1] >= 0 and sum(seq) <= top
        nxt = alpha * seq[-1] - sum(seq)
        assert sum(seq) + nxt > top  # the next term would have passed it
    for alpha in (Fraction(16, 5), Fraction(7, 2), Fraction(39, 10), Fraction(4), Fraction(6)):
        a, b = general_weight_sequences(alpha)
        assert len(a) == len(b) + 1 <= PHASE_CAP and b[-1] > 0
        assert 2 * sum(a) + sum(b) <= top


# -- partition-monotone driver ---------------------------------------------------


def test_best_singleton_forced_to_one_third():
    driver = PartitionMonotoneDriver(Fraction(3))
    out = run_adversary(driver, step_best_singleton)
    assert out.stop.ratio is not None
    assert out.min_ratio <= Fraction(1, 3)


def test_general_rule_forced_between_quarter_and_inverse_alpha():
    for alpha in (Fraction(3), Fraction(39, 10)):
        driver = PartitionMonotoneDriver(alpha)
        out = run_adversary(driver, lambda st, u: step_general_matroid(st, u))
        assert out.min_ratio <= 1 / alpha
        assert all(r["ratio"] >= Fraction(1, 4) for r in out.rounds if r["ratio"] is not None)


def test_monotone_driver_stop_carries_ratio():
    driver = PartitionMonotoneDriver(Fraction(3))
    out = run_adversary(driver, step_best_singleton)
    assert isinstance(out.stop, Stop)
    assert out.stop.ratio == out.stop.algorithm_value / out.stop.opt


def test_monotone_driver_range_warning():
    assert PartitionMonotoneDriver(Fraction(5)).range_warning is not None
    assert PartitionMonotoneDriver(Fraction(3)).range_warning is None


def test_monotone_driver_opt_matches_brute_force_first_phases():
    driver = PartitionMonotoneDriver(Fraction(3))
    state = OnlineState(driver.objective, driver.matroid)
    arrived = []
    for _ in range(6):  # three phases, two elements each
        nxt = driver.next_element(frozenset(state.feasible))
        if isinstance(nxt, Stop):
            break
        arrived.append(nxt)
        step_general_matroid(state, nxt)
        _, opt = brute_force_opt(driver.objective, driver.matroid, arrived)
        assert driver.current_opt() == opt


def test_monotone_alpha_3_exact_trace_against_exchange_rule():
    # weights 1, 2, 3: the exchange rule takes x1|0, swaps in x2|0 (2 >= 2*1),
    # then declines x3|0 (3 < 2*2); the decline lands exactly on ratio 1/3
    driver = PartitionMonotoneDriver(Fraction(3))
    out = run_adversary(driver, lambda st, u: step_general_matroid(st, u))
    assert [r["element"] for r in out.rounds] == [
        "x1|0", "x1|1", "x2|0", "x2|2", "x3|0"
    ]
    assert out.stop.reason == "declined-contested"
    assert out.stop.ratio == Fraction(1, 3)
    assert out.stop.algorithm_value == 2
    assert out.stop.opt == 6


# -- partition-general driver ------------------------------------------------------


def test_general_driver_terminates_and_certifies():
    for alpha in (Fraction(2), Fraction(5, 2)):
        for step in (step_best_singleton, lambda st, u: step_general_matroid(st, u)):
            driver = PartitionGeneralDriver(alpha)
            out = run_adversary(driver, step)
            assert out.stop.reason in (
                "declined-contested", "forced-ratio", "next-weight-negative"
            )
            assert out.min_ratio <= 1 / alpha + Fraction(1, 10**9)


def test_general_driver_range_warning():
    assert PartitionGeneralDriver(Fraction(27, 10)).range_warning is not None
    assert PartitionGeneralDriver(Fraction(5, 2)).range_warning is None


def test_general_alpha_2_5_exact_trace_against_exchange_rule():
    # b1=1/2, a2=9/4 (taken: 9/4 >= 2*1), b2=7/8, a3=71/16 < 2*(9/4): declined.
    # Algorithm holds a2+b1+b2 = 29/8; optimum is a1+a2+a3+b1+b2 = 145/16.
    driver = PartitionGeneralDriver(Fraction(5, 2))
    out = run_adversary(driver, lambda st, u: step_general_matroid(st, u))
    assert driver.b[0] == Fraction(1, 2)
    assert driver.a[1] == Fraction(9, 4)
    assert out.stop.reason == "declined-contested"
    assert out.stop.algorithm_value == Fraction(29, 8)
    assert out.stop.opt == Fraction(145, 16)
    assert out.stop.ratio == Fraction(2, 5)  # exactly 1/alpha


def test_general_driver_opt_matches_brute_force_first_phases():
    driver = PartitionGeneralDriver(Fraction(5, 2))
    state = OnlineState(driver.objective, driver.matroid)
    arrived = []
    for _ in range(10):  # two full phases
        nxt = driver.next_element(frozenset(state.feasible))
        if isinstance(nxt, Stop):
            break
        arrived.append(nxt)
        step_general_matroid(state, nxt)
        _, opt = brute_force_opt(driver.objective, driver.matroid, arrived)
        assert driver.current_opt() == opt


# -- uniform-hardness driver ----------------------------------------------------------


def test_uniform_driver_cell_weights():
    driver = UniformHardnessDriver(Fraction(3), Fraction(1, 2), Fraction(1, 5), 10)
    # density (1 - 1/2)^-i over an interval of width 1/20, doubled
    assert driver.cell_weight(1) == Fraction(2, 10)
    assert driver.cell_weight(2) == Fraction(4, 10)
    state = OnlineState(driver.objective, driver.matroid)
    for _ in range(20):  # phase 1's thin intervals; the first ten are kept
        nxt = driver.next_element(frozenset(state.feasible))
        if len(state.feasible) < 10:
            state.accept(nxt)
    assert driver.next_element(frozenset(state.feasible)) == "p1.union"
    f = driver.objective
    weights = f.universe_weight
    # ints over the common denominator k (q - p)^phases = 10 * 1^2, with eps = p/q
    assert f.unit == 10 and all(type(w) is int for w in weights.values())
    assert {i: Fraction(w, f.unit) for i, w in weights.items()} == {
        i: Fraction(2, 10) for i in range(20)}
    assert len({id(w) for w in weights.values()}) == 1  # one shared weight per phase
    assert Fraction(f.value({"p1.union"}), f.unit) == 10 * Fraction(2, 10)
    assert state.f_S() == 10 * Fraction(2, 10)


def test_uniform_driver_against_capacity_rule_small():
    k = 12
    driver = UniformHardnessDriver(Fraction(3), Fraction(1, 10), Fraction(1, 4), k)
    alpha = solve_alpha(k)
    out = run_adversary(
        driver, lambda st, u: step_k_uniform(st, u, alpha), record_rounds=False
    )
    assert driver.union_taken == []  # strictly monotone rule never takes the union
    assert out.stop.reason == "phases-exhausted"
    assert out.min_ratio is not None and 0 < out.min_ratio < 1
    assert all(x <= 1 for x in driver.x)


@pytest.mark.parametrize("k", [4, 5, 8, 10, 16, 20])
def test_uniform_driver_capacity_rule_keeps_its_guarantee(k):
    # the sound side: the stream cannot force the capacity rule below 1/alpha_k
    alpha = solve_alpha(k)
    driver = UniformHardnessDriver(Fraction(3), Fraction(1, 20), Fraction(1, 2), k)
    out = run_adversary(
        driver, lambda st, u: step_k_uniform(st, u, alpha), record_rounds=False
    )
    assert out.stop.reason == "phases-exhausted"
    assert out.min_ratio >= alpha.ratio


def test_uniform_driver_certifies_below_one_third_at_k_100():
    driver = UniformHardnessDriver(Fraction(3), Fraction("0.05"), Fraction("0.2"), 100)
    alpha = solve_alpha(100)
    out = run_adversary(
        driver, lambda st, u: step_k_uniform(st, u, alpha), record_rounds=False
    )
    assert out.min_ratio <= Fraction(1, 3)
    assert driver.union_taken == []


def test_uniform_driver_opt_lower_bounds_brute_force_prefix():
    driver = UniformHardnessDriver(Fraction(2), Fraction(1, 4), Fraction(1, 2), 4)
    alpha = solve_alpha(4)
    state = OnlineState(driver.objective, driver.matroid)
    arrived = []
    for _ in range(10):
        nxt = driver.next_element(frozenset(state.feasible))
        if isinstance(nxt, Stop):
            break
        arrived.append(nxt)
        step_k_uniform(state, nxt, alpha)
        _, opt = brute_force_opt(driver.objective, driver.matroid, arrived)
        assert driver.current_opt() <= Fraction(opt, driver.objective.unit)


def test_uniform_driver_degenerate_alpha_one_runs():
    driver = UniformHardnessDriver(Fraction(1), Fraction(1, 4), Fraction(1, 2), 4)
    assert driver.range_warning is None  # alpha=1 is in range, just degenerate
    out = run_adversary(driver, step_best_singleton)
    assert out.min_ratio <= 1
    assert UniformHardnessDriver(
        Fraction(16, 5), Fraction(1, 4), Fraction(1, 2), 4
    ).range_warning is not None


def test_uniform_driver_parameter_validation():
    with pytest.raises(ValueError):
        UniformHardnessDriver(Fraction(3), Fraction(1, 2), Fraction(1, 100), 10)
    # 54 phases of density ratio 10^6 pass the largest float; refused before any arrival
    with pytest.raises(ValueError, match="float range"):
        UniformHardnessDriver(Fraction(3), Fraction(999999, 1000000), Fraction(9, 10), 60)


@pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(1, 3), Fraction(999999, 1000000)])
def test_uniform_driver_range_test_matches_the_exact_bound(eps):
    # the logarithmic test refuses exactly the phase counts the exact power refuses
    def beyond(phases):
        return 2 * (1 / (1 - eps)) ** phases / eps > sys.float_info.max

    guess = math.log(sys.float_info.max * eps / 2) / -math.log1p(-float(eps))
    last = next(p for p in range(max(1, int(guess) - 3), 10**5) if beyond(p + 1))
    assert not beyond(last)
    UniformHardnessDriver(Fraction(3), eps, Fraction(1, 2), 2 * last)
    with pytest.raises(ValueError, match="float range"):
        UniformHardnessDriver(Fraction(3), eps, Fraction(1, 2), 2 * last + 2)


# -- run loop ---------------------------------------------------------------------


def test_run_adversary_flags_infeasible_algorithm():
    driver = PartitionMonotoneDriver(Fraction(3))

    def cheating_step(state, u):
        state.feasible = state.feasible | {u}  # bypasses the tracker and the matroid

    with pytest.raises(InvariantViolation, match="algorithm bug: infeasible set after round"):
        run_adversary(driver, cheating_step)


def test_run_adversary_flags_a_dependent_set_after_unchanged_rounds():
    driver = PartitionMonotoneDriver(Fraction(3))
    offered = []

    def late_cheat(state, u):
        offered.append(u)
        if u == "x1|0":
            state.accept(u)
        elif u == "x2|0":  # a second element of part 0, past the tracker
            state.feasible = state.feasible | {u}

    with pytest.raises(InvariantViolation, match="algorithm bug: infeasible set after round"):
        run_adversary(driver, late_cheat)
    assert offered == ["x1|0", "x1|1", "x2|0"]


def test_run_adversary_checks_each_new_set_once():
    driver = make_driver("partition-general", Fraction(7, 2))
    checked, after_round = [], []
    is_independent = driver.matroid.is_independent
    driver.matroid.is_independent = lambda s: checked.append(s) or is_independent(s)

    def step(state, u):
        step_general_matroid(state, u)
        after_round.append(state.feasible)

    run_adversary(driver, step)
    changed = [s for i, s in enumerate(after_round) if i == 0 or s is not after_round[i - 1]]
    assert [id(s) for s in checked] == [id(s) for s in changed]
    assert len(changed) < len(after_round) / 2  # most rounds keep S


class _ScriptedDriver(AdversaryDriver):
    """Offers a, b, c, d of weights 1, 1, 2, 2 (times ``unit``) with a scripted
    OPT: under accept-all the ratio is 1/2 at rounds 1 and 2, then 1 and 3/4."""

    def __init__(self, unit):
        self.objective = WeightedCoverage({i: w * unit for i, w in enumerate((1, 1, 2, 2))},
                                          {el: {i} for i, el in enumerate("abcd")}, unit=unit)
        self.matroid = UniformMatroid(4)

    def _elements(self):
        for el, opt in zip("abcd", (2, 4, 4, 8)):
            self._opt = opt * self.objective.unit
            visible = yield el
        return self._stop("script-done", visible)


@pytest.mark.parametrize("unit", [1, 7])
def test_run_adversary_minimum_ties_keep_the_first_round(unit):
    out = run_adversary(_ScriptedDriver(unit), lambda st, u: st.accept(u))
    assert (out.min_ratio, out.min_round) == (Fraction(1, 2), 1)
    assert [r["ratio"] for r in out.rounds] == [Fraction(1, 2), Fraction(1, 2), 1, Fraction(3, 4)]
    assert [(r["f_S"], r["opt"]) for r in out.rounds] == [(1, 2), (2, 4), (4, 4), (6, 8)]
    assert (out.stop.ratio, out.stop.opt, out.stop.algorithm_value) == (Fraction(3, 4), 8, 6)


def test_make_driver_dispatch():
    assert isinstance(make_driver("partition-monotone", 3), PartitionMonotoneDriver)
    assert isinstance(make_driver("partition-general", 2), PartitionGeneralDriver)
    assert isinstance(
        make_driver("uniform", 3, epsilon=Fraction(1, 20), delta=Fraction(1, 5), k=20),
        UniformHardnessDriver,
    )
    with pytest.raises(ValueError):
        make_driver("uniform", 3)
    with pytest.raises(ValueError):
        make_driver("nope", 3)


# -- every family under random feasible policies ----------------------------------


def _random_policy(seed):
    """Accept u when it fits; otherwise swap it for a random exchange
    candidate or decline it, on a coin."""
    rng = random.Random(seed)

    def step(state, u):
        if state.matroid.is_independent(state.feasible | {u}):
            state.accept(u)
            return
        candidates = sorted(state.matroid.exchange_set(state.feasible, u))
        if candidates and rng.random() < 0.5:
            state.accept(u, rng.choice(candidates))

    return step


@pytest.mark.parametrize("make, exact", [
    (lambda: PartitionMonotoneDriver(Fraction(3)), True),
    (lambda: PartitionGeneralDriver(Fraction(5, 2)), True),
    (lambda: UniformHardnessDriver(Fraction(3), Fraction(1, 4), Fraction(1, 2), 4), False),
])
def test_driver_opt_under_random_policies(make, exact):
    unions_taken = 0
    for seed in range(60):
        driver = make()
        step = _random_policy(seed)
        state = OnlineState(driver.objective, driver.matroid)
        arrived, opts = [], []
        while not isinstance(nxt := driver.next_element(frozenset(state.feasible)), Stop):
            arrived.append(nxt)
            step(state, nxt)
            opts.append(driver.current_opt())
        assert driver.terminated is nxt
        with pytest.raises(RuntimeError, match="already terminated"):
            driver.next_element(frozenset(state.feasible))
        # one enumeration sweep; agrees with brute_force_opt on every prefix
        unit = driver.objective.unit
        best = [Fraction(b, unit) for b in prefix_optima(driver.objective, driver.matroid,
                                                          arrived)]
        assert all(o == b if exact else o <= b for o, b in zip(opts, best))
        unions_taken += len(getattr(driver, "union_taken", ()))
    if isinstance(driver, UniformHardnessDriver):
        assert unions_taken > 0  # some policy kept a phase's union


@pytest.mark.parametrize("k", [4, 6, 12])
def test_uniform_driver_matches_interval_coverage(k):
    """The driver's weighted coverage against the interval semantics: thin
    interval j of phase i is [i-1 + (j-1)/2k, i-1 + j/2k), and a phase's
    union merges the thin intervals of that phase kept when it arrives."""
    epsilon = Fraction(1, 4)
    for seed in range(8):
        driver = UniformHardnessDriver(Fraction(3), epsilon, Fraction(1, 2), k)
        f = driver.objective
        step = _random_policy(seed)
        state = OnlineState(f, driver.matroid)
        intervals, rounds = {}, []
        while not isinstance(nxt := driver.next_element(frozenset(state.feasible)), Stop):
            phase, part = nxt.split(".")
            if part == "union":
                kept = sorted(u for u in state.feasible if u.startswith(phase + ".s"))
                intervals[nxt] = [iv for u in kept for iv in intervals[u]]
            else:
                lo = int(phase[1:]) - 1 + Fraction(int(part[1:]) - 1, 2 * k)
                intervals[nxt] = [(lo, lo + Fraction(1, 2 * k))]
            step(state, nxt)
            values = {u: Fraction(f.value({u}), f.unit) for u in intervals}
            feasible = frozenset(state.feasible)
            assert state.scaled_f_S() == f.value(feasible)
            rounds.append((feasible, state.f_S(), Fraction(f.value(feasible), f.unit), values))
        reference = IntervalCoverage(epsilon, intervals)
        for s, f_s, value, values in rounds:
            assert f_s == value == reference.value(s)
            assert values == {u: reference.value({u}) for u in values}
