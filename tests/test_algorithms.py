import math
import random
from fractions import Fraction

import pytest

from subfree.algorithms import (
    Agent,
    Decision,
    NonmonotoneGeneralRun,
    NonmonotoneUniformRun,
    commit_general_matroid,
    commit_k_uniform,
    dispatch_uniform,
    exchange_ratio,
    propose_general_matroid,
    propose_k_uniform,
    solve_alpha,
    step_best_singleton,
    step_general_matroid,
    step_bipartite,
    step_k_uniform,
)
from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import Linear, ThinnedObjective, WeightedCoverage, sampled_value_p
from subfree.oracle import (
    brute_force_opt,
    greedy_optimality_gap,
    prefix_optima,
    random_instance,
    random_submodular_table,
)
from subfree.tracker import ARRIVAL, CURRENT, InvariantViolation, OnlineState

from conftest import random_coverage


# -- threshold constants ------------------------------------------------------


def test_alpha_infinity_value():
    a = solve_alpha("inf")
    assert abs(a.value - 3.14619) < 1e-4
    assert abs(math.exp(a.value - 2) - a.value) < 1e-9


def test_alpha_4_bounds():
    a = solve_alpha(4)
    assert a.value > 3.37
    assert 1 / a.value > 0.2959


def test_alpha_decreasing_in_k():
    assert solve_alpha(5).value < solve_alpha(4).value
    prev = solve_alpha(4).value
    for k in range(5, 60):
        cur = solve_alpha(k).value
        assert cur < prev
        prev = cur
    assert prev > solve_alpha("inf").value


def test_alpha_rho3_root_and_ratio():
    a9 = solve_alpha(9, rho=3)
    assert a9.value >= 4
    assert (1 / a9.value) * (1 - 1 / 3) > 0.1145
    inf3 = solve_alpha("inf", rho=3)
    assert inf3.value > 5.749
    assert a9.value > inf3.value


def test_alpha_invalid_inputs():
    with pytest.raises(ValueError):
        solve_alpha(3)  # rho=1 needs k >= 4
    with pytest.raises(ValueError):
        solve_alpha(5, rho=2)


# -- capacity rule -------------------------------------------------------------


def linear_state(weights, k, view=CURRENT):
    return OnlineState(Linear(weights), UniformMatroid(k), view)


def test_k_uniform_first_arrival_accepted():
    st = linear_state({f"e{i}": i + 1 for i in range(6)}, 4)
    d = step_k_uniform(st, "e0", solve_alpha(4))
    assert d.accepted and d.evicted is None


def test_k_uniform_zero_weight_rejected():
    st = OnlineState(
        WeightedCoverage({"x": 1}, {"a": {"x"}, "b": {"x"}}), UniformMatroid(4)
    )
    alpha = solve_alpha(4)
    assert step_k_uniform(st, "a", alpha).accepted
    d = step_k_uniform(st, "b", alpha)  # fully covered, w = 0, strict >
    assert not d.accepted


def test_k_uniform_threshold_boundary_hand_computed():
    # after one accept of weight 1 at k=4, the bar is (alpha - 1) / 4 = 0.5946;
    # 0.5 must be rejected and 0.62 accepted (disjoint linear weights)
    alpha = solve_alpha(4)
    bar = (alpha.value - 1) / 4
    assert 0.5 < bar < 0.62
    st = OnlineState(Linear({"a": 1, "b": 0.5, "c": 0.62}), UniformMatroid(4))
    assert step_k_uniform(st, "a", alpha).accepted
    assert not step_k_uniform(st, "b", alpha).accepted
    assert step_k_uniform(st, "c", alpha).accepted


def test_k_uniform_exact_tie_at_threshold_rejects():
    # empty state: threshold is exactly 0, and a zero-weight arrival ties it
    st = OnlineState(Linear({"a": 0, "b": 1}), UniformMatroid(4))
    d = step_k_uniform(st, "a", solve_alpha(4))
    assert not d.accepted
    assert st.feasible == set() and st.history == []


def test_general_exact_tie_at_replacement_factor_accepts():
    # the replacement comparison is non-strict: exactly twice the weight swaps
    f = WeightedCoverage({"x": 1, "y": 2}, {"a": {"x"}, "b": {"y"}})
    st = OnlineState(f, UniformMatroid(1))
    step_general_matroid(st, "a")
    d = step_general_matroid(st, "b")  # w = 2 == 2 * w_S(a)
    assert d.accepted and d.evicted == "a"


def test_k_uniform_requires_uniform_matroid():
    st = OnlineState(Linear({"a": 1}), PartitionMatroid({"a": "p"}, {"p": 1}))
    with pytest.raises(ValueError):
        step_k_uniform(st, "a", solve_alpha(4))


def test_k_uniform_rejects_mismatched_constant():
    st = OnlineState(Linear({"a": 1}), UniformMatroid(4))
    with pytest.raises(ValueError):
        step_k_uniform(st, "a", solve_alpha(5))


def test_monotone_rules_assert_monotone_flag():
    table = random_submodular_table(random.Random(1), 5, monotone=False)
    assert not table.monotone
    st = OnlineState(table, UniformMatroid(4))
    with pytest.raises(ValueError):
        step_k_uniform(st, sorted(table.ground)[0], solve_alpha(4))
    st2 = OnlineState(table, UniformMatroid(4))
    with pytest.raises(ValueError):
        step_general_matroid(st2, sorted(table.ground)[0])


# The capacity rule checks that it fits the state when it computes the
# state's threshold, which the state caches until its next accept: a failed
# check caches nothing, and a cached threshold serves only the constant it
# was computed for.


def raises_every_time(call, match):
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            call()


def test_capacity_rule_refuses_a_non_uniform_matroid_on_every_arrival():
    for view in (CURRENT, ARRIVAL):
        st = OnlineState(Linear({"a": 1, "b": 2}),
                         PartitionMatroid({"a": "p", "b": "p"}, {"p": 4}), view)
        raises_every_time(lambda: propose_k_uniform(st, "a", solve_alpha(4)), "uniform matroid")
        raises_every_time(lambda: commit_k_uniform(st, Decision("a", True, w_u=1),
                                                   solve_alpha(4)), "uniform matroid")
        assert st.threshold_cache is None and not st.history


@pytest.mark.parametrize("cached", [False, True])
def test_capacity_rule_refuses_a_constant_for_another_k(cached):
    alpha = solve_alpha(4)
    for view in (CURRENT, ARRIVAL):
        st = linear_state({"a": 4, "b": 1, "c": 2}, 4, view)
        if cached:
            assert step_k_uniform(st, "a", alpha).accepted
            entry = st.threshold_cache
            assert entry[0] == (1, alpha)
        for other in (solve_alpha(5), solve_alpha(4, rho=3)):
            raises_every_time(lambda: propose_k_uniform(st, "b", other), "does not fit")
            raises_every_time(lambda: step_k_uniform(st, "b", other), "does not fit")
        if cached:
            assert st.threshold_cache is entry
        # b (weight 1) clears an empty state's threshold, not the one a (4) left
        assert propose_k_uniform(st, "b", alpha).accepted is not cached
    # current weights take rho = 1 only; arrival weights take rho * k = capacity
    randomized = solve_alpha(4, rho=3)
    raises_every_time(lambda: propose_k_uniform(linear_state({"a": 1}, 12), "a", randomized),
                      "does not fit")
    assert propose_k_uniform(linear_state({"a": 1}, 12, ARRIVAL), "a", randomized).accepted


@pytest.mark.parametrize("cached", [False, True])
def test_capacity_rule_refuses_a_non_monotone_objective_under_current_weights(cached):
    table = random_submodular_table(random.Random(1), 5, monotone=False)
    assert not table.monotone
    st = OnlineState(table, UniformMatroid(12))
    arrival = OnlineState(table, UniformMatroid(12), ARRIVAL)
    first, second = sorted(table.ground)[:2]
    randomized = solve_alpha(4, rho=3)  # the randomized rule's constant at capacity 12
    if cached:
        # the current-view state gets a history, the arrival-view one a cached entry
        st.accept(first)
        propose_k_uniform(arrival, first, randomized)
        assert arrival.threshold_cache[0] == (0, randomized)
    raises_every_time(lambda: propose_k_uniform(st, second, solve_alpha(12)), "monotone")
    raises_every_time(lambda: step_k_uniform(st, second, solve_alpha(12)), "monotone")
    # the randomized rule's constant under current weights: monotone first
    raises_every_time(lambda: propose_k_uniform(st, second, randomized), "monotone")
    assert st.threshold_cache is None
    propose_k_uniform(arrival, second, randomized)
    assert arrival.threshold_cache[0] == (0, randomized)


@pytest.mark.parametrize("c", [1, Fraction(1), Fraction(999, 1000), 0.5, 1.0, 0, -2,
                               Fraction(-3, 2), math.nan])
def test_exchange_rule_refuses_c_at_most_one(c):
    st = OnlineState(Linear({"a": 1, "b": 5}), UniformMatroid(1))
    st.accept("a")
    for _ in range(2):
        with pytest.raises(ValueError, match="c > 1"):
            propose_general_matroid(st, "b", c)
        with pytest.raises(ValueError, match="c > 1"):
            step_general_matroid(st, "b", c)
        with pytest.raises(ValueError, match="c > 1"):
            exchange_ratio(c)
    for above in (Fraction(1001, 1000), 1.001, 2):
        assert propose_general_matroid(st, "b", above).accepted


def test_k_uniform_replacement_bound_on_random_runs():
    alpha = solve_alpha(4)
    for trial in range(40):
        rng = random.Random(trial)
        f, _, order = random_instance(rng, 10)
        st = OnlineState(f, UniformMatroid(4))
        for u in order:
            d = step_k_uniform(st, u, alpha)
            if d.accepted and d.evicted is not None:
                assert d.w_u > alpha.value / (alpha.value - 1) * d.w_evicted - 1e-9


def test_k_uniform_threshold_never_negative_and_monotone():
    alpha = solve_alpha(5)
    rng = random.Random(9)
    f, _, order = random_instance(rng, 12)
    st = OnlineState(f, UniformMatroid(5))
    last = 0
    for u in order:
        step_k_uniform(st, u, alpha)
        q = alpha.value * st.weight_total() - st.w_A_total()
        assert q >= last - 1e-9
        last = q


# -- exchange rule --------------------------------------------------------------


def test_general_accepts_free_slot():
    st = OnlineState(Linear({"a": 2, "b": 1}), UniformMatroid(2))
    assert step_general_matroid(st, "a").accepted


def test_general_rejects_zero_weight_even_with_room():
    f = WeightedCoverage({"x": 1}, {"a": {"x"}, "b": {"x"}})
    st = OnlineState(f, UniformMatroid(3))
    step_general_matroid(st, "a")
    assert not step_general_matroid(st, "b").accepted


def test_general_replacement_threshold_hand_example():
    # values 1 then 2.5 with disjoint covers: replacement fires (2.5 >= 2*1)
    f = WeightedCoverage({"x": 1, "y": 2.5}, {"a": {"x"}, "b": {"y"}})
    st = OnlineState(f, UniformMatroid(1))
    step_general_matroid(st, "a")
    d = step_general_matroid(st, "b")
    assert d.accepted and d.evicted == "a"
    # values 1 then 1.9: no replacement
    f2 = WeightedCoverage({"x": 1, "y": 1.9}, {"a": {"x"}, "b": {"y"}})
    st2 = OnlineState(f2, UniformMatroid(1))
    step_general_matroid(st2, "a")
    assert not step_general_matroid(st2, "b").accepted


def test_general_requires_c_above_one():
    st = OnlineState(Linear({"a": 1}), UniformMatroid(1))
    with pytest.raises(ValueError):
        step_general_matroid(st, "a", c=1)


def test_general_history_bound_holds():
    for trial in range(30):
        rng = random.Random(500 + trial)
        f, m, order = random_instance(rng, 10)
        st = OnlineState(f, m)
        for u in order:
            step_general_matroid(st, u)  # raises InvariantViolation if broken
            assert st.w_A_total() <= 2 * st.w_arrival_over_S() + 1e-9


def test_general_per_round_quarter_of_prefix_opt():
    for trial in range(25):
        rng = random.Random(900 + trial)
        f, m, order = random_instance(rng, 9)
        st = OnlineState(f, m)
        opts = prefix_optima(f, m, order)
        for i, u in enumerate(order):
            step_general_matroid(st, u)
            assert st.f_S() >= 0.25 * opts[i] - 1e-9


from hypothesis import given, settings, strategies as hyp_st


@given(hyp_st.integers(0, 100_000))
@settings(max_examples=40)
def test_general_quarter_ratio_property(seed):
    rng = random.Random(seed)
    f, m, order = random_instance(rng, rng.randint(4, 8))
    st = OnlineState(f, m)
    opts = prefix_optima(f, m, order)
    for i, u in enumerate(order):
        step_general_matroid(st, u)
        assert st.f_S() >= 0.25 * opts[i] - 1e-9


@given(hyp_st.integers(0, 100_000))
@settings(max_examples=30)
def test_capacity_ratio_property(seed):
    rng = random.Random(seed)
    k = rng.randint(4, 6)
    from subfree.oracle import random_escalating_instance

    if seed % 2:
        f, order = random_escalating_instance(rng, rng.randint(k + 2, 10))
    else:
        f, _, order = random_instance(rng, rng.randint(k + 2, 10))
    alpha = solve_alpha(k)
    st = OnlineState(f, UniformMatroid(k))
    opts = prefix_optima(f, UniformMatroid(k), order)
    for i, u in enumerate(order):
        step_k_uniform(st, u, alpha)
        assert st.f_S() >= alpha.ratio * opts[i] - 1e-9


def test_greedy_optimality_of_feasible_set():
    for trial in range(25):
        rng = random.Random(1300 + trial)
        f, m, order = random_instance(rng, 9)
        st = OnlineState(f, m)
        for u in order:
            step_general_matroid(st, u)
            assert greedy_optimality_gap(st) <= 1e-9


def test_prefix_optima_agrees_with_brute_force():
    for trial in range(15):
        rng = random.Random(2024 + trial)
        f, m, order = random_instance(rng, 8)
        sweep = prefix_optima(f, m, order)
        for i in range(len(order)):
            _, expected = brute_force_opt(f, m, order[: i + 1])
            assert sweep[i] == expected


# -- best singleton ---------------------------------------------------------------


def test_best_singleton_keeps_running_max():
    f = Linear({"a": 1, "b": 3, "c": 2})
    st = OnlineState(f, UniformMatroid(1))
    for u in ["a", "b", "c"]:
        step_best_singleton(st, u)
    assert st.feasible == {"b"}


def test_best_singleton_tie_keeps_first():
    f = Linear({"a": 2, "b": 2})
    st = OnlineState(f, UniformMatroid(1))
    step_best_singleton(st, "a")
    step_best_singleton(st, "b")
    assert st.feasible == {"a"}


def test_best_singleton_achieves_max_singleton():
    rng = random.Random(77)
    for _ in range(20):
        weights = {f"e{i}": rng.randint(0, 9) for i in range(8)}
        f = Linear(weights)
        k = rng.randint(2, 4)
        st = OnlineState(f, UniformMatroid(k))
        order = sorted(weights)
        rng.shuffle(order)
        for u in order:
            step_best_singleton(st, u)
        _, opt = brute_force_opt(f, UniformMatroid(k), weights.keys())
        assert st.f_S() == max(weights.values())
        assert st.f_S() >= opt / k


def test_dispatch_uniform_routes():
    step, ratio = dispatch_uniform(2)
    assert ratio == 0.5
    step4, ratio4 = dispatch_uniform(4)
    assert ratio4 == pytest.approx(1 / solve_alpha(4).value)


def test_exchange_ratio():
    assert exchange_ratio() == exchange_ratio(Fraction(2)) == Fraction(1, 4)
    assert exchange_ratio(5) == Fraction(4, 25) == 1 / (Fraction(5, 4) + 5)
    assert exchange_ratio(1.5) == Fraction(2, 9)
    for c in (1, 0, -3, Fraction(1, 2), math.nan):
        with pytest.raises(ValueError, match="needs c > 1"):
            exchange_ratio(c)


# -- bipartite composition ----------------------------------------------------------


def test_bipartite_single_agent_matches_alone():
    rng = random.Random(31)
    f, m, order = random_instance(rng, 9)
    solo = OnlineState(f, m)
    st = OnlineState(f, m)
    agents = [Agent.general(st)]
    for u in order:
        step_bipartite(agents, u)
        step_general_matroid(solo, u)
        assert agents[0].state.feasible == solo.feasible


def test_bipartite_no_proposer_discards():
    f = WeightedCoverage({"x": 1}, {"a": {"x"}, "b": {"x"}, "c": {"x"}})
    s1, s2 = OnlineState(f, UniformMatroid(1)), OnlineState(f, UniformMatroid(1))
    agents = [Agent.general(s1), Agent.general(s2)]
    idx, _ = step_bipartite(agents, "a")
    assert idx == 0
    idx2, _ = step_bipartite(agents, "b")  # worth 0 to agent 0; 1 to agent 1
    assert idx2 == 1
    before = (frozenset(s1.feasible), frozenset(s2.feasible))
    idx3, d3 = step_bipartite(agents, "c")  # covered for both: nobody proposes
    assert idx3 is None and d3 is None
    assert (frozenset(s1.feasible), frozenset(s2.feasible)) == before


def test_bipartite_assigns_to_larger_gain():
    fa = Linear({"u": 3})
    fb = Linear({"u": 1})
    a = Agent.general(OnlineState(fa, UniformMatroid(1)))
    b = Agent.general(OnlineState(fb, UniformMatroid(1)))
    idx, d = step_bipartite([a, b], "u")
    assert idx == 0 and d.accepted
    assert a.state.feasible == {"u"} and b.state.feasible == set()


def test_bipartite_commits_the_winning_proposal_it_holds():
    proposals = []

    def counted(agent):
        propose = agent.propose

        def recorded(st, u):
            proposals.append(propose(st, u))
            return proposals[-1]

        agent.propose = recorded
        return agent

    a = counted(Agent.general(OnlineState(Linear({"u": 3, "v": 1}), UniformMatroid(1))))
    b = counted(Agent.k_uniform(OnlineState(Linear({"u": 1, "v": 5}), UniformMatroid(4)),
                                solve_alpha(4)))
    idx, d = step_bipartite([a, b], "u")
    assert (idx, len(proposals)) == (0, 2) and d is proposals[0]
    idx, d = step_bipartite([a, b], "v")  # a is full and v is too light to swap
    assert (idx, len(proposals)) == (1, 4) and d is proposals[3]
    assert a.state.feasible == {"u"} and b.state.feasible == {"v"}


# -- laws checked by the commits ----------------------------------------------------
#
# Each forged decision is one the rules never propose; committing it must
# raise.  Linear weights make arrival and current weights equal, so the same
# members make a state under either view.


def linear_members(weights, k, members, view=CURRENT):
    """A linear state holding ``members``, accepted through the tracker alone."""
    st = linear_state(weights, k, view)
    for u in members:
        st.accept(u)
    return st


def forged_commit_error(commit, st, forged, *args):
    with pytest.raises(InvariantViolation) as err:
        commit(st, forged, *args)
    return str(err.value)


@pytest.mark.parametrize("view", [CURRENT, ARRIVAL])
def test_commit_k_uniform_checks_the_replacement_factor(view):
    st = linear_members({"a": 8, "b": 1, "c": 1, "d": 1, "e": 2}, 4, "abcd", view)
    forged = Decision("e", True, evicted="b", w_u=1, w_evicted=1)  # w(e) is 2
    assert "replacement bound" in forged_commit_error(
        commit_k_uniform, st, forged, solve_alpha(4))
    assert st.feasible == set("abcd")


@pytest.mark.parametrize("view", [CURRENT, ARRIVAL])
def test_commit_k_uniform_checks_the_threshold(view):
    # swapping a (8) for e (8.5) raises f by 0.5 and w(A) by 8.5 > alpha * 0.5
    st = linear_members({"a": 8, "b": 1, "c": 1, "d": 1, "e": 8.5}, 4, "abcd", view)
    forged = Decision("e", True, evicted="a", w_u=8.5, w_evicted=1)  # a weighs 8
    assert "threshold quantity decreased" in forged_commit_error(
        commit_k_uniform, st, forged, solve_alpha(4))


@pytest.mark.parametrize("view", [CURRENT, ARRIVAL])
def test_commit_general_matroid_checks_the_history_bound(view):
    # swapping a (8) for e (8.5) raises f, but w(A) = 16.5 > 3/2 * w(S)
    st = linear_members({"a": 8, "e": 8.5}, 1, "a", view)
    forged = Decision("e", True, evicted="a", w_u=8.5, w_evicted=8)  # c = 3 asks 24
    assert "history bound" in forged_commit_error(commit_general_matroid, st, forged, 3)


def test_commits_check_strict_increase_under_current_weights_only():
    alpha = solve_alpha(4)
    for view, capacity_law, exchange_law in (
        (CURRENT, "did not strictly increase", "did not strictly increase"),
        (ARRIVAL, "threshold quantity decreased", "history bound"),
    ):
        # evicting the heavy a for a light e lowers f
        st = linear_members({"a": 8, "b": 1, "c": 1, "d": 1, "e": 2}, 4, "abcd", view)
        forged = Decision("e", True, evicted="a", w_u=100, w_evicted=1)
        assert capacity_law in forged_commit_error(commit_k_uniform, st, forged, alpha)
        st = linear_members({"a": 8, "b": 1, "e": 1}, 2, "ab", view)
        forged = Decision("e", True, evicted="a", w_u=1, w_evicted=8)
        assert exchange_law in forged_commit_error(commit_general_matroid, st, forged, 2)


def test_commits_leave_a_rejected_proposal_uncommitted():
    alpha = solve_alpha(4)
    for commit, rule_arg in ((commit_k_uniform, alpha), (commit_general_matroid, 2)):
        st = linear_members({"a": 8, "e": 2}, 4, "a")
        rejected = Decision("e", False, w_u=2)
        assert commit(st, rejected, rule_arg) is rejected
        assert st.feasible == {"a"} and st.history == ["a"]


# -- non-monotone variants -------------------------------------------------------------


def test_nonmono_general_rejects_negative_marginal():
    table = random_submodular_table(random.Random(4), 5, monotone=False)
    run = NonmonotoneGeneralRun(table, UniformMatroid(3), seed=1)
    order = sorted(table.ground)
    seen_negative = False
    for u in order:
        w = run.state.w_arrival(u) if u not in run.state.acc_index else None
        d = run.step(u)
        if w is not None and w <= 0:
            seen_negative = True
            assert not d.accepted


def test_nonmono_general_coin_one_matches_deterministic_over_g():
    rng = random.Random(13)
    f = random_coverage(rng, 8)
    m = UniformMatroid(2)
    run = NonmonotoneGeneralRun(f, m, coin=lambda: 1)
    order = sorted(f.elements())
    rng.shuffle(order)
    g = ThinnedObjective(f, 0.5)
    for u in order:
        run.step(u)
    assert run.feasible_set() == frozenset(run.state.feasible)
    # the auxiliary trajectory is driven by g-arrival weights only
    assert run.state.f_S() == pytest.approx(g.value(frozenset(run.state.feasible)))


def test_nonmono_general_expected_value_is_half_thinning():
    rng = random.Random(21)
    table = random_submodular_table(rng, 5, monotone=False)
    run = NonmonotoneGeneralRun(table, UniformMatroid(2), seed=3)
    order = sorted(table.ground)
    rng.shuffle(order)
    for u in order:
        run.step(u)
    exact = sampled_value_p(table, frozenset(run.state.feasible), 0.5)
    assert run.expected_feasible_value() == pytest.approx(exact)
    # and the sampled coin run only ever keeps a subset of the auxiliary set
    assert run.feasible_set() <= frozenset(run.state.feasible)


def test_nonmono_uniform_feasible_size_and_blocks():
    rng = random.Random(8)
    table = random_submodular_table(rng, 7, monotone=False)
    run = NonmonotoneUniformRun(table, k=2, seed=5)
    order = sorted(table.ground)
    rng.shuffle(order)
    for u in order:
        run.step(u)
    assert len(run.state.feasible) <= 6  # rho * k
    assert len(run.feasible_set()) <= 2
    for choice in ([0, 0], [1, 2], [2, 1]):
        assert len(run.feasible_set(choice)) <= 2


def test_nonmono_uniform_eviction_path_and_slot_reuse():
    from subfree.oracle import random_escalating_instance

    total_evictions = 0
    for trial in range(10):
        rng = random.Random(trial)
        f, order = random_escalating_instance(rng, 12)
        run = NonmonotoneUniformRun(f, k=2, seed=trial)  # auxiliary capacity 6
        for u in order:
            d = run.step(u)  # raises if the replacement factor is violated
            if d.accepted and d.evicted is not None:
                total_evictions += 1
                assert run.slot_of[u] < 6
                assert d.evicted not in run.slot_of
        slots = list(run.slot_of.values())
        assert len(slots) == len(set(slots))
        assert len(run.state.feasible) <= 6
    assert total_evictions > 10


def test_dispatcher_corollary_worst_k():
    # 1/k wins for k <= 3; among k >= 4 the floor is worst at k = 4
    ratios = {k: solve_alpha(k).ratio for k in range(4, 31)}
    assert all(1.0 / k < ratios[k] for k in range(4, 31))
    assert all(1.0 / k > ratios[4] for k in range(1, 4))
    assert min(ratios.values()) == ratios[4] > 0.2959


def test_blown_up_corollary_worst_k_is_9():
    best = {}
    for k in range(1, 40):
        thinned = solve_alpha(k, rho=3).ratio * (1 - 1 / 3)
        best[k] = max(1.0 / k, thinned)
    worst_k = min(best, key=best.get)
    assert worst_k == 9
    assert best[9] > 0.1145


def test_nonmono_uniform_expected_ratio_bound():
    alpha = solve_alpha(4, rho=3)
    bound = (1 / alpha.value) * (1 - 1 / 3)
    for trial in range(10):
        rng = random.Random(4000 + trial)
        table = random_submodular_table(rng, 7, monotone=False)
        run = NonmonotoneUniformRun(table, k=4, seed=trial)
        order = sorted(table.ground)
        rng.shuffle(order)
        for u in order:
            run.step(u)
        _, opt = brute_force_opt(table, UniformMatroid(4), table.ground)
        assert run.expected_feasible_value() >= bound * opt - 1e-9


# -- seeded samples against a fresh run ------------------------------------------


def _nonmono_streams():
    """Non-monotone tables, then escalating streams on which S evicts."""
    from subfree.oracle import random_escalating_instance

    for trial in range(6):
        rng = random.Random(500 + trial)
        table = random_submodular_table(rng, 7, monotone=False)
        order = list(table.ground)
        rng.shuffle(order)
        yield table, order
    for trial in range(6):
        yield random_escalating_instance(random.Random(trial), 9)


def _fresh_run(make, order, seed):
    """The definitional path: a new run with this seed replays the stream."""
    run = make(seed)
    for u in order:
        run.step(u)
    return run


def _assert_samples_match_fresh_runs(make, order):
    run = _fresh_run(make, order, 0)
    for seed in range(8):
        assert run.sample_with_seed(seed) == _fresh_run(make, order, seed).feasible_set()
    return len(run.state.history) - len(run.state.feasible)


def test_nonmono_general_seeded_sample_matches_fresh_run():
    evictions = 0
    for f, order in _nonmono_streams():
        halves = PartitionMatroid({u: f"p{i % 2}" for i, u in enumerate(sorted(order))},
                                  {"p0": 1, "p1": 2})
        for m in (UniformMatroid(2), halves):
            evictions += _assert_samples_match_fresh_runs(
                lambda s: NonmonotoneGeneralRun(f, m, seed=s), order)
    assert evictions > 10


def test_nonmono_uniform_seeded_sample_matches_fresh_run():
    evictions = 0
    for f, order in _nonmono_streams():
        for k in (1, 2):
            evictions += _assert_samples_match_fresh_runs(
                lambda s: NonmonotoneUniformRun(f, k=k, seed=s), order)
    assert evictions > 10
