import random

import pytest

from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import CurrentWeights, Linear, WeightedCoverage
from subfree.tracker import ARRIVAL, CURRENT, OnlineState, TrackerError

from conftest import random_coverage


def fresh_state(rng=None, n=8, k=2):
    rng = rng or random.Random(11)
    return OnlineState(random_coverage(rng, n), UniformMatroid(k))


def test_w_arrival_empty_history(rng):
    st = fresh_state(rng)
    u = sorted(st.objective.elements())[0]
    assert st.w_arrival(u) == st.objective.marginal(u, frozenset())


def test_w_arrival_duplicate_coverage_is_zero():
    f = WeightedCoverage({"x": 3}, {"a": {"x"}, "b": {"x"}})
    st = OnlineState(f, UniformMatroid(2))
    st.accept("a")
    assert st.w_arrival("b") == 0


def test_w_arrival_matches_marginal_definition(rng):
    st = fresh_state(rng)
    order = sorted(st.objective.elements())
    rng.shuffle(order)
    for u in order[:5]:
        assert st.w_arrival(u) == st.objective.marginal(u, frozenset(st.history))
        st.accept(u, evict=(st.min_member() if len(st.feasible) == 2 else None))


def test_w_arrival_rejects_accepted_element(rng):
    st = fresh_state(rng)
    u = sorted(st.objective.elements())[0]
    st.accept(u)
    with pytest.raises(TrackerError):
        st.w_arrival(u)


def test_w_S_first_element_sees_empty_prefix(rng):
    st = fresh_state(rng)
    a, b, c = sorted(st.objective.elements())[:3]
    st.accept(a)
    st.accept(b)
    st.accept(c, evict=b)
    assert st.w_S(a) == st.objective.marginal(a, frozenset())


def test_w_S_equals_w_when_prefix_retained(rng):
    st = fresh_state(rng)
    a, b = sorted(st.objective.elements())[:2]
    st.accept(a)
    st.accept(b)
    assert st.w_S(b) == st.arrival_w[b]


def test_w_S_unknown_element(rng):
    st = fresh_state(rng)
    with pytest.raises(TrackerError):
        st.w_S("nope")


def test_w_S_nondecreasing_after_eviction(rng):
    for trial in range(30):
        local = random.Random(trial)
        st = OnlineState(random_coverage(local, 8), UniformMatroid(3))
        order = sorted(st.objective.elements())
        local.shuffle(order)
        prev = {}
        for u in order:
            evict = st.min_member() if len(st.feasible) == 3 else None
            st.accept(u, evict=evict)
            for v in st.feasible:
                if v in prev:
                    assert st.w_S(v) >= prev[v] - 1e-12
            prev = {v: st.w_S(v) for v in st.feasible}


def test_accept_into_empty_state(rng):
    st = fresh_state(rng)
    u = sorted(st.objective.elements())[0]
    st.accept(u)
    assert st.feasible == {u}
    assert st.history == [u]
    assert st.arrival_w[u] == st.objective.marginal(u, frozenset())


def test_accept_with_evict_keeps_size(rng):
    st = fresh_state(rng, k=1)
    a, b = sorted(st.objective.elements())[:2]
    st.accept(a)
    st.accept(b, evict=a)
    assert st.feasible == {b}
    assert len(st.history) == 2
    assert a in st.frozen_w


def test_accept_validates_transition(rng):
    st = fresh_state(rng, k=1)
    a, b, c = sorted(st.objective.elements())[:3]
    st.accept(a)
    with pytest.raises(TrackerError):
        st.accept(b)  # no room without evicting
    with pytest.raises(TrackerError):
        st.accept(b, evict=c)  # not a member
    st.accept(b, evict=a)
    with pytest.raises(TrackerError):
        st.accept(b, evict=b)  # already in history


def test_accept_checks_the_arrivals_part():
    m = PartitionMatroid({"a": "p", "b": "q", "c": "p", "d": "p"}, {"p": 1, "q": 1})
    st = OnlineState(Linear({"a": 1, "b": 2, "c": 3, "d": 4}), m)
    st.accept("a")
    st.accept("b")
    with pytest.raises(TrackerError):
        st.accept("c")  # part p is full
    with pytest.raises(TrackerError):
        st.accept("c", evict="b")  # b frees part q, not p
    assert st.feasible == {"a", "b"} and st.history == ["a", "b"]
    st.accept("c", evict="a")
    assert st.feasible == {"b", "c"}
    with pytest.raises(TrackerError):
        st.accept("d", evict="b")


def test_arrival_weights_telescope_to_f_A(rng):
    for trial in range(20):
        local = random.Random(100 + trial)
        f = random_coverage(local, 9)
        st = OnlineState(f, UniformMatroid(3))
        order = sorted(f.elements())
        local.shuffle(order)
        for u in order:
            evict = st.min_member() if len(st.feasible) == 3 else None
            st.accept(u, evict=evict)
        total = sum(st.arrival_w[u] for u in st.history)
        assert total == pytest.approx(f.value(frozenset(st.history)) - f.value(frozenset()))


def test_current_weight_sum_equals_f_S(rng):
    for trial in range(20):
        local = random.Random(300 + trial)
        f = random_coverage(local, 9)
        m = PartitionMatroid(
            {f"e{i}": ("p" if i % 2 else "q") for i in range(9)}, {"p": 2, "q": 1}
        )
        st = OnlineState(f, m)
        order = sorted(f.elements())
        local.shuffle(order)
        for u in order:
            same_part = [v for v in st.feasible if m.part(v) == m.part(u)]
            cap = m.capacity[m.part(u)]
            evict = st.min_member(same_part) if len(same_part) == cap else None
            st.accept(u, evict=evict)
            assert st.f_S() == pytest.approx(f.value(frozenset(st.feasible)))
            assert st.w_arrival_over_S() <= st.weight_total() + 1e-9
            assert st.w_A_total() == pytest.approx(
                sum(st.arrival_w[v] for v in st.history)
            )


def test_frozen_weights_stable_and_below_recomputation(rng):
    for trial in range(20):
        local = random.Random(700 + trial)
        f = random_coverage(local, 9)
        st = OnlineState(f, UniformMatroid(2))
        order = sorted(f.elements())
        local.shuffle(order)
        frozen_seen = {}
        for u in order:
            evict = st.min_member() if len(st.feasible) == 2 else None
            st.accept(u, evict=evict)
            for v, w in st.frozen_w.items():
                if v in frozen_seen:
                    assert w == frozen_seen[v]
                frozen_seen[v] = w
                assert w <= st.w_S(v) + 1e-12  # recomputed against today's set


def test_min_member_tie_breaks_earliest():
    f = Linear({"a": 1, "b": 1, "c": 1})
    st = OnlineState(f, UniformMatroid(3))
    st.accept("b")
    st.accept("a")
    st.accept("c")
    assert st.min_member() == "b"


def test_a_state_refuses_an_unknown_weight_view():
    for view in ("other", "CURRENT", None):
        with pytest.raises(ValueError, match="unknown weight view"):
            OnlineState(Linear({"a": 1}), UniformMatroid(1), view)


@pytest.mark.parametrize("view, least, total", [(CURRENT, "c", 9), (ARRIVAL, "b", 4)])
def test_a_state_ranks_and_sums_its_members_under_its_own_view(view, least, total):
    # evicting a hands x to b: b's current weight rises from 1 to 6, its
    # arrival weight stays 1
    f = WeightedCoverage({"x": 5, "y": 1, "z": 3}, {"a": ["x"], "b": ["x", "y"], "c": ["z"]})
    st = OnlineState(f, UniformMatroid(2), view)
    st.accept("a")
    st.accept("b")
    assert st.min_member() == "b"  # builds the heap before the hand-off
    st.accept("c", evict="a")
    assert st.view == view
    assert st.min_member() == st.min_member(st.feasible) == least
    assert st.weight_total() == total
    assert {v: st.member_weights()[v] for v in st.feasible} == (
        {"b": 6, "c": 3} if view == CURRENT else {"b": 1, "c": 3})
    assert st.f_S() == 9  # f does not depend on the view


# -- current-weight keepers -------------------------------------------------------


def test_ledger_hands_each_item_to_the_next_holder():
    f = WeightedCoverage({"x": 5, "y": 2, "z": 1},
                         {"a": {"x", "y"}, "b": {"x"}, "c": {"x", "z"}, "d": {"y"}})
    for keeper in (f.current_weights(), CurrentWeights(f)):
        assert [keeper.add(u) for u in "abcd"] == [7, 0, 1, 0]
        assert keeper.remove("a") == {"b": 5, "d": 2}  # x goes to b, not to the newest c
        assert keeper.remove("d") == {}
        assert keeper.remove("b") == {"c": 6}
        assert keeper.add("a") == 2  # y has no holder left
        assert keeper.remove("c") == {"a": 7}


def test_coverage_accept_calls_neither_value_nor_marginal():
    class Counted(WeightedCoverage):
        calls = 0

        def value(self, s):
            Counted.calls += 1
            return super().value(s)

        def marginal(self, u, s):
            Counted.calls += 1
            return super().marginal(u, s)

    rng = random.Random(5)
    base = random_coverage(rng, 12)
    st = OnlineState(Counted(base.universe_weight, base.covers), UniformMatroid(3))
    Counted.calls = 0
    for u in sorted(base.elements()):
        st.accept(u, evict=st.min_member() if len(st.feasible) == 3 else None)
    assert Counted.calls == 0
    assert len(st.frozen_w) == 9


def random_policy_run(local, f, k):
    """Accept every arrival, evicting a random member when S is full."""
    st = OnlineState(f, UniformMatroid(k))
    order = sorted(f.elements())
    local.shuffle(order)
    for u in order:
        evict = local.choice(sorted(st.feasible)) if len(st.feasible) == k else None
        st.accept(u, evict=evict)
        yield st


def test_current_weights_fresh_after_every_accept():
    for trial in range(30):
        local = random.Random(900 + trial)
        f = random_coverage(local, 12, n_items=5)
        for st in random_policy_run(local, f, 2 + trial % 4):
            for u in st.feasible:
                prefix = frozenset(v for v in st.feasible if st.acc_index[v] < st.acc_index[u])
                assert st.w_S(u) == f.marginal(u, prefix)
            assert st.f_S() == f.value(st.feasible)


def test_arrival_total_cache_is_the_recomputed_fold():
    for trial in range(20):
        local = random.Random(1000 + trial)
        f = Linear({f"e{i}": local.random() * 10 for i in range(12)})
        for st in random_policy_run(local, f, 3):
            st.w_arrival_over_S()  # fills the cache between evictions
            ordered = sorted(st.feasible, key=st.acc_index.__getitem__)
            assert st.w_arrival_over_S() == sum(st.arrival_w[v] for v in ordered)
