import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import opaque_matroid
from subfree.matroid import (
    ExplicitMatroid,
    MatroidError,
    PartitionMatroid,
    UniformMatroid,
    UniformOccupancy,
)
from subfree.objective import Linear
from subfree.tracker import OnlineState, TrackerError


def powerset(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def uniform_as_explicit(k, ground):
    """A small uniform matroid materialized as an explicit family."""
    ground = sorted(set(ground))
    k = min(k, len(ground))
    return ExplicitMatroid(ground, [frozenset(c) for c in combinations(ground, k)])


def outcome(query, *args):
    try:
        return query(*args)
    except MatroidError as exc:
        return ("MatroidError", str(exc))


def random_matroid(rng, ground):
    kind = rng.choice(["uniform", "partition", "explicit"])
    if kind == "uniform":
        return UniformMatroid(rng.randint(1, len(ground)))
    parts = [f"p{i}" for i in range(rng.randint(1, 3))]
    m = PartitionMatroid(
        {u: rng.choice(parts) for u in ground},
        {p: rng.randint(1, 2) for p in parts},
    )
    if kind == "partition":
        return m
    sets = m.enumerate_independent_sets(ground)
    return ExplicitMatroid(ground, [s for s in sets if not any(s < t for t in sets)])


def test_uniform_membership():
    m = UniformMatroid(2)
    assert m.is_independent({"e1", "e2"})
    assert not m.is_independent({"e1", "e2", "e3"})


def test_partition_capacity():
    m = PartitionMatroid({"e1": "p", "e2": "p"}, {"p": 1})
    assert not m.is_independent({"e1", "e2"})
    assert m.is_independent({"e1"})


def test_partition_unlabelled_element_rejected():
    m = PartitionMatroid({"e1": "p"}, {"p": 1})
    with pytest.raises(MatroidError):
        m.is_independent({"e9"})


def test_uniform_rejects_bad_k():
    with pytest.raises(MatroidError):
        UniformMatroid(0)


def test_exchange_set_uniform_singleton():
    m = UniformMatroid(1)
    assert m.exchange_set({"e1"}, "e2") == {"e1"}


def test_exchange_set_partition_same_part_blocks():
    m = PartitionMatroid({"e1": "p", "e2": "q", "e3": "p"}, {"p": 1, "q": 1})
    assert m.exchange_set({"e1", "e2"}, "e3") == {"e1"}


def test_exchange_set_requires_independent_base():
    m = UniformMatroid(1)
    with pytest.raises(MatroidError):
        m.exchange_set({"a", "b"}, "c")


def test_exchange_set_matches_definition_on_explicit():
    maximal = [{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}, {"b", "d"}]
    m = ExplicitMatroid("abcd", maximal)
    for s in m.enumerate_independent_sets(m.ground):
        for u in m.ground - s:
            expected = frozenset(v for v in s if m.is_independent((s - {v}) | {u}))
            assert m.exchange_set(s, u) == expected


def test_enumerate_uniform_k1():
    m = UniformMatroid(1)
    sets = set(m.enumerate_independent_sets({"a", "b"}))
    assert sets == {frozenset(), frozenset({"a"}), frozenset({"b"})}


def test_enumerate_partition_cap1():
    m = PartitionMatroid({"a": "p", "b": "p"}, {"p": 1})
    sets = set(m.enumerate_independent_sets({"a", "b"}))
    assert sets == {frozenset(), frozenset({"a"}), frozenset({"b"})}


def test_enumerate_counts_uniform_k2_of_5():
    m = UniformMatroid(2)
    ground = {f"e{i}" for i in range(5)}
    assert len(m.enumerate_independent_sets(ground)) == 16  # C(5,0)+C(5,1)+C(5,2)


def test_enumerate_no_duplicates_and_downward_closed():
    rng = random.Random(5)
    m = PartitionMatroid(
        {f"e{i}": rng.choice("pq") for i in range(7)}, {"p": 2, "q": 1}
    )
    ground = {f"e{i}" for i in range(7)}
    sets = m.enumerate_independent_sets(ground)
    assert len(sets) == len(set(sets))
    listed = set(sets)
    for s in sets:
        assert m.is_independent(s)
        for v in s:
            assert s - {v} in listed
    # completeness against the definitional sweep
    assert listed == {s for s in powerset(ground) if m.is_independent(s)}


def test_enumerate_ground_guard():
    m = UniformMatroid(3)
    with pytest.raises(MatroidError):
        m.enumerate_independent_sets({f"e{i}" for i in range(21)})


def test_explicit_validates_downward_closure_and_singletons():
    with pytest.raises(MatroidError):
        ExplicitMatroid("abc", [{"a", "b"}])  # c never independent


def test_explicit_rejects_unequal_bases():
    with pytest.raises(MatroidError):
        ExplicitMatroid("abc", [{"a", "b"}, {"c"}])


def test_explicit_rejects_exchange_violation():
    # Two disjoint pairs only: {a,b} and {c,d} cannot exchange one element.
    with pytest.raises(MatroidError):
        ExplicitMatroid("abcd", [{"a", "b"}, {"c", "d"}])


def test_explicit_rejects_nested_maximal_sets():
    with pytest.raises(MatroidError):
        ExplicitMatroid("ab", [{"a", "b"}, {"a"}])


@given(st.integers(1, 4), st.integers(1, 6), st.randoms(use_true_random=False))
def test_uniform_exchange_axiom_via_explicit(k, n, rnd):
    ground = [f"e{i}" for i in range(n)]
    m = uniform_as_explicit(k, ground)  # load-time validation is the check
    assert m.is_independent(rnd.sample(ground, min(k, n)))


@given(
    st.integers(2, 6),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_exchange_set_matches_definition_partition(n, n_parts, rnd):
    ground = [f"e{i}" for i in range(n)]
    parts = [f"p{i}" for i in range(n_parts)]
    m = PartitionMatroid(
        {u: rnd.choice(parts) for u in ground},
        {p: rnd.randint(1, 2) for p in parts},
    )
    pool = [u for u in ground]
    rnd.shuffle(pool)
    s = set()
    for u in pool[:-1]:
        if m.is_independent(s | {u}):
            s.add(u)
    u = pool[-1]
    s.discard(u)
    expected = frozenset(v for v in s if m.is_independent((s - {v}) | {u}))
    assert m.exchange_set(s, u) == expected


def test_exchange_axiom_spot_check_partition():
    m = PartitionMatroid(
        {"a": "p", "b": "p", "c": "q", "d": "q"}, {"p": 1, "q": 2}
    )
    ground = {"a", "b", "c", "d"}
    sets = m.enumerate_independent_sets(ground)
    for s in sets:
        for t in sets:
            if len(s) < len(t):
                assert any(m.is_independent(s | {v}) for v in t - s)


class Held:
    """A matroid's occupancy and the reference one holding the same set;
    ``add`` and ``remove`` update both."""

    def __init__(self, m):
        self.fast = m.occupancy()
        self.slow = opaque_matroid(m).occupancy()

    @property
    def members(self):
        assert self.fast.held == self.slow.held
        return self.fast.held

    def add(self, u):
        self.fast.add(u)
        self.slow.add(u)

    def remove(self, v):
        self.fast.remove(v)
        self.slow.remove(v)

    def agree(self, u, evict=None):
        """Both occupancies answer alike for arrival u, errors included; an
        exchange set of a uniform matroid is the held snapshot itself."""
        fit = outcome(self.fast.can_add, u, evict)
        assert fit == outcome(self.slow.can_add, u, evict)
        if evict is None:
            swap = outcome(self.fast.exchange_set, u)
            assert swap == outcome(self.slow.exchange_set, u)
            if isinstance(self.fast, UniformOccupancy) and isinstance(swap, frozenset):
                assert swap is self.fast.held
        return fit


def test_native_queries_match_generic_definition():
    """Each matroid's occupancy against the reference, over random accept and
    accept-with-evict sequences; now and then an element is added unchecked,
    so that the held set turns dependent and the queries must say so."""
    rng = random.Random(6)
    kinds = set()
    for _ in range(300):
        ground = [f"e{i}" for i in range(rng.randint(1, 7))]
        m = random_matroid(rng, ground)
        kinds.add(type(m))
        held = Held(m)
        for _ in range(12):
            members = sorted(held.members)
            for u in ground:
                held.agree(u)
                if members and u not in held.members:
                    held.agree(u, rng.choice(members))
            if isinstance(m, PartitionMatroid) and m.is_independent(held.members):
                # an unlabelled arrival; past a dependent set the generic
                # scan may stop at an over-full part before it reaches it
                assert held.agree("z")[0] == "MatroidError"
            fresh = [u for u in ground if u not in held.members]
            if not fresh:
                break
            u = rng.choice(fresh)
            evict = rng.choice(members) if members and rng.random() < 0.5 else None
            if held.agree(u, evict) is True:
                if evict is not None:
                    held.remove(evict)
                held.add(u)
            elif rng.random() < 0.2:
                held.add(u)
    assert kinds == {UniformMatroid, PartitionMatroid, ExplicitMatroid}


def test_dependent_accept_leaves_the_occupancy_unchanged():
    """Random accept attempts on a state: one raises exactly when the set it
    asks for is dependent, and after every attempt the state's occupancy
    answers as the set-argument queries do on the state's feasible set."""
    rng = random.Random(16)
    raised = 0
    for _ in range(100):
        ground = [f"e{i}" for i in range(rng.randint(2, 7))]
        m = random_matroid(rng, ground)
        state = OnlineState(Linear({u: rng.randint(1, 9) for u in ground}), m)
        order = list(ground)
        rng.shuffle(order)
        for u in order:
            before = state.feasible
            evict = rng.choice(sorted(before)) if before and rng.random() < 0.5 else None
            fits = m.is_independent((before - {evict}) | {u})
            if fits:
                state.accept(u, evict=evict)
            else:
                with pytest.raises(TrackerError, match="violates independence"):
                    state.accept(u, evict=evict)
                assert state.feasible is before
                raised += 1
            assert state.feasible is state.occupancy.held
            for v in ground:
                if v not in state.acc_index:
                    assert outcome(state.occupancy.can_add, v) == outcome(m.can_add, state.feasible, v)
                    assert (outcome(state.occupancy.exchange_set, v)
                            == outcome(m.exchange_set, state.feasible, v))
    assert raised > 50


ERROR_MATROIDS = {
    "uniform": UniformMatroid(2),
    "partition": PartitionMatroid({"a": "p", "b": "p", "c": "q", "d": "q"}, {"p": 1, "q": 1}),
    "explicit": ExplicitMatroid("abcd", [{"a", "c"}, {"b", "c"}, {"a", "d"}, {"b", "d"}]),
}


@pytest.mark.parametrize("name", sorted(ERROR_MATROIDS))
@pytest.mark.parametrize("s, u", [
    ({"a"}, "a"),
    ({"a", "b", "c"}, "d"),
    ({"a"}, "z"),
], ids=["u-in-s", "dependent-s", "unlabelled-u"])
def test_native_query_errors_match_generic(name, s, u):
    held = Held(ERROR_MATROIDS[name])
    for v in sorted(s):
        held.add(v)  # unchecked: the dependent case holds a dependent set
    fit = held.agree(u)
    if u != "a":
        held.agree(u, "a")
    # every id is a valid element of a uniform matroid
    raises = not (name == "uniform" and u == "z")
    assert isinstance(outcome(held.fast.exchange_set, u), tuple) == raises
    if name == "partition" and u == "z":
        assert fit == ("MatroidError", "element 'z' has no part label")
