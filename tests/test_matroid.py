import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from subfree.matroid import (
    ExplicitMatroid,
    Matroid,
    MatroidError,
    PartitionMatroid,
    UniformMatroid,
    uniform_as_explicit,
)


def powerset(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


class OpaqueMatroid(Matroid):
    """Same independence family, answered only by the generic queries."""

    def __init__(self, base):
        self.base = base

    def is_independent(self, s):
        return self.base.is_independent(s)


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


def test_native_queries_match_generic_definition():
    rng = random.Random(6)
    kinds = set()
    for _ in range(300):
        ground = [f"e{i}" for i in range(rng.randint(1, 7))]
        m = random_matroid(rng, ground)
        kinds.add(type(m))
        generic = OpaqueMatroid(m)
        for _ in range(10):
            # any subset of the ground: dependent ones and ones holding u too
            s = frozenset(v for v in ground if rng.random() < 0.5)
            u = rng.choice(ground)
            for view in (s, set(s)):
                assert outcome(m.can_add, view, u) == outcome(generic.can_add, view, u)
                assert outcome(m.exchange_set, view, u) == outcome(generic.exchange_set, view, u)
    assert kinds == {UniformMatroid, PartitionMatroid, ExplicitMatroid}


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
    m = ERROR_MATROIDS[name]
    generic = OpaqueMatroid(m)
    for query in ("can_add", "exchange_set"):
        assert outcome(getattr(m, query), s, u) == outcome(getattr(generic, query), s, u)
    # every id is a valid element of a uniform matroid
    raises = not (name == "uniform" and u == "z")
    assert isinstance(outcome(m.exchange_set, s, u), tuple) == raises
