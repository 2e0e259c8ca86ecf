import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import ExplicitTable, Linear, ObjectiveError
from subfree.oracle import (
    brute_force_opt,
    check_ckp_domination,
    check_f_vs_fhat,
    prefix_optima,
    random_instance,
    random_submodular_table,
)

from conftest import coverage_as_table, random_coverage


def test_brute_force_empty():
    f = Linear({"a": 1})
    s, v = brute_force_opt(f, UniformMatroid(1), [])
    assert s == frozenset() and v == 0


def test_brute_force_linear_topk():
    weights = {"a": 5, "b": 3, "c": 9, "d": 1}
    f = Linear(weights)
    s, v = brute_force_opt(f, UniformMatroid(2), weights.keys())
    assert s == {"a", "c"} and v == 14


def test_brute_force_tie_lexicographic():
    f = Linear({"a": 2, "b": 2, "c": 2})
    s, _ = brute_force_opt(f, UniformMatroid(1), ["b", "c", "a"])
    assert s == {"a"}


def test_brute_force_partition_matches_direct_scan(rng):
    f = random_coverage(rng, 6)
    ground = sorted(f.elements())
    m = PartitionMatroid({u: ("p" if i < 3 else "q") for i, u in enumerate(ground)},
                         {"p": 1, "q": 1})
    _, got = brute_force_opt(f, m, ground)
    best = f.value(frozenset())
    for r in range(3):
        for combo in combinations(ground, r):
            if m.is_independent(combo):
                best = max(best, f.value(frozenset(combo)))
    assert got == best


def test_prefix_optima_nondecreasing(rng):
    for trial in range(10):
        local = random.Random(trial)
        f, m, order = random_instance(local, 8)
        opts = prefix_optima(f, m, order)
        assert all(a <= b for a, b in zip(opts, opts[1:]))


def test_ckp_two_element_case(rng):
    table = coverage_as_table(random_coverage(rng, 2))
    ok, witness = check_ckp_domination(table, 2, 1)
    assert ok
    a, b = table.ground
    lhs = table.value(frozenset({a})) + table.value(frozenset({b}))
    rhs = table.value(frozenset()) + table.value(frozenset({a, b}))
    assert lhs >= rhs  # the two-element case is exactly submodularity
    assert witness["without_replacement"] == pytest.approx(lhs / 2)


def test_ckp_modular_gives_equality():
    weights = {"a": 2.0, "b": 3.0, "c": 5.0}
    table = {}
    for r in range(4):
        for combo in combinations(sorted(weights), r):
            table[",".join(combo)] = sum(weights[u] for u in combo)
    g = ExplicitTable(sorted(weights), table)
    for k in range(4):
        ok, witness = check_ckp_domination(g, 3, k)
        assert ok
        assert witness["without_replacement"] == pytest.approx(witness["independent"])


def test_ckp_random_tables_small_sweep(rng):
    for trial in range(60):
        local = random.Random(8000 + trial)
        n = local.randint(2, 8)
        g = random_submodular_table(local, n, monotone=local.random() < 0.5)
        for k in range(n + 1):
            ok, _ = check_ckp_domination(g, n, k)
            assert ok


def test_ckp_validates_inputs(rng):
    g = coverage_as_table(random_coverage(rng, 3))
    with pytest.raises(ObjectiveError):
        check_ckp_domination(g, 4, 1)
    with pytest.raises(ObjectiveError):
        check_ckp_domination(g, 3, 5)


def test_f_vs_fhat_zero_vector(rng):
    f = random_coverage(rng, 4)
    opt = frozenset(sorted(f.elements())[:3])
    ok, _ = check_f_vs_fhat(f, opt, {})
    assert ok


def test_f_vs_fhat_empty_opt(rng):
    f = random_coverage(rng, 4)
    masses = {u: rng.uniform(0, 2) for u in f.elements()}
    ok, slack = check_f_vs_fhat(f, frozenset(), masses)
    assert ok and slack >= 0


def test_f_vs_fhat_random_sweep():
    for trial in range(300):
        rng = random.Random(30_000 + trial)
        table = coverage_as_table(random_coverage(rng, 4))
        ground = sorted(table.ground)
        opt = frozenset(rng.sample(ground, rng.randint(0, 4)))
        masses = {u: rng.uniform(0, 2) for u in rng.sample(ground, rng.randint(0, 4))}
        ok, _ = check_f_vs_fhat(table, opt, masses)
        assert ok


def test_random_submodular_table_flags(rng):
    mono = random_submodular_table(rng, 5, monotone=True)
    assert mono.monotone
    saw_nonmono = False
    for t in range(20):
        table = random_submodular_table(random.Random(t), 5, monotone=False)
        assert min(table._table.values()) >= 0
        saw_nonmono = saw_nonmono or not table.monotone
    assert saw_nonmono


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_random_instance_is_well_formed(seed):
    rng = random.Random(seed)
    f, m, order = random_instance(rng, rng.randint(3, 9))
    assert set(order) == set(f.elements())
    assert m.is_independent(frozenset())
    for u in order:
        assert m.is_independent(frozenset({u}))
