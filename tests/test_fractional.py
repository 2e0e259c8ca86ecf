import math
import random
import statistics
from fractions import Fraction

import pytest

from subfree.algorithms import solve_alpha
from subfree.fractional import FractionalState
from subfree.matroid import PartitionMatroid
from subfree.objective import Linear, WeightedCoverage, soft_value
from subfree.oracle import brute_force_opt, random_coverage_objective

from conftest import random_coverage


def partition_for(elements, rng, max_parts=3, max_cap=2):
    parts = [f"p{i}" for i in range(rng.randint(1, max_parts))]
    part_of = {u: rng.choice(parts) for u in elements}
    capacity = {p: rng.randint(1, max_cap) for p in parts}
    return PartitionMatroid(part_of, capacity)


def test_delta_validation():
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    f = Linear({"a": 1})
    with pytest.raises(ValueError):
        FractionalState(f, m, delta=Fraction(3, 7))
    FractionalState(f, m, delta=0.02)  # decimal literal is exact


def test_delta_default_scales_with_smallest_capacity():
    f = Linear({"a": 1, "b": 1})
    m1 = PartitionMatroid({"a": "p", "b": "q"}, {"p": 1, "q": 3})
    assert FractionalState(f, m1).delta == Fraction(1, 50)
    m2 = PartitionMatroid({"a": "p", "b": "q"}, {"p": 2, "q": 3})
    assert FractionalState(f, m2).delta == Fraction(1, 25)
    m3 = PartitionMatroid({"a": "p", "b": "q"}, {"p": 3, "q": 3})
    st3 = FractionalState(f, m3)
    assert st3.delta == Fraction(1, 17)  # nearest unit fraction to 3/50
    assert all(n * st3.delta == c for n, c in
               zip(st3.slots_per_part.values(), st3.parts.values()))


def test_first_element_fills_until_capacity():
    f = Linear({"a": 5.0})
    m = PartitionMatroid({"a": "p"}, {"p": 2})
    st = FractionalState(f, m, delta=Fraction(1, 10))
    trace = st.step("a")
    added = [t for t in trace if t["event"] == "unit"]
    assert 0 < len(added) <= st.slots_per_part["p"]
    # weights recorded at unit starts are strictly decreasing (damping)
    weights = [t["weight"] for t in added]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_unit_count_hand_computed_capacity_one():
    # single linear element, capacity 1, delta 1/4: unit m is taken while
    # exp(-(m-1)/4) clears (alpha - 1)/4 * sum of earlier rates:
    #   m=2:  0.7788 > 2.14619 * 0.25 * 1.0     = 0.5365  -> take
    #   m=3:  0.6065 > 2.14619 * 0.25 * 1.7788  = 0.9545  -> stop
    f = Linear({"a": 1.0})
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    st = FractionalState(f, m, delta=Fraction(1, 4))
    trace = st.step("a")
    assert len([t for t in trace if t["event"] == "unit"]) == 2


def test_unlabelled_element_rejected():
    f = Linear({"a": 1})
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    st = FractionalState(f, m)
    with pytest.raises(Exception):
        st.step("zz")


def test_threshold_quantity_monotone_up_to_slack():
    rng = random.Random(3)
    f = random_coverage(rng, 6)
    m = partition_for(sorted(f.elements()), rng)
    st = FractionalState(f, m, delta=Fraction(1, 25))
    order = sorted(f.elements())
    rng.shuffle(order)
    last = {l: 0.0 for l in st.parts}
    for u in order:
        st.step(u)  # raises InvariantViolation on a slack breach
        for l in st.parts:
            g = st.alpha * st.w_live[l] - st.w_hist[l]
            slack = st.alpha * st._max_unit_w[l] * float(st.delta)
            assert g >= last[l] - slack - 1e-9
            last[l] = g


def test_live_mass_never_exceeds_capacity():
    rng = random.Random(6)
    f = random_coverage(rng, 7)
    m = partition_for(sorted(f.elements()), rng)
    st = FractionalState(f, m, delta=Fraction(1, 20))
    order = sorted(f.elements())
    rng.shuffle(order)
    for u in order:
        st.step(u)
        for l, cap in st.parts.items():
            assert len(st.live[l]) <= st.slots_per_part[l]
            mass = sum(len([z for z in st.live[l].values()]) for l in [l]) * st.delta
            assert mass <= cap


def test_slot_map_injective_on_live_units():
    rng = random.Random(9)
    f = random_coverage(rng, 7)
    m = partition_for(sorted(f.elements()), rng)
    st = FractionalState(f, m, delta=Fraction(1, 10))
    order = sorted(f.elements())
    rng.shuffle(order)
    for u in order:
        st.step(u)
    for l, units in st.live.items():
        slots = [unit.slot for unit in units.values()]
        assert len(slots) == len(set(slots))
        assert all(0 <= s < st.slots_per_part[l] for s in slots)


def test_round_online_sole_occupant_always_selected():
    f = Linear({"a": 9.0})
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    st = FractionalState(f, m, delta=Fraction(1, 10), seed=4)
    while len(st.live["p"]) < st.slots_per_part["p"]:  # fill (0,1] by hand
        st._append_unit("a", "p", 1.0, [])
    for seed in range(50):
        assert st.round_with_seed(seed) == {"a"}


def test_round_online_empty_state():
    f = Linear({"a": 1.0})
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    st = FractionalState(f, m)
    assert st.round_online() == frozenset()


def test_round_online_respects_partition_feasibility():
    rng = random.Random(12)
    f = random_coverage(rng, 8)
    m = partition_for(sorted(f.elements()), rng)
    st = FractionalState(f, m, delta=Fraction(1, 10))
    order = sorted(f.elements())
    rng.shuffle(order)
    for u in order:
        st.step(u)
    for seed in range(100):
        chosen = st.round_with_seed(seed)
        assert m.is_independent(chosen)


def test_rounding_mean_dominates_soft_value():
    rng = random.Random(15)
    f = WeightedCoverage(
        {"x": 3, "y": 2, "z": 4},
        {"a": {"x"}, "b": {"x", "y"}, "c": {"z"}},
    )
    m = PartitionMatroid({"a": "p", "b": "p", "c": "q"}, {"p": 1, "q": 1})
    st = FractionalState(f, m, delta=Fraction(1, 25))
    for u in ["a", "b", "c"]:
        st.step(u)
    target = st.soft_value_live()
    n = 10_000
    vals = [f.value(st.round_with_seed(s)) for s in range(n)]
    mean = statistics.fmean(vals)
    sigma = statistics.pstdev(vals) / math.sqrt(n)
    assert mean >= target - 3 * sigma


def test_final_soft_value_close_to_opt_over_alpha():
    alpha = solve_alpha("inf").value
    for trial in range(8):
        rng = random.Random(40 + trial)
        f = random_coverage_objective(rng, rng.randint(4, 7))
        m = partition_for(sorted(f.elements()), rng)
        st = FractionalState(f, m, delta=Fraction(1, 50))
        order = sorted(f.elements())
        rng.shuffle(order)
        for u in order:
            st.step(u)
        _, opt = brute_force_opt(f, m, f.elements())
        max_w = max(st._max_unit_w.values(), default=0.0)
        slack = alpha * float(st.delta) * max_w * len(st.parts)
        assert st.soft_value_live() >= opt / 3.15 - slack - 1e-9

