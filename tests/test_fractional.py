import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, strategies as hs

from subfree import fractional
from subfree.algorithms import solve_alpha
from subfree.fractional import FractionalState, Unit
from subfree.matroid import PartitionMatroid
from subfree.objective import Linear, WeightedCoverage, soft_value
from subfree.oracle import brute_force_opt, random_coverage_objective

from conftest import online_roundings, random_coverage


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
            slack = st.unit_slack(l)
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


def test_kept_mass_vectors_match_the_units():
    # escalating chains keep draining the older elements' units
    drains = 0
    for trial in range(6):
        rng = random.Random(40 + trial)
        n = 9
        f = WeightedCoverage(
            {f"x{j}": rng.randint(8, 12) * 3**j // 2**j for j in range(n)},
            {f"e{j}": [f"x{j}"] + ([f"x{j - 1}"] if j else []) for j in range(n)})
        st = FractionalState(f, partition_for(sorted(f.elements()), rng), delta=Fraction(1, 10))
        for u in (f"e{j}" for j in range(n)):
            drains += sum(e["event"] == "drain" for e in st.step(u))
            live = {}
            for units in st.live.values():
                for unit in units.values():
                    live[unit.element] = live.get(unit.element, 0) + 1
            assert st._live_units == live
            assert st._live_mass == {v: float(c * st.delta) for v, c in live.items()}
            assert st.history_masses() == {v: float(c * st.delta)
                                           for v, c in st.hist_units.items()}
    assert drains > 0


def test_unit_masses_are_n_over_q():
    """delta = 1/q, so float(n * delta) and n / q are both the correctly
    rounded n/q; the state keeps the latter."""
    for q in (1, 3, 7, 25, 50, 300, 1000):
        delta = Fraction(1, q)
        assert all(n / q == float(n * delta) for n in range(10**4 + 1)), q
    for st in _stepped_states():
        assert st._hist_mass == {v: float(n * st.delta) for v, n in st.hist_units.items()}
        assert st._live_mass == {v: float(n * st.delta) for v, n in st._live_units.items()}


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


class ScanState(FractionalState):
    """The definitional weakest unit and free slot: a scan of the part's
    live units and a free list sorted so that pop() yields the lowest slot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._free = {l: sorted(free, reverse=True) for l, free in self._free.items()}

    def _weakest(self, part):
        return min(self.live[part].values(), key=lambda z: (z.weight, z.seq))

    def _append_unit(self, u, part, rate, trace):
        self._seq += 1
        slot = self._free[part].pop()
        self.live[part][slot] = Unit(u, self._seq, rate, slot)
        self._count(self.hist_units, self._hist_mass, u, 1)
        self._count(self._live_units, self._live_mass, u, 1)
        self.w_live[part] += float(self.delta) * rate
        self.w_hist[part] += float(self.delta) * rate
        self._max_unit_w[part] = max(self._max_unit_w[part], rate)
        trace.append({"event": "unit", "element": u, "slot": slot, "weight": rate})

    def _evict_weakest(self, part, trace):
        unit = self._weakest(part)
        del self.live[part][unit.slot]
        self._count(self._live_units, self._live_mass, unit.element, -1)
        self._free[part].append(unit.slot)
        self._free[part].sort(reverse=True)
        self.w_live[part] -= float(self.delta) * unit.weight
        trace.append({"event": "drain", "element": unit.element, "slot": unit.slot,
                      "weight": unit.weight})


def _drain_streams():
    """Seeded streams that drain: escalating chains and random coverage."""
    for trial in range(6):
        rng = random.Random(40 + trial)
        n = 9
        f = WeightedCoverage(
            {f"x{j}": rng.randint(8, 12) * 3**j // 2**j for j in range(n)},
            {f"e{j}": [f"x{j}"] + ([f"x{j - 1}"] if j else []) for j in range(n)})
        yield f, partition_for(sorted(f.elements()), rng), [f"e{j}" for j in range(n)]
    for trial in range(6):
        rng = random.Random(70 + trial)
        f = random_coverage(rng, 10, max_weight=30)
        order = sorted(f.elements())
        rng.shuffle(order)
        yield f, partition_for(order, rng, max_parts=2), order


def test_weakest_unit_heap_matches_the_scan():
    drains = 0
    for f, m, order in _drain_streams():
        heap, scan = (cls(f, m, delta=Fraction(1, 10)) for cls in (FractionalState, ScanState))
        for u in order:
            events = heap.step(u)
            assert events == scan.step(u)
            drains += sum(e["event"] == "drain" for e in events)
            assert heap.live == scan.live
            for part in heap.parts:
                if heap.live[part]:
                    assert heap._weakest(part) == scan._weakest(part)
    assert drains > 20


def test_weakest_unit_ties_drain_oldest_first():
    f = Linear({u: 1 for u in "abcd"})
    m = PartitionMatroid({u: "p" for u in "abcd"}, {"p": 1})
    traces = []
    for st in (FractionalState(f, m, delta=Fraction(1, 4)), ScanState(f, m, delta=Fraction(1, 4))):
        trace = []
        for u, w in [("a", 1.0), ("b", 1.0), ("c", 0.5), ("d", 1.0)]:
            st._append_unit(u, "p", w, trace)
        st._evict_weakest("p", trace)
        st._append_unit("a", "p", 1.0, trace)
        for _ in range(4):
            st._evict_weakest("p", trace)
        st._append_unit("b", "p", 1.0, trace)
        traces.append(trace)
    assert traces[0] == traces[1]
    assert [e["element"] for e in traces[0] if e["event"] == "drain"] == list("cabda")
    assert [e["slot"] for e in traces[0] if e["event"] == "unit"] == [0, 1, 2, 3, 2, 0]


@given(den=hs.sampled_from([10, 25, 50]), cap=hs.integers(1, 3), data=hs.data())
def test_round_online_looks_up_the_slot_of_each_point(den, cap, data):
    f = Linear({"a": 1})
    st = FractionalState(f, PartitionMatroid({"a": "p"}, {"p": cap}), delta=Fraction(1, den))
    n = st.slots_per_part["p"]
    st.live["p"] = {s: Unit(f"s{s}", s, 1.0, s) for s in range(n)}  # one owner per slot
    d = float(st.delta)
    j = data.draw(hs.integers(1, n))
    points = [
        j * d, float(Fraction(j, den)),  # exact multiples of delta, two roundings
        math.nextafter(j * d, 0.0), math.nextafter(j * d, math.inf),
        float(cap), math.nextafter(float(cap), 0.0),
        math.nextafter(0.0, 1.0), 1e-300, d / 2,  # just above 0
        data.draw(hs.floats(0.0, float(cap), exclude_min=True)),
    ]
    for t in points:
        assert st.round_online({"p": [t]}) == {f"s{st.slot_of_point(t, 'p')}"}, t


def test_round_online_sole_occupant_always_selected():
    f = Linear({"a": 9.0})
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    st = FractionalState(f, m, delta=Fraction(1, 10))
    while len(st.live["p"]) < st.slots_per_part["p"]:  # fill (0,1] by hand
        st._append_unit("a", "p", 1.0, [])
    for seed in range(50):
        assert st.round_with_seed(seed) == {"a"}


def test_round_online_empty_state():
    f = Linear({"a": 1.0})
    m = PartitionMatroid({"a": "p"}, {"p": 1})
    st = FractionalState(f, m)
    assert st.round_online({"p": [0.5, 1.0]}) == st.round_with_seed(0) == frozenset()


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


def _stepped_states():
    """Random partition states after their streams, at several capacities,
    then three edges: delta = 1/17, a part that no element arrives in, and
    more than 64 live owners, so that an owner mask outgrows a machine word."""
    for trial in range(10):
        rng = random.Random(80 + trial)
        f = random_coverage(rng, rng.randint(4, 9))
        order = sorted(f.elements())
        m = partition_for(order, rng, max_parts=3, max_cap=3)
        if trial == 9:
            m = PartitionMatroid(m.part_of, {"idle": 2, **m.capacity})
        st = FractionalState(f, m, delta=Fraction(1, 17 if trial == 8 else 10))
        rng.shuffle(order)
        for u in order:
            st.step(u)
        yield st
    yield _many_owners_state()


def _many_owners_state():
    """80 elements in the 100 slots of a part of capacity 2, each owning at
    least one, and a second part of capacity 1."""
    f = Linear({f"e{j}": 1 for j in range(81)})
    m = PartitionMatroid({**{f"e{j}": "wide" for j in range(80)}, "e80": "one"},
                         {"wide": 2, "one": 1})
    st = FractionalState(f, m, delta=Fraction(1, 50))
    for j in range(100):
        st._append_unit(f"e{j % 80}", "wide", 1.0 + j % 7, [])
    st._append_unit("e80", "one", 1.0, [])
    assert len({unit.element for unit in st.live["wide"].values()}) == 80
    return st


def test_roundings_draw_in_order_from_one_generator():
    varied = states = 0
    for st in _stepped_states():
        states += 1
        for seed in (0, 11, 2**40 + 3):
            expected = online_roundings(st, seed, 200)
            got = list(st.roundings(seed, 200))
            assert got == expected
            assert got[0] == st.round_with_seed(seed)
            assert all(st.matroid.is_independent(chosen) for chosen in got)
            shared = {}
            assert all(shared.setdefault(chosen, chosen) is chosen for chosen in got)
            varied += len(shared) > 1
        assert list(st.roundings(5, 0)) == []
    assert varied == 3 * states  # no phase repeats one set: the states are not trivial


def _binary_delta_state(den):
    """A random partition state after its stream at delta = 1/den, a power of
    two, where every slot edge j * delta is an exact binary fraction."""
    rng = random.Random(den)
    f = random_coverage(rng, 8)
    order = sorted(f.elements())
    st = FractionalState(f, partition_for(order, rng, max_parts=3, max_cap=3),
                         delta=Fraction(1, den))
    rng.shuffle(order)
    for u in order:
        st.step(u)
    return st


@pytest.mark.parametrize("make", [_many_owners_state, lambda: _binary_delta_state(64),
                                  lambda: _binary_delta_state(256)],
                         ids=["many-owners", "delta-1/64", "delta-1/256"])
def test_long_rounding_phase_matches_round_online(make):
    st = make()
    got = list(st.roundings(7, 5000))
    assert got == online_roundings(st, 7, 5000)
    assert len(set(got)) > 1


def test_a_phase_reads_the_live_state_it_starts_from():
    f = Linear({"a": 1.0, "b": 5.0, "c": 2.0})
    m = PartitionMatroid({"a": "p", "b": "p", "c": "q"}, {"p": 1, "q": 1})
    st = FractionalState(f, m, delta=Fraction(1, 10))
    owners = []
    for u in "acb":
        st.step(u)
        owners.append({l: {s: unit.element for s, unit in units.items()}
                       for l, units in st.live.items()})
        assert list(st.roundings(3, 300)) == online_roundings(st, 3, 300)
    assert owners[1] != owners[2]  # b's arrival drained units of a


# (cap, 1/delta) of the slot-boundary tests; at 1/49 the float quotient
# cap / float(delta) of the top point exceeds the slot count N for cap 1 and 2
BOUNDARY_GRID = [(cap, den) for den in (10, 17, 25, 49, 50) for cap in (1, 2, 3)]


def test_padded_owner_index_stays_in_range():
    """roundings reads owner ceil(cap * (1.0 - r) / d) of a list padded with
    one owner either side; at r = 0.0 and the largest r below 1 the index
    stays in [0, N + 1], and N + 1 (past the last slot edge) does occur."""
    tops = []
    for cap, den in BOUNDARY_GRID:
        n, d = cap * den, float(Fraction(1, den))
        for r in (0.0, math.nextafter(1.0, 0.0)):
            assert 0 <= math.ceil(cap * (1.0 - r) / d) <= n + 1, (cap, den, r)
        tops.append(math.ceil(cap / d) - n)
    assert set(tops) == {0, 1}


def test_roundings_match_round_online_at_slot_boundaries(monkeypatch):
    """Chosen draws: r = 0, the largest r below 1, r = 1 and one ulp above it
    (points at or below 0, clamped to slot 0), and each r whose point
    cap * (1.0 - r) is an exact multiple of delta, with one ulp either side."""
    draws: list = []

    class ChosenRandom(random.Random):
        def random(self):
            return draws.pop(0)

    states = [FractionalState(Linear({"a": 1}), PartitionMatroid({"a": "p"}, {"p": cap}),
                              delta=Fraction(1, den))
              for cap, den in BOUNDARY_GRID]
    monkeypatch.setattr(fractional.random, "Random", ChosenRandom)
    for st in states:
        cap, n = st.parts["p"], st.slots_per_part["p"]
        st.live["p"] = {s: Unit(f"s{s}", s, 1.0, s) for s in range(n)}  # one owner per slot
        d = float(st.delta)
        rs = [0.0, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
        for j in range(1, n + 1):
            r = 1.0 - j / n
            for _ in range(4):
                r = math.nextafter(r, 0.0)
            for _ in range(9):
                if cap * (1.0 - r) in (j * d, float(j * st.delta)):
                    rs += [math.nextafter(r, 0.0), r, math.nextafter(r, 1.0)]
                r = math.nextafter(r, 1.0)
        assert len(rs) > 3 * n  # most multiples of delta are hit
        rs += [0.0] * (-len(rs) % cap)  # whole trials
        groups = [rs[i:i + cap] for i in range(0, len(rs), cap)]
        draws[:] = rs
        got = list(st.roundings(0, len(groups)))
        assert not draws
        for chosen, group in zip(got, groups):
            points = [cap * (1.0 - r) for r in group]
            assert chosen == st.round_online({"p": points}), group
            assert chosen == {f"s{st.slot_of_point(t, 'p')}" for t in points}, group


def test_a_rounding_phase_seeds_one_generator(monkeypatch):
    st = next(_stepped_states())
    made = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(fractional.random, "Random", CountingRandom)
    assert len(list(st.roundings(9, 1000))) == 1000
    assert made == [(9,)]


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
        slack = max(map(st.unit_slack, st.parts)) * len(st.parts)
        assert st.soft_value_live() >= opt / alpha - slack - 1e-9

