"""The incremental hooks must never change a trajectory.

Every objective ships an interaction test, a grow-only marginal
accumulator and a current-weight keeper (the ownership ledger on weighted
coverage) that the tracker uses to skip recomputation.  Wrapping the same
objective in an opaque shell (conservative interaction answers, generic
accumulator and keeper) forces the slow definitional path; both paths must
produce identical decisions, weights, and values on identical streams.

The same holds for the matroid: the slow path runs on the matroid's reference
occupancy, which holds the set and asks the generic set-argument queries.

The closed-form extensions of weighted coverage (soft value and rate, the
thinned oracle with its accumulator and keeper, the block-sampled value)
are checked against the enumerations they replace.  Float enumeration and a
closed form round differently, so those checks allow 1e-12 relative to the
objective's total weight, the scale of the values an enumerated marginal is
the difference of.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import opaque_matroid
from subfree.adversaries import UniformHardnessDriver, run_adversary
from subfree.algorithms import (
    NonmonotoneGeneralRun,
    NonmonotoneUniformRun,
    _threshold,
    solve_alpha,
    step_general_matroid,
    step_k_uniform,
)
from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import (
    IntervalCoverage,
    Linear,
    Objective,
    ObjectiveError,
    ThinnedCoverage,
    WeightedCoverage,
    as_float,
    block_sampled_value,
    floor_in_units,
    greater,
    greater_times,
    sampled_value_p,
    soft_marginal_rate,
    soft_value,
    unscaled,
)
from subfree.oracle import random_escalating_instance, random_instance, random_matroid
from subfree.tracker import ARRIVAL, OnlineState


class OpaqueObjective(Objective):
    """Same values in the same unit, no fast-path hooks."""

    def __init__(self, base):
        self.base = base
        self.monotone = base.monotone
        self.unit = base.unit

    def elements(self):
        return self.base.elements()

    def value(self, s):
        return self.base.value(s)


def trajectories_match(f, m, order, step):
    """Steps the fast path and the opaque path (objective and matroid) side by
    side on coverage ``f``; returns the fast path's hand-off counts (see
    ``hand_offs``)."""
    fast = OnlineState(f, m)
    slow = OnlineState(OpaqueObjective(f), opaque_matroid(m))
    counts = [0, 0]
    for u in order:
        df = step(fast, u)
        ds = step(slow, u)
        assert (df.accepted, df.evicted, df.w_u) == (ds.accepted, ds.evicted, ds.w_u)
        assert fast.feasible == slow.feasible
        assert fast.f_S() == slow.f_S()
        assert fast.w_A_total() == slow.w_A_total()
        assert fast.weight_total() == slow.weight_total()
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


def test_exchange_rule_paths_agree_on_a_partition_stream():
    """500 coverage arrivals under 20 parts of capacity 3, each covering 2-6
    items just behind the stream's position, the items heavier later on."""
    rng = random.Random(17)
    n, parts, items = 500, 20, 750
    weights = {f"i{j}": 1 + (j * 40) // items + rng.randint(0, 3) for j in range(items)}
    covers, part_of = {}, {}
    for e in range(n):
        c = e * items // n
        pool = range(max(0, c - 60), min(items, c + 8))
        covers[f"e{e}"] = {f"i{j}" for j in rng.sample(pool, rng.randint(2, 6))}
        part_of[f"e{e}"] = f"p{rng.randrange(parts)}"
    m = PartitionMatroid(part_of, {f"p{q}": 3 for q in range(parts)})
    f = WeightedCoverage(weights, covers)
    fast = OnlineState(f, m)
    slow = OnlineState(OpaqueObjective(f), opaque_matroid(m))
    evictions = 0
    for u in (f"e{e}" for e in range(n)):
        df, ds = step_general_matroid(fast, u), step_general_matroid(slow, u)
        assert (df.accepted, df.evicted, df.w_u) == (ds.accepted, ds.evicted, ds.w_u)
        assert fast.feasible == slow.feasible
        assert fast.f_S() == slow.f_S()
        evictions += df.evicted is not None
    assert len(fast.feasible) == 60 and evictions > 50


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
        if fast:
            state = OnlineState(driver.objective, driver.matroid)
        else:
            state = OnlineState(OpaqueObjective(driver.objective), opaque_matroid(driver.matroid))
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


# -- min-member heaps and the threshold cache ------------------------------------------


class HeapAudit:
    """After every step: ``min_member()`` under the state's own view against
    the full (weight, acc_index) scan, the rule's cached threshold against a
    fresh recomputation in original units, and the cached arrival total of S
    against a re-sum (an exact total is never dropped).  Counts the steps that
    had a tie at the minimum and the evictions that raised a later member's
    current weight."""

    def __init__(self, alpha):
        self.alpha = alpha  # None: a rule without a threshold
        self.ties = self.raises = 0
        self._before = {}

    def check(self, st):
        weights = st.member_weights()
        ranked = sorted(st.feasible, key=lambda v: (weights[v], st.acc_index[v]))
        least = ranked[0] if ranked else None
        assert st.min_member() == least
        # candidates that are all of S, as the same or an equal set, read the heap
        assert st.min_member(st.feasible) == least
        assert st.min_member(frozenset(ranked)) == least
        self.ties += len(ranked) > 1 and weights[ranked[0]] == weights[ranked[1]]
        now = {v: st.w_S(v) for v in st.feasible}
        self.raises += any(w > self._before.get(v, w) for v, w in now.items())
        self._before = now
        a = self.alpha
        if a is not None:
            fresh = (a.value * unscaled(st.weight_total(), st.unit)
                     - a.rho * float(unscaled(st.w_A_total(), st.unit)))
            assert _threshold(st, a)[1] == fresh
        resum = sum(st.arrival_w[v] for v in sorted(st.feasible, key=st.acc_index.__getitem__))
        if not isinstance(resum, float):
            assert st._w_arrival_S_sum is not None
        assert st.w_arrival_over_S() == resum


def tied_coverage(rng, n, kind, growth=1.8):
    """Elements in pairs with equal private items on an escalating ladder (each
    pair ``growth`` times the last), plus shared items, so that weights tie and
    evictions hand items on.  ``kind`` picks int, Fraction or float weights."""
    num = {"int": int, "fraction": lambda x: Fraction(x, 7), "float": lambda x: x / 7}[kind]
    shared = [f"s{j}" for j in range(3)]
    weights = {i: num(rng.randint(1, 4)) for i in shared}
    covers = {}
    for i in range(n):
        weights[f"x{i:02d}"] = num(round(10 * growth ** (i // 2)))
        covers[f"e{i:02d}"] = {f"x{i:02d}"} | set(rng.sample(shared, rng.randint(0, 2)))
    return WeightedCoverage(weights, covers), sorted(covers)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_under_the_capacity_rule(kind):
    ties = raises = 0
    for trial in range(20):
        rng = random.Random(800 + trial)
        k = 4 + trial % 3
        alpha = solve_alpha(k)
        f, order = tied_coverage(rng, 24, kind)
        st = OnlineState(f, UniformMatroid(k))
        audit = HeapAudit(alpha)
        for u in order:
            step_k_uniform(st, u, alpha)
            audit.check(st)
        ties += audit.ties
        raises += audit.raises
    assert ties > 0 and raises > 0


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_under_the_randomized_uniform_run(kind):
    evictions = 0
    for trial in range(10):
        rng = random.Random(900 + trial)
        f, order = tied_coverage(rng, 12, kind)
        run = NonmonotoneUniformRun(f, k=2)  # auxiliary capacity 6
        audit = HeapAudit(run.alpha)
        for u in order:
            evictions += run.step(u).evicted is not None
            audit.check(run.state)
    assert evictions > 0


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_when_a_late_member_becomes_the_least(kind):
    """A member accepted over items an evicted element covered has w_S(u) > w(u),
    and on a gentle ladder it later becomes the member of least arrival weight;
    the heap must hold it at w(u), or the rule evicts a heavier member."""
    least_moved = 0
    for trial in range(10):
        rng = random.Random(900 + trial)
        f, order = tied_coverage(rng, 30, kind, growth=1.44)
        run = NonmonotoneUniformRun(f, k=2)
        st = run.state
        audit = HeapAudit(run.alpha)
        moved = set()  # members whose weight under the other view differed on accept
        for u in order:
            if run.step(u).accepted and st.w_S(u) != st.arrival_w[u]:
                moved.add(u)
            audit.check(st)
            least_moved += st.min_member() in moved
    assert least_moved > 0


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_under_the_exchange_rule(kind):
    # on a full uniform matroid every member is an exchange candidate
    ties = raises = evictions = 0
    for trial in range(20):
        rng = random.Random(1000 + trial)
        f, order = tied_coverage(rng, 24, kind)
        k = 4 + trial % 3
        plain = OnlineState(f, UniformMatroid(k))
        for u in order:
            step_general_matroid(plain, u)
        assert plain._heap is not None  # the rule's own query built the heap
        st = OnlineState(f, UniformMatroid(k))
        audit = HeapAudit(None)
        for u in order:
            evictions += step_general_matroid(st, u).evicted is not None
            audit.check(st)
        assert st.feasible == plain.feasible
        ties += audit.ties
        raises += audit.raises
    assert ties > 0 and raises > 0 and evictions > 0


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_min_member_heaps_match_the_scan_under_the_randomized_exchange_run(kind):
    # the exchange rule on arrival weights: on a full uniform matroid every
    # member is an exchange candidate, so each full-set arrival reads the heap
    ties = evictions = 0
    for trial in range(10):
        rng = random.Random(1200 + trial)
        f, order = tied_coverage(rng, 12, kind)
        k = 3 + trial % 2
        plain = NonmonotoneGeneralRun(f, UniformMatroid(k))
        for u in order:
            plain.step(u)
        assert plain.state._heap is not None  # the rule's own query built the heap
        run = NonmonotoneGeneralRun(f, UniformMatroid(k))
        assert run.state.view == ARRIVAL
        audit = HeapAudit(None)
        for u in order:
            evictions += run.step(u).evicted is not None
            audit.check(run.state)
        assert run.state.feasible == plain.state.feasible
        ties += audit.ties
    assert ties > 0 and evictions > 0


def test_min_member_heaps_match_the_scan_on_the_uniform_stream():
    k = 12
    alpha = solve_alpha(k)
    audit = HeapAudit(alpha)
    evictions = 0

    def step(st, u):
        nonlocal evictions
        evictions += step_k_uniform(st, u, alpha).evicted is not None
        audit.check(st)

    run_adversary(UniformHardnessDriver(Fraction(3), Fraction(1, 2), Fraction(9, 10), k), step)
    assert audit.ties > 0 and evictions > 0


@pytest.mark.parametrize("eps, delta, k, evicts", [
    (Fraction(1, 2), Fraction(9, 10), 12, True),
    (Fraction(1, 3), Fraction(1, 2), 16, True),
    (Fraction(1, 20), Fraction(1, 5), 40, False),  # the benchmark's stream at a small k
    (Fraction(499999, 1000000), Fraction(9, 10), 60, True),  # weights in units pass float range
])
@pytest.mark.parametrize("rule", ["capacity", "exchange"])
def test_uniform_stream_in_units_matches_fraction_weights(eps, delta, k, evicts, rule):
    """The uniform stream's int weights in units against the same stream on a
    coverage in original units with Fraction weights: on every round the same
    decisions, arrival and evicted weights, f(S) and threshold floats, and the
    run's minimum ratio and its round from the exact ratios."""
    alpha = solve_alpha(k)
    step = {"capacity": lambda st, u: step_k_uniform(st, u, alpha),
            "exchange": lambda st, u: step_general_matroid(st, u)}[rule]
    driver = UniformHardnessDriver(Fraction(3), eps, delta, k)
    f = driver.objective
    assert f.unit > 1
    plain = WeightedCoverage({}, {})
    ref = OnlineState(plain, driver.matroid)
    ratios, evictions = [], 0

    def both(st, u):
        nonlocal evictions
        plain.register({u: f.covers[u]}, {i: Fraction(f.universe_weight[i], f.unit)
                                          for i in f.covers[u] - plain.universe_weight.keys()})
        d, r = step(st, u), step(ref, u)
        assert (d.accepted, d.evicted) == (r.accepted, r.evicted)
        assert (Fraction(d.w_u, f.unit), Fraction(d.w_evicted, f.unit)) == (r.w_u, r.w_evicted)
        assert st.f_S() == ref.f_S() == Fraction(st.scaled_f_S(), f.unit)
        if rule == "capacity":
            assert _threshold(st, alpha)[1] == _threshold(ref, alpha)[1]
        ratios.append(ref.f_S() / driver.current_opt())
        evictions += d.evicted is not None

    out = run_adversary(driver, both, record_rounds=False)
    assert (evictions > 0) == evicts
    assert out.min_ratio == min(ratios)
    assert out.min_round == ratios.index(min(ratios)) + 1


@pytest.mark.parametrize("rule", ["capacity", "exchange-2", "exchange-3/2", "exchange-1.5"])
def test_rules_on_coverage_in_units_match_fraction_weights(rule):
    """Overlapping coverage with int weights in units (ties, zeros, hand-offs on
    eviction) against the same coverage in original units with Fraction
    weights: same decisions, and the same weights, totals, f(S) and threshold
    floats after every step."""
    evictions = 0
    for trial in range(12):
        rng = random.Random(1100 + trial)
        unit = rng.choice([7, 3**40, 10**25 + 1])
        k = 4 + trial % 3
        alpha = solve_alpha(k)
        base, order = tied_coverage(rng, 20, "int")
        weights = {i: rng.choice([0, w, w * unit]) for i, w in base.universe_weight.items()}
        scaled = WeightedCoverage(weights, base.covers, unit=unit)
        plain = WeightedCoverage({i: Fraction(w, unit) for i, w in weights.items()}, base.covers)
        if rule == "capacity":
            step = lambda st, u: step_k_uniform(st, u, alpha)
        else:
            c = {"2": 2, "3/2": Fraction(3, 2), "1.5": 1.5}[rule.split("-")[1]]
            step = lambda st, u: step_general_matroid(st, u, c)
        st, ref = OnlineState(scaled, UniformMatroid(k)), OnlineState(plain, UniformMatroid(k))
        for u in order:
            d, r = step(st, u), step(ref, u)
            assert (d.accepted, d.evicted) == (r.accepted, r.evicted)
            assert Fraction(d.w_u, unit) == r.w_u
            assert st.f_S() == ref.f_S()
            assert {v: Fraction(st.w_S(v), unit) for v in st.feasible} == {
                v: ref.w_S(v) for v in ref.feasible}
            assert Fraction(st.w_arrival_over_S(), unit) == ref.w_arrival_over_S()
            assert Fraction(st.w_A_total(), unit) == ref.w_A_total()
            if rule == "capacity":
                assert _threshold(st, alpha)[1] == _threshold(ref, alpha)[1]
            evictions += d.evicted is not None
    assert evictions > 0


# -- integer comparisons against a float threshold or an exact factor ------------------

UNITS = [1, 200 * 19**40]  # plain weights, and the k=200 hardness stream's unit


@st.composite
def boundary_floats(draw):
    """A float b for which b * unit is an int at both units (b = m / 2^j, j <= 3,
    and 8 divides 200 * 19^40), or one ulp either side of it."""
    j = draw(st.integers(0, 3))
    b = draw(st.integers(-2**50, 2**50)) / 2**j
    return draw(st.sampled_from([b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]))


@settings(max_examples=400)
@given(st.sampled_from(UNITS),
       st.one_of(boundary_floats(), st.floats(allow_nan=True, allow_infinity=True)),
       st.integers(-10**60, 10**60), st.integers(-2, 2), st.booleans())
def test_cut_decides_as_greater(unit, b, a, offset, near):
    """The capacity rule's cached cut: an int a in units exceeds the float b
    exactly when a > floor_in_units(b, unit); non-finite b has no cut and
    keeps greater."""
    cut = floor_in_units(b, unit)
    if not math.isfinite(b):
        assert cut is None
        return
    a = cut + offset if near else a
    assert (a > cut) == greater(a, b, unit)
    assert OnlineState(WeightedCoverage({}, {}, unit=unit), UniformMatroid(4)).cut(b) == cut


def weights(unit):
    """An int or a Fraction weight in units, or a float one in original units."""
    ints = st.integers(0, 10**6).map(lambda n: n * unit // 6)
    return st.one_of(ints, ints.map(lambda n: Fraction(n, 7)),
                     ints.map(lambda n: as_float(n, unit)), st.floats(0, 1e6))


def exchange_product(c, w, unit):
    """c * w as the exchange rule formed it: a float c meets w's float value."""
    return c * as_float(w, unit) if isinstance(c, float) else c * w


@settings(max_examples=600)
@given(st.sampled_from(UNITS), st.sampled_from([2, Fraction(3, 2), Fraction(7, 3), 2.5]),
       st.data())
def test_integer_exchange_comparison_matches_greater(unit, c, data):
    """c * w > w_u cross-multiplied by c's denominator, against greater on
    the product, with w_u anywhere or at the product and just either side."""
    w = data.draw(weights(unit))
    tie = exchange_product(c, w, unit)
    near = ([tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf)]
            if isinstance(tie, float) else [tie - 1, tie, tie + 1])
    w_u = data.draw(st.one_of(weights(unit), st.sampled_from(near),
                              st.floats(allow_nan=True, allow_infinity=True)))
    assert greater_times(c, w, w_u, unit) == greater(tie, w_u, unit)


# -- closed-form extensions on weighted coverage ---------------------------------------


REL = 1e-12


def close(a, b, f):
    """Within REL of the objective's total weight (see the module docstring)."""
    return abs(a - b) <= REL * max(abs(b), float(sum(f.universe_weight.values())))


@st.composite
def coverages(draw, max_elements, min_weight=0):
    """Coverage with int, Fraction or float weights; at most ``max_elements``
    elements, so every enumeration stays within its limit."""
    kind = draw(st.sampled_from(["int", "fraction", "float"]))
    num = {"int": int, "fraction": lambda x: Fraction(x, 7), "float": lambda x: x / 7}[kind]
    n_items = draw(st.integers(1, 7))
    items = [f"x{i}" for i in range(n_items)]
    weights = {i: num(draw(st.integers(min_weight, 30))) for i in items}
    n = draw(st.integers(1, max_elements))
    covers = {f"e{j:02d}": draw(st.frozensets(st.sampled_from(items), min_size=1, max_size=3))
              for j in range(n)}
    return WeightedCoverage(weights, covers)


@settings(max_examples=40)
@given(coverages(12), st.data())
def test_soft_extension_closed_forms_match_enumeration(f, data):
    ground = sorted(f.elements())
    masses = {el: data.draw(st.floats(0, 3)) for el in ground if data.draw(st.booleans())}
    assert close(f.soft_value(masses), soft_value(f, masses), f)
    for u in data.draw(st.lists(st.sampled_from(ground), max_size=3, unique=True)):
        assert close(f.soft_rate(u, masses), soft_marginal_rate(f, u, masses), f)


def assert_prefix_weights(f, p, members, weights):
    """Each member's weight against the enumerated thinned marginal over the
    members added before it."""
    before = sampled_value_p(f, [], p)
    for j, u in enumerate(members):
        after = sampled_value_p(f, members[: j + 1], p)
        assert close(weights[u], after - before, f)
        before = after


@settings(max_examples=40)
@given(coverages(9, min_weight=1), st.sampled_from([0.5, 1 / 3, 0.8]), st.data())
def test_thinned_coverage_matches_enumeration_after_every_step(f, p, data):
    g = f.thinned(p)
    assert isinstance(g, ThinnedCoverage)
    acc, keeper = g.accumulator(), g.current_weights()
    history, members, weights = [], [], {}
    for u in data.draw(st.permutations(sorted(f.elements()))):
        expected = sampled_value_p(f, history + [u], p) - sampled_value_p(f, history, p)
        assert close(acc.marginal(u), expected, f)
        assert close(g.marginal(u, members), sampled_value_p(f, members + [u], p)
                     - sampled_value_p(f, members, p), f)
        acc.add(u)
        history.append(u)
        weights[u] = keeper.add(u)
        members.append(u)
        assert_prefix_weights(f, p, members, weights)
        if data.draw(st.booleans()):
            v = data.draw(st.sampled_from(members))
            cut = members.index(v)
            later = {w for w in members[cut + 1:] if f.covers[w] & f.covers[v]}
            changed = keeper.remove(v)
            assert set(changed) == later  # every later holder of v's items moves up
            del members[cut], weights[v]
            weights.update(changed)
            assert_prefix_weights(f, p, members, weights)
        assert close(g.value(members), sampled_value_p(f, members, p), f)


def blocks_by_enumeration(run):
    """E over all rho^k block choices of f(selected occupants), as defined."""
    choices = itertools.product(range(run.rho), repeat=run.k)
    values = [run.f.value(run.feasible_set(list(c))) for c in choices]
    return sum(values) / len(values)


@settings(max_examples=30)
@given(coverages(9), st.integers(0, 2**32 - 1), st.sampled_from(["general", "uniform"]))
def test_randomized_runs_on_closed_forms_match_enumeration(shape, seed, rule):
    # float weights drawn off any lattice: equal weights, whose order a
    # closed form and an enumeration may round apart, do not occur
    rng = random.Random(seed)
    f = WeightedCoverage({i: rng.uniform(1, 30) for i in shape.universe_weight}, shape.covers)
    order = sorted(f.elements())
    rng.shuffle(order)
    if rule == "general":
        fast, slow = (NonmonotoneGeneralRun(g, UniformMatroid(3))
                      for g in (f, OpaqueObjective(f)))
        expected = lambda run: sampled_value_p(f, run.state.feasible, 0.5)
    else:
        fast, slow = (NonmonotoneUniformRun(g, k=2) for g in (f, OpaqueObjective(f)))
        expected = blocks_by_enumeration
    for u in order:
        df, ds = fast.step(u), slow.step(u)
        assert (df.accepted, df.evicted) == (ds.accepted, ds.evicted)
        assert close(df.w_u, ds.w_u, f)
        assert close(fast.state.f_S(), slow.state.f_S(), f)
        for v in fast.state.feasible:
            assert close(fast.state.w_S(v), slow.state.w_S(v), f)
        reference = expected(slow)
        assert close(fast.expected_feasible_value(), reference, f)
        assert close(slow.expected_feasible_value(), reference, f)


@settings(max_examples=40)
@given(coverages(12), st.data())
def test_block_sampled_value_matches_enumeration(f, data):
    ground = sorted(f.elements())
    rho = data.draw(st.integers(1, 3))
    blocks, rest = [], data.draw(st.permutations(ground))
    while rest and len(blocks) < 6:
        n = data.draw(st.integers(0, rho))
        blocks.append(list(rest[:n]))
        rest = rest[n:]
    by_choice = [f.value(frozenset(b[c] for b, c in zip(blocks, choice) if c < len(b)))
                 for choice in itertools.product(range(rho), repeat=len(blocks))]
    reference = sum(by_choice) / len(by_choice)
    assert close(f.block_sampled_value(blocks, rho), reference, f)
    assert close(block_sampled_value(f, blocks, rho), reference, f)


def test_block_sampled_value_refuses_beyond_the_limit():
    f = Linear({f"e{i:02d}": 1 for i in range(16)})
    blocks = [[f"e{2 * b:02d}", f"e{2 * b + 1:02d}"] for b in range(8)]
    assert f.block_sampled_value(blocks, 3) == pytest.approx(16 * 1 / 3)
    with pytest.raises(ObjectiveError, match="support 16 exceeds"):
        OpaqueObjective(f).block_sampled_value(blocks, 3)
    with pytest.raises(ObjectiveError, match="cannot hold"):
        f.block_sampled_value([["e00", "e01"]], 1)
