import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from subfree.objective import (
    MAX_INTERVAL_CELL,
    ExplicitTable,
    IntervalCoverage,
    Linear,
    ObjectiveError,
    ThinnedObjective,
    WeightedCoverage,
    normalize_intervals,
    sampled_value_p,
    soft_marginal_rate,
    soft_value,
    subset_key,
    as_float,
    greater,
    slack_floor,
    unscaled,
)
from conftest import coverage_as_table, random_coverage


def powerset(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


# -- value / marginal ------------------------------------------------------


def test_empty_set_values():
    cov = WeightedCoverage({"x": 1}, {"e1": {"x"}})
    lin = Linear({"e1": 2})
    assert cov.value(frozenset()) == 0
    assert lin.value(frozenset()) == 0


def test_weighted_coverage_full_cover():
    f = WeightedCoverage({"x": 1, "y": 2}, {"e1": {"x"}, "e2": {"x", "y"}})
    assert f.value({"e1", "e2"}) == 3


def test_unknown_element_raises():
    f = WeightedCoverage({"x": 1}, {"e1": {"x"}})
    with pytest.raises(ObjectiveError):
        f.value({"bogus"})


def test_marginal_of_member_is_zero():
    f = Linear({"a": 3, "b": 1})
    assert f.marginal("a", {"a", "b"}) == 0


def test_marginal_disjoint_covers_is_own_weight():
    f = WeightedCoverage({"x": 1, "y": 2}, {"e1": {"x"}, "e2": {"y"}})
    assert f.marginal("e2", {"e1"}) == 2


def test_marginal_matches_definition_on_random_table(rng):
    table = coverage_as_table(random_coverage(rng, 5))
    for s in powerset(table.ground):
        for u in table.ground:
            if u not in s:
                assert table.marginal(u, s) == table.value(s | {u}) - table.value(s)


def test_explicit_table_rejects_non_submodular():
    bad = {subset_key(s): 0 for s in powerset(["a", "b"])}
    bad[subset_key({"a", "b"})] = 5  # strictly supermodular
    with pytest.raises(ObjectiveError):
        ExplicitTable(["a", "b"], bad)


def test_explicit_table_monotone_flag():
    mono = coverage_as_table(random_coverage(random.Random(2), 4))
    assert mono.monotone
    vals = {"": 0.0, "a": 2.0, "b": 2.0, "a,b": 2.5}
    t = ExplicitTable(["a", "b"], vals)
    assert t.monotone
    dips = {"": 1.0, "a": 2.0, "b": 0.5, "a,b": 1.0}
    t2 = ExplicitTable(["a", "b"], dips)
    assert not t2.monotone


def test_submodularity_random_coverage_triples(rng):
    f = random_coverage(rng, 6)
    ground = sorted(f.elements())
    for _ in range(200):
        s = frozenset(rng.sample(ground, rng.randint(0, 3)))
        t = s | frozenset(rng.sample(ground, rng.randint(0, 3)))
        u = rng.choice(ground)
        if u in t:
            continue
        assert f.marginal(u, s) >= f.marginal(u, t)


# -- interval coverage ------------------------------------------------------


def test_interval_unit_cell_value():
    f = IntervalCoverage(Fraction(1, 2), {"e": [(0, 1)]})
    assert f.value({"e"}) == 4  # 2 * (1 - 1/2)**-1

def test_interval_cell_weights():
    f = IntervalCoverage(Fraction(1, 2), {})
    assert f.cell_weight(1) == 2
    assert f.cell_weight(2) == 4


def test_interval_union_not_double_counted():
    f = IntervalCoverage(
        Fraction(1, 2),
        {"a": [(0, Fraction(3, 4))], "b": [(Fraction(1, 4), 1)]},
    )
    assert f.value({"a", "b"}) == f.value({"a"}) + f.value({"b"}) - 2 * 2 * Fraction(1, 2)


def test_interval_cross_cell_measure():
    f = IntervalCoverage(Fraction(1, 2), {"e": [(Fraction(1, 2), Fraction(3, 2))]})
    # half of cell 1 (weight 2) plus half of cell 2 (weight 4), doubled
    assert f.value({"e"}) == 2 * (Fraction(1, 2) * 2 + Fraction(1, 2) * 4)


def test_interval_values_are_exact_fractions():
    f = IntervalCoverage(Fraction(1, 20), {"e": [(0, Fraction(1, 400))]})
    assert f.value({"e"}) == 2 * Fraction(1, 400) * Fraction(20, 19)


def test_normalize_intervals_merges_and_validates():
    assert normalize_intervals([(1, 2), (2, 3)]) == ((Fraction(1), Fraction(3)),)
    with pytest.raises(ObjectiveError):
        normalize_intervals([(2, 2)])
    with pytest.raises(ObjectiveError):
        normalize_intervals([(-1, 2)])


# -- the coverage normal form against the interval definition ---------------


def _random_intervals(rng, n):
    """Overlapping, nested and cell-crossing intervals on [0, 36)."""
    ivs = []
    for _ in range(n):
        lo = Fraction(rng.randint(0, 24), rng.choice([1, 2, 3, 4]))
        hi = lo + Fraction(rng.randint(1, 12), rng.choice([1, 2, 4, 6]))
        ivs.append((lo, hi))
        if rng.random() < 0.3:  # nested inside the last one
            ivs.append((lo + (hi - lo) / 3, hi - (hi - lo) / 4))
    return ivs


class _IntervalReference:
    """The definition the normal form must reproduce: twice the density
    measure of the merged union."""

    def __init__(self, f, covers):
        self.f, self.covers = f, covers

    def value(self, s):
        return 2 * self.f.weighted_measure(normalize_intervals(
            [iv for el in s for iv in self.covers[el]]
        ))


def _random_interval_instance(rng):
    eps = rng.choice([Fraction(1, 20), Fraction(1, 3), Fraction(1, 2)])
    covers = {f"e{i}": _random_intervals(rng, rng.randint(0, 3)) for i in range(rng.randint(2, 7))}
    f = IntervalCoverage(eps, covers)
    ref = _IntervalReference(f, dict(covers))
    return f, ref


def test_interval_normal_form_matches_definition():
    for trial in range(60):
        rng = random.Random(trial)
        f, ref = _random_interval_instance(rng)
        ground = sorted(f.elements())
        assert ground == sorted(ref.covers)
        for el in ground:
            assert f.intervals(el) == normalize_intervals(ref.covers[el])
        for _ in range(20):
            s = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            value = f.value(s)
            assert type(value) is Fraction and value == ref.value(s)
            u = rng.choice(ground)
            assert f.marginal(u, s) == ref.value(s | {u}) - ref.value(s)


def test_interval_accumulator_matches_definition():
    for trial in range(40):
        rng = random.Random(100 + trial)
        f, ref = _random_interval_instance(rng)
        acc, base = f.accumulator(), set()
        assert type(acc.marginal(sorted(f.elements())[0])) is Fraction
        pending = sorted(ref.covers)
        rng.shuffle(pending)
        while pending:
            for u in pending:
                assert acc.marginal(u) == ref.value(base | {u}) - ref.value(base)
            u = pending.pop()
            acc.add(u)
            base.add(u)


def test_interval_endpoint_bound():
    top = MAX_INTERVAL_CELL
    f = IntervalCoverage(Fraction(1, 2), {"a": [(top - 1, top)]})
    assert f.value({"a"}) == 2 * 2**top
    with pytest.raises(ObjectiveError, match="beyond cell"):
        IntervalCoverage(Fraction(1, 2), {"a": [(0, top + Fraction(1, 2))]})
    # density 10^i: the value of [0, 308) is about 2.2e308, past the largest float
    with pytest.raises(ObjectiveError, match="float range"):
        IntervalCoverage(Fraction(9, 10), {"a": [(0, 308)]})
    g = IntervalCoverage(Fraction(9, 10), {"a": [(0, 300)]})
    assert float(g.value({"a"})) < 1e302


def test_linear_matches_sorted_sum():
    rng = random.Random(7)
    for weights in (
        {f"e{i}": rng.uniform(0, 3) for i in range(9)},
        {f"e{i}": rng.randint(0, 5) for i in range(9)},
        {f"e{i}": Fraction(rng.randint(0, 9), rng.randint(1, 4)) for i in range(9)},
    ):
        f = Linear(weights)
        ground = sorted(weights)
        acc = f.accumulator()
        rng.shuffle(ground)
        for u in ground:
            s = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            value = f.value(s)
            plain = sum(weights[el] for el in sorted(s))
            assert type(value) is type(plain) and value == plain
            assert acc.marginal(u) == weights[u]
            acc.add(u)
            assert acc.marginal(u) == 0


def test_weighted_coverage_register():
    f = WeightedCoverage({"x": 1, "y": 2}, {"a": {"x"}})
    acc = f.accumulator()  # made before the registration, as a stream's tracker is
    acc.add("a")
    f.register({"b": ["x", "z"], "c": ("z", "v")}, {"z": 3, "v": 4})
    assert f.value({"b"}) == 4 and f.value({"a", "b"}) == 4 and f.value({"c"}) == 7
    assert acc.marginal("b") == 3 and acc.marginal("c") == 7
    f.register({"d": ["y", "v"]})  # old items only
    assert f.value({"d"}) == 6
    f.register({})  # an empty batch adds nothing
    before = (dict(f.universe_weight), dict(f.covers))
    for covers, new, match in (
        ({"a": ["y"]}, {}, "element 'a' already registered"),
        ({"e": ["w", "x"]}, {"w": 1, "x": 5}, "item 'x' already exists"),
        ({"e": ["y", "w"]}, {}, r"element 'e' covers unknown items \['w'\]"),
        ({"e": ["w"]}, {"w": -1}, "item 'w' has negative weight"),
        ({"e": ["w"]}, {"w": math.inf}, "item 'w' has a non-finite weight"),
        ({"e": ["w"]}, {"w": math.nan}, "item 'w' has a non-finite weight"),
    ):
        with pytest.raises(ObjectiveError, match=match):
            f.register(covers, new)
        assert (f.universe_weight, f.covers) == before


@pytest.mark.parametrize("last, extra, match", [
    (("b", ["p9"]), {}, "element 'b' already registered"),
    (("e9", ["x"]), {"x": 5}, "item 'x' already exists"),
    (("e9", ["p0", "w"]), {}, r"element 'e9' covers unknown items \['w'\]"),
    (("e9", ["p9"]), {"p9": -1}, "item 'p9' has negative weight"),
    (("e9", ["p9"]), {"p9": math.inf}, "item 'p9' has a non-finite weight"),
    (("e9", ["p9"]), {"p9": math.nan}, "item 'p9' has a non-finite weight"),
])
def test_weighted_coverage_register_is_all_or_nothing(last, extra, match):
    """A batch whose last element fails a check adds none of the elements
    or items before it."""
    f = WeightedCoverage({"x": 1, "y": 2}, {"a": {"x"}, "b": {"y"}})
    before = (dict(f.universe_weight), dict(f.covers))
    covers = {f"e{j}": [f"p{j}", "x"] for j in range(8)}
    covers[last[0]] = last[1]
    new = {f"p{j}": j + 1 for j in range(8)}
    new.update(extra)
    with pytest.raises(ObjectiveError, match=match):
        f.register(covers, new)
    assert (f.universe_weight, f.covers) == before
    # the same batch without its failing part lands whole
    del covers[last[0]]
    f.register(covers, {i: w for i, w in new.items() if i not in extra})
    assert f.value(covers) == 1 + sum(range(1, 9))


# -- accumulator hooks ------------------------------------------------------


def test_accumulator_matches_direct_marginals(rng):
    for f in (
        random_coverage(rng, 6),
        Linear({f"e{i}": i + 1 for i in range(6)}),
        coverage_as_table(random_coverage(rng, 5)),
        IntervalCoverage(
            Fraction(1, 3),
            {f"e{i}": [(Fraction(i, 2), Fraction(i, 2) + 1)] for i in range(6)},
        ),
    ):
        ground = sorted(f.elements())
        rng.shuffle(ground)
        acc = f.accumulator()
        base = []
        for u in ground:
            assert acc.marginal(u) == f.marginal(u, base)
            acc.add(u)
            base.append(u)


# -- soft extension ----------------------------------------------------------


def test_soft_value_zero_masses(rng):
    f = random_coverage(rng, 4)
    assert soft_value(f, {}) == f.value(frozenset())


def test_soft_value_single_element():
    f = Linear({"a": 5})
    t = 0.7
    expected = (1 - math.exp(-t)) * 5
    assert soft_value(f, {"a": t}) == pytest.approx(expected, rel=1e-12)


def _coverage_with_masses(rng):
    """Random coverage with positive float weights, and masses on some members."""
    items = [f"x{i}" for i in range(6)]
    covers = {
        f"e{j}": frozenset(rng.sample(items, rng.randint(1, 3)))
        for j in range(rng.randint(3, 8))
    }
    f = WeightedCoverage({i: rng.uniform(0.5, 4.0) for i in items}, covers)
    masses = {el: rng.uniform(0.0, 2.0) for el in covers if rng.random() < 0.7}
    return f, masses


def _covering_mass(f, masses):
    """M_i: the mass on the members that cover item i."""
    return {
        i: sum(m for el, m in masses.items() if i in f.covers[el])
        for i in f.universe_weight
    }


def test_soft_value_matches_coverage_closed_form():
    # F(m) = sum_i w_i (1 - exp(-M_i))
    for seed in range(25):
        f, masses = _coverage_with_masses(random.Random(seed))
        mass = _covering_mass(f, masses)
        closed = sum(w * (1 - math.exp(-mass[i])) for i, w in f.universe_weight.items())
        assert soft_value(f, masses) == pytest.approx(closed, rel=1e-12)


def test_soft_marginal_rate_matches_coverage_closed_form():
    # dF/dm_u = sum over items i covered by u of w_i exp(-M_i)
    for seed in range(25):
        f, masses = _coverage_with_masses(random.Random(100 + seed))
        mass = _covering_mass(f, masses)
        for u in sorted(f.elements()):
            closed = sum(f.universe_weight[i] * math.exp(-mass[i]) for i in f.covers[u])
            assert soft_marginal_rate(f, u, masses) == pytest.approx(closed, rel=1e-12)


def test_sampled_value_matches_coverage_closed_form():
    # E f(p-thinning of s) = sum_i w_i (1 - (1 - p)^c_i), c_i = |{v in s : v covers i}|
    for seed in range(25):
        rng = random.Random(200 + seed)
        f, _ = _coverage_with_masses(rng)
        s = frozenset(el for el in f.elements() if rng.random() < 0.6)
        for p in (0.0, 0.3, rng.random(), 1.0):
            closed = sum(
                w * (1 - (1 - p) ** sum(i in f.covers[v] for v in s))
                for i, w in f.universe_weight.items()
            )
            assert sampled_value_p(f, s, p) == pytest.approx(closed, rel=1e-12)


def test_soft_value_support_guard():
    f = Linear({f"e{i}": 1 for i in range(16)})
    with pytest.raises(ObjectiveError):
        soft_value(f, {f"e{i}": 1.0 for i in range(16)})


def test_soft_marginal_rate_empty_vector(rng):
    f = random_coverage(rng, 4)
    u = sorted(f.elements())[0]
    assert soft_marginal_rate(f, u, {}) == pytest.approx(f.marginal(u, frozenset()))


def test_soft_marginal_rate_damps_to_zero():
    f = Linear({"a": 5, "b": 1})
    assert soft_marginal_rate(f, "a", {"a": 60.0, "b": 0.3}) == pytest.approx(0.0, abs=1e-20)


def test_soft_marginal_rate_is_coordinate_derivative(rng):
    f = random_coverage(rng, 5)
    ground = sorted(f.elements())
    masses = {el: rng.uniform(0, 1.5) for el in ground[:4]}
    delta = 1e-6
    for u in ground:
        rate = soft_marginal_rate(f, u, masses)
        bumped = dict(masses)
        bumped[u] = bumped.get(u, 0.0) + delta
        fd = (soft_value(f, bumped) - soft_value(f, masses)) / delta
        assert fd == pytest.approx(rate, rel=1e-4, abs=1e-9)


def test_soft_extension_submodular_across_vectors(rng):
    # rate against a larger vector never exceeds the rate against a smaller one
    f = random_coverage(rng, 5)
    ground = sorted(f.elements())
    for _ in range(40):
        small = {el: rng.uniform(0, 1) for el in rng.sample(ground, 3)}
        large = dict(small)
        for el in rng.sample(ground, 2):
            large[el] = large.get(el, 0.0) + rng.uniform(0, 1)
        u = rng.choice(ground)
        assert soft_marginal_rate(f, u, large) <= soft_marginal_rate(f, u, small) + 1e-9


def test_soft_value_monotone_in_vector(rng):
    f = random_coverage(rng, 5)
    ground = sorted(f.elements())
    for _ in range(40):
        small = {el: rng.uniform(0, 1) for el in rng.sample(ground, 3)}
        large = {el: m + rng.uniform(0, 1) for el, m in small.items()}
        assert soft_value(f, large) >= soft_value(f, small) - 1e-12


# -- p-thinning ---------------------------------------------------------------


def test_sampled_value_extremes(rng):
    f = random_coverage(rng, 5)
    s = frozenset(sorted(f.elements())[:3])
    assert sampled_value_p(f, s, 1) == pytest.approx(f.value(s))
    assert sampled_value_p(f, s, 0) == pytest.approx(f.value(frozenset()))


def test_sampled_value_half_matches_expansion(rng):
    table = coverage_as_table(random_coverage(rng, 3))
    s = frozenset(table.ground)
    expansion = sum(table.value(t) for t in powerset(s)) / 8.0
    assert sampled_value_p(table, s, 0.5) == pytest.approx(expansion)


def test_sampled_value_p_range_guard(rng):
    f = random_coverage(rng, 3)
    with pytest.raises(ObjectiveError):
        sampled_value_p(f, f.elements(), 1.5)


def test_thinned_objective_is_submodular(rng):
    base = coverage_as_table(random_coverage(rng, 4))
    g = ThinnedObjective(base, Fraction(1, 2))
    ground = sorted(g.elements())
    for s in powerset(ground):
        for u in ground:
            for v in ground:
                if u != v and u not in s and v not in s:
                    lhs = g.marginal(u, s)
                    rhs = g.marginal(u, s | {v})
                    assert lhs >= rhs - 1e-9


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=16)
def test_union_thinning_lower_bound(pi, qi):
    # E[f(I_p(A) u I_q(B))] >= (1-p)(1-q) f(0) + p(1-q) f(A) + q(1-p) f(B) + pq f(A u B)
    rng = random.Random(97 + 10 * pi + qi)
    table = coverage_as_table(random_coverage(rng, 5))
    ground = sorted(table.ground)
    p = [0.0, 0.25, 0.5, 1.0][pi]
    q = [0.0, 0.25, 0.5, 1.0][qi]
    for _ in range(10):
        a = frozenset(rng.sample(ground, rng.randint(0, 4)))
        b = frozenset(rng.sample(ground, rng.randint(0, 4)))
        include = {}
        for el in ground:
            pa = p if el in a else 0.0
            pb = q if el in b else 0.0
            include[el] = 1 - (1 - pa) * (1 - pb)
        pool = [el for el in ground if include[el] > 0]
        exact = 0.0
        for t in powerset(pool):
            pr = 1.0
            for el in pool:
                pr *= include[el] if el in t else 1 - include[el]
            exact += pr * table.value(t)
        bound = (
            (1 - p) * (1 - q) * table.value(frozenset())
            + p * (1 - q) * table.value(a)
            + q * (1 - p) * table.value(b)
            + p * q * table.value(a | b)
        )
        assert exact >= bound - 1e-9


# -- values in units -----------------------------------------------------------------


@settings(max_examples=300)
@given(st.integers(0, 10**40), st.sampled_from([1, 7, 3 * 10**30, 2**200]),
       st.one_of(st.floats(allow_nan=True), st.fractions(0, 10**9).map(float)),
       st.sampled_from([1e-9, 1e-12]), st.booleans())
def test_unit_helpers_match_the_exact_original_values(a, unit, x, slack, as_fraction):
    """Each helper on a value in units against Python's own exact arithmetic on
    the original value: comparisons exact, floats correctly rounded."""
    if as_fraction:
        a = Fraction(a, 3)
    orig = Fraction(a, unit)
    assert unscaled(a, unit) == orig and unscaled(x, unit) is x
    assert as_float(a, unit) == float(orig) and as_float(x, unit) is x
    assert greater(a, x, unit) == (orig > x)
    assert greater(x, a, unit) == (x > orig)
    assert greater(a, a + 1, unit) is False and greater(a + 1, a, unit) is True
    assert slack_floor(a, slack, unit) == orig - slack * (1 + abs(orig))
    if math.isfinite(x):
        assert slack_floor(x, slack, unit) == x - slack * (1 + abs(x))
