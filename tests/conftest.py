import copy
import random

import hypothesis
import pytest

from subfree.matroid import Occupancy
from subfree.objective import ExplicitTable, WeightedCoverage, subset_key

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def random_coverage(rng: random.Random, n_elements: int, n_items: int = 6,
                    max_weight: int = 8) -> WeightedCoverage:
    """Random monotone coverage objective with small integer weights."""
    items = [f"x{i}" for i in range(n_items)]
    weights = {i: rng.randint(0, max_weight) for i in items}
    covers = {}
    for j in range(n_elements):
        size = rng.randint(1, max(1, n_items // 2))
        covers[f"e{j}"] = frozenset(rng.sample(items, size))
    return WeightedCoverage(weights, covers)


def online_roundings(st, seed: int, trials: int) -> list:
    """The definitional rounding phase of a ``FractionalState``: ``trials``
    calls of ``round_online``, each on the next points of one generator
    seeded ``seed``, drawn part by part in the matroid's order, ``cap``
    points in (0, cap] for a part of capacity ``cap``."""
    rng = random.Random(seed)
    return [st.round_online({l: [cap * (1.0 - rng.random()) for _ in range(cap)]
                             for l, cap in st.matroid.capacity.items()})
            for _ in range(trials)]


def coverage_as_table(cov: WeightedCoverage) -> ExplicitTable:
    ground = sorted(cov.elements())
    table = {}
    stack = [(frozenset(), 0)]
    while stack:
        s, i = stack.pop()
        table[subset_key(s)] = cov.value(s)
        for j in range(i, len(ground)):
            stack.append((s | {ground[j]}, j + 1))
    return ExplicitTable(ground, table)


def opaque_matroid(m):
    """A copy of ``m`` behind the reference occupancy, which holds the set and
    asks the generic set-argument queries; its type stays, as the capacity
    rule needs."""
    opaque = copy.copy(m)
    opaque.occupancy = lambda: Occupancy(opaque)
    return opaque


@pytest.fixture
def rng():
    return random.Random(20240817)
