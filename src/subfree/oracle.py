"""Independent brute-force references used to judge the online rules.

Everything here is definitional and exhaustive: offline optima by
enumerating independent sets, sampling-distribution expectations summed
term by term, and random submodular instances built from coverage (plus an
optional modular shift to create non-monotone cases).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .matroid import ExplicitMatroid, Matroid, PartitionMatroid, UniformMatroid
from .objective import (
    ExplicitTable,
    Objective,
    ObjectiveError,
    WeightedCoverage,
    subset_key,
)

CKP_TOL = 1e-12
MAX_ASSIGNMENT_ARRIVALS = 12


def brute_force_opt(
    objective: Objective, matroid: Matroid, arrived: Iterable[str]
) -> Tuple[FrozenSet[str], object]:
    """Exhaustive offline optimum over independent subsets of the arrivals.

    Ties go to the lexicographically least member tuple.
    """
    arrived = frozenset(arrived)
    best_set, best_val, best_key = None, None, None
    for s in matroid.enumerate_independent_sets(arrived):
        v = objective.value(s)
        key = tuple(sorted(s))
        if best_val is None or v > best_val or (v == best_val and key < best_key):
            best_set, best_val, best_key = s, v, key
    return best_set, best_val


def prefix_optima(
    objective: Objective, matroid: Matroid, arrival_order: List[str]
) -> List[object]:
    """Offline optimum of every arrival prefix, via one enumeration sweep.

    Each independent set becomes available at the arrival of its latest
    member, so a running maximum over sets sorted by that index gives all
    prefix optima in one pass.  Agrees with ``brute_force_opt`` per prefix.
    """
    rank = {u: i for i, u in enumerate(arrival_order)}
    latest: List[Tuple[int, object]] = []
    for s in matroid.enumerate_independent_sets(frozenset(arrival_order)):
        idx = max((rank[u] for u in s), default=-1)
        latest.append((idx, objective.value(s)))
    latest.sort(key=lambda t: t[0])
    out: List[object] = []
    best = objective.value(frozenset())
    pos = 0
    for i in range(len(arrival_order)):
        while pos < len(latest) and latest[pos][0] <= i:
            if latest[pos][1] > best:
                best = latest[pos][1]
            pos += 1
        out.append(best)
    return out


def assignment_prefix_optima(agents, arrival_order: List[str]) -> List[object]:
    """Optimal assignment of every arrival prefix to the agents (or to nobody).

    Each agent is an (objective, matroid) pair.  One subset DP runs over all
    arrivals with bit i standing for the i-th arrival, so the optimum of
    prefix i sits at mask (1 << (i + 1)) - 1.
    """
    n = len(arrival_order)
    if n > MAX_ASSIGNMENT_ARRIVALS:
        raise ObjectiveError(
            f"assignment optimum limited to {MAX_ASSIGNMENT_ARRIVALS} arrivals"
        )
    index = {u: i for i, u in enumerate(arrival_order)}

    def best_table(f, m):
        # best independent-subset value inside every subset mask
        vals = [None] * (1 << n)
        for s in m.enumerate_independent_sets(frozenset(arrival_order)):
            mask = sum(1 << index[u] for u in s)
            v = f.value(s)
            if vals[mask] is None or v > vals[mask]:
                vals[mask] = v
        out = [f.value(frozenset())] * (1 << n)
        for mask in range(1 << n):
            if vals[mask] is not None and vals[mask] > out[mask]:
                out[mask] = vals[mask]
            for b in range(n):
                if mask >> b & 1:
                    prev = out[mask ^ (1 << b)]
                    if prev > out[mask]:
                        out[mask] = prev
        return out

    tables = [best_table(f, m) for f, m in agents]
    best = tables[0]
    for table in tables[1:]:
        nxt = [None] * (1 << n)
        for mask in range(1 << n):
            sub = mask
            acc = None
            while True:
                cand = best[mask ^ sub] + table[sub]
                if acc is None or cand > acc:
                    acc = cand
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            nxt[mask] = acc
        best = nxt
    return [best[(1 << (i + 1)) - 1] for i in range(n)]


def check_ckp_domination(g: ExplicitTable, n: int, k: int) -> Tuple[bool, Dict[str, float]]:
    """Exact comparison of k-subset sampling against independent p=k/n sampling.

    Returns the verdict E[g(without replacement)] >= E[g(independent)] minus
    a 1e-12 allowance, and both expectations as the witness.
    """
    ground = sorted(g.ground)
    if n != len(ground):
        raise ObjectiveError(f"table ground has {len(ground)} elements, not {n}")
    if n > 10:
        raise ObjectiveError("exact expectations are limited to grounds of 10")
    if not 0 <= k <= n:
        raise ObjectiveError("k must lie in [0, n]")
    p = k / n
    subsets = list(combinations(ground, k))
    without_replacement = sum(g.value(frozenset(s)) for s in subsets) / len(subsets)
    independent = 0.0
    for r in range(n + 1):
        weight = p**r * (1 - p) ** (n - r)
        if weight == 0.0:
            continue
        independent += weight * sum(g.value(frozenset(s)) for s in combinations(ground, r))
    ok = without_replacement >= independent - CKP_TOL
    return ok, {"without_replacement": without_replacement, "independent": independent}


def check_f_vs_fhat(
    objective: Objective, opt_set: Iterable[str], masses: Mapping[str, float]
) -> Tuple[bool, float]:
    """Verify f(O) <= soft_value(A) + sum over O of the soft marginal rates."""
    opt_set = frozenset(opt_set)
    lhs = objective.value(opt_set)
    rhs = objective.soft_value(masses) + sum(
        objective.soft_rate(v, masses) for v in sorted(opt_set)
    )
    slack = rhs - lhs
    return slack >= -1e-9, slack


def greedy_optimality_gap(state) -> object:
    """Max frozen/current-weight value of an independent subset of the
    history, minus the same sum over the present feasible set.

    Zero (up to float noise) certifies that the feasible set is a maximum
    weight independent subset of the history under the frozen weights.
    """
    history = frozenset(state.history)
    best = None
    for s in state.matroid.enumerate_independent_sets(history):
        v = sum(state.hat_w(u) for u in sorted(s))
        if best is None or v > best:
            best = v
    mine = sum(state.hat_w(u) for u in sorted(state.feasible))
    return best - mine


# -- random instances ---------------------------------------------------------


def random_coverage_objective(
    rng: random.Random,
    n_elements: int,
    n_items: int = 6,
    max_weight: int = 8,
    prefix: str = "e",
) -> WeightedCoverage:
    items = [f"x{i}" for i in range(n_items)]
    weights = {i: rng.randint(0, max_weight) for i in items}
    covers = {
        f"{prefix}{j}": frozenset(rng.sample(items, rng.randint(1, max(1, n_items // 2))))
        for j in range(n_elements)
    }
    return WeightedCoverage(weights, covers)


def random_submodular_table(
    rng: random.Random, n: int, monotone: bool = True
) -> ExplicitTable:
    """Random table, submodular by construction.

    Coverage values are submodular; subtracting a modular term preserves
    that, and a constant shift restores nonnegativity.  Non-monotone tables
    get the modular subtraction, then are re-validated on load.
    """
    cov = random_coverage_objective(rng, n, n_items=max(3, n), max_weight=6)
    ground = sorted(cov.elements())
    penalty = {u: (0 if monotone else rng.randint(0, 5)) for u in ground}
    raw: Dict[str, float] = {}
    low = 0.0
    stack = [(frozenset(), 0)]
    while stack:
        s, i = stack.pop()
        v = cov.value(s) - sum(penalty[u] for u in s)
        raw[subset_key(s)] = v
        low = min(low, v)
        for j in range(i, len(ground)):
            stack.append((s | {ground[j]}, j + 1))
    table = {key: float(v - low) for key, v in raw.items()}
    return ExplicitTable(ground, table)


def random_matroid(rng: random.Random, ground: List[str], kind: Optional[str] = None) -> Matroid:
    kind = kind or rng.choice(["uniform", "partition", "explicit"])
    if kind == "uniform":
        return UniformMatroid(rng.randint(1, max(2, len(ground) // 2)))
    if kind == "partition":
        n_parts = rng.randint(1, min(4, len(ground)))
        parts = [f"p{i}" for i in range(n_parts)]
        part_of = {u: rng.choice(parts) for u in ground}
        capacity = {p: rng.randint(1, 2) for p in parts}
        return PartitionMatroid(part_of, capacity)
    if kind == "explicit":
        # materialize a random partition matroid as an explicit family
        parts = ["p0", "p1"]
        part_of = {u: rng.choice(parts) for u in ground}
        capacity = {"p0": rng.randint(1, 2), "p1": rng.randint(1, 2)}
        pm = PartitionMatroid(part_of, capacity)
        sets = pm.enumerate_independent_sets(ground)
        maximal = [s for s in sets if not any(s < t for t in sets)]
        return ExplicitMatroid(ground, maximal)
    raise ValueError(f"unknown matroid kind {kind!r}")


def random_instance(
    rng: random.Random,
    n_elements: int,
    matroid_kind: Optional[str] = None,
) -> Tuple[Objective, Matroid, List[str]]:
    """A random monotone coverage instance with a shuffled arrival order."""
    if matroid_kind == "explicit":
        n_elements = min(n_elements, 6)
    f = random_coverage_objective(rng, n_elements)
    order = sorted(f.elements())
    rng.shuffle(order)
    matroid = random_matroid(rng, sorted(f.elements()), matroid_kind)
    return f, matroid, order


def random_escalating_instance(
    rng: random.Random, n_elements: int
) -> Tuple[WeightedCoverage, List[str]]:
    """Geometrically growing item weights in arrival order.

    Every later arrival beats the incumbents, so replacement logic gets
    exercised hard; occasional overlaps with the previous item keep the
    objective genuinely submodular.  Exact rational weights keep the
    threshold comparisons tie-free.
    """
    from fractions import Fraction

    growth = Fraction(rng.randint(13, 22), 10)
    weights, covers = {}, {}
    for i in range(n_elements):
        weights[f"x{i}"] = growth**i
        cov = {f"x{i}"}
        if i and rng.random() < 0.35:
            cov.add(f"x{i - 1}")
        covers[f"e{i:02d}"] = frozenset(cov)
    return WeightedCoverage(weights, covers), [f"e{i:02d}" for i in range(n_elements)]
