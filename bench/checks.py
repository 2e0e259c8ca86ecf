"""Output checks computed apart from the program.

Every reference here (threshold constants, interval measures, coverage
sums, greedy and brute-force optima) is the benchmark's own code working on
the raw inputs it generated, never on the program's objects or on a stored
copy of earlier output.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush


def bisect_alpha(k: int, rho: int) -> float:
    """Root a > rho + 1 of (1 + (a - rho - 1) / (rho k + 1))^(rho k + 1) = a."""
    n = rho * k + 1

    def gap(a):
        return (1.0 + (a - rho - 1) / n) ** n - a

    lo, hi = float(rho + 1), 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- hardness-k200 ----------------------------------------------------------------


def thin_interval(element: str, k: int):
    """The interval the uniform hardness stream gives to thin element p<i>.s<j>."""
    phase, slot = element.split(".")
    i, j = int(phase[1:]), int(slot[1:])
    return Fraction(i - 1) + Fraction(j - 1, 2 * k), Fraction(i - 1) + Fraction(j, 2 * k)


def interval_value(intervals, epsilon: Fraction) -> Fraction:
    """Twice the measure of the union under density (1 - eps)^-i on [i-1, i)."""
    total = Fraction(0)
    end = Fraction(-1)
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi <= lo:
            continue
        end = hi
        while lo < hi:
            cell = math.floor(lo) + 1
            top = min(hi, Fraction(cell))
            total += (top - lo) / (1 - epsilon) ** cell
            lo = top
    return 2 * total


def check_hardness(out: dict, k: int, epsilon: Fraction, phases: int) -> list:
    """``out``: min_ratio (report), decisions [(element, accepted, evicted)],
    final_set and final_value (the rule's state after the last arrival)."""
    problems = []
    lo, hi = 1 / bisect_alpha(k, 1), 1 / 3
    if not lo <= out["min_ratio"] <= hi:
        problems.append(f"min_ratio {out['min_ratio']} outside [{lo}, {hi}]")
    kept_unions = [u for u, acc, _ in out["decisions"] if acc and u.endswith(".union")]
    kept_unions += [u for u in out["final_set"] if u.endswith(".union")]
    if kept_unions:
        problems.append(f"union elements kept: {sorted(set(kept_unions))[:3]}")
    offered = {}
    for u, _, _ in out["decisions"]:
        offered.setdefault(u.split(".")[0], []).append(u)
    expected = {
        f"p{i}": [f"p{i}.s{j}" for j in range(1, 2 * k + 1)] + [f"p{i}.union"]
        for i in range(1, phases + 1)
    }
    if offered != expected:
        sizes = sorted({len(v) for v in offered.values()})
        problems.append(
            f"phases offered {len(offered)} (sizes {sizes}), expected {phases} of {2 * k + 1}"
        )
    thin = [thin_interval(u, k) for u in out["final_set"] if not u.endswith(".union")]
    own = interval_value(thin, epsilon)
    if Fraction(out["final_value"]) != own:
        problems.append(f"final f(S) {out['final_value']} != measure of kept intervals {own}")
    return problems


# -- exchange-partition ---------------------------------------------------------------


def coverage(elements, covers, weight) -> int:
    items = set()
    for u in elements:
        items.update(covers[u])
    return sum(weight[i] for i in items)


def greedy_partition(prefix, covers, weight, part_of, capacity) -> int:
    """Lazy greedy value of a coverage objective under a partition matroid."""
    covered, used, value = set(), {}, 0
    heap = [(-sum(weight[i] for i in covers[u]), n, u) for n, u in enumerate(prefix)]
    heapify(heap)
    while heap:
        _, n, u = heappop(heap)
        part = part_of[u]
        if used.get(part, 0) >= capacity[part]:
            continue
        gain = sum(weight[i] for i in set(covers[u]) - covered)
        if heap and gain < -heap[0][0]:
            heappush(heap, (-gain, n, u))
            continue
        if gain <= 0:
            break
        covered.update(covers[u])
        used[part] = used.get(part, 0) + 1
        value += gain
    return value


def singleton_bound(prefix, covers, weight, part_of, capacity) -> int:
    """Sum over parts of the part's top-capacity singleton values."""
    by_part = {}
    for u in prefix:
        by_part.setdefault(part_of[u], []).append(sum(weight[i] for i in covers[u]))
    return sum(sum(sorted(v, reverse=True)[: capacity[p]]) for p, v in by_part.items())


def exchange_references(doc: dict, checkpoints) -> dict:
    """Greedy values and singleton bounds of every checkpoint prefix."""
    obj, mat, order = doc["objective"], doc["matroid"], doc["arrival_order"]
    args = (obj["covers"], obj["universe_weight"], mat["part_of"], mat["capacity"])
    return {
        t: (greedy_partition(order[:t], *args), singleton_bound(order[:t], *args))
        for t in checkpoints
    }


def check_exchange(doc: dict, rounds: list, final: dict, refs: dict) -> list:
    """``doc``: the instance file as plain JSON; ``rounds``/``final``: the report."""
    problems = []
    covers, weight = doc["objective"]["covers"], doc["objective"]["universe_weight"]
    part_of, capacity = doc["matroid"]["part_of"], doc["matroid"]["capacity"]
    order = doc["arrival_order"]
    if [r["element"] for r in rounds] != order:
        return ["report rounds do not follow the arrival order"]
    held, accepts, evictions = set(), 0, 0
    for t, r in enumerate(rounds, 1):
        if r["decision"] == "accept":
            accepts += 1
            if r["evicted"] is not None:
                evictions += 1
                if r["evicted"] not in held:
                    problems.append(f"round {t} evicts {r['evicted']!r}, not a member")
                held.discard(r["evicted"])
            held.add(r["element"])
        if t in refs:
            counts = {}
            for u in held:
                counts[part_of[u]] = counts.get(part_of[u], 0) + 1
            over = [p for p, c in counts.items() if c > capacity[p]]
            if over:
                problems.append(f"round {t}: parts over capacity {sorted(over)}")
            own = coverage(held, covers, weight)
            if r["f_S"] != own:
                problems.append(f"round {t}: reported f_S {r['f_S']} != coverage {own}")
            greedy, bound = refs[t]
            if not greedy <= 4 * own <= 4 * bound:
                problems.append(f"round {t}: f(S)={own} outside [G/4={greedy / 4}, {bound}]")
    selected = final["selected"]
    counts = {}
    for u in selected:
        counts[part_of[u]] = counts.get(part_of[u], 0) + 1
    over = [p for p, c in counts.items() if c > capacity[p]]
    if over:
        problems.append(f"selected set over capacity in parts {sorted(over)}")
    if set(selected) != held:
        problems.append("selected set differs from the replayed decisions")
    own = coverage(selected, covers, weight)
    if final["f_S"] != own:
        problems.append(f"final f_S {final['f_S']} != coverage of selected {own}")
    if accepts - evictions != len(selected):
        problems.append(f"accepts {accepts} - evictions {evictions} != |selected| {len(selected)}")
    return problems


# -- randomized-small -------------------------------------------------------------------


def brute_force_prefix_optima(doc: dict) -> list:
    """Optimum over independent subsets of every arrival prefix (n <= 20)."""
    obj, mat, order = doc["objective"], doc["matroid"], doc["arrival_order"]
    items = sorted(obj["universe_weight"])
    bit = {i: 1 << b for b, i in enumerate(items)}
    item_w = [obj["universe_weight"][i] for i in items]
    emask = [sum(bit[i] for i in obj["covers"][u]) for u in order]
    n = len(order)
    if mat["kind"] == "uniform":
        parts = [((1 << n) - 1, mat["k"])]
    else:
        parts = [
            (sum(1 << b for b, u in enumerate(order) if mat["part_of"][u] == p), cap)
            for p, cap in mat["capacity"].items()
        ]
    wsum = {}

    def weight_of(cov):
        if cov not in wsum:
            wsum[cov] = sum(w for b, w in enumerate(item_w) if cov >> b & 1)
        return wsum[cov]

    cover = [0] * (1 << n)
    best_by_last = [0] * n
    for mask in range(1, 1 << n):
        low = mask & -mask
        cover[mask] = cover[mask ^ low] | emask[low.bit_length() - 1]
        if all(bin(mask & pm).count("1") <= cap for pm, cap in parts):
            last = mask.bit_length() - 1
            best_by_last[last] = max(best_by_last[last], weight_of(cover[mask]))
    out, best = [], 0
    for v in best_by_last:
        best = max(best, v)
        out.append(best)
    return out


def independent(doc: dict, chosen) -> bool:
    mat = doc["matroid"]
    if not set(chosen) <= set(doc["arrival_order"]):
        return False
    if mat["kind"] == "uniform":
        return len(set(chosen)) <= mat["k"]
    counts = {}
    for u in chosen:
        counts[mat["part_of"][u]] = counts.get(mat["part_of"][u], 0) + 1
    return all(c <= mat["capacity"][p] for p, c in counts.items())


def rounding_margin(doc: dict, trials: int) -> float:
    """Hoeffding margin for the mean of ``trials`` values in [0, f(ground)]
    at confidence 1 - 1e-6."""
    obj = doc["objective"]
    top = sum(obj["universe_weight"].values())
    return top * math.sqrt(math.log(1e6) / (2 * trials))


def check_randomized(alg: str, doc: dict, rounds: list, final: dict, opts: list,
                     floor: float, margin: float) -> list:
    """Per-run checks of partition-frac, nonmono-general and nonmono-uniform."""
    problems = []
    if [r["element"] for r in rounds] != doc["arrival_order"]:
        return [f"{alg}: report rounds do not follow the arrival order"]
    for t, (r, opt) in enumerate(zip(rounds, opts), 1):
        if r["opt_prefix"] != opt:
            problems.append(f"{alg} round {t}: opt_prefix {r['opt_prefix']} != brute force {opt}")
        if "expected_f" in r and r["expected_f"] < floor * opt - 1e-9 * (1 + opt):
            problems.append(f"{alg} round {t}: expected_f {r['expected_f']} < {floor} * {opt}")
    if final["opt"] != opts[-1]:
        problems.append(f"{alg}: final opt {final['opt']} != brute force {opts[-1]}")
    if alg == "partition-frac":
        if not independent(doc, final["rounded_once"]):
            problems.append(f"{alg}: rounded set {final['rounded_once']} is not independent")
        if final["rounded_mean"] < final["soft_value"] - margin:
            problems.append(
                f"{alg}: rounded_mean {final['rounded_mean']} < soft_value "
                f"{final['soft_value']} - {margin}"
            )
    else:
        if not independent(doc, final["selected_once"]):
            problems.append(f"{alg}: selected set {final['selected_once']} is not independent")
        if final["expected_f"] < floor * opts[-1] - 1e-9 * (1 + opts[-1]):
            problems.append(f"{alg}: expected_f {final['expected_f']} < {floor} * {opts[-1]}")
    return problems
