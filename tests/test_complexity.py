"""Complexity contracts: each rule's work per arrival, counted, not timed.

The count is cProfile's ``total_calls`` over one ``cli.main`` run, which does
not depend on the machine or on ``PYTHONHASHSEED``.  Each contract runs one
seeded stream and a stream four times as long, and asserts that the count
grows at most 4.5 times: a cost per arrival that grows with the stream, or
with the selected set S as it grows, shows as a larger ratio.

- ``run --alg general`` (20 parts of capacity 3) and ``run --alg k-uniform``
  (k = 20) on the exchange-partition generator, at n and 4n arrivals;
- the uniform hardness family at k and 2k, whose arrivals grow as k^2, under
  each rule it plays.

The capacity rule's work must not grow with the capacity either: ``run
--alg k-uniform`` on the same generator at n = 800 grows at most 1.5 times
from k = 20 to k = 80 (1.36 times; the larger set accepts more arrivals
before it fills).  Finding the least member by a scan of S instead of the
lazy heap gives 1.57 times.

The bound is a ratio, so it survives Python upgrades; absolute counts are
not asserted.  ``partition-frac`` is left out until ROADMAP item 4: its cost
grows with the history, 8.45 times at 4n.
"""

import contextlib
import cProfile
import io
import json
import pstats
import random

import pytest

from subfree.cli import EXIT_OK, main

GROWTH = 4.5
K_GROWTH = 1.5


def exchange_partition(n: int, uniform_k=None, seed: int = 1) -> dict:
    """n weighted-coverage arrivals over 3n/2 items; each covers 2-6 items just
    behind its position in the stream, so later arrivals are heavier."""
    parts, items = 20, 3 * n // 2
    rng = random.Random(seed)
    weight = {f"i{j}": 1 + (j * 40) // items + rng.randint(0, 3) for j in range(items)}
    covers, part_of = {}, {}
    for e in range(n):
        c = e * items // n
        pool = range(max(0, c - 60), min(items, c + 8))
        covers[f"e{e}"] = sorted(f"i{j}" for j in rng.sample(pool, rng.randint(2, 6)))
        part_of[f"e{e}"] = f"p{rng.randrange(parts)}"
    matroid = ({"kind": "uniform", "k": uniform_k} if uniform_k else
               {"kind": "partition", "part_of": part_of,
                "capacity": {f"p{q}": 3 for q in range(parts)}})
    return {"arrival_order": [f"e{e}" for e in range(n)], "matroid": matroid,
            "objective": {"kind": "weighted_coverage", "universe_weight": weight,
                          "covers": covers}}


def calls(argv) -> int:
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.enable()
        code = main(argv)
        profile.disable()
    assert code == EXIT_OK
    return pstats.Stats(profile).total_calls


def assert_growth(small_argv, large_argv, bound=GROWTH):
    for argv in (small_argv, large_argv):  # unprofiled: the parser and caches that outlive a run
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    small, large = calls(small_argv), calls(large_argv)
    assert large <= bound * small, f"{large} calls vs {small}: {large / small:.2f}x"


@pytest.mark.parametrize("alg, k", [("general", None), ("k-uniform", 20)])
def test_run_calls_grow_linearly_in_arrivals(alg, k, tmp_path):
    argv = {}
    for n in (200, 800):
        instance = tmp_path / f"n{n}.json"
        instance.write_text(json.dumps(exchange_partition(n, k)), encoding="utf-8")
        argv[n] = ["run", "--alg", alg, "--instance", str(instance),
                   "--out", str(tmp_path / "report.jsonl")]
    assert_growth(argv[200], argv[800])


def test_capacity_rule_calls_barely_grow_with_k(tmp_path):
    argv = {}
    for k in (20, 80):
        instance = tmp_path / f"k{k}.json"
        instance.write_text(json.dumps(exchange_partition(800, k)), encoding="utf-8")
        argv[k] = ["run", "--alg", "k-uniform", "--instance", str(instance),
                   "--out", str(tmp_path / "report.jsonl")]
    assert_growth(argv[20], argv[80], K_GROWTH)


@pytest.mark.parametrize("alg", ["k-uniform", "general", "best-singleton"])
def test_uniform_family_calls_grow_linearly_in_arrivals(alg):
    argv = {k: ["adversary", "--family", "uniform", "--alpha", "3", "--eps", "0.05",
                "--delta", "0.2", "--k", str(k), "--alg", alg, "--quiet"] for k in (40, 80)}
    assert_growth(argv[40], argv[80])
