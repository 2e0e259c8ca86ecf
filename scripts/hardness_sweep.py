#!/usr/bin/env python3
"""Sweep the hardness families against the deterministic rules.

For each (family, alpha, rule) prints the certified minimum per-round
ratio, the round where it happened, and why the stream stopped.

    python scripts/hardness_sweep.py [--k K]

``--k`` sets the uniform family's capacity (default 100).
"""

import argparse
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from subfree.adversaries import make_driver, run_adversary
from subfree.algorithms import (
    solve_alpha,
    step_best_singleton,
    step_general_matroid,
    step_k_uniform,
)


def sweep_partition():
    rules = {
        "exchange": lambda st, u: step_general_matroid(st, u),
        "best-singleton": step_best_singleton,
    }
    for family, alphas in [
        ("partition-monotone", ["2.5", "3.0", "3.5", "3.9"]),
        ("partition-general", ["1.5", "2.0", "2.5"]),
    ]:
        print(f"\n{family}")
        for alpha_txt in alphas:
            for name, rule in rules.items():
                driver = make_driver(family, Fraction(alpha_txt))
                out = run_adversary(driver, rule, record_rounds=False)
                print(
                    f"  alpha={alpha_txt:<4} rule={name:<14}"
                    f" min_ratio={float(out.min_ratio):.6f}"
                    f" (1/alpha={1 / float(Fraction(alpha_txt)):.6f})"
                    f" round={out.min_round} stop={out.stop.reason}"
                )


def sweep_uniform(k: int = 100):
    print(f"\nuniform interval family, k={k}, eps=0.05, delta=0.2")
    alpha_alg = solve_alpha(k)
    for alpha_txt in ["2.5", "3.0", "3.1"]:
        driver = make_driver(
            "uniform", Fraction(alpha_txt),
            epsilon=Fraction("0.05"), delta=Fraction("0.2"), k=k,
        )
        out = run_adversary(
            driver, lambda st, u: step_k_uniform(st, u, alpha_alg),
            record_rounds=False,
        )
        print(
            f"  alpha={alpha_txt:<4} vs capacity rule (1/alpha_k={alpha_alg.ratio:.5f})"
            f" min_ratio={float(out.min_ratio):.6f} round={out.min_round}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=100, help="uniform family capacity")
    args = parser.parse_args()
    sweep_partition()
    sweep_uniform(args.k)
