#!/usr/bin/env python3
"""How the discretized fractional rule converges as the unit size shrinks.

For a handful of random partition instances, runs the threshold rule at
several granularities and prints f_hat(S) / OPT next to the continuous
floor 1/alpha_inf ~ 0.3178, plus the mean rounded value over 2000
roundings drawn from one generator.
"""

import random
import statistics
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from subfree.algorithms import solve_alpha
from subfree.fractional import FractionalState
from subfree.matroid import PartitionMatroid
from subfree.oracle import brute_force_opt, random_coverage_objective

DELTAS = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 25), Fraction(1, 50), Fraction(1, 100)]


def one_instance(seed: int):
    rng = random.Random(seed)
    f = random_coverage_objective(rng, rng.randint(5, 8))
    ground = sorted(f.elements())
    parts = [f"p{i}" for i in range(rng.randint(2, 3))]
    m = PartitionMatroid(
        {u: rng.choice(parts) for u in ground},
        {p: rng.randint(1, 2) for p in parts},
    )
    order = list(ground)
    rng.shuffle(order)
    return f, m, order


def main():
    alpha = solve_alpha("inf")
    print(f"continuous floor 1/alpha = {alpha.ratio:.4f}\n")
    for seed in range(5):
        f, m, order = one_instance(seed)
        _, opt = brute_force_opt(f, m, f.elements())
        if opt == 0:
            continue
        print(f"instance {seed}: OPT = {float(opt):.2f}")
        for delta in DELTAS:
            st = FractionalState(f, m, delta=delta)
            for u in order:
                st.step(u)
            fhat = st.soft_value_live()
            rounded = statistics.fmean(
                float(f.value(chosen)) for chosen in st.roundings(0, 2000)
            )
            print(
                f"  delta=1/{delta.denominator:<4} fhat/OPT = {float(fhat / opt):.4f}"
                f"   rounded_mean/OPT = {rounded / float(opt):.4f}"
            )
        print()


if __name__ == "__main__":
    main()
