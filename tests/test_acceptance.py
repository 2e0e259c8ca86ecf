"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The competitive-ratio criteria audit every round of every run: the
guaranteed ratio against the brute-force prefix optimum, plus the law
checks (strict objective increase, monotone threshold quantity, replacement
factor, history bound, greedy optimality of the kept set by enumeration).
"""

import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from subfree.adversaries import (
    PartitionGeneralDriver,
    PartitionMonotoneDriver,
    UniformHardnessDriver,
    monotone_weight_sequence,
    run_adversary,
)
from subfree.algorithms import (
    Agent,
    NonmonotoneGeneralRun,
    NonmonotoneUniformRun,
    solve_alpha,
    step_best_singleton,
    step_bipartite,
    step_general_matroid,
    step_k_uniform,
)
from subfree.cli import Instance, main as cli_main
from subfree.fractional import FractionalState
from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import sampled_value_p
from subfree.oracle import (
    assignment_prefix_optima,
    brute_force_opt,
    check_ckp_domination,
    prefix_optima,
    random_coverage_objective,
    random_escalating_instance,
    random_instance,
    random_matroid,
    random_submodular_table,
)
from subfree.tracker import OnlineState

RATIO_TOL = 1e-9


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS")


# -- shared audited runs -------------------------------------------------------


class RunAudit:
    """Per-round law checks shared by the ratio criteria."""

    def __init__(self):
        self.runs = 0
        self.rounds = 0
        self.evictions = 0
        self.worst_margin = math.inf  # min of f_S - ratio * opt over rounds
        self.max_greedy_gap = 0.0
        self.elapsed = 0.0

    def run(self, f, m, order, step, ratio, alpha_value=None, general_c=None):
        st = OnlineState(f, m)
        opts = prefix_optima(f, m, order)
        sets = m.enumerate_independent_sets(frozenset(order))
        threshold_last = None
        f_last = st.f_S()
        for i, u in enumerate(order):
            d = step(st, u)
            f_now = st.f_S()
            # cached weight sums agree with the oracle and with each other
            direct = f.value(frozenset(st.feasible))
            assert abs(f_now - direct) <= RATIO_TOL * (1 + abs(direct))
            assert st.w_arrival_over_S() <= st.weight_total() + RATIO_TOL
            # guaranteed per-prefix ratio
            margin = f_now - ratio * opts[i]
            self.worst_margin = min(self.worst_margin, margin)
            assert margin >= -RATIO_TOL * (1 + abs(opts[i]))
            # strict objective increase on every state change
            if d.accepted:
                assert f_now > f_last - 1e-12 * (1 + abs(f_last))
                if d.evicted is not None:
                    self.evictions += 1
                    if alpha_value is not None:
                        a = alpha_value
                        assert d.w_u > a / (a - 1) * d.w_evicted - RATIO_TOL
            f_last = f_now
            # monotone threshold quantity for the capacity rule
            if alpha_value is not None:
                q = alpha_value * st.weight_total() - st.w_A_total()
                assert threshold_last is None or q >= threshold_last - RATIO_TOL
                assert q >= -RATIO_TOL
                threshold_last = q
            # history bound for the exchange rule
            if general_c is not None:
                cap = general_c / (general_c - 1) * st.w_arrival_over_S()
                assert st.w_A_total() <= cap + RATIO_TOL * (1 + abs(cap))
            # greedy optimality of the kept set under the frozen weights
            history = frozenset(st.history)
            mine = sum(st.hat_w(v) for v in st.feasible)
            best = max(
                (sum(st.hat_w(v) for v in s) for s in sets if s <= history),
                default=0,
            )
            gap = best - mine
            self.max_greedy_gap = max(self.max_greedy_gap, float(gap))
            assert gap <= RATIO_TOL
            self.rounds += 1
        self.runs += 1


@pytest.fixture(scope="module")
def general_rule_audit():
    audit = RunAudit()
    t0 = time.monotonic()
    for trial in range(200):
        rng = random.Random(61_000 + trial)
        if trial % 4 == 3:
            f, order = random_escalating_instance(rng, rng.randint(8, 12))
            m = random_matroid(rng, order)
        else:
            f, m, order = random_instance(rng, rng.randint(6, 12))
        audit.run(f, m, order, lambda st, u: step_general_matroid(st, u), 0.25,
                  general_c=2)
    audit.elapsed = time.monotonic() - t0
    return audit


@pytest.fixture(scope="module")
def capacity_rule_audit():
    audit = RunAudit()
    t0 = time.monotonic()
    for trial in range(200):
        rng = random.Random(62_000 + trial)
        k = 4 + trial % 5
        if trial % 2:
            f, order = random_escalating_instance(rng, rng.randint(max(8, k), 12))
        else:
            f, _, order = random_instance(rng, rng.randint(max(6, k), 12))
        alpha = solve_alpha(k)
        audit.run(
            f, UniformMatroid(k), order,
            lambda st, u: step_k_uniform(st, u, alpha),
            alpha.ratio, alpha_value=alpha.value,
        )
    audit.elapsed = time.monotonic() - t0
    return audit


def test_criterion_1_constants():
    with criterion("01 threshold constants"):
        t0 = time.monotonic()
        a_inf = solve_alpha("inf")
        assert abs(a_inf.value - 3.14619) <= 1e-4
        a4 = solve_alpha(4)
        assert a4.value > 3.37
        assert 1 / a4.value > 0.2959
        values = [solve_alpha(k).value for k in range(4, 101)]
        assert all(x > y for x, y in zip(values, values[1:]))
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"constants took {elapsed:.3f}s"


def test_criterion_2_general_rule_per_prefix(general_rule_audit):
    with criterion("02 exchange rule is 1/4-competitive per prefix"):
        audit = general_rule_audit
        assert audit.runs >= 200
        assert audit.worst_margin >= -RATIO_TOL
        assert audit.elapsed < 60.0, f"audit took {audit.elapsed:.1f}s"


def test_criterion_3_capacity_rule_per_prefix(capacity_rule_audit):
    with criterion("03 capacity rule is 1/alpha_k-competitive per prefix"):
        audit = capacity_rule_audit
        assert audit.runs >= 200
        assert audit.worst_margin >= -RATIO_TOL


def test_criterion_4_lemma_suite(general_rule_audit, capacity_rule_audit):
    with criterion("04 lemma suite holds on every audited run"):
        # the audited laws: strict increase, monotone threshold, replacement
        # factor, history bound, greedy optimality; all assert inside run()
        assert general_rule_audit.rounds > 1000
        assert capacity_rule_audit.rounds > 1000
        assert capacity_rule_audit.evictions > 50  # replacement bound exercised
        assert general_rule_audit.evictions > 50
        assert general_rule_audit.max_greedy_gap <= RATIO_TOL
        assert capacity_rule_audit.max_greedy_gap <= RATIO_TOL


def test_criterion_5_fractional_and_rounding():
    with criterion("05 fractional threshold rule and online rounding"):
        alpha = solve_alpha("inf").value
        for trial in range(20):
            rng = random.Random(65_000 + trial)
            f = random_coverage_objective(rng, rng.randint(5, 8))
            ground = sorted(f.elements())
            parts = [f"p{i}" for i in range(rng.randint(1, 3))]
            m = PartitionMatroid(
                {u: rng.choice(parts) for u in ground},
                {p: rng.randint(1, 2) for p in parts},
            )
            st = FractionalState(f, m, delta=Fraction(1, 50), seed=trial)
            order = list(ground)
            rng.shuffle(order)
            for u in order:
                st.step(u)
            _, opt = brute_force_opt(f, m, ground)
            fhat = st.soft_value_live()
            slack = max(map(st.unit_slack, st.parts)) * len(st.parts)
            assert fhat >= opt / alpha - slack - RATIO_TOL
            n = 10_000
            vals = [f.value(st.round_with_seed(s)) for s in range(n)]
            mean = statistics.fmean(vals)
            sigma = statistics.pstdev(vals) / math.sqrt(n)
            assert mean >= fhat - 3 * sigma - RATIO_TOL


def test_criterion_6_sampling_domination():
    with criterion("06 without-replacement dominates independent sampling"):
        for trial in range(500):
            rng = random.Random(66_000 + trial)
            n = rng.randint(2, 8)
            g = random_submodular_table(rng, n, monotone=rng.random() < 0.5)
            for k in range(n + 1):
                ok, witness = check_ckp_domination(g, n, k)
                assert ok, witness


def test_criterion_7_partition_monotone_hardness():
    with criterion("07 partition hardness forces the monotone rule to 1/alpha"):
        for alpha_txt in ("2.5", "3.0", "3.5", "3.9"):
            alpha = Fraction(alpha_txt)
            seq = monotone_weight_sequence(alpha)
            assert seq[-1] < 0  # the recurrence goes negative
            driver = PartitionMonotoneDriver(alpha)
            out = run_adversary(driver, lambda st, u: step_general_matroid(st, u))
            assert out.min_ratio <= 1 / alpha + Fraction(1, 10**9)
            for rec in out.rounds:
                if rec["ratio"] is not None:
                    assert rec["ratio"] >= Fraction(1, 4) - Fraction(1, 10**9)


def test_criterion_8_partition_general_hardness():
    with criterion("08 two-copy hardness forces deterministic rules to 1/alpha"):
        for alpha_txt in ("2.0", "2.5"):
            alpha = Fraction(alpha_txt)
            disc = (alpha**2 + alpha + 1) * (alpha**2 - 3 * alpha + 1)
            assert disc < 0
            for step in (lambda st, u: step_general_matroid(st, u), step_best_singleton):
                driver = PartitionGeneralDriver(alpha)
                out = run_adversary(driver, step)
                assert out.stop.reason != "phase-cap"
                assert out.min_ratio <= 1 / alpha + Fraction(1, 10**9)


def test_criterion_9_uniform_hardness_at_scale():
    with criterion("09 interval hardness certifies ratio <= 1/3 at k=200"):
        t0 = time.monotonic()
        driver = UniformHardnessDriver(
            Fraction(3), Fraction("0.05"), Fraction("0.2"), 200
        )
        alpha = solve_alpha(200)
        out = run_adversary(
            driver, lambda st, u: step_k_uniform(st, u, alpha), record_rounds=False
        )
        assert out.min_ratio <= Fraction(1, 3)
        assert driver.union_taken == []
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"hardness run took {elapsed:.1f}s"


def test_criterion_10_nonmonotone_rules():
    with criterion("10 non-monotone rules clear their expected-ratio floors"):
        for trial in range(100):
            rng = random.Random(70_000 + trial)
            table = random_submodular_table(rng, rng.randint(4, 8), monotone=False)
            order = sorted(table.ground)
            rng.shuffle(order)
            from subfree.oracle import random_matroid

            m = random_matroid(rng, sorted(table.ground))
            run = NonmonotoneGeneralRun(table, m, seed=trial)
            for u in order:
                run.step(u)
            _, opt = brute_force_opt(table, m, table.ground)
            expected = sampled_value_p(table, frozenset(run.state.feasible), 0.5)
            assert expected >= opt / 16 - RATIO_TOL * (1 + abs(opt))
        for trial in range(60):
            rng = random.Random(71_000 + trial)
            k = 4 + trial % 3
            table = random_submodular_table(rng, rng.randint(4, 8), monotone=False)
            order = sorted(table.ground)
            rng.shuffle(order)
            run = NonmonotoneUniformRun(table, k=k, seed=trial)
            for u in order:
                run.step(u)
            _, opt = brute_force_opt(table, UniformMatroid(k), table.ground)
            bound = run.alpha.ratio * (1 - 1 / run.rho)
            assert run.expected_feasible_value() >= bound * opt - RATIO_TOL * (1 + abs(opt))


def test_criterion_11_bipartite_assignment():
    with criterion("11 bipartite composition is 1/(alpha+1)-competitive"):
        for trial in range(100):
            rng = random.Random(72_000 + trial)
            n = rng.randint(6, 10)
            n_agents = rng.randint(2, 3)
            shared = [f"e{i}" for i in range(n)]
            agents = []
            worst_alpha = 0.0
            agent_specs = []
            for a in range(n_agents):
                f = random_coverage_objective(rng, n)
                if rng.random() < 0.5:
                    k = rng.randint(4, 6)
                    m = UniformMatroid(k)
                    alpha = solve_alpha(k)
                    agents.append(Agent.k_uniform(OnlineState(f, m), alpha))
                    worst_alpha = max(worst_alpha, alpha.value)
                else:
                    parts = ["p0", "p1"]
                    m = PartitionMatroid(
                        {u: rng.choice(parts) for u in shared},
                        {p: rng.randint(1, 2) for p in parts},
                    )
                    agents.append(Agent.general(OnlineState(f, m)))
                    worst_alpha = max(worst_alpha, 4.0)
                agent_specs.append((f, m))
            order = list(shared)
            rng.shuffle(order)
            for u in order:
                step_bipartite(agents, u)
            total = sum(a.state.f_S() for a in agents)
            opt = assignment_prefix_optima(agent_specs, order)[-1]
            assert total >= opt / (worst_alpha + 1) - RATIO_TOL * (1 + abs(opt))


def _capture(argv):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _partition_instance() -> Instance:
    rng = random.Random(3)
    f = random_coverage_objective(rng, 6)
    ground = sorted(f.elements())
    m = PartitionMatroid(
        {u: ("p" if u < "e3" else "q") for u in ground}, {"p": 1, "q": 2}
    )
    return Instance(ground, objective=f, matroid=m)


def test_criterion_12_determinism(tmp_path):
    with criterion("12 fixed seeds reproduce byte-identical output"):
        rng = random.Random(2)
        table = random_submodular_table(rng, 5, monotone=False)
        inst = Instance(sorted(table.ground), objective=table, matroid=UniformMatroid(4))
        path = tmp_path / "inst.json"
        path.write_text(inst.dumps(), encoding="utf-8")
        frac_path = tmp_path / "frac.json"
        frac_path.write_text(_partition_instance().dumps(), encoding="utf-8")
        commands = [
            ["constants", "--k", "4,9,inf"],
            ["run", "--alg", "nonmono-uniform", "--instance", str(path),
             "--seed", "11", "--trials", "6"],
            ["run", "--alg", "partition-frac", "--instance", str(frac_path),
             "--seed", "12", "--trials", "6"],
            ["adversary", "--family", "partition-monotone", "--alpha", "3.0",
             "--alg", "general"],
            ["verify", "--suite", "sampling", "--cases", "15", "--seed", "13"],
        ]
        for argv in commands:
            assert _capture(argv) == _capture(argv), argv
