"""The three workloads: seeded inputs, one timed pass, and its checks.

A pass runs the program's CLI in process (``subfree.cli.main``) on inputs
the benchmark generated from its seed, then checks the outputs with
``checks``.  Every pass of a run repeats exactly the same operations, so a
run is a whole number of identical passes.

Timing comes from the ``Recorder``: it rebinds the rule-step entry points
(``step_k_uniform``, ``step_general_matroid`` and the ``step`` methods of
the fractional and randomized rules) and ``prefix_optima`` to thin wrappers
that read the clock on the main thread.  A pass's set-up is everything
before its first arrival except the brute-force reference optimum, which is
counted in ``run_s`` with the rest of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import checks
from spans import rebind_everywhere
from subfree import algorithms, cli, fractional, oracle
from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import WeightedCoverage


class FirstArrival(Exception):
    """Ends a set-up probe at its first arrival."""


class Recorder:
    """Times each rule step on the main thread and keeps its arguments and
    result; times the brute-force reference optimum."""

    def __init__(self):
        self.steps = []  # (start, end, args, result)
        self.prefix_s = 0.0
        self.probe_first = None  # set to a number to end calls at the first arrival
        self._main = threading.get_ident()

    def install(self) -> None:
        for fn in ("step_k_uniform", "step_general_matroid"):
            old = getattr(algorithms, fn)
            rebind_everywhere(old, self._step(old))
        for cls in (fractional.FractionalState, algorithms.NonmonotoneGeneralRun,
                    algorithms.NonmonotoneUniformRun):
            cls.step = self._step(cls.__dict__["step"])
        old = oracle.prefix_optima
        rebind_everywhere(old, self._prefix(old))

    def _step(self, fn):
        rec = self

        def step(*args, **kwargs):
            if threading.get_ident() != rec._main:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            if rec.probe_first is not None:
                rec.probe_first = t0
                raise FirstArrival
            out = fn(*args, **kwargs)
            rec.steps.append((t0, perf_counter(), args, out))
            return out

        return step

    def _prefix(self, fn):
        rec = self

        def prefix_optima(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.prefix_s += perf_counter() - t0

        return prefix_optima


def decision(args, out):
    """(element, accepted, evicted) of one recorded step."""
    if isinstance(out, list):  # FractionalState.step returns its unit events
        return (args[1], any(e["event"] == "unit" for e in out),
                any(e["event"] == "drain" for e in out))
    return args[1], out.accepted, out.evicted


@dataclass
class Call:
    setup_s: float  # before the first arrival, less the reference optimum
    prefix_s: float  # the brute-force reference optimum
    steps: list  # (start, end, args, result) of each rule step
    post_s: float  # from the end of the last arrival to the end of the call
    stdout: str


@dataclass
class Pass:
    """One pass, cut into intervals that every pass of a run repeats: the
    rule steps, the gaps between consecutive steps of a call, and each
    call's reference optimum and post-loop phase (trials, report)."""

    setup_s: float = 0.0
    steps: list = field(default_factory=list)  # seconds per rule step
    evicted: list = field(default_factory=list)  # whether the step removed a member
    gaps: list = field(default_factory=list)
    other: list = field(default_factory=list)
    trials: int = 0
    trials_s: float = 0.0
    fingerprint: str = ""
    outputs: dict = field(default_factory=dict)

    def add(self, call: Call) -> None:
        self.setup_s += call.setup_s
        self.other += [call.prefix_s, call.post_s]
        self.trials_s += call.post_s
        end = None
        for t0, t1, args, out in call.steps:
            if end is not None:
                self.gaps.append(t0 - end)
            end = t1
            self.steps.append(t1 - t0)
            self.evicted.append(bool(decision(args, out)[2]))

    @property
    def arrivals(self) -> int:
        return len(self.steps)

    @property
    def loop_s(self) -> float:
        return sum(self.steps) + sum(self.gaps)

    @property
    def run_s(self) -> float:
        return self.loop_s + sum(self.other)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    tail_percentile = 99.0
    probes = 0  # extra set-up constructions per pass

    def __init__(self, seed: int, work_dir: str, tiny: bool, recorder: Recorder):
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.rec = recorder
        self.tracer = None
        os.makedirs(work_dir, exist_ok=True)

    def call_cli(self, argv) -> Call:
        rec = self.rec
        rec.steps = []  # a call keeps its own steps; older ones are released
        rec.prefix_s = 0.0
        buf = io.StringIO()
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with span, contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        t1 = perf_counter()
        steps, rec.steps = rec.steps, []
        if code != 0 or not steps:
            raise RuntimeError(f"subfree {' '.join(argv[:3])} exited {code}")
        return Call(steps[0][0] - t0 - rec.prefix_s, rec.prefix_s, steps,
                    t1 - steps[-1][1], buf.getvalue())

    def setup_probes(self) -> list:
        return []

    def run_file(self, p: "Pass", doc: dict, tag: str, args) -> list:
        """Build and write ``doc`` as an instance, ``subfree run`` it, add the
        call to ``p`` and return the report's records."""
        inst_path = os.path.join(self.work_dir, f"{tag}.json")
        report = os.path.join(self.work_dir, f"{tag}.report")
        t0 = perf_counter()
        text = build_instance(doc).dumps()
        with open(inst_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        built = perf_counter() - t0
        p.add(self.call_cli(["run", "--instance", inst_path, "--out", report, *args]))
        p.setup_s += built
        with open(report, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]


# -- hardness-k200 -------------------------------------------------------------------


class Hardness(Workload):
    """Criterion 9's adaptive interval stream; its inputs do not depend on the seed."""

    name = "hardness-k200"
    tail_percentile = 99.9
    probes = 25
    epsilon = Fraction("0.05")
    delta = Fraction("0.2")

    def prepare(self) -> None:
        self.k = 40 if self.tiny else 200
        self.phases = int(self.delta * self.k)
        self.arrivals = self.phases * (2 * self.k + 1)
        self.argv = ["adversary", "--family", "uniform", "--alpha", "3",
                     "--eps", str(self.epsilon), "--delta", str(self.delta),
                     "--k", str(self.k), "--alg", "k-uniform", "--quiet"]

    def setup_probes(self) -> list:
        """Time to the first arrival, over repeated constructions."""
        samples = []
        for _ in range(self.probes):
            self.rec.probe_first = 0.0
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(self.argv)
            except FirstArrival:
                samples.append(self.rec.probe_first - t0)
            finally:
                self.rec.probe_first = None
        return samples

    def run_pass(self) -> Pass:
        call = self.call_cli(self.argv)
        p = Pass()
        p.add(call)
        state = call.steps[-1][2][0]
        decisions = [decision(a, o) for _, _, a, o in call.steps]
        p.outputs = {
            "min_ratio": json.loads(call.stdout.splitlines()[-1])["min_ratio"],
            "decisions": decisions,
            "final_set": sorted(state.feasible),
            "final_value": state.f_S(),
        }
        p.fingerprint = digest(call.stdout, decisions, state.f_S())
        return p

    def check(self, outputs) -> list:
        return checks.check_hardness(outputs, self.k, self.epsilon, self.phases)


# -- exchange-partition -------------------------------------------------------------------


def build_instance(doc: dict) -> cli.Instance:
    """The program's instance for one of the benchmark's plain input documents."""
    obj, mat = doc["objective"], doc["matroid"]
    if mat["kind"] == "uniform":
        matroid = UniformMatroid(mat["k"])
    else:
        matroid = PartitionMatroid(mat["part_of"], mat["capacity"])
    return cli.Instance(doc["arrival_order"],
                        objective=WeightedCoverage(obj["universe_weight"], obj["covers"]),
                        matroid=matroid)


class Exchange(Workload):
    """Weighted coverage under 20 parts of capacity 3, weights drifting upward."""

    name = "exchange-partition"
    tail_percentile = 99.5

    def prepare(self) -> None:
        n, parts, cap, items = (200, 4, 3, 300) if self.tiny else (2000, 20, 3, 3000)
        rng = random.Random(self.seed)
        weight = {f"i{j}": 1 + (j * 40) // items + rng.randint(0, 3) for j in range(items)}
        covers, part_of = {}, {}
        for e in range(n):
            # each element covers 2-6 items just behind the stream's position,
            # so later arrivals carry heavier items and overlap their forerunners
            c = e * items // n
            pool = range(max(0, c - 60), min(items, c + 8))
            covers[f"e{e}"] = sorted(f"i{j}" for j in rng.sample(pool, rng.randint(2, 6)))
            part_of[f"e{e}"] = f"p{rng.randrange(parts)}"
        self.doc = {
            "objective": {"universe_weight": weight, "covers": covers},
            "matroid": {"kind": "partition", "part_of": part_of,
                        "capacity": {f"p{q}": cap for q in range(parts)}},
            "arrival_order": [f"e{e}" for e in range(n)],
        }
        self.arrivals = n
        self.checkpoints = [n * q // 10 for q in range(1, 11)]
        self.refs = checks.exchange_references(self.doc, self.checkpoints)

    def run_pass(self) -> Pass:
        p = Pass()
        lines = self.run_file(p, self.doc, "exchange", ["--alg", "general"])
        p.outputs = {"rounds": lines[:-1], "final": lines[-1]}
        p.fingerprint = digest(lines)
        return p

    def check(self, outputs) -> list:
        return checks.check_exchange(self.doc, outputs["rounds"], outputs["final"], self.refs)


# -- randomized-small -----------------------------------------------------------------------


def small_coverage(n: int, matroid: dict, shift: int) -> dict:
    """A chain: element j covers its own item, of weight c_j (3/2)^j with
    c_j = 8 + (j + shift) % 5, and the item of element j - 1, so each arrival
    outweighs and overlaps its forerunner and the rules keep accepting and
    displacing."""
    weight = {f"x{j}": (8 + (j + shift) % 5) * 3**j // 2**j for j in range(n)}
    order = [f"e{j}" for j in range(n)]
    covers = {u: [f"x{j}"] + ([f"x{j - 1}"] if j else []) for j, u in enumerate(order)}
    if matroid["kind"] == "partition":
        parts = sorted(matroid["capacity"])
        matroid = dict(matroid, part_of={u: parts[j % len(parts)] for j, u in enumerate(order)})
    return {"objective": {"universe_weight": weight, "covers": covers},
            "matroid": matroid, "arrival_order": order}


class Randomized(Workload):
    """A fixed mix of small chain instances for the randomized rules.

    partition-frac gets 11 elements and the randomized rules 7: the exact
    soft extension and the thinned objective enumerate 2^support subsets
    per call (and refuse supports above 15), so at 15 elements one
    partition-frac instance alone takes several seconds.  The instances do
    not depend on the seed: their cost grows exponentially with the number
    of accepted elements, and seed-drawn weights moved the slow steps by 25%
    from seed to seed.  The seed draws the roundings and the coins.
    """

    name = "randomized-small"
    tail_percentile = 85.0

    def prepare(self) -> None:
        parts3 = {"kind": "partition", "capacity": {"p0": 2, "p1": 2, "p2": 2}}
        uniform2 = {"kind": "uniform", "k": 2}
        frac_trials, trials = (2000, 5) if self.tiny else (20000, 20)
        n_frac, n_small, copies = (8, 6, 1) if self.tiny else (11, 7, 4)
        self.runs = [("partition-frac", small_coverage(n_frac, parts3, 0), frac_trials)]
        for i in range(copies):
            self.runs.append(("nonmono-general", small_coverage(n_small, parts3, 2 * i + 1), trials))
            self.runs.append(("nonmono-uniform", small_coverage(n_small, uniform2, 2 * i + 2), trials))
        self.opts = [checks.brute_force_prefix_optima(doc) for _, doc, _ in self.runs]
        self.floors = {
            "partition-frac": 0.0,
            "nonmono-general": 1 / 16,
            "nonmono-uniform": (1 / checks.bisect_alpha(uniform2["k"], 3)) * (1 - 1 / 3),
        }
        self.arrivals = sum(len(doc["arrival_order"]) for _, doc, _ in self.runs)

    def run_pass(self) -> Pass:
        p = Pass()
        reports = []
        for i, (alg, doc, trials) in enumerate(self.runs):
            reports.append(self.run_file(p, doc, f"small{i}", [
                "--alg", alg, "--seed", str(self.seed), "--trials", str(trials)]))
            p.trials += trials
        p.outputs = {"reports": reports}
        p.fingerprint = digest(reports)
        return p

    def check(self, outputs) -> list:
        problems = []
        for (alg, doc, trials), opts, lines in zip(self.runs, self.opts, outputs["reports"]):
            margin = checks.rounding_margin(doc, trials)
            problems += checks.check_randomized(alg, doc, lines[:-1], lines[-1], opts,
                                                self.floors[alg], margin)
        return problems


WORKLOADS = {w.name: w for w in (Hardness, Exchange, Randomized)}
