"""Instance I/O, experiment runner, constants table, and verification suites.

Subcommands:

* ``run``        - replay an instance file through a chosen step rule,
                   optionally checking the rule's guaranteed ratio against
                   the brute-force optimum of every arrival prefix.
* ``constants``  - print the threshold constants and implied ratios.
* ``adversary``  - drive a hardness family against a step rule and report
                   the certified minimum per-round ratio.
* ``verify``     - randomized property suites (tracker and threshold laws,
                   rounding domination, sampling domination).

Reports are JSON lines with sorted keys and round-trip float formatting, so
byte-identical reruns with the same seed diff clean.  The seed is decided
here, in the runner: the randomized states hold no generator, and each of
their samples is drawn from a seed passed in.  Exit codes: 0 ok, 2 malformed
instance or arguments, 3 invariant or ratio violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .adversaries import make_driver, run_adversary
from .algorithms import (
    Agent,
    NonmonotoneGeneralRun,
    NonmonotoneUniformRun,
    dispatch_uniform,
    exchange_ratio,
    solve_alpha,
    step_best_singleton,
    step_bipartite,
    step_general_matroid,
)
from .fractional import FractionalState
from .matroid import (
    MAX_ENUM_GROUND,
    ExplicitMatroid,
    Matroid,
    MatroidError,
    PartitionMatroid,
    UniformMatroid,
)
from .objective import (
    ExplicitTable,
    IntervalCoverage,
    Linear,
    Objective,
    ObjectiveError,
    WeightedCoverage,
    subset_key,
    unscaled,
)
from .oracle import (
    MAX_ASSIGNMENT_ARRIVALS,
    assignment_prefix_optima,
    brute_force_opt,
    check_ckp_domination,
    check_f_vs_fhat,
    greedy_optimality_gap,
    prefix_optima,
    random_instance,
    random_submodular_table,
)
from .tracker import InvariantViolation, OnlineState

EXIT_OK = 0
EXIT_INSTANCE = 2
EXIT_VIOLATION = 3

RATIO_TOL = 1e-9


class InstanceError(ValueError):
    """The instance file cannot be parsed or fails validation."""


# -- canonical JSON -------------------------------------------------------------


def _num_to_json(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _exact(x) -> Fraction:
    """An exact rational from a number or a string such as "3/400"."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise InstanceError(f"{x!r} has a zero denominator") from None


def _num_from_json(x):
    if isinstance(x, str):
        return _exact(x)
    return x


def _json_object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise InstanceError(f"{what} must be a JSON object")
    return x


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def to_jsonable(x):
    """Recursive float/str coercion for report payloads."""
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, dict):
        return {k: to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    return x


# -- objective / matroid serialization -------------------------------------------


def objective_to_json(f: Objective) -> dict:
    if isinstance(f, IntervalCoverage):
        return {
            "kind": "interval_coverage",
            "epsilon": _num_to_json(f.epsilon),
            "covers": {
                el: [[_num_to_json(lo), _num_to_json(hi)] for lo, hi in f.intervals(el)]
                for el in sorted(f.covers)
            },
        }
    if isinstance(f, WeightedCoverage):
        # item ids become JSON keys, which are strings: write them as strings in covers too
        weight = {str(k): _num_to_json(unscaled(v, f.unit))
                  for k, v in sorted(f.universe_weight.items())}
        if isinstance(f, Linear):
            return {"kind": "linear", "weight": weight}
        covers = {el: sorted(map(str, items)) for el, items in sorted(f.covers.items())}
        return {"kind": "weighted_coverage", "universe_weight": weight, "covers": covers}
    if isinstance(f, ExplicitTable):
        return {
            "kind": "explicit_table",
            "ground": list(f.ground),
            "value": {subset_key(s): _num_to_json(v) for s, v in sorted(
                f._table.items(), key=lambda kv: subset_key(kv[0])
            )},
        }
    raise InstanceError(f"cannot serialize objective {type(f).__name__}")


def _check_fits_float(what: str, values) -> None:
    """Refuse finite numbers whose sum a float cannot hold: an exact ``Fraction``
    or int may pass the largest float, and the rules and reports convert to float."""
    try:
        math.fsum(map(float, values))
    except OverflowError:
        raise InstanceError(f"{what} does not fit a float") from None


def objective_from_json(spec: dict) -> Objective:
    try:
        kind = spec["kind"]
        if kind in ("weighted_coverage", "linear"):
            if kind == "linear":
                weight = _json_object(spec["weight"], "weight")
                f = Linear({k: _num_from_json(v) for k, v in weight.items()})
            else:
                weight = _json_object(spec["universe_weight"], "universe_weight")
                f = WeightedCoverage(
                    {k: _num_from_json(v) for k, v in weight.items()},
                    {el: frozenset(items)
                     for el, items in _json_object(spec["covers"], "covers").items()},
                )
            _check_fits_float("the total weight", f.universe_weight.values())
            return f
        if kind == "interval_coverage":
            return IntervalCoverage(
                _exact(spec["epsilon"]),
                {
                    el: [(_exact(lo), _exact(hi)) for lo, hi in ivs]
                    for el, ivs in _json_object(spec["covers"], "covers").items()
                },
            )
        if kind == "explicit_table":
            value = {k: _num_from_json(v)
                     for k, v in _json_object(spec["value"], "value").items()}
            # before the table is built: its submodularity check converts to float;
            # floats fit, and other non-numbers are the table's to refuse
            exact = [v for v in value.values() if isinstance(v, (int, Fraction))]
            _check_fits_float("the largest table value", [max(exact, default=0)])
            return ExplicitTable(spec["ground"], value)
        raise InstanceError(f"unknown objective kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError, ObjectiveError) as exc:
        raise InstanceError(f"bad objective spec: {exc}") from exc


def matroid_to_json(m: Matroid) -> dict:
    if isinstance(m, UniformMatroid):
        return {"kind": "uniform", "k": m.k}
    if isinstance(m, PartitionMatroid):
        return {
            "kind": "partition",
            "part_of": dict(sorted(m.part_of.items())),
            "capacity": dict(sorted(m.capacity.items())),
        }
    if isinstance(m, ExplicitMatroid):
        return {
            "kind": "explicit",
            "ground": sorted(m.ground),
            "maximal_sets": sorted(sorted(s) for s in m.maximal_sets),
        }
    raise InstanceError(f"cannot serialize matroid {type(m).__name__}")


def matroid_from_json(spec: dict) -> Matroid:
    try:
        kind = spec["kind"]
        if kind == "uniform":
            return UniformMatroid(spec["k"])
        if kind == "partition":
            return PartitionMatroid(_json_object(spec["part_of"], "part_of"),
                                    _json_object(spec["capacity"], "capacity"))
        if kind == "explicit":
            return ExplicitMatroid(spec["ground"], [frozenset(s) for s in spec["maximal_sets"]])
        raise InstanceError(f"unknown matroid kind {kind!r}")
    except (KeyError, TypeError, ValueError, MatroidError) as exc:
        raise InstanceError(f"bad matroid spec: {exc}") from exc


class Instance:
    """One stream: objective + matroid + arrival order (or agent list)."""

    def __init__(self, arrival_order, objective=None, matroid=None, agents=None,
                 metadata=None):
        self.arrival_order = list(arrival_order)
        self.objective = objective
        self.matroid = matroid
        self.agents = agents or []
        self.metadata = metadata or {}
        self._validate()

    def _validate(self):
        if len(set(self.arrival_order)) != len(self.arrival_order):
            raise InstanceError("arrival_order has duplicate ids")
        sinks = self.agents or [(self.objective, self.matroid)]
        for f, m in sinks:
            if f is None or m is None:
                raise InstanceError("instance needs an objective and a matroid")
            unresolved = set(self.arrival_order) - f.elements()
            if unresolved:
                raise InstanceError(f"arrivals not in objective: {sorted(unresolved)}")
            if isinstance(m, PartitionMatroid):
                for u in self.arrival_order:
                    try:
                        m.part(u)
                    except MatroidError as exc:
                        raise InstanceError(str(exc)) from exc

    def to_json(self) -> dict:
        doc: Dict[str, object] = {"arrival_order": self.arrival_order,
                                  "metadata": self.metadata}
        if self.agents:
            doc["agents"] = [
                {"objective": objective_to_json(f), "matroid": matroid_to_json(m)}
                for f, m in self.agents
            ]
        else:
            doc["objective"] = objective_to_json(self.objective)
            doc["matroid"] = matroid_to_json(self.matroid)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Instance":
        try:
            _json_object(doc, "an instance document")
            if "agents" in doc:
                agents = [
                    (objective_from_json(a["objective"]), matroid_from_json(a["matroid"]))
                    for a in doc["agents"]
                ]
                return cls(doc["arrival_order"], agents=agents, metadata=doc.get("metadata"))
            return cls(
                doc["arrival_order"],
                objective=objective_from_json(doc["objective"]),
                matroid=matroid_from_json(doc["matroid"]),
                metadata=doc.get("metadata"),
            )
        except (KeyError, TypeError) as exc:
            raise InstanceError(f"bad instance document: {exc}") from exc

    def dumps(self) -> str:
        return canonical_dumps(self.to_json()) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Instance":
        try:
            return cls.from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise InstanceError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InstanceError("instance document is nested too deeply") from exc

    @classmethod
    def load(cls, path: str) -> "Instance":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


# -- runners ----------------------------------------------------------------------


def _round_record(i, element, decision, f_s, opt=None):
    rec = {
        "record": "round",
        "round": i,
        "element": element,
        "decision": "accept" if decision and decision.accepted else "reject",
        "evicted": decision.evicted if decision else None,
        "f_S": to_jsonable(f_s),
    }
    if opt is not None:
        rec["opt_prefix"] = to_jsonable(opt)
        rec["ratio"] = to_jsonable(f_s / opt) if opt > 0 else None
    return rec


def _reference_optima(instance: Instance, check: bool) -> List[object]:
    """Brute-force prefix optima when checking every round or when the stream
    is short enough to enumerate; None per round otherwise.  Instances with
    agents get the optimal assignment of each prefix."""
    order = instance.arrival_order
    if instance.agents:
        if check or len(order) <= MAX_ASSIGNMENT_ARRIVALS:
            return assignment_prefix_optima(instance.agents, order)
    elif check or len(order) <= MAX_ENUM_GROUND:
        return prefix_optima(instance.objective, instance.matroid, order)
    return [None] * len(order)


class _ValueMemo(dict):
    """f's value of each set looked up, computed on the first lookup."""

    def __init__(self, f: Objective):
        super().__init__()
        self.value = f.value

    def __missing__(self, chosen: frozenset):
        value = self[chosen] = self.value(chosen)
        return value


def _trial_values(f: Objective, samples: Iterable[frozenset]) -> list:
    """f of each sampled set, in order, evaluating f once per distinct set,
    in order of first appearance.  The sets are drawn as ``map`` looks each
    one up in the memo, so no Python frame runs per trial beyond the
    sampler's own.  The phase runs inside the one-worker pool, which only
    marks it for the benchmark's tracer (it hooks ``ThreadPoolExecutor``);
    the pool goes once the benchmark times the phase another way."""
    lookup = _ValueMemo(f).__getitem__
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(lambda: list(map(lookup, samples))).result()


def _trial_mean(f: Objective, samples: Iterable[frozenset]):
    """Mean of f over the sampled sets; None without trials."""
    values = _trial_values(f, samples)
    return statistics.fmean(values) if values else None


def _replay(instance: Instance, check: bool, play: Callable, guarantee: Optional[float],
            what: str) -> Tuple[List[dict], object]:
    """The round records and the stream's optimum (None: not computed).
    ``play(i, u, opt)`` steps arrival ``u`` of round ``i``, whose prefix
    optimum is ``opt``, and returns its record and the value that a check
    asserts keeps ``guarantee`` times ``opt`` (None: no guarantee)."""
    opts = _reference_optima(instance, check)
    records = []
    for i, (u, opt) in enumerate(zip(instance.arrival_order, opts), 1):
        rec, value = play(i, u, opt)
        records.append(rec)
        if (check and guarantee is not None and opt > 0
                and value < guarantee * opt - RATIO_TOL * (1 + abs(opt))):
            raise InvariantViolation(
                f"{what}: value {float(value)} below {guarantee} * {float(opt)}")
    return records, (opts[-1] if opts else None)


def _rule(alg: str, matroid: Matroid, c=2) -> Tuple[Callable, Optional[float]]:
    """The step of deterministic rule ``alg`` on ``matroid`` and the fraction
    of the prefix optimum it keeps after every arrival (None: no guarantee).
    The one place each is decided: (c - 1) / c^2 for the exchange rule,
    ``dispatch_uniform``'s 1/alpha_k or 1/k for k-uniform, and 1/k for
    best-singleton on a uniform matroid of rank k."""
    if alg == "general":
        return (lambda st, u: step_general_matroid(st, u, c)), float(exchange_ratio(c))
    uniform = isinstance(matroid, UniformMatroid)
    if alg == "best-singleton":
        return step_best_singleton, (1.0 / matroid.k if uniform else None)
    if not uniform:  # alg is k-uniform
        raise InstanceError("k-uniform needs a uniform matroid")
    return dispatch_uniform(matroid.k)


def run_deterministic(instance: Instance, step: Callable, guarantee: Optional[float],
                      check: bool, state: Optional[OnlineState] = None
                      ) -> Tuple[List[dict], dict]:
    """Step every arrival of the instance; a given fresh ``state`` is stepped in
    place, so the caller can inspect the final state."""
    state = state or OnlineState(instance.objective, instance.matroid)

    def play(i, u, opt):
        d = step(state, u)
        f_s = state.f_S()
        return _round_record(i, u, d, f_s, opt), f_s

    records, opt = _replay(instance, check, play, guarantee, "per-round ratio")
    final = {
        "record": "final",
        "f_S": to_jsonable(state.f_S()),
        "opt": to_jsonable(opt),
        "ratio": to_jsonable(state.f_S() / opt) if opt else None,
        "selected": sorted(state.feasible),
    }
    return records, final


def run_fractional(instance: Instance, delta, seed: int, trials: int,
                   check: bool) -> Tuple[List[dict], dict]:
    if not isinstance(instance.matroid, PartitionMatroid):
        raise InstanceError("partition-frac needs a partition matroid")
    state = FractionalState(instance.objective, instance.matroid, delta=delta)

    def play(i, u, opt):
        state.step(u)
        fhat = state.soft_value_live()
        slack = max(map(state.unit_slack, state.parts), default=0.0) * len(state.parts)
        return {"record": "round", "round": i, "element": u,
                "soft_value": to_jsonable(fhat), "opt_prefix": to_jsonable(opt)}, fhat + slack

    records, opt = _replay(instance, check, play, 1 / state.alpha, "fractional per-round ratio")
    rounded_mean = _trial_mean(instance.objective, state.roundings(seed + 1, trials))
    final = {
        "record": "final",
        "soft_value": (records[-1]["soft_value"] if records
                       else to_jsonable(state.soft_value_live())),
        "opt": to_jsonable(opt),
        "rounded_mean": rounded_mean,
        "rounded_once": sorted(state.round_with_seed(seed)),
    }
    return records, final


def run_nonmono(instance: Instance, kind: str, seed: int, trials: int,
                check: bool) -> Tuple[List[dict], dict]:
    if kind == "nonmono-general":
        run = NonmonotoneGeneralRun(instance.objective, instance.matroid)
        guarantee = 1.0 / 16.0
    else:
        m = instance.matroid
        if isinstance(m, UniformMatroid):
            k = m.k
        elif isinstance(m, PartitionMatroid) and len(m.capacity) == 1:
            # every arrival carries the one part's label: the uniform matroid of its capacity
            (k,) = m.capacity.values()
        else:
            raise InstanceError(
                "nonmono-uniform needs a uniform matroid or a partition matroid of one part")
        run = NonmonotoneUniformRun(instance.objective, k)
        guarantee = run.alpha.ratio * (1 - 1 / run.rho)

    def play(i, u, opt):
        d = run.step(u)
        expected = run.expected_feasible_value()
        rec = _round_record(i, u, d, run.state.f_S(), opt)
        rec["expected_f"] = to_jsonable(expected)
        return rec, expected

    records, opt = _replay(instance, check, play, guarantee, "expected per-round ratio")
    trial_mean_f = _trial_mean(instance.objective,
                               map(run.sample_with_seed, range(seed, seed + trials)))
    final = {
        "record": "final",
        "expected_f": (records[-1]["expected_f"] if records
                       else to_jsonable(run.expected_feasible_value())),
        "trial_mean_f": trial_mean_f,
        "opt": to_jsonable(opt),
        "selected_once": sorted(run.sample_with_seed(seed)),
    }
    return records, final


def run_bipartite(instance: Instance, check: bool, c=2) -> Tuple[List[dict], dict]:
    """Agents on a uniform matroid of rank k >= 4 run the capacity rule, the
    others the exchange rule; each keeps 1/alpha, and the check asserts
    1/(alpha + 1) of the optimal assignment at the largest alpha."""
    if not instance.agents:
        raise InstanceError("bipartite needs an agents list in the instance")
    exchange_alpha = float(1 / exchange_ratio(c))  # refuses c <= 1 before any arrival
    agents = []
    worst_alpha = 0.0
    for f, m in instance.agents:
        state = OnlineState(f, m)
        if isinstance(m, UniformMatroid) and m.k >= 4:
            alpha = solve_alpha(m.k)
            agents.append(Agent.k_uniform(state, alpha))
            worst_alpha = max(worst_alpha, alpha.value)
        else:
            agents.append(Agent.general(state, c))
            worst_alpha = max(worst_alpha, exchange_alpha)

    def play(i, u, opt):
        idx, d = step_bipartite(agents, u)
        total = sum(a.state.f_S() for a in agents)
        rec = {"record": "round", "round": i, "element": u, "assigned_to": idx,
               "evicted": d.evicted if d else None, "total_f": to_jsonable(total)}
        if check:
            rec["opt_prefix"] = to_jsonable(opt)
        return rec, total

    records, opt = _replay(instance, check, play, 1.0 / (worst_alpha + 1.0),
                           "assignment per-round ratio")
    total = sum(a.state.f_S() for a in agents)
    final = {
        "record": "final",
        "total_f": to_jsonable(total),
        "opt": to_jsonable(opt),
        "ratio": to_jsonable(total / opt) if opt else None,
        "per_agent": [sorted(a.state.feasible) for a in agents],
    }
    return records, final


# -- subcommands -------------------------------------------------------------------

# The flags that each choice of ``run --alg`` and ``adversary --family`` reads,
# with their defaults; a default of None makes the flag required.  The parser
# leaves a flag None when it is not given, so that one given to a choice that
# does not read it is refused, and reports and reproducers echo exactly the
# flags read.
_SAMPLED = {"seed": 0, "trials": 1}
RUN_FLAGS: Dict[str, dict] = {
    "k-uniform": {}, "general": {"c": "2"}, "partition-frac": {"delta": "0.02", **_SAMPLED},
    "bipartite": {"c": "2"}, "nonmono-general": _SAMPLED, "nonmono-uniform": _SAMPLED,
    "best-singleton": {},
}
FAMILY_FLAGS: Dict[str, dict] = {
    "uniform": {"eps": "0.05", "delta": "0.2", "k": None},
    "partition-monotone": {}, "partition-general": {},
}


def _readers(table: Dict[str, dict], name: str) -> str:
    """The choices that read flag ``name``, as "a, b and c"."""
    readers = [choice for choice, flags in table.items() if name in flags]
    return " and ".join(filter(None, [", ".join(readers[:-1]), readers[-1]]))


def _add_flag(parser, name: str, what: str, choice: str, table: Dict[str, dict], type=str):
    default = next(flags[name] for flags in table.values() if name in flags)
    read_by = f"--{choice} {_readers(table, name)} only"
    parser.add_argument(f"--{name}", type=type, help=f"{what}; {read_by}, "
                        + ("required" if default is None else f"default {default}"))


def _flags_read(args, choice: str, table: Dict[str, dict]) -> dict:
    """Each flag that the ``--{choice}`` of ``args`` reads, at its given value
    or its default; a flag given to a choice that does not read it is an error."""
    chosen = getattr(args, choice)
    for name in dict.fromkeys(name for flags in table.values() for name in flags):
        if name not in table[chosen] and getattr(args, name) is not None:
            raise InstanceError(
                f"--{name} applies to --{choice} {_readers(table, name)}, not {chosen}")
    flags = {}
    for name, default in table[chosen].items():
        value = flags[name] = default if getattr(args, name) is None else getattr(args, name)
        if value is None:
            raise InstanceError(f"--{choice} {chosen} needs --{name}")
    return flags


def cmd_run(args, out) -> int:
    alg, check = args.alg, args.check_every_round
    flags = _flags_read(args, "alg", RUN_FLAGS)
    if flags.get("trials", 0) < 0:
        raise InstanceError(f"--trials must be 0 or more, not {flags['trials']}")
    instance = Instance.load(args.instance)
    if alg != "bipartite" and instance.agents:
        raise InstanceError(f"{alg} needs an objective and a matroid, not an agents list")
    params = dict(flags)
    seed = params.pop("seed", None)
    if "c" in params:  # exact here, a float in the report
        params["c"] = _exact(params["c"])
    try:
        if alg == "partition-frac":
            records, final = run_fractional(
                instance, _exact(params["delta"]), seed, params["trials"], check)
        elif alg in ("nonmono-general", "nonmono-uniform"):
            records, final = run_nonmono(instance, alg, seed, params["trials"], check)
        elif alg == "bipartite":
            records, final = run_bipartite(instance, check, params["c"])
        else:
            step, guarantee = _rule(alg, instance.matroid, params.get("c"))
            if alg == "k-uniform":  # the instance's matroid decides these, not a flag
                k = instance.matroid.k
                params = {"k": k, "routed": "best-singleton" if k <= 3 else "capacity-rule"}
            records, final = run_deterministic(instance, step, guarantee, check)
    except InvariantViolation:
        reproducer = {"alg": alg, **flags, "instance": instance.to_json()}
        print(f"reproducer: {canonical_dumps(reproducer)}", file=sys.stderr)
        raise
    final.update({"alg": alg, "params": to_jsonable(params)})
    if seed is not None:
        final["seed"] = seed
    for rec in records:
        out.write(canonical_dumps(rec) + "\n")
    out.write(canonical_dumps(final) + "\n")
    return EXIT_OK


def cmd_constants(args, out) -> int:
    ks = []
    for tok in args.k.split(","):
        tok = tok.strip()
        ks.append("inf" if tok in ("inf", "infinity") else int(tok))
    rho = args.rho
    for k in ks:
        a = solve_alpha(k, rho=rho)
        line = f"k={k} rho={rho} alpha={a.value:.6f} ratio={a.ratio:.6f}"
        if rho == 3:
            line += f" thinned_ratio={a.ratio * (1 - 1 / rho):.6f}"
        out.write(line + "\n")
    return EXIT_OK


def cmd_adversary(args, out) -> int:
    flags = _flags_read(args, "family", FAMILY_FLAGS)
    alpha = _exact(args.alpha)
    kwargs = {}
    if args.family == "uniform":
        kwargs = {"epsilon": _exact(flags["eps"]), "delta": _exact(flags["delta"]),
                  "k": flags["k"]}
    driver = make_driver(args.family, alpha, **kwargs)
    if driver.range_warning:
        print(f"warning: {driver.range_warning}", file=sys.stderr)
    step = _rule(args.alg, driver.matroid)[0]
    if args.alg == "k-uniform":
        # refuses k <= 3: the stream plays the capacity rule, not the fallback
        solve_alpha(driver.matroid.k)
    try:
        outcome = run_adversary(driver, step, record_rounds=not args.quiet)
    except InvariantViolation:
        # the stream is a function of these alone
        reproducer = {"family": args.family, "alpha": args.alpha, "alg": args.alg, **flags}
        print(f"reproducer: {canonical_dumps(reproducer)}", file=sys.stderr)
        raise
    for rec in outcome.rounds:
        out.write(canonical_dumps(to_jsonable(rec)) + "\n")
    final = {
        "record": "final",
        "family": args.family,
        "alpha": float(alpha),
        "alg": args.alg,
        "stop_reason": outcome.stop.reason,
        "stop_ratio": to_jsonable(outcome.stop.ratio),
        "min_ratio": to_jsonable(outcome.min_ratio),
        "min_round": outcome.min_round,
    }
    out.write(canonical_dumps(final) + "\n")
    return EXIT_OK


def _verify_lemmas(rng: random.Random, cases: int, out, seed: int) -> int:
    failures = 0
    for case in range(cases):
        f, m, order = random_instance(rng, rng.randint(5, 9))
        inst = Instance(order, objective=f, matroid=m)
        try:
            st = OnlineState(f, m)
            run_deterministic(inst, *_rule("general", m), True, st)
            gap = greedy_optimality_gap(st)
            if gap > 1e-9:
                raise InvariantViolation(f"greedy optimality gap {gap}")
            inst_u = Instance(order, objective=f, matroid=UniformMatroid(rng.randint(4, 6)))
            run_deterministic(inst_u, *_rule("k-uniform", inst_u.matroid), True)
        except InvariantViolation as exc:
            failures += 1
            out.write(canonical_dumps({
                "record": "violation", "suite": "lemmas", "seed": seed, "case": case,
                "error": str(exc), "instance": inst.to_json(),
            }) + "\n")
    out.write(canonical_dumps({
        "record": "suite", "suite": "lemmas", "cases": cases, "failures": failures,
    }) + "\n")
    return failures


def _verify_sampling(rng: random.Random, cases: int, out, seed: int) -> int:
    failures = 0
    for case in range(cases):
        n = rng.randint(2, 8)
        g = random_submodular_table(rng, n, monotone=rng.random() < 0.5)
        for k in range(n + 1):
            ok, witness = check_ckp_domination(g, n, k)
            if not ok:
                failures += 1
                out.write(canonical_dumps({
                    "record": "violation", "suite": "sampling", "seed": seed, "case": case,
                    "k": k, "witness": witness,
                    "table": objective_to_json(g),
                }) + "\n")
    out.write(canonical_dumps({
        "record": "suite", "suite": "sampling", "cases": cases, "failures": failures,
    }) + "\n")
    return failures


def _verify_rounding(rng: random.Random, cases: int, out, seed: int) -> int:
    failures = 0
    delta = Fraction(1, 25)
    cases = min(cases, 40)
    for case in range(cases):
        f, m, order = random_instance(rng, rng.randint(4, 6), matroid_kind="partition")
        st = FractionalState(f, m, delta=delta)
        for u in order:
            st.step(u)
        target = st.soft_value_live()
        n = 2000
        phase_seed = seed * 40 + case  # distinct per (seed, case) at 40 cases or fewer
        vals = _trial_values(f, st.roundings(phase_seed, n))
        mean = statistics.fmean(vals)
        sigma = statistics.pstdev(vals) / math.sqrt(n) if n else 0.0
        ok = mean >= target - 3 * sigma - 1e-9
        opt_set, _ = brute_force_opt(f, m, f.elements())
        ok2, slack = check_f_vs_fhat(f, opt_set, st.history_masses())
        if not (ok and ok2):
            failures += 1
            out.write(canonical_dumps({
                "record": "violation", "suite": "rounding", "seed": seed, "case": case,
                "phase_seed": phase_seed, "delta": str(delta), "mean": mean,
                "target": to_jsonable(target), "sigma": sigma, "fhat_slack": to_jsonable(slack),
                "instance": Instance(order, objective=f, matroid=m).to_json(),
            }) + "\n")
    out.write(canonical_dumps({
        "record": "suite", "suite": "rounding", "cases": cases, "failures": failures,
    }) + "\n")
    return failures


SUITES = {"lemmas": _verify_lemmas, "rounding": _verify_rounding, "sampling": _verify_sampling}


def cmd_verify(args, out) -> int:
    if args.cases < 0:
        raise InstanceError(f"--cases must be 0 or more, not {args.cases}")
    suites = SUITES if args.suite == "all" else (args.suite,)
    failures = sum(SUITES[suite](random.Random(args.seed), args.cases, out, args.seed)
                   for suite in suites)
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


@functools.cache  # parse_args keeps nothing between calls
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subfree")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay an instance through a step rule")
    run.add_argument("--alg", required=True, choices=list(RUN_FLAGS))
    run.add_argument("--instance", required=True)
    _add_flag(run, "seed", "the seed of the rule's samples", "alg", RUN_FLAGS, int)
    _add_flag(run, "c", "the exchange rule's c > 1", "alg", RUN_FLAGS)
    _add_flag(run, "delta", "the unit of fractional mass, 1/delta an integer", "alg", RUN_FLAGS)
    run.add_argument("--check-every-round", action="store_true")
    _add_flag(run, "trials", "the number of samples averaged", "alg", RUN_FLAGS, int)
    run.add_argument("--out", default=None)

    cons = sub.add_parser("constants", help="threshold constants table")
    cons.add_argument("--k", default="4,5,6,7,8,inf")
    cons.add_argument("--rho", type=int, default=1, choices=[1, 3])

    adv = sub.add_parser("adversary", help="drive a hardness family")
    adv.add_argument("--family", required=True, choices=list(FAMILY_FLAGS))
    adv.add_argument("--alpha", required=True)
    _add_flag(adv, "eps", "the stream's epsilon, in (0, 1)", "family", FAMILY_FLAGS)
    _add_flag(adv, "delta", "floor(delta * k) is the number of phases", "family", FAMILY_FLAGS)
    _add_flag(adv, "k", "the rank of the uniform matroid", "family", FAMILY_FLAGS, int)
    adv.add_argument("--alg", default="general",
                     choices=["general", "k-uniform", "best-singleton"])
    adv.add_argument("--quiet", action="store_true")

    ver = sub.add_parser("verify", help="randomized property suites")
    ver.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cases", type=int, default=200,
                     help="cases per suite (the rounding suite caps at 40)")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    close = None
    if getattr(args, "out", None):
        close = out = open(args.out, "w", encoding="utf-8")
    try:
        # looked up at call time, so that a replaced cmd_* is the one called
        return globals()[f"cmd_{args.command}"](args, out)
    except (ValueError, OSError) as exc:
        # library errors (instance, matroid, objective, tracker) all derive
        # from ValueError; InvariantViolation does not and maps to 3 below
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    except InvariantViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        if close:
            close.close()


if __name__ == "__main__":
    sys.exit(main())
