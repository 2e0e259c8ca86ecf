import io
import json
import math
import os
import pathlib
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import subfree.cli as cli
from subfree.adversaries import make_driver, run_adversary
from subfree.algorithms import (
    NonmonotoneGeneralRun,
    NonmonotoneUniformRun,
    dispatch_uniform,
    solve_alpha,
)
from subfree.cli import (
    EXIT_INSTANCE,
    EXIT_OK,
    EXIT_VIOLATION,
    Instance,
    InstanceError,
    main,
    matroid_from_json,
    matroid_to_json,
    objective_from_json,
    objective_to_json,
)
from subfree.fractional import FractionalState
from subfree.matroid import PartitionMatroid, UniformMatroid
from subfree.objective import EXACT_SUPPORT_LIMIT, Linear, WeightedCoverage
from subfree.oracle import assignment_prefix_optima, random_instance
from subfree.tracker import InvariantViolation

from conftest import online_roundings, random_coverage


EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "docs/examples"


def make_instance(rng=None, n=8, matroid_kind=None) -> Instance:
    rng = rng or random.Random(0)
    f, m, order = random_instance(rng, n, matroid_kind)
    return Instance(order, objective=f, matroid=m)


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(inst.dumps(), encoding="utf-8")
    return str(path)


def run_main(argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# -- serialization ----------------------------------------------------------------


def test_objective_round_trip_all_kinds(rng):
    from fractions import Fraction

    from subfree.objective import IntervalCoverage

    objs = [
        random_coverage(rng, 5),
        Linear({"a": 1, "b": 2}),
        IntervalCoverage(Fraction(1, 20), {"e": [(0, Fraction(1, 2))]}),
    ]
    from conftest import coverage_as_table

    objs.append(coverage_as_table(random_coverage(rng, 4)))
    for f in objs:
        doc = objective_to_json(f)
        back = objective_from_json(doc)
        assert objective_to_json(back) == doc
        for s in ({}, set(list(f.elements())[:2])):
            assert back.value(frozenset(s)) == f.value(frozenset(s))


def test_matroid_round_trip_all_kinds():
    from subfree.matroid import ExplicitMatroid

    ms = [
        UniformMatroid(3),
        PartitionMatroid({"a": "p", "b": "q"}, {"p": 1, "q": 2}),
        ExplicitMatroid("abc", [{"a", "b"}, {"b", "c"}, {"a", "c"}]),
    ]
    for m in ms:
        doc = matroid_to_json(m)
        assert matroid_to_json(matroid_from_json(doc)) == doc


def test_instance_file_round_trips_byte_identical(tmp_path, rng):
    inst = make_instance(rng)
    text = inst.dumps()
    again = Instance.loads(text).dumps()
    assert text == again
    path = tmp_path / "i.json"
    path.write_text(text, encoding="utf-8")
    assert Instance.load(str(path)).dumps() == text
    # agent-form instances round-trip the same way
    f = random_coverage(rng, 5)
    order = sorted(f.elements())
    multi = Instance(
        order,
        agents=[(f, UniformMatroid(2)),
                (f, PartitionMatroid({u: "p" for u in order}, {"p": 1}))],
    )
    assert Instance.loads(multi.dumps()).dumps() == multi.dumps()


def test_shipped_example_instance_is_canonical():
    import pathlib

    examples = pathlib.Path(__file__).resolve().parents[1] / "docs/examples"
    for name, alg, key, selected in (
        ("coverage_small.json", "general", "selected", ["feedA", "feedC"]),
        ("interval_small.json", "general", "selected", ["early", "late"]),
        ("bipartite_small.json", "bipartite", "per_agent",
         [["r1", "r3", "r6", "r9"], ["r5", "r8"]]),
    ):
        path = examples / name
        text = path.read_text(encoding="utf-8")
        assert Instance.loads(text).dumps() == text
        code, out = run_main(
            ["run", "--alg", alg, "--instance", str(path), "--check-every-round"]
        )
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])[key] == selected


def test_instance_validation_errors(rng):
    f = random_coverage(rng, 4)
    order = sorted(f.elements())
    with pytest.raises(InstanceError):
        Instance(order + [order[0]], objective=f, matroid=UniformMatroid(2))
    with pytest.raises(InstanceError):
        Instance(order + ["ghost"], objective=f, matroid=UniformMatroid(2))
    with pytest.raises(InstanceError):
        Instance(order, objective=f, matroid=PartitionMatroid({}, {"p": 1}))


# Instance-shaped documents: each field is either of the expected shape, with
# numbers that may be out of range or malformed, or an arbitrary JSON value.
_IDS = ["e0", "e1", "e2", "x0", "p0"]
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(_IDS + ["", "1/2", "1/0", "-1/3", "1e400", "x/y"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_num = st.integers(-1, 9) | st.sampled_from([0.5, 1e308, "1/2", "1/0", "-1/3", "1e400", "x"])
_ids = st.lists(st.sampled_from(_IDS), max_size=4)


def _doc(kind, **fields):
    return st.fixed_dictionaries({"kind": st.just(kind),
                                  **{k: v | _json for k, v in fields.items()}})


_objectives = st.one_of(
    _doc("linear", weight=st.dictionaries(st.sampled_from(_IDS), _num, max_size=3)),
    _doc("weighted_coverage",
         universe_weight=st.dictionaries(st.sampled_from(_IDS), _num, max_size=3),
         covers=st.dictionaries(st.sampled_from(_IDS), _ids, max_size=3)),
    _doc("interval_coverage", epsilon=_num,
         covers=st.dictionaries(st.sampled_from(_IDS),
                                st.lists(st.lists(_num, min_size=2, max_size=2), max_size=2),
                                max_size=3)),
    _doc("explicit_table", ground=_ids,
         value=st.dictionaries(st.sampled_from(["", "e0", "e1", "e0,e1"]), _num, max_size=4)),
)
_matroids = st.one_of(
    _doc("uniform", k=_num),
    _doc("partition",
         part_of=st.dictionaries(st.sampled_from(_IDS), st.sampled_from(["p0", "p1"]),
                                 max_size=3),
         capacity=st.dictionaries(st.sampled_from(["p0", "p1"]), _num, max_size=2)),
    _doc("explicit", ground=_ids, maximal_sets=st.lists(_ids, max_size=3)),
)
_documents = _json | st.fixed_dictionaries(
    {"arrival_order": _ids | _json, "objective": _objectives | _json,
     "matroid": _matroids | _json},
    optional={"metadata": _json, "agents": st.lists(
        st.fixed_dictionaries({"objective": _objectives, "matroid": _matroids}),
        max_size=2) | _json})


@settings(max_examples=400)
@given(_documents)
def test_instance_loads_returns_an_instance_or_an_instance_error(doc):
    try:
        inst = Instance.loads(json.dumps(doc))
    except InstanceError:
        return
    assert isinstance(inst, Instance)


@pytest.mark.parametrize("argv", [
    ["run", "--alg", "general", "--c", "1/0"],
    ["run", "--alg", "partition-frac", "--delta", "1/0"],
    ["adversary", "--family", "partition-general", "--alpha", "1/0"],
])
def test_zero_denominator_argument_exits_2(argv, capsys):
    if argv[0] == "run":
        argv = argv + ["--instance", str(EXAMPLES / "coverage_small.json")]
    assert run_main(argv)[0] == EXIT_INSTANCE
    assert "zero denominator" in capsys.readouterr().err


# -- run command --------------------------------------------------------------------


def test_run_general_check_every_round(tmp_path, rng):
    path = write_instance(tmp_path, make_instance(rng, 9))
    code, text = run_main(
        ["run", "--alg", "general", "--instance", path, "--check-every-round"]
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in text.splitlines()]
    rounds = [l for l in lines if l["record"] == "round"]
    assert len(rounds) == 9
    for r in rounds:
        if r["ratio"] is not None:
            assert r["ratio"] >= 0.25 - 1e-9
    assert lines[-1]["record"] == "final"


@pytest.mark.parametrize("c", ["3", "5"])
def test_run_general_checks_the_exchange_ratio_of_its_c(tmp_path, c):
    # (c - 1) / c^2 is 2/9 at c = 3 and 0.16 at c = 5; coverage_small keeps 2/9
    # of the optimum at c = 5, and at c = 5 b's 49/10 is short of 5 times a's 1
    two = Instance(["a", "b"], objective=Linear({"a": 1, "b": Fraction(49, 10)}),
                   matroid=UniformMatroid(1))
    for path in (str(EXAMPLES / "coverage_small.json"), write_instance(tmp_path, two)):
        code, text = run_main(["run", "--alg", "general", "--c", c, "--instance", path,
                               "--check-every-round"])
        assert code == EXIT_OK
        final = json.loads(text.splitlines()[-1])
        assert final["params"] == {"c": float(c)}
        assert final["ratio"] >= (int(c) - 1) / int(c) ** 2 > 0.15
    assert final["ratio"] == (pytest.approx(10 / 49) if c == "5" else 1.0)


@pytest.mark.parametrize("c", ["0", "1", "-2", "1/2"])
@pytest.mark.parametrize("empty", [False, True])
def test_run_general_refuses_c_of_at_most_1(tmp_path, capsys, c, empty):
    inst = Instance.load(str(EXAMPLES / "coverage_small.json"))
    if empty:
        inst = Instance([], objective=inst.objective, matroid=inst.matroid)
    path = write_instance(tmp_path, inst)
    for check in ([], ["--check-every-round"]):
        code, text = run_main(["run", "--alg", "general", "--c", c, "--instance", path, *check])
        assert (code, text) == (EXIT_INSTANCE, "")
        assert capsys.readouterr().err == "error: the exchange rule needs c > 1\n"


def test_run_bipartite_passes_c_to_its_exchange_rule_agents():
    path = str(EXAMPLES / "bipartite_small.json")
    finals = {}
    for c in (None, "2", "3", "50"):
        code, text = run_main(["run", "--alg", "bipartite", "--check-every-round",
                               "--instance", path] + (["--c", c] if c else []))
        assert code == EXIT_OK
        finals[c] = json.loads(text.splitlines()[-1])
        assert finals[c]["params"] == {"c": float(c or 2)}
    assert finals[None] == finals["2"]
    # the partition agent keeps r4 over r8 when r8 must weigh 50 times as much
    assert finals["50"]["per_agent"] != finals[None]["per_agent"]


@pytest.mark.parametrize("c", ["0", "1", "-2", "1/2"])
@pytest.mark.parametrize("empty", [False, True])
def test_run_bipartite_refuses_c_of_at_most_1(tmp_path, capsys, c, empty):
    path = str(EXAMPLES / "bipartite_small.json")
    if empty:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(dict(doc, arrival_order=[])), encoding="utf-8")
    for check in ([], ["--check-every-round"]):
        code, text = run_main(["run", "--alg", "bipartite", "--c", c, "--instance",
                               str(path), *check])
        assert (code, text) == (EXIT_INSTANCE, "")
        assert capsys.readouterr().err == "error: the exchange rule needs c > 1\n"


# The rules each flag applies to, as a refusal lists them, and a value each of
# them reads; no rule takes --k, since k-uniform reads k from the instance's
# matroid.
RANDOMIZED = ("partition-frac", "nonmono-general", "nonmono-uniform")
RULES_OF = {
    "--c": (("general", "bipartite"), "general and bipartite", "4"),
    "--seed": (RANDOMIZED, "partition-frac, nonmono-general and nonmono-uniform", "4"),
    "--trials": (RANDOMIZED, "partition-frac, nonmono-general and nonmono-uniform", "4"),
    "--delta": (("partition-frac",), "partition-frac", "1/4"),
    "--k": ((), "", "4"),
}
EXAMPLE_OF = {"bipartite": "bipartite_small", "nonmono-uniform": "interval_small"}


@pytest.mark.parametrize("alg", [
    "k-uniform", "general", "best-singleton", "partition-frac", "nonmono-general",
    "nonmono-uniform", "bipartite",
])
@pytest.mark.parametrize("flag", RULES_OF)
def test_run_refuses_a_parameter_its_rule_ignores(capsys, flag, alg):
    rules, listed, value = RULES_OF[flag]
    example = EXAMPLE_OF.get(alg, "coverage_small")
    argv = ["run", "--alg", alg, flag, value, "--instance", str(EXAMPLES / f"{example}.json")]
    if alg in rules:  # read, and echoed in the final record
        code, text = run_main(argv)
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        final = json.loads(text.splitlines()[-1])
        echoed = final["seed"] if flag == "--seed" else final["params"][flag[2:]]
        assert echoed == {"--c": 4.0, "--delta": "1/4"}.get(flag, 4)
        assert ("seed" in final) == (alg in RANDOMIZED)
        return
    if not rules:  # the parser knows no such option
        with pytest.raises(SystemExit) as exc:
            run_main(argv)
        assert exc.value.code == EXIT_INSTANCE
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} 4\n")
        return
    code, text = run_main(argv)
    assert (code, text) == (EXIT_INSTANCE, "")
    assert capsys.readouterr().err == f"error: {flag} applies to --alg {listed}, not {alg}\n"


# The families each flag applies to, and a value the uniform family reads.
FAMILIES_OF = {"--eps": "1/10", "--delta": "1/2", "--k": "10"}


@pytest.mark.parametrize("family", ["uniform", "partition-monotone", "partition-general"])
@pytest.mark.parametrize("flag", FAMILIES_OF)
def test_adversary_refuses_a_parameter_its_family_ignores(capsys, flag, family):
    argv = ["adversary", "--family", family, "--alpha", "3", flag, FAMILIES_OF[flag]]
    if family == "uniform":
        k = [] if flag == "--k" else ["--k", "10"]
        code, text = run_main(argv + k)
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        if flag != "--k":  # read: the stream differs from the one at the default
            assert text != run_main(argv[:5] + k)[1]
        return
    assert run_main(argv) == (EXIT_INSTANCE, "")
    assert capsys.readouterr().err == f"error: {flag} applies to --family uniform, not {family}\n"


def test_run_k_uniform_check_every_round(tmp_path):
    rng = random.Random(5)
    f, _, order = random_instance(rng, 9)
    inst = Instance(order, objective=f, matroid=UniformMatroid(4))
    path = write_instance(tmp_path, inst)
    code, text = run_main(
        ["run", "--alg", "k-uniform", "--instance", path, "--check-every-round"]
    )
    assert code == EXIT_OK
    for line in text.splitlines():
        rec = json.loads(line)
        if rec["record"] == "round" and rec.get("ratio") is not None:
            assert rec["ratio"] >= 0.2959


def test_run_k_uniform_small_k_routes_to_singleton(tmp_path):
    rng = random.Random(6)
    f, _, order = random_instance(rng, 6)
    inst = Instance(order, objective=f, matroid=UniformMatroid(2))
    path = write_instance(tmp_path, inst)
    code, text = run_main(
        ["run", "--alg", "k-uniform", "--instance", path, "--check-every-round"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert final["params"]["routed"] == "best-singleton"
    assert len(final["selected"]) <= 1


def test_run_empty_arrivals(tmp_path, rng):
    f = random_coverage(rng, 3)
    inst = Instance([], objective=f, matroid=UniformMatroid(2))
    path = write_instance(tmp_path, inst)
    code, text = run_main(["run", "--alg", "general", "--instance", path])
    assert code == EXIT_OK
    lines = [json.loads(l) for l in text.splitlines()]
    assert len(lines) == 1 and lines[0]["record"] == "final"
    assert lines[0]["f_S"] == 0


def test_run_partition_frac(tmp_path):
    inst = make_instance(random.Random(8), 6, matroid_kind="partition")
    path = write_instance(tmp_path, inst)
    code, text = run_main(
        ["run", "--alg", "partition-frac", "--instance", path, "--seed", "2",
         "--check-every-round", "--trials", "5"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert final["soft_value"] >= 0


def test_run_nonmono_general(tmp_path):
    rng = random.Random(9)
    from subfree.oracle import random_submodular_table

    table = random_submodular_table(rng, 5, monotone=False)
    order = sorted(table.ground)
    inst = Instance(order, objective=table, matroid=UniformMatroid(2))
    path = write_instance(tmp_path, inst)
    code, text = run_main(
        ["run", "--alg", "nonmono-general", "--instance", path, "--seed", "3",
         "--check-every-round", "--trials", "8"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert final["expected_f"] >= 0


def test_run_nonmono_uniform(tmp_path):
    rng = random.Random(10)
    from subfree.oracle import random_submodular_table

    table = random_submodular_table(rng, 6, monotone=False)
    order = sorted(table.ground)
    inst = Instance(order, objective=table, matroid=UniformMatroid(4))
    path = write_instance(tmp_path, inst)
    code, text = run_main(
        ["run", "--alg", "nonmono-uniform", "--instance", path, "--seed", "4",
         "--check-every-round"]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("alg, key, matroid", [
    ("partition-frac", "soft_value",
     PartitionMatroid({f"e{i}": f"p{i % 2}" for i in range(6)}, {"p0": 1, "p1": 2})),
    ("nonmono-general", "expected_f", UniformMatroid(3)),
    ("nonmono-uniform", "expected_f", UniformMatroid(2)),
])
def test_randomized_final_value_is_the_last_rounds(tmp_path, alg, key, matroid):
    # the final record reuses the last round's value; only an empty stream
    # evaluates it there
    order = [f"e{i}" for i in range(6)]
    f = Linear({u: i + 1 for i, u in enumerate(order)})
    for arrivals in (order, []):
        path = write_instance(tmp_path, Instance(arrivals, objective=f, matroid=matroid))
        code, text = run_main(["run", "--alg", alg, "--instance", path, "--seed", "1"])
        assert code == EXIT_OK
        lines = [json.loads(l) for l in text.splitlines()]
        assert len(lines) == len(arrivals) + 1
        if arrivals:
            assert 0 < lines[0][key] < lines[-2][key] == lines[-1][key]
        else:
            assert lines[0][key] == 0


@pytest.mark.parametrize("alg, make_matroid", [
    ("partition-frac", lambda order: PartitionMatroid(
        {u: f"p{i % 3}" for i, u in enumerate(order)}, {"p0": 2, "p1": 2, "p2": 2})),
    ("nonmono-general", lambda order: UniformMatroid(3)),
    ("nonmono-uniform", lambda order: UniformMatroid(2)),
])
def test_run_beyond_enumeration_limit_skips_reference(tmp_path, capsys, alg, make_matroid):
    # 24 arrivals are too many to enumerate; 18 of them weigh 0, so the
    # soft and thinned supports stay at 6
    order = [f"e{i:02d}" for i in range(24)]
    f = Linear({u: float(i + 1) if i % 4 == 0 else 0.0 for i, u in enumerate(order)})
    path = write_instance(tmp_path, Instance(order, objective=f, matroid=make_matroid(order)))
    argv = ["run", "--alg", alg, "--instance", path, "--seed", "1"]
    code, text = run_main(argv)
    assert code == EXIT_OK
    lines = [json.loads(l) for l in text.splitlines()]
    assert len(lines) == 25 and lines[-1]["opt"] is None
    assert all(rec.get("opt_prefix") is None for rec in lines[:-1])
    code, _ = run_main(argv + ["--check-every-round"])
    assert code == EXIT_INSTANCE
    assert "exceeds enumeration limit 20" in capsys.readouterr().err


def test_run_bipartite_instance(tmp_path):
    rng = random.Random(11)
    f1 = random_coverage(rng, 7)
    f2 = random_coverage(rng, 7)
    order = sorted(f1.elements())
    inst = Instance(
        order,
        agents=[(f1, UniformMatroid(2)), (f2, PartitionMatroid(
            {u: "p" for u in order}, {"p": 2}
        ))],
    )
    path = write_instance(tmp_path, inst)
    code, text = run_main(
        ["run", "--alg", "bipartite", "--instance", path, "--check-every-round"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert final["ratio"] is None or final["ratio"] >= 1 / 5 - 1e-9


def test_run_bipartite_beyond_assignment_limit_skips_reference(tmp_path, capsys):
    order = [f"e{i:02d}" for i in range(13)]
    agents = [(Linear({u: float(i + 1) for i, u in enumerate(order)}), UniformMatroid(2)),
              (Linear({u: float(13 - i) for i, u in enumerate(order)}), UniformMatroid(2))]
    path = write_instance(tmp_path, Instance(order, agents=agents))
    argv = ["run", "--alg", "bipartite", "--instance", path]
    code, text = run_main(argv)
    assert code == EXIT_OK
    lines = [json.loads(l) for l in text.splitlines()]
    assert len(lines) == 14 and lines[-1]["opt"] is None
    assert all("opt_prefix" not in rec for rec in lines[:-1])
    code, _ = run_main(argv + ["--check-every-round"])
    assert code == EXIT_INSTANCE
    assert "assignment optimum limited to 12 arrivals" in capsys.readouterr().err


def test_best_assignment_value_two_agents():
    f1 = Linear({"u": 3, "v": 1})
    f2 = Linear({"u": 2, "v": 2})
    agents = [(f1, UniformMatroid(1)), (f2, UniformMatroid(1))]
    assert assignment_prefix_optima(agents, ["u", "v"]) == [3, 5]  # u->1, v->2


def test_run_out_flag_writes_file(tmp_path, rng):
    path = write_instance(tmp_path, make_instance(rng, 6))
    out_path = tmp_path / "report.jsonl"
    code, text = run_main(
        ["run", "--alg", "general", "--instance", path, "--out", str(out_path)]
    )
    assert code == EXIT_OK
    assert text == ""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[-1])["record"] == "final"


def test_consecutive_calls_share_no_parse_state(tmp_path, rng):
    """One parser serves every call in a process; a flag given once is not
    remembered by the next call that omits it."""
    path = write_instance(tmp_path, make_instance(rng, 6))
    out_path = tmp_path / "report.jsonl"
    argv = ["run", "--alg", "general", "--instance", path]
    assert run_main(argv + ["--out", str(out_path)]) == (EXIT_OK, "")
    code, text = run_main(argv)
    assert code == EXIT_OK and text == out_path.read_text(encoding="utf-8")
    adversary = ["adversary", "--family", "uniform", "--alpha", "3", "--eps", "0.25",
                 "--delta", "0.5", "--k", "4", "--alg", "k-uniform"]
    code, quiet = run_main(adversary + ["--quiet"])
    assert code == EXIT_OK and len(quiet.splitlines()) == 1
    code, text = run_main(adversary)
    assert code == EXIT_OK and text.splitlines()[-1] == quiet.splitlines()[0]
    assert len(text.splitlines()) > 1
    assert cli.build_parser() is cli.build_parser()


def test_run_rejects_bad_instance(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run_main(["run", "--alg", "general", "--instance", str(path)])
    assert code == EXIT_INSTANCE
    code2, _ = run_main(["run", "--alg", "general", "--instance", str(tmp_path / "no.json")])
    assert code2 == EXIT_INSTANCE


def test_run_rejects_deeply_nested_instance(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, _ = run_main(["run", "--alg", "general", "--instance", str(path)])
    assert code == EXIT_INSTANCE
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon, covers, message", [
    # at cell 2000 a value would overflow a float in the threshold test
    ("1/2", {"a": [[0, 2000]], "b": [[1, 3]]}, "beyond cell 1000"),
    # measuring 10^8 cells one at a time would not finish
    ("1/1000000", {"a": [[0, 100000000]]}, "beyond cell 1000"),
    # inside the cell bound, but (1 - 9/10)^-900 overflows a float
    ("9/10", {"a": [[0, 900]]}, "beyond float range"),
    # a JSON number too large for a float parses as infinity
    ("1/2", {"a": [[0, float("inf")]]}, "cannot convert Infinity"),
])
def test_run_rejects_unbounded_interval_endpoints(tmp_path, capsys, epsilon, covers, message):
    doc = {"arrival_order": sorted(covers), "matroid": {"kind": "uniform", "k": 1},
           "objective": {"kind": "interval_coverage", "epsilon": epsilon, "covers": covers}}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _ = run_main(["run", "--alg", "general", "--instance", str(path)])
    assert code == EXIT_INSTANCE
    assert message in capsys.readouterr().err


# JSON numbers too large for a float parse as infinity; Python's json also
# reads NaN and Infinity
@pytest.mark.parametrize("objective", [
    '{"kind": "linear", "weight": {"a": 1e400, "b": 1}}',
    '{"kind": "linear", "weight": {"a": NaN, "b": 1}}',
    '{"kind": "weighted_coverage", "universe_weight": {"x": Infinity}, '
    '"covers": {"a": ["x"], "b": ["x"]}}',
    '{"kind": "explicit_table", "ground": ["a", "b"], '
    '"value": {"": 0, "a": 1, "b": 1, "a,b": Infinity}}',
], ids=["linear-1e400", "linear-nan", "coverage-infinity", "table-infinity"])
@pytest.mark.parametrize("alg", ["general", "k-uniform"])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, objective, alg):
    path = tmp_path / "nonfinite.json"
    path.write_text('{"arrival_order": ["a", "b"], "matroid": {"kind": "uniform", "k": 4}, '
                    f'"objective": {objective}}}', encoding="utf-8")
    code, out = run_main(["run", "--alg", alg, "--instance", str(path)])
    assert (code, out) == (EXIT_INSTANCE, "")
    assert "finite" in capsys.readouterr().err


# finite exact numbers may still pass the largest float: a rational string, a
# long JSON integer, or floats that are each in range but not their sum
@pytest.mark.parametrize("objective", [
    '{"kind": "linear", "weight": {"a": "1e400", "b": 1}}',
    '{"kind": "linear", "weight": {"a": 1e308, "b": 1e308}}',
    '{"kind": "weighted_coverage", "universe_weight": {"x": "1e400", "y": 1.5}, '
    '"covers": {"a": ["x"], "b": ["y"]}}',
    '{"kind": "weighted_coverage", "universe_weight": {"x": 1' + "0" * 400 + '}, '
    '"covers": {"a": ["x"], "b": ["x"]}}',
    '{"kind": "explicit_table", "ground": ["a", "b"], '
    '"value": {"": 0, "a": "1e400", "b": 1, "a,b": "1e400"}}',
], ids=["linear-rational", "linear-float-sum", "coverage-rational", "coverage-int", "table"])
@pytest.mark.parametrize("alg", ["general", "k-uniform", "best-singleton"])
def test_run_rejects_weights_beyond_float_range(tmp_path, capsys, objective, alg):
    path = tmp_path / "huge.json"
    path.write_text('{"arrival_order": ["a", "b"], "matroid": {"kind": "uniform", "k": 4}, '
                    f'"objective": {objective}}}', encoding="utf-8")
    code, out = run_main(["run", "--alg", alg, "--instance", str(path)])
    assert (code, out) == (EXIT_INSTANCE, "")
    assert "does not fit a float" in capsys.readouterr().err


def test_run_accepts_large_weights_within_float_range(tmp_path):
    f = Linear({"a": Fraction(10**300), "b": 10**300, "c": 8e307})
    path = write_instance(tmp_path, Instance(["a", "b", "c"], objective=f,
                                             matroid=UniformMatroid(4)))
    for alg in ("general", "k-uniform", "best-singleton"):
        code, out = run_main(["run", "--alg", alg, "--instance", path])
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["f_S"] > 1e300


def test_driver_objective_round_trips():
    # the uniform driver's items are ints; JSON keys are strings
    driver = make_driver("uniform", Fraction(3), epsilon=Fraction(1, 20),
                         delta=Fraction(1, 5), k=20)
    step, _ = dispatch_uniform(20)
    out = run_adversary(driver, step)
    order = [r["element"] for r in out.rounds]
    inst = Instance(order, objective=driver.objective, matroid=driver.matroid)
    back = Instance.loads(inst.dumps())
    assert back.dumps() == inst.dumps()
    # the dump holds original units: each thin interval's item weighs its phase's cell weight
    obj = json.loads(inst.dumps())["objective"]
    thin = [el for el in order if not el.endswith(".union")]
    assert len(thin) == 2 * 20 * 4
    for el in thin:
        (item,) = obj["covers"][el]
        phase = int(el.split(".")[0][1:])
        assert Fraction(obj["universe_weight"][item]) == driver.cell_weight(phase)
    assert back.objective.unit == 1
    rng = random.Random(3)
    for _ in range(50):
        s = frozenset(rng.sample(order, rng.randint(0, len(order))))
        assert back.objective.value(s) == Fraction(driver.objective.value(s),
                                                   driver.objective.unit)


@pytest.mark.parametrize("alg", [
    "k-uniform", "general", "best-singleton", "partition-frac", "nonmono-general",
    "nonmono-uniform",
])
def test_run_single_stream_algorithm_rejects_agents(tmp_path, capsys, alg):
    f = Linear({"a": 1, "b": 2})
    inst = Instance(["a", "b"], agents=[(f, UniformMatroid(4)), (f, UniformMatroid(4))])
    code, out = run_main(["run", "--alg", alg, "--instance", write_instance(tmp_path, inst)])
    assert (code, out) == (EXIT_INSTANCE, "")
    assert "needs an objective and a matroid" in capsys.readouterr().err


@pytest.mark.parametrize("family, alpha", [
    ("partition-general", "4"), ("partition-general", "6"),
    ("partition-monotone", "10"), ("partition-monotone", "20"),
])
@pytest.mark.parametrize("alg", ["general", "best-singleton"])
def test_adversary_stops_at_float_range(family, alpha, alg):
    code, out = run_main(["adversary", "--family", family, "--alpha", alpha, "--alg", alg,
                          "--quiet"])
    assert code == EXIT_OK
    assert json.loads(out)["stop_reason"] == "phase-cap"


def test_adversary_alg_matroid_mismatch_exits_2(capsys):
    code, _ = run_main(
        ["adversary", "--family", "partition-monotone", "--alpha", "3.0",
         "--alg", "k-uniform", "--quiet"]
    )
    assert code == EXIT_INSTANCE  # capacity rule cannot run on a partition matroid
    assert capsys.readouterr().err == "error: k-uniform needs a uniform matroid\n"


@pytest.mark.parametrize("k, message", [
    (None, "--family uniform needs --k"),
    ("2", "the capacity rule needs k >= 4 when rho=1"),
    ("3", "the capacity rule needs k >= 4 when rho=1"),
    ("0", "delta * k must be at least 1 (no phases otherwise)"),
])
def test_adversary_k_uniform_plays_only_the_capacity_rule(capsys, k, message):
    # unlike run, the adversary never routes k <= 3 to best-singleton; at
    # delta = 1/2, k = 2 and 3 give the stream one phase
    argv = ["adversary", "--family", "uniform", "--alpha", "3", "--delta", "1/2",
            "--alg", "k-uniform", "--quiet"]
    code, out = run_main(argv + (["--k", k] if k else []))
    assert (code, out) == (EXIT_INSTANCE, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_partition_frac_needs_partition_matroid(tmp_path):
    inst = make_instance(random.Random(31), 6, matroid_kind="uniform")
    path = write_instance(tmp_path, inst)
    code, _ = run_main(["run", "--alg", "partition-frac", "--instance", path])
    assert code == EXIT_INSTANCE


def test_run_k_uniform_reads_k_from_the_instance(tmp_path):
    inst = make_instance(random.Random(5), 6)
    inst2 = Instance(inst.arrival_order, objective=inst.objective, matroid=UniformMatroid(4))
    path = write_instance(tmp_path, inst2)
    code, text = run_main(["run", "--alg", "k-uniform", "--instance", path])
    assert code == EXIT_OK
    assert json.loads(text.splitlines()[-1])["params"] == {"k": 4, "routed": "capacity-rule"}


def test_violation_maps_to_exit_3(monkeypatch):
    def boom(args, out):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cli, "cmd_run", boom)
    code, _ = run_main(["run", "--alg", "general", "--instance", "x"])
    assert code == EXIT_VIOLATION


@pytest.mark.parametrize("example, argv, what, guarantee", [
    ("coverage_small", ["general"], "per-round ratio", 0.25),
    ("coverage_small", ["general", "--c", "5"], "per-round ratio", 0.16),
    ("coverage_small", ["general", "--c", "3/2"], "per-round ratio", 2 / 9),
    ("interval_small", ["k-uniform"], "per-round ratio", 0.5),
    ("interval_small", ["best-singleton"], "per-round ratio", 0.5),
    ("coverage_small", ["best-singleton"], None, None),
    ("coverage_small", ["partition-frac"], "fractional per-round ratio",
     1 / solve_alpha("inf").value),
    ("coverage_small", ["partition-frac", "--delta", "1/10", "--seed", "2", "--trials", "3"],
     "fractional per-round ratio", 1 / solve_alpha("inf").value),
    ("coverage_small", ["nonmono-general"], "expected per-round ratio", 1 / 16),
    ("interval_small", ["nonmono-uniform"], "expected per-round ratio",
     solve_alpha(2, rho=3).ratio * (1 - 1 / 3)),
    ("bipartite_small", ["bipartite"], "assignment per-round ratio", 1 / 5),
])
def test_every_rule_checks_its_guarantee_against_the_prefix_optimum(
        tmp_path, monkeypatch, capsys, example, argv, what, guarantee):
    # optima 100 times too large: every checked round falls short of its guarantee
    reference = cli._reference_optima
    monkeypatch.setattr(cli, "_reference_optima", lambda inst, check: [
        100 * opt for opt in reference(inst, check)])
    code, text = run_main(["run", "--alg", *argv, "--check-every-round",
                           "--instance", str(EXAMPLES / f"{example}.json")])
    err = capsys.readouterr().err
    if guarantee is None:
        assert (code, err) == (EXIT_OK, "")
        return
    assert (code, text) == (EXIT_VIOLATION, "")
    reproducer, violation = err.splitlines()
    reproducer = json.loads(reproducer.removeprefix("reproducer: "))
    assert reproducer["alg"] == argv[0]
    assert violation.startswith(f"violation: {what}: value ")
    assert violation.split(" below ")[1].split(" * ")[0] == repr(guarantee)
    # the reproducer's rule, flags and instance replay the same violation
    path = tmp_path / "reproducer.json"
    path.write_text(json.dumps(reproducer.pop("instance")), encoding="utf-8")
    replay = [arg for name, value in reproducer.items() for arg in (f"--{name}", str(value))]
    code, text = run_main(["run", *replay, "--check-every-round", "--instance", str(path)])
    assert (code, text) == (EXIT_VIOLATION, "")
    assert capsys.readouterr().err.splitlines()[1] == violation


@pytest.mark.parametrize("argv", [
    ["--family", "uniform", "--alpha", "3", "--eps", "1/10", "--delta", "1/2", "--k", "8"],
    ["--family", "partition-general", "--alpha", "5/2"],
])
def test_adversary_violation_prints_a_reproducer_that_replays(monkeypatch, capsys, argv):
    rounds = []

    def step(st, u, c):  # the exchange rule, failing at its fifth arrival
        rounds.append(u)
        if len(rounds) == 5:
            raise InvariantViolation(f"forced at {u} with f(S) = {st.f_S()}")
        return step_general_matroid(st, u, c)

    step_general_matroid = cli.step_general_matroid
    monkeypatch.setattr(cli, "step_general_matroid", step)
    assert run_main(["adversary", *argv, "--alg", "general"]) == (EXIT_VIOLATION, "")
    reproducer, violation = capsys.readouterr().err.splitlines()
    reproducer = json.loads(reproducer.removeprefix("reproducer: "))
    flags = dict(zip(argv[::2], argv[1::2]))
    assert reproducer == {name[2:]: int(value) if name == "--k" else value
                          for name, value in {**flags, "--alg": "general"}.items()}
    assert violation.startswith("violation: forced at ")
    rounds.clear()
    replay = [arg for name, value in reproducer.items() for arg in (f"--{name}", str(value))]
    assert run_main(["adversary", *replay]) == (EXIT_VIOLATION, "")
    assert capsys.readouterr().err.splitlines()[1] == violation


def test_k_uniform_checks_the_capacity_rule_constant(tmp_path, monkeypatch, capsys):
    rng = random.Random(5)
    f, _, order = random_instance(rng, 9)
    path = write_instance(tmp_path, Instance(order, objective=f, matroid=UniformMatroid(4)))
    reference = cli._reference_optima
    monkeypatch.setattr(cli, "_reference_optima", lambda inst, check: [
        100 * opt for opt in reference(inst, check)])
    code, _ = run_main(["run", "--alg", "k-uniform", "--check-every-round", "--instance", path])
    assert code == EXIT_VIOLATION
    assert f" below {solve_alpha(4).ratio!r} * " in capsys.readouterr().err


# -- constants / adversary / verify ----------------------------------------------------


def test_constants_table_values():
    code, text = run_main(["constants", "--k", "4,5,inf"])
    assert code == EXIT_OK
    lines = text.splitlines()
    assert "alpha=3.14619" in lines[-1]
    a4 = float(lines[0].split("alpha=")[1].split()[0])
    a5 = float(lines[1].split("alpha=")[1].split()[0])
    assert a5 < a4
    assert "ratio=0.31784" in lines[-1] or "ratio=0.31785" in lines[-1]


def test_constants_rho3():
    code, text = run_main(["constants", "--k", "9", "--rho", "3"])
    assert code == EXIT_OK
    thinned = float(text.strip().split("thinned_ratio=")[1])
    assert thinned > 0.1145


def test_adversary_partition_monotone_vs_general():
    code, text = run_main(
        ["adversary", "--family", "partition-monotone", "--alpha", "3.0",
         "--alg", "general", "--quiet"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert 0.25 - 1e-9 <= final["min_ratio"] <= 1 / 3.0 + 1e-9


def test_adversary_partition_general_terminates():
    code, text = run_main(
        ["adversary", "--family", "partition-general", "--alpha", "2.5",
         "--alg", "general", "--quiet"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert final["min_ratio"] <= 1 / 2.5 + 1e-9
    assert final["stop_reason"] != "phase-cap"


def test_adversary_uniform_family_small():
    code, text = run_main(
        ["adversary", "--family", "uniform", "--alpha", "2.0", "--eps", "0.1",
         "--delta", "0.25", "--k", "12", "--alg", "k-uniform", "--quiet"]
    )
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    assert final["min_ratio"] is not None


def test_adversary_uniform_with_weights_in_units_beyond_float_range():
    # 54 phases at eps = 0.499999: the weights in units pass the largest float,
    # their original values do not
    code, text = run_main(
        ["adversary", "--family", "uniform", "--alpha", "3", "--eps", "0.499999",
         "--delta", "0.9", "--k", "60", "--alg", "k-uniform", "--quiet"]
    )
    assert code == EXIT_OK
    assert text.splitlines()[-1] == (
        '{"alg": "k-uniform", "alpha": 3.0, "family": "uniform", '
        '"min_ratio": 0.3218390804597701, "min_round": 121, "record": "final", '
        '"stop_ratio": 0.776315560940493, "stop_reason": "phases-exhausted"}'
    )


def test_adversary_uniform_beyond_float_range_exits_2_promptly():
    # 2 * 10^7 phases: refused without raising 20/19 to that exact power
    import pathlib
    import subprocess
    import sys as _sys

    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    r = subprocess.run(
        [_sys.executable, "-m", "subfree.cli", "adversary", "--family", "uniform",
         "--alpha", "3", "--eps", "0.05", "--delta", "0.2", "--k", "100000000",
         "--alg", "k-uniform", "--quiet"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert r.returncode == EXIT_INSTANCE, r.stderr
    assert "beyond float range" in r.stderr


def test_nonmono_uniform_at_k_20_finishes_promptly(tmp_path):
    # 30 coverage elements at k=20: the expected value no longer enumerates
    # the 3^20 block choices of each round
    import subprocess
    import sys as _sys

    f = random_coverage(random.Random(30), 30, n_items=12)
    path = write_instance(tmp_path, Instance(sorted(f.elements()), objective=f,
                                             matroid=UniformMatroid(20)))
    env = dict(os.environ, PYTHONPATH=str(EXAMPLES.parents[1] / "src"))
    r = subprocess.run(
        [_sys.executable, "-m", "subfree.cli", "run", "--alg", "nonmono-uniform",
         "--instance", path, "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert r.returncode == EXIT_OK, r.stderr
    assert len(r.stdout.splitlines()) == 31


def test_nonmono_uniform_reads_k_off_a_partition_matroid_of_one_part(tmp_path, capsys):
    f = random_coverage(random.Random(12), 9)
    order = sorted(f.elements())
    outputs = []
    for m in (UniformMatroid(2), PartitionMatroid(dict.fromkeys(order, "all"), {"all": 2})):
        path = write_instance(tmp_path, Instance(order, objective=f, matroid=m))
        code, out = run_main(["run", "--alg", "nonmono-uniform", "--instance", path,
                              "--seed", "3", "--trials", "4", "--check-every-round"])
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    two_parts = PartitionMatroid({u: f"p{i % 2}" for i, u in enumerate(order)}, {"p0": 1, "p1": 1})
    path = write_instance(tmp_path, Instance(order, objective=f, matroid=two_parts))
    assert run_main(["run", "--alg", "nonmono-uniform", "--instance", path])[0] == EXIT_INSTANCE
    assert "partition matroid of one part" in capsys.readouterr().err


@pytest.mark.parametrize("alg", ["partition-frac", "nonmono-general", "nonmono-uniform"])
def test_randomized_rules_run_past_the_enumeration_limit_on_the_wide_example(alg):
    path = EXAMPLES / "coverage_wide.json"
    text = path.read_text(encoding="utf-8")
    inst = Instance.loads(text)
    assert inst.dumps() == text
    assert len(inst.arrival_order) >= 40 and list(inst.matroid.capacity.values()) == [20]
    code, out = run_main(["run", "--alg", alg, "--instance", str(path), "--seed", "1",
                          "--trials", "5"])
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == len(inst.arrival_order) + 1
    if alg == "partition-frac":
        # the history support that prices each step
        state = FractionalState(inst.objective, inst.matroid, delta=Fraction(1, 50))
        for u in inst.arrival_order:
            state.step(u)
        largest = len(state.history_masses())
    else:
        size = largest = 0  # of the auxiliary set S
        for rec in lines[:-1]:
            size += (rec["decision"] == "accept") - (rec["evicted"] is not None)
            largest = max(largest, size)
    assert largest > EXACT_SUPPORT_LIMIT


def test_verify_sampling_suite():
    code, text = run_main(["verify", "--suite", "sampling", "--cases", "20", "--seed", "5"])
    assert code == EXIT_OK
    summary = json.loads(text.splitlines()[-1])
    assert summary["failures"] == 0


def test_verify_lemmas_suite():
    code, text = run_main(["verify", "--suite", "lemmas", "--cases", "15", "--seed", "6"])
    assert code == EXIT_OK


def test_verify_lemmas_steps_each_arrival_once(monkeypatch):
    arrivals, steps = [], []

    def instance(*args):
        f, m, order = cli_random_instance(*args)
        arrivals.extend(order)
        return f, m, order

    def step(st, u, *args):
        steps.append(u)
        return cli_step(st, u, *args)

    cli_random_instance, cli_step = cli.random_instance, cli.step_general_matroid
    monkeypatch.setattr(cli, "random_instance", instance)
    monkeypatch.setattr(cli, "step_general_matroid", step)
    code, _ = run_main(["verify", "--suite", "lemmas", "--cases", "5", "--seed", "1"])
    assert code == EXIT_OK
    assert len(arrivals) == 33 and steps == arrivals


def test_verify_rounding_suite():
    code, text = run_main(["verify", "--suite", "rounding", "--cases", "4", "--seed", "7"])
    assert code == EXIT_OK


def test_verify_rounding_violation_carries_a_reproducer(monkeypatch):
    def failing(*args):
        return False, check_f_vs_fhat(*args)[1]

    check_f_vs_fhat = cli.check_f_vs_fhat
    monkeypatch.setattr(cli, "check_f_vs_fhat", failing)
    phase_seeds = set()
    for seed in (7, 8):
        code, text = run_main(["verify", "--suite", "rounding", "--cases", "3",
                               "--seed", str(seed)])
        assert code == EXIT_VIOLATION
        records = [json.loads(line) for line in text.splitlines()]
        assert records[-1] == {"record": "suite", "suite": "rounding", "cases": 3, "failures": 3}
        rng = random.Random(seed)  # the suite's instance generator draws only the instances
        for case, rec in enumerate(records[:-1]):
            assert (rec["record"], rec["seed"], rec["case"]) == ("violation", seed, case)
            f, m, order = random_instance(rng, rng.randint(4, 6), matroid_kind="partition")
            assert rec["instance"] == Instance(order, objective=f, matroid=m).to_json()
            inst = Instance.from_json(rec["instance"])
            st = FractionalState(inst.objective, inst.matroid, delta=Fraction(rec["delta"]))
            for u in inst.arrival_order:
                st.step(u)
            values = [inst.objective.value(chosen)
                      for chosen in st.roundings(rec["phase_seed"], 2000)]
            assert statistics.fmean(values) == rec["mean"]
            assert st.soft_value_live() == rec["target"]
            phase_seeds.add(rec["phase_seed"])
    assert len(phase_seeds) == 6  # each (seed, case) draws its own phase


@pytest.mark.parametrize("seed", range(1, 11))
def test_verify_rounding_suite_passes_its_three_sigma_test(seed):
    code, text = run_main(["verify", "--suite", "rounding", "--cases", "20",
                           "--seed", str(seed)])
    assert code == EXIT_OK
    assert [json.loads(line) for line in text.splitlines()] == [
        {"record": "suite", "suite": "rounding", "cases": 20, "failures": 0}]


def test_rounded_mean_keeps_the_hoeffding_bound_at_20000_trials():
    # the mean of n values in [0, f(ground)] falls below its expectation, which
    # is at least the soft value, by more than this margin with odds below 1e-6
    path = EXAMPLES / "coverage_wide.json"
    trials = 20000
    code, text = run_main(["run", "--alg", "partition-frac", "--instance", str(path),
                           "--seed", "3", "--trials", str(trials)])
    assert code == EXIT_OK
    final = json.loads(text.splitlines()[-1])
    top = sum(json.loads(path.read_text(encoding="utf-8"))["objective"]["universe_weight"].values())
    margin = top * math.sqrt(math.log(1e6) / (2 * trials))
    assert final["rounded_mean"] >= final["soft_value"] - margin


def test_rounded_mean_is_the_mean_over_one_generator_seeded_seed_plus_one():
    seed = 5
    for example, trials in (("coverage_small", 20000), ("coverage_wide", 2000)):
        inst = Instance.load(str(EXAMPLES / f"{example}.json"))
        _, final = cli.run_fractional(inst, Fraction(1, 50), seed, trials, check=False)
        st = FractionalState(inst.objective, inst.matroid, delta=Fraction(1, 50))
        for u in inst.arrival_order:
            st.step(u)
        values = [inst.objective.value(chosen) for chosen in online_roundings(st, seed + 1, trials)]
        assert final["rounded_mean"] == statistics.fmean(values), example
        assert final["rounded_once"] == sorted(st.round_with_seed(seed))
        _, once = cli.run_fractional(inst, Fraction(1, 50), seed, 1, check=False)
        assert once["rounded_mean"] == inst.objective.value(st.round_with_seed(seed + 1))


def _stepped_randomized_states(inst):
    """Each randomized rule's state, built with no seed and stepped through
    the stream, with the sampler that draws its one-seed output."""
    frac = FractionalState(inst.objective, inst.matroid, delta=Fraction(1, 50))
    general = NonmonotoneGeneralRun(inst.objective, inst.matroid)
    (k,) = inst.matroid.capacity.values()
    uniform = NonmonotoneUniformRun(inst.objective, k)
    for u in inst.arrival_order:
        for st in (frac, general, uniform):
            st.step(u)
    return {"partition-frac": ("rounded_once", frac.round_with_seed),
            "nonmono-general": ("selected_once", general.sample_with_seed),
            "nonmono-uniform": ("selected_once", uniform.sample_with_seed)}


def test_once_sets_are_the_seeded_samples_of_seedless_states():
    path = EXAMPLES / "coverage_wide.json"
    inst = Instance.load(str(path))
    for alg, (field, sample) in _stepped_randomized_states(inst).items():
        seen = set()
        for seed in range(8):
            code, text = run_main(["run", "--alg", alg, "--instance", str(path),
                                   "--seed", str(seed), "--trials", "1"])
            assert code == EXIT_OK
            final = json.loads(text.splitlines()[-1])
            assert final[field] == sorted(sample(seed)), (alg, seed)
            if field == "selected_once":  # one trial draws from the seed itself
                assert final["trial_mean_f"] == inst.objective.value(sample(seed))
            seen.add(tuple(final[field]))
        assert len(seen) > 1, alg  # the seed moves the sample


@pytest.mark.parametrize("argv", [
    *(["run", "--alg", alg, "--trials", "-1", "--instance",
       str(EXAMPLES / "coverage_small.json")]
      for alg in ("partition-frac", "nonmono-general", "nonmono-uniform")),
    *(["verify", "--suite", suite, "--cases", "-1"]
      for suite in ("lemmas", "rounding", "sampling", "all")),
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_negative_counts_exit_2(capsys, argv):
    assert run_main(argv) == (EXIT_INSTANCE, "")
    flag = "--trials" if argv[0] == "run" else "--cases"
    assert capsys.readouterr().err == f"error: {flag} must be 0 or more, not -1\n"


# -- trials ----------------------------------------------------------------------


class CountingCoverage(WeightedCoverage):
    """Weighted coverage that records the set of every value call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []  # list.append is atomic, so worker threads may share it

    def value(self, s):
        self.calls.append(s)
        return super().value(s)


def _trials_setup(seed=4):
    base = random_coverage(random.Random(seed), 8, n_items=10, max_weight=50)
    f = CountingCoverage(dict(base.universe_weight), dict(base.covers))
    ground = sorted(f.elements())

    def sample(s):
        r = random.Random(s)
        return frozenset(u for u in ground if r.random() < 0.3)

    return f, sample


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 1001])
def test_trial_mean_is_the_seed_order_mean(n):
    f, sample = _trials_setup()
    seeds = range(13, 13 + n)
    expected = [f.value(sample(s)) for s in seeds]
    assert cli._trial_values(f, map(sample, seeds)) == expected
    if n == 0:
        assert cli._trial_mean(f, map(sample, seeds)) is None
    else:
        assert cli._trial_mean(f, map(sample, seeds)) == statistics.fmean(expected)


def test_trial_values_call_the_oracle_once_per_distinct_set():
    f, sample = _trials_setup()
    seeds = range(5, 1006)
    distinct = {sample(s) for s in seeds}
    for trials in (cli._trial_values, cli._trial_mean):
        f.calls.clear()
        trials(f, map(sample, seeds))
        assert len(f.calls) == len(distinct) < len(seeds)
        assert set(f.calls) == distinct


def test_trial_mean_passes_a_sampling_error_through():
    f, sample = _trials_setup()
    err = ValueError("no sample for seed 600")

    def failing(s):
        if s == 600:
            raise err
        return sample(s)

    with pytest.raises(ValueError) as info:
        cli._trial_mean(f, map(failing, range(3, 1004)))
    assert info.value is err


# -- determinism --------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--k", "4,6,inf"],
        ["adversary", "--family", "partition-monotone", "--alpha", "3.5",
         "--alg", "best-singleton"],
        ["adversary", "--family", "partition-general", "--alpha", "2.0",
         "--alg", "general"],
        ["verify", "--suite", "sampling", "--cases", "10", "--seed", "3"],
    ],
)
def test_commands_byte_identical_across_runs(argv):
    code1, text1 = run_main(argv)
    code2, text2 = run_main(argv)
    assert (code1, text1) == (code2, text2)


def test_run_byte_identical_with_seed(tmp_path):
    inst = make_instance(random.Random(12), 6, matroid_kind="partition")
    path = write_instance(tmp_path, inst)
    argv = ["run", "--alg", "partition-frac", "--instance", path, "--seed", "9",
            "--trials", "4"]
    assert run_main(argv) == run_main(argv)


def test_cross_process_determinism_under_hash_randomization(tmp_path):
    # set iteration order varies with PYTHONHASHSEED; float accumulation
    # must not, or separate invocations would differ in the last bits
    import pathlib
    import subprocess
    import sys as _sys

    rng = random.Random(40)
    from subfree.objective import WeightedCoverage

    items = [f"x{i}" for i in range(7)]
    f = WeightedCoverage(
        {i: rng.randint(1, 60) / 7.0 for i in items},  # non-dyadic floats
        {f"e{j}": frozenset(rng.sample(items, rng.randint(1, 4))) for j in range(8)},
    )
    order = sorted(f.elements())
    rng.shuffle(order)
    m = PartitionMatroid(
        {u: rng.choice(["p", "q"]) for u in order}, {"p": 1, "q": 2}
    )
    inst = Instance(order, objective=f, matroid=m)
    path = write_instance(tmp_path, inst)
    root = pathlib.Path(__file__).resolve().parents[1]
    runs = [
        ["run", "--alg", "general", "--instance", path, "--check-every-round"],
        ["run", "--alg", "partition-frac", "--instance", path, "--seed", "5", "--trials", "4"],
        # 20,000 roundings through a memo keyed by frozensets
        ["run", "--alg", "partition-frac", "--instance", path, "--seed", "5",
         "--trials", "20000"],
    ]
    outputs = []
    for hash_seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(root / "src"))
        texts = []
        for argv in runs:
            r = subprocess.run([_sys.executable, "-m", "subfree.cli", *argv],
                               capture_output=True, text=True, env=env)
            assert r.returncode == 0, r.stderr
            texts.append(r.stdout)
        outputs.append(texts)
    assert outputs[0] == outputs[1]


def test_seed_defaults_to_zero(monkeypatch):
    # the seed has one source, the --seed flag; no environment variable sets it
    monkeypatch.setenv("SUBFREE_SEED", "17")
    path = str(EXAMPLES / "coverage_small.json")
    for argv in (["run", "--alg", "nonmono-general", "--instance", path, "--trials", "3"],
                 ["verify", "--suite", "rounding", "--cases", "2"]):
        assert run_main(argv) == run_main(argv + ["--seed", "0"])
    final = json.loads(run_main(["run", "--alg", "partition-frac", "--instance", path])[1]
                       .splitlines()[-1])
    assert final["seed"] == 0
