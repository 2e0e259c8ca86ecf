"""The report contract of ``run``: every rule on every shipped example writes
the checked-in report byte for byte, or exits 2 where the rule does not fit
the example.

Each report runs with ``--check-every-round`` where the example is small
enough for the brute-force reference, and with ``--seed 3 --trials 20`` for
the randomized rules.  Regenerate a report only for a deliberate report
change, and say so in CHANGES.md.

``golden/commands`` pins a few more commands the same way: the full round
log of the k=20 uniform hardness stream under the capacity rule, the
``--quiet`` final line of the k=200 stream (the benchmark's command) under
the capacity rule, the exchange rule and the best singleton, and the
exchange rule at a c that is not an integer (c = 3/2 and 5/2) on Fraction
and int weights.
"""

import contextlib
import io
import json
import pathlib

import pytest

from subfree.cli import EXIT_INSTANCE, EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "docs/examples").glob("*.json"))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
ALGS = ["k-uniform", "general", "best-singleton", "partition-frac",
        "nonmono-general", "nonmono-uniform", "bipartite"]


def golden_argv(example: pathlib.Path, alg: str) -> list:
    doc = json.loads(example.read_text(encoding="utf-8"))
    argv = ["run", "--alg", alg, "--instance", str(example)]
    if len(doc["arrival_order"]) <= (12 if "agents" in doc else 20):
        argv.append("--check-every-round")
    if alg in ("partition-frac", "nonmono-general", "nonmono-uniform"):
        argv += ["--seed", "3", "--trials", "20"]
    return argv


@pytest.mark.parametrize("alg", ALGS)
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_run_report_matches_the_golden_report(example, alg):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(golden_argv(example, alg))
    golden = GOLDEN / f"{example.stem}.{alg}.jsonl"
    if golden.exists():
        assert (code, err.getvalue()) == (EXIT_OK, "")
        assert out.getvalue() == golden.read_text(encoding="utf-8")
    else:
        assert (code, out.getvalue()) == (EXIT_INSTANCE, "")
        assert err.getvalue().startswith("error: ")


def test_every_golden_report_belongs_to_an_example_and_a_rule():
    names = {f"{p.stem}.{alg}.jsonl" for p in EXAMPLES for alg in ALGS}
    reports = {p.name for p in GOLDEN.glob("*.jsonl")}
    assert len(reports) == 15 and reports <= names


COMMANDS = {
    "adversary.uniform.k20.k-uniform": [
        "adversary", "--family", "uniform", "--alpha", "3", "--eps", "0.05",
        "--delta", "0.2", "--k", "20", "--alg", "k-uniform"],
    **{f"adversary.uniform.k200.{alg}.quiet": [
        "adversary", "--family", "uniform", "--alpha", "3", "--eps", "0.05",
        "--delta", "0.2", "--k", "200", "--alg", alg, "--quiet"]
       for alg in ("k-uniform", "general", "best-singleton")},
    **{f"interval_small.general.c{c}": [
        "run", "--alg", "general", "--c", c, "--check-every-round",
        "--instance", str(ROOT / "docs/examples/interval_small.json")] for c in ("1.5", "2.5")},
    **{f"coverage_wide.general.c{c}": [
        "run", "--alg", "general", "--c", c,
        "--instance", str(ROOT / "docs/examples/coverage_wide.json")] for c in ("1.5", "2.5")},
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_the_golden_log(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[name])
    assert (code, err.getvalue()) == (EXIT_OK, "")
    assert out.getvalue() == (GOLDEN / "commands" / f"{name}.jsonl").read_text(encoding="utf-8")


def test_every_golden_command_log_has_a_command():
    logs = {p.stem for p in (GOLDEN / "commands").glob("*.jsonl")}
    assert logs == set(COMMANDS)
