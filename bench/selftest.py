"""Self-test of the benchmark: ``python3 bench/run.py --self-test``.

1. Runs one small pass of every workload in process, checks that its
   outputs pass, and that every check rejects a corrupted copy of them.
2. Runs every workload with small inputs as a subprocess, untraced and
   traced, and checks that the last line reports exactly the metrics named
   in BENCHMARK.json with their units, and that traced counts repeat.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _full_part(w, selected):
    """An unselected element of a part the selected set already fills."""
    part_of, capacity = w.doc["matroid"]["part_of"], w.doc["matroid"]["capacity"]
    counts = {}
    for u in selected:
        counts[part_of[u]] = counts.get(part_of[u], 0) + 1
    for u in w.doc["arrival_order"]:
        p = part_of[u]
        if u not in selected and counts.get(p, 0) == capacity[p]:
            return u
    raise LookupError("no part is full")


def hardness_corruptions(w, out):
    def union_kept(o):
        i = next(n for n, d in enumerate(o["decisions"]) if d[0].endswith(".union"))
        o["decisions"][i] = (o["decisions"][i][0], True, None)

    yield "min ratio above 1/3", lambda o: o.update(min_ratio=0.34)
    yield "min ratio below 1/alpha_k", lambda o: o.update(min_ratio=0.3)
    yield "union element kept", union_kept
    yield "phase one arrival short", lambda o: o["decisions"].pop(0)
    yield "f(S) off by one", lambda o: o.update(final_value=o["final_value"] + 1)


def exchange_corruptions(w, out):
    def extra_in_part(o):
        o["final"]["selected"].append(_full_part(w, o["final"]["selected"]))

    def drop_eviction(o):
        r = next(r for r in o["rounds"] if r["evicted"] is not None)
        r["evicted"] = None

    def checkpoint_off(o):
        o["rounds"][w.checkpoints[0] - 1]["f_S"] += 1

    yield "one element too many in a part", extra_in_part
    yield "final f_S off by one", lambda o: o["final"].update(f_S=o["final"]["f_S"] + 1)
    yield "checkpoint f_S off by one", checkpoint_off
    yield "an eviction left out", drop_eviction


def randomized_corruptions(w, out):
    algs = [alg for alg, _, _ in w.runs]
    frac, general, uniform = (algs.index(a) for a in
                              ("partition-frac", "nonmono-general", "nonmono-uniform"))

    def opt_off(o):
        o["reports"][frac][0]["opt_prefix"] += 1

    def rounded_dependent(o):
        o["reports"][frac][-1]["rounded_once"] = list(w.runs[frac][1]["arrival_order"])

    def rounded_low(o):
        doc, trials = w.runs[frac][1], w.runs[frac][2]
        final = o["reports"][frac][-1]
        final["rounded_mean"] = final["soft_value"] - checks.rounding_margin(doc, trials) - 1

    def expected_low(o):
        r = next(r for r in o["reports"][general][:-1] if r["opt_prefix"] > 0)
        r["expected_f"] = 0

    def selected_too_many(o):
        o["reports"][uniform][-1]["selected_once"] = list(w.runs[uniform][1]["arrival_order"])

    yield "opt_prefix off by one", opt_off
    yield "rounded set not independent", rounded_dependent
    yield "rounded_mean below the soft value", rounded_low
    yield "expected_f below 1/16 of opt", expected_low
    yield "selected set over k", selected_too_many


CORRUPTIONS = {
    "hardness-k200": hardness_corruptions,
    "exchange-partition": exchange_corruptions,
    "randomized-small": randomized_corruptions,
}


def check_rejections(report) -> None:
    rec = workloads.Recorder()
    rec.install()
    for name, cls in workloads.WORKLOADS.items():
        w = cls(1, str(OUT / "work" / f"selftest-{name}"), True, rec)
        w.prepare()
        out = w.run_pass().outputs
        report(f"{name}: outputs pass their checks", w.check(out) == [], w.check(out)[:3])
        for label, corrupt in CORRUPTIONS[name](w, out):
            bad = copy.deepcopy(out)
            corrupt(bad)
            report(f"{name}: check rejects {label}", bool(w.check(bad)), "accepted")


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_reports(report) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            runs = []
            for _ in range(1 + trace):
                proc = run_bench(["--workload", name, "--seed", "1", "--seconds", "0",
                                  "--trace", str(trace), "--tiny"])
                runs.append(proc)
                if proc.returncode != 0:
                    break
            proc = runs[-1]
            ok = proc.returncode == 0
            report(f"{name} trace {trace}: exits 0", ok, proc.stderr[-300:])
            if not ok:
                continue
            last = [json.loads(p.stdout.splitlines()[-1]) for p in runs]
            res = last[0]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            report(f"{name} trace {trace}: result keys",
                   set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res))
            report(f"{name} trace {trace}: every metric with its unit", got == want,
                   sorted(set(got.items()) ^ set(want.items())))
            report(f"{name} trace {trace}: numeric values",
                   all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()), "")
            report(f"{name} trace {trace}: correct, none failed",
                   res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   {k: res[k] for k in ("correct", "attempted", "failed")})
            if trace:
                counts = [{k: v["value"] for k, v in r["metrics"].items()
                           if v["unit"] in ("count", "bytes")} for r in last]
                report(f"{name} trace 1: counts repeat between traced runs",
                       counts[0] == counts[1], "")


def check_bare_directory(report) -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = run_bench(["--workload", "hardness-k200", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
    report("without the sources: exits non-zero and prints no result",
           proc.returncode != 0 and proc.stdout.strip() == "", proc.stdout[-200:])
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = []

    def report(label, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'} {label}" + ("" if ok else f": {detail}"), flush=True)
        if not ok:
            failures.append(label)

    check_rejections(report)
    check_reports(report)
    check_bare_directory(report)
    print(f"{len(failures)} failed", flush=True)
    return 1 if failures else 0
