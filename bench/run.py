"""Benchmark of subfree's online rules; see README.md in this directory.

    python3 bench/run.py --workload hardness-k200 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test

One run repeats whole passes of one workload until ``--seconds`` have
passed, checks every pass's outputs, writes a result file under
``bench/out/`` and prints one JSON line as the last line of its output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The program is imported from ``src/`` of
the checkout this file sits in; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "arrivals_per_s": "1/s",
    "decision_p50_us": "us",
    "decision_tail_us": "us",
    "evict_p50_us": "us",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = -(-q * len(sorted_values) // 100)  # ceil(q * n / 100)
    return sorted_values[max(int(rank), 1) - 1]


def environment() -> dict:
    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
    }


def run_passes(w, seconds: float, one_pass, on_pass):
    """Whole passes until ``seconds`` have passed; returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    first = None
    start = perf_counter()
    while attempted == 0 or perf_counter() - start < seconds:
        gc.collect()
        attempted += w.arrivals
        try:
            p = one_pass()
        except Exception:  # a program fault fails this pass, the run goes on
            failed += w.arrivals
            problems.append(traceback.format_exc(limit=-3))
            continue
        first = first or p.fingerprint
        found = w.check(p.outputs)
        if p.fingerprint != first:
            found.append("outputs differ from the run's first pass")
        p.outputs = None
        if found:
            failed += w.arrivals
            problems += found[:5]
        else:
            on_pass(p)
        del p  # the next pass's peak memory holds no outputs of this one
    return attempted, failed, problems


def end_to_end(w, seconds: float):
    """Every pass repeats the same intervals (rule steps, the gaps between
    them, reference optimum, trials and report), so the run keeps, for each
    interval, the shortest time any pass took for it.  Other load on the
    machine only ever lengthens an interval, and on a shared machine it
    comes and goes for seconds at a time; the per-interval minimum over the
    run's passes removes it and keeps the program's own cost, including
    anything the program does on every pass, such as garbage collection."""
    setup, runs, rates, trials = [], [], [], []
    best = {}

    def one_pass():
        setup.extend(w.setup_probes())
        return w.run_pass()

    def on_pass(p):
        if not w.probes:
            setup.append(p.setup_s)
        runs.append(p.run_s)
        rates.append(p.arrivals / p.loop_s)
        if p.trials:
            trials.append(p.trials / p.trials_s)
        for key in ("steps", "gaps", "other"):
            now = getattr(p, key)
            best[key] = list(map(min, best[key], now)) if key in best else now
        best["evicted"] = p.evicted

    attempted, failed, problems = run_passes(w, seconds, one_pass, on_pass)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steps = best.get("steps", [])
    loop = sum(steps) + sum(best.get("gaps", []))
    times = sorted(steps)
    gone = sorted(s for s, e in zip(steps, best.get("evicted", [])) if e)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "run_s": loop + sum(best.get("other", [])),
        "arrivals_per_s": len(steps) / loop if loop else 0.0,
        "decision_p50_us": percentile(times, 50) * 1e6,
        "decision_tail_us": percentile(times, w.tail_percentile) * 1e6,
        "evict_p50_us": percentile(gone, 50) * 1e6,
        "peak_rss_mb": peak_mb,
    }
    extra = {
        "passes": len(runs),
        "pass_run_s": runs,
        "pass_arrivals_per_s": rates,
        "setup_samples": len(setup),
        "steps_per_pass": len(steps),
        "evictions_per_pass": len(gone),
        "tail_percentile": w.tail_percentile,
    }
    if trials:
        extra["trials_per_s"] = statistics.median(trials)
    return metrics, attempted, failed, problems, extra


def traced(w, seconds: float, spans_path: Path):
    """One untraced reference pass, then traced passes for ``seconds``."""
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics

    refs = []
    attempted, failed, problems = run_passes(w, 0, w.run_pass, refs.append)
    ref = refs[0] if refs else None
    tracer = Tracer()
    tracer.install()
    w.tracer = tracer
    per_pass, arrivals, loop = [], [], []

    def one_pass():
        tracer.spans = []
        p = w.run_pass()
        if ref and p.fingerprint != ref.fingerprint:
            raise RuntimeError("traced pass decided differently from the untraced pass")
        return p

    def on_pass(p):
        if not per_pass:
            write_spans(tracer.spans, spans_path)
        per_pass.append(layer_metrics(tracer.spans))
        arrivals.append(p.arrivals)
        loop.append(p.loop_s)
        tracer.spans = []

    traced_attempted, traced_failed, found = run_passes(w, seconds, one_pass, on_pass)
    attempted += traced_attempted
    failed += traced_failed
    problems += found
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [m[name] for m in per_pass] or [0]
        if unit in ("count", "bytes") and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(set(values))}")
        metrics[name] = min(values) if unit == "s" else values[0]
    extra = {
        "passes": len(per_pass),
        "untraced_arrivals_per_s": ref.arrivals / ref.loop_s if ref else 0.0,
        "traced_arrivals_per_s": sum(arrivals) / sum(loop) if loop else 0.0,
    }
    return metrics, attempted, failed, problems, extra


def write_spans(spans, path: Path) -> None:
    base = min((s[2] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, t0, t1, parent, payload, cpu in spans:
            fh.write(json.dumps([sid, name, t0 - base, t1 - base, parent, payload, cpu]) + "\n")


def measure(args) -> dict:
    import workloads
    from spans import PER_LAYER_UNITS

    rec = workloads.Recorder()
    rec.install()
    w = workloads.WORKLOADS[args.workload](args.seed, str(OUT / "work" / args.workload),
                                           args.tiny, rec)
    w.prepare()
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, attempted, failed, problems, extra = traced(
            w, args.seconds, OUT / f"spans-{tag}.jsonl")
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failed, problems, extra = end_to_end(w, args.seconds)
        units = E2E_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, problems=problems, details=extra,
                  environment=environment())
    with open(OUT / f"result-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", choices=["hardness-k200", "exchange-partition",
                                          "randomized-small"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "subfree" / "__init__.py").is_file():
        print(f"error: no subfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
