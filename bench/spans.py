"""Span tracing of subfree's layers, installed from outside the package.

Every wrapper replaces a public function or method in place: module-level
functions are rebound in every ``subfree`` module that imported them, and
methods are replaced on their own class, so the concrete types that the
rules test with ``isinstance`` stay the same and the fast paths
(``interacts``, ``accumulator()``) still run.

A span is ``(id, name, start, end, parent, payload, cpu)``: wall-clock
start and end, and the CPU time of the thread that ran it.  Spans are kept
in memory and turned into per-layer metrics by ``layer_metrics``.  A
layer's self time is its spans' CPU time minus that of their child spans.
CPU time rather than wall time, because the randomized rules run their
trials on a thread pool: a span on a worker thread would otherwise count
the time it waits for the interpreter lock while another worker runs.  The
trials phase itself is timed with the CPU time of the whole process, so its
self time is the pool's own work on every thread.

Hot wrappers (value, marginal, interacts, independence, accumulator
marginals) record nothing while a bulk span (a soft or thinned extension,
the brute-force prefix optimum) is open on the same thread: those layers
enumerate up to 2^15 subsets per call, and their inner calls are reported
as the subset counts carried in the bulk span's payload.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from contextlib import contextmanager
from time import perf_counter, process_time, thread_time


def rebind_everywhere(old, new) -> None:
    """Replace every binding of ``old`` in the loaded subfree modules."""
    for name, mod in list(sys.modules.items()):
        if name != "subfree" and not name.startswith("subfree."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # parent of spans opened on a thread whose own stack is empty
        self.phase = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.quiet = 0
        return local

    def wrap(self, name, fn, *, hot=False, bulk=False, payload=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            if hot and local.quiet:
                return fn(*args, **kwargs)
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.phase
            stack.append(sid)
            local.quiet += bulk
            t0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = thread_time(), perf_counter()
                stack.pop()
                local.quiet -= bulk
            tracer.spans.append(
                (sid, name, t0, t1, parent, payload(args, result) if payload else None, c1 - c0)
            )
            return result

        return traced

    @contextmanager
    def span(self, name, *, phase=False):
        """A span around a block; with ``phase`` it also parents the spans
        that worker threads open while the block runs, and takes the CPU
        time of the whole process."""
        local = self._state()
        stack = local.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else self.phase
        stack.append(sid)
        outer_phase = self.phase
        if phase:
            self.phase = sid
        clock = process_time if phase else thread_time
        t0, c0 = perf_counter(), clock()
        try:
            yield
        finally:
            c1, t1 = clock(), perf_counter()
            stack.pop()
            self.phase = outer_phase
            self.spans.append((sid, name, t0, t1, parent, None, c1 - c0))

    # -- installation ------------------------------------------------------

    def patch_function(self, module, attr, name, **kw):
        old = getattr(module, attr)
        rebind_everywhere(old, self.wrap(name, old, **kw))

    def patch_method(self, cls, attr, name, **kw):
        old = cls.__dict__[attr]
        if isinstance(old, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, old.__func__, **kw)))
        else:
            setattr(cls, attr, self.wrap(name, old, **kw))

    def install(self):
        """Wrap every layer boundary of subfree; call once per process."""
        from subfree import adversaries, algorithms, cli, fractional, matroid, objective, oracle
        from subfree import tracker

        def own_subclasses(base, attr):
            seen, todo = [], [base]
            while todo:
                cls = todo.pop()
                if attr in cls.__dict__:
                    seen.append(cls)
                todo.extend(cls.__subclasses__())
            return seen

        # objective
        for cls in own_subclasses(objective.Objective, "value"):
            self.patch_method(cls, "value", "objective.value", hot=True)
        self.patch_method(objective.Objective, "marginal", "objective.marginal", hot=True)
        for cls in own_subclasses(objective.Objective, "interacts"):
            self.patch_method(cls, "interacts", "objective.interacts", hot=True,
                              payload=lambda a, r: bool(r))
        for cls in own_subclasses(objective.Objective, "accumulator"):
            self._patch_accumulator(cls)
        support = lambda s: sum(1 for m in s.values() if m > 0)
        self.patch_function(objective, "soft_value", "objective.soft", bulk=True,
                            payload=lambda a, r: ("value", 2 ** support(a[1])))
        self.patch_function(
            objective, "soft_marginal_rate", "objective.soft", bulk=True,
            payload=lambda a, r: ("rate", 2 * 2 ** (support(a[2]) - (a[2].get(a[1], 0) > 0))),
        )
        self.patch_function(objective, "sampled_value_p", "objective.thinned", bulk=True,
                            payload=lambda a, r: 2 ** len(frozenset(a[1])))
        # matroid
        for cls in own_subclasses(matroid.Matroid, "is_independent"):
            if cls is not matroid.Matroid:
                self.patch_method(cls, "is_independent", "matroid.is_independent", hot=True)
        self.patch_method(matroid.Matroid, "exchange_set", "matroid.exchange_set")
        self.patch_method(matroid.Matroid, "enumerate_independent_sets", "oracle.enumerate",
                          payload=lambda a, r: len(r))
        # tracker
        self._patch_accept(tracker.OnlineState)
        self.patch_method(tracker.OnlineState, "min_member", "tracker.min_member")
        self.patch_method(tracker.OnlineState, "w_arrival_over_S", "tracker.w_arrival_over_S")
        # algorithms
        decision = lambda a, r: (r.accepted, r.evicted is not None)
        for fn in ("step_k_uniform", "step_general_matroid"):
            self.patch_function(algorithms, fn, "algorithms.step", payload=decision)
        for cls in (algorithms.NonmonotoneGeneralRun, algorithms.NonmonotoneUniformRun):
            self.patch_method(cls, "step", "algorithms.step", payload=decision)
            self.patch_method(cls, "expected_feasible_value", "algorithms.expected_value")
        # fractional
        self.patch_method(
            fractional.FractionalState, "step", "fractional.step",
            payload=lambda a, r: (sum(e["event"] == "unit" for e in r),
                                  sum(e["event"] == "drain" for e in r)),
        )
        self.patch_method(fractional.FractionalState, "round_online", "fractional.round",
                          payload=lambda a, r: 1)
        self.patch_method(fractional.FractionalState, "round_with_seed", "fractional.round")
        # adversaries
        for cls in own_subclasses(adversaries.AdversaryDriver, "next_element"):
            if cls is not adversaries.AdversaryDriver:
                self.patch_method(cls, "next_element", "adversaries.next_element")
        self.patch_function(adversaries, "run_adversary", "adversaries.loop")
        # oracle
        self.patch_function(oracle, "prefix_optima", "oracle.prefix_optima", bulk=True)
        # cli
        self.patch_method(cli.Instance, "load", "cli.load",
                          payload=lambda a, r: os.path.getsize(a[1]))
        self.patch_function(cli, "canonical_dumps", "cli.report",
                            payload=lambda a, r: len(r.encode()) + 1)
        cli.ThreadPoolExecutor = self._trials_pool(cli.ThreadPoolExecutor)

    def _patch_accumulator(self, cls):
        make = cls.__dict__["accumulator"]
        tracer = self

        @functools.wraps(make)
        def accumulator(objective_self):
            acc = make(objective_self)
            acc.marginal = tracer.wrap("objective.acc_marginal", acc.marginal, hot=True)
            return acc

        cls.accumulator = accumulator

    def _patch_accept(self, cls):
        """Accept spans carry how many refreshed current weights changed."""
        local = threading.local()

        def changed(args, result):
            st = args[0]
            return sum(st.w_S(v) != w for v, w in local.before.items())

        span = self.wrap("tracker.accept", cls.__dict__["accept"], payload=changed)

        @functools.wraps(span)
        def accept(st, u, evict=None):
            # cached current weights of the members an eviction may refresh
            local.before = {} if evict is None else {
                v: st.w_S(v) for v in st.feasible if v != evict
            }
            return span(st, u, evict=evict)

        cls.accept = accept

    def _trials_pool(self, pool_cls):
        tracer = self

        class TracedPool(pool_cls):
            """The trials phase: a span that parents its workers' spans."""

            def __enter__(self):
                self._bench_span = tracer.span("cli.trials", phase=True)
                self._bench_span.__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    self._bench_span.__exit__(None, None, None)

        return TracedPool


# name -> unit, in the order the per-layer metrics are reported
PER_LAYER_UNITS = {
    "objective.acc_marginal_calls": "count",
    "objective.acc_marginal_s": "s",
    "objective.value_calls": "count",
    "objective.value_s": "s",
    "objective.marginal_calls": "count",
    "objective.marginal_s": "s",
    "objective.interacts_calls": "count",
    "objective.interacts_true_ratio": "ratio",
    "objective.soft_calls": "count",
    "objective.soft_subsets": "count",
    "objective.soft_s": "s",
    "objective.thinned_subsets": "count",
    "objective.thinned_s": "s",
    "matroid.is_independent_calls": "count",
    "matroid.is_independent_s": "s",
    "matroid.exchange_set_calls": "count",
    "matroid.exchange_set_s": "s",
    "matroid.exchange_evict_ratio": "ratio",
    "tracker.accept_calls": "count",
    "tracker.accept_self_s": "s",
    "tracker.refresh_recomputed": "count",
    "tracker.refresh_changed_ratio": "ratio",
    "tracker.min_member_s": "s",
    "tracker.w_arrival_over_S_calls": "count",
    "tracker.w_arrival_over_S_s": "s",
    "algorithms.step_calls": "count",
    "algorithms.accepts": "count",
    "algorithms.evictions": "count",
    "algorithms.step_self_s": "s",
    "algorithms.expected_value_s": "s",
    "fractional.step_self_s": "s",
    "fractional.units_added": "count",
    "fractional.units_drained": "count",
    "fractional.rate_calls": "count",
    "fractional.round_calls": "count",
    "fractional.round_s": "s",
    "adversaries.next_element_calls": "count",
    "adversaries.next_element_s": "s",
    "adversaries.loop_self_s": "s",
    "oracle.prefix_optima_s": "s",
    "oracle.sets_enumerated": "count",
    "cli.load_s": "s",
    "cli.instance_bytes": "bytes",
    "cli.report_s": "s",
    "cli.report_bytes": "bytes",
    "cli.trials_self_s": "s",
}


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times of one pass's spans."""
    by_id = {s[0]: s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s)
    calls, self_s, payloads = {}, {}, {}
    own = {}
    for s in spans:
        sid, name = s[:2]
        own[sid] = s[6] - sum(k[6] for k in kids.get(sid, ()))
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        payloads.setdefault(name, []).append(s)

    def of(name):
        return payloads.get(name, [])

    def ratio(num, den):
        return num / den if den else 0.0

    def under_main(s):
        while s is not None:
            if s[1] == "cli.main":
                return True
            s = by_id.get(s[4])
        return False

    step_evicted = {s[0] for s in of("algorithms.step") if s[5][1]}
    exchange = of("matroid.exchange_set")
    recomputed = changed = 0
    for s in of("tracker.accept"):
        recomputed += sum(k[1] == "objective.marginal" for k in kids.get(s[0], ())) - 1
        changed += s[5]
    reports = [s for s in of("cli.report") if under_main(s)]
    m = {
        "objective.acc_marginal_calls": calls.get("objective.acc_marginal", 0),
        "objective.acc_marginal_s": self_s.get("objective.acc_marginal", 0.0),
        "objective.value_calls": calls.get("objective.value", 0),
        "objective.value_s": self_s.get("objective.value", 0.0),
        "objective.marginal_calls": calls.get("objective.marginal", 0),
        "objective.marginal_s": self_s.get("objective.marginal", 0.0),
        "objective.interacts_calls": calls.get("objective.interacts", 0),
        "objective.interacts_true_ratio": ratio(
            sum(s[5] for s in of("objective.interacts")), calls.get("objective.interacts", 0)
        ),
        "objective.soft_calls": calls.get("objective.soft", 0),
        "objective.soft_subsets": sum(s[5][1] for s in of("objective.soft")),
        "objective.soft_s": self_s.get("objective.soft", 0.0),
        "objective.thinned_subsets": sum(s[5] for s in of("objective.thinned")),
        "objective.thinned_s": self_s.get("objective.thinned", 0.0),
        "matroid.is_independent_calls": calls.get("matroid.is_independent", 0),
        "matroid.is_independent_s": self_s.get("matroid.is_independent", 0.0),
        "matroid.exchange_set_calls": len(exchange),
        "matroid.exchange_set_s": self_s.get("matroid.exchange_set", 0.0),
        "matroid.exchange_evict_ratio": ratio(
            sum(s[4] in step_evicted for s in exchange), len(exchange)
        ),
        "tracker.accept_calls": calls.get("tracker.accept", 0),
        "tracker.accept_self_s": self_s.get("tracker.accept", 0.0),
        "tracker.refresh_recomputed": recomputed,
        "tracker.refresh_changed_ratio": ratio(changed, recomputed),
        "tracker.min_member_s": self_s.get("tracker.min_member", 0.0),
        "tracker.w_arrival_over_S_calls": calls.get("tracker.w_arrival_over_S", 0),
        "tracker.w_arrival_over_S_s": self_s.get("tracker.w_arrival_over_S", 0.0),
        "algorithms.step_calls": calls.get("algorithms.step", 0),
        "algorithms.accepts": sum(s[5][0] for s in of("algorithms.step")),
        "algorithms.evictions": len(step_evicted),
        "algorithms.step_self_s": self_s.get("algorithms.step", 0.0),
        "algorithms.expected_value_s": self_s.get("algorithms.expected_value", 0.0),
        "fractional.step_self_s": self_s.get("fractional.step", 0.0),
        "fractional.units_added": sum(s[5][0] for s in of("fractional.step")),
        "fractional.units_drained": sum(s[5][1] for s in of("fractional.step")),
        "fractional.rate_calls": sum(s[5][0] == "rate" for s in of("objective.soft")),
        "fractional.round_calls": sum(s[5] == 1 for s in of("fractional.round")),
        "fractional.round_s": self_s.get("fractional.round", 0.0),
        "adversaries.next_element_calls": sum(
            by_id.get(s[4], (0, ""))[1] != "adversaries.next_element"
            for s in of("adversaries.next_element")
        ),
        "adversaries.next_element_s": self_s.get("adversaries.next_element", 0.0),
        "adversaries.loop_self_s": self_s.get("adversaries.loop", 0.0),
        "oracle.prefix_optima_s": sum((s[6] for s in of("oracle.prefix_optima")), 0.0),
        "oracle.sets_enumerated": sum(s[5] for s in of("oracle.enumerate")),
        "cli.load_s": self_s.get("cli.load", 0.0),
        "cli.instance_bytes": sum(s[5] for s in of("cli.load")),
        "cli.report_s": sum((own[s[0]] for s in reports), 0.0),
        "cli.report_bytes": sum(s[5] for s in reports),
        "cli.trials_self_s": self_s.get("cli.trials", 0.0),
    }
    return m
