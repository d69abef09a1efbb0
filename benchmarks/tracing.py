"""Traced runs: spans around the public functions of each gaugekit module.

``Tracer.install()`` replaces every public function of ``intervals``,
``cousin``, ``induction``, ``analysis`` and ``expr`` (plus ``cli.main``
and the ``json`` functions the CLI and the partition reader call) with a
wrapper that records a span: name, start, end, parent span and job id.
Spans stay in memory; ``write`` dumps them when the run ends and
``layer_metrics`` derives every per-layer number from them.  A nested call
of the same function inside itself (``evaluate`` recursing over its AST)
is part of the outer span, so counts are of top-level calls.

Three call sites run tens of thousands of times per job and would cost
more as individual spans than the work they measure, so they are
aggregated into their enclosing span instead: top-level ``expr.evaluate``
calls, the oracle's ``right``/``left`` steps inside ``run_induction``, and
``Gauge.__call__`` (counted, not timed).  Each span keeps the time spent
in those aggregated children (``leaf_s``) and their counts, so self time
is still ``duration - child spans - leaf_s``.

Untraced runs never call ``install``: the program runs unmodified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

MODULES = ("intervals", "cousin", "induction", "analysis", "expr")

# span record fields
NAME, START, END, PARENT, JOB, LEAF_S, INFO = range(7)


def _size(obj) -> int | None:
    for attr in ("cells", "pieces", "cells_so_far"):
        value = getattr(obj, attr, None)
        if isinstance(value, tuple):
            return len(value)
    return None


def _untraced_recursion(fn):
    """A copy of ``fn`` whose calls to its own name reach the copy, not the
    traced wrapper, so recursion over an AST pays no tracing cost."""
    env = dict(fn.__globals__)
    copy = types.FunctionType(fn.__code__, env, fn.__name__, fn.__defaults__, fn.__closure__)
    env[fn.__name__] = copy
    return copy


class Tracer:
    """Span recorder for one traced pass; ``install`` patches, ``uninstall``
    restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []        # indices of open spans, innermost last
        self.frames: list[list] = []     # aggregated-leaf time accumulators
        self.job = -1
        self.in_gauge = 0
        self.leaf_stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self._patches: list[tuple[object, str, object]] = []

    # --- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.open[-1] if self.open else -1, self.job, 0.0, {}]
        self.open.append(len(self.spans))
        self.spans.append(rec)
        self.frames.append([0.0])
        return rec

    def _exit(self, rec: list):
        rec[END] = perf_counter()
        rec[LEAF_S] = self.frames.pop()[0]
        self.open.pop()

    def _count(self, key: str, n: int = 1):
        if self.open:
            info = self.spans[self.open[-1]][INFO]
            info[key] = info.get(key, 0) + n

    def span(self, name: str, fn, describe=None):
        """Wrap ``fn`` so each top-level call records a span; ``describe(args)``
        may add argument facts to the span's info."""
        active = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            rec = self._enter(name)
            if describe is not None:
                rec[INFO].update(describe(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[INFO]["raised"] = type(e).__name__
                raise
            else:
                rec[INFO]["result"] = type(result).__name__
                n = _size(result)
                if n is None and args:
                    n = _size(args[0])
                if n is not None:
                    rec[INFO]["n"] = n
                return result
            finally:
                self._exit(rec)
                active = False
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot callable: time and count it into the enclosing span."""
        active = False
        stats = self.leaf_stats[name]

        def wrapper(*args, **kwargs):
            nonlocal active
            if active or not self.open:
                return fn(*args, **kwargs)
            active = True
            acc = [0.0]
            self.frames.append(acc)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.frames.pop()
                self.frames[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - acc[0]
                self._count(name)
                if name == "expr.evaluate" and not self.in_gauge:
                    self._count("f_eval")
                active = False
        return wrapper

    # --- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        from gaugekit import cli, intervals
        from gaugekit.induction import LocalOracle

        package = [m for n, m in sys.modules.items() if n == "gaugekit" or n.startswith("gaugekit.")]
        replacements = {}
        for short in MODULES:
            mod = sys.modules[f"gaugekit.{short}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                if short == "expr" and name == "evaluate":
                    replacements[obj] = self.leaf("expr.evaluate", _untraced_recursion(obj))
                elif short == "induction" and name == "run_induction":
                    replacements[obj] = self._run_induction(obj, LocalOracle)
                elif short == "cousin" and name == "fine_partition":
                    replacements[obj] = self.span(
                        "cousin.fine_partition", obj,
                        lambda args: {"strategy": args[2].kind.value} if len(args) > 2 else {})
                else:
                    replacements[obj] = self.span(f"{short}.{name}", obj)
        replacements[cli.main] = self.span("cli.main", cli.main)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, name, replacements[obj])

        traced_json = types.ModuleType("json")
        traced_json.__dict__.update(json.__dict__)
        traced_json.dumps = self.span("json.dumps", json.dumps)
        traced_json.loads = self.span("json.loads", json.loads)
        for mod in (cli, intervals):
            self._patch(mod, "json", traced_json)

        call = intervals.Gauge.__call__

        def gauge_call(g, x):
            self.in_gauge += 1
            try:
                return call(g, x)
            finally:
                self.in_gauge -= 1
                self._count("gauge")
        self._patch(intervals.Gauge, "__call__", gauge_call)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _run_induction(self, fn, local_oracle):
        """Span plus counts: oracle calls (as aggregated leaves) and committed
        steps (the engine appends one ``(s, t)`` per commit to ``trace``)."""

        @functools.wraps(fn)
        def wrapper(oracle, dom, *args, trace=None, **kwargs):
            steps = trace if trace is not None else []
            before = len(steps)
            counted = local_oracle(self.leaf("oracle.right", oracle.right), oracle.combine,
                                   self.leaf("oracle.left", oracle.left) if oracle.left else None)
            rec = self._enter("induction.run_induction")
            try:
                result = fn(counted, dom, *args, trace=steps, **kwargs)
                rec[INFO]["result"] = type(result).__name__
                return result
            finally:
                rec[INFO]["steps"] = len(steps) - before
                self._exit(rec)
        return wrapper

    # --- results --------------------------------------------------------------

    def write(self, path: str):
        """One span per line, times in seconds from the first span's start."""
        with open(path, "w") as fh:
            fh.write("# index\tname\tstart_s\tend_s\tparent\tjob\tleaf_s\tinfo\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, rec in enumerate(self.spans):
                fh.write(f"{i}\t{rec[NAME]}\t{rec[START] - t0:.9f}\t{rec[END] - t0:.9f}\t"
                         f"{rec[PARENT]}\t{rec[JOB]}\t{rec[LEAF_S]:.9f}\t"
                         f"{json.dumps(rec[INFO], sort_keys=True)}\n")

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[i] - rec[LEAF_S]
                for i, rec in enumerate(self.spans)]

    def job_counts(self) -> dict[int, dict]:
        """Deterministic counts per job, summed over that job's spans."""
        out: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        for rec in self.spans:
            counts = out[rec[JOB]]
            info = rec[INFO]
            for key in ("expr.evaluate", "f_eval", "gauge", "oracle.right", "oracle.left", "steps"):
                counts[key] += info.get(key, 0)
            if rec[NAME] == "analysis.bound_certificate":
                counts["probes"] += 1
            if rec[NAME] in ("cousin.fine_partition", "analysis.bound_certificate",
                             "analysis.no_root_certificate") and "n" in rec[INFO]:
                counts["built"] += rec[INFO]["n"]
        return {job: dict(c) for job, c in out.items()}


def layer_metrics(tr: Tracer, jobs: int) -> dict[str, float]:
    """Every per-layer metric, from the spans of a traced pass of ``jobs`` jobs."""
    spans = tr.spans
    self_s = tr.self_times()
    children: dict[int, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        children[rec[PARENT]].append(i)

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def n_of(name):
        return sum(spans[i][INFO].get("n", 0) for i in by_name[name])

    def subtree(i, key):
        stack, acc = [i], 0
        while stack:
            k = stack.pop()
            acc += spans[k][INFO].get(key, 0)
            stack.extend(children[k])
        return acc

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def info_sum(key):
        return sum(rec[INFO].get(key, 0) for rec in spans)

    m: dict[str, float] = {}
    m["cli.self_ms"] = ratio(sum(self_s[i] for i in by_name["cli.main"]), jobs, 1e3)
    m["cli.encode_ms"] = ratio(total("json.dumps"), jobs, 1e3)
    m["cli.decode_ms"] = ratio(total("json.loads"), jobs, 1e3)

    for name in ("validate_partition", "is_delta_fine", "partition_from_json"):
        key = f"intervals.{name}"
        m[f"{key}.ns_per_cell"] = ratio(total(key), n_of(key), 1e9)
    m["intervals.gauge_evals"] = ratio(info_sum("gauge"), jobs)

    m["cousin.creep_partition.ms"] = ratio(total("cousin.creep_partition"),
                                           calls("cousin.creep_partition"), 1e3)
    m["cousin.bisect_partition.ms"] = ratio(total("cousin.bisect_partition"),
                                            calls("cousin.bisect_partition"), 1e3)
    emitted = sum(spans[i][INFO].get("n", 0) for i in by_name["cousin.fine_partition"]
                  if spans[i][INFO].get("result") == "TaggedPartition")
    m["cousin.cells"] = ratio(emitted, calls("cousin.fine_partition"))
    m["cousin.ns_per_cell"] = ratio(total("cousin.fine_partition"), emitted, 1e9)
    useful = built = 0
    for i in by_name["cousin.fine_partition"]:
        if spans[i][INFO].get("strategy") != "hybrid":
            continue
        built += sum(spans[k][INFO].get("n", 0) for k in children[i])
        if spans[i][INFO].get("result") == "TaggedPartition":
            useful += spans[i][INFO].get("n", 0)
    m["cousin.hybrid_useful_ratio"] = ratio(useful, built)

    oracle_calls = tr.leaf_stats["oracle.right"][0] + tr.leaf_stats["oracle.left"][0]
    run_ind = by_name["induction.run_induction"]
    steps = sum(spans[i][INFO].get("steps", 0) for i in run_ind)
    m["induction.run_induction.calls"] = ratio(len(run_ind), jobs)
    m["induction.steps"] = ratio(steps, jobs)
    m["induction.oracle_calls"] = ratio(oracle_calls, jobs)
    m["induction.self_us_per_step"] = ratio(sum(self_s[i] for i in run_ind), oracle_calls, 1e6)
    m["induction.committed_ratio"] = ratio(steps, oracle_calls)

    m["analysis.f_evals"] = ratio(info_sum("f_eval"), jobs)
    m["analysis.pieces"] = ratio(n_of("analysis.bound_certificate")
                                 + n_of("analysis.no_root_certificate"), jobs)
    oracle_self = tr.leaf_stats["oracle.right"][2] + tr.leaf_stats["oracle.left"][2]
    m["analysis.oracle_self_us_per_step"] = ratio(oracle_self, oracle_calls, 1e6)
    searches = by_name["analysis.approx_sup"]
    outcomes = {"certified": 0, "stalled": 0, "violated": 0}
    probes = probe_evals = 0
    for i in searches:
        for k in children[i]:
            if spans[k][NAME] != "analysis.bound_certificate":
                continue
            probes += 1
            probe_evals += subtree(k, "f_eval")
            info = spans[k][INFO]
            if info.get("result") == "BoundCertificate":
                outcomes["certified"] += 1
            elif info.get("result") == "StallNearMax":
                outcomes["stalled"] += 1
            else:
                outcomes["violated"] += 1
    m["analysis.approx_sup.probes"] = ratio(probes, len(searches))
    for outcome, count in outcomes.items():
        m[f"analysis.probe_outcomes.{outcome}"] = ratio(count, len(searches))
    m["analysis.f_evals_per_probe"] = ratio(probe_evals, probes)
    verify = by_name["analysis.verify_bound_certificate"] + by_name["analysis.verify_sign_certificate"]
    m["analysis.verify.us_per_piece"] = ratio(sum(dur(i) for i in verify),
                                              sum(spans[i][INFO].get("n", 0) for i in verify), 1e6)

    ev = tr.leaf_stats["expr.evaluate"]
    m["expr.evaluate.calls"] = ratio(ev[0], jobs)
    m["expr.evaluate.us_per_call"] = ratio(ev[1], ev[0], 1e6)
    m["expr.eval_interval.calls"] = ratio(calls("expr.eval_interval"), jobs)
    m["expr.eval_interval.us_per_call"] = ratio(total("expr.eval_interval"),
                                                calls("expr.eval_interval"), 1e6)
    m["expr.lipschitz_bound.ms"] = ratio(total("expr.lipschitz_bound"),
                                         calls("expr.lipschitz_bound"), 1e3)
    m["expr.parse.us"] = ratio(total("expr.parse"), calls("expr.parse"), 1e6)
    return m
