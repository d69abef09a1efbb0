"""gaugekit benchmark: CLI job latency on the partition, certify and extremum
workloads, with an optional traced run for per-layer numbers.

Usage (from the repository root):

    python3 benchmarks/run.py --workload partition --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

One process, one client, no threads: each job is an in-process call of
``gaugekit.cli.main(argv)`` that starts only after the previous one has
returned (a closed loop).  Jobs come in fixed cycles (see ``jobs.py``);
whole cycles run until ``--seconds`` of job time have passed and at least
``MIN_JOBS`` jobs are done, so p90 has ten samples beyond it.  Every
job's exit code and answer are checked after its timer stops.

Times are scaled to a reference machine speed.  On a shared 2-core
machine the same cycle of jobs ran anywhere from 0.7 s to 1.6 s within
minutes, while the ratio of job time to a fixed pure-Python kernel stayed
within a few percent.  So a fixed calibration kernel
(``calibrate``) runs just before and just after every job, outside its
timer, and the job's time is reported as
``measured * CALIBRATION_NOMINAL_S / (mean kernel time)``: milliseconds at
the speed where the kernel takes ``CALIBRATION_NOMINAL_S``.  Set-up probes
are scaled the same way.  The raw wall-clock figures are printed beside
them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs
untraced first, then traces the first cycles that hold ``MIN_JOBS`` jobs,
reports the per-layer metrics and the tracing overhead, and checks that
every job's deterministic counts repeat exactly when its first cycle runs
a second time.  Human-readable lines go first; the last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("partition", "certify", "extremum")
MIN_JOBS = 100          # p90 then has at least ten samples beyond it
SETUP_PROBES = 9        # fresh interpreters timed for setup_s
IMPORT_PROBES = 5       # fresh interpreters run with -X importtime
CALIBRATION_NOMINAL_S = 0.0025   # kernel time that defines the reference speed


@dataclass
class Record:
    cycle: int
    argv: list
    code: int
    seconds: float          # scaled to the reference speed
    wall: float             # as measured
    wrong: list
    items: int
    inexact: int
    counts: dict


def _import_program():
    """Import gaugekit from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import gaugekit.cli
    except ImportError as e:
        sys.exit(f"benchmark: cannot import gaugekit from {SRC}: {e}")
    if Path(gaugekit.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"benchmark: gaugekit imported from {gaugekit.cli.__file__}, not {SRC}")
    return gaugekit.cli


def calibrate() -> float:
    """Seconds taken by a fixed kernel of the kinds of work the program does:
    float math, small dicts in a list, a JSON round trip."""
    t0 = time.perf_counter()
    rows, x = [], 0.1
    for _ in range(600):
        x += 1e-4 * math.sin(x)
        rows.append({"lo": x, "hi": x + 1e-4, "tag": x})
    json.loads(json.dumps(rows))
    return time.perf_counter() - t0


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Set-up state of one workload: files on disk, references, job cycles."""

    def __init__(self, name: str, seed: int, workdir: str, cli):
        from gaugekit import expr
        from gaugekit.intervals import Interval

        self.name, self.seed, self.cli = name, seed, cli
        setup, self._cycle = jobs.WORKLOADS[name]
        self.files = setup(self._rng("setup"), workdir, lambda argv: run_cli(cli, argv))
        # the job's Lipschitz constant, as the CLI derives it when no
        # --lipschitz is given; computed here so judging calls no program code
        lipschitz = {f.name: expr.lipschitz_bound(expr.parse(f.text), Interval(f.lo, f.hi))
                     for f in jobs.FUNCTIONS.values()}
        self.refs = jobs.References(lipschitz)
        self.cycles: dict[int, list] = {}
        self.cycle(0)

    def _rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def cycle(self, index: int):
        if index not in self.cycles:
            self.cycles[index] = self._cycle(self._rng(index), self.files)
        return self.cycles[index]


def run_pass(wl: Workload, seconds: float, cycles: int | None = None, tracer=None) -> list[Record]:
    """Run whole cycles until ``seconds`` of job time and ``MIN_JOBS`` jobs
    (or exactly ``cycles`` cycles, when given)."""
    records: list[Record] = []
    elapsed, index = 0.0, 0
    while (index < cycles) if cycles is not None else (elapsed < seconds or len(records) < MIN_JOBS):
        for job in wl.cycle(index):
            gc.collect()
            if tracer is not None:
                tracer.job = len(records)
            before = calibrate()
            t0 = time.perf_counter()
            code, out, _ = run_cli(wl.cli, job.argv)
            dt = time.perf_counter() - t0
            scale = CALIBRATION_NOMINAL_S / ((before + calibrate()) / 2)
            verdict = jobs.judge(job, code, out, wl.refs)
            records.append(Record(index, job.argv, code, dt * scale, dt, verdict.wrong,
                                  verdict.items, verdict.inexact, verdict.counts))
            elapsed += dt
            del out
        index += 1
    return records


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter start until the first job is ready, per probe,
    scaled to the reference speed."""
    samples = []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append((t1 - t0) * CALIBRATION_NOMINAL_S / ((before + calibrate()) / 2))
    return samples


def import_ms() -> dict[str, float]:
    """Median self time of each gaugekit module from ``-X importtime``."""
    runs: dict[str, list[float]] = {}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gaugekit.cli"],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        total = 0.0
        for line in proc.stderr.splitlines():
            parts = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name != "gaugekit" and not name.startswith("gaugekit."):
                continue
            runs.setdefault(f"import.{name}.ms", []).append(int(parts[0]) / 1e3)
            if parts[2][1:2] != " ":        # not nested: cumulative covers its imports
                total += int(parts[1]) / 1e3
        runs.setdefault("import.total.ms", []).append(total)
    return {k: statistics.median(v) for k, v in runs.items()}


def summarize(records: list[Record]) -> dict:
    lat = [r.seconds * 1e3 for r in records]
    failed = [r for r in records if r.wrong]
    items = sum(r.items for r in records)
    by_cycle: dict[int, list[Record]] = {}
    for r in records:
        by_cycle.setdefault(r.cycle, []).append(r)
    return {
        "n": len(records),
        "job_time_s": sum(r.seconds for r in records),
        "jobs_per_s": statistics.median(
            len(c) / sum(r.seconds for r in c) for c in by_cycle.values()),
        "cycles": len(by_cycle),
        "job_ms_p50": nearest_rank(lat, 0.50),
        "job_ms_p90": nearest_rank(lat, 0.90),
        "beyond_p90": sum(1 for x in lat if x > nearest_rank(lat, 0.90)),
        "failed": failed,
        "items": items,
        "inexact": sum(r.inexact for r in records),
        "output_bytes": sum(r.counts.get("output_bytes", 0) for r in records),
        "wall": (f"jobs_per_s {len(records) / sum(r.wall for r in records):.4f}, "
                 f"p50 {nearest_rank([r.wall * 1e3 for r in records], 0.5):.4f} ms, "
                 f"p90 {nearest_rank([r.wall * 1e3 for r in records], 0.9):.4f} ms"),
    }


def print_failures(failed: list[Record]):
    for r in failed[:20]:
        print(f"  FAILED exit {r.code}: {' '.join(r.argv)}")
        for why in r.wrong[:3]:
            print(f"      {why}")
    if len(failed) > 20:
        print(f"  ... and {len(failed) - 20} more failed jobs")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    cli = _import_program()
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = Workload(args.workload, args.seed, workdir, cli)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl: Workload) -> int:
    setup = [] if args.trace else setup_seconds(wl.name, wl.seed)
    records = run_pass(wl, args.seconds)
    s = summarize(records)
    failed = s["failed"]
    print(f"{wl.name}: seed {wl.seed}, closed loop, 1 client, {s['n']} jobs in "
          f"{s['job_time_s']:.2f} s of job time at reference speed")
    print(f"  as measured, unscaled: {s['wall']}")
    if args.trace:
        values, counts_ok = traced_metrics(args, wl, records)
        bases = {}
        table = metrics.LAYERS
    else:
        counts_ok = True
        values = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": s["jobs_per_s"],
            "job_ms_p50": s["job_ms_p50"],
            "job_ms_p90": s["job_ms_p90"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        bases = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "jobs_per_s": f"median over {s['cycles']} cycles, n={s['n']} jobs",
            "job_ms_p50": f"n={s['n']} jobs",
            "job_ms_p90": f"n={s['n']} jobs, {s['beyond_p90']} beyond p90",
            "peak_rss_mb": "1 process",
        }
        table = metrics.END_TO_END
    # answer quality is printed on every run; it is a per-layer metric in
    # BENCHMARK.json because it can be 0 (see metrics.LAYERS)
    values["fail_ratio"] = len(failed) / s["n"]
    bases["fail_ratio"] = f"{len(failed)} of {s['n']} jobs"
    values["inexact_ratio"] = s["inexact"] / s["items"] if s["items"] else 0.0
    bases["inexact_ratio"] = f"{s['inexact']} of {s['items']} emitted cells+pieces"
    for key in dict.fromkeys([*table, "fail_ratio", "inexact_ratio"]):
        unit = (table.get(key) or metrics.LAYERS[key])[0]
        print(f"  {key:<44} {values[key]:14.6g} {unit:<5} {bases.get(key, '')}")
    print_failures(failed)
    print(json.dumps({"correct": not failed and counts_ok, "attempted": s["n"],
                      "failed": len(failed),
                      "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table}}))
    return 0


def traced_metrics(args, wl: Workload, untraced: list[Record]):
    """Per-layer values from a traced pass over the first cycles the
    untraced pass ran, and whether each job's deterministic counts repeat
    exactly."""
    import tracing
    # a fixed number of cycles, so per-layer counts repeat across runs
    cycles, jobs_in = 0, 0
    while jobs_in < MIN_JOBS:
        jobs_in += len(wl.cycle(cycles))
        cycles += 1
    baseline = summarize([r for r in untraced if r.cycle < cycles])
    tracer, repeat = tracing.Tracer(), tracing.Tracer()
    tracer.install()
    try:
        records = run_pass(wl, args.seconds, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    repeat.install()
    try:
        again = run_pass(wl, args.seconds, cycles=1, tracer=repeat)
    finally:
        repeat.uninstall()

    first, second = tracer.job_counts(), repeat.job_counts()
    mismatched = []
    for i, rec in enumerate(again):
        a = dict(first.get(i, {}), **records[i].counts, items=records[i].items)
        b = dict(second.get(i, {}), **rec.counts, items=rec.items)
        if a != b or (untraced[i].counts, untraced[i].items) != (rec.counts, rec.items):
            mismatched.append((rec.argv, a, b))

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{wl.name}-seed{wl.seed}.tsv"
    tracer.write(str(span_path))

    values = tracing.layer_metrics(tracer, len(records))
    values["cli.output_bytes"] = baseline["output_bytes"] / baseline["n"]
    imports = import_ms()
    for key in metrics.LAYERS:
        if key.startswith("import."):
            values[key] = imports.get(key, 0.0)
    traced_rate = summarize(records)["jobs_per_s"]
    values["trace.overhead_jobs_per_s"] = traced_rate - baseline["jobs_per_s"]
    print(f"  traced pass: {cycles} cycles, {len(records)} jobs, {len(tracer.spans)} spans "
          f"written to {span_path.relative_to(ROOT)}")
    print(f"  jobs_per_s over those cycles: untraced {baseline['jobs_per_s']:.4f} 1/s, "
          f"traced {traced_rate:.4f} 1/s")
    print(f"  deterministic counts of the {len(again)} jobs of cycle 0 repeat exactly: "
          f"{'yes' if not mismatched else 'NO'}")
    for argv, a, b in mismatched[:5]:
        print(f"    differs: {' '.join(argv)}\n      {a}\n      {b}")
    return values, not mismatched


def run_all(args) -> int:
    """Run every workload, each in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
