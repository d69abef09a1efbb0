"""Workloads: the pools jobs are drawn from, per-seed job generation, the
set-up files, and the benchmark's own judgement of every job's answer.

Each workload is a fixed cycle of job *slots*.  A slot fixes the
subcommand, the pool entry and the size class; the seed draws the
concrete numbers inside the slot (domains, gauge values, bounds, root
targets and tolerances) and the order of the cycle.  So every seed runs
the same mix of work, which keeps medians and tails comparable across
seeds.  The program only ever sees the argv.

Expected exit codes come from the benchmark's references (the pool's
known extrema, plain-``math`` copies of the expressions, the exact
checker), never from running the program.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import exact


@dataclass(frozen=True)
class Function:
    """A pool expression with a plain-``math`` twin that evaluates the same
    binary64 operations in the same order as the program's evaluator."""

    name: str
    text: str
    fn: Callable[[float], float]
    lo: float
    hi: float
    sup: float   # reference extrema on [lo, hi], to 12 significant digits
    inf: float

    @property
    def span(self) -> float:
        return self.sup - self.inf


FUNCTIONS = {f.name: f for f in (
    Function("quad", "x^2-2", lambda x: x ** 2 - 2, 0.0, 2.0, 2.0, -2.0),
    Function("sin", "sin(x)", lambda x: math.sin(x), 0.0, math.pi, 1.0, 0.0),
    Function("xexp", "x*exp(-x)", lambda x: x * math.exp(-x), 0.0, 4.0,
             0.367879441171, 0.0),
    Function("cosx", "cos(3*x)+x/2", lambda x: math.cos(3 * x) + x / 2, -1.5, 1.5,
             1.01392131039, -1.53752008598),
    Function("gauss", "exp(-x^2)*cos(2*x)", lambda x: math.exp(-x ** 2) * math.cos(2 * x),
             -1.5, 1.5, 1.0, -0.177571797743),
    Function("mixed", "sin(x)*exp(-x^2)+log(x+3)/sqrt(x+2)",
             lambda x: math.sin(x) * math.exp(-x ** 2) + math.log(x + 3) / math.sqrt(x + 2),
             -1.0, 2.0, 1.19214459722, 0.335759518428),
)}

# The engine's default progress_eps; a stall frontier p satisfies
# |f(p) - target| < 2 * L * max(progress_eps, ulp(p)).
PROGRESS_EPS = 1e-12


@dataclass
class Job:
    kind: str                      # CLI subcommand
    argv: list[str]
    expect: int | None             # None: decided when judged (check jobs)
    ref: dict = field(default_factory=dict)


@dataclass
class Judgement:
    wrong: list[str]
    items: int = 0                 # emitted cells or pieces
    inexact: int = 0
    counts: dict = field(default_factory=dict)


def _sig(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


def _num(x: float) -> str:
    return repr(float(x))


# --- Gauges -----------------------------------------------------------------

@dataclass(frozen=True)
class GaugeSpec:
    spec: str
    delta: Callable[[float], float]


def _midpoint_integral(h: Callable[[float], float], lo: float, hi: float, n: int = 512) -> float:
    w = (hi - lo) / n
    return w * sum(1.0 / h(lo + (k + 0.5) * w) for k in range(n))


def make_gauge(rng: random.Random, kind: str, lo: float, hi: float, cells: float) -> GaugeSpec:
    """A gauge on [lo, hi] for which greedy creep needs about ``cells`` cells."""
    width = hi - lo
    if kind == "const":
        v = _sig(width / cells)
        return GaugeSpec(f"const:{_num(v)}", lambda x: v)
    if kind == "pw":
        m = rng.randint(3, 6)
        ratios = [math.exp(rng.uniform(math.log(0.7), math.log(1.4))) for _ in range(m)]
        base = sum(width / m / r for r in ratios) / cells
        bps = [lo] + [round(lo + i * width / m, 4) for i in range(1, m)]
        vals = [_sig(base * r) for r in ratios]
        body = ",".join(f"{_num(b)}:{_num(v)}" for b, v in zip(bps, vals))
        return GaugeSpec(f"pw:{body}", exact.piecewise_gauge(bps, vals))
    if kind == "expr-sin":
        w = _sig(rng.uniform(3.0, 9.0), 3)
        c = _sig(_midpoint_integral(lambda x: 1.5 + math.sin(w * x), lo, hi) / cells)
        return GaugeSpec(f"expr:{_num(c)}*(1.5+sin({_num(w)}*x))",
                         lambda x: c * (1.5 + math.sin(w * x)))
    if kind == "expr-quad":
        c = _sig(_midpoint_integral(lambda x: 1 + x ** 2, lo, hi) / cells)
        return GaugeSpec(f"expr:{_num(c)}*(1+x^2)", lambda x: c * (1 + x ** 2))
    raise ValueError(kind)


def scaled(g: GaugeSpec, factor: float) -> GaugeSpec:
    """The same gauge shrunk by ``factor``, as a constant or expression spec."""
    kind, _, body = g.spec.partition(":")
    if kind == "const":
        v = float(body) * factor
        return GaugeSpec(f"const:{_num(v)}", lambda x: v)
    if kind == "expr":
        return GaugeSpec(f"expr:{_num(factor)}*({body})", lambda x: factor * g.delta(x))
    pairs = [chunk.split(":") for chunk in body.split(",")]
    bps = [float(b) for b, _ in pairs]
    vals = [float(v) * factor for _, v in pairs]
    spec = "pw:" + ",".join(f"{_num(b)}:{_num(v)}" for b, v in zip(bps, vals))
    return GaugeSpec(spec, exact.piecewise_gauge(bps, vals))


def _domain(rng: random.Random) -> tuple[float, float]:
    lo = round(rng.uniform(-2.0, 2.0), 3)
    return lo, round(lo + rng.uniform(0.5, 3.0), 3)


# --- partition ----------------------------------------------------------------
#
# (strategy, gauge kind, cells[, capped]).  Bisection of a constant gauge always
# emits a power of two cells, so those slots name the power and place the
# width-to-gauge ratio in the middle of its octave; the capped hybrid slots
# give creep 1.35-1.65x that count against a cap of 1.25x, so creep stalls
# and bisection fits under the cap.

PARTITION_SLOTS = (
    ("creep", "const", 1000, None), ("creep", "const", 3000, None),
    ("creep", "const", 9000, None), ("creep", "const", 100_000, None),
    ("creep", "pw", 1000, None), ("creep", "pw", 1500, None), ("creep", "pw", 3000, None),
    ("creep", "expr-sin", 1200, None), ("creep", "expr-sin", 2000, None),
    ("creep", "expr-quad", 8000, None),
    ("bisect", "const", 2 ** 10, None), ("bisect", "const", 2 ** 12, None),
    ("bisect", "const", 2 ** 13, None),
    ("bisect", "pw", 1500, None), ("bisect", "pw", 2500, None), ("bisect", "pw", 4000, None),
    ("bisect", "expr-sin", 1000, None), ("bisect", "expr-sin", 1200, None),
    ("bisect", "expr-quad", 3000, None),
    ("hybrid", "const", 2500, None), ("hybrid", "pw", 1200, None), ("hybrid", "pw", 3000, None),
    ("hybrid", "expr-sin", 3000, None), ("hybrid", "expr-quad", 1000, None),
    ("hybrid", "const", 2 ** 10, True), ("hybrid", "const", 2 ** 12, True),
)

# Files written during set-up and read back by ``check`` jobs.
CHECK_FILES = (("creep", "const", 3000), ("bisect", "pw", 6000), ("hybrid", "expr-sin", 4000))


def _partition_job(rng: random.Random, strategy: str, kind: str, cells: int,
                   capped: bool = False) -> Job:
    lo, hi = _domain(rng)
    width = hi - lo
    argv_cap: list[str] = []
    if kind == "const" and (strategy == "bisect" or capped):
        # width / (2 * delta) = 0.75 * cells, within +-10%
        v = _sig(width / (1.5 * cells * rng.uniform(0.9, 1.1)))
        gauge = GaugeSpec(f"const:{_num(v)}", lambda x: v)
        if capped:
            argv_cap = ["--max-cells", str(int(1.25 * cells))]
    else:
        gauge = make_gauge(rng, kind, lo, hi, cells * rng.uniform(0.97, 1.03))
    argv = ["partition", "--gauge", gauge.spec, "--interval", _num(lo), _num(hi),
            "--strategy", strategy] + argv_cap
    return Job("partition", argv, 0, {"domain": (lo, hi), "gauge": gauge})


@dataclass
class CheckFile:
    path: str
    gauge: GaugeSpec
    domain: tuple[float, float]


def partition_setup(rng: random.Random, workdir: str, run_cli) -> list[CheckFile]:
    files = []
    for i, (strategy, kind, cells) in enumerate(CHECK_FILES):
        job = _partition_job(rng, strategy, kind, cells)
        path = os.path.join(workdir, f"partition-{i}.json")
        code, _, err = run_cli(job.argv + ["--output", path])
        if code != 0:
            raise RuntimeError(f"set-up partition {job.argv} exited {code}: {err}")
        files.append(CheckFile(path, job.ref["gauge"], job.ref["domain"]))
    return files


def partition_cycle(rng: random.Random, files: list[CheckFile]) -> list[Job]:
    jobs = [_partition_job(rng, *slot) for slot in PARTITION_SLOTS]
    for cf in files:
        # once against the gauge the file was built for (the round trip must
        # hold), once against a gauge shrunk far enough that no cell is fine
        for gauge, round_trip in ((cf.gauge, True), (scaled(cf.gauge, rng.uniform(0.3, 0.45)), False)):
            jobs.append(Job("check", ["check", "--partition", cf.path, "--gauge", gauge.spec],
                            0 if round_trip else None,
                            {"file": cf, "gauge": gauge}))
    rng.shuffle(jobs)
    return jobs


# --- certify --------------------------------------------------------------------
#
# Gaps are relative to the function's range sup - inf.  Bound jobs above the
# maximum emit about 10^2 to 10^4 pieces (about 1 / sqrt(gap) near a smooth
# interior maximum); violated bounds and no-root targets inside the range
# must end in exit 5.

BOUND_SLOTS = (("sin", 1e-2), ("sin", 1e-3), ("sin", 1e-4),
               ("xexp", 1e-1), ("xexp", 1e-2), ("xexp", 1e-3), ("xexp", 1e-4),
               ("gauss", 1e-2), ("gauss", 1e-3), ("gauss", 1e-4),
               ("mixed", 1e-1), ("mixed", 1e-2), ("mixed", 1e-3),
               ("cosx", 1e-3), ("cosx", 1e-4))
VIOLATED_SLOTS = (("quad", 1e-1), ("sin", 1e-3), ("xexp", 1e-2), ("gauss", 1e-3),
                  ("mixed", 1e-2), ("cosx", 1e-4))
ABOVE_SLOTS = (("sin", 1e-3), ("gauss", 1e-3), ("mixed", 1e-3))
BELOW_SLOTS = (("gauss", 1e-2), ("mixed", 1e-2), ("cosx", 1e-3))
INSIDE_SLOTS = ("quad", "cosx", "mixed")
ROOT_SLOTS = ("quad", "xexp", "cosx", "mixed", "gauss", "sin")
VERIFY_FILES = (("sin", 1e-4), ("gauss", 1e-3), ("mixed", 1e-3))


def _fn_args(f: Function) -> list[str]:
    return ["--f", f.text]


def _interval(f: Function) -> list[str]:
    return ["--interval", _num(f.lo), _num(f.hi)]


def _gap(rng: random.Random, f: Function, rel: float) -> float:
    return rel * rng.uniform(0.95, 1.05) * f.span


def _bound_job(rng, name, rel, violated=False) -> Job:
    f = FUNCTIONS[name]
    m = _sig(f.sup - _gap(rng, f, rel) if violated else f.sup + _gap(rng, f, rel), 10)
    argv = ["certify"] + _fn_args(f) + ["--bound", _num(m)] + _interval(f)
    return Job("certify", argv, 5 if violated else 0, {"f": f, "mode": "bound", "target": m})


def _no_root_job(name, y, expect) -> Job:
    f = FUNCTIONS[name]
    y = _sig(y, 10)
    argv = ["certify"] + _fn_args(f) + ["--no-root", _num(y)] + _interval(f)
    return Job("certify", argv, expect, {"f": f, "mode": "no-root", "target": y})


def _root_job(rng, name) -> Job:
    f = FUNCTIONS[name]
    y = _sig(f.inf + rng.uniform(0.1, 0.9) * f.span, 8)
    tol = _sig(math.exp(rng.uniform(math.log(1e-9), math.log(1e-5))), 3)
    fa, fb = f.fn(f.lo) - y, f.fn(f.hi) - y
    expect = 0 if fa == 0 or fb == 0 or (fa > 0) != (fb > 0) else 3
    argv = ["root"] + _fn_args(f) + ["--y", _num(y)] + _interval(f) + ["--tol", _num(tol)]
    return Job("root", argv, expect, {"f": f, "target": y, "tol": tol})


@dataclass
class CertFile:
    path: str
    f: Function


def certify_setup(rng: random.Random, workdir: str, run_cli) -> list[CertFile]:
    files = []
    for i, (name, rel) in enumerate(VERIFY_FILES):
        job = _bound_job(rng, name, rel)
        path = os.path.join(workdir, f"certificate-{i}.json")
        code, _, err = run_cli(job.argv + ["--output", path])
        if code != 0:
            raise RuntimeError(f"set-up certify {job.argv} exited {code}: {err}")
        files.append(CertFile(path, job.ref["f"]))
    return files


def certify_cycle(rng: random.Random, files: list[CertFile]) -> list[Job]:
    jobs = [_bound_job(rng, name, rel) for name, rel in BOUND_SLOTS]
    jobs += [_bound_job(rng, name, rel, violated=True) for name, rel in VIOLATED_SLOTS]
    jobs += [_no_root_job(n, FUNCTIONS[n].sup + _gap(rng, FUNCTIONS[n], rel), 0)
             for n, rel in ABOVE_SLOTS]
    jobs += [_no_root_job(n, FUNCTIONS[n].inf - _gap(rng, FUNCTIONS[n], rel), 0)
             for n, rel in BELOW_SLOTS]
    jobs += [_no_root_job(n, FUNCTIONS[n].inf + rng.uniform(0.2, 0.8) * FUNCTIONS[n].span, 5)
             for n in INSIDE_SLOTS]
    jobs += [_root_job(rng, n) for n in ROOT_SLOTS]
    jobs += [Job("verify", ["verify", "--certificate", cf.path] + _fn_args(cf.f), 0, {"f": cf.f})
             for cf in files]
    rng.shuffle(jobs)
    return jobs


# --- extremum -----------------------------------------------------------------
#
# (function, direction, tolerances).  Flat or interior extrema make many
# pieces per probe, so those get the loose tolerances and the cheap ones
# run down to 1e-6.  The search's cost steps with the number of halvings
# down to tol, so a few percent of jitter on tol can add a whole probe;
# tolerances are therefore fixed and the seed only sets the order.

EXTREMUM_SLOTS = (
    ("quad", "max", (1e-4, 1e-5, 1e-6)), ("quad", "min", (1e-4,)),
    ("sin", "max", (1e-4, 1e-5)), ("sin", "min", (1e-4, 1e-5, 1e-6)),
    ("xexp", "min", (1e-4, 1e-5, 1e-6)),
    ("cosx", "max", (1e-4, 1e-5)), ("cosx", "min", (1e-4,)),
    ("gauss", "max", (1e-4,)), ("mixed", "max", (1e-4,)),
)


def extremum_cycle(rng: random.Random, files=None) -> list[Job]:
    jobs = []
    for name, direction, tols in EXTREMUM_SLOTS:
        f = FUNCTIONS[name]
        for tol in tols:
            argv = (["extremum", f"--{direction}"] + _fn_args(f) + _interval(f)
                    + ["--tol", _num(tol)])
            jobs.append(Job("extremum", argv, 0, {"f": f, "max": direction == "max",
                                                  "tol": tol}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "partition": (partition_setup, partition_cycle),
    "certify": (certify_setup, certify_cycle),
    "extremum": (lambda rng, workdir, run_cli: [], extremum_cycle),
}


# --- Judging answers ------------------------------------------------------------


class References:
    """Per-run reference data: each function's Lipschitz constant as the job
    derives it, and dense-grid extrema and file verdicts, computed once."""

    GRID = 4096

    def __init__(self, lipschitz: dict[str, float]):
        self._lipschitz = lipschitz
        self._grid: dict[tuple[str, bool], tuple[float, float]] = {}
        self.file_verdicts: dict[tuple[str, str], exact.Verdict] = {}

    def lipschitz(self, f: Function) -> float:
        return self._lipschitz[f.name]

    def grid_extremum(self, f: Function, maximum: bool) -> tuple[float, float]:
        """(best grid value, L * h / 2): the true extremum lies within that
        slack of the grid value, on the far side."""
        key = (f.name, maximum)
        if key not in self._grid:
            n = self.GRID
            values = [f.fn(f.lo + (f.hi - f.lo) * k / n) for k in range(n)] + [f.fn(f.hi)]
            best = max(values) if maximum else min(values)
            self._grid[key] = (best, self.lipschitz(f) * (f.hi - f.lo) / n / 2)
        return self._grid[key]

    def file_verdict(self, cf: CheckFile, gauge: GaugeSpec) -> exact.Verdict:
        key = (cf.path, gauge.spec)
        if key not in self.file_verdicts:
            with open(cf.path) as fh:
                data = json.load(fh)
            cells = [(c["lo"], c["hi"], c["tag"]) for c in data["cells"]]
            self.file_verdicts[key] = exact.check_partition(cf.domain, cells, gauge.delta)
        return self.file_verdicts[key]


def _stall_slack(L: float, p: float, target: float) -> float:
    return 2.0 * L * max(PROGRESS_EPS, 2 * math.ulp(p)) * 1.001 + 4 * math.ulp(target)


def judge(job: Job, code: int, out: str, refs: References) -> Judgement:
    """Check one job's exit code and answer against the references."""
    j = Judgement([], counts={"output_bytes": len(out)})
    expect = job.expect
    if expect is None:
        verdict = refs.file_verdict(job.ref["file"], job.ref["gauge"])
        expect = 0 if verdict.ok else 1
    if code != expect:
        j.wrong.append(f"exit {code}, expected {expect}")
        return j
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as e:
        j.wrong.append(f"stdout is not JSON: {e}")
        return j
    try:
        _JUDGES[job.kind](job, code, payload, refs, j)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        j.wrong.append(f"answer does not have the documented shape: {e!r}")
    return j


def _judge_partition(job, code, payload, refs, j):
    cells = [(c["lo"], c["hi"], c["tag"]) for c in payload["cells"]]
    dom = payload["domain"]
    if (dom["lo"], dom["hi"]) != job.ref["domain"]:
        j.wrong.append(f"domain {dom} differs from {job.ref['domain']}")
    v = exact.check_partition(job.ref["domain"], cells, job.ref["gauge"].delta)
    j.wrong += v.wrong
    j.items, j.inexact = v.items, v.inexact
    j.counts["cells"] = v.items


def _judge_check(job, code, payload, refs, j):
    ok = payload.get("valid") is True and payload.get("fine") is True
    if ok != (code == 0):
        j.wrong.append(f"payload valid={payload.get('valid')} fine={payload.get('fine')} "
                       f"disagrees with exit {code}")


def _judge_certify(job, code, payload, refs, j):
    f, target = job.ref["f"], job.ref["target"]
    L = refs.lipschitz(f)
    if code == 5:
        err = payload.get("error")
        if err == "stall":
            p = payload["stall_point"]
            if not (f.lo <= p <= f.hi and abs(f.fn(p) - target) <= _stall_slack(L, p, target)):
                j.wrong.append(f"stall point {p!r} is not near f = {target!r}")
        elif err == "bound_violated":
            x, value = payload["x"], payload["value"]
            if not (f.fn(x) == value and value >= target):
                j.wrong.append(f"reported violation f({x!r}) = {value!r} does not hold")
        elif err == "target_hit_exactly":
            if f.fn(payload["x"]) != target:
                j.wrong.append(f"f({payload['x']!r}) != {target!r}")
        else:
            j.wrong.append(f"unexpected error payload {err!r}")
        return
    pieces = payload.get("pieces", [])
    fy = Fraction(target)
    if job.ref["mode"] == "bound":
        if payload.get("kind") != "bound" or payload.get("target") != target:
            j.wrong.append("certificate kind or target differs from the request")
        gap_of = lambda fs: fy - Fraction(fs)
    else:
        side = "below" if target > f.sup else "above"
        if payload.get("kind") != "sign" or payload.get("side") != side:
            j.wrong.append(f"sign certificate side {payload.get('side')!r}, expected {side!r}")
        gap_of = ((lambda fs: fy - Fraction(fs)) if side == "below"
                  else (lambda fs: Fraction(fs) - fy))
    v = exact.check_certificate((f.lo, f.hi), pieces, f.fn, L, gap_of)
    j.wrong += v.wrong
    j.items, j.inexact = v.items, v.inexact
    j.counts["pieces"] = v.items


def _judge_root(job, code, payload, refs, j):
    if code == 3:
        if payload.get("error") != "no_sign_change":
            j.wrong.append(f"exit 3 without no_sign_change: {payload}")
        return
    f, y, tol = job.ref["f"], job.ref["target"], job.ref["tol"]
    c = payload["c"]
    residual = abs(f.fn(c) - y)
    if not (f.lo <= c <= f.hi and residual <= tol):
        j.wrong.append(f"root c={c!r}: |f(c) - y| = {residual!r} > tol {tol!r}")
    if payload["residual_bound"] != residual:
        j.wrong.append(f"residual_bound {payload['residual_bound']!r} != |f(c) - y| = {residual!r}")


def _judge_verify(job, code, payload, refs, j):
    if payload != {"verified": True}:
        j.wrong.append(f"verify printed {payload}")


def _judge_extremum(job, code, payload, refs, j):
    f, maximum, tol = job.ref["f"], job.ref["max"], job.ref["tol"]
    lo, hi, cand = payload["lo"], payload["hi"], payload["candidate"]
    if payload.get("extremum") != ("max" if maximum else "min"):
        j.wrong.append(f"extremum kind {payload.get('extremum')!r}")
    if not (lo <= hi and hi - lo <= tol):
        j.wrong.append(f"bracket [{lo!r}, {hi!r}] is wider than tol {tol!r}")
    attained = lo if maximum else hi
    if not (f.lo <= cand <= f.hi and f.fn(cand) == attained):
        j.wrong.append(f"attained end {attained!r} != f(candidate {cand!r})")
    g, slack = refs.grid_extremum(f, maximum)
    inside = (hi >= g and lo <= g + slack) if maximum else (lo <= g and hi >= g - slack)
    if not inside:
        j.wrong.append(f"bracket [{lo!r}, {hi!r}] misses the grid reference {g!r} (+-{slack!r})")


_JUDGES = {"partition": _judge_partition, "check": _judge_check, "certify": _judge_certify,
           "root": _judge_root, "verify": _judge_verify, "extremum": _judge_extremum}
