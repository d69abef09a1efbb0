"""Tests of the benchmark's own parts: the exact checker, the pools and
the metric tables.  Run with ``python -m pytest benchmarks``."""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import exact  # noqa: E402
import jobs  # noqa: E402
import metrics  # noqa: E402
from gaugekit import expr  # noqa: E402
from gaugekit.intervals import PiecewiseConstantGauge  # noqa: E402


def fits_by_fractions(lo, hi, center, radius):
    c, r = Fraction(center), Fraction(radius)
    return c - r <= Fraction(lo) and Fraction(hi) <= c + r


# --- exact checker --------------------------------------------------------------

def test_known_bad_cell_is_not_fine():
    # binary64 1.0 - 6e-17 rounds to prev(1.0), so a float comparison accepts
    # this cell; exactly, 1.0 - 6e-17 > prev(1.0)
    lo = math.nextafter(1.0, 0.0)
    v = exact.check_partition((lo, 1.0), [(lo, 1.0, 1.0)], lambda x: 6e-17)
    assert v.wrong == [] and v.inexact == 1
    assert not exact.fits_ball(lo, 1.0, 1.0, 6e-17)


def test_cell_on_the_exact_edge_is_fine():
    lo = math.nextafter(1.0, 0.0)
    assert exact.fits_ball(lo, 1.0, 1.0, 1.0 - lo)
    assert exact.check_partition((0.0, 1.0), [(0.0, 1.0, 0.5)], lambda x: 0.5).ok


def test_creep_step_past_tag_plus_delta_is_inexact():
    # binary64 rounds 0.1 + 7.264e-06 up, past the exact edge of the ball
    s, d = 0.1, 7.264e-06
    t = s + d
    assert Fraction(t) > Fraction(s) + Fraction(d)
    assert not exact.fits_ball(s, t, s, d)
    assert exact.fits_ball(s, math.nextafter(t, 0.0), s, d)


@pytest.mark.parametrize("seed", range(5))
def test_float_shortcut_agrees_with_fractions(seed):
    rng = random.Random(seed)
    for _ in range(2000):
        center = rng.uniform(-3, 3)
        radius = abs(rng.gauss(0, 1)) * 10 ** rng.randint(-17, 0)
        lo = center - radius + rng.choice([0.0, 1, -1]) * math.ulp(center) * rng.randint(0, 3)
        hi = center + radius + rng.choice([0.0, 1, -1]) * math.ulp(center) * rng.randint(0, 3)
        assert exact.fits_ball(lo, hi, center, radius) == fits_by_fractions(lo, hi, center, radius)


def test_partition_structure_breaks_are_wrong_not_inexact():
    cells = [(0.0, 0.5, 0.25), (0.6, 1.0, 2.0)]
    v = exact.check_partition((0.0, 1.0), cells, lambda x: 1.0)
    assert any("starts at 0.6" in w for w in v.wrong)
    assert any("tag 2.0 outside" in w for w in v.wrong)


def _piece(lo, hi, s, fs, delta):
    return {"lo": lo, "hi": hi, "s": s, "fs": fs, "delta": delta}


def test_certificate_checks():
    f = math.sin
    bound = Fraction(2.0)
    gap = lambda fs: bound - Fraction(fs)
    good = [_piece(0.0, 0.25, 0.0, 0.0, 0.25), _piece(0.25, 0.5, 0.25, f(0.25), 0.25)]
    assert exact.check_certificate((0.0, 0.5), good, f, 1.0, gap).ok
    # radius larger than step(gap / 2) = (2 - fs) / 2 / L
    wide = [_piece(0.0, 0.5, 0.0, 0.0, 1.5)]
    v = exact.check_certificate((0.0, 0.5), wide, f, 1.0, gap)
    assert v.wrong == [] and v.inexact == 1
    # a recorded value that is not f(s) is a contract break
    v = exact.check_certificate((0.0, 0.5), [_piece(0.0, 0.5, 0.0, 0.1, 0.5)], f, 1.0, gap)
    assert v.wrong and v.inexact == 0
    # a gap between pieces, and a short tiling
    v = exact.check_certificate((0.0, 1.0), [good[0], _piece(0.3, 0.5, 0.3, f(0.3), 0.2)],
                                f, 1.0, gap)
    assert len(v.wrong) == 2


def test_piecewise_gauge_matches_the_program():
    bps, vals = (-1.0, 0.25, 0.5), (0.1, 0.2, 0.3)
    ours = exact.piecewise_gauge(bps, vals)
    theirs = PiecewiseConstantGauge(bps, vals)
    for x in (-2.0, -1.0, 0.0, 0.25, math.nextafter(0.25, 0), 0.5, 0.7, 9.0):
        assert ours(x) == theirs(x)


# --- pools ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(jobs.FUNCTIONS))
def test_reference_functions_match_the_program_bit_for_bit(name):
    f = jobs.FUNCTIONS[name]
    ast = expr.parse(f.text)
    for k in range(1001):
        x = f.lo + (f.hi - f.lo) * k / 1000
        assert f.fn(x) == expr.evaluate(ast, x)


@pytest.mark.parametrize("name", sorted(jobs.FUNCTIONS))
def test_pool_extrema(name):
    f = jobs.FUNCTIONS[name]
    n = 20000
    values = [f.fn(f.lo + (f.hi - f.lo) * k / n) for k in range(n + 1)]
    # the grid is within L * h / 2 (plus curvature slack) of the extrema
    assert max(values) <= f.sup + 1e-9 and f.sup - max(values) < 1e-6
    assert min(values) >= f.inf - 1e-9 and min(values) - f.inf < 1e-6


@pytest.mark.parametrize("kind", ["const", "pw", "expr-sin", "expr-quad"])
def test_gauge_specs_match_their_reference(kind):
    from gaugekit.cli import _parse_gauge_spec
    rng = random.Random(kind)
    g = jobs.make_gauge(rng, kind, -1.2, 1.7, 2000)
    for spec in (g, jobs.scaled(g, 0.4)):
        program = _parse_gauge_spec(spec.spec)
        for k in range(201):
            x = -1.2 + 2.9 * k / 200
            assert program(x) == spec.delta(x)


@pytest.mark.parametrize("workload", ["partition", "certify", "extremum"])
def test_cycles_depend_only_on_the_seed(workload):
    _, cycle = jobs.WORKLOADS[workload]
    files = ([jobs.CheckFile("p.json", jobs.make_gauge(random.Random(0), "const", 0, 1, 10),
                             (0.0, 1.0))] if workload == "partition" else
             [jobs.CertFile("c.json", jobs.FUNCTIONS["sin"])] if workload == "certify" else [])
    a = [j.argv for j in cycle(random.Random("s1"), files)]
    b = [j.argv for j in cycle(random.Random("s1"), files)]
    c = [j.argv for j in cycle(random.Random("s2"), files)]
    assert a == b and a != c
    assert sorted(map(len, a)) == sorted(map(len, c))   # same slots, other numbers


def test_benchmark_json_lists_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: v[:2] for k, v in metrics.LAYERS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_malformed_answers_count_as_wrong():
    f = jobs.FUNCTIONS["sin"]
    job = jobs.Job("extremum", ["extremum"], 0, {"f": f, "max": True, "tol": 1e-4})
    refs = jobs.References({f.name: 1.0})
    assert jobs.judge(job, 0, '{"extremum": "max"}', refs).wrong
    assert jobs.judge(job, 0, "not json", refs).wrong
    assert jobs.judge(job, 2, "{}", refs).wrong == ["exit 2, expected 0"]
