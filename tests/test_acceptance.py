"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Expected values tagged as derived below come from
independent oracles computed in-line: hand-rolled step simulations, plain
bisection, and dense sampling grids.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import gaugekit as gk
from gaugekit.cli import main as cli_main

UNIT = gk.Interval(0.0, 1.0)


@contextmanager
def _criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_cousin_soundness_sweep():
    with _criterion(1, "cousin soundness sweep", budget_seconds=10.0):
        rng = random.Random(0xC0051)
        for _ in range(1000):
            a = rng.uniform(-20.0, 20.0)
            width = rng.uniform(0.01, 10.0)
            dom = gk.Interval(a, a + width)
            n_bp = rng.randint(1, 8)
            bps = sorted({rng.uniform(dom.lo, dom.hi) for _ in range(n_bp)})
            vals = [rng.uniform(1e-3, 0.5) for _ in bps]
            gauge = gk.PiecewiseConstantGauge(tuple(bps), tuple(vals))
            result = gk.fine_partition(gauge, dom)
            assert isinstance(result, gk.TaggedPartition), (a, width, bps, vals)
            assert gk.validate_partition(result).ok
            assert gk.is_delta_fine(result, gauge).fine


def test_criterion_2_greedy_count_formula():
    def simulate(a, b, h):
        # independent hand-rolled replay of the creep step rule
        s, n = a, 0
        while b - s > h:
            t = min(b, s + h)
            n += 1
            if t == b:
                return n
            s = t
        return n + 1

    with _criterion(2, "greedy count formula"):
        h_values = [m * 2.0 ** -e for e in range(1, 6) for m in (1, 3, 5, 7)
                    if m * 2.0 ** -e <= 1.0]
        multiples = (0.5, 1.0, 1.25, 1.5, 2.0, 2.25, 3.0, 4.75, 5.0, 6.5,
                     7.75, 8.0, 11.0, 13.25)
        anchors = (0.0, -1.5, 2.25)
        pairs = [(anchors[i % 3], h, m) for i, h in enumerate(h_values)
                 for m in multiples]
        assert len(pairs) >= 200
        for a, h, m in pairs:
            b = a + m * h  # dyadic: the float walk is exact arithmetic
            expected = max(1, math.ceil(Fraction(b - a) / Fraction(h)))
            assert simulate(a, b, h) == expected, (a, b, h)
            p = gk.creep_partition(gk.ConstantGauge(h), gk.Interval(a, b))
            assert isinstance(p, gk.TaggedPartition)
            assert len(p.cells) == expected, (a, b, h)


def test_criterion_3_forced_tag_gauge():
    with _criterion(3, "forced-tag gauge"):
        gauge = gk.OpaqueGauge(lambda x: 0.1 if x == 0.0 else x / 2.0)
        creep = gk.creep_partition(gauge, UNIT)
        bisect = gk.bisect_partition(gauge, UNIT)
        for p in (creep, bisect):
            assert isinstance(p, gk.TaggedPartition)
            assert gk.validate_partition(p).ok
            assert gk.is_delta_fine(p, gauge).fine
            assert p.cells[0].tag == 0.0
        # perturbing the forced first tag must be rejected by the checker
        for p in (creep, bisect):
            perturbed = gk.TaggedPartition(p.domain, p.lo, p.hi, (1e-9,) + p.tag[1:])
            assert gk.validate_partition(perturbed).ok  # still structurally valid
            report = gk.is_delta_fine(perturbed, gauge)
            assert not report.fine and report.first_violation == 0


def test_criterion_4_key_lemma_fidelity():
    def shrinking_right(s):
        t = s + (1.0 - s) / 2.0
        if t <= s:
            return None
        return t, gk.Witness(gk.Interval(s, t))

    def left(s_star, hint):
        if hint < s_star and s_star - hint <= 0.25:
            return hint, gk.Witness(gk.Interval(hint, s_star))
        return None

    with _criterion(4, "key-lemma fidelity"):
        policy = gk.InductionPolicy(progress_eps=1e-6)
        stalled = gk.run_induction(
            gk.LocalOracle(shrinking_right, gk.combine_adjacent), UNIT, policy)
        assert isinstance(stalled, gk.StallDiagnostic)
        assert stalled.reason is gk.StallReason.PROGRESS_UNDERFLOW
        assert 1.0 - 1e-5 <= stalled.frontier < 1.0
        closed = gk.run_induction(
            gk.LocalOracle(shrinking_right, gk.combine_adjacent, left), UNIT, policy)
        assert isinstance(closed, gk.Witness)
        assert gk.verify_witness(closed, UNIT, lambda leaf: True)


def test_criterion_5_ivt_find_root():
    # independent oracle: 100 plain bisection iterations on x^2 - 2
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid * mid - 2.0 < 0.0:
            lo = mid
        else:
            hi = mid
    oracle_root = 0.5 * (lo + hi)

    with _criterion(5, "IVT root finding", budget_seconds=1.0):
        f = lambda x: x * x - 2.0
        result = gk.find_root(f, 0.0, gk.Interval(1, 2), gk.Lipschitz(4.0), 1e-6)
        assert abs(oracle_root - 1.4142135623730951) < 1e-12
        assert abs(result.c - 1.4142135623730951) <= 1e-5
        assert abs(result.c - oracle_root) <= 1e-5
        assert abs(f(result.c)) <= 1e-6
        assert result.residual_bound >= abs(f(result.c))


_SUP_CERTIFICATES: list = []


def _run_evt_workload():
    dom = gk.Interval(0.0, math.pi)
    est = gk.approx_sup(math.sin, dom, gk.Lipschitz(1.0), 1e-4,
                        on_certificate=_SUP_CERTIFICATES.append)
    return est


def test_criterion_6_evt_approx_sup():
    # independent oracle: dense sampling with Lipschitz padding
    xs = np.linspace(0.0, math.pi, 1_000_001)
    sampled_max = float(np.max(np.sin(xs)))
    pad = 1.0 * (math.pi / 1_000_000)
    with _criterion(6, "EVT sup estimation", budget_seconds=5.0):
        est = _run_evt_workload()
        assert est.sup_hi - est.sup_lo <= 1e-4
        assert est.sup_lo <= 1.0 <= est.sup_hi
        assert est.sup_lo <= sampled_max + pad
        assert est.sup_hi >= sampled_max  # true sup lies within pad above this
        assert math.sin(est.argmax_candidate) >= 1.0 - 1e-3


def test_criterion_7_certificate_independence():
    with _criterion(7, "certificate independence"):
        lip1 = gk.Lipschitz(1.0)
        certificates = []  # (certificate, f, modulus)

        # workload of criterion 6 (criterion 5 stalls by design and emits none)
        if not _SUP_CERTIFICATES:
            _run_evt_workload()
        certificates += [(c, math.sin, lip1) for c in _SUP_CERTIFICATES]

        # randomized polynomial sweep: certify one-sided targets and bounds
        rng = random.Random(0xCE47)
        sweep = 0
        while sweep < 200:
            coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 5))]
            text = " + ".join(f"{c!r}*x^{k}" for k, c in enumerate(coeffs))
            ast = gk.parse(text)
            a = rng.uniform(-2.0, 1.0)
            dom = gk.Interval(a, a + rng.uniform(0.5, 2.0))
            mod = gk.Lipschitz(gk.lipschitz_bound(ast, dom))
            f = gk.as_function(ast)
            hi = gk.eval_interval(ast, dom).hi
            if sweep % 2 == 0:
                y = hi + rng.uniform(0.5, 2.0)
                cert = gk.no_root_certificate(f, y, dom, mod)
                assert isinstance(cert, gk.SignCertificate)
            else:
                m_bound = hi + rng.uniform(0.5, 2.0)
                cert = gk.bound_certificate(f, m_bound, dom, mod)
                assert isinstance(cert, gk.BoundCertificate)
            certificates.append((cert, f, mod))
            sweep += 1

        assert len(certificates) > 200
        for cert, f, mod in certificates:
            if isinstance(cert, gk.SignCertificate):
                assert gk.verify_sign_certificate(cert, f, mod)
            else:
                assert gk.verify_bound_certificate(cert, f, mod)

        # three systematic tamperings, each must be rejected
        sign_cert, f, mod = next(
            (c, f, m) for c, f, m in certificates
            if isinstance(c, gk.SignCertificate) and len(c.lo) >= 2)
        columns = (sign_cert.lo, sign_cert.hi, sign_cert.s, sign_cert.fs, sign_cert.delta)
        k = len(sign_cert.lo) // 2

        inflated = list(sign_cert.delta)
        inflated[k] *= 4
        tampered = gk.SignCertificate(sign_cert.target, sign_cert.side, *columns[:4], inflated)
        assert not gk.verify_sign_certificate(tampered, f, mod)

        gapped = list(sign_cert.lo)
        gapped[k] = math.nextafter(gapped[k], sign_cert.hi[k])
        tampered = gk.SignCertificate(sign_cert.target, sign_cert.side, gapped, *columns[1:])
        assert not gk.verify_sign_certificate(tampered, f, mod)

        flipped_side = gk.Side.ABOVE if sign_cert.side is gk.Side.BELOW else gk.Side.BELOW
        tampered = gk.SignCertificate(sign_cert.target, flipped_side, *columns)
        assert not gk.verify_sign_certificate(tampered, f, mod)


def test_criterion_8_expr_soundness():
    from gaugekit.expr import (
        Add, Call, Div, EvalDomainError, Lit, Mul, Neg, Pow, Sub, Var)

    def random_expr(rng, depth):
        if depth == 0 or rng.random() < 0.3:
            return Lit(rng.uniform(-4.0, 4.0)) if rng.random() < 0.5 else Var()
        c = rng.randrange(8)
        if c == 0:
            return Neg(random_expr(rng, depth - 1))
        if c == 1:
            return Add(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        if c == 2:
            return Sub(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        if c == 3:
            return Mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        if c == 4:
            return Div(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        if c == 5:
            return Pow(random_expr(rng, depth - 1), rng.randrange(-3, 6))
        if c == 6:
            return Call(rng.choice(("sin", "cos", "abs")),
                        (random_expr(rng, depth - 1),))
        return Call(rng.choice(("min", "max")),
                    (random_expr(rng, depth - 1), random_expr(rng, depth - 1)))

    with _criterion(8, "expression soundness"):
        # enclosure property: 1000 random (expr, interval, sample) triples
        rng = random.Random(0xE27)
        checked = 0
        while checked < 1000:
            e = random_expr(rng, 3)
            lo = rng.uniform(-3.0, 3.0)
            iv = gk.Interval(lo, lo + rng.uniform(1e-3, 2.0))
            x = rng.uniform(iv.lo, iv.hi)
            try:
                enc = gk.eval_interval(e, iv)
                v = gk.evaluate(e, x)
            except EvalDomainError:
                continue
            assert enc.lo <= v <= enc.hi, (gk.to_str(e), iv, x)
            checked += 1

        # derivative vs central differences, 1e-5 relative
        h = 1e-6
        for text in ("sin(x)", "cos(x)*x", "exp(x/4)", "x^3 - x", "x^2*sin(x)",
                     "log(x + 3)", "sqrt(x + 2)", "(x + 2)/(x^2 + 1)",
                     "x^5 - 2*x^3 + x - 7"):
            e = gk.parse(text)
            d = gk.differentiate(e)
            for i in range(41):
                x = -1.8 + i * 0.09
                exact = gk.evaluate(d, x)
                approx = (gk.evaluate(e, x + h) - gk.evaluate(e, x - h)) / (2 * h)
                assert abs(exact - approx) <= 1e-5 * (1.0 + abs(exact)), (text, x)

        # Lipschitz validity on sampled pairs
        for text, lo, hi in (("x^2", -1.5, 2.0), ("sin(x)*x", -3.0, 3.0),
                             ("x^3 - x", -2.0, 2.0), ("exp(x/3)", -2.0, 2.0)):
            e = gk.parse(text)
            iv = gk.Interval(lo, hi)
            L = gk.lipschitz_bound(e, iv)
            pts = [lo + k * (hi - lo) / 40 for k in range(41)]
            for i, x in enumerate(pts):
                for x2 in pts[i + 1:]:
                    assert abs(gk.evaluate(e, x) - gk.evaluate(e, x2)) <= L * abs(x - x2)

        # derived: grid maximum of |3x^2 - 1| over [-2, 2] is 11
        grid = np.linspace(-2.0, 2.0, 400_001)
        grid_max = float(np.max(np.abs(3.0 * grid * grid - 1.0)))
        assert grid_max == pytest.approx(11.0, abs=1e-8)
        L = gk.lipschitz_bound(gk.parse("x^3 - x"), gk.Interval(-2, 2))
        assert 11.0 <= L <= 11.0 * 1.01


def test_criterion_9_cli_round_trips(tmp_path, capsys):
    with _criterion(9, "CLI round trips"):
        part_path = str(tmp_path / "partition.json")
        cert_path = str(tmp_path / "certificate.json")

        assert cli_main(["partition", "--gauge", "const:0.3", "--interval", "0", "1",
                         "--output", part_path]) == 0
        assert cli_main(["check", "--partition", part_path,
                         "--gauge", "const:0.3"]) == 0
        assert cli_main(["certify", "--f", "x", "--no-root", "2",
                         "--interval", "0", "1", "--output", cert_path]) == 0
        assert cli_main(["verify", "--certificate", cert_path, "--f", "x"]) == 0
        capsys.readouterr()

        fixed_invocations = [
            ["partition", "--gauge", "const:0.3", "--interval", "0", "1"],
            ["partition", "--gauge", "pw:0:0.5,0.5:0.125", "--interval", "0", "1",
             "--strategy", "bisect"],
            ["check", "--partition", part_path, "--gauge", "const:0.3"],
            ["root", "--f", "x^2-2", "--y", "0", "--interval", "1", "2",
             "--tol", "1e-6"],
            ["extremum", "--max", "--f", "sin(x)", "--interval", "0",
             "3.141592653589793", "--tol", "1e-4"],
            ["certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0",
             "3.141592653589793"],
            ["verify", "--certificate", cert_path, "--f", "x"],
        ]
        for argv in fixed_invocations:
            code1 = cli_main(argv)
            out1 = capsys.readouterr().out
            code2 = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
            json.loads(out1)  # machine readable
