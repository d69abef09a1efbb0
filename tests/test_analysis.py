import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from gaugekit.analysis import (
    BoundCertificate,
    BoundViolatedError,
    CertificatePiece,
    CustomModulus,
    Hoelder,
    Lipschitz,
    MalformedModulusError,
    NoSignChangeError,
    Side,
    SignCertificate,
    StallAtRoot,
    StallNearMax,
    TargetHitExactlyError,
    approx_inf,
    approx_sup,
    bound_certificate,
    certificate_from_json,
    certificate_to_dict,
    certificate_to_json,
    find_root,
    no_root_certificate,
    verify_bound_certificate,
    verify_sign_certificate,
)
from gaugekit.errors import CapExceededError
from gaugekit.induction import InductionPolicy, StallReason
from gaugekit.intervals import Interval


class TestModuli:
    def test_lipschitz_step(self):
        assert Lipschitz(4.0).step(1.0) == 0.25
        assert Lipschitz(4.0).span_bound(2.0) == 8.0

    def test_hoelder_step(self):
        mod = Hoelder(2.0, 0.5)
        assert mod.step(2.0) == pytest.approx(1.0)
        assert mod.span_bound(4.0) == pytest.approx(4.0)

    def test_custom_span_bound_by_doubling(self):
        mod = CustomModulus(lambda eps: eps / 3.0)
        assert mod.span_bound(1.0) >= 3.0 * 1.0 / 2  # within 2x of tight
        assert mod.step(mod.span_bound(1.0)) >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Lipschitz(0.0)
        with pytest.raises(ValueError):
            Hoelder(1.0, 1.5)
        with pytest.raises(MalformedModulusError):
            CustomModulus(lambda eps: 0.0).checked_step(1.0)


class TestNoRootCertificate:
    def test_one_piece_below(self):
        cert = no_root_certificate(lambda x: x, 2.0, Interval(0, 1), Lipschitz(1.0))
        assert isinstance(cert, SignCertificate)
        assert cert.side is Side.BELOW
        assert len(cert.pieces) == 1
        piece = cert.pieces[0]
        assert piece.cell == Interval(0, 1)
        assert piece.sample == 0.0 and piece.value == 0.0 and piece.radius == 1.0
        assert verify_sign_certificate(cert, lambda x: x, Lipschitz(1.0))

    def test_stalls_at_sqrt2(self):
        result = no_root_certificate(lambda x: x * x - 2.0, 0.0, Interval(1, 2),
                                     Lipschitz(4.0))
        assert isinstance(result, StallAtRoot)
        assert abs(result.point - math.sqrt(2.0)) < 1e-6

    def test_linear_stalls_at_crossing(self):
        result = no_root_certificate(lambda x: x, 0.5, Interval(0, 1), Lipschitz(1.0))
        assert isinstance(result, StallAtRoot)
        assert abs(result.point - 0.5) < 1e-6

    def test_exact_hit_raises(self):
        with pytest.raises(TargetHitExactlyError) as exc:
            no_root_certificate(lambda x: x, 0.0, Interval(0, 1), Lipschitz(1.0))
        assert exc.value.x == 0.0

    def test_above_side(self):
        cert = no_root_certificate(lambda x: x + 3.0, 1.0, Interval(0, 1), Lipschitz(1.0))
        assert cert.side is Side.ABOVE
        assert verify_sign_certificate(cert, lambda x: x + 3.0, Lipschitz(1.0))

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            no_root_certificate(lambda x: x - 10.0, 0.0, Interval(0, 9.0),
                                Lipschitz(1.0), InductionPolicy(max_steps=3))


class TestFindRoot:
    def test_sqrt2(self):
        result = find_root(lambda x: x * x - 2.0, 0.0, Interval(1, 2),
                           Lipschitz(4.0), 1e-6)
        assert abs(result.c - 1.4142135623730951) <= 1e-5
        assert abs(result.c * result.c - 2.0) <= 1e-6
        assert result.residual_bound >= abs(result.c * result.c - 2.0)
        assert result.residual_bound <= 1e-6

    def test_cos(self):
        result = find_root(math.cos, 0.0, Interval(1, 2), Lipschitz(1.0), 1e-6)
        assert abs(result.c - math.pi / 2.0) <= 1e-5
        assert abs(math.cos(result.c)) <= 1e-6

    def test_odd_symmetry(self):
        result = find_root(lambda x: x, 0.0, Interval(-1, 1), Lipschitz(1.0), 1e-9)
        assert abs(result.c) <= 1e-9

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root(lambda x: x * x + 1.0, 0.0, Interval(-1, 1), Lipschitz(2.0), 1e-6)

    def test_exact_endpoint_root(self):
        result = find_root(lambda x: x, 0.0, Interval(0, 1), Lipschitz(1.0), 1e-6)
        assert result.c == 0.0 and result.residual_bound == 0.0

    def test_exact_interior_hit(self):
        result = find_root(lambda x: x - 0.25, 0.0, Interval(-1, 1),
                           Lipschitz(1.0), 1e-6)
        # creep lands on 0.25 exactly: -1 -> ... the hit is surfaced as a 0-residual root
        assert result.residual_bound <= 1e-6
        assert abs(result.c - 0.25) <= 1e-6

    def test_hoelder_modulus(self):
        f = lambda x: math.copysign(math.sqrt(abs(x - 0.3)), x - 0.3)
        result = find_root(f, 0.0, Interval(0, 1), Hoelder(1.0, 0.5), 1e-4)
        assert abs(f(result.c)) <= 1e-4


class TestBoundCertificate:
    def test_sin_below_1_5(self):
        dom = Interval(0.0, math.pi)
        cert = bound_certificate(math.sin, 1.5, dom, Lipschitz(1.0))
        assert isinstance(cert, BoundCertificate)
        assert len(cert.pieces) <= 14  # every step has radius >= 0.25
        assert cert.domain == dom
        assert verify_bound_certificate(cert, math.sin, Lipschitz(1.0))

    def test_sin_bound_0_9_violated_near_peak(self):
        with pytest.raises(BoundViolatedError) as exc:
            bound_certificate(math.sin, 0.9, Interval(0.0, math.pi), Lipschitz(1.0))
        assert abs(exc.value.x - math.pi / 2.0) < 0.1
        assert exc.value.value >= 0.9

    def test_constant_zero_piece_count(self):
        cert = bound_certificate(lambda x: 0.0, 1.0, Interval(0, 2), Lipschitz(1.0))
        assert len(cert.pieces) == math.ceil(2.0 / 0.5)

    def test_stall_when_bound_barely_above_sup(self):
        result = bound_certificate(math.sin, 1.0 + 1e-9, Interval(0.0, math.pi),
                                   Lipschitz(1.0), InductionPolicy(progress_eps=1e-7))
        assert isinstance(result, StallNearMax)
        assert abs(result.point - math.pi / 2.0) < 0.01

    def test_monotone_cost(self):
        dom = Interval(0.0, math.pi)
        sizes = []
        for bound in (1.2, 1.5, 2.0, 3.0):
            cert = bound_certificate(math.sin, bound, dom, Lipschitz(1.0))
            sizes.append(len(cert.pieces))
        assert sizes == sorted(sizes, reverse=True)


class TestInvalidModulus:
    """A modulus that is wrong for f: what sign and bound certification each
    make of a jump the creep steps onto."""

    @staticmethod
    def _spike(height):
        # between the bound pre-scan's grid points 32/65 and 33/65
        return lambda x: height if 0.5 <= x <= 0.505 else 0.0

    def test_sign_flip_stalls_at_the_jump(self):
        result = no_root_certificate(lambda x: 1.0 if x < 0.5 else -1.0, 0.0,
                                     Interval(0, 1), Lipschitz(1.0))
        assert isinstance(result, StallAtRoot)
        assert result.point == 0.5
        assert result.diagnostic.reason is StallReason.COMBINE_INCOMPATIBLE
        assert result.diagnostic.incompatible.reason == "side flips across 0.5"
        assert result.diagnostic.step_history == ((0.0, 0.5),)

    def test_spike_past_the_grid_violates_the_bound(self):
        with pytest.raises(BoundViolatedError) as exc:
            bound_certificate(self._spike(2.0), 1.0, Interval(0, 1), Lipschitz(1.0))
        assert (exc.value.x, exc.value.value) == (0.5, 2.0)

    def test_spike_at_the_bound_is_a_violation_not_a_hit(self):
        with pytest.raises(BoundViolatedError) as exc:
            bound_certificate(self._spike(1.0), 1.0, Interval(0, 1), Lipschitz(1.0))
        assert (exc.value.x, exc.value.value) == (0.5, 1.0)


class TestApproxSup:
    def test_sin_bracket(self):
        est = approx_sup(math.sin, Interval(0.0, math.pi), Lipschitz(1.0), 1e-4)
        assert est.sup_hi - est.sup_lo <= 1e-4
        assert est.sup_lo <= 1.0 <= est.sup_hi
        assert math.sin(est.argmax_candidate) >= 1.0 - 1e-3
        assert math.sin(est.argmax_candidate) == est.sup_lo  # attained

    def test_negative_parabola(self):
        est = approx_sup(lambda x: -x * x, Interval(-1, 1), Lipschitz(2.0), 1e-6)
        assert est.sup_lo <= 0.0 <= est.sup_hi
        assert abs(est.argmax_candidate) < 1e-2

    def test_constant(self):
        est = approx_sup(lambda x: 3.0, Interval(0, 1), Lipschitz(1.0), 1e-3)
        assert est.sup_lo == 3.0
        assert 3.0 <= est.sup_hi <= 3.0 + 1e-3

    def test_collects_certificates(self):
        seen = []
        approx_sup(math.sin, Interval(0.0, math.pi), Lipschitz(1.0), 1e-3,
                   on_certificate=seen.append)
        assert seen
        for cert in seen:
            assert verify_bound_certificate(cert, math.sin, Lipschitz(1.0))

    def test_one_certificate_at_the_upper_end(self):
        seen = []
        est = approx_sup(math.sin, Interval(0.0, math.pi), Lipschitz(1.0), 1e-4,
                         on_certificate=seen.append)
        assert len(seen) == 1
        assert seen[0].bound == est.sup_hi
        assert verify_bound_certificate(seen[0], math.sin, Lipschitz(1.0))

    def test_hoelder_modulus(self):
        f = lambda x: -math.sqrt(abs(x - 0.3))
        seen = []
        est = approx_sup(f, Interval(0.0, 1.0), Hoelder(1.0, 0.5), 1e-3,
                         on_certificate=seen.append)
        assert est.sup_lo <= 0.0 <= est.sup_hi
        assert est.sup_hi - est.sup_lo <= 1e-3
        assert f(est.argmax_candidate) == est.sup_lo
        assert verify_bound_certificate(seen[0], f, Hoelder(1.0, 0.5))

    def test_custom_modulus(self):
        mod = CustomModulus(lambda eps: eps / 2.0)  # Lipschitz 2, via doubling
        f = lambda x: -x * x
        seen = []
        est = approx_sup(f, Interval(-1.0, 1.0), mod, 1e-4, on_certificate=seen.append)
        assert est.sup_lo <= 0.0 <= est.sup_hi
        assert est.sup_hi - est.sup_lo <= 1e-4
        assert verify_bound_certificate(seen[0], f, mod)

    def test_tol_below_ulp_gives_narrowest_bracket(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return x

        est = approx_sup(f, Interval(0.0, 1.0), Lipschitz(1.0), 1e-20)
        assert est.sup_lo == 1.0 and est.argmax_candidate == 1.0
        assert est.sup_hi == math.nextafter(1.0, math.inf)
        assert calls[0] < 1_000  # no loop trying to split [1, next float]

    def test_evaluation_count(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return math.sin(x)

        est = approx_sup(f, Interval(0.0, math.pi), Lipschitz(1.0), 1e-6)
        assert est.sup_lo <= 1.0 <= est.sup_hi
        assert calls[0] <= 20_000

    def test_search_counts_against_max_steps(self):
        with pytest.raises(CapExceededError):
            approx_sup(math.sin, Interval(0.0, math.pi), Lipschitz(1.0), 1e-6,
                       policy=InductionPolicy(max_steps=200))


class TestApproxInf:
    def test_sin_inf_at_endpoints(self):
        est = approx_inf(math.sin, Interval(0.0, math.pi), Lipschitz(1.0), 1e-4)
        assert est.sup_lo <= 0.0 <= est.sup_hi
        assert est.sup_hi - est.sup_lo <= 1e-4

    def test_parabola_inf(self):
        est = approx_inf(lambda x: x * x, Interval(-1, 1), Lipschitz(2.0), 1e-6)
        assert est.sup_lo <= 0.0 <= est.sup_hi
        assert abs(est.argmax_candidate) < 1e-2

    def test_constant(self):
        est = approx_inf(lambda x: 3.0, Interval(0, 1), Lipschitz(1.0), 1e-3)
        assert est.sup_lo <= 3.0 <= est.sup_hi
        assert est.sup_hi - est.sup_lo <= 1e-3

    def test_certificate_is_for_negated_f(self):
        seen = []
        est = approx_inf(math.cos, Interval(0.0, 3.0), Lipschitz(1.0), 1e-4,
                         on_certificate=seen.append)
        assert len(seen) == 1
        assert seen[0].bound == -est.sup_lo
        assert verify_bound_certificate(seen[0], lambda x: -math.cos(x), Lipschitz(1.0))
        assert not verify_bound_certificate(seen[0], math.cos, Lipschitz(1.0))


def _tampered_delta(cert):
    delta = list(cert.delta)
    delta[len(delta) // 2] *= 4
    return replace(cert, delta=delta)


def _tampered_gap(cert):
    lo = list(cert.lo)
    lo[-1] = math.nextafter(lo[-1], cert.hi[-1])
    return replace(cert, lo=lo)


class TestVerifiers:
    def _cert(self):
        return no_root_certificate(lambda x: math.sin(x) - 2.0, 0.0,
                                   Interval(0.0, 3.0), Lipschitz(1.0))

    def test_emitted_certificate_verifies(self):
        cert = self._cert()
        assert verify_sign_certificate(cert, lambda x: math.sin(x) - 2.0, Lipschitz(1.0))

    def test_inflated_radius_rejected(self):
        cert = _tampered_delta(self._cert())
        assert not verify_sign_certificate(cert, lambda x: math.sin(x) - 2.0,
                                           Lipschitz(1.0))

    def test_gap_rejected(self):
        cert = _tampered_gap(self._cert())
        assert not verify_sign_certificate(cert, lambda x: math.sin(x) - 2.0,
                                           Lipschitz(1.0))

    def test_flipped_side_rejected(self):
        cert = self._cert()
        flipped = replace(cert, side=Side.ABOVE)
        assert not verify_sign_certificate(flipped, lambda x: math.sin(x) - 2.0,
                                           Lipschitz(1.0))

    def test_wrong_function_rejected(self):
        cert = self._cert()
        assert not verify_sign_certificate(cert, lambda x: math.sin(x) - 2.5,
                                           Lipschitz(1.0))

    def test_empty_pieces_rejected(self):
        cert = SignCertificate(0.0, Side.BELOW, (), (), (), (), ())
        assert not verify_sign_certificate(cert, lambda x: -1.0, Lipschitz(1.0))


class TestNoSignFlipProperty:
    def test_random_polynomials_never_incompatible(self):
        # a valid Lipschitz bound makes per-piece sign flips impossible, so
        # certification either completes or stalls; it never reports an
        # incompatible combine
        from gaugekit.expr import evaluate, lipschitz_bound, parse, to_str
        from gaugekit.expr import Lit, Var, Add, Mul, Pow  # noqa: F401

        rng = random.Random(123)
        for _ in range(60):
            coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 5))]
            text = " + ".join(f"{c!r}*x^{k}" for k, c in enumerate(coeffs))
            e = parse(text)
            dom = Interval(-1.0, 1.0)
            L = lipschitz_bound(e, dom)
            f = lambda x: evaluate(e, x)
            y = rng.uniform(-8, 8)
            try:
                result = no_root_certificate(f, y, dom, Lipschitz(L),
                                             InductionPolicy(progress_eps=1e-9))
            except TargetHitExactlyError:
                continue
            if isinstance(result, SignCertificate):
                assert verify_sign_certificate(cert=result, f=f, mod=Lipschitz(L))
            else:
                assert isinstance(result, StallAtRoot)
                assert abs(f(result.point) - y) <= 2 * L * 1e-9 + 1e-12


class TestCertificateJson:
    def test_sign_round_trip(self):
        cert = no_root_certificate(lambda x: x, 2.0, Interval(0, 1), Lipschitz(1.0))
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert

    def test_bound_round_trip(self):
        cert = bound_certificate(math.sin, 1.5, Interval(0.0, math.pi), Lipschitz(1.0))
        back = certificate_from_json(certificate_to_json(cert))
        assert back == cert

    def test_schema_keys(self):
        cert = no_root_certificate(lambda x: x, 2.0, Interval(0, 1), Lipschitz(1.0))
        data = json.loads(certificate_to_json(cert))
        assert set(data) == {"kind", "target", "side", "pieces"}
        assert set(data["pieces"][0]) == {"lo", "hi", "s", "fs", "delta"}
        assert data["kind"] == "sign" and data["side"] == "below"

    @pytest.mark.parametrize("cert", [
        SignCertificate(2.0, Side.BELOW, (), (), (), (), ()),
        SignCertificate(-0.0, Side.ABOVE, (-0.0, 5e-324), (5e-324, 1e22), (0.0, 1e22),
                        (0.1, -1e-300), (1e16, 2.5e-310)),
        BoundCertificate(3, (0.0,), (1.0,), (0.5,), (1,), (2,)),
        BoundCertificate(1.5, (0.0,), (1.0,), (0.5,), (math.nan,), (1.0,)),
        BoundCertificate(math.inf, (0.0,), (1.0,), (0.5,), (-math.inf,), (1.0,)),
        BoundCertificate(True, (0.0,), (1.0,), (0.5,), (False,), (1.0,)),
    ])
    def test_writer_matches_json_dumps(self, cert):
        assert certificate_to_json(cert) == json.dumps(certificate_to_dict(cert), indent=2)

    @pytest.mark.parametrize("y", [2.0, -1.0])
    def test_writer_matches_json_dumps_on_built_certificates(self, y):
        sign = no_root_certificate(math.sin, y, Interval(0.0, 3.0), Lipschitz(1.0))
        bound = bound_certificate(math.sin, 1.01, Interval(0.0, math.pi), Lipschitz(1.0))
        assert sign.side is (Side.BELOW if y > 0 else Side.ABOVE)
        for cert in (sign, bound):
            assert certificate_to_json(cert) == json.dumps(certificate_to_dict(cert), indent=2)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 5),
                    max_size=6))
    def test_writer_matches_json_dumps_on_random_floats(self, target, rows):
        rows = [(min(lo, hi), max(lo, hi), s, fs, delta) for lo, hi, s, fs, delta in rows]
        columns = tuple(zip(*rows)) if rows else ((),) * 5
        for cert in (BoundCertificate(target, *columns),
                     SignCertificate(target, Side.ABOVE, *columns)):
            assert certificate_to_json(cert) == json.dumps(certificate_to_dict(cert), indent=2)

    @pytest.mark.parametrize("text", [
        "[]", "{}", '{"kind": "sign"}',
        '{"kind": "what", "target": 0, "side": "below", "pieces": [{"lo":0,"hi":1,"s":0,"fs":0,"delta":1}]}',
        '{"kind": "sign", "target": 0, "side": "sideways", "pieces": [{"lo":0,"hi":1,"s":0,"fs":0,"delta":1}]}',
        '{"kind": "sign", "target": 0, "side": "below", "pieces": []}',
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            certificate_from_json(text)


def reference_replay_pieces(pieces, f, mod, target, side):
    """The object-walking replay that the columnar ``_replay_pieces`` replaced,
    kept to test that the two agree: it walks ``CertificatePiece`` objects."""
    if not pieces:
        return False
    below = side is Side.BELOW
    prev_hi = None
    for p in pieces:
        if not p.cell.lo < p.cell.hi:
            return False
        if prev_hi is not None and p.cell.lo != prev_hi:
            return False
        prev_hi = p.cell.hi
        if not (p.sample - p.radius <= p.cell.lo and p.cell.hi <= p.sample + p.radius):
            return False
        if f(p.sample) != p.value:
            return False
        gap = target - p.value if below else p.value - target
        if not gap > 0.0:
            return False
        try:
            if not p.radius <= mod.checked_step(gap / 2.0):
                return False
        except MalformedModulusError:
            return False
    return True


def _tamper(cert, f, rng):
    """``cert`` with one random tampering applied to a copy of its columns."""
    cols = [list(cert.lo), list(cert.hi), list(cert.s), list(cert.fs), list(cert.delta)]
    lo, hi, s, fs, delta = cols
    n = len(lo)
    k = rng.randrange(n)
    target = cert.bound if isinstance(cert, BoundCertificate) else cert.target
    kind = rng.choice(["delta", "lo", "swap", "fs", "zero", "junction"])
    if kind == "delta":
        delta[k] *= rng.choice([1.0 + 2 ** -40, 1.5, 4.0])
    elif kind == "lo":
        lo[k] = math.nextafter(lo[k], rng.choice([hi[k], -math.inf]))
    elif kind == "swap":
        j = rng.randrange(n)
        for col in cols:
            col[j], col[k] = col[k], col[j]
    elif kind == "fs":
        fs[k] = 2.0 * target - fs[k]  # the mirror image across the target
    elif kind == "zero":
        # a piece of width zero at lo[k], with otherwise valid evidence
        for col, value in zip(cols, (lo[k], lo[k], lo[k], f(lo[k]), delta[k])):
            col.insert(k, value)
    elif kind == "junction":
        # give each zero junction end the other sign: -0.0 == 0.0 stays contiguous
        for i in range(1, n):
            if hi[i - 1] == 0.0 == lo[i]:
                lo[i] = -lo[i]
    return replace(cert, lo=lo, hi=hi, s=s, fs=fs, delta=delta), kind


def _joined_at_zero(f, bound, mod):
    """Bound certificates on [-1, 0] and [0, 1] joined into one whose
    junction at zero is a -0.0 end followed by a 0.0 start."""
    left = bound_certificate(f, bound, Interval(-1.0, 0.0), mod)
    right = bound_certificate(f, bound, Interval(0.0, 1.0), mod)
    return BoundCertificate(bound, left.lo + right.lo, left.hi[:-1] + (-0.0,) + right.hi,
                            left.s + right.s, left.fs + right.fs, left.delta + right.delta)


class TestColumnarReplay:
    """The columnar replay gives the object-walking replay's verdicts, and
    evaluates f at the same points in the same order."""

    @staticmethod
    def _cases():
        lip1 = Lipschitz(1.0)
        sin_minus_2 = lambda x: math.sin(x) - 2.0
        sin_plus_2 = lambda x: math.sin(x) + 2.0
        return [
            (no_root_certificate(sin_minus_2, 0.0, Interval(0.0, 3.0), lip1), sin_minus_2, lip1),
            (no_root_certificate(sin_plus_2, 0.0, Interval(-2.0, 3.0), lip1), sin_plus_2, lip1),
            (bound_certificate(math.sin, 1.2, Interval(0.0, math.pi), lip1), math.sin, lip1),
            (bound_certificate(math.cos, 1.5, Interval(-1.0, 1.0), Hoelder(1.0, 0.5)),
             math.cos, Hoelder(1.0, 0.5)),
            (_joined_at_zero(math.sin, 1.2, lip1), math.sin, lip1),
        ]

    @staticmethod
    def _both(cert, f, mod):
        calls = {"new": [], "ref": []}
        spy = lambda key: lambda x: calls[key].append(x) or f(x)
        if isinstance(cert, SignCertificate):
            new = verify_sign_certificate(cert, spy("new"), mod)
            ref = reference_replay_pieces(cert.pieces, spy("ref"), mod, cert.target, cert.side)
        else:
            new = verify_bound_certificate(cert, spy("new"), mod)
            ref = reference_replay_pieces(cert.pieces, spy("ref"), mod, cert.bound, Side.BELOW)
        return (new, calls["new"]), (ref, calls["ref"])

    def test_random_tamperings(self):
        rng = random.Random(0x5EED)
        verdicts = {}
        for cert, f, mod in self._cases():
            new, ref = self._both(cert, f, mod)
            assert new == ref and new[0] is True
            for _ in range(150):
                tampered = cert
                for _ in range(rng.randint(1, 3)):
                    tampered, kind = _tamper(tampered, f, rng)
                new, ref = self._both(tampered, f, mod)
                assert new == ref, kind
                verdicts.setdefault(kind, set()).add(new[0])
        # every tampering ran, and the sweep saw both verdicts
        assert set(verdicts) == {"delta", "lo", "swap", "fs", "zero", "junction"}
        assert set.union(*verdicts.values()) == {True, False}

    @pytest.mark.parametrize("first_hi,next_lo", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zero_junction_is_contiguous(self, first_hi, next_lo):
        f = lambda x: x - 5.0
        cert = SignCertificate(0.0, Side.BELOW, (-1.0, next_lo), (first_hi, 1.0),
                               (-0.5, 0.5), (f(-0.5), f(0.5)), (0.5, 0.5))
        new, ref = self._both(cert, f, Lipschitz(1.0))
        assert new == ref == (True, [-0.5, 0.5])

    def test_break_ends_the_replay_at_the_bad_piece(self):
        cert, f, mod = self._cases()[2]
        lo = list(cert.lo)
        lo[5] = math.nextafter(lo[5], math.inf)
        new, ref = self._both(replace(cert, lo=lo), f, mod)
        assert new == ref == (False, list(cert.s[:5]))

    def test_columns_differ_in_length(self):
        with pytest.raises(ValueError, match="columns differ in length"):
            BoundCertificate(1.0, (0.0,), (1.0,), (0.0, 1.0), (0.0,), (1.0,))

    def test_pieces_view_and_domain(self):
        cert, _, _ = self._cases()[2]
        assert cert.domain == Interval(cert.lo[0], cert.hi[-1]) == Interval(0.0, math.pi)
        assert cert.pieces == tuple(CertificatePiece(Interval(l, h), s, v, r) for l, h, s, v, r
                                    in zip(cert.lo, cert.hi, cert.s, cert.fs, cert.delta))
        assert cert.pieces is not cert.pieces  # built anew on each access

    def test_creep_shares_boundary_objects(self):
        # the writer reuses a spelling where the sample is its cell's lo and a
        # cell's hi is the next cell's lo, which the creep makes one object
        cert, _, _ = self._cases()[2]
        assert len(cert.lo) > 2
        assert all(s is l for s, l in zip(cert.s, cert.lo))
        assert all(h is l for h, l in zip(cert.hi, cert.lo[1:]))


class TestCertificateWriterAgainstJsonDumps:
    @staticmethod
    def _dumps(cert):
        return json.dumps(certificate_to_dict(cert), indent=2)

    @pytest.mark.parametrize("text,target,bound", [
        ("sin", 2.0, None), ("sin", -1.0, None), ("sin", None, 1.001), ("neg_sq", None, 0.5)])
    def test_produced_and_parsed(self, text, target, bound):
        f = {"sin": math.sin, "neg_sq": lambda x: -x * x}[text]
        dom = Interval(-1.0, 3.0)
        if bound is None:
            cert = no_root_certificate(f, target, dom, Lipschitz(6.0))
        else:
            cert = bound_certificate(f, bound, dom, Lipschitz(6.0))
        text = certificate_to_json(cert)
        assert text == self._dumps(cert)
        parsed = certificate_from_json(text)
        assert parsed == cert
        # parsed columns share no float objects, so every value is spelled anew
        assert not any(s is l for s, l in zip(parsed.s, parsed.lo))
        assert certificate_to_json(parsed) == self._dumps(parsed) == text

    @pytest.mark.parametrize("columns", [
        ((0, 1), (1, 2), (0, 1), (0, 1), (1, 1)),  # ints
        ((0.0, 1.0), (1.0, 2.0), (True, 1.0), (False, 0.5), (1.0, True)),  # bools
        ((0.0,), (1.0,), (0.5,), (math.nan,), (1.0,)),
        ((0.0,), (math.inf,), (0.5,), (-math.inf,), (math.inf,)),
        ((-0.0, 0.0), (-0.0, 1.0), (-0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)),
        ((-0.0, -0.0), (0.0, 1.0), (0.0, 0.5), (1e-320, -1e308), (5e-324, 1.7976931348623157e308)),
    ], ids=["int", "bool", "nan", "inf", "signed-zero", "extremes"])
    def test_hand_built(self, columns):
        for cert in (BoundCertificate(1.5, *columns), SignCertificate(-0.0, Side.ABOVE, *columns),
                     SignCertificate(math.nan, Side.BELOW, *columns)):
            assert certificate_to_json(cert) == self._dumps(cert)

    def test_shared_objects_spell_as_their_values(self):
        # one -0.0 object as a hi and the next lo, and a 0.0 sample beside it
        z = -0.0
        cert = BoundCertificate(1.0, (-1.0, z), (z, 1.0), (-1.0, 0.0), (0.0, 0.0), (1.0, 1.0))
        assert certificate_to_json(cert) == self._dumps(cert)


class TestCertificateParseErrors:
    @staticmethod
    def _text(**bad):
        pieces = [{"lo": float(i), "hi": i + 1.0, "s": float(i), "fs": 0.0, "delta": 1.0}
                  for i in range(5)]
        pieces[3].update(bad)
        return json.dumps({"kind": "bound", "target": 1.0, "side": "below", "pieces": pieces})

    @pytest.mark.parametrize("bad,message", [
        ({"fs": "x"}, "piece 3: certificate JSON field 'fs' is not a number"),
        ({"delta": True}, "piece 3: certificate JSON field 'delta' is not a number"),
        ({"lo": 5.0}, "piece 3: interval endpoints out of order: [5.0, 4.0]"),
        ({"hi": math.inf}, "piece 3: interval endpoints must be finite: [3.0, inf]"),
    ])
    def test_error_names_the_piece(self, bad, message):
        with pytest.raises(ValueError) as exc:
            certificate_from_json(self._text(**bad))
        assert str(exc.value) == message

    def test_missing_field_names_the_piece(self):
        data = json.loads(self._text())
        del data["pieces"][3]["s"]
        with pytest.raises(ValueError) as exc:
            certificate_from_json(json.dumps(data))
        assert str(exc.value) == "piece 3: certificate JSON missing field 's'"

    def test_parsed_columns_are_floats(self):
        cert = certificate_from_json(
            '{"kind": "sign", "target": 2, "side": "below", "pieces": '
            '[{"lo": 0, "hi": 1, "s": 0, "fs": 0, "delta": 1}]}')
        assert cert == SignCertificate(2.0, Side.BELOW, (0.0,), (1.0,), (0.0,), (0.0,), (1.0,))
        assert all(type(v) is float for v in cert.lo + cert.hi + cert.s + cert.fs + cert.delta)
