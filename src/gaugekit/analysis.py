"""Certified sign, bound, root, and extremum computations.

All functions take a caller-supplied modulus of continuity; nothing here
infers continuity from samples.  The same machinery serves two purposes:
a run that completes produces a replayable certificate tiling the domain
with per-cell evidence, and a run that stalls localizes the obstruction —
a root for sign certification, a near-maximum for bound certification.
Stalls are therefore results, not errors.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Union

from .errors import CapExceededError, GaugekitError
from .induction import (
    Incompatible,
    InductionPolicy,
    LocalOracle,
    StallDiagnostic,
    StallReason,
    Witness,
    run_induction,
)
from .intervals import (
    Interval,
    _json_document,
    _json_fill,
    _json_rows,
    _require_number,
    _spelled_ends,
    _spelling,
)


class MalformedModulusError(GaugekitError):
    """The modulus produced a nonpositive or non-finite step."""


class TargetHitExactlyError(GaugekitError):
    """f(x) == y was observed: no sign certificate exists, root is exact."""

    def __init__(self, x: float):
        super().__init__(f"target value attained exactly at x={x!r}")
        self.x = x


class BoundViolatedError(GaugekitError):
    """f(x) >= M was observed while certifying f < M."""

    def __init__(self, x: float, value: float):
        super().__init__(f"bound violated: f({x!r}) = {value!r}")
        self.x = x
        self.value = value


class NoSignChangeError(GaugekitError):
    """Root finding requires f - y to change sign across the domain."""


# --- Moduli of continuity ---------------------------------------------------


class ModulusOfContinuity:
    """Computable map epsilon -> delta quantifying continuity.

    ``step(eps)`` is the largest radius within which f is guaranteed to
    vary by at most eps; it must be positive for positive eps and
    nondecreasing.  ``span_bound(width)`` bounds how much f can vary
    across any two points at distance <= width.
    """

    def step(self, eps: float) -> float:
        raise NotImplementedError

    def span_bound(self, width: float) -> float:
        raise NotImplementedError

    def checked_step(self, eps: float) -> float:
        delta = self.step(eps)
        if not (delta > 0.0 and math.isfinite(delta)):
            raise MalformedModulusError(f"step({eps!r}) = {delta!r} is not a positive real")
        return delta


@dataclass(frozen=True)
class Lipschitz(ModulusOfContinuity):
    """|f(x) - f(y)| <= constant * |x - y|."""

    constant: float

    def __post_init__(self):
        if not self.constant > 0.0:
            raise ValueError(f"Lipschitz constant must be positive, got {self.constant!r}")

    def step(self, eps: float) -> float:
        return eps / self.constant

    def span_bound(self, width: float) -> float:
        return self.constant * width


@dataclass(frozen=True)
class Hoelder(ModulusOfContinuity):
    """|f(x) - f(y)| <= coefficient * |x - y| ** exponent, exponent in (0, 1]."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not self.coefficient > 0.0:
            raise ValueError(f"Hoelder coefficient must be positive, got {self.coefficient!r}")
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError(f"Hoelder exponent must lie in (0, 1], got {self.exponent!r}")

    def step(self, eps: float) -> float:
        return (eps / self.coefficient) ** (1.0 / self.exponent)

    def span_bound(self, width: float) -> float:
        return self.coefficient * width ** self.exponent


@dataclass(frozen=True)
class CustomModulus(ModulusOfContinuity):
    """Caller-supplied omega: eps -> delta, trusted as given (positive,
    nondecreasing)."""

    omega: Callable[[float], float]

    def step(self, eps: float) -> float:
        return self.omega(eps)

    def span_bound(self, width: float) -> float:
        # smallest power-of-two scaling of width whose step covers width;
        # sound for any nondecreasing omega, within 2x of tight
        eps = width if width > 0.0 else 1.0
        for _ in range(200):
            if self.checked_step(eps) >= width:
                return eps
            eps *= 2.0
        raise MalformedModulusError("omega never reaches the domain width")


# --- Certificates -----------------------------------------------------------


class Side(Enum):
    BELOW = "below"
    ABOVE = "above"


@dataclass(frozen=True, slots=True)
class CertificatePiece:
    """One tile: at ``sample`` the function was ``value``; the claimed
    inequality holds on all of ``cell`` because cell fits inside
    [sample - radius, sample + radius] and radius <= step(half-gap).

    Certificates keep their pieces as columns; this is the object view
    that their ``pieces`` property builds."""

    cell: Interval
    sample: float
    value: float
    radius: float


class _PieceColumns:
    """The piece columns a certificate shares: piece i is the cell
    ``[lo[i], hi[i]]``, where ``f(s[i]) == fs[i]`` and the cell lies within
    radius ``delta[i]`` of ``s[i]``.

    The five columns are parallel tuples, named as in the wire format and
    stored as given: nothing is converted or checked per piece, so that the
    verifiers can be fed broken inputs (pieces out of order, gaps, zero
    widths).
    """

    _COLUMNS = ("lo", "hi", "s", "fs", "delta")

    def __post_init__(self):
        for name in self._COLUMNS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len({len(getattr(self, name)) for name in self._COLUMNS}) > 1:
            raise ValueError("certificate columns differ in length: " + ", ".join(
                f"{name} {len(getattr(self, name))}" for name in self._COLUMNS))

    @property
    def pieces(self) -> tuple[CertificatePiece, ...]:
        """The pieces as :class:`CertificatePiece` objects, built anew on
        each access; loops over a certificate should read the columns."""
        return tuple(CertificatePiece(Interval(lo, hi), s, fs, delta)
                     for lo, hi, s, fs, delta in zip(self.lo, self.hi, self.s, self.fs,
                                                     self.delta))

    @property
    def domain(self) -> Interval:
        return Interval(self.lo[0], self.hi[-1])


@dataclass(frozen=True)
class SignCertificate(_PieceColumns):
    """Evidence that f stays strictly on one side of ``target`` on a tiling."""

    target: float
    side: Side
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    s: tuple[float, ...]
    fs: tuple[float, ...]
    delta: tuple[float, ...]


@dataclass(frozen=True)
class BoundCertificate(_PieceColumns):
    """Evidence that f < ``bound`` on a tiling."""

    bound: float
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    s: tuple[float, ...]
    fs: tuple[float, ...]
    delta: tuple[float, ...]


@dataclass(frozen=True)
class StallAtRoot:
    """Sign certification stalled: f approaches ``point``'s value of y there."""

    point: float
    diagnostic: StallDiagnostic


@dataclass(frozen=True)
class StallNearMax:
    """Bound certification stalled: samples approach the bound near ``point``."""

    point: float
    diagnostic: StallDiagnostic


@dataclass(frozen=True)
class RootResult:
    c: float
    residual_bound: float


@dataclass(frozen=True)
class SupEstimate:
    """Bracket sup in [sup_lo, sup_hi]; sup_lo is an attained sample value
    and ``argmax_candidate`` is the point attaining it."""

    sup_lo: float
    sup_hi: float
    argmax_candidate: float


Fn = Callable[[float], float]

_GRID_INTERIOR = 64
_CERTIFY_ATTEMPTS = 8


def _sample_grid(dom: Interval) -> list[float]:
    n = _GRID_INTERIOR + 1
    pts = [dom.lo + k * (dom.hi - dom.lo) / n for k in range(n)]
    pts.append(dom.hi)
    return pts


def _one_sided_creep(f: Fn, target: float, dom: Interval, mod: ModulusOfContinuity,
                     policy: InductionPolicy | None, trace: list | None, bound: bool,
                     ) -> Union[tuple[tuple[float, ...], ...], StallDiagnostic]:
    """The creep behind both one-sided certificates: the columns ``(lo, hi,
    s, fs, delta)`` of pieces of radius step(|f(s) - target| / 2), all on
    one side of target, or the stall.  f(s) == target raises
    TargetHitExactlyError; with ``bound`` set, any f(s) >= target raises
    BoundViolatedError instead.

    Each leaf the oracle returns spans ``[s, t]`` and carries ``(fs,
    delta)``; the sample is the leaf's ``lo``, so ``s`` is the ``lo``
    column itself."""
    b = dom.hi

    def right(s: float):
        fs = f(s)
        if bound:
            if fs >= target:
                raise BoundViolatedError(s, fs)
        elif fs == target:
            raise TargetHitExactlyError(s)
        delta = mod.checked_step(abs(fs - target) / 2.0)
        t = min(b, s + delta)
        if t <= s:
            return None
        return t, Witness(Interval(s, t), (fs, delta))

    def combine(w1: Witness, w2: Witness):
        if (w1.payload[0] < target) is not (w2.payload[0] < target):
            return Incompatible(f"side flips across {w2.interval.lo!r}")
        return None

    result = run_induction(LocalOracle(right, combine), dom, policy or InductionPolicy(),
                           trace=trace)
    if isinstance(result, StallDiagnostic):
        if result.reason is StallReason.CAP_EXCEEDED:
            raise CapExceededError(f"step budget exhausted at frontier {result.frontier!r}")
        return result
    leaves = result.leaves
    lo = tuple([w.interval.lo for w in leaves])
    fs, delta = zip(*[w.payload for w in leaves])
    return lo, tuple([w.interval.hi for w in leaves]), lo, fs, delta


# --- Sign certification / IVT -----------------------------------------------


def no_root_certificate(f: Fn, y: float, dom: Interval, mod: ModulusOfContinuity,
                        policy: InductionPolicy | None = None, *,
                        trace: list | None = None,
                        ) -> Union[SignCertificate, StallAtRoot]:
    """Certify that f stays strictly on one side of y, or localize a root.

    At each sample s the local gap |f(s) - y| licenses a cell of radius
    step(gap / 2); the half-gap choice means f cannot cross y within the
    cell, so adjacent cells always agree in side when the modulus is
    valid.  A stall means the gap shrank to nothing: the frontier is a
    point where f(x) is provably within 2 * (inverse step)(progress_eps)
    of y.

    Raises:
        TargetHitExactlyError: if f(s) == y is evaluated.
        MalformedModulusError, CapExceededError
    """
    columns = _one_sided_creep(f, y, dom, mod, policy, trace, False)
    if isinstance(columns, StallDiagnostic):
        return StallAtRoot(columns.frontier, columns)
    fs = columns[3]
    return SignCertificate(y, Side.BELOW if fs[0] < y else Side.ABOVE, *columns)


def find_root(f: Fn, y: float, dom: Interval, mod: ModulusOfContinuity,
              tol: float, *, policy: InductionPolicy | None = None,
              trace: list | None = None) -> RootResult:
    """Locate c with |f(c) - y| <= tol, given a sign change across dom.

    Runs sign certification with progress_eps = step(tol / 2): when the
    creep stalls at c, the refused step there was below step(tol / 2), so
    the local gap satisfies |f(c) - y| < tol.  The returned residual bound
    is the recomputed |f(c) - y| itself.

    Raises:
        NoSignChangeError, MalformedModulusError, CapExceededError
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    fa, fb = f(dom.lo), f(dom.hi)
    if fa == y:
        return RootResult(dom.lo, 0.0)
    if fb == y:
        return RootResult(dom.hi, 0.0)
    if (fa > y) == (fb > y):
        raise NoSignChangeError(
            f"f - y does not change sign: f({dom.lo!r}) = {fa!r}, f({dom.hi!r}) = {fb!r}")

    eps_step = mod.checked_step(tol / 2.0)
    base = policy or InductionPolicy()
    run_policy = replace(base, progress_eps=eps_step)
    try:
        result = no_root_certificate(f, y, dom, mod, run_policy, trace=trace)
    except TargetHitExactlyError as hit:
        return RootResult(hit.x, 0.0)
    if isinstance(result, SignCertificate):
        raise MalformedModulusError(
            "a one-sided certificate covered a sign change; the supplied modulus "
            "cannot be valid for f")
    c = result.point
    return RootResult(c, abs(f(c) - y))


# --- Bound certification / EVT ----------------------------------------------


def bound_certificate(f: Fn, bound: float, dom: Interval, mod: ModulusOfContinuity,
                      policy: InductionPolicy | None = None, *,
                      trace: list | None = None,
                      ) -> Union[BoundCertificate, StallNearMax]:
    """Certify f < bound on dom, or report where f approaches the bound.

    A coarse grid is scanned first: any sample with f >= bound raises
    BoundViolatedError immediately (reporting the worst grid point).
    Otherwise the creep runs with per-cell radius step((bound - f(s)) / 2);
    a stall means samples climbed to within 2 * (inverse step)(progress_eps)
    of the bound near the frontier.

    Raises:
        BoundViolatedError: if f(s) >= bound is observed.
        MalformedModulusError, CapExceededError
    """
    worst_x, worst_v = dom.lo, -math.inf
    for x in _sample_grid(dom):
        v = f(x)
        if v > worst_v:
            worst_x, worst_v = x, v
    if worst_v >= bound:
        raise BoundViolatedError(worst_x, worst_v)

    columns = _one_sided_creep(f, bound, dom, mod, policy, trace, True)
    if isinstance(columns, StallDiagnostic):
        return StallNearMax(columns.frontier, columns)
    return BoundCertificate(bound, *columns)


def _bound_above(best: float, tol: float) -> float:
    """The largest binary64 M with M - best <= tol in exact arithmetic, or
    the next float above best when tol is below the float spacing there."""
    m = best + tol
    while math.fsum((m, -best, -tol)) > 0.0:  # fsum is exact in sign
        m = math.nextafter(m, -math.inf)
    return max(m, math.nextafter(best, math.inf))


def approx_sup(f: Fn, dom: Interval, mod: ModulusOfContinuity, tol: float, *,
               policy: InductionPolicy | None = None,
               on_certificate: Callable[[BoundCertificate], None] | None = None,
               ) -> SupEstimate:
    """Bracket sup f over dom to within tol: a branch-and-bound search, then
    one bound certificate.

    Search (Piyavskii-Shubert): the cells between the grid samples sit on a
    max-heap keyed by the upper bound max(f(x1), f(x2)) + span_bound(width / 2),
    which holds for any modulus because every point of a cell lies within
    width / 2 of an endpoint.  The top cell is split at its midpoint until no
    cell can exceed the best sample by more than tol / 2.  Each split costs
    one f-evaluation and counts against ``policy.max_steps``.

    Certificate: a single bound_certificate at M, the largest binary64 with
    M - best <= tol, run with progress_eps = step(tol / 8).  As sup <= best
    + tol / 2, the creep cannot stall when the modulus is valid.  A violation
    or a stall raises best to the value it found and the certificate is
    retried at the new M, a bounded number of times.  The certified pieces
    may raise best further.  When tol is below the float spacing at best, M
    is the next float above best: the narrowest bracket binary64 allows.

    The lower end is an attained sample value and the upper end is the bound
    of the one certificate passed to ``on_certificate``, so sup lies in
    [sup_lo, sup_hi].

    Raises:
        CapExceededError: if the search or the certificate runs over budget,
            or no certificate holds after the retries.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    base = policy or InductionPolicy()
    cert_policy = replace(base, progress_eps=mod.checked_step(tol / 8.0))
    half_tol = tol / 2.0
    best_x, best_v = dom.lo, -math.inf
    splits = 0

    def sample(x: float) -> float:
        nonlocal best_x, best_v
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
        return v

    heap: list[tuple[float, float, float, float, float]] = []

    def push(x1: float, v1: float, x2: float, v2: float):
        top = max(v1, v2) + mod.span_bound((x2 - x1) / 2.0)
        if top - best_v > half_tol:
            heapq.heappush(heap, (-top, x1, v1, x2, v2))

    xs = _sample_grid(dom)
    vs = [sample(x) for x in xs]
    for i in range(len(xs) - 1):
        push(xs[i], vs[i], xs[i + 1], vs[i + 1])
    while heap and -heap[0][0] - best_v > half_tol:
        _, x1, v1, x2, v2 = heapq.heappop(heap)
        m = 0.5 * (x1 + x2)
        if not x1 < m < x2:
            continue  # binary64 cannot split the cell further
        splits += 1
        if splits > base.max_steps:
            raise CapExceededError(f"sup search exceeded {base.max_steps} splits")
        vm = sample(m)
        push(x1, v1, m, vm)
        push(m, vm, x2, v2)

    for _ in range(_CERTIFY_ATTEMPTS):
        bound = _bound_above(best_v, tol)
        try:
            result = bound_certificate(f, bound, dom, mod, cert_policy)
        except BoundViolatedError as hit:
            x, v = hit.x, hit.value
        else:
            if isinstance(result, BoundCertificate):
                for x, v in zip(result.s, result.fs):
                    if v > best_v:
                        best_x, best_v = x, v
                if on_certificate is not None:
                    on_certificate(result)
                return SupEstimate(best_v, bound, best_x)
            x = result.point
            v = f(x)
        if not v > best_v:
            break  # a retry at the same bound would stall again
        best_x, best_v = x, v
    raise CapExceededError(
        f"no bound certificate within tol {tol!r} above {best_v!r}; "
        "the modulus may not be valid for f")


def approx_inf(f: Fn, dom: Interval, mod: ModulusOfContinuity, tol: float, *,
               policy: InductionPolicy | None = None,
               on_certificate: Callable[[BoundCertificate], None] | None = None,
               ) -> SupEstimate:
    """Bracket inf f: approx_sup applied to -f with the results negated.

    In the returned estimate the bracket [sup_lo, sup_hi] contains the
    infimum, the *upper* end is the attained sample value, and
    ``argmax_candidate`` is the near-minimizer.  The certificate passed to
    ``on_certificate`` is for -f, with bound -sup_lo.
    """
    neg = approx_sup(lambda x: -f(x), dom, mod, tol, policy=policy,
                     on_certificate=on_certificate)
    return SupEstimate(-neg.sup_hi, -neg.sup_lo, neg.argmax_candidate)


# --- Independent certificate replay ------------------------------------------


def _replay_pieces(cert: Union[SignCertificate, BoundCertificate], f: Fn,
                   mod: ModulusOfContinuity, target: float, side: Side) -> bool:
    """Replay the pieces of a certificate that f stays on ``side`` of
    ``target``: a bound certificate is the ``below`` case.

    Pieces are checked left to right and the first failed check ends the
    replay, so f is evaluated at no piece past the first bad one."""
    lo, hi = cert.lo, cert.hi
    if not lo:
        return False
    n = len(lo)
    # tuple equality compares with ==, so a -0.0/0.0 junction is contiguous;
    # a break ends the replay at the piece that starts away from its neighbour
    if hi[:-1] != lo[1:]:
        n = next(i for i in range(1, n) if hi[i - 1] != lo[i])
    below = side is Side.BELOW
    for l, h, s, fs, delta in zip(lo[:n], hi, cert.s, cert.fs, cert.delta):
        if not l < h:
            return False
        if not (s - delta <= l and h <= s + delta):
            return False
        if f(s) != fs:
            return False
        gap = target - fs if below else fs - target
        if not gap > 0.0:
            return False
        try:
            if not delta <= mod.checked_step(gap / 2.0):
                return False
        except MalformedModulusError:
            return False
    return n == len(lo)


def verify_sign_certificate(cert: SignCertificate, f: Fn,
                            mod: ModulusOfContinuity) -> bool:
    """Replay a sign certificate from scratch; True iff every check holds."""
    return _replay_pieces(cert, f, mod, cert.target, cert.side)


def verify_bound_certificate(cert: BoundCertificate, f: Fn,
                             mod: ModulusOfContinuity) -> bool:
    """Replay a bound certificate from scratch; True iff every check holds."""
    return _replay_pieces(cert, f, mod, cert.bound, Side.BELOW)


# --- JSON wire format ---------------------------------------------------------
#
# {"kind": "sign"|"bound", "target": y_or_M, "side": "below"|"above",
#  "pieces": [{"lo": .., "hi": .., "s": .., "fs": .., "delta": ..}, ...]}

_CERTIFICATE_HEAD = '{\n  "kind": %s,\n  "target": %s,\n  "side": %s,\n  "pieces": ['
# the piece template's text around its five values
_PIECE = ('    {\n      "lo": %s,\n      "hi": %s,\n      "s": %s,\n'
          '      "fs": %s,\n      "delta": %s\n    }').split("%s")


def _certificate_head(cert: Union[SignCertificate, BoundCertificate]) -> tuple:
    """(kind, target, side) of a certificate's wire form."""
    if isinstance(cert, SignCertificate):
        return "sign", cert.target, cert.side.value
    return "bound", cert.bound, Side.BELOW.value


def certificate_to_dict(cert: Union[SignCertificate, BoundCertificate]) -> dict:
    kind, target, side = _certificate_head(cert)
    return {
        "kind": kind,
        "target": target,
        "side": side,
        "pieces": [
            {"lo": lo, "hi": hi, "s": s, "fs": fs, "delta": delta}
            for lo, hi, s, fs, delta in zip(cert.lo, cert.hi, cert.s, cert.fs, cert.delta)
        ],
    }


def certificate_to_json(cert: Union[SignCertificate, BoundCertificate]) -> str:
    """The certificate as ``json.dumps(certificate_to_dict(cert), indent=2)`` writes it.

    As in ``partition_to_json``, each float object is spelled once: the
    creep's sample ``s`` is its cell's ``lo`` and a cell's ``hi`` is the
    next cell's ``lo``, and each reuses that spelling.  Sharing is tested
    with ``is``, never ``==``, because ``-0.0 == 0.0`` and the two are
    spelled differently.
    """
    head = _json_fill(_CERTIFICATE_HEAD, [_certificate_head(cert)])[0]
    lo, hi, s, fs, delta = cert.lo, cert.hi, cert.s, cert.fs, cert.delta
    if not lo:
        return _json_document(head, [])
    spell = _spelling(lo, hi, s, fs, delta)
    s_lo, s_hi = _spelled_ends(lo, hi, spell)
    s_s = [sl if x is l else spell(x) for x, l, sl in zip(s, lo, s_lo)]
    return _json_rows(head, _PIECE, [s_lo, s_hi, s_s, list(map(spell, fs)),
                                     list(map(spell, delta))])


def certificate_from_dict(data: dict) -> Union[SignCertificate, BoundCertificate]:
    """Rebuild a certificate from its wire form.

    Each piece must have finite ends in order, as :class:`Interval`
    requires; an error in a piece names its index.

    Raises:
        ValueError: if the data does not match the schema.
    """
    if not isinstance(data, dict):
        raise ValueError("certificate JSON must be an object")
    kind = data.get("kind")
    if kind not in ("sign", "bound"):
        raise ValueError(f"certificate kind must be 'sign' or 'bound', got {kind!r}")
    target = _require_number(data, "target", "certificate")
    raw_pieces = data.get("pieces")
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise ValueError("certificate JSON needs a nonempty 'pieces' list")
    columns: tuple[list[float], ...] = ([], [], [], [], [])
    lo, hi, s, fs, delta = columns
    for i, p in enumerate(raw_pieces):
        try:
            l = _require_number(p, "lo", "certificate")
            h = _require_number(p, "hi", "certificate")
            if not -math.inf < l <= h < math.inf:
                Interval(l, h)  # raises, with the message a domain gets
            x = _require_number(p, "s", "certificate")
            v = _require_number(p, "fs", "certificate")
            r = _require_number(p, "delta", "certificate")
        except ValueError as e:
            raise ValueError(f"piece {i}: {e}") from None
        lo.append(l)
        hi.append(h)
        s.append(x)
        fs.append(v)
        delta.append(r)
    side_raw = data.get("side")
    if kind == "bound":
        if side_raw != Side.BELOW.value:
            raise ValueError(f"bound certificate side must be 'below', got {side_raw!r}")
        return BoundCertificate(target, *columns)
    try:
        side = Side(side_raw)
    except ValueError:
        raise ValueError(f"certificate side must be 'below' or 'above', got {side_raw!r}") from None
    return SignCertificate(target, side, *columns)


def certificate_from_json(text: str) -> Union[SignCertificate, BoundCertificate]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed certificate JSON: {e}") from None
    return certificate_from_dict(data)
