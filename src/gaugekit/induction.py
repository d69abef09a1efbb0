"""Generic interval induction: creep right, close limits from the left.

The engine maintains a frontier ``s`` (starting at ``dom.lo``) together
with the list of leaf witnesses that tile ``[dom.lo, s]``.  Each iteration
asks the local oracle for a certified step ``[s, t]``, lets the oracle's
combiner check it against the previous leaf, and appends it.  Reaching
``dom.hi`` yields one witness whose leaves tile the whole domain.

When forward progress dies out short of ``dom.hi`` — the oracle refuses,
or steps shrink below ``progress_eps`` — the frontier approximates the
accumulation point that blocks the creep.  If the oracle can certify
intervals from the left, the engine probes ahead (without committing) to
estimate that point ``s*``, asks ``left(s*, hint=frontier)`` for a
certificate of exactly ``[frontier, s*]``, and resumes from ``s*``.
Otherwise it returns a :class:`StallDiagnostic` carrying the frontier;
for the applications in :mod:`gaugekit.analysis` that frontier *is* the
answer (a root, a near-maximum).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Union

from .errors import GaugekitError
from .intervals import Interval


class MalformedOracleError(GaugekitError):
    """The oracle broke its contract (bad step direction or witness span)."""


@dataclass(frozen=True)
class Witness:
    """Checkable evidence that ``interval`` has the certified property.

    Leaves come from oracles and carry application data in ``payload``;
    a combined witness lists in ``leaves``, left to right, the witnesses
    that tile its interval.
    """

    interval: Interval
    payload: Any = None
    leaves: Optional[tuple["Witness", ...]] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaves is None

    def __repr__(self) -> str:
        shape = "leaf" if self.is_leaf else "combined"
        return f"Witness([{self.interval.lo!r}, {self.interval.hi!r}], {shape})"


@dataclass(frozen=True)
class Incompatible:
    """Returned by a combiner that forbids two adjacent witnesses."""

    reason: str = ""


def combine_adjacent(w1: Witness, w2: Witness, payload: Any = None) -> Witness:
    """Structural combiner: one flat witness whose leaves are those of w1
    then those of w2 (a leaf counts as its own single leaf)."""
    if w1.interval.hi != w2.interval.lo:
        raise MalformedOracleError(
            f"witnesses are not adjacent: [{w1.interval.lo!r}, {w1.interval.hi!r}] then "
            f"[{w2.interval.lo!r}, {w2.interval.hi!r}]")
    own = lambda w: (w,) if w.leaves is None else w.leaves
    return Witness(Interval(w1.interval.lo, w2.interval.hi), payload, own(w1) + own(w2))


RightFn = Callable[[float], Optional[tuple[float, Witness]]]
LeftFn = Callable[[float, float], Optional[tuple[float, Witness]]]
CombineFn = Callable[[Witness, Witness], Any]


@dataclass(frozen=True)
class LocalOracle:
    """Local certificate producers.

    ``right(s)`` returns ``(t, w)`` with ``s < t <= dom.hi`` and
    ``w.interval == [s, t]``, or None to refuse.  ``combine(w1, w2)`` is a
    pairwise check, called on each pair of adjacent leaves as the second is
    committed: returning :class:`Incompatible` stops the run, and any other
    result is ignored.
    ``left(s_star, hint)``, if present, returns ``(hint, w)`` with
    ``w.interval == [hint, s_star]``, or None to refuse; it is only ever
    called with ``hint`` equal to the current frontier, so no committed
    leaf is ever truncated or split.  All three must be deterministic
    and reentrant.
    """

    right: RightFn
    combine: CombineFn
    left: Optional[LeftFn] = None


@dataclass(frozen=True)
class InductionPolicy:
    max_steps: int = 1_000_000
    progress_eps: float = 1e-12
    max_limit_closures: int = 64

    def __post_init__(self):
        if self.max_steps <= 0 or self.max_limit_closures <= 0:
            raise ValueError("policy caps must be positive")
        if not self.progress_eps > 0.0:
            raise ValueError("progress_eps must be positive")


class StallReason(Enum):
    ORACLE_REFUSED = "oracle_refused"
    PROGRESS_UNDERFLOW = "progress_underflow"
    CAP_EXCEEDED = "cap_exceeded"
    COMBINE_INCOMPATIBLE = "combine_incompatible"


@dataclass(frozen=True)
class StallDiagnostic:
    """Where and why the creep stopped.

    ``frontier`` is the best point with a witnessed ``[dom.lo, frontier]``
    (the witness itself is ``witness_so_far``, None when nothing was
    committed); it approximates the supremum of reachable points.
    """

    frontier: float
    witness_so_far: Optional[Witness]
    reason: StallReason
    incompatible: Optional[Incompatible] = None

    @property
    def step_history(self) -> tuple[tuple[float, float], ...]:
        """The committed steps ``(s, t)``, read off the leaves of ``witness_so_far``."""
        if self.witness_so_far is None:
            return ()
        return tuple((w.interval.lo, w.interval.hi) for w in self.witness_so_far.leaves)


def _checked_right(oracle: LocalOracle, s: float, b: float) -> Optional[tuple[float, Witness]]:
    res = oracle.right(s)
    if res is None:
        return None
    t, w = res
    if t < s or t > b:
        raise MalformedOracleError(f"right({s!r}) stepped to {t!r}, outside ]s, {b!r}]")
    if t > s and (w.interval.lo != s or w.interval.hi != t):
        raise MalformedOracleError(
            f"right({s!r}) returned a witness spanning "
            f"[{w.interval.lo!r}, {w.interval.hi!r}] instead of [{s!r}, {t!r}]")
    return t, w


def run_induction(oracle: LocalOracle, dom: Interval,
                  policy: InductionPolicy = InductionPolicy(), *,
                  trace: list | None = None) -> Union[Witness, StallDiagnostic]:
    """Drive the oracle across ``dom``; see the module docstring.

    A step whose progress ``t - s`` is below ``policy.progress_eps`` is not
    committed: the frontier stays where the witness ends, which is what
    makes the stall frontier carry its quantitative meaning (the refused
    step bounds how close the oracle's local gap has shrunk to zero).

    ``trace``, if given, receives one ``(s, t)`` pair per committed step.

    Raises:
        ValueError: if dom is degenerate.
        MalformedOracleError: if the oracle breaks its contract.
    """
    a, b = dom.lo, dom.hi
    if not a < b:
        raise ValueError(f"domain must be nondegenerate, got [{a!r}, {b!r}]")

    s = a
    leaves: list[Witness] = []
    combine = oracle.combine
    steps = 0
    closures = 0

    def diag(reason: StallReason, bad: Incompatible | None = None) -> StallDiagnostic:
        so_far = Witness(Interval(a, s), None, tuple(leaves)) if leaves else None
        return StallDiagnostic(s, so_far, reason, bad)

    def commit(t: float, w: Witness) -> Incompatible | None:
        nonlocal s
        if leaves:
            bad = combine(leaves[-1], w)
            if isinstance(bad, Incompatible):
                return bad
        leaves.append(w)
        if trace is not None:
            trace.append((s, t))
        s = t
        return None

    def probe_limit(start: float) -> float:
        # Creep onward without committing, to estimate the accumulation
        # point; witnesses seen here are discarded (oracles are pure).
        nonlocal steps
        p = start
        while p < b and steps < policy.max_steps:
            steps += 1
            res = _checked_right(oracle, p, b)
            if res is None:
                break
            t, _ = res
            if t <= p:
                break
            p = t
        return p

    while s < b:
        if steps >= policy.max_steps:
            return diag(StallReason.CAP_EXCEEDED)
        steps += 1
        res = _checked_right(oracle, s, b)

        if res is not None:
            t, w = res
            if t == b or t - s >= policy.progress_eps:
                bad = commit(t, w)
                if bad is not None:
                    return diag(StallReason.COMBINE_INCOMPATIBLE, bad)
                continue
            reason = StallReason.PROGRESS_UNDERFLOW
            probe_start = t if t > s else s
        else:
            reason = StallReason.ORACLE_REFUSED
            probe_start = s

        # Stalled at s: try to close the limit from the left.
        if oracle.left is None or closures >= policy.max_limit_closures or probe_start == s:
            return diag(reason)
        s_star = probe_limit(probe_start)
        if not s_star > s:
            return diag(reason)
        closure = oracle.left(s_star, s)
        if closure is None:
            return diag(reason)
        r, lw = closure
        if r != s or lw.interval.lo != s or lw.interval.hi != s_star:
            raise MalformedOracleError(
                f"left({s_star!r}, hint={s!r}) must certify exactly [{s!r}, {s_star!r}], "
                f"got r={r!r} spanning [{lw.interval.lo!r}, {lw.interval.hi!r}]")
        closures += 1
        bad = commit(s_star, lw)
        if bad is not None:
            return diag(StallReason.COMBINE_INCOMPATIBLE, bad)

    return Witness(dom, None, tuple(leaves))


def verify_witness(w: Witness, dom: Interval,
                   leaf_check: Callable[[Witness], bool]) -> bool:
    """Independently replay a witness.

    True iff ``w`` spans ``dom`` exactly, its leaves (``w`` itself when it
    has none) tile ``dom`` left to right, and each leaf passes
    ``leaf_check``.  Leaves are not descended into: a combined witness that
    an oracle returned as a leaf is handed to ``leaf_check`` whole.
    """
    if w.interval.lo != dom.lo or w.interval.hi != dom.hi:
        return False
    edge = dom.lo
    for leaf in (w,) if w.leaves is None else w.leaves:
        if leaf.interval.lo != edge or not leaf_check(leaf):
            return False
        edge = leaf.interval.hi
    return edge == dom.hi
