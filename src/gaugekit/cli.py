"""Command-line front end.

Subcommands: ``partition | check | root | extremum | certify | verify``.
Output is machine-readable (JSON by default) and fully deterministic:
identical inputs produce byte-identical output.  Every partition or
certificate is re-checked in-process before it is emitted, and so is the
bound certificate behind an extremum bracket; an artifact that fails its
own checker is an internal error (exit 70), never output.

Exit codes:
    0   success
    1   check/verify found violations
    2   partitioning failed (stall or depth exhausted); diagnostic on stdout
    3   no sign change across the interval (root)
    4   iteration budget exceeded
    5   certification failed (stall, violated bound, or exact hit)
    64  usage error
    65  unparseable input data (expressions, gauges, files, domains),
        including input nested past the recursion limit
    70  internal error: a produced artifact failed its own checker
    73  cannot write stdout, or the --output or --trace file; both files
        are opened before the run, and --output is only replaced once
        there is a payload
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import stat
import sys
from typing import Callable, Iterable, Sequence

from . import analysis, cousin, expr
from .errors import CapExceededError
from .induction import InductionPolicy
from .intervals import (
    ConstantGauge,
    Gauge,
    GaugeNonpositiveError,
    Interval,
    PiecewiseConstantGauge,
    TaggedPartition,
    _json_fill,
    is_delta_fine,
    partition_from_json,
    partition_to_json,
    validate_partition,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARTITION_FAILED = 2
EXIT_NO_SIGN_CHANGE = 3
EXIT_CAP_EXCEEDED = 4
EXIT_CERTIFY_FAILED = 5
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73

ENV_MAX_STEPS = "GAUGEKIT_MAX_STEPS"


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _CantCreateError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's default pattern misses exponents, so "-1e-3" would be
        # taken for an option; subparsers are built from this class too
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def error(self, message):  # route argparse failures to exit 64
        raise _UsageError(message)


@contextlib.contextmanager
def _nesting_checked():
    """Report an expression too deep for the recursive parser, compiler or
    differentiator as a data error rather than a traceback."""
    try:
        yield
    except RecursionError:
        raise _DataError("expression nested too deeply") from None


def _parse_gauge_spec(spec: str) -> Gauge:
    kind, sep, body = spec.partition(":")
    if not sep:
        raise _DataError(f"gauge spec needs a 'const:', 'pw:', or 'expr:' prefix: {spec!r}")
    try:
        if kind == "const":
            return ConstantGauge(float(body))
        if kind == "pw":
            breakpoints, values = [], []
            for chunk in body.split(","):
                b, s2, v = chunk.partition(":")
                if not s2:
                    raise ValueError(f"piecewise entry {chunk!r} is not 'breakpoint:value'")
                breakpoints.append(float(b))
                values.append(float(v))
            return PiecewiseConstantGauge(tuple(breakpoints), tuple(values))
        if kind == "expr":
            with _nesting_checked():
                return expr.ExprGauge(expr.parse(body))
    except (ValueError, expr.ParseError) as e:
        raise _DataError(f"bad gauge spec {spec!r}: {e}") from None
    raise _DataError(f"unknown gauge kind {kind!r} (expected const, pw, or expr)")


def _parse_interval(values: Sequence[float]) -> Interval:
    lo, hi = values
    try:
        dom = Interval(lo, hi)
    except ValueError as e:
        raise _DataError(str(e)) from None
    if not dom.lo < dom.hi:
        raise _DataError(f"interval must be nondegenerate, got [{dom.lo!r}, {dom.hi!r}]")
    return dom


def _budget(flag: int | None, default: int) -> int:
    """The flag if it was given, else GAUGEKIT_MAX_STEPS if set, else ``default``."""
    if flag is not None:
        return flag
    raw = os.environ.get(ENV_MAX_STEPS)
    if raw is None:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise _DataError(f"{ENV_MAX_STEPS} must be an integer, got {raw!r}") from None
    if n <= 0:
        raise _DataError(f"{ENV_MAX_STEPS} must be positive, got {n}")
    return n


def _policy(args) -> InductionPolicy:
    return InductionPolicy(max_steps=_budget(args.max_steps, InductionPolicy.max_steps))


def _parsed_function(text: str):
    with _nesting_checked():
        try:
            ast = expr.parse(text)
        except expr.ParseError as e:
            raise _DataError(f"bad expression {text!r}: {e}") from None
        return ast, expr.as_function(ast)


def _lipschitz(args, ast, dom: Interval) -> analysis.Lipschitz:
    if args.lipschitz is not None:
        if not args.lipschitz > 0.0:
            raise _DataError(f"--lipschitz must be positive, got {args.lipschitz!r}")
        return analysis.Lipschitz(args.lipschitz)
    try:
        with _nesting_checked():
            return analysis.Lipschitz(expr.lipschitz_bound(ast, dom))
    except (expr.NotDifferentiableError, expr.EvalDomainError) as e:
        raise _DataError(f"cannot derive a Lipschitz bound (pass --lipschitz): {e}") from None


def _open_for_writing(path: str, what: str, mode: str = "w"):
    try:
        return open(path, mode)
    except OSError as e:
        raise _CantCreateError(f"cannot write {what}: {e}") from None


@contextlib.contextmanager
def _output_file(path: str | None):
    """Yield ``path`` opened for appending, or None (stdout) when there is no
    path.  The file is opened before the run, so an unwritable path fails
    first; it is created but not truncated, so a run that ends without a
    payload leaves an existing file as it was."""
    if path is None:
        yield None
        return
    with _open_for_writing(path, "output file", "a") as fh:
        yield fh


def _write_output(args, text: str):
    """Write ``text`` and a final newline to ``--output`` (replacing what the
    file held) or stdout."""
    out = args.output_file
    if out is None:
        out = sys.stdout
    elif stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        # only regular files can be truncated; devices and pipes take the
        # payload as it is written
        out.truncate(0)
    out.write(text)
    out.write("\n")
    out.flush()  # so a stdout whose reader has gone fails here, not at exit


def _csv_field(value) -> str:
    """Floats as repr, strings as they are, anything else as JSON spells it."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _write_csv(args, header: list[str], rows: Iterable[Sequence]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_field(v) for v in row] for row in rows)
    print("note: csv output is lossy; use json for replayable artifacts",
          file=sys.stderr)
    _write_output(args, buf.getvalue()[:-1])  # which adds the last newline back


def _flat_items(payload: dict, prefix: str = ""):
    """``(key, value)`` pairs of ``payload`` with nested dicts spread into
    dotted keys, e.g. ``stall.frontier``."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _flat_items(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _emit(args, payload: dict, human: str | None = None):
    """Write a small payload: indented JSON, one csv row, or ``human`` (the
    JSON again when there is none)."""
    flat = dict(_flat_items(payload))
    _emit_artifact(args, lambda: json.dumps(payload, indent=2), list(flat),
                   lambda: [list(flat.values())], None if human is None else lambda: human)


def _emit_artifact(args, to_json: Callable[[], str], header: list[str],
                   rows: Callable[[], Iterable[Sequence]],
                   human: Callable[[], str] | None = None):
    """Write a partition or certificate, building only the requested format:
    ``to_json()``, csv ``header`` over ``rows()``, or ``human()`` (the JSON
    again when there is none)."""
    if args.format == "csv":
        _write_csv(args, header, rows())
    elif args.format == "human" and human is not None:
        _write_output(args, human())
    else:
        _write_output(args, to_json())


@contextlib.contextmanager
def _step_trace(path: str | None):
    """Yield the list the engine appends its ``(s, t)`` steps to, and write
    it to ``path`` as JSON lines however the run ends; yield None (nothing
    is recorded) when there is no path.  The file is opened first, so an
    unwritable path fails before the run."""
    if path is None:
        yield None
        return
    with _open_for_writing(path, "trace file") as fh:
        steps: list = []
        try:
            yield steps
        finally:
            fh.writelines(line + "\n" for line in _json_fill('{"s": %s, "t": %s}', steps))


def _self_check_partition(p: TaggedPartition, gauge: Gauge) -> str | None:
    report = validate_partition(p)
    if not report.ok:
        return f"produced partition is invalid: {report.violations[0].detail}"
    fine = is_delta_fine(p, gauge)
    if not fine.fine:
        return (f"produced partition is not delta-fine: cell {fine.first_violation} "
                f"overshoots by {fine.margin!r}")
    return None


# --- Subcommands --------------------------------------------------------------


def _cmd_partition(args) -> int:
    gauge = _parse_gauge_spec(args.gauge)
    dom = _parse_interval(args.interval)
    max_cells = _budget(args.max_cells, cousin.DEFAULT_MAX_CELLS)
    strategy = cousin.PartitionStrategy(cousin.StrategyKind(args.strategy),
                                        max_cells=max_cells, max_depth=args.max_depth)
    result = cousin.fine_partition(gauge, dom, strategy)
    if isinstance(result, cousin.PartitionFailure):
        payload: dict = {"status": "failed"}
        if result.stall is not None:
            payload["stall"] = {"frontier": result.stall.frontier,
                                "cells_emitted": len(result.stall.lo)}
        if result.depth_exceeded is not None:
            cell = result.depth_exceeded.deepest_cell
            payload["depth_exceeded"] = {"cell": {"lo": cell.lo, "hi": cell.hi}}
        _emit(args, payload)
        return EXIT_PARTITION_FAILED
    problem = _self_check_partition(result, gauge)
    if problem is not None:
        print(f"internal error: {problem}", file=sys.stderr)
        return EXIT_INTERNAL
    cells = lambda: zip(result.lo, result.hi, result.tag)
    _emit_artifact(args, lambda: partition_to_json(result), ["lo", "hi", "tag"], cells,
                   human=lambda: "\n".join(f"[{lo!r}, {hi!r}] tag {tag!r}"
                                           for lo, hi, tag in cells()))
    return EXIT_OK


def _cmd_check(args) -> int:
    gauge = _parse_gauge_spec(args.gauge)
    try:
        with open(args.partition) as fh:
            text = fh.read()
    except OSError as e:
        raise _DataError(f"cannot read partition file: {e}") from None
    try:
        p = partition_from_json(text)
    except (ValueError, RecursionError) as e:
        raise _DataError(str(e)) from None
    report = validate_partition(p)
    payload: dict = {
        "valid": report.ok,
        "violations": [{"index": v.index, "kind": v.kind, "detail": v.detail}
                       for v in report.violations],
    }
    fineness = is_delta_fine(p, gauge)
    payload["fine"] = fineness.fine
    payload["first_violation"] = fineness.first_violation
    payload["margin"] = fineness.margin
    ok = report.ok and fineness.fine
    _emit(args, payload, human="ok" if ok else None)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_root(args) -> int:
    dom = _parse_interval(args.interval)
    ast, f = _parsed_function(args.f)
    mod = _lipschitz(args, ast, dom)
    with _step_trace(args.trace) as trace:
        try:
            result = analysis.find_root(f, args.y, dom, mod, args.tol,
                                        policy=_policy(args), trace=trace)
        except analysis.NoSignChangeError as e:
            _emit(args, {"error": "no_sign_change", "detail": str(e)})
            return EXIT_NO_SIGN_CHANGE
    payload = {"c": result.c, "residual_bound": result.residual_bound}
    _emit(args, payload, human=f"c = {result.c!r} (|f(c) - y| <= {result.residual_bound!r})")
    return EXIT_OK


def _cmd_extremum(args) -> int:
    dom = _parse_interval(args.interval)
    ast, f = _parsed_function(args.f)
    mod = _lipschitz(args, ast, dom)
    certificates: list = []
    search = analysis.approx_sup if args.maximum else analysis.approx_inf
    est = search(f, dom, mod, args.tol, policy=_policy(args),
                 on_certificate=certificates.append)
    # the certificate bounds f by hi for --max, and -f by -lo for --min
    if args.maximum:
        certified_f, top = f, est.sup_hi
    else:
        certified_f, top = (lambda x: -f(x)), -est.sup_lo
    if not (certificates and certificates[-1].bound == top
            and analysis.verify_bound_certificate(certificates[-1], certified_f, mod)):
        print("internal error: the certificate behind the bracket failed its own checker",
              file=sys.stderr)
        return EXIT_INTERNAL
    payload = {"extremum": "max" if args.maximum else "min", "lo": est.sup_lo,
               "hi": est.sup_hi, "candidate": est.argmax_candidate}
    human = (f"{payload['extremum']} in [{payload['lo']!r}, {payload['hi']!r}], "
             f"candidate x = {payload['candidate']!r}")
    _emit(args, payload, human=human)
    return EXIT_OK


def _cmd_certify(args) -> int:
    dom = _parse_interval(args.interval)
    ast, f = _parsed_function(args.f)
    mod = _lipschitz(args, ast, dom)
    if args.no_root is not None:
        produce, verify, target = (analysis.no_root_certificate,
                                   analysis.verify_sign_certificate, args.no_root)
    else:
        produce, verify, target = (analysis.bound_certificate,
                                   analysis.verify_bound_certificate, args.bound)
    with _step_trace(args.trace) as trace:
        try:
            result = produce(f, target, dom, mod, _policy(args), trace=trace)
        except analysis.TargetHitExactlyError as hit:
            _emit(args, {"error": "target_hit_exactly", "x": hit.x})
            return EXIT_CERTIFY_FAILED
        except analysis.BoundViolatedError as hit:
            _emit(args, {"error": "bound_violated", "x": hit.x, "value": hit.value})
            return EXIT_CERTIFY_FAILED
        if isinstance(result, (analysis.StallAtRoot, analysis.StallNearMax)):
            _emit(args, {"error": "stall", "stall_point": result.point,
                         "reason": result.diagnostic.reason.value})
            return EXIT_CERTIFY_FAILED
    if not verify(result, f, mod):
        print("internal error: produced certificate failed its own checker",
              file=sys.stderr)
        return EXIT_INTERNAL
    _emit_artifact(args, lambda: analysis.certificate_to_json(result),
                   ["lo", "hi", "s", "fs", "delta"],
                   lambda: zip(result.lo, result.hi, result.s, result.fs, result.delta))
    return EXIT_OK


def _cmd_verify(args) -> int:
    ast, f = _parsed_function(args.f)
    try:
        with open(args.certificate) as fh:
            text = fh.read()
    except OSError as e:
        raise _DataError(f"cannot read certificate file: {e}") from None
    try:
        cert = analysis.certificate_from_dict(json.loads(text))
    except (ValueError, RecursionError) as e:
        raise _DataError(f"malformed certificate: {e}") from None
    # pieces out of order tile nothing, and the replay rejects them; the
    # bound is derived between the outer ends, taken in order
    ends = sorted((cert.lo[0], cert.hi[-1]))
    mod = _lipschitz(args, ast, Interval(*ends))
    verify = (analysis.verify_sign_certificate if isinstance(cert, analysis.SignCertificate)
              else analysis.verify_bound_certificate)
    ok = verify(cert, f, mod)
    _emit(args, {"verified": ok})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --- Parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv", "human"), default="json")
    p.add_argument("--output", metavar="PATH", default=None)


def _add_function_flags(p: argparse.ArgumentParser):
    p.add_argument("--f", required=True, metavar="EXPR", help="function of x")
    p.add_argument("--lipschitz", type=float, default=None, metavar="L",
                   help="Lipschitz constant; derived from --f when omitted")
    p.add_argument("--max-steps", type=int, default=None, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gaugekit", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="build a delta-fine tagged partition")
    p.add_argument("--gauge", required=True, metavar="SPEC",
                   help="const:<v> | pw:<b0:v0,b1:v1,...> | expr:<text>")
    p.add_argument("--interval", required=True, nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--strategy", choices=("creep", "bisect", "hybrid"), default="hybrid")
    p.add_argument("--max-cells", type=int, default=None, metavar="N")
    p.add_argument("--max-depth", type=int, default=cousin.DEFAULT_MAX_DEPTH, metavar="N")
    _add_common(p)
    p.set_defaults(run=_cmd_partition)

    p = sub.add_parser("check", help="validate a partition file against a gauge")
    p.add_argument("--partition", required=True, metavar="FILE")
    p.add_argument("--gauge", required=True, metavar="SPEC")
    _add_common(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("root", help="locate f(x) = y given a sign change")
    _add_function_flags(p)
    p.add_argument("--y", type=float, default=0.0, metavar="Y")
    p.add_argument("--interval", required=True, nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write step history as JSON lines")
    _add_common(p)
    p.set_defaults(run=_cmd_root)

    p = sub.add_parser("extremum", help="bracket the max or min of f")
    _add_function_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--max", dest="maximum", action="store_true")
    group.add_argument("--min", dest="maximum", action="store_false")
    p.add_argument("--interval", required=True, nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(run=_cmd_extremum)

    p = sub.add_parser("certify", help="emit a sign or bound certificate")
    _add_function_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--no-root", type=float, default=None, metavar="Y",
                       help="certify f != Y on the interval")
    group.add_argument("--bound", type=float, default=None, metavar="M",
                       help="certify f < M on the interval")
    p.add_argument("--interval", required=True, nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--trace", metavar="PATH", default=None)
    _add_common(p)
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("verify", help="replay a certificate file")
    p.add_argument("--certificate", required=True, metavar="FILE")
    _add_function_flags(p)
    _add_common(p)
    p.set_defaults(run=_cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    # one parser serves every call in the process; it is built on the first
    # call, not at import, and parsing leaves it as it was
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with _output_file(args.output) as args.output_file:
            return args.run(args)
    except (_DataError, ValueError, expr.ParseError, expr.EvalDomainError,
            expr.NotDifferentiableError, GaugeNonpositiveError,
            analysis.MalformedModulusError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except RecursionError:
        # some other recursion over the input ran past Python's limit, say
        # a bisection driven toward the subnormals
        print("error: input nested too deeply (recursion limit)", file=sys.stderr)
        return EXIT_DATA
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except _CantCreateError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CANTCREAT
    except BrokenPipeError as e:
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        # what is still buffered would fail again when the interpreter
        # flushes stdout at exit; a stream with no descriptor is left alone
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    raise SystemExit(main())
