"""The benchmark's metrics: units, direction, and what each layer metric moves.

``BENCHMARK.json`` at the repository root lists the same names; the tests
check that the two agree.
"""

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "job_ms_p50": ("ms", "lower", 0.25),
    "job_ms_p90": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name: (unit, better, ((end-to-end metric it should move, workload where that shows), ...))
_P50_P = (("job_ms_p50", "partition"),)
_JSON = (("job_ms_p90", "partition"), ("job_ms_p90", "certify"))
_RATE_P = (("jobs_per_s", "partition"),)
_ENGINE = (("job_ms_p90", "certify"), ("jobs_per_s", "extremum"))
_CERT = (("job_ms_p90", "certify"),)
_SEARCH = (("jobs_per_s", "extremum"),)
_P50_C = (("job_ms_p50", "certify"),)
_SETUP = (("setup_s", "partition"), ("setup_s", "certify"), ("setup_s", "extremum"))

LAYERS = {
    "cli.self_ms": ("ms", "lower", _P50_P),
    "cli.encode_ms": ("ms", "lower", _JSON),
    "cli.decode_ms": ("ms", "lower", _JSON),
    "cli.output_bytes": ("bytes", "lower", _JSON),
    "intervals.validate_partition.ns_per_cell": ("ns", "lower", _RATE_P),
    "intervals.is_delta_fine.ns_per_cell": ("ns", "lower", _RATE_P),
    "intervals.partition_from_json.ns_per_cell": ("ns", "lower", _RATE_P),
    "intervals.gauge_evals": ("count", "lower", _RATE_P),
    "cousin.creep_partition.ms": ("ms", "lower", _RATE_P),
    "cousin.bisect_partition.ms": ("ms", "lower", _RATE_P),
    "cousin.cells": ("count", "lower", _RATE_P),
    "cousin.ns_per_cell": ("ns", "lower", _RATE_P),
    "cousin.hybrid_useful_ratio": ("ratio", "higher", _RATE_P),
    "induction.run_induction.calls": ("count", "lower", _ENGINE),
    "induction.steps": ("count", "lower", _ENGINE),
    "induction.oracle_calls": ("count", "lower", _ENGINE),
    "induction.self_us_per_step": ("us", "lower", _ENGINE),
    "induction.committed_ratio": ("ratio", "higher", _ENGINE),
    "analysis.f_evals": ("count", "lower", _CERT),
    "analysis.pieces": ("count", "lower", _CERT),
    "analysis.oracle_self_us_per_step": ("us", "lower", _CERT),
    "analysis.approx_sup.probes": ("count", "lower", _SEARCH),
    "analysis.probe_outcomes.certified": ("count", "lower", _SEARCH),
    "analysis.probe_outcomes.stalled": ("count", "lower", _SEARCH),
    "analysis.probe_outcomes.violated": ("count", "lower", _SEARCH),
    "analysis.f_evals_per_probe": ("count", "lower", _SEARCH),
    "analysis.verify.us_per_piece": ("us", "lower", _P50_C),
    "expr.evaluate.calls": ("count", "lower", _ENGINE),
    "expr.evaluate.us_per_call": ("us", "lower", _ENGINE),
    "expr.eval_interval.calls": ("count", "lower", _P50_C),
    "expr.eval_interval.us_per_call": ("us", "lower", _P50_C),
    "expr.lipschitz_bound.ms": ("ms", "lower", _P50_C),
    "expr.parse.us": ("us", "lower", _P50_C),
    "import.total.ms": ("ms", "lower", _SETUP),
    **{f"import.{m}.ms": ("ms", "lower", _SETUP)
       for m in ("gaugekit", "gaugekit.errors", "gaugekit.intervals", "gaugekit.cousin",
                 "gaugekit.induction", "gaugekit.analysis", "gaugekit.expr", "gaugekit.cli")},
    # answer quality; they can be 0, so they cannot be bounded end-to-end metrics
    "fail_ratio": ("ratio", "lower", ()),
    "inexact_ratio": ("ratio", "lower", ()),
    # the cost of tracing itself (traced minus untraced jobs_per_s)
    "trace.overhead_jobs_per_s": ("1/s", "higher", ()),
}
