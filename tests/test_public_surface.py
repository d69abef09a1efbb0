"""The public names of ``gaugekit``, pinned.

A change that adds, removes or renames a top-level name must update
``PUBLIC`` on purpose.  Submodules are left out: ``gaugekit.cli`` shows up
as an attribute only once something has imported it.
"""

import inspect

import gaugekit

PUBLIC = [
    "BoundCertificate", "BoundViolatedError", "CapExceededError", "CertificatePiece",
    "ConstantGauge", "CustomModulus", "DepthExceeded", "DomainMismatchError",
    "EvalDomainError", "Expr", "ExprGauge", "FinenessReport", "Gauge",
    "GaugeNonpositiveError", "GaugekitError", "Hoelder", "Incompatible",
    "InductionPolicy", "Interval", "Lipschitz", "LocalOracle", "MalformedModulusError",
    "MalformedOracleError", "ModulusOfContinuity", "NoSignChangeError",
    "NotDifferentiableError", "OpaqueGauge", "ParseError", "PartitionFailure",
    "PartitionStrategy", "PiecewiseConstantGauge", "RootResult", "Side",
    "SignCertificate", "Stall", "StallAtRoot", "StallDiagnostic", "StallNearMax",
    "StallReason", "StrategyKind", "SupEstimate", "TaggedInterval", "TaggedPartition",
    "TargetHitExactlyError", "ValidationReport", "Violation", "Witness",
    "approx_inf", "approx_sup", "as_function", "as_gauge", "bisect_partition",
    "bound_certificate", "certificate_from_json", "certificate_to_json",
    "combine_adjacent", "concat", "creep_partition", "differentiate", "eval_interval",
    "evaluate", "find_root", "fine_partition", "is_delta_fine", "lipschitz_bound",
    "no_root_certificate", "parse", "partition_from_json", "partition_to_json",
    "run_induction", "to_str", "validate_partition", "verify_bound_certificate",
    "verify_sign_certificate", "verify_witness",
]


def test_public_names_are_pinned():
    names = sorted(n for n in dir(gaugekit)
                   if not n.startswith("_") and not inspect.ismodule(getattr(gaugekit, n)))
    assert names == sorted(PUBLIC)
