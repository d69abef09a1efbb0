"""gaugekit: gauges, delta-fine tagged partitions, and certified analysis.

A gauge is a positive function delta on a closed interval; a tagged
partition is delta-fine when every cell fits inside its tag's delta-ball.
This package constructs such partitions, runs a generic interval-induction
engine on user-supplied local certificate oracles, and applies that engine
to certify sign-constancy and upper bounds of continuous functions — and,
dually, to locate roots and suprema from the points where certification
stalls.  Every artifact it emits is replayable by an independent checker.
"""

from .analysis import (
    BoundCertificate,
    BoundViolatedError,
    CertificatePiece,
    CustomModulus,
    Hoelder,
    Lipschitz,
    MalformedModulusError,
    ModulusOfContinuity,
    NoSignChangeError,
    RootResult,
    Side,
    SignCertificate,
    StallAtRoot,
    StallNearMax,
    SupEstimate,
    TargetHitExactlyError,
    approx_inf,
    approx_sup,
    bound_certificate,
    certificate_from_json,
    certificate_to_json,
    find_root,
    no_root_certificate,
    verify_bound_certificate,
    verify_sign_certificate,
)
from .cousin import (
    DepthExceeded,
    PartitionFailure,
    PartitionStrategy,
    Stall,
    StrategyKind,
    bisect_partition,
    creep_partition,
    fine_partition,
)
from .errors import CapExceededError, GaugekitError
from .expr import (
    EvalDomainError,
    Expr,
    ExprGauge,
    NotDifferentiableError,
    ParseError,
    as_function,
    differentiate,
    eval_interval,
    evaluate,
    lipschitz_bound,
    parse,
    to_str,
)
from .induction import (
    Incompatible,
    InductionPolicy,
    LocalOracle,
    MalformedOracleError,
    StallDiagnostic,
    StallReason,
    Witness,
    combine_adjacent,
    run_induction,
    verify_witness,
)
from .intervals import (
    ConstantGauge,
    DomainMismatchError,
    FinenessReport,
    Gauge,
    GaugeNonpositiveError,
    Interval,
    OpaqueGauge,
    PiecewiseConstantGauge,
    TaggedInterval,
    TaggedPartition,
    ValidationReport,
    Violation,
    as_gauge,
    concat,
    is_delta_fine,
    partition_from_json,
    partition_to_json,
    validate_partition,
)

__version__ = "0.1.0"
