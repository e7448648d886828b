"""mumkit: exact arithmetic for MUM differential operators in D = z*d/dz.

Series solutions, canonical coordinates, Cartier/Frobenius transfer data
and p-adic integrality certificates, all over arbitrary-precision
rationals and always relative to an explicit truncation order.
"""

__version__ = "0.1.0"

from .opalg import (
    ApparentSingularityAtZero,
    DeltaOperator,
    DeltaPolynomial,
    NotMUM,
    OperatorSyntaxError,
    RawOperator,
    UnknownOperator,
    ZeroLeadingCoefficient,
    builtin,
    builtin_names,
    format_operator,
    hypergeometric,
    monicize,
    parse_operator,
)
from .qcoord import (
    BadNormalization,
    IntegralityReport,
    canonical_coordinate,
    dieudonne_check,
    exp_integrality_check,
    g_over_f,
    n_integrality_report,
    omega_congruence_check,
)
from .series import (
    INF,
    BadConstantTerm,
    InternalError,
    SeriesMatrix,
    TruncSeries,
    ValuationProfile,
    ZeroConstantTerm,
    vp,
)
from .solve import (
    solve_f,
    solve_first_row,
    uniform_part,
    verify_solution,
)
from .frobtransfer import (
    BadConstantShape,
    FrobeniusCandidate,
    FrobeniusFit,
    FrobeniusVerification,
    InsufficientTruncation,
    NotPIntegralOperator,
    RadiusDiagnostic,
    TaylorGcds,
    TransferAudit,
    TransferData,
    certified_trunc,
    fit_frobenius_constant,
    frobenius_from_constant,
    iterate_transfer,
    radius_diagnostic,
    reduction_congruence_check,
    taylor_gcds,
    transfer_audit,
    transfer_operator_L1,
    twisted_rows,
    verify_frobenius,
    working_trunc_for,
)
