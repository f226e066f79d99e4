"""Exact-arithmetic engine for lacunary generating functions of Hermite polynomials."""

from .closed_forms import (
    ClosedFormBranch,
    ClosedFormPlan,
    RkSeries,
    closed_form_HKL,
    closed_form_plan,
    nieto_truax,
    nieto_truax_partial_sum,
    rk_series,
)
from .hermite import (
    CoeffTable,
    fact,
    hermite_coeff_table,
    hermite_egf,
    hermite_poly,
)
from .hypergeom import (
    DomainError,
    PoleError,
    pfq_series,
)
from .normal_ordering import (
    ConsistencyError,
    NormalOrderResult,
    SemiLinearOp,
    apply_exp_op,
    compose,
    normal_order,
)
from .operators import (
    Branch,
    dilate_bruteforce,
    lemma1_branches,
    parity_split_branches,
    resum_corollary1,
    resum_lemma1,
    shift,
)
from .series import (
    BivarPoly,
    LambdaSeries,
    TruncationUnderflowError,
)
from .verify import (
    random_dense_table,
    run_verification,
)

__all__ = [
    "BivarPoly",
    "Branch",
    "ClosedFormBranch",
    "ClosedFormPlan",
    "CoeffTable",
    "ConsistencyError",
    "DomainError",
    "LambdaSeries",
    "NormalOrderResult",
    "PoleError",
    "RkSeries",
    "SemiLinearOp",
    "TruncationUnderflowError",
    "apply_exp_op",
    "closed_form_HKL",
    "closed_form_plan",
    "compose",
    "dilate_bruteforce",
    "fact",
    "hermite_coeff_table",
    "hermite_egf",
    "hermite_poly",
    "lemma1_branches",
    "nieto_truax",
    "nieto_truax_partial_sum",
    "normal_order",
    "parity_split_branches",
    "pfq_series",
    "random_dense_table",
    "resum_corollary1",
    "resum_lemma1",
    "rk_series",
    "run_verification",
    "shift",
]

__version__ = "0.1.0"
