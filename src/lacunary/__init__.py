"""Exact-arithmetic engine for lacunary generating functions of Hermite polynomials.

Each public name loads its home module on first use (PEP 562), so a process
imports only the modules whose names it reads.
"""

from importlib import import_module

# each public name -> the module of this package that defines it
_EXPORTS = {
    "BivarPoly": "series",
    "LambdaSeries": "series",
    "TruncationUnderflowError": "series",
    "CoeffTable": "hermite",
    "fact": "hermite",
    "hermite_coeff_table": "hermite",
    "hermite_egf": "hermite",
    "hermite_poly": "hermite",
    "PoleError": "hypergeom",
    "Branch": "operators",
    "dilate_bruteforce": "operators",
    "lemma1_branches": "operators",
    "parity_split_branches": "operators",
    "resum_corollary1": "operators",
    "resum_lemma1": "operators",
    "shift": "operators",
    "ConsistencyError": "normal_ordering",
    "NormalOrderResult": "normal_ordering",
    "SemiLinearOp": "normal_ordering",
    "apply_exp_op": "normal_ordering",
    "compose": "normal_ordering",
    "normal_order": "normal_ordering",
    "RkSeries": "normal_ordering",
    "ClosedFormBranch": "closed_forms",
    "ClosedFormPlan": "closed_forms",
    "closed_form_HKL": "closed_forms",
    "closed_form_plan": "closed_forms",
    "rk_series": "closed_forms",
    "random_dense_table": "verify",
    "run_verification": "verify",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of a public name, and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
