"""The two sides of every verify check share no package code but arithmetic.

Each side of one case of each check kind runs under a ``sys.setprofile`` hook
that records every Python function of the ``lacunary`` package it enters.
A function is keyed by its file and first line: ``co_name`` would merge
distinct comprehensions, and Python 3.10 has no ``co_qualname``.  The two
sides may share only ``series`` (the arithmetic both are written in), the
memoized ``hermite.fact`` and the dense table's own generator with the hash
``verify._mix`` it calls.  Anything else they share could carry one defect
into both sides, and the check would pass on it.
"""

import os
import sys

import pytest
from identities import closed_form_from_blocks

import lacunary
from lacunary import (
    closed_form_HKL,
    closed_form_plan,
    dilate_bruteforce,
    hermite,
    hermite_coeff_table,
    hermite_egf,
    hermite_poly,
    random_dense_table,
    resum_corollary1,
    resum_lemma1,
    series,
    verify,
)
from lacunary.verify import RESUM_ORDER, table_egf

PACKAGE = os.path.dirname(lacunary.__file__) + os.sep
K = 3
DENSE = random_dense_table(0)


def key(code):
    return code.co_filename, code.co_firstlineno


def entered(build) -> dict:
    """The package functions that build() enters, as {(file, first line): name}."""
    seen = {}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            seen[key(frame.f_code)] = frame.f_code.co_name

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(previous)
    return seen


def shared_allowed(k) -> bool:
    return k[0] == series.__file__ or k in {
        key(hermite.fact.__wrapped__.__code__),
        key(DENSE.generator.__code__),
        key(verify._mix.__code__),
    }


HERMITE_ORACLE = (dilate_bruteforce, lambda: dilate_bruteforce(hermite_egf(K * RESUM_ORDER), K))
SIDES = {
    "closed_form": ((closed_form_HKL, lambda: closed_form_HKL(K, 2, 4)),
                    (hermite_poly, lambda: [hermite_poly(p * K + 2) for p in range(5)])),
    "lemma1_oracle": ((resum_lemma1, lambda: resum_lemma1(hermite_coeff_table(), K, RESUM_ORDER)),
                      HERMITE_ORACLE),
    "parity_split:hermite": (
        (resum_corollary1, lambda: resum_corollary1(hermite_coeff_table(), K, RESUM_ORDER)),
        HERMITE_ORACLE),
    "lemma1_oracle:dense-seed0": (
        (resum_lemma1, lambda: resum_lemma1(DENSE, K, RESUM_ORDER)),
        (table_egf, lambda: dilate_bruteforce(table_egf(DENSE, K * RESUM_ORDER, K), K))),
}


def test_every_check_kind_has_a_case():
    kinds = {case["check"] for case in verify.run_verification({K: 1})["cases"]}
    assert kinds == set(SIDES)


@pytest.mark.parametrize("kind", SIDES)
def test_sides_share_only_arithmetic(kind):
    seen = []
    for entry, build in SIDES[kind]:
        functions = entered(build)
        assert key(entry.__code__) in functions, (kind, entry.__name__)  # the hook saw it
        seen.append(functions)
    construction, oracle = seen
    shared = sorted(f"{os.path.basename(f)}:{line} {construction[f, line]}"
                    for f, line in construction.keys() & oracle.keys()
                    if not shared_allowed((f, line)))
    assert not shared, f"{kind}: both sides run {shared}"


def test_pfq_block_reference_runs_only_arithmetic():
    # the closed form summed from the paper's pFq blocks, which the closed-form tests
    # check it against, runs no package code but series: nothing it shares with the
    # closed form could carry one defect into both
    plan = closed_form_plan(5)
    functions = entered(lambda: closed_form_from_blocks(plan, 6))
    assert functions, "the hook saw no series arithmetic"
    others = sorted(f"{os.path.basename(f)}:{line} {name}"
                    for (f, line), name in functions.items() if f != series.__file__)
    assert not others, f"the pfq-block reference runs {others}"
