"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single ``ACCEPTANCE <n> PASS|FAIL`` line and asserts
the criterion result from the shared harness in
:mod:`xctangle.acceptance` (also exposed as ``xct selftest``).
"""

import pytest

from xctangle.acceptance import DEFAULT_SEED, run_criterion
from xctangle.errors import DomainError

NAMES = {
    1: "algebra axioms",
    2: "move pattern soundness",
    3: "move invariance of the evaluation",
    4: "functoriality and monoidality",
    5: "lift is a section of forget",
    6: "rotation-writhe identity on lifts",
    7: "framing formula equals writhe and is move-invariant",
    8: "Jones comparison against the state sum",
    9: "virtual-move invariance of the lifted value",
    10: "subdiagram map and its inverse compose to the identity",
    11: "conversion and parser round-trips",
}


@pytest.mark.parametrize("number", sorted(NAMES))
def test_acceptance(number):
    result = run_criterion(number, DEFAULT_SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number} {status} "
          f"({result.seconds:.1f}s) {result.name}: {result.detail}")
    assert result.name == NAMES[number]
    assert result.passed, f"criterion {number}: {result.detail}"


@pytest.mark.parametrize("number", [0, -1, 12])
def test_criterion_number_out_of_range(number):
    with pytest.raises(DomainError, match=r"1\.\.11"):
        run_criterion(number)
