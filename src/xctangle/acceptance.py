"""The acceptance suite: eleven exact end-to-end checks.

Shared by ``tests/test_acceptance.py`` and the CLI ``selftest`` command.
Every check uses exact arithmetic; "passes" always means exact equality.
All randomness is seeded, so runs are reproducible.  Each criterion
returns ``(name, passed, detail)``; :func:`run_criterion` times it and
applies its budget from ``BUDGETS``.
"""

from __future__ import annotations

import random
import time

from . import moves as M
from .algebra import builtin_uqsl2
from .errors import DomainError, NoSiteError
from .gauss import (
    XCGaussDiagram,
    canonical_key,
    compose,
    parse_diagram,
    print_diagram,
    tensor,
)
from .invariant import (
    check_axioms,
    iota_realize,
    long_knot_scalar,
    validate_pattern,
    ve_compose,
    ve_tensor,
    zeval,
)
from .polyak import (
    FormalDiagramSum,
    check_formula_invariance,
    framing_formula,
    framing_terms,
    map_I,
    map_I_inverse,
)
from .randomgen import random_code, random_diagram
from .ring import Coefficient
from .tangle import from_gauss, parse_tangle, print_tangle, to_gauss
from .virtualt import (
    bracket_oracle,
    forget,
    lift,
    parse_code,
    print_code,
    random_move_on_code,
    rotation_total,
    underfirst_writhe,
    writhe,
)

DEFAULT_SEED = 20240901

# time budgets in seconds; a budgeted criterion fails when it runs over
BUDGETS = {1: 5, 2: 60, 3: 120, 8: 30}


class CriterionResult:
    """The outcome of one acceptance criterion."""

    def __init__(self, number: int, name: str, passed: bool, detail: str,
                 seconds: float):
        self.number = number
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def _values(self) -> tuple:
        return (self.number, self.name, self.passed, self.detail, self.seconds)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        return ("CriterionResult(number={!r}, name={!r}, passed={!r}, "
                "detail={!r}, seconds={!r})".format(*self._values()))

    @property
    def budget_s(self) -> float | None:
        return BUDGETS.get(self.number)

    @property
    def headroom_s(self) -> float | None:
        """Budget minus seconds taken, or None without a budget."""
        return None if self.budget_s is None else self.budget_s - self.seconds


def _q_mirror(c: Coefficient) -> Coefficient:
    """Substitute q -> q^-1 in a Laurent coefficient."""
    return Coefficient.laurent({-e: k for e, k in c.terms.items()})


def golden_codes():
    """The four benchmark long-knot codes: unknot, both trefoils and the
    figure-eight knot."""
    tre = [(("O", 1), ("U", 2), ("O", 3), ("U", 1), ("O", 2), ("U", 3))]
    f8 = [(("O", 1), ("U", 2), ("O", 3), ("U", 1),
           ("O", 4), ("U", 3), ("O", 2), ("U", 4))]
    return [
        ("unknot", XCGaussDiagram(1, (1,), [], [()])),
        ("trefoil-right",
         XCGaussDiagram(1, (1,), [(1, 1), (2, 1), (3, 1)], tre)),
        ("trefoil-left",
         XCGaussDiagram(1, (1,), [(1, -1), (2, -1), (3, -1)], tre)),
        ("figure-eight",
         XCGaussDiagram(1, (1,), [(1, -1), (2, 1), (3, 1), (4, -1)], f8)),
    ]


def criterion_1(seed: int) -> tuple[str, bool, str]:
    report = check_axioms(builtin_uqsl2())
    bad = [k for k, v in report.items() if k != "ok" and not v["ok"]]
    detail = "all axioms hold" if not bad else f"failed: {bad}"
    return "algebra axioms", report["ok"] and not bad, detail


def criterion_2(seed: int) -> tuple[str, bool, str]:
    alg = builtin_uqsl2()
    bad = []
    for p in M.builtin_patterns():
        ok, _ = validate_pattern(p, alg)
        if not ok:
            bad.append(f"{p.kind} v{p.variant}")
    detail = (f"{len(M.builtin_patterns())} patterns certified"
              if not bad else f"failed: {bad}")
    return "move pattern soundness", not bad, detail


def criterion_3(seed: int) -> tuple[str, bool, str]:
    alg = builtin_uqsl2()
    rng = random.Random(seed)
    checked = fails = 0
    while checked < 1000:
        d = random_diagram(rng, n=rng.randrange(1, 4),
                           max_chords=4, max_diamonds=4)
        try:
            site = M.random_site(d, rng.choice(M.KINDS), rng)
        except NoSiteError:
            continue
        d2 = M.apply(d, site)
        if len(d2.chords) > 6 or d2.decoration_count() - len(d2.chords) > 6:
            continue
        checked += 1
        if iota_realize(zeval(d, alg)) != iota_realize(zeval(d2, alg)):
            fails += 1
    return ("move invariance of the evaluation", fails == 0,
            f"{checked} applications, {fails} mismatches")


def criterion_4(seed: int) -> tuple[str, bool, str]:
    alg = builtin_uqsl2()
    rng = random.Random(seed + 4)
    fails = 0
    trials = 1000
    for i in range(trials):
        if i % 2 == 0:
            n = rng.randrange(1, 3)
            d1 = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
            d2 = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
            lhs = zeval(compose(d2, d1), alg)
            rhs = ve_compose(zeval(d2, alg), zeval(d1, alg))
        else:
            d1 = random_diagram(rng, n=1, max_chords=2, max_diamonds=2)
            d2 = random_diagram(rng, n=rng.randrange(1, 3),
                                max_chords=1, max_diamonds=2)
            lhs = zeval(tensor(d1, d2), alg)
            rhs = ve_tensor(zeval(d1, alg), zeval(d2, alg))
        if lhs != rhs:
            fails += 1
    return ("functoriality and monoidality", fails == 0,
            f"{trials} pairs, {fails} mismatches")


def criterion_5(seed: int) -> tuple[str, bool, str]:
    rng = random.Random(seed + 5)
    fails = 0
    trials = 1000
    for _ in range(trials):
        g = random_code(rng, n=rng.randrange(1, 4), max_chords=8)
        if forget(lift(g)) != g:
            fails += 1
    return ("lift is a section of forget", fails == 0,
            f"{trials} codes, {fails} mismatches")


def criterion_6(seed: int) -> tuple[str, bool, str]:
    rng = random.Random(seed + 6)
    fails = 0
    trials = 1000
    for _ in range(trials):
        g = random_code(rng, n=1, max_chords=8)
        L = lift(g)
        if rotation_total(L) + writhe(g) != 2 * underfirst_writhe(g):
            fails += 1
    return ("rotation-writhe identity on lifts", fails == 0,
            f"{trials} codes, {fails} mismatches")


def criterion_7(seed: int) -> tuple[str, bool, str]:
    rng = random.Random(seed + 6)  # same corpus as criterion 6
    fails = 0
    trials = 1000
    for _ in range(trials):
        g = random_code(rng, n=1, max_chords=8)
        L = lift(g)
        if framing_formula(L) != writhe(g):
            fails += 1
    moved = check_formula_invariance(framing_terms(), 100, seed + 7)
    move_fails = len(moved["failures"])
    return ("framing formula equals writhe and is move-invariant",
            fails == 0 and move_fails == 0,
            f"{trials} lifts ({fails} off), {moved['samples']} moves "
            f"({move_fails} off)")


def load_golden() -> dict[str, tuple[str, str]]:
    """name -> (bracket value, long-knot scalar), as serialized Laurent
    polynomials from the golden file."""
    from importlib import resources  # see moves.builtin_patterns

    text = (resources.files("xctangle")
            .joinpath("data/golden_bracket.cfg").read_text())
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, bracket, scalar = (part.strip() for part in line.split("|"))
        out[name] = (bracket, scalar)
    return out


def criterion_8(seed: int) -> tuple[str, bool, str]:
    alg = builtin_uqsl2()
    golden = load_golden()
    problems = []
    for name, g in golden_codes():
        bracket = bracket_oracle(g)
        scalar = long_knot_scalar(zeval(lift(g), alg))
        # documented comparison: bracket = scalar|_{q -> 1/q} * q^(2 wr)
        converted = _q_mirror(scalar) * Coefficient.q_power(2 * writhe(g))
        if bracket != converted:
            problems.append(f"{name}: oracle != converted evaluation")
        want_bracket, want_scalar = golden[name]
        if str(bracket) != want_bracket:
            problems.append(f"{name}: bracket != golden")
        if str(scalar) != want_scalar:
            problems.append(f"{name}: scalar != golden")
    return ("Jones comparison against the state sum", not problems,
            "; ".join(problems) or "4 knots match")


def criterion_9(seed: int) -> tuple[str, bool, str]:
    alg = builtin_uqsl2()
    rng = random.Random(seed + 9)
    checked = fails = 0
    while checked < 200:
        g = random_code(rng, n=rng.randrange(1, 3), max_chords=3)
        kind = rng.choice(["R1f", "R2", "R3", "reorder"])
        try:
            g2 = random_move_on_code(g, kind, rng)
        except NoSiteError:
            continue
        if len(g2.chords) > 6:
            continue
        checked += 1
        v1 = iota_realize(zeval(lift(g), alg))
        v2 = iota_realize(zeval(lift(g2), alg))
        if v1 != v2:
            fails += 1
    return ("virtual-move invariance of the lifted value", fails == 0,
            f"{checked} pairs, {fails} mismatches")


def criterion_10(seed: int) -> tuple[str, bool, str]:
    rng = random.Random(seed + 10)
    fails = small = large = 0
    for _ in range(1000):
        d = random_diagram(rng, n=rng.randrange(1, 3),
                           max_chords=2, max_diamonds=3)
        if d.decoration_count() > 5:
            continue
        small += 1
        if map_I_inverse(map_I(d)) != FormalDiagramSum.of(d):
            fails += 1
    while large < 1000:
        d = random_diagram(rng, n=rng.randrange(1, 3),
                           max_chords=3, max_diamonds=3)
        if d.decoration_count() < 6:
            continue
        large += 1
        if map_I_inverse(map_I(d)) != FormalDiagramSum.of(d):
            fails += 1
    return ("subdiagram map and its inverse compose to the identity",
            fails == 0, f"{small} small + {large} large diagrams, {fails} off")


def criterion_11(seed: int) -> tuple[str, bool, str]:
    rng = random.Random(seed + 11)
    fails = 0
    trials = 1000
    for i in range(trials):
        d = random_diagram(rng, n=rng.randrange(1, 4),
                           max_chords=4, max_diamonds=4, pure=True)
        # tangle <-> gauss round trip
        if canonical_key(to_gauss(from_gauss(d))) != canonical_key(d):
            fails += 1
            continue
        # text format round trips
        if parse_diagram(print_diagram(d)) != d:
            fails += 1
            continue
        t = from_gauss(d)
        if parse_tangle(print_tangle(t)) != t:
            fails += 1
            continue
        g = forget(d)
        if parse_code(print_code(g)) != g:
            fails += 1
    return ("conversion and parser round-trips", fails == 0,
            f"{trials} instances, {fails} off")


CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
]


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    """Run and time one criterion; a budgeted criterion fails when it runs
    over its budget."""
    if not 1 <= number <= len(CRITERIA):
        raise DomainError(
            f"criterion {number} out of range 1..{len(CRITERIA)}")
    t0 = time.perf_counter()
    name, passed, detail = CRITERIA[number - 1](seed)
    dt = time.perf_counter() - t0
    budget = BUDGETS.get(number)
    passed = passed and (budget is None or dt < budget)
    return CriterionResult(number, name, passed, detail, dt)


def run_all(seed: int = DEFAULT_SEED):
    return [run_criterion(number, seed) for number in range(1, len(CRITERIA) + 1)]
