"""The three workloads.  Each item is one call a user would make, followed
by a check of its output against an independent reference.

An item returns None when its output matched, or a cause string.  Causes
starting with ``wrong`` mean the program returned a value that differs
from the reference; ``nonscalar`` means ``long_knot_scalar`` refused the
lift of a knot (the known ``lift`` defect).  An item that raises is
counted with the cause ``raised <exception>``.  Every cause counts as a
failed item; every cause but ``nonscalar`` on ``knots`` also makes the
run's outputs incorrect (see ``EXPECTED_REFUSALS``).
"""

from __future__ import annotations

from xctangle import (
    FormalDiagramSum,
    XCGaussDiagram,
    apply,
    bracket_oracle,
    builtin_patterns,
    check_axioms,
    find_sites,
    framing_formula,
    lift,
    long_knot_scalar,
    map_I,
    map_I_inverse,
    orbit,
    parse_diagram,
    validate_pattern,
    zeval,
)
from xctangle.errors import NonScalarError
from xctangle.gauss import DIAMOND, OVER, UNDER
from xctangle.moves import KINDS

import corpus
from spans import Tracer

AXIOMS = ("invertibility-R", "invertibility-R'", "invertibility-kappa",
          "XC0", "XC0'", "XC1f", "XC2c", "XC2d", "XC3")


# -- knots ---------------------------------------------------------------


def knot_item(g: XCGaussDiagram, algebra):
    crossings = len(g.chords)
    writhe = sum(s for _, s in g.chords)

    def run(tr):
        ref = tr.call("virtualt.bracket_oracle", bracket_oracle, g)
        lifted = tr.call("virtualt.lift", lift, g)
        value = tr.call("invariant.zeval", zeval, lifted, algebra,
                        tag=crossings)
        try:
            scalar = tr.call("invariant.long_knot_scalar", long_knot_scalar,
                             value)
        except NonScalarError:
            tr.count("invariant.long_knot_scalar.fail", 1)
            return "nonscalar"
        # bracket = scalar|_{q -> 1/q} * q^(2 writhe), on exponent dicts
        converted = {2 * writhe - e: k for e, k in scalar.terms.items()}
        return None if converted == ref.terms else "wrong bracket"

    return run


def knots(seed: int, algebra) -> list:
    return [(name, knot_item(g, algebra))
            for name, g in corpus.knots_corpus(seed)]


# -- certify -------------------------------------------------------------


def axioms_item(algebra):
    def run(tr):
        report = tr.call("algebra.check_axioms", check_axioms, algebra)
        if set(report) != set(AXIOMS) | {"ok"}:
            return "wrong axiom list"
        good = report["ok"] is True and all(report[n]["ok"] for n in AXIOMS)
        return None if good else "wrong axiom verdict"

    return run


def pattern_item(pattern, algebra):
    def run(tr):
        ok, counterexample = tr.call("moves.validate_pattern",
                                     validate_pattern, pattern, algebra,
                                     tag=pattern.kind)
        good = ok is True and counterexample is None
        return None if good else "wrong pattern verdict"

    return run


def certify(seed: int, algebra) -> list:
    """The shipped table is fixed; the seed only orders the items."""
    items = [("check_axioms", axioms_item(algebra))]
    items += [(f"{p.kind}v{p.variant}", pattern_item(p, algebra))
              for p in builtin_patterns()]
    corpus.rng_for(seed, "certify").shuffle(items)
    return items


# -- calculus ------------------------------------------------------------


def framing_reference(d: XCGaussDiagram) -> int:
    """2 * (signed under-first chords) - (signed diamonds), by direct
    reading of the one strand."""
    sign = d.chord_sign
    seen: set[int] = set()
    total = 0
    for kind, val in d.events[0]:
        if kind == DIAMOND:
            total -= val
        elif val not in seen:
            seen.add(val)
            if kind == UNDER:
                total += 2 * sign[val]
    return total


def orbit_item(entry: dict):
    d = parse_diagram(entry["diagram"])

    def run(tr):
        res = tr.call("moves.orbit", orbit, d, corpus.ORBIT_DEPTH,
                      corpus.ORBIT_SIZE)
        tr.count("moves.orbit.members", len(res.keys))
        same = (len(res.keys) == entry["members"]
                and res.truncated == entry["truncated"])
        return None if same else "wrong orbit"

    return run


def map_i_item(d: XCGaussDiagram):
    k = d.decoration_count()

    def run(tr):
        total = tr.call("polyak.map_I", map_I, d)
        tr.count("polyak.map_I.terms", len(total))
        back = tr.call("polyak.map_I_inverse", map_I_inverse, total)
        if sum(total.terms.values()) != 2 ** k:
            return "wrong subdiagram count"
        return None if back == FormalDiagramSum.of(d) else "wrong inverse"

    return run


def walk_item(start: XCGaussDiagram, seed: int, j: int):
    """A seeded random walk: each step shuffles the move kinds and applies
    one random site of the first kind whose result stays within the
    decoration cap.  The framing formula must not change."""

    def run(tr):
        rng = corpus.rng_for(seed, f"walk{j}")
        d = start
        want = framing_reference(d)
        for _ in range(corpus.WALK_STEPS):
            kinds = list(KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                sites = tr.call("moves.find_sites", find_sites, d, kind)
                tr.count("moves.find_sites.sites", len(sites))
                if not sites:
                    continue
                h = tr.call("moves.apply", apply, d,
                            sites[rng.randrange(len(sites))])
                if h.decoration_count() <= corpus.WALK_CAP:
                    break
            else:
                return None  # no move fits under the cap: the walk ends
            d = h
            got = tr.call("polyak.framing_formula", framing_formula, d)
            if got != want or framing_reference(d) != want:
                return "wrong framing"
        return None

    return run


def calculus(seed: int, algebra) -> list:
    items = [(f"orbit#{e['id']}", orbit_item(e))
             for e in corpus.pick_orbits(seed, corpus.load_orbit_pool())]
    items += [(f"map_I k={d.decoration_count()}", map_i_item(d))
              for d in corpus.map_i_diagrams(seed)]
    items += [(f"walk#{j}", walk_item(d, seed, j))
              for j, d in enumerate(corpus.walk_starts(seed))]
    return items


# -- warm-up: fixed small inputs, run once before the first timed item ----

_TINY = XCGaussDiagram(1, (1,), [(1, 1)],
                       [[(DIAMOND, 1), (OVER, 1), (DIAMOND, -1), (UNDER, 1)]])


def warm_up(name: str, algebra) -> None:
    off = Tracer(False)
    if name == "knots":
        knot_item(corpus.torus_knot(3), algebra)(off)
    elif name == "certify":
        pattern_item(builtin_patterns()[0], algebra)(off)
    else:
        map_i_item(_TINY)(off)
        walk_item(_TINY, 0, 0)(off)


WORKLOADS = {"knots": knots, "certify": certify, "calculus": calculus}
# the only causes of a failed item that leave a run's outputs correct
EXPECTED_REFUSALS = {"knots": {"nonscalar"}, "certify": set(),
                     "calculus": set()}
