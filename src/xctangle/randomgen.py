"""Seeded random generators for diagrams and codes.

Internal plumbing shared by the test suite, the CLI self-test, and the
formula falsification harness.  All functions take an explicit
``random.Random`` instance so runs are reproducible.
"""

from __future__ import annotations

import random

from .gauss import DIAMOND, OVER, UNDER, XCGaussDiagram, validate


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def random_code(
    rng: random.Random,
    n: int = 1,
    max_chords: int = 6,
    pure: bool = False,
) -> XCGaussDiagram:
    """A random signed Gauss code on n strands (no diamonds)."""
    k = rng.randrange(max_chords + 1)
    chords = [(c, rng.choice((1, -1))) for c in range(1, k + 1)]
    slots = []
    for c in range(1, k + 1):
        slots.append((OVER, c))
        slots.append((UNDER, c))
    rng.shuffle(slots)
    events: list[list] = [[] for _ in range(n)]
    for ev in slots:
        events[rng.randrange(n)].append(ev)
    top = tuple(range(1, n + 1)) if pure else random_permutation(rng, n)
    g = XCGaussDiagram(n, top, chords, [tuple(e) for e in events])
    validate(g)
    return g


def random_diagram(
    rng: random.Random,
    n: int = 1,
    max_chords: int = 4,
    max_diamonds: int = 4,
    pure: bool = False,
) -> XCGaussDiagram:
    """A random XC-Gauss diagram with chords and diamonds."""
    g = random_code(rng, n, max_chords, pure=pure)
    events = [list(e) for e in g.events]
    for _ in range(rng.randrange(max_diamonds + 1)):
        s = rng.randrange(n)
        p = rng.randrange(len(events[s]) + 1)
        events[s].insert(p, (DIAMOND, rng.choice((1, -1))))
    d = XCGaussDiagram(g.n, g.top, g.chords, [tuple(e) for e in events])
    validate(d)
    return d
