"""Virtual upwards tangles as signed Gauss codes.

A signed Gauss code is structurally an :class:`~xctangle.gauss.XCGaussDiagram`
with no diamond events: chords record crossings (over -> under, signed) and
nothing records rotation.  This module provides

* ``forget`` -- drop all diamond decorations from a diagram;
* ``lift`` -- a section of ``forget``: decorate a code with diamonds so
  that, on one-strand classical codes, the decorated diagram is the
  rotational diagram of the upright planar realization of the code;
* classical oracles: ``writhe``, ``rotation_total`` and the Kauffman-bracket
  state sum ``bracket_oracle``, whose 2^k states are the leaves of one
  depth-first walk over the chords in sorted id order, on a union-find
  whose unions are undone as the walk returns; it refuses more than
  ``BRACKET_MAX_CHORDS`` chords with :class:`GuardrailError`;
* ``random_move_on_code`` -- apply one random classical framed move; its
  R2 and R3 are the diamond-free ``G2`` and ``G3`` sites of
  :mod:`~xctangle.moves` (Goussarov, Polyak and Viro, "Finite type
  invariants of classical and virtual knots", 2000), so codes and
  diagrams share one move engine;
* a text format for signed codes: the diagram stanza of :mod:`~xctangle.gauss`
  with no ``chords:`` line, and ``O<id><+|->`` / ``U<id><+|->`` tokens
  carrying the sign at both endpoints.

Lift rule
---------

``lift`` sweeps the code once in reading order: strand 1 from bottom to
top, then strand 2, and so on.  Chord ``x`` has a first endpoint ``p_x`` and
a second endpoint ``q_x`` in that order; ``eps_x`` is ``sign(x)`` when the
pass at ``p_x`` is the over pass and ``-sign(x)`` otherwise.  A signed
number ``w`` of diamonds (``w`` ``D+`` for ``w > 0``, ``|w|`` ``D-`` for
``w < 0``) is written in these slots only:

* before a first endpoint, ``w = 0``: the gauge that the G0 move leaves
  free, since G0 turns one crossing by a full turn;
* before a second endpoint ``q_x``, ``w = rho_x + J_x`` minus the diamonds
  already written strictly between ``p_x`` and ``q_x``, where
  ``rho_x = -eps_x - sum(eps_y : p_x < p_y < q_y < q_x)
  - 2 sum(eps_y : p_y < p_x < q_y < q_x)`` and ``J_x`` counts the strand
  boundaries the reading order crosses between ``p_x`` and ``q_x``;
* in the last slot of strand ``s``, ``w = -sum(eps_y)`` over the chords
  with both ends on ``s``, minus the diamonds already on ``s``.

On one strand, ``rho_x`` is the rotation number of the loop from the first
pass through ``x`` to the second: Whitney's formula ("On regular closed
curves in the plane", 1937), with the loop's winding round its corner
counted along the incoming strand.  The last-slot rule is the
rotation--writhe identity.  Rotation numbers on upright diagrams follow
Bar-Natan and van der Veen, "A polynomial time knot polynomial" (2019).
The rule is exact on one-strand classical codes; on virtual codes and on
several strands it is a decoration, not a planar realization.

An R3 move keeps the lifted value where the triangle is untwisted: the
diamonds inside its three blocks, counted +, -, + by block, sum to zero.
That sum is unchanged by the G0 gauge, and G3 applies only where it is
zero.  Every triangle of a one-strand classical code is untwisted.  A
virtual code can have a twisted triangle, e.g. ``U1+ U2+ U3+ O2+ O3+ O1+``,
and there the R3 move changes the lifted value.
"""

from __future__ import annotations

import random
from math import comb

from .errors import (GuardrailError, NoSiteError, NonScalarError, ParseError,
                     ValidationError)
from .gauss import (DIAMOND, OVER, UNDER, XCGaussDiagram, is_decimal,
                    print_stanza, read_stanza, validate)
from .moves import MoveSite, apply, builtin_patterns, random_site
from .ring import Coefficient

#: Structural alias: a signed Gauss code is a diamond-free diagram.
SignedGaussCode = XCGaussDiagram


def validate_code(g: SignedGaussCode) -> None:
    """Validate a signed Gauss code: a valid diagram with no diamonds."""
    validate(g)
    for i, ev in enumerate(g.events, start=1):
        for kind, _ in ev:
            if kind == DIAMOND:
                raise ValidationError(f"diamond event on strand {i} in a signed code")


def forget(d: XCGaussDiagram) -> SignedGaussCode:
    """Drop every diamond event, keeping chords and strand data."""
    validate(d)
    events = [tuple(e for e in ev if e[0] != DIAMOND) for ev in d.events]
    return XCGaussDiagram(d.n, d.top, d.chords, events)


def writhe(g: XCGaussDiagram) -> int:
    """Sum of chord signs."""
    return sum(s for _, s in g.chords)


def rotation_total(d: XCGaussDiagram) -> int:
    """Sum of diamond signs."""
    return sum(v for ev in d.events for k, v in ev if k == DIAMOND)


def underfirst_writhe(g: SignedGaussCode) -> int:
    """Signed count of chords whose under endpoint comes first in reading
    order; ``rotation_total(lift(g)) + writhe(g)`` equals twice this value
    for one-strand codes."""
    sign = g.chord_sign
    seen: set[int] = set()
    tot = 0
    for ev in g.events:
        for kind, val in ev:
            if kind == UNDER and val not in seen:
                tot += sign[val]
            if kind in (OVER, UNDER):
                seen.add(val)
    return tot


# -- lift --------------------------------------------------------------


def _dias(w):
    return [(DIAMOND, 1 if w > 0 else -1)] * abs(w)


def lift(g: SignedGaussCode) -> XCGaussDiagram:
    """Decorate a signed code with rotation diamonds by the sweep rule of
    the module docstring.

    Guarantees: ``forget(lift(g)) == g``; for one-strand codes
    ``rotation_total(lift(g)) + writhe(g) == 2 * underfirst_writhe(g)``;
    on one-strand classical codes the lift is the rotational diagram of the
    upright planar realization, so its evaluated invariant is unchanged
    when ``g`` is altered by a classical framed move.  On virtual codes an
    R3 move at a twisted triangle (module docstring) changes it.
    """
    validate_code(g)
    sign = g.chord_sign
    strand_at = [s for s, ev in enumerate(g.events) for _ in ev]
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    eps: dict[int, int] = {}
    t = 0
    for ev in g.events:
        for k, v in ev:
            if v in first:
                second[v] = t
            else:
                first[v] = t
                eps[v] = sign[v] if k == OVER else -sign[v]
            t += 1

    def rho(x):
        p, q = first[x], second[x]
        nested = sum(eps[y] for y in eps if p < first[y] and second[y] < q)
        entering = sum(eps[y] for y in eps
                       if first[y] < p < second[y] < q)
        return -eps[x] - nested - 2 * entering

    events = []
    written = 0
    at_first: dict[int, int] = {}
    t = 0
    for s, ev in enumerate(g.events):
        out = []
        on_strand = 0
        loops = 0
        for k, v in ev:
            if t == second.get(v):
                p = first[v]
                w = rho(v) + s - strand_at[p] - (written - at_first[v])
                out += _dias(w)
                written += w
                on_strand += w
                if strand_at[p] == s:
                    loops += eps[v]
            else:
                at_first[v] = written
            out.append((k, v))
            t += 1
        w = -loops - on_strand
        out += _dias(w)
        written += w
        events.append(tuple(out))
    return XCGaussDiagram(g.n, g.top, g.chords, events)


# -- Kauffman bracket state sum ---------------------------------------


#: The most chords :func:`bracket_oracle` sums over: 2^25 states take
#: about a minute.
BRACKET_MAX_CHORDS = 25


def bracket_oracle(g: SignedGaussCode) -> Coefficient:
    """Kauffman-bracket state sum of a one-strand code, as a Laurent
    polynomial in q under the substitution ``A^2 = q^-1``.

    Each chord is resolved into its orientation-preserving or
    orientation-reversing smoothing on the abstract 4-valent graph of the
    closed-up curve; a state with ``a`` bracket-A smoothings, ``b``
    bracket-B smoothings and ``L`` loops contributes
    ``A^(a-b) * delta^(L-1)`` with ``delta = -A^2 - A^-2``; the total is
    normalized by the framing factor ``(-A^3)^(-writhe)``.

    The 2^k states are the leaves of a depth-first walk over the chords in
    sorted id order, both smoothings of each, on one union-find of the
    curve's 2k arcs.  A chord's two unions are undone when its branch
    returns, so states that share a prefix share its unions.  Leaves are
    counted by ``(a, L)``, and each distinct pair is expanded once.
    Raises :class:`GuardrailError` before the walk on more than
    :data:`BRACKET_MAX_CHORDS` chords.
    """
    validate_code(g)
    if g.n != 1:
        raise ValidationError(f"bracket oracle needs a one-strand code, got {g.n}")
    k = len(g.chords)
    if k > BRACKET_MAX_CHORDS:
        raise GuardrailError(
            f"bracket state sum over {k} chords has 2^{k} = {1 << k} states, "
            f"more than 2^{BRACKET_MAX_CHORDS}")
    ev = g.events[0]
    sign = g.chord_sign
    m = len(ev)  # == 2k; arc i runs from event i to event i+1 mod m
    pos = {e: i for i, e in enumerate(ev)}
    # per chord, in sorted id order: the arc pairs joined by its bracket-A
    # smoothing, then by its bracket-B smoothing.  For a positive chord the
    # A-smoothing preserves orientation; for a negative chord it reverses
    # it (pinned by the kink: the A-state of a positive kink has the extra
    # loop).
    smoothings = []
    for cid in sorted(sign):
        p, q = pos[(OVER, cid)], pos[(UNDER, cid)]
        oriented = ((p - 1) % m, q, (q - 1) % m, p)
        reversed_ = ((p - 1) % m, (q - 1) % m, p, q)
        smoothings.append((oriented, reversed_) if sign[cid] > 0
                          else (reversed_, oriented))

    parent = list(range(m))
    size = [1] * m
    # leaves[a][L]: the states with a bracket-A smoothings and L loops
    leaves = [[0] * (m + 2) for _ in range(k + 1)]

    def union(x, y):
        """Join the classes of arcs x and y by size; return the root that
        was hung under the other, or -1 if they were one class."""
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x == y:
            return -1
        if size[x] > size[y]:
            x, y = y, x
        parent[x] = y
        size[y] += size[x]
        return x

    def undo(x):
        if x >= 0:
            y = parent[x]
            parent[x] = x
            size[y] -= size[x]

    def walk(i, a, loops):
        if i == k:
            leaves[a][loops] += 1
            return
        for pick_a, (x1, y1, x2, y2) in zip((1, 0), smoothings[i]):
            r1 = union(x1, y1)
            r2 = union(x2, y2)
            walk(i + 1, a + pick_a, loops - (r1 >= 0) - (r2 >= 0))
            undo(r2)
            undo(r1)

    walk(0, 0, max(m, 1))  # the empty code is one loop
    # A^(a-b) * delta^(L-1) with delta = -A^2 - A^-2, once per (a, L)
    total: dict[int, int] = {}
    for a, row in enumerate(leaves):
        for loops, count in enumerate(row):
            if not count:
                continue
            n = loops - 1
            for j in range(n + 1):
                e = 2 * a - k + 2 * n - 4 * j
                total[e] = total.get(e, 0) + (-1) ** n * comb(n, j) * count
    total = {e: c for e, c in total.items() if c}
    # framing normalization (-A^3)^(-writhe)
    w = writhe(g)
    normalized: dict[int, int] = {}
    neg = (-1) ** (abs(w) % 2)
    for e, c in total.items():
        normalized[e - 3 * w] = neg * c if w % 2 else c
    # substitute A^2 = q^-1 (all exponents are even after normalization)
    out: dict[int, int] = {}
    for e, c in normalized.items():
        if e % 2:
            raise NonScalarError("bracket state sum produced an odd power")
        out[-(e // 2)] = out.get(-(e // 2), 0) + c
    return Coefficient.laurent(out)


# -- random classical framed moves ------------------------------------


def random_move_on_code(g: SignedGaussCode, kind: str,
                        rng: random.Random | None = None) -> SignedGaussCode:
    """Apply one random classical framed Gauss-code move.

    ``kind`` is one of:

    * ``"R1f"`` -- insert a canceling pair of opposite-sign kinks;
    * ``"R2"``  -- delete the first parallel opposite-sign chord pair, or
      insert one: a ``G2`` site of :mod:`~xctangle.moves`;
    * ``"R3"``  -- rewrite a random triangle of three positive chords to
      the other side: a ``G3`` site of :mod:`~xctangle.moves`;
    * ``"reorder"`` -- renumber chord ids (a representation change).

    On a diamond-free diagram ``G2`` and ``G3`` are the Reidemeister moves
    R2 and R3 of signed codes, so both run on the move engine.

    Raises :class:`NoSiteError` when the requested move has no site.
    """
    validate_code(g)
    rng = rng or random.Random(0)
    if kind == "R1f":
        if g.n == 0:
            raise NoSiteError("no strand to host a kink pair")
        a = 1 + max((c for c, _ in g.chords), default=0)
        s1, s2 = rng.randrange(g.n), rng.randrange(g.n)
        p1 = rng.randint(0, len(g.events[s1]))
        p2 = rng.randint(0, len(g.events[s2]))
        f1 = [(OVER, a), (UNDER, a)] if rng.random() < 0.5 else \
            [(UNDER, a), (OVER, a)]
        f2 = [(OVER, a + 1), (UNDER, a + 1)] if rng.random() < 0.5 else \
            [(UNDER, a + 1), (OVER, a + 1)]
        if s1 == s2 and p2 >= p1:
            p2 += 2
        ev = [list(e) for e in g.events]
        ev[s1][p1:p1] = f1
        ev[s2][p2:p2] = f2
        return XCGaussDiagram(g.n, g.top, [*g.chords, (a, 1), (a + 1, -1)], ev)
    if kind == "R2":
        g2 = [p for p in builtin_patterns() if p.kind == "G2"]
        pair = next((MoveSite(p, "L", *site) for p in g2
                     for site in p.sides["L"].sites(g)), None)
        if pair is not None and rng.random() < 0.5:
            return apply(g, pair)
        if g.n == 0:
            raise NoSiteError("no strand to host a parallel pair")
        eps = rng.choice([1, -1])
        s1, s2 = rng.randrange(g.n), rng.randrange(g.n)
        p1 = rng.randint(0, len(g.events[s1]))
        p2 = rng.randint(0, len(g.events[s2]))
        if s1 == s2 and p2 < p1:
            p1, p2 = p2, p1
        return apply(g, MoveSite(g2[0], "R", ((s1, p1), (s2, p2)), (), eps))
    if kind == "R3":
        return apply(g, random_site(g, "G3", rng))
    if kind == "reorder":
        ids = [c for c, _ in g.chords]
        if not ids:
            return g
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        sign = g.chord_sign
        events = [
            tuple((k, mapping[v]) if k != DIAMOND else (k, v) for k, v in ev)
            for ev in g.events
        ]
        chords = [(mapping[c], sign[c]) for c in ids]
        return XCGaussDiagram(g.n, g.top, chords, events)
    raise ValidationError(f"unknown move kind {kind!r}")


# -- signed-code text format ------------------------------------------


def print_code(g: SignedGaussCode) -> str:
    """Render a signed code with the sign attached at both endpoints."""
    sign = g.chord_sign
    return print_stanza(
        g, None, lambda e: f"{e[0]}{e[1]}{'+' if sign[e[1]] > 0 else '-'}")


def parse_code(text: str) -> SignedGaussCode:
    """Parse the signed-code format; endpoint signs must agree per chord."""
    signs: dict[int, int] = {}

    def event(tok, lineno, col):
        if tok[0] not in (OVER, UNDER) or tok[-1] not in "+-" \
                or not is_decimal(tok[1:-1]):
            raise ParseError(f"unknown code token {tok!r}", lineno, col)
        cid, s = int(tok[1:-1]), 1 if tok[-1] == "+" else -1
        if signs.setdefault(cid, s) != s:
            raise ParseError(f"inconsistent signs for chord {cid}", lineno, col)
        return tok[0], cid

    n, top, _, events = read_stanza(text, None, event)
    g = XCGaussDiagram(n, top, sorted(signs.items()), events)
    validate_code(g)
    return g
