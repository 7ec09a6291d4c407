"""Local rewrite moves on Gauss diagrams.

Moves are shipped as data (``data/patterns.cfg``) in a small template
language over the diagram event syntax:

* a pattern has a ``kind`` (G0r, G0, G1f, G2, G2p, G3), sign-variable
  declarations and one or more strand fragments, each a run of adjacent
  events, with a replacement run per fragment;
* chord variables (letters) stand for concrete chords, sign expressions
  are ``+``, ``-``, ``e`` or ``-e`` (one shared sign choice per match);
* all patterns are bidirectional: sites are found for both the left and
  the right side, and applying a site rewrites to the other side.

``validate_pattern`` is the binding correctness gate: it opens both sides
of a pattern (:func:`open_sides`, fragment i alone on strand i) and checks
that their ``zeval`` values agree exactly for every sign choice.  A move is
an identity in A^{(x)k}; since every closure's value is a linear image of
the open value, open equality implies equality in every context.
``check_axioms`` evaluates the XC axioms as the same opened sides.

Config format::

    pattern <kind>
    var <letter>: +|-|e|-e
    frag <i>: <tokens>
    to <i>: <tokens>
    end

where tokens are ``O<letter>``, ``U<letter>``, ``D+``, ``D-``.
"""

from __future__ import annotations

import re
from functools import cached_property
from importlib import resources
from itertools import product

from .errors import NoSiteError, ParseError, StaleSiteError, ValidationError
from .gauss import (
    DIAMOND,
    OVER,
    UNDER,
    XCGaussDiagram,
    built,
    canonical_key,
    is_decimal,
    raised,
    renumbered,
    validate,
)
from .record import FrozenRecord

Token = tuple[str, object]  # ("O"|"U", varname) or ("D", ±1)

KINDS = ("G0r", "G0", "G1f", "G2", "G2p", "G3")


class MovePattern(FrozenRecord):
    kind: str
    variant: int
    vars: tuple[tuple[str, str], ...]  # (letter, sign expression)
    left: tuple[tuple[Token, ...], ...]
    right: tuple[tuple[Token, ...], ...]

    @cached_property
    def _signs(self) -> dict[tuple[str, int], int]:
        """(letter, eps) -> sign, built once per pattern."""
        return {(letter, eps): {"+": 1, "-": -1, "e": eps, "-e": -eps}[expr]
                for letter, expr in self.vars for eps in (1, -1)}

    def sign_of(self, letter: str, eps: int) -> int:
        return self._signs[letter, eps]

    def uses_eps(self) -> bool:
        return any(expr in ("e", "-e") for _, expr in self.vars)


class MoveSite(FrozenRecord):
    """A concrete applicable instance of one side of a pattern.

    ``side`` names the matched side ("L" or "R"); applying the site
    rewrites it to the other side.  ``locs`` gives one (strand, position)
    per fragment: the start of the matched run, or the insertion slot when
    the matched side's fragments are all empty.  ``assign`` maps chord
    variables to concrete chord ids (empty for insertion sites) and
    ``eps`` fixes the shared sign choice.
    """

    pattern: MovePattern
    side: str
    locs: tuple[tuple[int, int], ...]
    assign: tuple[tuple[str, int], ...]
    eps: int

    # Thousands of sites are built per orbit or walk, so the constructor
    # is spelled out: the generic one of FrozenRecord takes about 0.7 us
    # more per site.
    def __init__(self, pattern: MovePattern, side: str, locs, assign,
                 eps: int):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "locs", locs)
        object.__setattr__(self, "assign", assign)
        object.__setattr__(self, "eps", eps)


def _parse_token(tok: str, lineno: int, col: int) -> Token:
    if tok in ("D+", "D-"):
        return (DIAMOND, 1 if tok == "D+" else -1)
    if len(tok) == 2 and tok[0] in (OVER, UNDER) and tok[1].isalpha():
        return (tok[0], tok[1])
    raise ParseError(f"unknown pattern token {tok!r}", lineno, col)


def parse_patterns(text: str) -> list[MovePattern]:
    patterns: list[MovePattern] = []
    counts: dict[str, int] = {}
    cur = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("pattern "):
            if cur is not None:
                raise ParseError("nested pattern block", lineno, 1)
            kind = line[len("pattern "):].strip()
            if kind not in KINDS:
                raise ParseError(f"unknown move kind {kind!r}", lineno, 1)
            cur = {"kind": kind, "vars": [], "left": {}, "right": {},
                   "uses": []}
        elif line == "end":
            if cur is None:
                raise ParseError("'end' outside a pattern block", lineno, 1)
            ids = sorted(cur["left"])
            if ids != sorted(cur["right"]) or ids != list(range(1, len(ids) + 1)):
                raise ParseError("fragment ids must be 1..k on both sides", lineno, 1)
            declared = {letter for letter, _ in cur["vars"]}
            for letter, at_line, col in cur["uses"]:
                if letter not in declared:
                    raise ParseError(
                        f"chord letter {letter!r} has no 'var' line",
                        at_line, col)
            counts[cur["kind"]] = counts.get(cur["kind"], 0) + 1
            patterns.append(
                MovePattern(
                    cur["kind"],
                    counts[cur["kind"]],
                    tuple(cur["vars"]),
                    tuple(tuple(cur["left"][i]) for i in ids),
                    tuple(tuple(cur["right"][i]) for i in ids),
                )
            )
            cur = None
        elif cur is None:
            raise ParseError(f"unexpected line {line!r}", lineno, 1)
        elif line.startswith("var "):
            body = line[len("var "):]
            letter, _, expr = body.partition(":")
            letter, expr = letter.strip(), expr.strip()
            if len(letter) != 1 or not letter.isalpha() or \
                    expr not in ("+", "-", "e", "-e"):
                raise ParseError(f"bad var line {line!r}", lineno, 1)
            cur["vars"].append((letter, expr))
        elif line.startswith("frag ") or line.startswith("to "):
            side = "left" if line.startswith("frag ") else "right"
            body = line.split(" ", 1)[1]
            idx_s, _, rest = body.partition(":")
            if not is_decimal(idx_s.strip()):
                raise ParseError(f"bad fragment index in {line!r}", lineno, 1)
            toks = []
            after_colon = raw.index(":") + 2  # 1-based column
            for m in re.finditer(r"\S+", rest):
                col = after_colon + m.start()
                toks.append(_parse_token(m.group(), lineno, col))
                if toks[-1][0] != DIAMOND:
                    cur["uses"].append((toks[-1][1], lineno, col))
            cur[side][int(idx_s)] = toks
        else:
            raise ParseError(f"unexpected line {line!r}", lineno, 1)
    if cur is not None:
        raise ParseError("unterminated pattern block", 0, 1)
    return patterns


_BUILTIN: list[MovePattern] | None = None


def builtin_patterns() -> list[MovePattern]:
    """The shipped pattern table, loaded from ``data/patterns.cfg``."""
    global _BUILTIN
    if _BUILTIN is None:
        text = (
            resources.files("xctangle").joinpath("data/patterns.cfg").read_text()
        )
        _BUILTIN = parse_patterns(text)
    return _BUILTIN


# -- matching ----------------------------------------------------------


def _instantiate(frag, assign):
    """The fragment's events: a diamond token is its own event."""
    return [tok if tok[0] == DIAMOND else (tok[0], assign[tok[1]])
            for tok in frag]


def _match_run(events, s, start, frag, assign, sign, pattern, eps):
    """Try to match a fragment at events[s][start:]; extends ``assign`` in
    place on success, returns the matched length or None."""
    ev = events[s]
    if start + len(frag) > len(ev):
        return None
    added = []
    for off, (kind, val) in enumerate(frag):
        got = ev[start + off]
        if kind == DIAMOND:
            if got != (DIAMOND, val):
                for a in added:
                    del assign[a]
                return None
            continue
        if got[0] != kind:
            for a in added:
                del assign[a]
            return None
        cid = got[1]
        if val in assign:
            if assign[val] != cid:
                for a in added:
                    del assign[a]
                return None
        else:
            if cid in assign.values() or sign[cid] != pattern.sign_of(val, eps):
                for a in added:
                    del assign[a]
                return None
            assign[val] = cid
            added.append(val)
    return len(frag)


def _inserts(pattern, side):
    """Whether ``side`` of ``pattern`` is an insertion side: a rewrite
    from it matches nothing and only inserts the other side's runs."""
    src = pattern.left if side == "L" else pattern.right
    return all(len(f) == 0 for f in src)


def _runs_conflict(runs, new):
    """Whether a fragment run (strand, start, length) collides with any
    already-placed run: nonempty runs may not share positions and a
    zero-length slot may not fall strictly inside a nonempty run."""
    s, a, la = new
    for t, b, lb in runs:
        if s != t:
            continue
        if la and lb:
            if a < b + lb and b < a + la:
                return True
        elif la == 0 and lb:
            if b < a < b + lb:
                return True
        elif lb == 0 and la:
            if a < b < a + la:
                return True
    return False


def _find_matches(d, pattern, side):
    """All non-overlapping assignments of one side's fragments to runs."""
    if _inserts(pattern, side):
        return []
    frags = pattern.left if side == "L" else pattern.right
    sign = d.chord_sign
    eps_choices = (1, -1) if pattern.uses_eps() else (1,)
    out = []
    for eps in eps_choices:
        def rec(i, locs, runs, assign):
            if i == len(frags):
                out.append(MoveSite(pattern, side, tuple(locs),
                                    tuple(sorted(assign.items())), eps))
                return
            frag = frags[i]
            # a run starts with the diamond itself or an end of this kind
            head = frag[0] if frag else None
            for s in range(d.n):
                ev = d.events[s]
                for start in range(len(ev) - len(frag) + 1):
                    if head is not None and (
                            ev[start] != head if head[0] == DIAMOND
                            else ev[start][0] != head[0]):
                        continue
                    if _runs_conflict(runs, (s, start, len(frag))):
                        continue
                    before = dict(assign)
                    if _match_run(d.events, s, start, frag, assign, sign,
                                  pattern, eps) is not None:
                        rec(i + 1, locs + [(s, start)],
                            runs + [(s, start, len(frag))], assign)
                        assign.clear()
                        assign.update(before)
            return
        rec(0, [], [], {})
    return out


def _find_insertions(d, pattern, side):
    """Sites for the direction whose source side is entirely empty: one
    insertion slot per fragment, every slot combination, every sign
    choice."""
    if not _inserts(pattern, side):
        return []
    frags = pattern.left if side == "L" else pattern.right
    slots = [(s, p) for s in range(d.n) for p in range(len(d.events[s]) + 1)]
    eps_choices = (1, -1) if pattern.uses_eps() else (1,)
    out = []
    for eps in eps_choices:
        for locs in product(slots, repeat=len(frags)):
            out.append(MoveSite(pattern, side, locs, (), eps))
    return out


def _side_sites(d, pattern, side):
    """The sites of one side of a pattern in a diagram known valid."""
    return _find_matches(d, pattern, side) + _find_insertions(d, pattern, side)


def find_sites(d: XCGaussDiagram, kind: str) -> list[MoveSite]:
    """Every applicable site of the given move kind, either direction, in
    deterministic order."""
    validate(d)
    if kind not in KINDS:
        raise ValidationError(f"unknown move kind {kind!r}")
    out: list[MoveSite] = []
    for pattern in builtin_patterns():
        if pattern.kind != kind:
            continue
        for side in ("L", "R"):
            out.extend(_side_sites(d, pattern, side))
    return out


def _rewrite(d, site, assign):
    """The event lists of ``d`` with the matched side of ``site`` rewritten
    to the other side, and the chord signs of ``d`` with those of the
    chords the rewrite brings in.  ``assign`` binds the chord variables
    already matched; each other variable gets a fresh chord id."""
    pattern = site.pattern
    src = pattern.left if site.side == "L" else pattern.right
    dst = pattern.right if site.side == "L" else pattern.left
    nxt = 1 + max((c for c, _ in d.chords), default=0)
    for letter, _ in pattern.vars:
        if letter not in assign:
            assign[letter] = nxt
            nxt += 1
    sign = d.chord_sign
    for letter, cid in assign.items():
        if cid not in sign:
            sign[cid] = pattern.sign_of(letter, site.eps)
    ev = [list(e) for e in d.events]
    # higher positions first; at equal positions replace the nonempty run
    # before inserting at its left boundary slot
    jobs = sorted(
        zip(site.locs, src, dst),
        key=lambda j: (j[0][0], -j[0][1], 0 if len(j[1]) else 1),
    )
    for (s, p), frag, rep in jobs:
        ev[s][p:p + len(frag)] = _instantiate(rep, assign)
    return ev, sign


def apply(d: XCGaussDiagram, site: MoveSite) -> XCGaussDiagram:
    """Rewrite the matched side of ``site`` to the other side of its
    pattern.  Raises StaleSiteError when the site no longer matches ``d``."""
    validate(d)
    pattern = site.pattern
    src = pattern.left if site.side == "L" else pattern.right
    assign = dict(site.assign)
    if _inserts(pattern, site.side):
        for s, p in site.locs:
            if s >= d.n or p > len(d.events[s]):
                raise StaleSiteError("insertion slot out of range")
    else:
        sign = d.chord_sign
        runs = []
        rebind = {}
        for (s, p), frag in zip(site.locs, src):
            if _runs_conflict(runs, (s, p, len(frag))):
                raise StaleSiteError("site fragments overlap")
            runs.append((s, p, len(frag)))
            if _match_run(d.events, s, p, frag, rebind, sign,
                          pattern, site.eps) is None:
                raise StaleSiteError("site no longer matches the diagram")
        if any(rebind.get(k, v) != v for k, v in assign.items()):
            raise StaleSiteError("site variables no longer match the diagram")
        assign.update(rebind)
    ev, sign = _rewrite(d, site, assign)
    present = {v for e in ev for k, v in e if k != DIAMOND}
    out = XCGaussDiagram(d.n, d.top, [(c, sign[c]) for c in present],
                         [tuple(e) for e in ev])
    validate(out)
    return out


def random_site(d: XCGaussDiagram, kind: str, rng) -> MoveSite:
    sites = find_sites(d, kind)
    if not sites:
        raise NoSiteError(f"no {kind} site in the diagram")
    return sites[rng.randrange(len(sites))]


# -- orbit search ------------------------------------------------------


class OrbitResult(FrozenRecord):
    """The orbit's members as canonical diagrams (:func:`canonical_key`),
    and whether a budget cut the search short."""

    keys: frozenset
    truncated: bool


def _size_change(pattern, side):
    """How many decorations a rewrite from ``side`` adds: chord letters
    plus diamonds of the target side, minus those of the source side."""
    def count(frags):
        letters = {val for f in frags for kind, val in f if kind != DIAMOND}
        return len(letters) + sum(kind == DIAMOND for f in frags
                                  for kind, _ in f)

    src, dst = ((pattern.left, pattern.right) if side == "L"
                else (pattern.right, pattern.left))
    return count(dst) - count(src)


class _Splice:
    """The rewrites from one insertion side into canonical diagrams, built
    by splicing (see :func:`orbit`).  The plan of a slot combination, and
    the target runs and fresh chords of a (first run, sign choice, m), are
    made once and shared by every member spliced with them."""

    def __init__(self, pattern, side):
        self.pattern = pattern
        self.dst = pattern.left if side == "R" else pattern.right
        self.eps_choices = (1, -1) if pattern.uses_eps() else (1,)
        self.k = len({val for f in self.dst for kind, val in f
                      if kind != DIAMOND})
        self._plans = {}
        self._made = {}

    def plan(self, locs):
        """The index of the first nonempty target run in reading order
        (at one slot the later fragment comes first), and the fragment
        indices in the order :func:`_rewrite` inserts them: by strand,
        higher positions first, at one slot in fragment order."""
        plan = self._plans.get(locs)
        if plan is None:
            first = min((i for i, f in enumerate(self.dst) if f),
                        key=lambda i: (locs[i], -i))
            order = sorted(range(len(locs)),
                           key=lambda i: (locs[i][0], -locs[i][1]))
            plan = self._plans[locs] = (first, order)
        return plan

    def runs(self, first, eps, m):
        """The target runs with the letters of fragment ``first`` as chords
        m+1..m+k in order of first occurrence, and those fresh chords."""
        made = self._made.get((first, eps, m))
        if made is None:
            letters = dict.fromkeys(val for kind, val in self.dst[first]
                                    if kind != DIAMOND)
            assign = {letter: c for c, letter in enumerate(letters, m + 1)}
            runs = tuple(tuple(_instantiate(f, assign)) for f in self.dst)
            fresh = tuple((c, self.pattern.sign_of(letter, eps))
                          for letter, c in assign.items())
            made = self._made[first, eps, m] = (runs, fresh)
        return made


def _ids_before(d):
    """``out[s][p]``: the number of chords of the canonical diagram ``d``
    met before slot p of strand s in reading order, which is the largest
    chord id met there."""
    out, top = [], 0
    for row in d.events:
        col = [top]
        for kind, val in row:
            if kind != DIAMOND and val > top:
                top = val
            col.append(top)
        out.append(col)
    return out


def orbit(d: XCGaussDiagram, max_depth: int, max_size: int) -> OrbitResult:
    """Bounded breadth-first closure of ``d`` under all moves: explores to
    ``max_depth`` rewrites, skipping diagrams with more than ``max_size``
    decorations; flags truncation instead of erroring.

    A rewrite from one side of a shipped pattern changes the decoration
    count by the same amount at every site (:func:`_size_change`), so a
    member of size s skips a whole (pattern, side) when s plus that change
    exceeds ``max_size``; the search is then truncated if the side has a
    site, and no diagram is built.  Every other site is rewritten straight
    to its canonical diagram, whose event and chord tuples are shared with
    the other members.

    A site of a match side is rewritten and renumbered
    (:func:`gauss.renumbered`).  A site of an insertion side (G0r and G2
    read right to left: every source fragment empty) is spliced into the
    member's rows instead; its sites, every slot combination under every
    sign choice, are walked in the order of :func:`find_sites` without a
    :class:`MoveSite` being built for each.  Let m be the number of chords
    met before the first nonempty target run in reading order; in a
    canonical member that is the largest chord id met there.  Chords 1..m
    keep their ids, the side's k chord letters become m+1..m+k in order of
    first occurrence in that run, and every other chord c becomes c + k.
    This is the renumbered diagram because every nonempty target fragment
    of a shipped insertion side holds every letter.  The rows with ids
    above m raised by k come from :func:`gauss.raised`, once per (member,
    m, k), and the runs are sliced in; runs at one slot go in the order
    :func:`apply` gives them, the later fragment first.

    Each candidate is hashed once, by adding it to the members; each new
    member is validated once, and a duplicate equals a member already
    validated.  Members are valid canonical diagrams, so they are searched
    for sites without being validated again.
    """
    if max_depth <= 0 or max_size <= 0:
        raise ValidationError("orbit budgets must be positive")
    steps = [(p, side, _size_change(p, side),
              _Splice(p, side) if _inserts(p, side) else None)
             for p in builtin_patterns() for side in ("L", "R")]
    frontier = [canonical_key(d)]
    seen = set(frontier)
    truncated = False
    for _ in range(max_depth):
        nxt = []
        for cur in frontier:
            size = cur.decoration_count()
            ids_before, rows = _ids_before(cur), {}
            slots = [(s, p) for s, row in enumerate(cur.events)
                     for p in range(len(row) + 1)]
            for pattern, side, change, splice in steps:
                if size + change > max_size:
                    # an insertion side has a site at every slot
                    truncated = truncated or bool(
                        slots if splice else
                        _find_matches(cur, pattern, side))
                    continue
                if splice is None:
                    keys = (_rewritten(cur, site)
                            for site in _find_matches(cur, pattern, side))
                else:
                    keys = (_spliced(cur, locs, eps, splice, ids_before, rows)
                            for eps in splice.eps_choices
                            for locs in product(slots,
                                                repeat=len(splice.dst)))
                for key in keys:
                    known = len(seen)
                    seen.add(key)
                    if len(seen) > known:
                        validate(key)
                        nxt.append(key)
        frontier = nxt
        if not frontier:
            break
    else:
        if frontier:
            truncated = True
    return OrbitResult(frozenset(seen), truncated)


def _rewritten(cur, site):
    """The canonical diagram of rewriting the matched site ``site`` of
    ``cur``."""
    ev, sign = _rewrite(cur, site, dict(site.assign))
    return renumbered(cur.n, cur.top, sign, ev)


def _spliced(cur, locs, eps, splice, ids_before, rows):
    """The canonical diagram of inserting the target runs of ``splice`` at
    the slots ``locs`` of the canonical member ``cur``, with the sign
    choice ``eps``; ``rows`` caches :func:`gauss.raised` by (m, k)."""
    first, order = splice.plan(locs)
    s, p = locs[first]
    m = ids_before[s][p]
    got = rows.get((m, splice.k))
    if got is None:
        got = rows[m, splice.k] = raised(cur, m, splice.k)
    ev, chords = got
    runs, fresh = splice.runs(first, eps, m)
    ev = list(ev)
    for i in order:
        s, p = locs[i]
        row = ev[s]
        ev[s] = row[:p] + runs[i] + row[p:]
    return built(cur.n, cur.top, chords[:m] + fresh + chords[m:], tuple(ev))


# -- the validator (binding oracle for pattern transcription) ----------


def open_sides(pattern: MovePattern, eps: int
               ) -> tuple[XCGaussDiagram, XCGaussDiagram]:
    """The pattern's two sides opened: fragment i alone on strand i, chord
    variable j (in declaration order) as chord j, each side keeping the
    signs of the chords it has."""
    assign = {letter: j for j, (letter, _) in enumerate(pattern.vars, start=1)}
    sign = {assign[letter]: pattern.sign_of(letter, eps)
            for letter, _ in pattern.vars}

    def side(frags):
        events = [_instantiate(f, assign) for f in frags]
        present = {v for e in events for k, v in e if k != DIAMOND}
        k = len(frags)
        return XCGaussDiagram(k, tuple(range(1, k + 1)),
                              [(c, sign[c]) for c in sorted(present)], events)

    return side(pattern.left), side(pattern.right)


def validate_pattern(pattern: MovePattern, algebra) -> tuple[bool, object]:
    """Check that both sides of a pattern, opened by :func:`open_sides`,
    evaluate identically for every sign choice; returns (ok,
    counterexample), the counterexample being the open pair.  Since ``zeval``
    is a strict monoidal functor, open equality gives equality in every
    closure.  A side that is not a valid diagram raises ValidationError."""
    from .invariant import zeval

    for eps in (1, -1) if pattern.uses_eps() else (1,):
        lhs, rhs = open_sides(pattern, eps)
        validate(lhs)
        validate(rhs)
        if zeval(lhs, algebra) != zeval(rhs, algebra):
            return False, (lhs, rhs)
    return True, None
