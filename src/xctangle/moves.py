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

Each pattern reads each of its sides once (:attr:`MovePattern.sides`):
the side object holds its source and target runs, whether it is literal
(its source runs hold no chord letter and cannot collide), its sign
choices, its letter count, its decoration change, and whether it is
balanced: each chord letter has as many over and under ends in the
source runs as in the target runs, or (1, 1) on one side and (0, 0) on
the other, a chord deleted or created whole.  Rewriting a valid diagram
at a site of a balanced side gives a valid diagram, because bound letters
bind distinct chords, the runs do not overlap, fresh letters take fresh
ids and the strands do not change, so every chord keeps one over and one
under end; :func:`orbit` checks each side once and validates no member
but its seed.

A source run is matched by one rule (:meth:`_Side.spots`): where its
kind signature occurs in a row's, after which a side that is not literal
binds its letters fragment by fragment into plain ``(locs, assign,
eps)`` tuples.  A literal side's sites are only counted: one per sign
choice and placement.  :func:`find_sites` returns a read-only
:class:`SiteSequence` over both, which builds a :class:`MoveSite`
(:func:`_site`) only for an index read or an iteration, so
:func:`random_site` builds the one site it draws.  :func:`apply` checks a
site by the same rule and rewrites through the same side, and
:func:`orbit` walks the chord sides' sites and the literal sides'
placements without building a :class:`MoveSite`.

At its last level :func:`orbit` takes two commuting insertions in one
order only.  A member made by a pure insertion (every source run empty)
keeps a record of it, and a later pure insertion there is not built when
it has a slot at or before the first recorded run, none inside one, and
no two slots that fall on one slot once the runs are removed: the same
leaf is built with the two insertions the other way round.  Each member's
raised rows are made once for all of its literal sides.

:func:`open_sides` opens both sides of a pattern, fragment i alone on
strand i.  :func:`~xctangle.invariant.validate_pattern` certifies a move by
the ``zeval`` values of its opened sides, and
:func:`~xctangle.invariant.check_axioms` checks the XC axioms the same way.

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
from collections.abc import Sequence
from functools import cache, cached_property
from itertools import chain, product
from math import prod

from .errors import NoSiteError, ParseError, StaleSiteError, ValidationError
from .gauss import (
    DIAMOND,
    OVER,
    UNDER,
    XCGaussDiagram,
    built,
    canonical_key,
    is_decimal,
    is_int,
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

    @cached_property
    def sides(self) -> dict[str, _Side]:
        """The pattern read from each side, "L" and "R", as a rewrite to
        the other side; each holds only what the pattern fixes."""
        return {name: _Side(self, name) for name in ("L", "R")}


class MoveSite(FrozenRecord):
    """A concrete applicable instance of one side of a pattern.

    ``side`` names the matched side ("L" or "R"); applying the site
    rewrites it to the other side.  ``locs`` gives one (strand, position)
    per fragment: the start of the matched run, or the insertion slot of
    an empty fragment.  ``assign`` maps chord variables to concrete chord
    ids (empty when the matched side's source runs hold no chord letter)
    and ``eps`` fixes the shared sign choice.

    Its fields are slots, as a diagram's are; the sequence that
    :func:`find_sites` returns builds each site it hands out through
    :func:`_site`, and the generic constructor serves keyword calls.
    """

    __slots__ = ("pattern", "side", "locs", "assign", "eps")

    pattern: MovePattern
    side: str
    locs: tuple[tuple[int, int], ...]
    assign: tuple[tuple[str, int], ...]
    eps: int


_set_pattern = MoveSite.pattern.__set__
_set_side = MoveSite.side.__set__
_set_locs = MoveSite.locs.__set__
_set_assign = MoveSite.assign.__set__
_set_eps = MoveSite.eps.__set__


def _site(pattern, side, locs, assign, eps) -> MoveSite:
    """The site with exactly these fields, built as :func:`gauss.built`
    builds a diagram: nothing is converted or checked, and each field is
    set by its slot descriptor's own setter."""
    site = object.__new__(MoveSite)
    _set_pattern(site, pattern)
    _set_side(site, side)
    _set_locs(site, locs)
    _set_assign(site, assign)
    _set_eps(site, eps)
    return site


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
                   "uses": [], "line": lineno}
        elif line == "end":
            if cur is None:
                raise ParseError("'end' outside a pattern block", lineno, 1)
            ids = sorted(cur["left"])
            if not ids and not cur["right"]:
                raise ParseError("pattern block has no fragment", lineno, 1)
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
            if letter in dict(cur["vars"]):
                col = raw.index(letter, raw.index("var ") + 4) + 1
                raise ParseError(f"chord letter {letter!r} declared twice",
                                 lineno, col)
            cur["vars"].append((letter, expr))
        elif line.startswith("frag ") or line.startswith("to "):
            side = "left" if line.startswith("frag ") else "right"
            keyword, body = line.split(" ", 1)
            idx_s, colon, rest = body.partition(":")
            lead = len(raw) - len(raw.lstrip())  # where ``line`` starts
            if not colon:
                raise ParseError(f"missing ':' in {line!r}", lineno,
                                 lead + len(line) + 1)
            idx_s = idx_s.strip()
            if not is_decimal(idx_s):
                raise ParseError(f"bad fragment index in {line!r}", lineno, 1)
            if int(idx_s) in cur[side]:
                col = raw.index(idx_s, raw.index(keyword) + len(keyword)) + 1
                raise ParseError(f"duplicate '{keyword} {idx_s}' line",
                                 lineno, col)
            toks = []
            after_colon = lead + line.index(":") + 2  # 1-based column
            for m in re.finditer(r"\S+", rest):
                col = after_colon + m.start()
                toks.append(_parse_token(m.group(), lineno, col))
                if toks[-1][0] != DIAMOND:
                    cur["uses"].append((toks[-1][1], lineno, col))
            cur[side][int(idx_s)] = toks
        else:
            raise ParseError(f"unexpected line {line!r}", lineno, 1)
    if cur is not None:
        raise ParseError("unterminated pattern block", cur["line"], 1)
    return patterns


@cache
def builtin_patterns() -> list[MovePattern]:
    """The shipped pattern table, loaded from ``data/patterns.cfg`` on the
    first call; every call returns the same list."""
    # imported here: it loads pathlib, zipfile and tempfile, and only the
    # data files need it
    from importlib import resources

    return parse_patterns(
        resources.files("xctangle").joinpath("data/patterns.cfg").read_text())


# -- matching ----------------------------------------------------------


def _instantiate(frag, assign):
    """The fragment's events: a diamond token is its own event."""
    return [tok if tok[0] == DIAMOND else (tok[0], assign[tok[1]])
            for tok in frag]


def _letters(frags):
    """The chord letters of some fragments, in order of first occurrence."""
    return dict.fromkeys(val for f in frags for kind, val in f
                         if kind != DIAMOND)


def _decorations(frags):
    """Chord letters plus diamonds of some fragments."""
    return len(_letters(frags)) + sum(kind == DIAMOND for f in frags
                                      for kind, _ in f)


def _ends(frags, letter):
    """The (over, under) ends of the chord letter ``letter`` in some
    fragments."""
    toks = [tok for f in frags for tok in f]
    return toks.count((OVER, letter)), toks.count((UNDER, letter))


def _kind_signature(events):
    """The kind signature of a run of events or of pattern tokens: one
    character per event, ``O``, ``U``, or ``+`` and ``-`` for a diamond
    of that sign."""
    return "".join([kind if kind != DIAMOND else "+" if val > 0 else "-"
                    for kind, val in events])


def _row_signatures(d):
    """The kind signature of each row of the diagram ``d``."""
    return [_kind_signature(row) for row in d.events]


def _bind(row, p, letters, assign, sign, signs, eps):
    """The bindings ``assign`` extended by the letters of a fragment whose
    kind signature occurs at ``row[p:]``, ``letters`` holding (offset,
    letter) per chord token, or None when one fails: a bound letter must
    meet its chord again, a new one an unbound chord of its sign under
    ``eps``.  ``assign`` itself is never changed."""
    out = assign
    for offset, letter in letters:
        cid = row[p + offset][1]
        bound = out.get(letter)
        if bound is None:
            if cid in out.values() or sign[cid] != signs[letter, eps]:
                return None
            if out is assign:
                out = dict(assign)
            out[letter] = cid
        elif bound != cid:
            return None
    return out


def _runs_conflict(runs, new):
    """Whether a fragment run (strand, start, length) collides with an
    already-placed run: nonempty runs may not share positions and a
    zero-length slot may not fall strictly inside a nonempty run."""
    s, a, la = new
    for t, b, lb in runs:
        if s == t and a < b + lb and b < a + la:
            return True
    return False


class _Side:
    """One side of a pattern read as a rewrite to the other side, made
    once per pattern (:attr:`MovePattern.sides`).  It holds the source and
    target runs, the chord letters its source runs bind, whether it is
    literal, the sign choices, the number ``k`` of chord letters it writes
    and the decoration change of a rewrite, the same at every site, and
    whether its chord ends balance (``balanced``), the rule under which
    :func:`orbit` builds only valid members.

    A source run is matched in one way only: a fragment's spots
    (:meth:`spots`) are the positions where its kind signature
    (:func:`_kind_signature`, ``sigs`` per fragment) occurs in a row's,
    every slot when it is empty.  A side whose runs can collide, or whose
    source runs hold a chord letter, then binds its letters fragment by
    fragment at those spots (:meth:`bindings`), dropping a partial
    placement whose run collides with one placed before it or fails to
    bind.

    A side is *literal* when its source runs hold no chord letter, only
    diamonds or nothing, and no two of them can collide (``can_collide``):
    ``G0r`` read either way, and ``G2`` and the four ``G2p`` patterns read
    right to left.  Such a side has no letter to bind and no run to drop,
    so its sites are its *placements*: every combination of one spot per
    fragment, in product order, the first fragment varying slowest.  It is
    *pure* when every source run is empty and every target run is not, so
    that each rewrite only inserts: ``G0r`` and ``G2`` read right to left
    (``pure``, see :func:`orbit`).  A
    rewrite from a literal side binds no chord, adds its k letters as
    fresh chords and moves no chord of the diagram, so :func:`orbit`
    splices it (:func:`_splices`).  A letterless side whose runs can
    collide (no shipped side) is walked through :meth:`bindings`, the one
    walk that drops colliding runs, and rewritten as a chord side is."""

    def __init__(self, pattern: MovePattern, name: str):
        self.pattern, self.name = pattern, name
        self.src, self.dst = ((pattern.left, pattern.right) if name == "L"
                              else (pattern.right, pattern.left))
        self.letters = _letters(self.src)
        self.widths = tuple(len(frag) for frag in self.src)
        # two runs can collide only when both are nonempty, or when a slot
        # can fall strictly inside a run of two or more diamonds; no
        # shipped letterless side has such a pair
        widths = sorted(self.widths)
        self.can_collide = len(widths) > 1 and (widths[-2] > 0
                                                or widths[-1] > 1)
        self.literal = not self.letters and not self.can_collide
        # every source run empty and every target run not: a side that
        # only inserts, whose rewrites :func:`orbit` may take in one order
        self.pure = not any(self.widths) and all(self.dst)
        self.eps_choices = (1, -1) if pattern.uses_eps() else (1,)
        self.signs = pattern._signs
        self.k = len(_letters(self.dst))
        self.change = _decorations(self.dst) - _decorations(self.src)
        self.sigs = tuple(_kind_signature(frag) for frag in self.src)
        # see :func:`orbit` for why this makes every member valid
        self.balanced = all(
            a == b or {a, b} == {(0, 0), (1, 1)}
            for a, b in ((_ends(self.src, x), _ends(self.dst, x))
                         for x in _letters(self.src + self.dst)))
        self.chord_tokens = tuple(
            tuple((i, val) for i, (kind, val) in enumerate(frag)
                  if kind != DIAMOND)
            for frag in self.src)

    def spots(self, rows):
        """Per fragment, every (strand, position) where its kind signature
        occurs in ``rows``, the signatures of a diagram's rows
        (:func:`_row_signatures`), in (strand, position) order: every slot
        when the fragment is empty.  The list stops at the first fragment
        with no spot, and the later fragments are not searched: every site
        places each fragment at one of its spots, so a side whose list
        ends empty has no site, and :func:`orbit` skips it."""
        out = []
        for sig in self.sigs:
            spots = []
            for s, row in enumerate(rows):
                # ``in`` settles the common miss without a method call
                p = row.find(sig) if sig in row else -1
                while p >= 0:
                    spots.append((s, p))
                    p = row.find(sig, p + 1)
            out.append(spots)
            if not spots:
                break
        return out

    def bindings(self, d, spots, eps):
        """The placements (``product(*spots)``) whose runs do not
        collide (:func:`_runs_conflict`) and at which the chord letters
        bind under ``eps`` (:func:`_bind`), in the same order, as (locs,
        assign).  Each fragment extends the partial placements of the
        fragments before it, and a partial placement whose run fails is
        dropped there.  ``assign`` may be shared between results."""
        events, sign, signs = d.events, d.chord_sign, self.signs
        partial = [((), (), {})]  # locs, runs, assign
        for fspots, letters, width in zip(spots, self.chord_tokens,
                                          self.widths):
            nxt = []
            for locs, runs, assign in partial:
                for s, p in fspots:
                    run = (s, p, width)
                    if self.can_collide and _runs_conflict(runs, run):
                        continue
                    got = _bind(events[s], p, letters, assign, sign, signs,
                                eps)
                    if got is not None:
                        nxt.append((locs + ((s, p),), runs + (run,), got))
            partial = nxt
        return [(locs, assign) for locs, _, assign in partial]

    def sites(self, d: XCGaussDiagram, spots=None):
        """The sites of this side in the valid diagram ``d``, in the order
        of :func:`find_sites`, as (locs, assign, eps): under each sign
        choice, every binding (:meth:`bindings`), with ``assign`` sorted by
        letter.  A literal side's bindings are its placements, with
        ``assign`` empty, but :meth:`found` counts those instead.
        ``spots`` are the side's spots in ``d`` when known."""
        if spots is None:
            spots = self.spots(_row_signatures(d))
        return [(locs, tuple(sorted(assign.items())), eps)
                for eps in self.eps_choices
                for locs, assign in self.bindings(d, spots, eps)]

    def found(self, d: XCGaussDiagram, spots):
        """The sites of this side in the valid diagram ``d`` whose spots
        are ``spots``, as (count, listed).  A literal side has one site per
        sign choice and placement (``product(*spots)``, the first fragment
        varying slowest), all counted and none listed: ``listed`` is None.
        Another side lists its sites (:meth:`sites`)."""
        if self.literal:
            return len(self.eps_choices) * prod(map(len, spots)), None
        listed = self.sites(d, spots)
        return len(listed), listed

    def order(self, locs):
        """The fragment indices in the order a rewrite at ``locs`` writes
        them: by strand, higher positions first, and at one position the
        nonempty source run before the slot at its left boundary."""
        return sorted(range(len(locs)), key=lambda i: (
            locs[i][0], -locs[i][1], not self.src[i]))

    def rewrite(self, d, locs, assign, eps):
        """The chord signs and event rows of ``d`` with this side at
        ``locs`` rewritten to the other side.  ``assign`` binds the chord
        letters already matched; each other letter gets a fresh chord id
        and is added to it."""
        sign = d.chord_sign
        nxt = 1 + max(sign, default=0)
        for letter, _ in self.pattern.vars:
            if letter not in assign:
                assign[letter] = nxt
                nxt += 1
        for letter, cid in assign.items():
            if cid not in sign:
                sign[cid] = self.signs[letter, eps]
        ev = [list(row) for row in d.events]
        for i in self.order(locs):
            s, p = locs[i]
            ev[s][p:p + len(self.src[i])] = _instantiate(self.dst[i], assign)
        return sign, ev

    def plan(self, locs, memo):
        """For a literal side: the index of the first nonempty target run
        in reading order, and :meth:`order`.  ``memo`` holds them by
        placement for a whole :func:`orbit` call: its members are small,
        so their placements repeat, and the sort and the search for the
        first run are paid once per distinct placement.

        The first run is the least by (strand, position); at one position
        an inserted run comes before a replaced one, which :meth:`order`
        writes first, and of the runs inserted at one slot the later
        fragment comes first.  With every target run empty it is 0: such
        a side has no letter to number."""
        plan = memo.get(locs)
        if plan is None:
            first = min((i for i, f in enumerate(self.dst) if f),
                        key=lambda i: (locs[i], self.widths[i] > 0, -i),
                        default=0)
            plan = memo[locs] = (first, self.order(locs))
        return plan

    def runs(self, first, m, memo):
        """For a literal side: the target runs with the letters of
        fragment ``first`` as chords m+1..m+k in order of first occurrence,
        which do not depend on the sign choice, and those fresh chords
        under each sign choice of ``eps_choices``.  ``memo`` holds them by
        (first, m)."""
        made = memo.get((first, m))
        if made is None:
            assign = {letter: c for c, letter in
                      enumerate(_letters((self.dst[first],)), m + 1)}
            runs = tuple(tuple(_instantiate(f, assign)) for f in self.dst)
            fresh = tuple(tuple((c, self.signs[letter, eps])
                                for letter, c in assign.items())
                          for eps in self.eps_choices)
            made = memo[first, m] = (runs, fresh)
        return made

    def inserted(self, locs):
        """For a pure side: its target runs in the diagram that a rewrite
        at the slots ``locs`` writes, as (strand, start, length) in
        (strand, position) order.  A run is shifted by the runs inserted
        before it on its strand: at lower slots, and at its own slot those
        of later fragments (:meth:`order`)."""
        widths = [len(f) for f in self.dst]
        return sorted(
            (s, p + sum(w for j, ((t, q), w) in enumerate(zip(locs, widths))
                        if t == s and (q < p or q == p and j > i)), widths[i])
            for i, (s, p) in enumerate(locs))


def _kind_sides(d: XCGaussDiagram, kind: str) -> list[_Side]:
    """The sides of the shipped patterns of ``kind``, in the order of
    :func:`find_sites`, once ``d`` is valid and ``kind`` is known."""
    validate(d)
    if kind not in KINDS:
        raise ValidationError(f"unknown move kind {kind!r}")
    return [side for pattern in builtin_patterns() if pattern.kind == kind
            for side in pattern.sides.values()]


class SiteSequence(Sequence):
    """The sites that :func:`find_sites` found, as a read-only sequence.

    It holds, per side with a site, the side's spots and its listed
    sites (:meth:`_Side.found`); a literal side's sites are counted, not
    listed.  A :class:`MoveSite` is built (:func:`_site`) only when an
    index is read or the sequence is iterated, and a literal side's site
    is decoded from its index by mixed radix: the sign choice slowest,
    then the fragments in order, the last one fastest, which is the
    order of ``for eps in eps_choices for locs in product(*spots)``.

    It compares site by site with a list or another such sequence, and
    has no ``append`` and no ``+=``."""

    __slots__ = ("_parts", "_len")

    def __init__(self, d: XCGaussDiagram, sides):
        # per side with a site: (side, spots, listed, count)
        self._parts, self._len = [], 0
        rows = _row_signatures(d)
        for side in sides:
            spots = side.spots(rows)
            count, listed = side.found(d, spots)
            if count:
                self._parts.append((side, spots, listed, count))
                self._len += count

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        try:
            at = range(self._len)[index]
        except IndexError:
            raise IndexError(f"site index {index} out of range "
                             f"({self._len} sites)") from None
        if isinstance(at, range):
            return [self._built(i) for i in at]
        return self._built(at)

    def _built(self, i: int) -> MoveSite:
        """The site at index ``i``, which is in range and not negative."""
        for side, spots, listed, count in self._parts:
            if i < count:
                break
            i -= count
        if listed is not None:
            locs, assign, eps = listed[i]
            return _site(side.pattern, side.name, locs, assign, eps)
        which, i = divmod(i, count // len(side.eps_choices))
        locs = []
        for fspots in reversed(spots):
            i, r = divmod(i, len(fspots))
            locs.append(fspots[r])
        return _site(side.pattern, side.name, tuple(reversed(locs)), (),
                     side.eps_choices[which])

    def __iter__(self):
        for side, spots, listed, _ in self._parts:
            pattern, name = side.pattern, side.name
            if listed is not None:
                for locs, assign, eps in listed:
                    yield _site(pattern, name, locs, assign, eps)
            else:
                for eps in side.eps_choices:
                    for locs in product(*spots):
                        yield _site(pattern, name, locs, (), eps)

    def __eq__(self, other):
        if isinstance(other, (list, SiteSequence)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented


def find_sites(d: XCGaussDiagram, kind: str) -> SiteSequence:
    """Every applicable site of the given move kind, either direction, in
    deterministic order: pattern by pattern in table order, its left side
    before its right, and each side's sites in the order of
    :meth:`_Side.found`.  The sites are counted here and built only when
    read (:class:`SiteSequence`)."""
    return SiteSequence(d, _kind_sides(d, kind))


def _is_pair(x) -> bool:
    """Whether ``x`` is a tuple or list of two items."""
    return isinstance(x, (tuple, list)) and len(x) == 2


def _in_range(site: MoveSite, side: _Side, n: int) -> bool:
    """Whether ``site`` has the shape of a site of ``side`` on ``n``
    strands: one (strand, position) pair of ints per fragment, the strand
    below ``n`` and neither negative, an int sign choice of the side, and
    ``assign`` entries that are (letter, id) pairs, each letter bound by
    the side.  A bool is not taken for an int."""
    return (len(site.locs) == len(side.src)
            and all(_is_pair(loc) and is_int(loc[0]) and is_int(loc[1])
                    and 0 <= loc[0] < n and loc[1] >= 0
                    for loc in site.locs)
            and is_int(site.eps) and site.eps in side.eps_choices
            and all(_is_pair(pair) and isinstance(pair[0], str)
                    and pair[0] in side.letters and is_int(pair[1])
                    for pair in site.assign))


def apply(d: XCGaussDiagram, site: MoveSite) -> XCGaussDiagram:
    """Rewrite the matched side of ``site`` to the other side of its
    pattern.  Raises StaleSiteError when the site is out of range
    (:func:`_in_range`: its side, slot count, positions, sign choice or
    ``assign`` entries) or no longer matches ``d``."""
    validate(d)
    side = site.pattern.sides.get(site.side)
    if side is None or not _in_range(site, side, d.n):
        raise StaleSiteError("site out of range")
    # the runs must sit at spots of their fragments, tested at the site's
    # own positions, and bind each letter that ``site.assign`` names to
    # the chord it names there
    rows = _row_signatures(d)
    spots = [[(s, p)] if rows[s].startswith(sig, p) else []
             for (s, p), sig in zip(site.locs, side.sigs)]
    bound = side.bindings(d, spots, site.eps)
    assign = dict(site.assign)
    if not bound or any(assign.setdefault(letter, cid) != cid
                        for letter, cid in bound[0][1].items()):
        raise StaleSiteError("site no longer matches the diagram")
    sign, ev = side.rewrite(d, site.locs, assign, site.eps)
    present = {v for e in ev for k, v in e if k != DIAMOND}
    out = XCGaussDiagram(d.n, d.top, [(c, sign[c]) for c in present],
                         [tuple(e) for e in ev])
    validate(out)
    return out


def random_site(d: XCGaussDiagram, kind: str, rng) -> MoveSite:
    """One site of :func:`find_sites`, drawn by ``rng.randrange``; only
    the drawn site is built.  A diagram with no site raises NoSiteError
    and makes no draw."""
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


def _kept(slots, count, runs):
    """The placements of a pure side with ``count`` fragments that
    :func:`orbit` builds at a last-frontier member whose recorded
    insertion has the runs ``runs`` (:meth:`_Side.inserted`) there;
    ``slots`` are the member's slots in (strand, position) order.

    With F the first run's start, a placement is skipped when some slot
    is at or before F, none lies strictly inside a run, and no two
    distinct slots fall on one slot once the runs are removed.  The kept
    ones are listed directly, each once: for one fragment the slots after
    F; for two, the pairs of slots after F, a slot at or before F paired
    with a slot inside a run either way round, and F paired either way
    round with each slot that ends a block of run tokens starting at F.
    A side with more fragments keeps every placement."""
    if count > 2:
        return product(slots, repeat=count)
    first = runs[0][:2]
    cut = slots.index(first) + 1
    early, late = slots[:cut], slots[cut:]
    if count == 1:
        return [(slot,) for slot in late]
    inside = [(s, q) for s, start, width in runs
              for q in range(start + 1, start + width)]
    ends = []
    s, end = first
    for t, start, width in runs:
        if (t, start) != (s, end):
            break
        end += width
        ends.append((s, end))
    return chain(product(late, repeat=2),
                 [(e, i) for e in early for i in inside],
                 [(i, e) for i in inside for e in early],
                 [(first, j) for j in ends], [(j, first) for j in ends])


def orbit(d: XCGaussDiagram, max_depth: int, max_size: int) -> OrbitResult:
    """Bounded breadth-first closure of ``d`` under all moves: explores to
    ``max_depth`` rewrites, skipping diagrams with more than ``max_size``
    decorations; flags truncation instead of erroring.

    Each side of each shipped pattern (:attr:`MovePattern.sides`) is one
    step, walked with a memo of its own for the call: a chord side
    through its sites, which are (locs, assign, eps) tuples, and a
    literal side through its placements (``product(*spots)``), so no
    :class:`MoveSite` is built.  Each member's row signatures
    (:func:`_row_signatures`) are computed once, and each step reads its
    side's spots (:meth:`_Side.spots`) from them.  A side with a fragment
    that has no spot has no site, so the spot list stops at the first
    such fragment, and a list that ends empty skips the side.

    Each step checks the decoration budget first.  A rewrite from one side
    changes the decoration count by the same amount at every site
    (``change``), so a member of size s skips a whole side when s plus
    that change exceeds ``max_size``; while the search is not yet
    truncated, it is truncated if the side has a site, and no diagram is
    built.  Every other site is rewritten straight to its canonical
    diagram, except the pure insertions that the order rule below skips
    at the last level.

    The order rule takes two commuting insertions in one order only.  A
    pure side (``_Side.pure``: ``G0r`` and ``G2`` read right to left) has
    empty source runs and nonempty target runs, so each of its rewrites
    inserts runs at slots.  The expansion at depth ``max_depth - 2``
    records, for each diagram that a pure insertion builds, the first
    such insertion found, as (side, slots), when some pure insertion
    still fits after it (``size + change + least pure change <=
    max_size``).  At the last expansion, a member x with a record a
    (x = p + a) finds a's runs in x once (:meth:`_Side.inserted`), F
    being the start of the first.  It does not build a pure insertion L
    when (1) some slot of L is at or before F in (strand, position)
    order, (2) no slot of L lies strictly inside one of a's runs, and (3)
    no two distinct slots of L fall on one slot once a's runs are
    removed; the kept placements are listed directly (:func:`_kept`).

    Nothing is lost.  Take a skipped leaf y = x + b.  By (2) and (3),
    b's slots are slots of p, read in the same order.  p was expanded in
    full one level earlier, and b fitted the budget there, since
    insertions only add decorations; so x2 = p + b is a member and y =
    x2 + a'.  If x2 belongs to an earlier level, it was expanded in full,
    and y was built.  Otherwise a' is skipped at x2 only if it comes
    before x2's own record, and the same step repeats on a path whose
    last insertion starts strictly later in y, by (1).  y is finite, so
    some path builds y.  Only placements within the budget are skipped,
    so ``truncated`` does not change either.  Records are made only when
    the budget leaves room for two insertions, so an orbit whose budget
    does not records nothing and builds every leaf.

    Members share their storage.  One dict per call maps each row tuple
    and each chord tuple, by value, to one object, and every candidate
    is built from those objects: the raised rows and chords
    (:func:`_raised`), each spliced row and chord tuple, and the rows and
    chords of each renumbered chord-side result.  A diagram keeps its
    fields in slots, with no instance dict.  Equal tuples are
    interchangeable and the dict lives for one call only, so the members
    are the same values as without it.

    A site of a chord side (``G0``, ``G1f``, ``G3``, and ``G2`` and
    ``G2p`` read left to right: a source run holds a chord letter) is
    rewritten and renumbered (:func:`gauss.renumbered`).  A site of a
    literal side (``G0r`` read either way, ``G2`` and ``G2p`` read right
    to left: every source run empty or diamonds only, and no two that can
    collide) is spliced into the member's rows instead (:func:`_splices`):
    each empty source run is a slot that the target run is inserted at,
    and each nonempty one is replaced by its target run.  No chord of the
    member moves.  Let m be the number of chords met before the first
    nonempty target run in reading order; in a canonical member that is
    the largest chord id met there.  Chords 1..m keep their ids, the
    side's k chord letters become m+1..m+k in order of first occurrence
    in that run, and every other chord c becomes c + k.  This is the
    renumbered diagram because every nonempty target fragment of a
    shipped literal side holds every letter.  The first run is found as
    :meth:`_Side.plan` says, which is the order :func:`apply` leaves the
    runs in.  A side with no letters (``G0r``) keeps the member's chords.
    The member's raised rows (:func:`_raised`) depend on m and k only,
    so they are made once per member for all of its literal sides: the
    five sides with k = 2 share them.

    Members are valid by construction, so only the seed is validated
    (through :func:`gauss.canonical_key`), and each side is checked once,
    before any member is built: it must be balanced (``_Side.balanced``).
    For every chord letter, its (over, under) end counts in the source
    runs and in the target runs are equal, or one side has (1, 1) and the
    other (0, 0), a chord deleted or created whole.  That is enough: take
    a valid member and a site.  Bound letters bind distinct chords
    (:func:`_bind`), and the runs do not overlap (:func:`_runs_conflict`,
    or a literal side, which cannot collide), so each chord end in the
    runs is one token of its chord's letter.  Fresh letters take fresh
    ids, and ``n`` and ``top`` do not change.  So every chord of the
    result keeps exactly one over end and one under end; diamonds and
    signs are ±1 by the parser.  A side that is not balanced raises
    ValidationError naming its kind, variant and side.  Each candidate is
    hashed once, by adding it to the members, and members are searched
    for sites without being validated.

    Both budgets must be ints (not bools) and positive, or ValidationError
    is raised.
    """
    for budget in (max_depth, max_size):
        if not is_int(budget):
            raise ValidationError(f"orbit budget {budget!r} is not an int")
    if max_depth <= 0 or max_size <= 0:
        raise ValidationError("orbit budgets must be positive")
    steps = []
    for pattern in builtin_patterns():
        for side in pattern.sides.values():
            if not side.balanced:
                raise ValidationError(
                    f"{pattern.kind} variant {pattern.variant} side "
                    f"{side.name}: chord ends do not balance")
            steps.append((side, {}))
    # read only for a pure side, so only when there is one
    least = min((side.change for side, _ in steps if side.pure), default=0)
    share: dict[tuple, tuple] = {}
    frontier = [_shared(canonical_key(d), share)]
    seen = set(frontier)
    truncated = False
    records: dict[XCGaussDiagram, tuple] = {}
    for depth in range(max_depth):
        last, recording = depth == max_depth - 1, depth == max_depth - 2
        nxt = []
        for cur in frontier:
            size, rows = cur.decoration_count(), _row_signatures(cur)
            ids_before = _ids_before(cur)
            found = records.get(cur) if last and records else None
            runs = found[0].inserted(found[1]) if found else None
            lifts = None
            for side, memo in steps:
                over = size + side.change > max_size
                if over and truncated:
                    continue
                spots = side.spots(rows)
                if not spots[-1]:
                    continue
                if over:
                    truncated = side.found(cur, spots)[0] > 0
                    continue
                if side.literal:
                    if lifts is None:
                        lifts = {}
                    kept = into = None
                    if side.pure:
                        if runs:
                            kept = _kept(spots[0], len(spots), runs)
                        elif recording and (size + side.change + least
                                            <= max_size):
                            into = records
                    keys = _splices(cur, side, spots, ids_before, memo, share,
                                    lifts=lifts, kept=kept, record=into)
                else:
                    keys = (_shared(renumbered(cur.n, cur.top, *side.rewrite(
                                cur, locs, dict(assign), eps)), share)
                            for locs, assign, eps in side.sites(cur, spots))
                for key in keys:
                    known = len(seen)
                    seen.add(key)
                    if len(seen) > known:
                        nxt.append(key)
        frontier = nxt
        if not frontier:
            break
    else:
        if frontier:
            truncated = True
    return OrbitResult(frozenset(seen), truncated)


def _shared(d, share):
    """``d`` built from the row and chord tuples that ``share`` holds for
    its values, adding the ones it lacks."""
    chords = share.setdefault(d.chords, d.chords)
    return built(d.n, d.top, chords,
                 tuple([share.setdefault(row, row) for row in d.events]))


def _raised(d, m, k, share):
    """The rows and the chords of the canonical diagram ``d`` with every
    chord id above ``m`` raised by ``k``, as ``(events, chords)``.  Each
    row is the object that ``share`` holds for its value, added there if
    it is new; the chords only go into the chord tuples that
    :func:`_splices` shares."""
    if k == 0:
        return d.events, d.chords
    rows = []
    for row in d.events:
        row = tuple([e if e[0] == DIAMOND or e[1] <= m else (e[0], e[1] + k)
                     for e in row])
        rows.append(share.setdefault(row, row))
    chords = d.chords[:m] + tuple([(c + k, s) for c, s in d.chords[m:]])
    return tuple(rows), chords


def _splices(cur, side, spots, ids_before, memo, share, *, lifts=None,
             kept=None, record=None):
    """The canonical diagrams of rewriting the literal side ``side`` at
    each of its placements in the canonical member ``cur``, whose spots
    are ``spots``: for each placement in turn, one diagram per sign
    choice of ``side.eps_choices``.  The diagrams of one placement share
    their row tuple and differ in their chords only, because the target
    runs do not depend on the sign choice.  ``kept`` replaces the
    placements (``product(*spots)``) when given (:func:`_kept`), and
    ``record``, when given, maps each diagram not in it yet to
    ``(side, locs)``.

    ``memo`` holds the side's plans and runs, and ``share`` the orbit's
    row and chord tuples by value, which every row and chord tuple here
    is taken from.  ``lifts`` holds the member's raised rows and chords
    (:func:`_raised`) by (m, k), for all of its literal sides; for
    this side alone, the runs and the chord tuple of each sign choice are
    kept by (first, m).  Each placement's rows are built in one way:
    its runs are sliced into the raised rows in the order of
    :meth:`_Side.order`, higher positions first, so that a run does not
    move the positions of the runs still to come."""
    n, top, k, widths, made = cur.n, cur.top, side.k, side.widths, {}
    if lifts is None:
        lifts = {}
    for locs in product(*spots) if kept is None else kept:
        first, order = side.plan(locs, memo)
        s, p = locs[first]
        m = ids_before[s][p]
        got = made.get((first, m))
        if got is None:
            lifted = lifts.get((m, k))
            if lifted is None:
                lifted = lifts[m, k] = _raised(cur, m, k, share)
            ev, chords = lifted
            runs, fresh = side.runs(first, m, memo)
            choices = [chords[:m] + f + chords[m:] for f in fresh]
            got = made[first, m] = (
                ev, runs, [share.setdefault(c, c) for c in choices])
        ev, runs, chord_choices = got
        ev = list(ev)
        for i in order:
            s, p = locs[i]
            row = ev[s]
            ev[s] = row[:p] + runs[i] + row[p + widths[i]:]
        for s, _ in locs:
            ev[s] = share.setdefault(ev[s], ev[s])
        ev = tuple(ev)
        for chords in chord_choices:
            key = built(n, top, chords, ev)
            if record is not None:
                record.setdefault(key, (side, locs))
            yield key


# -- opened sides (what invariant.validate_pattern evaluates) ----------


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
