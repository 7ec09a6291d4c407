"""XC-Gauss diagrams and their categorical operations.

A diagram has ``n`` ordered strands, read bottom to top.  Strands are indexed
by their bottom-boundary position (1-based); ``top[i-1]`` is the top-boundary
position of the strand starting at bottom position ``i``.  Each strand carries
an ordered list of events: ``("O", chordId)`` / ``("U", chordId)`` for the
over/under endpoint of a signed chord (oriented over -> under), or
``("D", sign)`` for a signed rotation marking (diamond).

Canonical text format (one diagram per stanza)::

    strands: <n>
    top: <t1> ... <tn>
    chords: <id>:<+|-> ...
    strand <i>: O<id> U<id> D+ D- ...

Lines may appear in any order; a ``strand i`` line is required for every
strand (possibly empty); unknown tokens are rejected.  Signed codes
(:mod:`~xctangle.virtualt`) and formula templates (:mod:`~xctangle.polyak`)
use the same stanza through :func:`read_stanza` and :func:`print_stanza`,
each with its own chord and event tokens.  Every :class:`ParseError`
carries a line and a column.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .errors import ParseError, ValidationError
from .record import FrozenRecord

Event = tuple[str, int]

OVER = "O"
UNDER = "U"
DIAMOND = "D"


class XCGaussDiagram(FrozenRecord):
    """Immutable XC-Gauss diagram.

    Its fields are slots: a diagram carries no instance dict, which
    matters in an orbit of tens of thousands of members.
    """

    __slots__ = ("n", "top", "chords", "events")

    n: int
    top: tuple[int, ...]
    chords: tuple[tuple[int, int], ...]
    events: tuple[tuple[Event, ...], ...]

    def __init__(
        self,
        n: int,
        top: Sequence[int],
        chords: Iterable[tuple[int, int]],
        events: Sequence[Sequence[Event]],
    ):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "top", tuple(int(t) for t in top))
        object.__setattr__(
            self, "chords", tuple(sorted((int(c), int(s)) for c, s in chords))
        )
        object.__setattr__(
            self, "events", tuple(tuple((k, int(v)) for k, v in ev) for ev in events)
        )

    # Diagrams are hashed and compared in every orbit and sum, so the
    # field tuple is spelled out here rather than built generically.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.n, self.top, self.chords, self.events)
                    == (other.n, other.top, other.chords, other.events))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.top, self.chords, self.events))

    # -- helpers ------------------------------------------------------

    @property
    def chord_sign(self) -> dict[int, int]:
        return dict(self.chords)

    def decoration_count(self) -> int:
        """Number of decorations: chords plus diamonds."""
        dia = sum(1 for ev in self.events for e in ev if e[0] == DIAMOND)
        return len(self.chords) + dia


_set_n = XCGaussDiagram.n.__set__
_set_top = XCGaussDiagram.top.__set__
_set_chords = XCGaussDiagram.chords.__set__
_set_events = XCGaussDiagram.events.__set__


def identity(n: int) -> XCGaussDiagram:
    return XCGaussDiagram(n, tuple(range(1, n + 1)), (), tuple(() for _ in range(n)))


def validate(d: XCGaussDiagram) -> None:
    """Check all structural invariants; raise ValidationError on the first
    violation."""
    if d.n < 0:
        raise ValidationError("negative strand count")
    if len(d.top) != d.n:
        raise ValidationError(f"top has length {len(d.top)}, expected {d.n}")
    if sorted(d.top) != list(range(1, d.n + 1)):
        raise ValidationError(f"top {d.top} is not a bijection on 1..{d.n}")
    if len(d.events) != d.n:
        raise ValidationError(f"{len(d.events)} strand event lists, expected {d.n}")
    signs = {}
    for cid, s in d.chords:
        if cid in signs:
            raise ValidationError(f"chord {cid} listed twice")
        if s not in (1, -1):
            raise ValidationError(f"chord {cid} has sign {s}, expected +1 or -1")
        signs[cid] = s
    seen_over: set[int] = set()
    seen_under: set[int] = set()
    for i, ev in enumerate(d.events, start=1):
        for kind, val in ev:
            # chord ends outnumber diamonds, so they are tested first
            if kind == OVER:
                if val not in signs:
                    raise ValidationError(f"dangling chord end: unknown chord {val}")
                if val in seen_over:
                    raise ValidationError(f"duplicate over endpoint for chord {val}")
                seen_over.add(val)
            elif kind == UNDER:
                if val not in signs:
                    raise ValidationError(f"dangling chord end: unknown chord {val}")
                if val in seen_under:
                    raise ValidationError(f"duplicate under endpoint for chord {val}")
                seen_under.add(val)
            elif kind == DIAMOND:
                if val not in (1, -1):
                    raise ValidationError(f"diamond on strand {i} has sign {val}")
            else:
                raise ValidationError(f"unknown event kind {kind!r}")
    # both sets hold listed chords only, so equal sizes mean every chord
    # has both ends; otherwise find the first chord that lacks one
    if len(seen_over) + len(seen_under) != 2 * len(signs):
        for cid in signs:
            if cid not in seen_over:
                raise ValidationError(f"chord {cid} has no over endpoint")
            if cid not in seen_under:
                raise ValidationError(f"chord {cid} has no under endpoint")


def _shifted(d1: XCGaussDiagram, d2: XCGaussDiagram):
    """The rows of ``d2`` with each chord id raised past every id of
    ``d1``, and the chords of ``d1`` followed by those of ``d2`` raised
    alike: the parts of ``d2`` that :func:`compose` and :func:`tensor`
    join to ``d1``."""
    shift = 1 + max((c for c, _ in d1.chords), default=0)
    ev2 = [
        tuple((k, v + shift if k in (OVER, UNDER) else v) for k, v in ev)
        for ev in d2.events
    ]
    return ev2, list(d1.chords) + [(c + shift, s) for c, s in d2.chords]


def compose(d2: XCGaussDiagram, d1: XCGaussDiagram) -> XCGaussDiagram:
    """Stack d2 on top of d1 (first d1, then d2)."""
    if d1.n != d2.n:
        raise ValidationError(f"strand-count mismatch: {d1.n} vs {d2.n}")
    ev2, chords = _shifted(d1, d2)
    events = []
    top = []
    for i in range(d1.n):
        j = d1.top[i]  # 1-based position where strand i enters d2
        events.append(tuple(d1.events[i]) + tuple(ev2[j - 1]))
        top.append(d2.top[j - 1])
    return XCGaussDiagram(d1.n, top, chords, events)


def tensor(d1: XCGaussDiagram, d2: XCGaussDiagram) -> XCGaussDiagram:
    """Place d2 to the right of d1 (strand positions shifted by d1.n)."""
    ev2, chords = _shifted(d1, d2)
    top = list(d1.top) + [t + d1.n for t in d2.top]
    return XCGaussDiagram(d1.n + d2.n, top, chords, list(d1.events) + ev2)


def braiding(n: int, m: int) -> XCGaussDiagram:
    """The symmetric braiding: no events, position i goes to i+m mod n+m."""
    if n < 0 or m < 0:
        raise ValidationError("braiding arguments must be non-negative")
    total = n + m
    top = [((i - 1 + m) % total) + 1 for i in range(1, total + 1)]
    return XCGaussDiagram(total, top, (), tuple(() for _ in range(total)))


def is_pure(d: XCGaussDiagram) -> bool:
    return all(d.top[i] == i + 1 for i in range(d.n))


def renumbered(n: int, top: tuple[int, ...], sign: dict[int, int],
               events) -> XCGaussDiagram:
    """The diagram on ``n`` strands with this ``top``, these event lists
    and the signs ``sign`` of their chords, its chord ids renumbered by
    first occurrence in strand-major reading order.

    The renumbering and the construction are one pass.  Every value is
    taken as an int already, as in the fields of a built diagram, so
    nothing is converted or re-sorted: the chords come out in renumbered
    order.  Diamond events are kept as given, and a chord of a sign other
    than ±1 is kept for :func:`validate` to reject.
    """
    mapping: dict[int, int] = {}
    rows = []
    for ev in events:
        row = []
        for e in ev:
            kind = e[0]
            if kind == OVER or kind == UNDER:
                c = mapping.get(e[1])
                if c is None:
                    c = mapping[e[1]] = len(mapping) + 1
                e = (kind, c)
            row.append(e)
        rows.append(tuple(row))
    chords = tuple([(new, sign[old]) for old, new in mapping.items()])
    return built(n, top, chords, tuple(rows))


def built(n: int, top: tuple[int, ...], chords: tuple, events: tuple
          ) -> XCGaussDiagram:
    """The diagram with exactly these fields: tuples of ints, the chords
    sorted by id.  Nothing is converted, sorted or checked, and the
    tuples are kept as given, so diagrams built from one set of row and
    chord tuples share them."""
    d = object.__new__(XCGaussDiagram)
    # the slot descriptors' own setters, bound below the class: four C
    # calls, where object.__setattr__ would look each name up
    _set_n(d, n)
    _set_top(d, top)
    _set_chords(d, chords)
    _set_events(d, events)
    return d


def renumber_canonically(d: XCGaussDiagram) -> XCGaussDiagram:
    """Renumber chord ids by first occurrence in strand-major reading order."""
    return renumbered(d.n, d.top, d.chord_sign, d.events)


def canonical_key(d: XCGaussDiagram) -> XCGaussDiagram:
    """The renumbered diagram: a hashable key invariant under chord
    renumbering, and itself a representative of its class.

    ``d`` is validated first, so a chord end of an unknown chord or a
    chord without ends raises ValidationError instead of being dropped
    or failing inside the renumbering.  Callers that hold diagrams known
    to be valid call :func:`renumbered` directly.
    """
    validate(d)
    return renumber_canonically(d)


# -- text format ------------------------------------------------------


def is_decimal(text: str) -> bool:
    """Whether ``text`` is a nonempty run of the ASCII digits 0-9, the only
    digits a printer writes.  ``str.isdecimal`` alone takes every Unicode
    decimal digit, which ``int`` reads too."""
    return text.isascii() and text.isdecimal()


def chord_text(cid: int, sign: int) -> str:
    return f"{cid}:{'+' if sign > 0 else '-'}"


def event_text(e: Event) -> str:
    if e[0] == DIAMOND:
        return "D+" if e[1] > 0 else "D-"
    return f"{e[0]}{e[1]}"


def print_stanza(d: XCGaussDiagram, chord_tokens, event_token) -> str:
    """Print the stanza of ``d``: the ``chords:`` line holds
    ``chord_tokens``, or is left out when they are None, and
    ``event_token(event)`` prints each event of the ``strand i:`` lines."""
    lines = [f"strands: {d.n}", "top: " + " ".join(str(t) for t in d.top)]
    if chord_tokens is not None:
        lines.append(" ".join(["chords:", *chord_tokens]))
    for i, ev in enumerate(d.events, start=1):
        lines.append(" ".join([f"strand {i}:", *map(event_token, ev)]))
    return "\n".join(lines) + "\n"


def print_diagram(d: XCGaussDiagram) -> str:
    return print_stanza(d, [chord_text(c, s) for c, s in d.chords], event_text)


def parse_chord_token(tok: str, lineno: int, col: int) -> tuple[int, int]:
    """One ``<id>:<+|->`` token of a ``chords:`` line."""
    cid, _, sgn = tok.partition(":")
    if not is_decimal(cid) or sgn not in ("+", "-", "?"):
        raise ParseError(f"bad chord token {tok!r}", lineno, col)
    if sgn == "?":
        raise ParseError(f"unsigned chord {tok!r} not allowed here", lineno, col)
    return int(cid), 1 if sgn == "+" else -1


def parse_event_token(tok: str, lineno: int, col: int) -> Event:
    """One ``O<id>``, ``U<id>``, ``D+`` or ``D-`` token of a strand line."""
    if tok in ("D+", "D-"):
        return (DIAMOND, 1 if tok == "D+" else -1)
    if tok[0] in (OVER, UNDER) and is_decimal(tok[1:]):
        return (tok[0], int(tok[1:]))
    raise ParseError(f"unknown event token {tok!r}", lineno, col)


def read_stanza(text: str, chord_token, event_token, first_line: int = 1):
    """Read one stanza, starting at line ``first_line``, into ``(n, top,
    chords, events)``, unvalidated.  ``chord_token(tok, line, column)``
    reads each token of the ``chords:`` line into ``(id, sign)``; a format
    without that line passes None.  ``event_token(tok, line, column)`` reads
    each token of a ``strand i:`` line.  Columns are 1-based on the raw
    line."""
    n = top = None
    chords: list[tuple[int, int]] = []
    strands: dict[int, list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected '<keyword>: ...'", lineno, 1)
        head, _, rest = line.partition(":")
        at = len(head) + 2  # the column just after the colon
        toks = [(m.group(), at + m.start()) for m in re.finditer(r"\S+", rest)]
        head, rest = head.strip(), rest.strip()
        if head == "strands":
            if not is_decimal(rest):
                raise ParseError(f"bad strand count {rest!r}", lineno, at)
            n = int(rest)
        elif head == "top":
            if not all(is_decimal(tok) for tok, _ in toks):
                raise ParseError(f"bad top permutation {rest!r}", lineno, at)
            top = tuple(int(tok) for tok, _ in toks)
        elif head == "chords" and chord_token is not None:
            chords += [chord_token(tok, lineno, col) for tok, col in toks]
        elif head.startswith("strand "):
            idx_s = head[len("strand "):].strip()
            if not is_decimal(idx_s):
                col = line.index(idx_s, line.index("strand ") + 7) + 1
                raise ParseError(f"bad strand index {idx_s!r}", lineno, col)
            idx = int(idx_s)
            if idx in strands:
                raise ParseError(f"duplicate strand {idx} line", lineno, 1)
            strands[idx] = [event_token(tok, lineno, col) for tok, col in toks]
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, 1)
    if n is None:
        raise ParseError("missing 'strands:' line", first_line, 1)
    if top is None:
        top = tuple(range(1, n + 1))
    missing = [i for i in range(1, n + 1) if i not in strands]
    if missing:
        raise ParseError(f"missing 'strand {missing[0]}:' line", first_line, 1)
    extra = [i for i in strands if i < 1 or i > n]
    if extra:
        raise ParseError(f"strand index {extra[0]} out of range", first_line, 1)
    return n, top, chords, [strands[i] for i in range(1, n + 1)]


def parse_diagram(text: str) -> XCGaussDiagram:
    """Parse and validate one diagram in the canonical text format."""
    d = XCGaussDiagram(*read_stanza(text, parse_chord_token, parse_event_token))
    validate(d)
    return d
