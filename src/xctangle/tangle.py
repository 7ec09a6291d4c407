"""Tangle graphs: the abstract 4-valent graph model and its conversions
to and from Gauss diagrams.

An :class:`XCTangleGraph` is a directed graph with four vertex kinds --
``out`` (strand start, univalent), ``in`` (strand end, univalent), ``bi``
(bivalent pass-through) and signed crossings ``x+`` / ``x-`` -- plus total
orders on the start and end vertices.  Edges carry a rotation number in
{-1, 0, +1}.

Port conventions
----------------
* univalent vertices use port 0;
* bivalent vertices: port 0 incoming, port 1 outgoing;
* crossings: port 0 = in-left, 1 = in-right, 2 = out-left, 3 = out-right.
  Strands run straight through: 0 -> 3 and 1 -> 2.  The over strand is the
  in-left -> out-right path on an ``x+`` crossing and the in-right ->
  out-left path on an ``x-`` crossing.

Text format (one graph per stanza, canonical printing sorts by id)::

    vertex <id>: out | in | bi | x+ | x-
    edge <id>: <vid>.<port> -> <vid>.<port> rot=<-1|0|1>
    outorder: <vid> ...
    inorder: <vid> ...
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import ParseError, ValidationError
from .gauss import (DIAMOND, OVER, UNDER, XCGaussDiagram, is_decimal,
                    is_int, sorted_or_given, validate)
from .record import FrozenRecord

OUT = "out"
IN = "in"
BI = "bi"
XPOS = "x+"
XNEG = "x-"

_KINDS = (OUT, IN, BI, XPOS, XNEG)

#: ports an edge may leave from / arrive at, per vertex kind
_SOURCE_PORTS = {OUT: (0,), BI: (1,), XPOS: (2, 3), XNEG: (2, 3)}
_TARGET_PORTS = {IN: (0,), BI: (0,), XPOS: (0, 1), XNEG: (0, 1)}
#: straight-through continuation at a crossing: entry port -> exit port
_THROUGH = {0: 3, 1: 2}

Half = tuple[int, int]  # (vertexId, port)


class XCTangleGraph(FrozenRecord):
    """Immutable tangle graph; vertices and edges stored sorted by id."""

    vertices: tuple[tuple[int, str], ...]
    edges: tuple[tuple[int, Half, Half, int], ...]
    out_order: tuple[int, ...]
    in_order: tuple[int, ...]

    def __init__(
        self,
        vertices: Iterable[tuple[int, str]],
        edges: Iterable[tuple[int, Half, Half, int]],
        out_order: Sequence[int],
        in_order: Sequence[int],
    ):
        # values are kept as given; validate_tangle refuses any id, port
        # or rotation that is not an int
        object.__setattr__(self, "vertices", sorted_or_given(
            (v, k) for v, k in vertices))
        object.__setattr__(self, "edges", sorted_or_given(
            (e, (a, pa), (b, pb), r) for e, (a, pa), (b, pb), r in edges))
        object.__setattr__(self, "out_order", tuple(out_order))
        object.__setattr__(self, "in_order", tuple(in_order))

    @property
    def kind(self) -> dict[int, str]:
        return dict(self.vertices)


def _strand(kind, by_source, start):
    """Walk the strand that starts at the ``out`` vertex ``start``, going
    straight through crossings: yield ``(vid, port, rot)`` for the target
    and rotation of each of its edges, in order, ending at an ``in``
    vertex.  ``by_source`` maps each source half-edge to ``(target,
    rot)``."""
    half = (start, 0)
    for _ in range(len(by_source) + 1):
        if half not in by_source:
            raise ValidationError(f"dangling strand at {half}")
        (vid, port), rot = by_source[half]
        yield vid, port, rot
        if kind[vid] == IN:
            return
        half = (vid, 1) if kind[vid] == BI else (vid, _THROUGH[port])
    raise ValidationError("strand tracing does not terminate")


def validate_tangle(t: XCTangleGraph) -> None:
    """Check structural invariants; raise ValidationError on the first
    violation.  In particular every strand (maximal directed path going
    straight at crossings) must start at an ``out`` vertex and end at an
    ``in`` vertex, and no closed strand may exist.  Every id, port and
    rotation must be an int."""
    kind = {}
    for vid, k in t.vertices:
        if not is_int(vid):
            raise ValidationError(f"vertex id {vid!r} is not an int")
        if vid in kind:
            raise ValidationError(f"vertex {vid} listed twice")
        if k not in _KINDS:
            raise ValidationError(f"vertex {vid} has unknown kind {k!r}")
        kind[vid] = k
    by_source: dict[Half, tuple[Half, int]] = {}
    by_target: dict[Half, int] = {}
    eids = set()
    for eid, src, dst, rot in t.edges:
        if not is_int(eid):
            raise ValidationError(f"edge id {eid!r} is not an int")
        if eid in eids:
            raise ValidationError(f"edge {eid} listed twice")
        eids.add(eid)
        if not is_int(rot) or rot not in (-1, 0, 1):
            raise ValidationError(f"edge {eid} has rotation {rot}")
        for half, table, role in ((src, _SOURCE_PORTS, "source"),
                                  (dst, _TARGET_PORTS, "target")):
            vid, port = half
            if not is_int(vid) or vid not in kind:
                raise ValidationError(f"edge {eid} references unknown vertex {vid}")
            if not is_int(port) or port not in table.get(kind[vid], ()):
                raise ValidationError(
                    f"edge {eid} uses port {port} as {role} on a "
                    f"{kind[vid]!r} vertex"
                )
        if src in by_source:
            raise ValidationError(f"two edges leave port {src}")
        if dst in by_target:
            raise ValidationError(f"two edges enter port {dst}")
        by_source[src] = (dst, rot)
        by_target[dst] = eid
    # every port of every vertex must be used
    for vid, k in t.vertices:
        need_src = _SOURCE_PORTS.get(k, ())
        need_dst = _TARGET_PORTS.get(k, ())
        for p in need_src:
            if (vid, p) not in by_source:
                raise ValidationError(f"vertex {vid} port {p} has no outgoing edge")
        for p in need_dst:
            if (vid, p) not in by_target:
                raise ValidationError(f"vertex {vid} port {p} has no incoming edge")
    outs = [v for v, k in t.vertices if k == OUT]
    ins = [v for v, k in t.vertices if k == IN]
    if not all(map(is_int, t.out_order)) or sorted(t.out_order) != sorted(outs):
        raise ValidationError("outorder is not a permutation of the out vertices")
    if not all(map(is_int, t.in_order)) or sorted(t.in_order) != sorted(ins):
        raise ValidationError("inorder is not a permutation of the in vertices")
    # every port is used once and a bi or crossing vertex has as many
    # source ports as target ports, so there are as many outs as ins;
    # trace strands, counting visited edges to detect closed components
    visited = sum(1 for start in outs for _ in _strand(kind, by_source, start))
    if visited != len(t.edges):
        raise ValidationError("closed component: some edges lie on no strand")


def to_gauss(t: XCTangleGraph) -> XCGaussDiagram:
    """Convert a tangle graph to its Gauss diagram: one chord per crossing
    (over endpoint on the over pass), one diamond per nonzero edge rotation,
    strands ordered by ``out_order`` and ``top`` induced by ``in_order``."""
    validate_tangle(t)
    kind = t.kind
    by_source = {src: (dst, rot) for _, src, dst, rot in t.edges}
    chord_of: dict[int, int] = {}
    chords = []
    events = []
    ends = []
    for start in t.out_order:
        ev = []
        for vid, port, rot in _strand(kind, by_source, start):
            if rot:
                ev.append((DIAMOND, rot))
            k = kind[vid]
            if k == IN:
                ends.append(vid)
            elif k != BI:
                if vid not in chord_of:
                    chord_of[vid] = len(chord_of) + 1
                    chords.append((chord_of[vid], 1 if k == XPOS else -1))
                is_over = (k == XPOS and port == 0) or (k == XNEG and port == 1)
                ev.append((OVER if is_over else UNDER, chord_of[vid]))
        events.append(tuple(ev))
    in_pos = {vid: i + 1 for i, vid in enumerate(t.in_order)}
    top = [in_pos[v] for v in ends]
    d = XCGaussDiagram(len(t.out_order), top, chords, events)
    validate(d)
    return d


def from_gauss(d: XCGaussDiagram) -> XCTangleGraph:
    """Convert a Gauss diagram to a tangle graph (inverse of ``to_gauss``
    up to renumbering)."""
    validate(d)
    sign = d.chord_sign
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, Half, Half, int]] = []
    next_vid = 1
    next_eid = 1

    def new_vertex(k: str) -> int:
        nonlocal next_vid
        vertices.append((next_vid, k))
        next_vid += 1
        return next_vid - 1

    crossing_vid: dict[int, int] = {}
    out_vids = []
    end_vid_of_strand = []
    for i in range(d.n):
        start = new_vertex(OUT)
        out_vids.append(start)
        cur: Half = (start, 0)
        pending_rot = 0
        for kind_, val in d.events[i]:
            if kind_ == DIAMOND:
                if pending_rot:
                    # one rotation per edge: interpose a bivalent vertex
                    b = new_vertex(BI)
                    edges.append((next_eid, cur, (b, 0), pending_rot))
                    next_eid += 1
                    cur = (b, 1)
                pending_rot = val
                continue
            if val not in crossing_vid:
                crossing_vid[val] = new_vertex(XPOS if sign[val] > 0 else XNEG)
            x = crossing_vid[val]
            over = kind_ == OVER
            in_port = (0 if over else 1) if sign[val] > 0 else (1 if over else 0)
            edges.append((next_eid, cur, (x, in_port), pending_rot))
            next_eid += 1
            pending_rot = 0
            cur = (x, _THROUGH[in_port])
        end = new_vertex(IN)
        edges.append((next_eid, cur, (end, 0), pending_rot))
        next_eid += 1
        end_vid_of_strand.append(end)
    # in_order position p lists the end vertex of the strand with top == p
    in_order = [0] * d.n
    for i in range(d.n):
        in_order[d.top[i] - 1] = end_vid_of_strand[i]
    t = XCTangleGraph(vertices, edges, out_vids, in_order)
    validate_tangle(t)
    return t


def action_permute(t: XCTangleGraph, sigma: Sequence[int]) -> XCTangleGraph:
    """Reorder the strand start and end orders by the permutation ``sigma``
    (the strand at position i moves to position sigma[i-1]); the underlying
    graph is unchanged."""
    validate_tangle(t)
    n = len(t.out_order)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValidationError(f"{tuple(sigma)} is not a permutation of 1..{n}")
    new_out = [0] * n
    new_in = [0] * n
    for i in range(n):
        new_out[sigma[i] - 1] = t.out_order[i]
        new_in[sigma[i] - 1] = t.in_order[i]
    return XCTangleGraph(t.vertices, t.edges, new_out, new_in)


def action_merge(t: XCTangleGraph, parts: Sequence[int]) -> XCTangleGraph:
    """Concatenate consecutive strands in blocks given by ``parts``.

    Within a block, the end vertex of each strand is glued to the start
    vertex of the next (both replaced by one bivalent vertex); a part of
    size 0 inserts a fresh identity strand at that block position.
    """
    validate_tangle(t)
    if any(p < 0 for p in parts):
        raise ValidationError("parts must be non-negative")
    if sum(parts) != len(t.out_order):
        raise ValidationError(
            f"parts sum to {sum(parts)}, expected {len(t.out_order)}"
        )
    vertices = list(t.vertices)
    edges = list(t.edges)
    next_vid = 1 + max((v for v, _ in vertices), default=0)
    next_eid = 1 + max((e for e, _, _, _ in edges), default=0)
    # end vertex of each strand in bottom order, found by tracing
    kind = t.kind
    by_source = {src: (dst, rot) for _, src, dst, rot in t.edges}
    ends = [list(_strand(kind, by_source, start))[-1][0]
            for start in t.out_order]
    replace: dict[Half, Half] = {}
    drop: set[int] = set()
    new_out = []
    block_end = []  # (terminal in-vertex, fresh?) per new strand
    idx = 0
    for part in parts:
        if part == 0:
            a = next_vid
            b = next_vid + 1
            next_vid += 2
            vertices += [(a, OUT), (b, IN)]
            edges.append((next_eid, (a, 0), (b, 0), 0))
            next_eid += 1
            new_out.append(a)
            block_end.append((b, True))
            continue
        block = list(range(idx, idx + part))
        idx += part
        new_out.append(t.out_order[block[0]])
        block_end.append((ends[block[-1]], False))
        for j in block[:-1]:
            end_v = ends[j]
            start_v = t.out_order[j + 1]
            b = next_vid
            next_vid += 1
            vertices.append((b, BI))
            drop.update((end_v, start_v))
            replace[(end_v, 0)] = (b, 0)
            replace[(start_v, 0)] = (b, 1)
    # surviving in-vertices keep their boundary order; a fresh identity
    # strand's end is slotted at its own block position
    old_pos = {vid: i for i, vid in enumerate(t.in_order)}
    new_in = sorted(
        (v for v, fresh in block_end if not fresh), key=lambda v: old_pos[v]
    )
    for b, (v, fresh) in enumerate(block_end):
        if fresh:
            new_in.insert(min(b, len(new_in)), v)
    vertices = [(v, k) for v, k in vertices if v not in drop]
    edges = [
        (e, replace.get(src, src), replace.get(dst, dst), r)
        for e, src, dst, r in edges
    ]
    out = XCTangleGraph(vertices, edges, new_out, new_in)
    validate_tangle(out)
    return out


# -- text format ------------------------------------------------------


def print_tangle(t: XCTangleGraph) -> str:
    lines = []
    for vid, k in t.vertices:
        lines.append(f"vertex {vid}: {k}")
    for eid, (a, pa), (b, pb), rot in t.edges:
        lines.append(f"edge {eid}: {a}.{pa} -> {b}.{pb} rot={rot}")
    lines.append(("outorder: " + " ".join(str(v) for v in t.out_order)).rstrip())
    lines.append(("inorder: " + " ".join(str(v) for v in t.in_order)).rstrip())
    return "\n".join(lines) + "\n"


def _columns(raw: str, fields, start: int = 0) -> list[int]:
    """The 1-based column on ``raw`` of each of ``fields``, which appear
    on it in this order from index ``start``."""
    cols = []
    for field in fields:
        start = raw.index(field, start)
        cols.append(start + 1)
        start += len(field)
    return cols


def parse_tangle(text: str) -> XCTangleGraph:
    """Parse and validate one tangle in the text format of
    :func:`print_tangle`.  A :class:`ParseError` gives the column of the
    bad field on the raw line."""
    vertices = []
    edges = []
    out_order = None
    in_order = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected '<keyword>: ...'", lineno, 1)
        head, _, rest = line.partition(":")
        head = head.strip()
        rest = rest.strip()
        at = raw.index(":") + 2  # the column just after the colon
        if head.startswith("vertex "):
            vid_s = head[len("vertex "):].strip()
            vcol, kcol = _columns(raw, (vid_s, rest),
                                  raw.index(head) + len("vertex"))
            if not is_decimal(vid_s):
                raise ParseError(f"bad vertex line {line!r}", lineno, vcol)
            if rest not in _KINDS:
                raise ParseError(f"bad vertex line {line!r}", lineno, kcol)
            vertices.append((int(vid_s), rest))
        elif head.startswith("edge "):
            eid_s = head[len("edge "):].strip()
            try:
                halves, rot_s = rest.rsplit("rot=", 1)
                src_s, dst_s = halves.split("->")
                a, pa = src_s.split(".")
                b, pb = dst_s.split(".")
            except ValueError:
                raise ParseError(f"bad edge line {line!r}", lineno, at)
            *ids, rot_s = (t.strip() for t in (eid_s, a, pa, b, pb, rot_s))
            cols = _columns(raw, (*ids, rot_s), raw.index(head) + len("edge"))
            bad = [col for field, col in zip(
                       (*ids, rot_s.removeprefix("-")), cols)
                   if not is_decimal(field)]
            if bad:
                raise ParseError(f"bad edge line {line!r}", lineno, bad[0])
            eid, a, pa, b, pb = map(int, ids)
            edges.append((eid, (a, pa), (b, pb), int(rot_s)))
        elif head in ("outorder", "inorder"):
            vids = rest.split()
            bad = [col for field, col in zip(vids, _columns(raw, vids, at - 1))
                   if not is_decimal(field)]
            if bad:
                raise ParseError(f"bad {head} {rest!r}", lineno, bad[0])
            if head == "outorder":
                out_order = [int(v) for v in vids]
            else:
                in_order = [int(v) for v in vids]
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, 1)
    if out_order is None or in_order is None:
        raise ParseError("missing outorder/inorder line", 1, 1)
    t = XCTangleGraph(vertices, edges, out_order, in_order)
    validate_tangle(t)
    return t
