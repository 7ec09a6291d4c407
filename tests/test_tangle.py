"""Tangle graphs: conversions, boundary actions, validation, text
format."""

import random

import pytest

from xctangle.errors import ParseError, ValidationError
from xctangle.gauss import (XCGaussDiagram, canonical_key, identity,
                            parse_diagram)
from xctangle.randomgen import random_diagram
from xctangle.tangle import (
    BI,
    IN,
    OUT,
    XCTangleGraph,
    action_merge,
    action_permute,
    from_gauss,
    parse_tangle,
    print_tangle,
    to_gauss,
    validate_tangle,
)
from xctangle.virtualt import forget

CROSSING = XCGaussDiagram(2, (2, 1), [(1, 1)], [(("O", 1),), (("U", 1),)])


def test_round_trip_examples():
    for d in (identity(1), identity(3), CROSSING):
        assert canonical_key(to_gauss(from_gauss(d))) == canonical_key(d)


def test_round_trip_random_with_diamonds():
    rng = random.Random(53)
    for _ in range(300):
        d = random_diagram(rng, n=rng.randrange(1, 4),
                           max_chords=3, max_diamonds=3, pure=True)
        assert canonical_key(to_gauss(from_gauss(d))) == canonical_key(d)


def test_text_round_trip():
    rng = random.Random(59)
    for _ in range(200):
        d = random_diagram(rng, n=rng.randrange(1, 3),
                           max_chords=2, max_diamonds=2, pure=True)
        t = from_gauss(d)
        assert parse_tangle(print_tangle(t)) == t


def test_validate_rejects_closed_component():
    # a single bivalent vertex feeding itself is a closed loop
    t = XCTangleGraph([(1, "bi")], [(1, (1, 1), (1, 0), 0)], [], [])
    with pytest.raises(ValidationError):
        validate_tangle(t)


def test_validate_rejects_bad_port():
    t = XCTangleGraph([(1, OUT), (2, IN)], [(1, (1, 1), (2, 0), 0)],
                      [1], [2])
    with pytest.raises(ValidationError):
        validate_tangle(t)


E = (1, (1, 0), (2, 0), 0)  # the one edge of the one-strand graph


def _graph(vertices=((1, OUT), (2, IN)), edges=(E,), out_order=(1,),
           in_order=(2,)):
    """The one-strand graph out 1 -> in 2, with the fields given in place
    of its own."""
    return XCTangleGraph(vertices, edges, out_order, in_order)


# one case per message of validate_tangle, each graph breaking one
# invariant
VALIDATE_CASES = {
    "vertex twice": (_graph([(1, OUT), (1, IN)], [], [1], [1]),
                     "vertex 1 listed twice"),
    "unknown kind": (_graph([(1, "x")], [], [], []),
                     "vertex 1 has unknown kind 'x'"),
    "edge twice": (_graph(edges=[E, E]), "edge 1 listed twice"),
    "rotation": (_graph(edges=[(1, (1, 0), (2, 0), 2)]),
                 "edge 1 has rotation 2"),
    "unknown vertex": (_graph(edges=[(1, (3, 0), (2, 0), 0)]),
                       "edge 1 references unknown vertex 3"),
    "source port": (_graph(edges=[(1, (1, 1), (2, 0), 0)]),
                    "edge 1 uses port 1 as source on a 'out' vertex"),
    "target port": (_graph(edges=[(1, (1, 0), (2, 1), 0)]),
                    "edge 1 uses port 1 as target on a 'in' vertex"),
    "two leave": (_graph([(1, OUT), (2, IN), (3, IN)],
                         [E, (2, (1, 0), (3, 0), 0)], [1], [2, 3]),
                  "two edges leave port (1, 0)"),
    "two enter": (_graph([(1, OUT), (2, IN), (3, OUT)],
                         [E, (2, (3, 0), (2, 0), 0)], [1, 3], [2]),
                  "two edges enter port (2, 0)"),
    "no outgoing": (_graph(edges=[]), "vertex 1 port 0 has no outgoing edge"),
    "no incoming": (_graph([(1, OUT), (2, IN), (3, IN)], in_order=[2, 3]),
                    "vertex 3 port 0 has no incoming edge"),
    "outorder": (_graph(out_order=[]),
                 "outorder is not a permutation of the out vertices"),
    "inorder": (_graph(in_order=[2, 2]),
                "inorder is not a permutation of the in vertices"),
    "closed": (_graph([(1, OUT), (2, IN), (3, BI)],
                      [E, (2, (3, 1), (3, 0), 0)]),
               "closed component: some edges lie on no strand"),
    # through the constructor, which keeps each value as given, with one
    # value that is not an int; a bool is not taken for an int
    "float vertex id": (_graph([(1, OUT), (2.0, IN)]),
                        "vertex id 2.0 is not an int"),
    "text vertex id beside an int": (_graph([(1, OUT), ("2", IN)]),
                                     "vertex id '2' is not an int"),
    "true edge id": (_graph(edges=[(True, (1, 0), (2, 0), 0)]),
                     "edge id True is not an int"),
    "true edge vertex": (_graph(edges=[(1, (True, 0), (2, 0), 0)]),
                         "edge 1 references unknown vertex True"),
    "float port": (_graph(edges=[(1, (1, 0), (2, 0.0), 0)]),
                   "edge 1 uses port 0.0 as target on a 'in' vertex"),
    "float rotation": (_graph(edges=[(1, (1, 0), (2, 0), 0.4)]),
                       "edge 1 has rotation 0.4"),
    "false rotation": (_graph(edges=[(1, (1, 0), (2, 0), False)]),
                       "edge 1 has rotation False"),
    "true outorder": (_graph(out_order=[True]),
                      "outorder is not a permutation of the out vertices"),
    "float inorder": (_graph(in_order=[2.0]),
                      "inorder is not a permutation of the in vertices"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_tangle_messages(case):
    t, message = VALIDATE_CASES[case]
    with pytest.raises(ValidationError) as err:
        validate_tangle(t)
    assert str(err.value) == message


def test_tangle_keeps_values_as_given():
    t = XCTangleGraph([(1.9, "out"), (2, "in")], [(1, (1, 0), (2, 0.7), 0.4)],
                      [1.2], [2])
    assert t.vertices[0][0] == 1.9 and t.edges[0][2:] == ((2, 0.7), 0.4)
    assert t.out_order == (1.2,)
    with pytest.raises(ValidationError, match="vertex id 1.9"):
        validate_tangle(t)


def test_permute_square():
    t = from_gauss(identity(3))
    u = action_permute(action_permute(t, (2, 3, 1)), (3, 1, 2))
    assert u == t


def test_permute_rejects_non_permutation():
    with pytest.raises(ValidationError):
        action_permute(from_gauss(identity(2)), (1, 1))


def test_merge_closes_crossing_to_kink():
    t = from_gauss(CROSSING)
    merged = action_merge(t, [2])
    d = to_gauss(merged)
    assert d.n == 1
    assert forget(d).events == ((("O", 1), ("U", 1)),)


def test_merge_empty_part_inserts_identity_strand():
    t = from_gauss(identity(1))
    merged = action_merge(t, [0, 1])
    d = to_gauss(merged)
    assert d.n == 2 and d.chords == ()


def test_merge_unit_parts_is_identity():
    t = from_gauss(CROSSING)
    assert to_gauss(action_merge(t, [1, 1])) == to_gauss(t)


def test_merge_matches_event_concatenation():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randrange(2, 4)
        d = random_diagram(rng, n=n, max_chords=2, max_diamonds=2, pure=True)
        merged = to_gauss(action_merge(from_gauss(d), [n]))
        want = XCGaussDiagram(
            1, (1,), d.chords, [tuple(ev for evs in d.events for ev in evs)])
        assert merged.n == 1
        assert canonical_key(merged) == canonical_key(want)


def test_merge_part_sum_mismatch():
    with pytest.raises(ValidationError):
        action_merge(from_gauss(identity(2)), [1])


def test_parse_tangle_error_position():
    with pytest.raises(ParseError):
        parse_tangle("vertex 1: zig\n")


KINK_TANGLE = """vertex 1: out
vertex 2: x+
vertex 3: in
edge 1: 1.0 -> 2.0 rot=0
edge 2: 2.3 -> 2.1 rot=1
edge 3: 2.2 -> 3.0 rot=-1
outorder: 1
inorder: 3
"""


@pytest.mark.parametrize("read, text, line, column", [
    (parse_diagram, "strands: 1\ntop: +1\nstrand 1:\n", 2, 5),
    (parse_tangle, KINK_TANGLE.replace("edge 1:", "edge 1_0:"), 4, 6),
    (parse_tangle, KINK_TANGLE.replace("2.3 ->", "+2.3 ->"), 5, 9),
    (parse_tangle, KINK_TANGLE.replace("rot=0", "rot=+0"), 4, 24),
    (parse_tangle, KINK_TANGLE.replace("rot=-1", "rot=-0_1"), 6, 24),
    (parse_tangle, KINK_TANGLE.replace("outorder: 1", "outorder: +1"), 7, 11),
    (parse_tangle, KINK_TANGLE.replace("inorder: 3", "inorder: 0_3"), 8, 10),
], ids=["top+1", "edge1_0", "port+2", "rot+0", "rot-0_1", "outorder+1",
        "inorder0_3"])
def test_readers_take_only_decimal_numbers(read, text, line, column):
    # int() reads every one of these; no printer writes them
    with pytest.raises(ParseError) as exc:
        read(text)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_kink_tangle_reads():
    assert print_tangle(parse_tangle(KINK_TANGLE)) == KINK_TANGLE
