"""Diagram combinatorics: validation, composition, tensor, braiding,
canonical forms and the text format."""

import copy
import pickle
import random

import pytest

from xctangle.errors import ParseError, ValidationError
from xctangle.gauss import (
    OVER,
    UNDER,
    XCGaussDiagram,
    braiding,
    built,
    canonical_key,
    compose,
    identity,
    is_pure,
    parse_diagram,
    print_diagram,
    renumber_canonically,
    tensor,
    validate,
)
from xctangle.algebra import parse_algebra
from xctangle.moves import parse_patterns
from xctangle.polyak import FormalDiagramSum, parse_formula
from xctangle.randomgen import random_diagram
from xctangle.tangle import parse_tangle
from xctangle.virtualt import parse_code


def test_validate_accepts_identity():
    validate(identity(3))
    assert is_pure(identity(3))


def test_validate_rejects_bad_top():
    with pytest.raises(ValidationError):
        validate(XCGaussDiagram(2, (1, 1), [], [(), ()]))


def test_validate_rejects_dangling_chord():
    with pytest.raises(ValidationError):
        validate(XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1),)]))
    with pytest.raises(ValidationError):
        validate(XCGaussDiagram(1, (1,), [(1, 1)],
                                [(("O", 1), ("O", 1))]))


def test_validate_rejects_unknown_chord_sign():
    with pytest.raises(ValidationError):
        validate(XCGaussDiagram(1, (1,), [(1, 0)],
                                [(("O", 1), ("U", 1))]))


O1, U1 = (OVER, 1), (UNDER, 1)

# one case per message of validate, each diagram breaking one invariant
VALIDATE_CASES = {
    "negative n": (built(-1, (), (), ()), "negative strand count"),
    "top length": (built(2, (1,), (), ((), ())),
                   "top has length 1, expected 2"),
    "top bijection": (built(2, (1, 1), (), ((), ())),
                      "top (1, 1) is not a bijection on 1..2"),
    "event lists": (built(2, (1, 2), (), ((),)),
                    "1 strand event lists, expected 2"),
    "chord twice": (built(1, (1,), ((1, 1), (1, 1)), ((O1, U1),)),
                    "chord 1 listed twice"),
    "chord sign": (built(1, (1,), ((1, 0),), ((O1, U1),)),
                   "chord 1 has sign 0, expected +1 or -1"),
    "diamond sign": (built(1, (1,), (), ((("D", 2),),)),
                     "diamond on strand 1 has sign 2"),
    "unknown kind": (built(1, (1,), (), ((("X", 1),),)),
                     "unknown event kind 'X'"),
    "dangling end": (built(1, (1,), (), ((O1,),)),
                     "dangling chord end: unknown chord 1"),
    "duplicate over": (built(1, (1,), ((1, 1),), ((O1, O1, U1),)),
                       "duplicate over endpoint for chord 1"),
    "duplicate under": (built(1, (1,), ((1, 1),), ((O1, U1, U1),)),
                        "duplicate under endpoint for chord 1"),
    "no over": (built(1, (1,), ((1, 1),), ((U1,),)),
                "chord 1 has no over endpoint"),
    "no under": (built(1, (1,), ((1, 1),), ((O1,),)),
                 "chord 1 has no under endpoint"),
    # the first violation in reading order wins
    "strand 1 first": (built(2, (1, 2), (), (((OVER, 5),), (("D", 3),))),
                       "dangling chord end: unknown chord 5"),
    "chord 1 first": (built(1, (1,), ((1, 1), (2, 1)),
                            (((OVER, 2), U1),)),
                      "chord 1 has no over endpoint"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_messages(case):
    d, message = VALIDATE_CASES[case]
    with pytest.raises(ValidationError) as err:
        validate(d)
    assert str(err.value) == message


def test_built_diagram_equals_the_constructed_one():
    d = XCGaussDiagram(2, [2, 1], [(2, -1), (1, 1)],
                       [[("O", 1), ("D", 1)], [("U", 2), ("U", 1), ("O", 2)]])
    b = built(d.n, d.top, d.chords, d.events)
    assert type(b) is XCGaussDiagram
    assert b == d and d == b and hash(b) == hash(d)
    assert (b.n, b.top, b.chords, b.events) == (d.n, d.top, d.chords,
                                                d.events)
    for back in (pickle.loads(pickle.dumps(b)), copy.copy(b),
                 copy.deepcopy(b)):
        assert type(back) is XCGaussDiagram and back == d
    with pytest.raises(AttributeError):
        b.n = 3


def test_compose_stacks_events():
    kink = XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1), ("U", 1))])
    twice = compose(kink, kink)
    assert len(twice.chords) == 2
    assert len(twice.events[0]) == 4


def test_compose_strand_count_mismatch():
    with pytest.raises(ValidationError):
        compose(identity(2), identity(3))


def test_tensor_shifts_strands():
    kink = XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1), ("U", 1))])
    t = tensor(identity(2), kink)
    assert t.n == 3
    assert t.events[2] != ()


def test_unit_and_associativity_randomized():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randrange(1, 4)
        a = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        b = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        c = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        assert canonical_key(compose(a, identity(n))) == canonical_key(a)
        assert canonical_key(compose(identity(n), a)) == canonical_key(a)
        lhs = compose(c, compose(b, a))
        rhs = compose(compose(c, b), a)
        assert canonical_key(lhs) == canonical_key(rhs)


def test_braiding_naturality():
    rng = random.Random(29)
    for _ in range(200):
        n, m = rng.randrange(1, 3), rng.randrange(1, 3)
        d1 = random_diagram(rng, n=n, max_chords=1, max_diamonds=2, pure=True)
        d2 = random_diagram(rng, n=m, max_chords=1, max_diamonds=2, pure=True)
        lhs = compose(tensor(d2, d1), braiding(n, m))
        rhs = compose(braiding(n, m), tensor(d1, d2))
        assert canonical_key(lhs) == canonical_key(rhs)


def test_canonical_key_ignores_chord_names():
    d = XCGaussDiagram(1, (1,), [(7, 1), (3, -1)],
                       [(("O", 7), ("U", 3), ("U", 7), ("O", 3))])
    e = XCGaussDiagram(1, (1,), [(1, 1), (2, -1)],
                       [(("O", 1), ("U", 2), ("U", 1), ("O", 2))])
    assert canonical_key(d) == canonical_key(e)
    assert renumber_canonically(d) == renumber_canonically(e)


def test_renumbered_with_seventy_chords():
    ids = list(range(140, 0, -2))  # 70 chords, numbered high to low
    sign = {c: 1 if c % 4 else -1 for c in ids}
    d = XCGaussDiagram(1, (1,), sign.items(),
                       [[(OVER, c) for c in ids] + [(UNDER, c) for c in ids]])
    key = canonical_key(d)
    validate(key)
    assert key.events == ((*((OVER, i) for i in range(1, 71)),
                           *((UNDER, i) for i in range(1, 71))),)
    assert key.chords == tuple((i, sign[c]) for i, c in enumerate(ids, 1))


def test_renumbering_keeps_a_bad_sign_for_validate():
    d = XCGaussDiagram(1, (1,), [(5, 2), (9, -1)],
                       [((OVER, 9), (OVER, 5), (UNDER, 5), (UNDER, 9))])
    key = renumber_canonically(d)
    assert key.chords == ((1, -1), (2, 2))
    assert key.events == (((OVER, 1), (OVER, 2), (UNDER, 2), (UNDER, 1)),)
    with pytest.raises(ValidationError, match="chord 2 has sign 2"):
        validate(key)
    with pytest.raises(ValidationError, match="chord 5 has sign 2"):
        canonical_key(d)


def test_canonical_key_validates_its_input():
    # a chord end of an unknown chord used to fail inside the renumbering
    # with a KeyError, and a chord without ends was silently dropped
    dangling = XCGaussDiagram(1, (1,), [(1, 1)], [((OVER, 1), (UNDER, 2))])
    with pytest.raises(ValidationError, match="unknown chord 2"):
        canonical_key(dangling)
    endless = XCGaussDiagram(1, (1,), [(1, 1), (2, 1)],
                             [((OVER, 1), (UNDER, 1))])
    with pytest.raises(ValidationError, match="chord 2 has no over endpoint"):
        canonical_key(endless)
    with pytest.raises(ValidationError, match="chord 2 has no over endpoint"):
        FormalDiagramSum.of(endless)


def test_text_round_trip_random():
    rng = random.Random(31)
    for _ in range(500):
        d = random_diagram(rng, n=rng.randrange(1, 4),
                           max_chords=3, max_diamonds=3)
        assert parse_diagram(print_diagram(d)) == d


def test_parse_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_diagram("strands: 1\nstrand 1: O1 X9\n")
    assert (exc.value.line, exc.value.column) == (2, 14)


@pytest.mark.parametrize("line, column", [
    ("  strand 1:  O1   X9  # note", 19),
    ("strand x: O1 U1", 8),
    ("chords: 1:+  2:x", 14),
    (" strands: ²", 10),
])
def test_parse_columns_on_raw_line(line, column):
    with pytest.raises(ParseError) as exc:
        parse_diagram(f"strands: 1\n{line}\n")
    assert (exc.value.line, exc.value.column) == (2, column)


def test_parse_unsigned_requires_flag():
    # an unsigned chord is a formula-template token, not a diagram token
    text = "strands: 1\nchords: 1:?\nstrand 1: O1 U1\n"
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    assert (exc.value.line, exc.value.column) == (2, 9)
    (term,) = parse_formula("term 1\n" + text)
    assert term.unsigned_chords == {1}
    assert term.template.events == (((OVER, 1), (UNDER, 1)),)


# ARABIC-INDIC DIGIT ZERO, ONE and TWO: str.isdecimal, int() and
# Fraction() take them, and no printer writes them
AR0, AR1, AR2 = "\u0660", "\u0661", "\u0662"
DIAGRAM = "strands: 1\ntop: 1\nchords: 1:+\nstrand 1: O1 U1\n"
TANGLE = ("vertex 1: out\nvertex 2: in\nedge 1: 1.0 -> 2.0 rot=0\n"
          "outorder: 1\ninorder: 2\n")
RATIONAL = ("dim: 1\nring: rational\nR:\n1\nRinv:\n1\nkappa:\n1\n"
            "kappainv:\n1\n")
LAURENT = RATIONAL.replace("rational", "laurent")
PATTERN = "pattern G0r\nfrag 1: D+ D-\nto 1:\nend\n"


# name: (reader, a text it reads, a field of it, that field in
# Arabic-Indic digits)
READERS = {
    "strands": (parse_diagram, DIAGRAM, "strands: 1", f"strands: {AR1}"),
    "top": (parse_diagram, DIAGRAM, "top: 1", f"top: {AR1}"),
    "strand": (parse_diagram, DIAGRAM, "strand 1:", f"strand {AR1}:"),
    "chord": (parse_diagram, DIAGRAM, "chords: 1:", f"chords: {AR1}:"),
    "event": (parse_diagram, DIAGRAM, "O1", f"O{AR1}"),
    "code": (parse_code, "strands: 1\nstrand 1: O1+ U1+\n", "U1+",
             f"U{AR1}+"),
    "formula-chord": (parse_formula, "term 1\n" + DIAGRAM, "1:+",
                      f"{AR1}:?"),
    "formula-term": (parse_formula, "term 1\n" + DIAGRAM, "term 1",
                     f"term {AR1}"),
    "vertex": (parse_tangle, TANGLE, "vertex 1", f"vertex {AR1}"),
    "edge": (parse_tangle, TANGLE, "2.0", f"2.{AR0}"),
    "rot": (parse_tangle, TANGLE, "rot=0", f"rot=-{AR0}"),
    "order": (parse_tangle, TANGLE, "inorder: 2", f"inorder: {AR2}"),
    "dim": (parse_algebra, RATIONAL, "dim: 1", f"dim: {AR1}"),
    "rational": (parse_algebra, RATIONAL, "R:\n1", f"R:\n{AR1}"),
    "laurent": (parse_algebra, LAURENT, "R:\n1", f"R:\n{AR1}q^{AR0}"),
    "fragment": (parse_patterns, PATTERN, "frag 1", f"frag {AR1}"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_take_ascii_digits_only(name):
    read, text, field, arabic = READERS[name]
    assert field in text
    read(text)
    with pytest.raises(ParseError):
        read(text.replace(field, arabic, 1))
