"""Signed Gauss codes: planar lifts, the forgetful direction, classical
moves on codes, the bracket oracle, and the code text format."""

import gc
import random
import re
from pathlib import Path

import pytest

from xctangle.acceptance import golden_codes
from xctangle.algebra import builtin_uqsl2
from xctangle.errors import (GuardrailError, NoSiteError, ParseError,
                             ValidationError)
from xctangle.gauss import DIAMOND, XCGaussDiagram, identity, print_diagram
from xctangle.invariant import iota_realize, long_knot_scalar, zeval
from xctangle.moves import apply, find_sites
from xctangle.randomgen import random_code
from xctangle.ring import Coefficient
from xctangle.virtualt import (
    BRACKET_MAX_CHORDS,
    bracket_oracle,
    forget,
    lift,
    parse_code,
    print_code,
    random_move_on_code,
    rotation_total,
    underfirst_writhe,
    validate_code,
    writhe,
)

ALG = builtin_uqsl2()

TREFOIL = XCGaussDiagram(
    1, (1,), [(1, 1), (2, 1), (3, 1)],
    [(("O", 1), ("U", 2), ("O", 3), ("U", 1), ("O", 2), ("U", 3))])


def test_validate_code_rejects_diamonds():
    with pytest.raises(ValidationError):
        validate_code(XCGaussDiagram(1, (1,), [], [((DIAMOND, 1),)]))


def test_forget_drops_diamonds():
    d = XCGaussDiagram(1, (1,), [(1, 1)],
                       [(("O", 1), ("D", -1), ("U", 1))])
    assert forget(d).events == ((("O", 1), ("U", 1)),)


def test_counting_helpers():
    assert writhe(TREFOIL) == 3
    assert rotation_total(lift(TREFOIL)) == 2 * underfirst_writhe(TREFOIL) - 3
    assert writhe(identity(2)) == 0


def test_lift_of_empty_code_is_identity():
    assert lift(identity(3)) == identity(3)


def test_lift_is_section_randomized():
    rng = random.Random(71)
    for _ in range(300):
        g = random_code(rng, n=rng.randrange(1, 4), max_chords=6)
        L = lift(g)
        assert forget(L) == g
        if g.n == 1:
            assert rotation_total(L) + writhe(g) == 2 * underfirst_writhe(g)


def test_positive_kink_lift_balance():
    kink = XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1), ("U", 1))])
    assert rotation_total(lift(kink)) == -1


def test_moves_on_codes_change_writhe_correctly():
    rng = random.Random(73)
    g = TREFOIL
    r1 = random_move_on_code(g, "R1f", rng)
    assert writhe(r1) == writhe(g)  # canceling kink pair
    r2 = random_move_on_code(g, "R2", rng)
    assert writhe(r2) == writhe(g)
    ro = random_move_on_code(g, "reorder", rng)
    assert forget(lift(ro)) == ro
    assert sorted(s for _, s in ro.chords) == sorted(s for _, s in g.chords)


def test_r3_requires_triangle():
    with pytest.raises(NoSiteError):
        random_move_on_code(identity(1), "R3", random.Random(0))
    tri = XCGaussDiagram(
        1, (1,), [(1, 1), (2, 1), (3, 1)],
        [(("O", 2), ("O", 1), ("O", 3), ("U", 1), ("U", 3), ("U", 2))])
    moved = random_move_on_code(tri, "R3", random.Random(0))
    assert writhe(moved) == 3 and len(moved.chords) == 3
    assert moved != tri


def test_code_move_sampler_golden():
    # R1f, R3 and reorder on seeded codes, and the next draw of the rng
    out = []
    for seed in range(42):
        kind = ("R1f", "R3", "reorder")[seed % 3]
        rng = random.Random(seed)
        while True:
            g = random_code(rng, n=rng.randrange(1, 4), max_chords=3)
            try:
                moved = random_move_on_code(g, kind, rng)
            except NoSiteError:
                continue
            break
        out.append(f"case {seed} {kind} next {rng.getrandbits(32)}\n"
                   + print_code(g) + "moved:\n" + print_code(moved))
    golden = Path(__file__).parent / "golden" / "code_moves.txt"
    assert "".join(out) == golden.read_text()


def test_move_invariance_of_lifted_value():
    rng = random.Random(79)
    checked = 0
    while checked < 40:
        g = random_code(rng, n=1, max_chords=3)
        kind = rng.choice(["R1f", "R2", "R3", "reorder"])
        try:
            g2 = random_move_on_code(g, kind, rng)
        except NoSiteError:
            continue
        if len(g2.chords) > 5:
            continue
        checked += 1
        assert iota_realize(zeval(lift(g), ALG)) == \
            iota_realize(zeval(lift(g2), ALG))


def test_bracket_oracle_values():
    assert bracket_oracle(identity(1)).is_one()
    kink = XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1), ("U", 1))])
    assert bracket_oracle(kink).is_one()  # normalization absorbs the kink
    assert bracket_oracle(TREFOIL) == Coefficient.laurent(
        {8: -1, 6: 1, 2: 1})


def test_bracket_oracle_rejects_multistrand():
    with pytest.raises(ValidationError):
        bracket_oracle(identity(2))


def _kinks(signs):
    """One kink per sign, in a row on one strand."""
    events = [(kind, c) for c in range(1, len(signs) + 1) for kind in "OU"]
    return XCGaussDiagram(1, (1,), list(enumerate(signs, start=1)), [events])


def test_bracket_oracle_guardrail():
    with pytest.raises(GuardrailError,
                       match=r"26 chords has 2\^26 = 67108864 states"):
        bracket_oracle(_kinks([1] * (BRACKET_MAX_CHORDS + 1)))


def test_bracket_oracle_leaves_no_reference_cycles():
    # the walk's closure refers to itself; it is freed when the walk ends,
    # so a knot-by-knot loop leaves nothing for the cyclic collector
    codes = [g for _, g in golden_codes()] + [_kinks([1, -1, 1])]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for g in codes:
            bracket_oracle(g)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _bracket_reference(g):
    """The bracket state sum one state at a time: a fresh union-find over
    the arcs per state, and A^(a-b) * delta^(L-1) expanded per state."""
    ev = g.events[0]
    sign = g.chord_sign
    k = len(g.chords)
    pos = {e: i for i, e in enumerate(ev)}
    m = len(ev)
    total: dict[int, int] = {}
    for state in range(1 << k):
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        a_count = 0
        for idx, cid in enumerate(sorted(sign)):
            p, q = pos[("O", cid)], pos[("U", cid)]
            pick_a = bool(state >> idx & 1)
            a_count += pick_a
            if pick_a == (sign[cid] > 0):
                pairs = (((p - 1) % m, q), ((q - 1) % m, p))
            else:
                pairs = (((p - 1) % m, (q - 1) % m), (p, q))
            for x, y in pairs:
                parent[find(x)] = find(y)
        loops = len({find(i) for i in range(m)}) if m else 1
        term = {2 * a_count - k: 1}
        for _ in range(loops - 1):
            nxt: dict[int, int] = {}
            for e, c in term.items():
                nxt[e + 2] = nxt.get(e + 2, 0) - c
                nxt[e - 2] = nxt.get(e - 2, 0) - c
            term = nxt
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    w = writhe(g)
    out: dict[int, int] = {}
    for e, c in total.items():
        e -= 3 * w
        assert e % 2 == 0
        out[-(e // 2)] = out.get(-(e // 2), 0) + (-c if w % 2 else c)
    return Coefficient.laurent(out)


def test_bracket_oracle_equals_per_state_reference():
    codes = [identity(1), _kinks([1]), _kinks([-1]), _kinks([1, -1, -1])]
    codes += [_one_strand("U1+ O1+"), _one_strand("U1- O1-")]
    # T(2,±k): the closure of sigma_1^(±k) is a knot for odd k only
    codes += [_braid_closure([s] * k) for k in range(1, 12, 2) for s in (1, -1)]
    rng = random.Random(3)
    codes += [random_code(rng, n=1, max_chords=8) for _ in range(2000)]
    for g in codes:
        assert bracket_oracle(g) == _bracket_reference(g), print_code(g)


def _braid_closure(word):
    """The one-strand code of the closure of a braid word (``i`` for
    sigma_i, ``-i`` for its inverse, read bottom to top), cut at the bottom
    of position 1, or None when the closure is not a knot.  Chord ``j`` is
    the ``j``-th letter; at sigma_i^(+1) the strand moving from position i
    to i+1 passes over."""
    events, pos = [], 1
    while True:
        for cid, letter in enumerate(word, start=1):
            i = abs(letter)
            if pos in (i, i + 1):
                events.append(("O" if (letter > 0) == (pos == i) else "U", cid))
                pos = 2 * i + 1 - pos
        if pos == 1:
            break
    if len(events) != 2 * len(word):
        return None
    chords = [(cid, 1 if x > 0 else -1) for cid, x in enumerate(word, start=1)]
    return XCGaussDiagram(1, (1,), chords, [tuple(events)])


def _random_braid_closures(rng, per_count=8):
    """Freely reduced braid closures, ``per_count`` per crossing count 3-6:
    3-braids for even counts, 4-braids for odd ones."""
    out = []
    for crossings in (3, 4, 5, 6):
        width = 3 if crossings % 2 == 0 else 4
        while len(out) < per_count * (crossings - 2):
            word = []
            while len(word) < crossings:
                x = rng.choice((1, -1)) * rng.randint(1, width - 1)
                if not word or word[-1] != -x:
                    word.append(x)
            g = _braid_closure(word)
            if g is not None:
                out.append(g)
    return out


def _one_strand(line):
    return parse_code(f"strands: 1\nstrand 1: {line}\n")


# sigma_1 sigma_2^-1 sigma_1 sigma_2, and an R2 pair of codes
SIGMA_WORD = _one_strand("O1+ U2- U4+ U1+ O3+ O4+ O2- U3+")
R2_PAIR = (_one_strand("O3+ O1+ U1+ U2+ O2+ U3+"),
           _one_strand("O3+ O1+ O4- O5+ U1+ U2+ O2+ U4- U5+ U3+"))


def test_bracket_matches_lifted_scalar():
    # documented comparison: bracket = scalar|_{q -> 1/q} * q^(2 writhe)
    codes = [identity(1), TREFOIL, SIGMA_WORD, *R2_PAIR]
    codes += _random_braid_closures(random.Random(89))
    codes += [_braid_closure([1] * 11), _braid_closure([-1] * 11)]  # T(2,±11)
    for g in codes:
        scal = long_knot_scalar(zeval(lift(g), ALG))
        mirrored = Coefficient.laurent(
            {-e: c for e, c in scal.terms.items()})
        assert bracket_oracle(g) == \
            mirrored * Coefficient.q_power(2 * writhe(g)), print_code(g)


def _triangle_twist(lifted, g, site):
    """Diamonds of ``lifted`` inside the three blocks of a G3 site of
    ``g``, counted +, -, + by block.  No G0 gauge changes it, and G3
    applies only where it is zero."""
    total = 0
    for sgn, (s, p) in zip((1, -1, 1), site.locs):
        ev = lifted.events[s]
        i, j = ev.index(g.events[s][p]), ev.index(g.events[s][p + 1])
        total += sgn * sum(v for k, v in ev[i + 1:j] if k == DIAMOND)
    return total


def _triangle_codes(rng, count):
    """Codes on one or two strands around the triangle blocks [O1 O2]
    [U1 O3] [U2 U3], with up to three more random chords."""
    out = []
    for _ in range(count):
        extra = rng.randint(0, 3)
        items = [[("O", 1), ("O", 2)], [("U", 1), ("O", 3)],
                 [("U", 2), ("U", 3)]]
        items += [[(kind, c)] for c in range(4, 4 + extra) for kind in "OU"]
        rng.shuffle(items)
        n = rng.randrange(1, 3)
        cut = rng.randint(0, len(items)) if n == 2 else len(items)
        strands = [sum(items[:cut], []), sum(items[cut:], [])][:n]
        chords = [(c, 1) for c in (1, 2, 3)]
        chords += [(c, rng.choice((1, -1))) for c in range(4, 4 + extra)]
        top = tuple(rng.sample(range(1, n + 1), n))
        out.append(XCGaussDiagram(n, top, chords, strands))
    return out


def test_r3_keeps_lifted_value_at_untwisted_triangles():
    classical = [SIGMA_WORD] + _random_braid_closures(random.Random(89))
    classical += [_braid_closure(w) for w in
                  ([1, 2, 1, 2], [2, 2, 2, 1, 2, 1], [3, 2, 3, 2, -1],
                   [3, 2, 3, 1, 2], [3, 2, 3, 2, 2, 1, 2],
                   [3, 2, 3, 2, 1, 2, 1])]
    untwisted = 0
    for g in classical + _triangle_codes(random.Random(97), 60):
        lifted = lift(g)
        for site in find_sites(g, "G3"):
            if _triangle_twist(lifted, g, site):
                assert g not in classical, print_code(g)
                continue
            untwisted += 1
            moved = lift(apply(g, site))
            assert iota_realize(zeval(lifted, ALG)) == \
                iota_realize(zeval(moved, ALG)), print_code(g)
    assert untwisted >= 40


LIFT_GOLDEN = {
    "unknot": "strands: 1\ntop: 1\nchords:\nstrand 1:\n",
    "trefoil-right": "strands: 1\ntop: 1\nchords: 1:+ 2:+ 3:+\n"
                     "strand 1: O1 U2 O3 D- U1 O2 U3\n",
    "trefoil-left": "strands: 1\ntop: 1\nchords: 1:- 2:- 3:-\n"
                    "strand 1: O1 U2 O3 D+ U1 O2 U3\n",
    "figure-eight": "strands: 1\ntop: 1\nchords: 1:- 2:+ 3:+ 4:-\n"
                    "strand 1: O1 U2 O3 D+ U1 O4 U3 D+ O2 U4\n",
    "sigma-word": "strands: 1\ntop: 1\nchords: 1:+ 2:- 3:+ 4:+\n"
                  "strand 1: O1 U2 U4 D- U1 O3 O4 D- O2 U3\n",
}


def test_lift_text_golden():
    for name, g in golden_codes() + [("sigma-word", SIGMA_WORD)]:
        assert print_diagram(lift(g)) == LIFT_GOLDEN[name], name


def test_code_text_round_trip():
    rng = random.Random(83)
    for _ in range(300):
        g = random_code(rng, n=rng.randrange(1, 4), max_chords=5)
        assert parse_code(print_code(g)) == g


def test_parse_code_rejects_sign_conflict():
    with pytest.raises(Exception):
        parse_code("strands: 1\nstrand 1: O1+ U1-\n")


@pytest.mark.parametrize("extra", ["strand 2:", "strand 0:", "strand 2: O2+ U2+"])
def test_parse_code_rejects_out_of_range_strand(extra):
    with pytest.raises(ParseError, match="out of range"):
        parse_code(f"strands: 1\nstrand 1: O1+ U1+\n{extra}\n")


@pytest.mark.parametrize("line, message, column", [
    ("strand 1: O1+ U1- O2+ U2+", "inconsistent signs for chord 1", 15),
    ("strand 1: O1+ U1 O2+ U2+", "unknown code token 'U1'", 15),
    ("strand 1: O1+ U1+ D+", "unknown code token 'D+'", 19),
    ("chords: 1:+", "unknown keyword 'chords'", 1),
])
def test_parse_code_error_columns(line, message, column):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        parse_code(f"strands: 1\n{line}\n")
    assert (exc.value.line, exc.value.column) == (2, column)
