"""Finite-type layer: subdiagram calculus, pairing, framing formula,
truncation, and the formula text format."""

import random
from itertools import product
from math import prod

import pytest

from xctangle import polyak
from xctangle.errors import GuardrailError, ValidationError
from xctangle.gauss import (
    XCGaussDiagram,
    canonical_key,
    identity,
    print_diagram,
    renumber_canonically,
    renumbered,
)
from xctangle.moves import orbit
from xctangle.polyak import (
    FormalDiagramSum,
    FormulaTerm,
    check_formula_invariance,
    framing_formula,
    framing_terms,
    map_I,
    map_I_inverse,
    pairing,
    parse_formula,
    print_formula,
    subdiagrams,
    truncate_degree,
)
from xctangle.randomgen import random_code, random_diagram
from xctangle.virtualt import lift, rotation_total, underfirst_writhe, writhe

ONE_EACH = XCGaussDiagram(1, (1,), [(1, 1)],
                          [(("O", 1), ("D", 1), ("U", 1))])


def test_subdiagram_counts():
    assert len(list(subdiagrams(identity(1)))) == 1
    assert len(list(subdiagrams(ONE_EACH))) == 4
    tre = lift(XCGaussDiagram(
        1, (1,), [(1, 1), (2, 1), (3, 1)],
        [(("O", 1), ("U", 2), ("O", 3), ("U", 1), ("O", 2), ("U", 3))]))
    assert len(list(subdiagrams(tre))) == 2 ** tre.decoration_count()


def test_map_I_contains_empty_and_self():
    s = map_I(ONE_EACH)
    keys = {d.decoration_count(): c for d, c in s.items()}
    assert keys[0] == 1  # the empty diagram appears once
    assert s.terms[canonical_key(ONE_EACH)] == 1  # full diagram kept


def test_keys_are_canonical_diagrams():
    rng = random.Random(41)
    for i in range(6):
        d = random_diagram(rng, n=1 + i % 2, max_chords=2, max_diamonds=1)
        s = map_I(d)
        members = orbit(d, 2, 6).keys
        for k in list(s.terms) + list(members):
            assert isinstance(k, XCGaussDiagram) and canonical_key(k) == k
        # the printed text of the renumbered diagram is the reference key
        texts = {print_diagram(renumber_canonically(x))
                 for x in subdiagrams(d)}
        assert len(s) == len(texts)


def reference_decorations(d):
    """The decorations of ``d`` in the order of the subset walk's bits:
    chords by id, then diamond occurrences by position."""
    out = [("c", cid) for cid, _ in d.chords]
    for s, ev in enumerate(d.events):
        out += [("d", s, i) for i, (kind, _) in enumerate(ev) if kind == "D"]
    return out


def reference_subdiagram(d, subset):
    """The induced diagram of a set of decorations, built directly."""
    keep_chords = {dec[1] for dec in subset if dec[0] == "c"}
    keep_dias = {(dec[1], dec[2]) for dec in subset if dec[0] == "d"}
    events = [
        tuple(e for i, e in enumerate(ev)
              if (e[0] == "D" and (s, i) in keep_dias)
              or (e[0] != "D" and e[1] in keep_chords))
        for s, ev in enumerate(d.events)
    ]
    chords = [(c, sg) for c, sg in d.chords if c in keep_chords]
    return XCGaussDiagram(d.n, d.top, chords, events)


def reference_map_I(d):
    out = FormalDiagramSum()
    for sub in subdiagrams(d):
        out.add(sub)
    return out


def reference_map_I_inverse(s):
    out = FormalDiagramSum()
    for d, coeff in s.items():
        k = d.decoration_count()
        for sub in subdiagrams(d):
            out.add(sub, coeff * (-1) ** (k - sub.decoration_count()))
    return out


def inverse_order(term):
    """The documented order of ``map_I_inverse``'s terms."""
    d, _ = term
    return d.decoration_count(), d.n, d.top, d.chords, d.events


def test_subset_walk_equals_reference():
    rng = random.Random(43)
    sizes = set()
    for i in range(18):
        d = random_diagram(rng, n=1 + i % 2, max_chords=1 + i % 6,
                           max_diamonds=4)
        k = d.decoration_count()
        if k > 9:
            continue
        sizes.add(k)
        decs = reference_decorations(d)
        assert list(subdiagrams(d)) == [
            reference_subdiagram(d, [x for j, x in enumerate(decs)
                                     if mask >> j & 1])
            for mask in range(1 << k)]
        s = map_I(d)
        want = reference_map_I(d)
        assert s == want and list(s.items()) == list(want.items())
        # varied coefficients, so that terms cancel and come back
        mixed = FormalDiagramSum()
        for j, (key, _) in enumerate(s.items()):
            mixed.add(key, (-1) ** j * (1 + j % 3))
        mixed.add(d, -1)
        got, want = map_I_inverse(mixed), reference_map_I_inverse(mixed)
        assert got == want and list(got.items()) == sorted(
            want.items(), key=inverse_order)
    assert max(sizes) == 9 and min(sizes) <= 3


def relabelled(d, ids):
    """``d`` with each chord id c renamed ``ids(c)``."""
    return XCGaussDiagram(
        d.n, d.top, [(ids(c), sg) for c, sg in d.chords],
        [[(k, v if k == "D" else ids(v)) for k, v in ev] for ev in d.events])


def nine_decorations():
    rng = random.Random(47)
    while True:
        d = random_diagram(rng, n=1 + rng.randrange(2), max_chords=5,
                           max_diamonds=4)
        if d.decoration_count() == 9:
            return d


def test_round_trip_builds_two_to_the_k_subdiagrams(monkeypatch):
    d = nine_decorations()
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return renumbered(*args)

    monkeypatch.setattr(polyak, "renumbered", counted)
    assert map_I_inverse(map_I(d)) == FormalDiagramSum.of(d)
    assert calls <= 2 ** (9 + 1)


def test_inverse_takes_raw_keys():
    d = nine_decorations()
    raw = {}
    for j, (key, c) in enumerate(map_I(d).items()):
        top = len(key.chords) + 1
        raw[relabelled(key, lambda x: 10 * (top - x))] = c + j % 3
        if j % 3:
            # a second key of the same class, so that the two merge
            raw[relabelled(key, lambda x: 7 * x + 3)] = -(j % 3)
    raw[relabelled(d, lambda x: 100 + x)] = 2
    s = FormalDiagramSum(raw)
    assert any(canonical_key(k) != k for k in s.terms)
    assert map_I_inverse(s) == reference_map_I_inverse(s)
    # a key that is not a valid diagram is refused, canonical or not
    orphan = XCGaussDiagram(1, (1,), [(1, 1), (2, 1)], [(("O", 1), ("U", 1))])
    dangling = XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1),)])
    for bad in (orphan, dangling):
        with pytest.raises(ValidationError):
            map_I_inverse(FormalDiagramSum({bad: 1, canonical_key(d): 1}))


def test_map_I_of_empty():
    s = map_I(identity(2))
    assert len(s) == 1
    assert s == FormalDiagramSum.of(identity(2))


def test_inverse_round_trip_exhaustive_small():
    rng = random.Random(89)
    for _ in range(200):
        d = random_diagram(rng, n=rng.randrange(1, 3),
                           max_chords=2, max_diamonds=3)
        assert d.decoration_count() <= 5
        assert map_I_inverse(map_I(d)) == FormalDiagramSum.of(d)


def test_linearity_of_inverse():
    a = ONE_EACH
    b = identity(1)
    s = FormalDiagramSum()
    s.add(a, 2)
    s.add(b, -3)
    direct = map_I_inverse(s)
    via = FormalDiagramSum()
    via.add_sum(map_I_inverse(FormalDiagramSum.of(a)), 2)
    via.add_sum(map_I_inverse(FormalDiagramSum.of(b)), -3)
    assert direct == via


def test_sum_minus_itself_is_empty():
    kink = XCGaussDiagram(1, (1,), [(1, 1)],
                          [(("O", 1), ("D", -1), ("U", 1))])
    s = map_I(kink)
    s.add_sum(s, -1)
    assert s == FormalDiagramSum()


def test_truncate_degree():
    s = map_I(ONE_EACH)
    assert truncate_degree(s, 0) == FormalDiagramSum()
    assert truncate_degree(s, 10) == s
    t = truncate_degree(s, 1)
    assert all(d.decoration_count() < 1 for d, _ in t.items())
    with pytest.raises(ValidationError):
        truncate_degree(s, -1)


def test_pairing_examples():
    dia = FormulaTerm(1, XCGaussDiagram(1, (1,), [], [(("D", 0),)]))
    empty = FormulaTerm(5, identity(1))
    assert pairing([empty], ONE_EACH) == 5
    assert pairing([dia], ONE_EACH) == rotation_total(ONE_EACH)
    # signed template slots must match exactly
    minus_dia = FormulaTerm(1, XCGaussDiagram(1, (1,), [], [(("D", -1),)]))
    assert pairing([minus_dia], ONE_EACH) == 0


def test_pairing_underfirst_chord_template():
    chord = FormulaTerm(
        1, XCGaussDiagram(1, (1,), [(1, 1)], [(("U", 1), ("O", 1))]),
        frozenset({1}))
    rng = random.Random(97)
    for _ in range(50):
        g = random_code(rng, n=1, max_chords=5)
        assert pairing([chord], g) == underfirst_writhe(g)


def test_pairing_is_linear_in_the_formula():
    terms = framing_terms()
    doubled = [FormulaTerm(2 * t.coefficient, t.template,
                           t.unsigned_chords) for t in terms]
    d = lift(random_code(random.Random(101), n=1, max_chords=4))
    assert pairing(doubled, d) == 2 * pairing(terms, d)


def signed_choices(term):
    """Each signed template of a term with its coefficient: every unsigned
    slot takes both signs, and the sign taken multiplies the coefficient."""
    t = term.template
    chords = [c for c, _ in t.chords if c in term.unsigned_chords]
    dias = [i for i, e in enumerate(t.events[0]) if e == ("D", 0)]
    for signs in product((1, -1), repeat=len(chords) + len(dias)):
        sign = dict(t.chords)
        sign.update(zip(chords, signs))
        row = list(t.events[0])
        for i, s in zip(dias, signs[len(chords):]):
            row[i] = ("D", s)
        yield (term.coefficient * prod(signs),
               XCGaussDiagram(1, (1,), sign.items(), [row]))


def reference_pairing(formula, d):
    """Match every subdiagram of ``d`` against every sign choice of every
    term by the printed text of their renumbered diagrams."""
    texts = [(c, print_diagram(renumber_canonically(t)))
             for term in formula for c, t in signed_choices(term)]
    total = 0
    for sub in subdiagrams(d):
        text = print_diagram(renumber_canonically(sub))
        total += sum(c for c, want in texts if want == text)
    return total


def test_pairing_equals_reference():
    rng = random.Random(109)
    unsigned_slots = 0
    for _ in range(300):
        formula = []
        for _ in range(rng.randint(1, 5)):
            t = random_diagram(rng, n=1, max_chords=3, max_diamonds=2)
            events = [(k, 0) if k == "D" and rng.random() < 0.5 else (k, v)
                      for k, v in t.events[0]]
            unsigned = frozenset(c for c, _ in t.chords
                                 if rng.random() < 0.5)
            unsigned_slots += len(unsigned) + events.count(("D", 0))
            formula.append(FormulaTerm(
                rng.randint(-3, 3),
                XCGaussDiagram(1, (1,), t.chords, [events]), unsigned))
        # a repeated term, so that templates of two terms add up
        formula.append(formula[0])
        d = random_diagram(rng, n=1, max_chords=4, max_diamonds=3)
        assert pairing(formula, d) == reference_pairing(formula, d)
    assert unsigned_slots > 300


@pytest.mark.parametrize("chords,events", [
    ([], [("O", 1), ("U", 1)]),  # chord ends of an unlisted chord
    ([(1, 1)], []),  # a chord listed without ends
    ([(1, 1)], [("O", 1)]),  # a one-ended chord
    ([(1, 0)], [("O", 1), ("U", 1)]),  # a chord of sign 0
])
def test_pairing_rejects_invalid_templates(chords, events):
    template = XCGaussDiagram(1, (1,), chords, [events])
    for coefficient in (1, 0):
        with pytest.raises(ValidationError):
            pairing([FormulaTerm(coefficient, template)], ONE_EACH)


def test_pairing_rejects_multistrand():
    with pytest.raises(ValidationError):
        pairing([], identity(2))


def test_framing_formula_examples():
    assert framing_formula(identity(1)) == 0
    kink = XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1), ("U", 1))])
    assert framing_formula(lift(kink)) == 1
    rng = random.Random(103)
    for _ in range(100):
        g = random_code(rng, n=1, max_chords=6)
        assert framing_formula(lift(g)) == writhe(g)


def test_framing_formula_builds_its_templates_once(monkeypatch):
    calls = []
    build = polyak._signed_templates
    monkeypatch.setattr(polyak, "_signed_templates",
                        lambda formula: calls.append(1) or build(formula))
    polyak._framing_weights.cache_clear()
    rng = random.Random(107)
    for _ in range(20):
        d = random_diagram(rng, n=1, max_chords=3, max_diamonds=3)
        assert framing_formula(d) == pairing(framing_terms(), d)
    assert len(calls) == 1 + 20  # the framing formula's, then each pairing's


def test_each_diagram_is_validated_once(monkeypatch):
    seen = []
    check = polyak.validate
    monkeypatch.setattr(polyak, "validate",
                        lambda d: seen.append(d) or check(d))
    framing_formula(identity(1))  # builds the cached framing templates
    rng = random.Random(109)
    for _ in range(20):
        d = random_diagram(rng, n=1, max_chords=3, max_diamonds=3)
        seen.clear()
        framing_formula(d)
        assert seen == [d]
        seen.clear()
        pairing(framing_terms(), d)
        assert seen.count(d) == 1 and len(seen) == 1 + len(framing_terms())
        seen.clear()
        map_I(d)
        assert seen == [d]
    key = canonical_key(ONE_EACH)
    seen.clear()
    map_I_inverse(FormalDiagramSum({key: 1}))
    assert seen.count(key) == 1
    # an invalid diagram on two strands still fails validation first
    bad = XCGaussDiagram(2, (1, 2), [(1, 1)], [(("O", 1),), ()])
    with pytest.raises(ValidationError) as want:
        check(bad)
    for call in (lambda: framing_formula(bad),
                 lambda: pairing(framing_terms(), bad),
                 lambda: map_I(bad),
                 lambda: list(subdiagrams(bad))):
        with pytest.raises(ValidationError) as got:
            call()
        assert str(got.value) == str(want.value)


def test_invariance_harness_flags_bad_formula():
    plus = FormulaTerm(
        1, XCGaussDiagram(1, (1,), [(1, 1)], [(("O", 1), ("U", 1))]))
    bad = check_formula_invariance([plus], 40, seed=5)
    assert not bad["invariant"] and bad["failures"]
    good = check_formula_invariance(framing_terms(), 40, seed=5)
    assert good["invariant"] and good["samples"] == 40


def test_formula_text_round_trip():
    text = print_formula(framing_terms())
    back = parse_formula(text)
    assert print_formula(back) == text
    assert [t.coefficient for t in back] == [2, -1]
    assert back[0].unsigned_chords == frozenset({1})


def test_formula_text_round_trip_random():
    rng = random.Random(107)
    for _ in range(300):
        d = random_diagram(rng, n=1, max_chords=3, max_diamonds=3)
        events = [(k, 0) if k == "D" and rng.random() < 0.5 else (k, v)
                  for k, v in d.events[0]]
        unsigned = frozenset(c for c, _ in d.chords if rng.random() < 0.5)
        # an unsigned chord reads back with sign +1
        chords = [(c, 1 if c in unsigned else s) for c, s in d.chords]
        template = XCGaussDiagram(1, (1,), chords, [events])
        formula = [FormulaTerm(rng.randint(-3, 3), template, unsigned),
                   FormulaTerm(1, identity(1))]
        text = print_formula(formula)
        assert parse_formula(text) == formula
        assert print_formula(parse_formula(text)) == text


FORMULA_GOLDEN = (
    "term 2\nstrands: 1\ntop: 1\nchords: 1:?\nstrand 1: U1 O1\n\n"
    "term -1\nstrands: 1\ntop: 1\nchords:\nstrand 1: D?\n\n"
    "term 1\nstrands: 1\ntop: 1\nchords: 1:? 2:?\nstrand 1: O1 U2 U1 O2\n\n"
    "term -3\nstrands: 1\ntop: 1\nchords: 3:? 7:-\n"
    "strand 1: U3 D? O7 D+ O3 U7 D-\n\n"
    "term 0\nstrands: 1\ntop: 1\nchords:\nstrand 1:\n")


def test_print_formula_golden():
    crossed = [(("O", 1), ("U", 2), ("U", 1), ("O", 2))]
    mixed = [(("U", 3), ("D", 0), ("O", 7), ("D", 1), ("O", 3), ("U", 7),
              ("D", -1))]
    formula = framing_terms() + [
        FormulaTerm(1, XCGaussDiagram(1, (1,), [(1, 1), (2, 1)], crossed),
                    frozenset({1, 2})),
        FormulaTerm(-3, XCGaussDiagram(1, (1,), [(7, -1), (3, 1)], mixed),
                    frozenset({3})),
        FormulaTerm(0, identity(1)),
    ]
    assert print_formula(formula) == FORMULA_GOLDEN


def test_formula_terms_must_be_one_strand():
    with pytest.raises(ValidationError):
        FormulaTerm(1, identity(2))


def _diamonds(k: int) -> XCGaussDiagram:
    """One strand with k diamonds of alternating sign."""
    return XCGaussDiagram(1, (1,), [],
                          [tuple(("D", (-1) ** i) for i in range(k))])


# 2^23 subsets: one decoration more than the default admits
TOO_MANY = _diamonds(23)


def test_subdiagrams_refuse_too_many_subsets():
    assert polyak.SUBSET_MAX == 1 << 22
    with pytest.raises(GuardrailError, match="23 decorations visits 8388608"):
        next(subdiagrams(TOO_MANY))


def test_map_I_refuses_too_many_subsets():
    with pytest.raises(GuardrailError, match=r"8388608 subsets, more than "
                                             r"4194304"):
        map_I(TOO_MANY)


def test_map_I_inverse_refuses_too_many_subsets():
    with pytest.raises(GuardrailError, match="8388608 subsets"):
        map_I_inverse(FormalDiagramSum.of(TOO_MANY))


def test_pairing_counts_only_the_subsets_of_its_sizes():
    # the framing formula walks the 30 one-decoration subsets of 30
    # diamonds, not all 2^30
    assert pairing(framing_terms(), _diamonds(30)) == 0
    # a 13-diamond template on 26 diamonds: C(26, 13) subsets
    formula = [FormulaTerm(1, _diamonds(13))]
    with pytest.raises(GuardrailError, match="26 decorations visits 10400600"):
        pairing(formula, _diamonds(26))
