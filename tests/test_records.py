"""Record semantics of the value types: pickle and copy round trips,
field-wise hash, immutability, equality only within a type, defaults."""

import copy
import pickle

import pytest

from xctangle import (
    FormalDiagramSum,
    FormulaTerm,
    InvariantValue,
    MatrixXCAlgebra,
    MoveSite,
    XCGaussDiagram,
    builtin_patterns,
    builtin_uqsl2,
    find_sites,
    map_I,
    orbit,
    parse_diagram,
    zeval,
)
from xctangle.acceptance import CriterionResult
from xctangle.errors import ValidationError
from xctangle.polyak import framing_terms
from xctangle.tangle import XCTangleGraph, from_gauss

ALG = builtin_uqsl2()
CURL = parse_diagram("strands: 1\ntop: 1\nchords: 1:+\nstrand 1: O1 D+ U1\n")


def _pattern():
    p = next(p for p in builtin_patterns() if p.vars)
    p.sign_of(p.vars[0][0], 1)  # fills the cached sign table
    return p


#: One representative of each frozen type, with its field names in order.
FROZEN = {
    "XCGaussDiagram": (lambda: CURL, ("n", "top", "chords", "events")),
    "MovePattern": (_pattern, ("kind", "variant", "vars", "left", "right")),
    "MoveSite": (lambda: find_sites(CURL, "G2")[0],
                 ("pattern", "side", "locs", "assign", "eps")),
    "OrbitResult": (lambda: orbit(CURL, 1, 3), ("keys", "truncated")),
    "MatrixXCAlgebra": (lambda: ALG,
                        ("d", "R", "Rinv", "kappa", "kappainv", "variant")),
    "InvariantValue": (lambda: zeval(CURL, ALG),
                       ("n", "value", "sigma", "d", "variant")),
    "FormulaTerm": (lambda: framing_terms()[0],
                    ("coefficient", "template", "unsigned_chords")),
    "XCTangleGraph": (lambda: from_gauss(CURL),
                      ("vertices", "edges", "out_order", "in_order")),
}

MUTABLE = {
    "FormalDiagramSum": lambda: map_I(CURL),
    "CriterionResult": lambda: CriterionResult(1, "name", True, "ok", 0.25),
}

ALL = {**{k: make for k, (make, _) in FROZEN.items()}, **MUTABLE}


@pytest.mark.parametrize("name", sorted(ALL))
def test_pickle_and_copy_round_trip(name):
    x = ALL[name]()
    assert type(x).__name__ == name
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x)
        assert y == x


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_hashes_as_its_field_tuple(name):
    make, fields = FROZEN[name]
    x = make()
    values = tuple(getattr(x, f) for f in fields)
    assert hash(x) == hash(values)
    assert x != values and values != x
    assert repr(x).startswith(f"{name}({fields[0]}=")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_rejects_assignment(name):
    make, fields = FROZEN[name]
    x = make()
    with pytest.raises(AttributeError):
        setattr(x, fields[0], getattr(x, fields[0]))
    with pytest.raises(AttributeError):
        delattr(x, fields[0])


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_record_is_unhashable(name):
    with pytest.raises(TypeError):
        hash(MUTABLE[name]())


def test_defaults():
    a = MatrixXCAlgebra(ALG.d, ALG.R, ALG.Rinv, ALG.kappa, ALG.kappainv)
    assert a.variant == ALG.variant == "laurent"
    assert a == ALG
    t = FormulaTerm(1, CURL)
    assert t.unsigned_chords == frozenset()
    first, second = FormalDiagramSum(), FormalDiagramSum()
    assert first.terms == {} and first.terms is not second.terms
    first.add(CURL)
    assert len(first) == 1 and len(FormalDiagramSum()) == 0


def test_diagram_fields_are_slots():
    # no instance dict, and the slot descriptors are not read as defaults
    assert not hasattr(CURL, "__dict__")
    assert XCGaussDiagram._defaults == {}
    with pytest.raises(TypeError):
        XCGaussDiagram(1, (1,), ())


def test_site_fields_are_slots():
    site = find_sites(CURL, "G2")[0]
    assert not hasattr(site, "__dict__")
    assert MoveSite._defaults == {}
    with pytest.raises(TypeError):
        MoveSite(site.pattern, site.side, site.locs, site.assign)


def test_construction_by_keyword_and_bad_arguments():
    term = FormulaTerm(coefficient=2, template=CURL,
                       unsigned_chords=frozenset({1}))
    assert term == FormulaTerm(2, CURL, frozenset({1}))
    assert FormulaTerm(template=CURL, coefficient=2) == FormulaTerm(2, CURL)
    for args, kwargs in [((2,), {}),
                         ((2, CURL), {"extra": 1}),
                         ((2, CURL), {"template": CURL}),
                         ((2, CURL, frozenset(), 4), {})]:
        with pytest.raises(TypeError):
            FormulaTerm(*args, **kwargs)
    site = find_sites(CURL, "G2")[0]
    assert site == MoveSite(pattern=site.pattern, side=site.side,
                            locs=site.locs, assign=site.assign, eps=site.eps)


def test_post_init_checks_run():
    value = zeval(CURL, ALG)
    with pytest.raises(ValidationError, match="permutation"):
        InvariantValue(value.n, value.value, (2,), value.d, value.variant)
    with pytest.raises(ValidationError, match="one strand"):
        FormulaTerm(1, XCGaussDiagram(2, (1, 2), (), ((), ())))

