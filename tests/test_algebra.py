"""Matrix algebra layer: axiom checking through zeval, the axioms' match
with the move table, matrix arithmetic, and the algebra text format."""

import pytest

from xctangle.algebra import (
    RingMatrix,
    _axiom_diagrams,
    builtin_uqsl2,
    check_axioms,
    mat_mul,
    parse_algebra,
    print_algebra,
)
from xctangle.errors import DimensionError, ParseError
from xctangle.gauss import canonical_key
from xctangle.moves import _closure_diagram, builtin_patterns
from xctangle.ring import Coefficient

# The shipped move instance behind each axiom, in report order: kind,
# variant, sign choice e, and whether the axiom's lhs is the move's right
# side.
AXIOM_MOVES = {
    "invertibility-R": ("G2", 1, -1, False),
    "invertibility-R'": ("G2", 1, 1, False),
    "invertibility-kappa": ("G0r", 1, 1, False),
    "XC0": ("G0", 1, 1, True),
    "XC0'": ("G0", 1, -1, True),
    "XC1f": ("G1f", 1, 1, False),
    "XC2c": ("G2p", 2, 1, True),
    "XC2d": ("G2p", 3, 1, True),
    "XC3": ("G3", 1, 1, False),
}


def test_builtin_passes_all_axioms():
    report = check_axioms(builtin_uqsl2())
    assert report["ok"]
    for name, res in report.items():
        if name != "ok":
            assert res["ok"], name


def test_axiom_failure_reports_entry():
    a = builtin_uqsl2()
    broken = type(a)(d=a.d, R=a.R, Rinv=a.R, kappa=a.kappa,
                     kappainv=a.kappainv, variant=a.variant)
    report = check_axioms(broken)
    assert not report["ok"]
    assert not report["invertibility-R"]["ok"]
    assert "entry" in report["invertibility-R"]


def test_axioms_are_the_shipped_moves():
    patterns = {(p.kind, p.variant): p for p in builtin_patterns()}
    axioms = _axiom_diagrams()
    assert [name for name, _, _ in axioms] == list(AXIOM_MOVES)
    for name, lhs, rhs in axioms:
        kind, variant, eps, flipped = AXIOM_MOVES[name]
        p = patterns[(kind, variant)]
        assign = {letter: i + 1 for i, (letter, _) in enumerate(p.vars)}
        opened = tuple((i,) for i in range(len(p.left)))
        sides = [
            canonical_key(_closure_diagram(frags, opened, {}, assign, eps, p, ()))
            for frags in (p.left, p.right)
        ]
        if flipped:
            sides.reverse()
        assert [canonical_key(lhs), canonical_key(rhs)] == sides, name


def test_matrix_dimension_errors():
    with pytest.raises(DimensionError):
        mat_mul(RingMatrix.identity(2), RingMatrix.identity(3))
    with pytest.raises(DimensionError):
        RingMatrix([[Coefficient.one()], [Coefficient.one(),
                                          Coefficient.one()]])


def test_algebra_text_round_trip():
    a = builtin_uqsl2()
    b = parse_algebra(print_algebra(a))
    assert b.d == a.d
    assert b.R == a.R and b.Rinv == a.Rinv
    assert b.kappa == a.kappa and b.kappainv == a.kappainv


def test_parse_algebra_errors():
    with pytest.raises(ParseError):
        parse_algebra("dim: 2\nring: laurent\nR:\n1, 0\n")
