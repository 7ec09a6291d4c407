"""Matrix algebra layer: axiom checking through zeval, the axioms' match
with the move table, matrix arithmetic, and the algebra text format."""

import pytest

from xctangle.algebra import (
    MatrixXCAlgebra,
    RingMatrix,
    _axiom_diagrams,
    builtin_uqsl2,
    check_axioms,
    mat_mul,
    parse_algebra,
    print_algebra,
)
from xctangle.errors import DimensionError, ParseError, VariantMismatchError
from xctangle.gauss import canonical_key, parse_diagram
from xctangle.ring import RATIONAL, Coefficient

# The reference axiom diagrams, written out by hand in report order: name,
# chord signs, then the two sides with "|" between strands.
AXIOM_TEXT = (
    ("invertibility-R", "1:+ 2:-", "O2 O1 | U2 U1", "|"),
    ("invertibility-R'", "1:- 2:+", "O2 O1 | U2 U1", "|"),
    ("invertibility-kappa", "", "D+ D-", ""),
    ("XC0", "1:+", "O1 | U1", "D+ O1 D- | D+ U1 D-"),
    ("XC0'", "1:-", "O1 | U1", "D+ O1 D- | D+ U1 D-"),
    ("XC1f", "1:+", "O1 D- U1", "U1 D+ O1"),
    ("XC2c", "1:+ 2:-", "| D+", "O2 O1 | U1 D+ U2"),
    ("XC2d", "1:- 2:+", "D- |", "O2 D- O1 | U1 U2"),
    ("XC3", "1:+ 2:+ 3:+",
     "O2 O1 | O3 U1 | U3 U2", "O1 O2 | U1 O3 | U2 U3"),
)


def _text_side(signs, strands):
    """Read one side of a reference row, keeping the signs of its chords."""
    runs = strands.split("|")
    ids = {tok[1:] for tok in strands.split() if tok[0] in "OU"}
    chords = " ".join(c for c in signs.split() if c.partition(":")[0] in ids)
    lines = [f"strands: {len(runs)}", f"chords: {chords}"]
    lines += [f"strand {i}: {run}" for i, run in enumerate(runs, start=1)]
    return parse_diagram("\n".join(lines))


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
    axioms = _axiom_diagrams()
    assert [name for name, _, _ in axioms] == [row[0] for row in AXIOM_TEXT]
    for (name, lhs, rhs), (_, signs, ltext, rtext) in zip(axioms, AXIOM_TEXT):
        assert canonical_key(lhs) == canonical_key(_text_side(signs, ltext)), name
        assert canonical_key(rhs) == canonical_key(_text_side(signs, rtext)), name


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


# A ring line after a block: R and Rinv would be read as laurent and the
# later blocks as rational.
LATE_RING = ("dim: 1\nR:\n1\nRinv:\n1\nring: rational\n"
             "kappa:\n1\nkappainv:\n1\n")


def test_parse_algebra_errors():
    cases = [("dim: 2\nring: laurent\nR:\n1, 0\n", 1, 1),
             (LATE_RING, 6, 1)]
    for text, line, column in cases:
        with pytest.raises(ParseError) as err:
            parse_algebra(text)
        assert (err.value.line, err.value.column) == (line, column), text


def test_algebra_entries_must_be_of_its_variant():
    a = builtin_uqsl2()
    with pytest.raises(VariantMismatchError, match="R has a laurent entry"):
        MatrixXCAlgebra(a.d, a.R, a.Rinv, a.kappa, a.kappainv, RATIONAL)


def test_parse_algebra_reports_the_column_on_the_raw_line():
    head = "dim: 2\nring: {}\nR:\n"
    cases = [("laurent", "q, 0, 0, 0, q^", 14),
             ("laurent", "   q, zz, 0, 0", 7),
             ("laurent", "1,, 0", 3),
             ("rational", "1, 1/0 # x", 4),
             ("rational", "\t1,  0,  x", 10)]
    for ring, row, column in cases:
        with pytest.raises(ParseError) as err:
            parse_algebra(head.format(ring) + row + "\n")
        assert (err.value.line, err.value.column) == (4, column), row
