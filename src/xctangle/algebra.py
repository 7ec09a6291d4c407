"""Matrix XC-algebras over an exact coefficient ring.

A :class:`MatrixXCAlgebra` holds a dimension ``d``, matrices ``R``/``Rinv``
on V (x) V (basis ``e_i (x) e_j``, first factor major) and ``kappa`` /
``kappainv`` on V.  The axiom checker verifies, as exact matrix identities:

* (XC0)  R^{+-1} = (kappa (x) kappa) . R^{+-1} . (kappa^-1 (x) kappa^-1)
  [move G0]
* (XC1f) mu3(R_31 . kappa_2) = mu3(R_13 . kappa_2^-1)  [G1f]
* (XC2c) 1 (x) kappa^-1 = (mu (x) mu3)(R_15 . R_23^-1 . kappa_4^-1)  [G2p]
* (XC2d) kappa (x) 1 = (mu3 (x) mu)(R_15^-1 . R_34 . kappa_2)  [G2p]
* (XC3)  R_12 R_13 R_23 = R_23 R_13 R_12  [G3]
* invertibility of R [G2] and kappa [G0r].

Each axiom is checked as the ``zeval`` of two diagrams: the two sides of
its move from ``data/patterns.cfg``, opened by ``moves.open_sides``
(fragment i on strand i), as ``validate_pattern`` certifies every move.

Algebra file format::

    dim: <d>
    ring: laurent|rational
    R:
    <d^2 lines of d^2 comma-separated entries in Laurent syntax>
    Rinv:
    ...
    kappa:
    <d lines of d comma-separated entries>
    kappainv:
    ...

``ring:`` (default ``laurent``) must come before the first block, and
every entry of a :class:`MatrixXCAlgebra` must be of its ``variant``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DimensionError, ParseError, VariantMismatchError
from .gauss import XCGaussDiagram, is_decimal
from .moves import builtin_patterns, open_sides
from .record import FrozenRecord
from .ring import LAURENT, RATIONAL, Coefficient, parse_laurent


class RingMatrix:
    """Immutable dense matrix of :class:`Coefficient` entries."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, entries: Sequence[Sequence[Coefficient]]):
        rows = tuple(tuple(row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RingMatrix is immutable")

    def __reduce__(self):
        return (RingMatrix, (self.entries,))

    @staticmethod
    def identity(n: int, variant: str = LAURENT) -> "RingMatrix":
        one, zero = Coefficient.one(variant), Coefficient.zero(variant)
        return RingMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, rc: tuple[int, int]) -> Coefficient:
        return self.entries[rc[0]][rc[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # first call: hash the entries once
            object.__setattr__(self, "_hash", hash(self.entries))
            return self._hash

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def scale(self, c: Coefficient) -> "RingMatrix":
        return RingMatrix([[c * e for e in row] for row in self.entries])

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix addition shape mismatch")
        return RingMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix subtraction shape mismatch")
        return RingMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )


def mat_mul(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Exact matrix product, multiplying only by the nonzero entries of
    ``b``'s rows."""
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bnz = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b.entries]
    out = []
    for row in a.entries:
        acc: list = [None] * b.cols
        for x, pairs in zip(row, bnz):
            if not x.is_zero():
                for j, y in pairs:
                    t = x * y
                    acc[j] = t if acc[j] is None else acc[j] + t
        zero = Coefficient.zero(row[0].variant if row else LAURENT)
        out.append([zero if s is None else s for s in acc])
    return RingMatrix(out)


def mat_tensor(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Kronecker product, first factor major."""
    out = []
    for ra in a.entries:
        for rb in b.entries:
            out.append([x * y for x in ra for y in rb])
    return RingMatrix(out)


class MatrixXCAlgebra(FrozenRecord):
    d: int
    R: RingMatrix
    Rinv: RingMatrix
    kappa: RingMatrix
    kappainv: RingMatrix
    variant: str = LAURENT

    def __post_init__(self):
        d = self.d
        if self.R.rows != d * d or self.R.cols != d * d:
            raise DimensionError("R must be d^2 x d^2")
        if self.Rinv.rows != d * d or self.Rinv.cols != d * d:
            raise DimensionError("Rinv must be d^2 x d^2")
        if self.kappa.rows != d or self.kappa.cols != d:
            raise DimensionError("kappa must be d x d")
        if self.kappainv.rows != d or self.kappainv.cols != d:
            raise DimensionError("kappainv must be d x d")
        for name in ("R", "Rinv", "kappa", "kappainv"):
            for row in getattr(self, name).entries:
                for c in row:
                    if c.variant != self.variant:
                        raise VariantMismatchError(
                            f"{name} has a {c.variant} entry in a "
                            f"{self.variant} algebra")


# Each axiom is one shipped move (data/patterns.cfg) opened by
# moves.open_sides, in report order: kind, variant, sign choice e, and
# whether the axiom's lhs is the move's right side.
_AXIOM_MOVES = {
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


def _axiom_diagrams() -> list[tuple[str, XCGaussDiagram, XCGaussDiagram]]:
    """The XC axioms as (name, lhs, rhs) diagram pairs, in report order."""
    patterns = {(p.kind, p.variant): p for p in builtin_patterns()}
    out = []
    for name, (kind, variant, eps, flipped) in _AXIOM_MOVES.items():
        lhs, rhs = open_sides(patterns[(kind, variant)], eps)
        out.append((name, rhs, lhs) if flipped else (name, lhs, rhs))
    return out


def check_axioms(a: MatrixXCAlgebra) -> dict:
    """Verify the XC axioms exactly; returns a per-axiom report."""
    from .invariant import zeval

    report: dict[str, dict] = {}

    def record(name: str, lhs: RingMatrix, rhs: RingMatrix) -> None:
        rows = zip(lhs.entries, rhs.entries)
        where = next(((i, j) for i, (lrow, rrow) in enumerate(rows)
                      for j, (x, y) in enumerate(zip(lrow, rrow)) if x != y), None)
        report[name] = {"ok": True} if where is None else {
            "ok": False, "entry": where, "lhs": str(lhs[where]), "rhs": str(rhs[where])}

    for name, lhs, rhs in _axiom_diagrams():
        record(name, zeval(lhs, a).value, zeval(rhs, a).value)
    report["ok"] = all(v["ok"] for k, v in report.items() if k != "ok")
    return report


def builtin_uqsl2() -> MatrixXCAlgebra:
    """The built-in d=2 quantum-sl2 instance over Z[q, q^-1].

    R is the standard two-dimensional quantum-sl2 R-matrix with its global
    q^(-1/2) scalar dropped (a permitted monomial normalization); the
    balancing element acts as diag(q, q^-1).
    """
    q = Coefficient.q_power(1)
    qi = Coefficient.q_power(-1)
    one = Coefficient.one(LAURENT)
    zero = Coefficient.zero(LAURENT)
    h = q - qi  # q - q^-1
    R = RingMatrix(
        [
            [q, zero, zero, zero],
            [zero, one, h, zero],
            [zero, zero, one, zero],
            [zero, zero, zero, q],
        ]
    )
    Rinv = RingMatrix(
        [
            [qi, zero, zero, zero],
            [zero, one, -h, zero],
            [zero, zero, one, zero],
            [zero, zero, zero, qi],
        ]
    )
    kappa = RingMatrix([[q, zero], [zero, qi]])
    kappainv = RingMatrix([[qi, zero], [zero, q]])
    return MatrixXCAlgebra(2, R, Rinv, kappa, kappainv, LAURENT)


# -- algebra file format ----------------------------------------------


def _parse_entry(text: str, variant: str, lineno: int,
                 offset: int) -> Coefficient:
    """One matrix entry, stripped, starting ``offset`` characters into
    its raw line."""
    if variant == LAURENT:
        return parse_laurent(text, lineno, offset)
    # imported here: fractions loads decimal, and only rational algebra
    # files need it
    from fractions import Fraction

    if text.isascii():  # Fraction reads every Unicode digit
        try:
            return Coefficient.rational(Fraction(text))
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"bad rational entry {text!r}", lineno, offset + 1)


def parse_algebra(text: str) -> MatrixXCAlgebra:
    lines = text.splitlines()
    d = None
    variant = LAURENT
    blocks: dict[str, list[list[Coefficient]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith(":") and line[:-1] in ("R", "Rinv", "kappa", "kappainv"):
            current = line[:-1]
            blocks[current] = []
            continue
        if line.startswith("dim:"):
            rest = line[4:].strip()
            if not is_decimal(rest) or int(rest) < 1:
                raise ParseError(f"bad dimension {rest!r}", lineno, 5)
            d = int(rest)
            current = None
            continue
        if line.startswith("ring:"):
            if blocks:  # the blocks above were read in the old ring
                raise ParseError("'ring:' must come before the matrix blocks",
                                 lineno, 1)
            rest = line[5:].strip()
            if rest not in (LAURENT, RATIONAL):
                raise ParseError(f"bad ring {rest!r}", lineno, 6)
            variant = rest
            current = None
            continue
        if current is None:
            raise ParseError(f"unexpected line {line!r}", lineno, 1)
        at, row = len(raw) - len(raw.lstrip()), []  # offsets on ``raw``
        for entry in line.split(","):
            lead = len(entry) - len(entry.lstrip())
            row.append(_parse_entry(entry.strip(), variant, lineno, at + lead))
            at += len(entry) + 1
        blocks[current].append(row)
    if d is None:
        raise ParseError("missing 'dim:' line", 1, 1)
    for name in ("R", "Rinv", "kappa", "kappainv"):
        if name not in blocks:
            raise ParseError(f"missing '{name}:' block", 1, 1)
    try:
        return MatrixXCAlgebra(
            d,
            RingMatrix(blocks["R"]),
            RingMatrix(blocks["Rinv"]),
            RingMatrix(blocks["kappa"]),
            RingMatrix(blocks["kappainv"]),
            variant,
        )
    except DimensionError as exc:
        raise ParseError(str(exc), 1, 1)


def print_algebra(a: MatrixXCAlgebra) -> str:
    lines = [f"dim: {a.d}", f"ring: {a.variant}"]
    for name in ("R", "Rinv", "kappa", "kappainv"):
        lines.append(f"{name}:")
        m: RingMatrix = getattr(a, name)
        for row in m.entries:
            lines.append(", ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"
