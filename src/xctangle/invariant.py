"""The universal invariant: evaluate an XC-Gauss diagram into a matrix
XC-algebra together with a strand permutation.

Evaluation follows the bead calculus: traversing each strand bottom to top,
every event deposits a bead on that strand's tensor leg.  A chord of sign s
deposits the first leg of R^s on its over endpoint and the second leg on its
under endpoint; a positive diamond deposits kappa^-1, a negative diamond
deposits kappa.  Beads encountered later along a strand multiply on the
LEFT.  The value is realized as a single d^n x d^n matrix on V^{(x)n}.

Writing R^s = sum E_ac (x) Q_ac makes the value a state sum over one term
per chord.  ``zeval`` walks it depth first, strand by strand, so states
that share a prefix of beads share its product, and it drops a branch as
soon as its partial product is zero, since every later bead multiplies on
the left.  The walk is still exponential in the chord count: about 2x per
crossing on T(2,k) lifts, against 3x for the plain sum.  So the plain
sum's states are counted before the walk, and a diagram with more than
:data:`STATE_MAX` of them raises :class:`GuardrailError`.

Each bead (kappa, kappa^-1 and every Q_ac) is split once per algebra
into sparse rows of its nonzero ``(column, payload)`` pairs, and a bead
product multiplies only those pairs.  Bead products run on bare normal-form
payloads with the ring's payload kernel (:func:`~xctangle.ring.kernel`):
the split beads, the walk's running product and its partial sums are
payloads, and zero is the falsy payload.  A strand's word becomes a
:class:`RingMatrix` of :class:`Coefficient` entries only when the strand
closes; the tensor product of the words and the sum into the value use
``Coefficient`` arithmetic.  The product reports a zero result as
``None``, and an E_ac bead ends its branch when row c of the partial
product is zero, so no product is scanned for zeros afterwards.

Values compose by the twisted law of the virtual category of elements:
``(u, sigma) o (v, tau) = (tau^-1-permuted u . v, sigma o tau)``, and the
realization map sends ``(u, sigma)`` to ``sigma . u``.  A permutation acts
on V^{(x)n} by moving tensor factors, which relabels basis indices, so it
is applied by reindexing rows and columns, never as a matrix product.

The same evaluation certifies moves.  :func:`validate_pattern` is the
binding correctness gate for the shipped patterns: it opens both sides of
a pattern (:func:`~xctangle.moves.open_sides`, fragment i alone on strand
i) and checks that their values agree exactly for every sign choice.  A
move is an identity in A^{(x)k}; since every closure's value is a linear
image of the open value, open equality implies equality in every context.
:func:`check_axioms` evaluates the XC axioms of an algebra as the opened
sides of the moves they stand for.
"""

from __future__ import annotations

from . import gauss
from .algebra import MatrixXCAlgebra, RingMatrix, mat_mul, mat_tensor
from .errors import DimensionError, GuardrailError, NonScalarError, ValidationError
from .gauss import DIAMOND, OVER, XCGaussDiagram
from .moves import MovePattern, builtin_patterns, open_sides
from .record import FrozenRecord
from .ring import Coefficient, kernel

DEFAULT_GUARDRAIL = 4096

#: The most states one :func:`zeval` sums over: the product over the
#: chords of the number of terms of R or R^-1 for each chord's sign, 3^c
#: for c chords of the builtin algebra.  2^32 admits 3^20; the T(2,19)
#: lift took 15 s on a 2-vCPU VM, so the 20 chords of T(2,20) take about
#: half a minute, and each further crossing about doubles that.
STATE_MAX = 1 << 32


# -- permutation tuples (1-based) -------------------------------------


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(i) = a(b(i))."""
    if len(a) != len(b):
        raise DimensionError("permutation size mismatch")
    return tuple(a[b[i] - 1] for i in range(len(a)))


def perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_block(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    return a + tuple(v + n for v in b)


def _index_map(sigma: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Where sigma sends each basis vector of V^{(x)n} (first factor
    major): factor i of basis vector c moves to position sigma(i) of basis
    vector f[c]."""
    n, f = len(sigma), [0]
    for s in sigma:
        w = d ** (n - s)
        f = [r + k * w for r in f for k in range(d)]
    return tuple(f)


class InvariantValue(FrozenRecord):
    """An element of the virtual category of elements, realized on V^{(x)n}."""

    n: int
    value: RingMatrix
    sigma: tuple[int, ...]
    d: int
    variant: str

    def __post_init__(self):
        size = self.d**self.n
        if self.value.rows != size or self.value.cols != size:
            raise DimensionError("value matrix has wrong size")
        if sorted(self.sigma) != list(range(1, self.n + 1)):
            raise ValidationError("sigma is not a permutation")


def _left_mul(k: tuple, acc: list, mul, add, zero) -> list | None:
    """k . acc for a bead ``k`` in sparse rows and ``acc`` as d rows of
    payloads, multiplying only nonzero pairs with the kernel's ``mul`` and
    ``add``; ``None`` when the product is zero."""
    out, nonzero = [], False
    cols = range(len(acc))
    for pairs in k:
        row = []
        for c in cols:
            s = zero
            for j, x in pairs:
                y = acc[j][c]
                if y:
                    s = add(s, mul(x, y)) if s else mul(x, y)
            if s:
                nonzero = True
            row.append(s)
        out.append(row)
    return out if nonzero else None


def zeval(
    d_: XCGaussDiagram, a: MatrixXCAlgebra, guardrail: int = DEFAULT_GUARDRAIL
) -> InvariantValue:
    """Evaluate the universal invariant of a diagram in algebra ``a``.

    The value is a state sum: every chord picks one term E_ac (x) Q_ac of
    R^s, and each strand multiplies its beads.  The sum is walked depth
    first over the events in strand-major order (strand 1 bottom to top,
    then strand 2, ...).  The walk carries the current strand's partial
    bead product and the finished strands' words; it branches over a
    chord's terms where it first meets the chord and reuses the chosen term
    at the other endpoint, so states with a common prefix share its
    product.  A branch stops as soon as its partial product is zero: later
    beads multiply on the left, and a left multiple of zero is zero.  Each
    completed state adds the tensor product of its words into the value.

    Besides ``guardrail``, which bounds the d^n size of the value, the
    states are counted before the walk: the product over the chords of
    the number of terms of R or R^-1 for each chord's sign.  More than
    :data:`STATE_MAX` of them raise :class:`GuardrailError`.
    """
    gauss.validate(d_)
    n = d_.n
    dim = a.d
    if dim**n > guardrail:
        raise GuardrailError(
            f"evaluation on {n} legs of dimension {dim} exceeds guardrail {guardrail}"
        )
    variant = a.variant
    zero = Coefficient.zero(variant)
    one = Coefficient.one(variant)
    ops = kernel(variant)
    mul, add, pzero = ops.mul, ops.add, ops.zero
    sign = d_.chord_sign
    kappa, kappainv, decomp = a._beads
    states = 1
    for s in sign.values():
        states *= len(decomp[s])
    if states > STATE_MAX:
        raise GuardrailError(
            f"state sum over {len(sign)} chords has {states} states, "
            f"more than {STATE_MAX}")
    unit = [[ops.one if i == j else pzero for j in range(dim)] for i in range(dim)]
    # strand-major events, None closing each strand
    steps = [ev for strand in d_.events for ev in (*strand, None)]
    size = dim**n
    total = [[zero] * size for _ in range(size)]
    chosen: dict[int, tuple] = {}  # chord -> its term in the current state

    def walk(i: int, acc: list, words: tuple) -> None:
        while i < len(steps):
            step = steps[i]
            i += 1
            if step is None:
                words += (RingMatrix([[Coefficient._normal(variant, x) if x else zero
                                       for x in row] for row in acc]),)
                acc = unit
                continue
            kind, val = step
            if kind == DIAMOND:
                acc = _left_mul(kappainv if val > 0 else kappa, acc, mul, add, pzero)
            elif val not in chosen:
                for term in decomp[sign[val]]:
                    chosen[val] = term
                    walk(i - 1, acc, words)
                chosen.pop(val, None)
                return
            else:
                aa, cc, q = chosen[val]
                if kind == OVER:  # E_ac . acc moves row c to row a
                    if not any(acc[cc]):
                        return
                    acc = [acc[cc] if r == aa else [pzero] * dim for r in range(dim)]
                else:
                    acc = _left_mul(q, acc, mul, add, pzero)
            if acc is None:
                return
        m = words[0] if words else RingMatrix([[one]])
        for w in words[1:]:
            m = mat_tensor(m, w)
        for trow, mrow in zip(total, m.entries):
            for c, e in enumerate(mrow):
                if not e.is_zero():
                    trow[c] = trow[c] + e

    try:
        walk(0, unit, ())
    finally:
        del walk  # it refers to itself; free it without the cyclic collector
    return InvariantValue(n, RingMatrix(total), d_.top, dim, variant)


def ve_compose(u: InvariantValue, v: InvariantValue) -> InvariantValue:
    """Compose values: u after v."""
    if u.n != v.n or u.d != v.d:
        raise DimensionError("value size mismatch")
    f, e = _index_map(v.sigma, u.d), u.value.entries
    conj = RingMatrix([[e[r][c] for c in f] for r in f])  # tau^-1 . u . tau
    value = mat_mul(conj, v.value)
    return InvariantValue(u.n, value, perm_compose(u.sigma, v.sigma), u.d, u.variant)


def ve_tensor(u: InvariantValue, v: InvariantValue) -> InvariantValue:
    if u.d != v.d or u.variant != v.variant:
        raise DimensionError("value algebra mismatch")
    return InvariantValue(
        u.n + v.n,
        mat_tensor(u.value, v.value),
        perm_block(u.sigma, v.sigma),
        u.d,
        u.variant,
    )


def iota_realize(u: InvariantValue) -> RingMatrix:
    """Realize (value, sigma) as the single matrix sigma . value: row f[c]
    of the result is row c of the value, so row r is row f^-1(r), and
    f^-1 is the index map of sigma^-1."""
    rows = u.value.entries
    return RingMatrix([rows[c] for c in _index_map(perm_inverse(u.sigma), u.d)])


def long_knot_scalar(u: InvariantValue) -> Coefficient:
    """The scalar lambda with value = lambda . Id, for one-strand values."""
    if u.n != 1:
        raise NonScalarError(f"expected a one-strand value, got {u.n} strands")
    lam = u.value[(0, 0)]
    for i in range(u.d):
        for j in range(u.d):
            e = u.value[(i, j)]
            if i == j:
                if e != lam:
                    raise NonScalarError(
                        f"diagonal entry ({i},{j}) = {e} differs from {lam}",
                        (i, j),
                    )
            elif not e.is_zero():
                raise NonScalarError(
                    f"off-diagonal entry ({i},{j}) = {e} is nonzero", (i, j)
                )
    return lam


# -- certification: moves and axioms as opened sides -------------------


def validate_pattern(pattern: MovePattern, algebra) -> tuple[bool, object]:
    """Check that both sides of a pattern, opened by
    :func:`~xctangle.moves.open_sides`, evaluate identically for every
    sign choice; returns (ok, counterexample), the counterexample being
    the open pair.  Since ``zeval`` is a strict monoidal functor, open
    equality gives equality in every closure.  A side that is not a valid
    diagram raises ValidationError from ``zeval``."""
    for eps in pattern.sides["L"].eps_choices:
        lhs, rhs = open_sides(pattern, eps)
        if zeval(lhs, algebra) != zeval(rhs, algebra):
            return False, (lhs, rhs)
    return True, None


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
