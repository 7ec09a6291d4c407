"""The universal invariant: evaluate an XC-Gauss diagram into a matrix
XC-algebra together with a strand permutation.

Evaluation follows the bead calculus: traversing each strand bottom to top,
every event deposits a bead on that strand's tensor leg.  A chord of sign s
deposits the first leg of R^s on its over endpoint and the second leg on its
under endpoint; a positive diamond deposits kappa^-1, a negative diamond
deposits kappa.  Beads encountered later along a strand multiply on the
LEFT.  The value is realized as a single d^n x d^n matrix on V^{(x)n}.

Writing R^s = sum E_ac (x) Q_ac makes the value a state sum over one term
per chord.  Only a chord whose two ends lie on different strands (a shared
chord) couples the strands' words; a chord with both ends on one strand
(an own chord) is summed inside that strand's word.  ``zeval`` walks the
strands in order, and each strand depth first, one start column at a time:
the walk branches over a chord's terms where it first meets the chord, so
states that share a prefix of beads share its product, and a column stops
as soon as its partial product is zero, since every later bead multiplies
on the left.  A strand's finished columns are summed into words keyed by
the terms chosen for its shared chords, and the next strand is walked once
from each nonzero word.  So a knot (one strand) has one word, and the
strands of a tensor product are walked once each.  The walk is still
exponential in the chords of a strand; a work estimate per strand belongs
with a contraction that does not branch on own chords.  The guard counts
the plain sum's states, over all the chords, before the walk, and a
diagram with more than :data:`STATE_MAX` of them raises
:class:`GuardrailError`.

Each bead (kappa, kappa^-1 and every Q_ac) is split once per algebra
into sparse rows of its nonzero ``(column, payload)`` pairs, and a bead
product multiplies only those pairs.  Bead products run on bare normal-form
payloads with the ring's payload kernel (:func:`~xctangle.ring.kernel`):
the split beads, the walk's columns and the words' sums are payloads, and
zero is the falsy payload.  A word becomes a :class:`RingMatrix` of
:class:`Coefficient` entries only when its strand's walk is done; the
tensor product of the words and the sum into the value use ``Coefficient``
arithmetic.  An E_ac bead moves entry c of a column to entry a, so a term
whose E_ac meets a zero entry is not walked at all.

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

#: The most states one :func:`zeval` sums over: the product over all the
#: chords, own and shared, of the number of terms of R or R^-1 for each
#: chord's sign, 3^c for c chords of the builtin algebra.  2^32 admits
#: 3^20.  The walk still branches on every chord, own or shared, so the
#: count bounds its work: the T(2,19) lift took 12 s on a 2-vCPU VM, and
#: each further crossing about doubles that.
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


def zeval(
    d_: XCGaussDiagram, a: MatrixXCAlgebra, guardrail: int = DEFAULT_GUARDRAIL
) -> InvariantValue:
    """Evaluate the universal invariant of a diagram in algebra ``a``.

    The value is a state sum: every chord picks one term E_ac (x) Q_ac of
    R^s, each strand multiplies its beads into a word, and each state adds
    the tensor product of its words.  A chord with both ends on one strand
    (an own chord) couples nothing else, so its terms are summed inside
    that strand's word; only the terms of the chords whose ends lie on two
    strands (shared chords) are carried from one strand to the next.

    The strands are walked in order, strand 1 bottom to top first.  A
    strand is walked depth first one start column at a time: the walk
    carries the column's partial bead product, branches over a chord's
    terms where it first meets the chord, and reuses the chosen term at the
    other end, so states with a common prefix share its product.  A column
    stops as soon as its partial product is zero: later beads multiply on
    the left, and a left multiple of zero is zero.  Each finished column is
    added into the strand's word for the terms it chose for shared chords.
    The next strand is walked once from each nonzero word, with that
    word's shared terms chosen, and each word of the last strand adds the
    tensor product of its choice's words into the value.

    ``guardrail`` must be a positive int (not a bool), or ValidationError
    is raised; a value of size d^n above it raises GuardrailError.  The
    states are also counted before the walk: the product over all the
    chords of the number of terms of R or R^-1 for each chord's sign.  More
    than :data:`STATE_MAX` of them raise :class:`GuardrailError`.
    """
    if not gauss.is_int(guardrail):
        raise ValidationError(f"guardrail {guardrail!r} is not an int")
    if guardrail <= 0:
        raise ValidationError(f"guardrail must be positive, got {guardrail}")
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
    strands = d_.events
    home: dict[int, int] = {}  # chord -> the strand of its first end
    shared: set[int] = set()
    for j, events in enumerate(strands):
        for kind, val in events:
            if kind != DIAMOND and home.setdefault(val, j) != j:
                shared.add(val)
    # per strand, the shared chords whose first end is on it, in event order
    opened = [[c for kind, c in events if kind != DIAMOND and c in shared
               and home[c] == j] for j, events in enumerate(strands)]
    normal = Coefficient._normal
    units = [[ops.one if r == c else pzero for r in range(dim)] for c in range(dim)]
    size = dim**n
    total = [[zero] * size for _ in range(size)]
    chosen: dict[int, tuple] = {}  # chord -> its term in the current state

    def column(events: tuple, i: int, v: list, key: tuple, col: int,
               words: dict) -> None:
        """Walk a strand from event i with ``v`` as column ``col`` of its
        partial product; ``key`` holds the term indices chosen so far for
        the strand's shared chords.  A finished column is added into
        column ``col`` of ``words[key]``, None while it is zero."""
        while i < len(events):
            kind, val = events[i]
            i += 1
            if kind == DIAMOND:
                k = kappainv if val > 0 else kappa
            else:
                term = chosen.get(val)
                if term is None:
                    into, over = val in shared, kind == OVER
                    for t, term in enumerate(decomp[sign[val]]):
                        if over and not v[term[1]]:
                            continue  # E_ac zeroes the column
                        chosen[val] = term
                        column(events, i - 1, v, key + (t,) if into else key, col, words)
                    chosen.pop(val, None)
                    return
                aa, cc, k = term
                if kind == OVER:  # E_ac . v moves entry c to entry a
                    x = v[cc]
                    if not x:
                        return
                    v = [pzero] * dim
                    v[aa] = x
                    continue
            out = []  # k . v, over k's nonzero entries
            for pairs in k:
                s = pzero
                for j, x in pairs:
                    y = v[j]
                    if y:
                        s = add(s, mul(x, y)) if s else mul(x, y)
                out.append(s)
            if not any(out):
                return
            v = out
        cols = words.get(key)
        if cols is None:
            cols = words[key] = [None] * dim
        w = cols[col]
        if w is not None:
            v = [add(x, y) if x and y else x or y for x, y in zip(w, v)]
        cols[col] = v if any(v) else None

    def walk(j: int, words: tuple) -> None:
        """Walk strand j after the words of the strands before it, then
        the strands after it from each of its nonzero words."""
        found: dict[tuple, list] = {}
        for col, v in enumerate(units):
            column(strands[j], 0, v, (), col, found)
        for key, cols in found.items():
            if not any(cols):
                continue
            m = RingMatrix([[normal(variant, c[r]) if c and c[r] else zero
                             for c in cols] for r in range(dim)])
            if j + 1 < n:
                for c, t in zip(opened[j], key):
                    chosen[c] = decomp[sign[c]][t]
                walk(j + 1, words + (m,))
                continue
            for w in reversed(words):
                m = mat_tensor(w, m)
            for trow, mrow in zip(total, m.entries):
                for c, e in enumerate(mrow):
                    if e._payload:
                        trow[c] = trow[c] + e
        for c in opened[j]:
            chosen.pop(c, None)

    if n:
        try:
            walk(0, ())
        finally:
            del walk, column  # they refer to themselves; free them without the cyclic collector
    else:
        total[0][0] = one
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
