"""Universal evaluation: functoriality, monoidality, permutation
realization, scalar extraction, the size guardrail, and agreement of the
depth-first walk with a plain loop over all assignments.  Composition and
realization are also checked against the dense permutation-matrix
formulas."""

import gc
import random
from itertools import product

import pytest

from xctangle.acceptance import golden_codes
from xctangle.algebra import (
    MatrixXCAlgebra,
    RingMatrix,
    builtin_uqsl2,
    mat_mul,
    mat_tensor,
)
from xctangle import invariant
from xctangle.errors import GuardrailError, NonScalarError, ValidationError
from xctangle.gauss import (
    DIAMOND,
    OVER,
    UNDER,
    XCGaussDiagram,
    braiding,
    compose,
    identity,
    parse_diagram,
    tensor,
)
from xctangle.invariant import (
    STATE_MAX,
    InvariantValue,
    iota_realize,
    long_knot_scalar,
    perm_compose,
    perm_inverse,
    ve_compose,
    ve_tensor,
    zeval,
)
from xctangle.randomgen import random_diagram, random_permutation
from xctangle.ring import LAURENT, Coefficient, Kernel, kernel
from xctangle.virtualt import lift

ALG = builtin_uqsl2()


def test_identity_evaluates_to_identity():
    v = zeval(identity(2), ALG)
    assert v == InvariantValue(2, RingMatrix.identity(ALG.d**2, ALG.variant),
                               (1, 2), ALG.d, ALG.variant)
    assert long_knot_scalar(zeval(identity(1), ALG)).is_one()


def test_kink_scalar_is_monomial():
    # over-then-under kink with the compensating rotation marker
    kink = XCGaussDiagram(1, (1,), [(1, 1)],
                          [(("O", 1), ("D", -1), ("U", 1))])
    lam = long_knot_scalar(zeval(kink, ALG))
    assert len(lam.terms) == 1  # a pure power of q: the framing factor


def test_braiding_value_is_permutation():
    v = zeval(braiding(1, 1), ALG)
    assert v.sigma == (2, 1)
    # realized matrix is the flip
    m = iota_realize(v)
    got = [[not m[(i, j)].is_zero() for j in range(4)] for i in range(4)]
    assert got == [
        [True, False, False, False],
        [False, False, True, False],
        [False, True, False, False],
        [False, False, False, True],
    ]


def test_functoriality_randomized():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randrange(1, 3)
        d1 = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        d2 = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        assert zeval(compose(d2, d1), ALG) == \
            ve_compose(zeval(d2, ALG), zeval(d1, ALG))


def _cycle_lengths(sigma):
    seen, lengths = set(), []
    for start in sigma:
        k = 0
        while start not in seen:
            seen.add(start)
            start, k = sigma[start - 1], k + 1
        if k:
            lengths.append(k)
    return sorted(lengths)


def test_functoriality_on_three_and_four_strands():
    # With one or two strands every permutation is its own inverse, so only
    # here would composition with sigma and sigma^-1 swapped be caught.
    rng = random.Random(47)
    cycles = set()
    for k in range(120):
        n = 3 + k % 2
        d1 = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        d2 = random_diagram(rng, n=n, max_chords=2, max_diamonds=2)
        cycles.add(tuple(_cycle_lengths(d1.top)))
        assert zeval(compose(d2, d1), ALG) == \
            ve_compose(zeval(d2, ALG), zeval(d1, ALG))
    assert {(3,), (1, 3), (4,)} <= cycles


def _dense_mul(a, b):
    """The plain triple-loop product."""
    return RingMatrix([[sum((x * y for x, y in zip(row, col)),
                            Coefficient.zero(row[0].variant))
                        for col in zip(*b.entries)] for row in a.entries])


def _perm_matrix(sigma, d, variant):
    """The dense operator on V^{(x)n} moving tensor factor i to position
    sigma(i)."""
    n, inv = len(sigma), perm_inverse(sigma)
    one, zero = Coefficient.one(variant), Coefficient.zero(variant)
    out = [[zero] * d**n for _ in range(d**n)]
    for col in product(range(d), repeat=n):
        row = [col[inv[i] - 1] for i in range(n)]
        r = c = 0
        for i in range(n):
            r, c = r * d + row[i], c * d + col[i]
        out[r][c] = one
    return RingMatrix(out)


def _random_value(rng, n, d):
    entries = [[Coefficient.rational(rng.choice((0, 0, 1, -1, 2)), rng.randint(1, 3))
                for _ in range(d**n)] for _ in range(d**n)]
    return InvariantValue(n, RingMatrix(entries), random_permutation(rng, n), d,
                          "rational")


def test_compose_and_realize_match_dense_permutation_matrices():
    rng = random.Random(53)
    pairs = []
    for n in (1, 2, 3, 4):
        for _ in range(4):
            d1 = random_diagram(rng, n=n, max_chords=3, max_diamonds=2)
            d2 = random_diagram(rng, n=n, max_chords=3, max_diamonds=2)
            pairs.append((zeval(d2, ALG), zeval(d1, ALG)))
    for n, d, count in ((1, 2, 3), (2, 2, 3), (3, 2, 3), (4, 2, 3), (1, 3, 3),
                        (2, 3, 3), (3, 3, 1)):
        for _ in range(count):
            pairs.append((_random_value(rng, n, d), _random_value(rng, n, d)))
    for u, v in pairs:
        p_tau = _perm_matrix(v.sigma, v.d, v.variant)
        p_tau_inv = _perm_matrix(perm_inverse(v.sigma), v.d, v.variant)
        want = _dense_mul(_dense_mul(_dense_mul(p_tau_inv, u.value), p_tau), v.value)
        assert ve_compose(u, v) == InvariantValue(
            u.n, want, perm_compose(u.sigma, v.sigma), u.d, u.variant)
        for w in (u, v):
            assert iota_realize(w) == \
                _dense_mul(_perm_matrix(w.sigma, w.d, w.variant), w.value)


def _one_strand_chords(rng, k):
    """A one-strand diagram with exactly k chords, both ends of each on
    the strand, and up to two diamonds."""
    events = [(kind, c) for c in range(1, k + 1) for kind in (OVER, UNDER)]
    rng.shuffle(events)
    for _ in range(rng.randrange(3)):
        events.insert(rng.randrange(len(events) + 1), (DIAMOND, rng.choice((1, -1))))
    return XCGaussDiagram(1, (1,), [(c, rng.choice((1, -1))) for c in range(1, k + 1)],
                          [tuple(events)])


def _own_and_shared(rng, own):
    """Strand i carries ``own[i]`` chords of its own, and one more chord
    joins two of the strands: the tensor of one-strand diagrams, composed
    above or below a diagram whose one chord runs between two strands."""
    n = len(own)
    parts = _one_strand_chords(rng, own[0])
    for k in own[1:]:
        parts = tensor(parts, _one_strand_chords(rng, k))
    over, under = rng.sample(range(n), 2)
    events = [[] for _ in range(n)]
    events[over].append((OVER, 1))
    events[under].append((UNDER, 1))
    events[rng.randrange(n)].append((DIAMOND, rng.choice((1, -1))))
    join = XCGaussDiagram(n, random_permutation(rng, n), [(1, rng.choice((1, -1)))],
                          [tuple(e) for e in events])
    return compose(join, parts) if rng.random() < 0.5 else compose(parts, join)


def test_monoidality_randomized():
    rng = random.Random(43)
    cases = []
    for _ in range(300):
        d1 = random_diagram(rng, n=1, max_chords=2, max_diamonds=2)
        d2 = random_diagram(rng, n=rng.randrange(1, 3),
                            max_chords=1, max_diamonds=2)
        cases.append((d1, d2, ALG))
    # own chords beside shared ones, over algebras whose beads are not
    # monomial too
    for _ in range(8):
        own = rng.choice(([2, 2], [2, 3], [2, 1, 2]))
        cases.append((_own_and_shared(rng, own),
                      _one_strand_chords(rng, rng.randint(2, 3)), ALG))
    for _ in range(8):
        own = rng.choice(([2, 1], [1, 2], [1, 1, 1]))
        cases.append((_own_and_shared(rng, own), _one_strand_chords(rng, 1),
                      _random_rational_algebra(rng, 2)))
    for d1, d2, a in cases:
        assert zeval(tensor(d1, d2), a) == \
            ve_tensor(zeval(d1, a), zeval(d2, a))


def test_guardrail():
    with pytest.raises(GuardrailError):
        zeval(identity(3), ALG, guardrail=7)
    assert zeval(identity(3), ALG, guardrail=8).n == 3
    # the guardrail must be a positive int: a bool, a float or a string is
    # refused before the diagram is read, and so is 0 or less
    for bad in (True, False, 4096.5, "4096", None):
        with pytest.raises(ValidationError) as exc:
            zeval(identity(1), ALG, guardrail=bad)
        assert str(exc.value) == f"guardrail {bad!r} is not an int"
    for bad in (0, -1):
        with pytest.raises(ValidationError) as exc:
            zeval(identity(0), ALG, guardrail=bad)
        assert str(exc.value) == f"guardrail must be positive, got {bad}"


def test_state_guardrail():
    # 21 kinks of either sign: 3^21 states of the builtin algebra, refused
    # before the walk
    kinks = XCGaussDiagram(
        1, (1,), [(c, 1 if c % 2 else -1) for c in range(1, 22)],
        [tuple(e for c in range(1, 22) for e in (("O", c), ("U", c)))])
    with pytest.raises(GuardrailError) as exc:
        zeval(kinks, ALG)
    assert str(exc.value) == ("state sum over 21 chords has 10460353203 "
                              "states, more than 4294967296")
    # the lifts of T(2,k) have k chords: T(2,17) is admitted, T(2,25) not
    assert 3**17 < 3**20 <= STATE_MAX < 3**21 < 3**25


def test_long_knot_scalar_rejects_non_scalar():
    with pytest.raises(NonScalarError) as exc:
        long_knot_scalar(zeval(XCGaussDiagram(1, (1,), [],
                                              [(("D", 1),)]), ALG))
    assert exc.value.entry is not None


def test_trefoil_scalar_golden():
    tre = XCGaussDiagram(
        1, (1,), [(1, 1), (2, 1), (3, 1)],
        [(("O", 1), ("U", 2), ("O", 3), ("U", 1), ("O", 2), ("U", 3))])
    from xctangle.virtualt import lift
    lam = long_knot_scalar(zeval(lift(tre), ALG))
    assert lam == Coefficient.laurent({4: 1, 0: 1, -2: -1})


def test_decomposition_cache_follows_matrix_content():
    # Each algebra is freed once evaluated, so a later one may reuse the
    # memory of its R; the value must still come from the new entries.
    crossing = parse_diagram("strands: 2\nchords: 1:+\nstrand 1: O1\nstrand 2: U1\n")

    def evaluate(k):
        alg = MatrixXCAlgebra(ALG.d, ALG.R.scale(Coefficient.q_power(k)),
                              ALG.Rinv.scale(Coefficient.q_power(-k)),
                              ALG.kappa, ALG.kappainv, ALG.variant)
        return zeval(crossing, alg).value

    for k in range(1, 300):
        assert evaluate(k) == ALG.R.scale(Coefficient.q_power(k)), k


def test_zeval_hashes_no_matrix(monkeypatch):
    # the beads come split from the algebra, not from a cache looked up
    # by the content of R
    curl = parse_diagram("strands: 2\nchords: 1:+ 2:-\n"
                         "strand 1: O1 D+ U2\nstrand 2: U1 O2 D-\n")
    want = zeval(curl, ALG)

    def refuse(self):
        raise AssertionError("a RingMatrix was hashed")

    monkeypatch.setattr(RingMatrix, "__hash__", refuse)
    fresh = MatrixXCAlgebra(ALG.d, ALG.R, ALG.Rinv, ALG.kappa, ALG.kappainv,
                            ALG.variant)
    got = zeval(curl, fresh)
    assert (got.value.entries, got.sigma) == (want.value.entries, want.sigma)


def _two_leg_terms(m, d):
    """The (a, c, Q_ac) of m = sum E_ac (x) Q_ac with Q_ac nonzero: Q_ac
    is the d x d block of m at block row a and block column c."""
    blocks = [(a, c, RingMatrix([[m[(a * d + b, c * d + e)] for e in range(d)]
                                 for b in range(d)]))
              for a in range(d) for c in range(d)]
    return [t for t in blocks if not t[2].is_zero()]


def _assignment_reference(d_, a):
    """The state sum as a plain loop over all assignments of R-terms to
    chords: each strand multiplies its beads on the left, and the strands'
    words are tensored and summed."""
    assert len(d_.chords) <= 6, "reference is exponential in chords"
    zero, one = Coefficient.zero(a.variant), Coefficient.one(a.variant)
    chords = sorted(d_.chord_sign)
    terms = [_two_leg_terms(a.R if d_.chord_sign[c] > 0 else a.Rinv, a.d)
             for c in chords]
    size = a.d ** d_.n
    total = RingMatrix([[zero] * size for _ in range(size)])
    for assignment in product(*(range(len(t)) for t in terms)):
        term = {c: terms[k][i] for k, (c, i) in enumerate(zip(chords, assignment))}
        value = RingMatrix([[one]])
        for events in d_.events:
            word = RingMatrix.identity(a.d, a.variant)
            for kind, val in events:
                if kind == DIAMOND:
                    bead = a.kappainv if val > 0 else a.kappa
                elif kind == OVER:
                    aa, cc, _ = term[val]
                    bead = RingMatrix([[one if (r, c) == (aa, cc) else zero
                                        for c in range(a.d)] for r in range(a.d)])
                else:
                    bead = term[val][2]
                word = mat_mul(bead, word)
            value = mat_tensor(value, word)
        total = total + value
    return InvariantValue(d_.n, total, d_.top, a.d, a.variant)


def _random_rational_algebra(rng, d):
    """An algebra with seeded rational entries, many of them zero, so that
    decompositions drop terms and bead products vanish.  It need not
    satisfy the axioms: the state sum is defined for any matrices."""
    def matrix(k):
        return RingMatrix([[Coefficient.rational(rng.choice((0, 0, 0, 1, -1, 2)),
                                                 rng.randint(1, 3))
                            for _ in range(k)] for _ in range(k)])
    return MatrixXCAlgebra(d, matrix(d * d), matrix(d * d), matrix(d), matrix(d),
                           "rational")


def test_zeval_equals_assignment_reference():
    rng = random.Random(71)
    # (algebra, most chords): a random d = 3 R has up to 9 terms
    algebras = [(ALG, 5)] + [(_random_rational_algebra(rng, d), chords)
                             for d, chords in ((2, 4), (2, 4), (3, 2), (3, 2))]
    cases = [(identity(0), a) for a, _ in algebras]
    for k in range(100):
        a, chords = algebras[k % len(algebras)]
        n = rng.randrange(1, 3 if a.d == 3 else 4)
        cases.append((random_diagram(rng, n=n, max_chords=chords, max_diamonds=3), a))
    # own chords summed inside a word beside a chord joining two strands
    for own in ([2, 2], [2, 3], [3, 2], [2, 2, 1], [1, 2, 2]):
        cases.append((_own_and_shared(rng, own), ALG))
    for own, (a, _) in (([2, 1], algebras[1]), ([1, 2], algebras[2]),
                        ([1, 1, 1], algebras[1]), ([1, 1], algebras[3])):
        cases.append((_own_and_shared(rng, own), a))
    for d_, a in cases:
        got, want = zeval(d_, a), _assignment_reference(d_, a)
        assert (got.value, got.sigma) == (want.value, want.sigma), d_


def test_zeval_leaves_no_reference_cycles():
    diagrams = [lift(g) for _, g in golden_codes()]
    diagrams.append(parse_diagram(
        "strands: 2\ntop: 2 1\nchords: 1:+ 2:-\n"
        "strand 1: O1 D+ U2\nstrand 2: U1 O2 D-\n"))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for d in diagrams:
            zeval(d, ALG)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_tensor_of_knots_multiplies_additively(monkeypatch):
    # Each strand's own chords are summed inside its word, so the strands
    # of a tensor product are walked once each, not once per state of the
    # strands before them.
    calls = [0]
    ops = kernel(LAURENT)

    def mul(x, y):
        calls[0] += 1
        return ops.mul(x, y)

    counting = Kernel(mul, ops.add, ops.neg, ops.zero, ops.one)
    monkeypatch.setattr(invariant, "kernel", lambda variant: counting)

    def torus_lift(k):  # the lift of T(2,k): chords 1..k, twice, alternating
        ends = [(OVER if i % 2 == 0 else UNDER, i % k + 1) for i in range(2 * k)]
        return lift(XCGaussDiagram(1, (1,), [(c, 1) for c in range(1, k + 1)],
                                   [tuple(ends)]))

    def multiplications(d):
        calls[0] = 0
        zeval(d, ALG)
        return calls[0]

    k5, k7 = torus_lift(5), torus_lift(7)
    alone = multiplications(k5) + multiplications(k7)
    assert 0 < multiplications(tensor(k5, k7)) <= alone
