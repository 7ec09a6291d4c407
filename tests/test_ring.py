"""Exact coefficient arithmetic."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xctangle.errors import DomainError, ParseError, VariantMismatchError
from xctangle.ring import (
    INTEGER,
    LAURENT,
    RATIONAL,
    Coefficient,
    format_laurent,
    kernel,
    parse_laurent,
)

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=5
).map(Coefficient.laurent)


def test_basic_construction():
    assert Coefficient.integer(3) + Coefficient.integer(4) == Coefficient.integer(7)
    assert Coefficient.rational(1, 2) * Coefficient.rational(2, 3) == \
        Coefficient.rational(1, 3)
    q = Coefficient.q_power(1)
    assert q * q == Coefficient.q_power(2)
    assert (q - q).is_zero()
    assert Coefficient.one().is_one()


def test_variant_mismatch():
    with pytest.raises(VariantMismatchError):
        Coefficient.integer(1) + Coefficient.q_power(0)


def test_laurent_inverse_monomial():
    q2 = Coefficient.q_power(2, -1)
    assert (q2 * q2.inverse()).is_one()
    with pytest.raises(DomainError):
        (Coefficient.q_power(1) + Coefficient.one()).inverse()
    with pytest.raises(DomainError):
        Coefficient.q_power(2, 3).inverse()  # non-unit coefficient


def test_power():
    q = Coefficient.q_power(1)
    assert q ** 5 == Coefficient.q_power(5)
    assert q ** 0 == Coefficient.one()
    assert q ** -3 == Coefficient.q_power(-3)


def test_rational_exact():
    third = Coefficient.rational(1, 3)
    assert third.as_fraction() == Fraction(1, 3)
    assert (third + third + third).is_one()


@settings(max_examples=200, deadline=None)
@given(laurents, laurents, laurents)
def test_ring_axioms_hypothesis(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_ring_axioms_bulk():
    rng = random.Random(11)

    def rand():
        return Coefficient.laurent(
            {rng.randrange(-6, 7): rng.randrange(-9, 10)
             for _ in range(rng.randrange(4))}
        )

    for _ in range(10_000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(1000):
        c = Coefficient.laurent(
            {rng.randrange(-8, 9): rng.randrange(-99, 100)
             for _ in range(rng.randrange(5))}
        )
        assert parse_laurent(format_laurent(c.terms)) == c


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_laurent("q^")
    with pytest.raises(ParseError):
        parse_laurent("3 +")


def test_copy_and_pickle_round_trips():
    from xctangle.algebra import RingMatrix, builtin_uqsl2

    values = [Coefficient.q_power(2), Coefficient.laurent({3: -2, -1: 5}),
              Coefficient.zero(), Coefficient.integer(-7),
              Coefficient.rational(2, 3), builtin_uqsl2().R,
              RingMatrix([[Coefficient.rational(1, 2)]])]
    for v in values:
        for back in (copy.copy(v), copy.deepcopy(v),
                     pickle.loads(pickle.dumps(v))):
            assert type(back) is type(v)
            assert back == v and hash(back) == hash(v)


def test_laurent_sums_repeated_exponents():
    assert Coefficient.laurent([(1, 2), (1, 3)]) == Coefficient.q_power(1, 5)
    assert Coefficient.laurent([(1, 2), (1, -2), (0, 1)]) == Coefficient.one()
    assert Coefficient(LAURENT, iter([(-2, 1), (-2, 1)])).terms == {-2: 2}


@pytest.mark.parametrize("variant, payload", [
    (LAURENT, {1.5: 2}),
    (LAURENT, {1: 2.0}),
    (LAURENT, [(1, Fraction(1, 2))]),
    (LAURENT, {True: 1}),
    (INTEGER, 2.7),
    (INTEGER, Fraction(4, 2)),
    (INTEGER, "3"),
    (RATIONAL, 0.5),
    (RATIONAL, "1/3"),
    ("real", 1),
])
def test_constructor_refuses_inexact_payloads(variant, payload):
    with pytest.raises(DomainError):
        Coefficient(variant, payload)


def test_constructor_helpers_refuse_floats():
    for bad in (lambda: Coefficient.integer(2.0),
                lambda: Coefficient.rational(0.5),
                lambda: Coefficient.rational(1, 2.0),
                lambda: Coefficient.q_power(1.0),
                lambda: Coefficient.q_power(1, 0.5)):
        with pytest.raises(DomainError):
            bad()


payloads = st.lists(st.tuples(st.integers(-20, 20), st.integers(-5, 5)),
                    max_size=6)


@settings(max_examples=300, deadline=None)
@given(payloads, payloads)
def test_trusted_results_are_normal(p1, p2):
    a, b = Coefficient.laurent(p1), Coefficient.laurent(p2)
    for x in (a + b, a - b, -a, a * b):
        rebuilt = Coefficient.laurent(x.terms)
        assert x == rebuilt and hash(x) == hash(rebuilt)
        exps = [e for e, _ in x._payload]
        assert exps == sorted(set(exps))
        assert all(type(e) is int and type(c) is int and c
                   for e, c in x._payload)


def _laurent_reference(op, p1, p2=()):
    """Schoolbook Laurent arithmetic on exponent dicts."""
    acc: dict[int, int] = {}
    if op == "mul":
        for e1, c1 in p1:
            for e2, c2 in p2:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    else:
        sign = -1 if op == "neg" else 1
        for e, c in (*p1, *p2):
            acc[e] = acc.get(e, 0) + sign * c
    return {e: c for e, c in acc.items() if c}


def _is_normal(variant, p) -> bool:
    if variant == INTEGER:
        return type(p) is int
    if variant == RATIONAL:
        return type(p) is Fraction
    exps = [e for e, _ in p]
    return (type(p) is tuple and exps == sorted(set(exps))
            and all(type(e) is int and type(c) is int and c for e, c in p))


values = {INTEGER: st.integers(-10**20, 10**20),
          RATIONAL: st.fractions(max_denominator=10**6),
          LAURENT: payloads}
same_variant_pairs = st.sampled_from(sorted(values)).flatmap(
    lambda v: st.tuples(values[v], values[v]).map(
        lambda xy: (Coefficient(v, xy[0]), Coefficient(v, xy[1]))))


@settings(max_examples=300, deadline=None)
@given(same_variant_pairs)
def test_kernel_equals_coefficient_arithmetic(pair):
    a, b = pair
    v = a.variant
    k = kernel(v)
    x, y = a._payload, b._payload
    got = {"mul": k.mul(x, y), "add": k.add(x, y), "neg": k.neg(x)}
    assert got == {"mul": (a * b)._payload, "add": (a + b)._payload,
                   "neg": (-a)._payload}
    for op, r in got.items():
        assert _is_normal(v, r), (op, r)
        assert Coefficient._normal(v, r) == Coefficient(v, r)
        if v == LAURENT:
            assert dict(r) == _laurent_reference(op, x, y if op != "neg" else ())
    if v != LAURENT:
        assert got == {"mul": x * y, "add": x + y, "neg": -x}
    assert not k.zero and _is_normal(v, k.zero) and _is_normal(v, k.one)
    assert k.add(k.zero, x) == x and k.mul(k.one, x) == x
    assert not k.mul(k.zero, x)
    assert Coefficient.zero(v)._payload == k.zero
    assert Coefficient.one(v).is_one()
