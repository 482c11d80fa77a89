"""Field construction, arithmetic axioms on element codes, and serialization."""

import itertools
import random

import pytest

from qtransversal import (
    DimensionMismatch,
    DivisionByZero,
    ExtensionTooLarge,
    FieldSpec,
    NonPrimeCharacteristic,
    OutOfRange,
    ReducibleModulus,
    field_make,
    prime_power,
)
from qtransversal.fields import _is_irreducible

PRIME_POWERS_LE_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def reducible_products(p, degree):
    """Oracle: every monic polynomial of the given degree that factors,
    found by multiplying all pairs of lower-degree monic polynomials."""

    def monic(d):
        return [tuple(c) + (1,) for c in itertools.product(range(p), repeat=d)]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    products = set()
    for d1 in range(1, degree):
        d2 = degree - d1
        if d2 < 1:
            continue
        for a in monic(d1):
            for b in monic(d2):
                products.add(mul(a, b))
    return products


def test_prime_fields():
    assert field_make(2, 1).modulus == (0, 1)
    assert field_make(3, 1).order == 3


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    reducible = reducible_products(2, 2)
    candidates = [tuple(c) + (1,) for c in itertools.product(range(2), repeat=2)]
    irreducible = [c for c in candidates if c not in reducible]
    assert irreducible == [(1, 1, 1)]
    assert field_make(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize(
    "p,e", [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 4), (5, 2)]
)
def test_canonical_modulus_is_least_irreducible(p, e):
    reducible = reducible_products(p, e)
    chosen = field_make(p, e).modulus
    assert chosen not in reducible
    # No earlier candidate in counting order is irreducible.
    for code in range(sum(c * p**i for i, c in enumerate(chosen[:e]))):
        digits = []
        rem = code
        for _ in range(e):
            rem, d = divmod(rem, p)
            digits.append(d)
        assert tuple(digits) + (1,) in reducible


def test_field_make_is_deterministic():
    assert field_make(2, 3) is field_make(2, 3)
    assert field_make(2, 3).modulus == field_make(2, 3).modulus


def test_field_make_rejects_bad_input():
    with pytest.raises(NonPrimeCharacteristic):
        field_make(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        field_make(1, 1)
    with pytest.raises(OutOfRange):
        field_make(2, 0)
    with pytest.raises(ReducibleModulus):
        field_make(2, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(OutOfRange):
        field_make(2, 2, (1, 1))  # wrong degree


def test_gf2_and_gf3_basics():
    f2 = field_make(2, 1)
    assert f2.add_codes(1, 1) == 0  # 1 + 1 = 0 in characteristic 2
    f3 = field_make(3, 1)
    assert f3.format_code(f3.inv_code(2)) == "2"  # 2*2 = 4 = 1


def test_gf4_multiplication_against_hand_reduction():
    # x * x = x^2 = x + 1 mod x^2 + x + 1; x is code 2, x + 1 code 3.
    f4 = field_make(2, 2)
    assert f4.decode(f4.mul_codes(2, 2)) == (1, 1)
    assert f4.format_code(f4.mul_codes(2, 2)) == "11"


def test_pow_matches_repeated_multiplication():
    for q in PRIME_POWERS_LE_16:
        p, e = prime_power(q)
        f = field_make(p, e)
        for a in range(f.order):
            acc = 1
            for m in range(6):
                assert f.pow_code(a, m) == acc
                acc = f.mul_codes(acc, a)


def test_pow_edge_cases():
    f4 = field_make(2, 2)
    assert f4.pow_code(2, 3) == 1  # multiplicative group of order 3
    assert f4.pow_code(0, 0) == 1  # 0^0 = 1 by convention
    assert f4.pow_code(0, 5) == 0
    with pytest.raises(OutOfRange):
        f4.pow_code(2, -1)
    f3 = field_make(3, 1)
    assert f3.pow_code(2, 2) == 1


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, e):
    # GF(2), GF(3), GF(4), GF(5), GF(8) and GF(9), on codes: 0 and 1 are
    # the identities, and every pair and triple is checked.
    f = field_make(p, e)
    add, mul = f.add_codes, f.mul_codes
    elems = range(f.order)
    for a in elems:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, f.neg_code(a)) == 0
        if a:
            assert mul(a, f.inv_code(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_fermat_for_all_prime_powers_up_to_16():
    for q in PRIME_POWERS_LE_16:
        p, e = prime_power(q)
        f = field_make(p, e)
        for a in range(1, f.order):
            assert f.pow_code(a, q - 1) == 1


def test_division_by_zero():
    f = field_make(2, 2)
    with pytest.raises(DivisionByZero):
        f.inv_code(0)


def test_subtraction_inverts_addition():
    for q in (3, 4, 9):
        p, e = prime_power(q)
        f = field_make(p, e)
        for a, b in itertools.product(range(f.order), repeat=2):
            assert f.sub_codes(f.add_codes(a, b), b) == a


def test_digit_string_round_trip():
    f4 = field_make(2, 2)
    assert f4.format_code(f4.encode((1, 1))) == "11"
    assert f4.parse_code("11") == f4.encode((1, 1)) == 3
    f9 = field_make(3, 2)
    for c in range(9):
        assert f9.parse_code(f9.format_code(c)) == c
    with pytest.raises(OutOfRange):
        f4.parse_code("2")  # wrong length and bad digit
    with pytest.raises(OutOfRange):
        f4.parse_code("21")


def test_element_string_codec():
    f4 = field_make(2, 2)
    assert f4.format_codes((0, 1, 2, 3)) == "00100111"
    assert f4.parse_codes("00100111") == f4.parse_codes("00100111", 4) == (0, 1, 2, 3)
    # One length rule and one error: count elements of e digits each, or a
    # whole number of them when no count is given.
    for text, count in (("0010011", None), ("001001", 4), ("0010011100", 4)):
        with pytest.raises(DimensionMismatch):
            f4.parse_codes(text, count)
    with pytest.raises(OutOfRange):
        f4.parse_codes(["00", "10"], 2)  # an array is not an element string
    with pytest.raises(OutOfRange):
        f4.parse_codes("0021", 2)  # 2 is no digit of GF(2)


def test_field_constructors_refuse_coefficients_that_are_not_ints():
    # int() would read 1.0 and True as 1 and build GF(4) from them.
    with pytest.raises(OutOfRange):
        field_make(2, 2, (1.0, 1.0, 1))
    with pytest.raises(OutOfRange):
        FieldSpec(2, 2, (True, 1, 1))


def test_the_field_cap_is_read_before_any_trial_division(monkeypatch):
    # GF(2^31) and the prime field of 2^61 - 1 are refused at once: neither
    # a trial division up to sqrt(q) nor a modulus search runs first.
    from qtransversal import fields

    def trial_division(n):
        raise AssertionError(f"{n} was trial-divided")

    monkeypatch.setattr(fields, "_is_prime", trial_division)
    oversized = [
        lambda: prime_power(2**31),
        lambda: field_make(2, 31),
        lambda: field_make(2, 10**9),
        lambda: field_make(2**61 - 1, 1),
        lambda: FieldSpec(2**61 - 1, 1, (0, 1)),
        lambda: prime_power(2**61 - 1),
    ]
    for make in oversized:
        with pytest.raises(ExtensionTooLarge, match="30-bit field cap"):
            make()
    monkeypatch.undo()
    # The largest field the cap admits, a prime one.
    assert prime_power(2**31 - 1) == (2**31 - 1, 1)


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    with pytest.raises(OutOfRange):
        prime_power(6)
    with pytest.raises(OutOfRange):
        prime_power(1)


def trial_division_irreducible(poly, p):
    """Oracle: no monic polynomial of degree 1..deg/2 divides poly."""

    def divides(m, a):
        work = list(a)
        while len(work) >= len(m):
            lead = work[-1]
            shift = len(work) - len(m)
            for i, mi in enumerate(m):
                work[shift + i] = (work[shift + i] - lead * mi) % p
            work.pop()
        return not any(work)

    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if divides(lower + (1,), poly):
                return False
    return True


@pytest.mark.parametrize("p,max_degree", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_rabin_matches_trial_division(p, max_degree):
    for degree in range(1, max_degree + 1):
        for lower in itertools.product(range(p), repeat=degree):
            poly = lower + (1,)
            assert _is_irreducible(poly, p) == trial_division_irreducible(poly, p), poly


def digit_route(f, op, a, b):
    """Oracle: arithmetic on coefficient vectors, reduced by long division
    modulo f.modulus, as codes.  Works for every p and e."""
    p, e, mod = f.p, f.e, f.modulus
    da, db = f.decode(a), f.decode(b)
    if op == "add":
        return f.encode((x + y) % p for x, y in zip(da, db))
    if op == "sub":
        return f.encode((x - y) % p for x, y in zip(da, db))
    if op == "neg":
        return f.encode((-x) % p for x in da)
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for t in range(2 * e - 2, e - 1, -1):
        lead = prod[t]
        for i in range(e):
            prod[t - e + i] = (prod[t - e + i] - lead * mod[i]) % p
    return f.encode(prod[:e])


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_prime_field_arithmetic_matches_digit_route(p):
    f = field_make(p, 1)
    for a, b in itertools.product(range(p), repeat=2):
        assert f.add_codes(a, b) == digit_route(f, "add", a, b)
        assert f.sub_codes(a, b) == digit_route(f, "sub", a, b)
        assert f.mul_codes(a, b) == digit_route(f, "mul", a, b)
        assert f.neg_code(a) == digit_route(f, "neg", a, b)
        assert f.format_code(a) == "0123456789abc"[a]


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3)])
def test_odd_extension_arithmetic_matches_digit_route(p, e):
    # GF(9), GF(25) and GF(27): every pair, every operation on codes.
    f = field_make(p, e)
    for a, b in itertools.product(range(f.order), repeat=2):
        for op, got in (
            ("add", f.add_codes(a, b)),
            ("sub", f.sub_codes(a, b)),
            ("neg", f.neg_code(a)),
            ("mul", f.mul_codes(a, b)),
        ):
            assert got == digit_route(f, op, a, b), (op, a, b)


SCHOOLBOOK_FIELDS = (
    [(2, e) for e in range(1, 9)] + [(3, e) for e in range(1, 6)] + [(5, e) for e in range(1, 4)]
)


@pytest.mark.parametrize("p,e", SCHOOLBOOK_FIELDS)
def test_extension_multiplication_matches_digit_route(p, e):
    # GF(2^<=8), GF(3^<=5) and GF(5^<=3): mul_codes on every pair, and
    # inv_code on every nonzero element, against the schoolbook product
    # reduced modulo the modulus.
    f = field_make(p, e)
    for a, b in itertools.product(range(f.order), repeat=2):
        assert f.mul_codes(a, b) == digit_route(f, "mul", a, b)
    for a in range(1, f.order):
        assert digit_route(f, "mul", a, f.inv_code(a)) == 1


INVERSE_FIELDS = SCHOOLBOOK_FIELDS + [(7, 1), (11, 1), (13, 1)]


@pytest.mark.parametrize("p,e", INVERSE_FIELDS)
def test_inverse_matches_fermat_on_every_element(p, e):
    f = field_make(p, e)
    for a in range(1, f.order):
        inv = f.inv_code(a)
        assert inv == f.pow_code(a, f.order - 2)
        assert f.mul_codes(a, inv) == 1


@pytest.mark.parametrize("p,e", [(2, 16), (2, 30), (3, 16)])
def test_inverse_on_random_elements_of_large_fields(p, e):
    # a * inv(a) = 1 pins the inverse down on all 2,000 samples; the
    # Fermat power, slow in GF(3^16), is compared on the first 200.
    f = field_make(p, e)
    rng = random.Random(8)
    for k in range(2000):
        a = rng.randrange(1, f.order)
        inv = f.inv_code(a)
        assert 0 < inv < f.order
        assert f.mul_codes(a, inv) == 1
        if k < 200:
            assert inv == f.pow_code(a, f.order - 2)


@pytest.mark.parametrize(
    "p,e,modulus",
    [
        (2, 9, "1100000001"),
        (2, 16, "11010100000000001"),
        (2, 24, "1101100000000000000000001"),
        (3, 9, "1012000001"),
        (3, 16, "10110000000000001"),
    ],
)
def test_canonical_modulus_is_pinned(p, e, modulus):
    assert field_make(p, e).to_jsonable()["modulus"] == modulus
