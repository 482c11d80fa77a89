"""Exact arithmetic in GF(p^e) with an explicit irreducible modulus.

Field elements are coefficient vectors over GF(p), lowest degree first,
reduced modulo a monic irreducible polynomial of degree e.  A vector
(c0, c1, ..., c_{e-1}) also travels in packed form as the integer code
c0 + c1*p + ... + c_{e-1}*p^(e-1); codes are what the linear-algebra
layers store and what FieldSpec's *_codes methods operate on.

Serialization is the little-endian digit string of the coefficient
vector, so alpha + 1 in GF(4) reads "11" and zero in GF(8) reads "000".
A vector travels as its elements' strings run together (format_codes,
parse_codes); json_int and json_array read the other outside values.

When no modulus is given, construction picks the least irreducible
monic polynomial of degree e in counting order of the coefficient
vector (constant term varies fastest), which is also the
lexicographically least polynomial written in descending-degree form.
This yields x^2+x+1 for GF(4), x^3+x+1 for GF(8), x^4+x+1 for GF(16).
Irreducibility is Rabin's test (x^(p^e) = x mod f, and
gcd(x^(p^(e/r)) - x, f) = 1 for every prime r dividing e), a few dozen
polynomial operations per candidate, so construction does not grow with
p^(e/2) as trial division did.

Arithmetic takes one route per kind of field.  Prime fields GF(p) work
on the code itself: +, -, * modulo p, and the inverse a^(p-2) mod p by
the built-in pow.  For p = 2 a code is the polynomial's bit pattern:
addition is XOR, multiplication shift-and-add, and the inverse runs the
binary extended Euclidean algorithm against the modulus bits.  Odd-p
extensions work on digit vectors: they multiply with _poly_mulmod, the
product reduced by long division that Rabin's test also uses, and
invert by extended Euclid.  No route keeps a table that grows with the
field order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    ExtensionTooLarge,
    NonPrimeCharacteristic,
    OutOfRange,
    ReducibleModulus,
)

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

#: Largest field allowed at all, as a bit size of its order: GF(p^e) needs
#: p^e < 2^(FIELD_BITS_CAP + 1).  Read before any trial division or
#: modulus search, so a huge order is refused at once.
FIELD_BITS_CAP = 30


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _trim(poly: tuple[int, ...]) -> tuple[int, ...]:
    i = len(poly)
    while i > 0 and poly[i - 1] == 0:
        i -= 1
    return poly[:i]


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo a monic polynomial m, coefficients mod p."""
    work = list(a)
    dm = len(m) - 1
    low = m[:dm]
    while len(work) > dm:
        lead = work.pop() % p
        if lead:
            shift = len(work) - dm
            for i, mi in enumerate(low):
                if mi:
                    work[shift + i] -= lead * mi
    return _trim(tuple(c % p for c in work))


def _poly_sub(a, b, p: int) -> tuple[int, ...]:
    return _trim(tuple((x - y) % p for x, y in zip_longest(a, b, fillvalue=0)))


def _poly_mulmod(a, b, m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a*b modulo a monic polynomial m, coefficients mod p."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _poly_mod(prod, m, p)


def _poly_powmod(a, n: int, m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a**n modulo a monic polynomial m of degree >= 1."""
    result = (1,)
    while n:
        if n & 1:
            result = _poly_mulmod(result, a, m, p)
        n >>= 1
        if n:
            a = _poly_mulmod(a, a, m, p)
    return result


def _poly_gcd(a, b, p: int) -> tuple[int, ...]:
    """gcd of trimmed a and b over GF(p), monic once a division step has run."""
    while b:
        inv = pow(b[-1], p - 2, p)
        b = tuple(c * inv % p for c in b)
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial f of degree e over GF(p).

    f is irreducible iff x^(p^e) = x mod f and gcd(x^(p^(e/r)) - x, f) = 1
    for every prime r dividing e (M. O. Rabin, "Probabilistic algorithms
    in finite fields", SIAM J. Comput. 1980).  The Frobenius chain
    x, x^p, x^(p^2), ... costs e modular p-th powers; each gcd runs as
    soon as the chain reaches its power, so a factor of degree dividing
    e/r ends the walk early.
    """
    deg = len(poly) - 1
    if deg < 1:
        return False
    gcd_steps = {deg // r for r in range(2, deg + 1) if deg % r == 0 and _is_prime(r)}
    x = _poly_mod((0, 1), poly, p)
    h = x
    for k in range(1, deg + 1):
        h = _poly_powmod(h, p, poly, p)
        if k in gcd_steps and _poly_gcd(poly, _poly_sub(h, x, p), p) != (1,):
            return False
    return h == x


def _poly_inverse(a, m: tuple[int, ...], p: int) -> list[int]:
    """Inverse of a nonzero a modulo an irreducible monic m over GF(p).

    Extended Euclid one leading term at a time, keeping g1*a = u and
    g2*a = v modulo m; it stops when u is a nonzero constant.
    """
    u, v = list(_trim(a)), list(m)
    g1, g2 = [1], []
    while len(u) > 1:
        j = len(u) - len(v)
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        c = u[-1] * pow(v[-1], p - 2, p) % p
        for i, vi in enumerate(v):
            u[i + j] = (u[i + j] - c * vi) % p
        if len(g1) < len(g2) + j:
            g1.extend([0] * (len(g2) + j - len(g1)))
        for i, gi in enumerate(g2):
            g1[i + j] = (g1[i + j] - c * gi) % p
        while u[-1] == 0:
            u.pop()
    c = pow(u[0], p - 2, p)
    return [g * c % p for g in g1]


def _codes_to_digits(code: int, p: int, width: int) -> tuple[int, ...]:
    digits = []
    for _ in range(width):
        code, d = divmod(code, p)
        digits.append(d)
    return tuple(digits)


@dataclass(frozen=True)
class FieldSpec:
    """Arithmetic context for GF(p^e).

    modulus is the monic reduction polynomial, lowest degree first,
    length e+1.  For e = 1 it is fixed to x, i.e. (0, 1).
    """

    p: int
    e: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        _check_field(self.p, self.e)
        mod = tuple(json_int(c, "modulus coefficient") for c in self.modulus)
        object.__setattr__(self, "modulus", mod)
        if len(mod) != self.e + 1 or mod[-1] != 1:
            raise OutOfRange(f"modulus must be monic of degree {self.e}")
        if any(not 0 <= c < self.p for c in mod):
            raise OutOfRange("modulus coefficients must lie in [0, p)")
        if self.e == 1:
            if mod != (0, 1):
                raise OutOfRange("prime fields use the fixed modulus x")
        elif not _is_irreducible(mod, self.p):
            raise ReducibleModulus(
                f"modulus {mod} is reducible over GF({self.p})"
            )

    @cached_property
    def order(self) -> int:
        return self.p**self.e

    @cached_property
    def _mod_mask(self) -> int:
        # p == 2 only: modulus bits packed as an int, bit e set.
        return sum(c << i for i, c in enumerate(self.modulus))

    # -- code-level arithmetic -------------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        """Coefficient vector (length e) of an element code."""
        return _codes_to_digits(code, self.p, self.e)

    def encode(self, digits) -> int:
        code = 0
        for d in reversed(tuple(digits)):
            code = code * self.p + d
        return code

    def add_codes(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode((x + y) % self.p for x, y in zip(da, db))

    def sub_codes(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a - b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode((x - y) % self.p for x, y in zip(da, db))

    def neg_code(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return -a % self.p
        return self.encode((-x) % self.p for x in self.decode(a))

    def mul_codes(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if p == 2:
            mask = self._mod_mask
            top = 1 << e
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mask
            return r
        if e == 1:
            return a * b % p
        return self.encode(_poly_mulmod(self.decode(a), self.decode(b), self.modulus, p))

    def pow_code(self, a: int, m: int) -> int:
        """a**m by square and multiply; 0**0 is defined as 1."""
        if m < 0:
            raise OutOfRange("exponent must be non-negative")
        result = 1
        base = a
        while m:
            if m & 1:
                result = self.mul_codes(result, base)
            base = self.mul_codes(base, base)
            m >>= 1
        return result

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"division by zero in GF({self.order})")
        p = self.p
        if self.e == 1:
            return pow(a, p - 2, p)
        if p == 2:
            # Binary extended Euclid on bit-packed polynomials:
            # g1*a = u and g2*a = v modulo the modulus throughout.
            u, v, g1, g2 = a, self._mod_mask, 1, 0
            while u != 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, g1, g2, j = v, u, g2, g1, -j
                u ^= v << j
                g1 ^= g2 << j
            return g1
        return self.encode(_poly_inverse(self.decode(a), self.modulus, p))

    # -- serialization ---------------------------------------------------

    def format_codes(self, codes) -> str:
        """The element string of a sequence of codes, e digits each."""
        return "".join(map(self.format_code, codes))

    def format_code(self, code: int) -> str:
        if self.p > len(_DIGIT_CHARS):
            raise OutOfRange(f"digit serialization supports p <= {len(_DIGIT_CHARS)}")
        if self.e == 1:
            return _DIGIT_CHARS[code]
        return "".join(_DIGIT_CHARS[d] for d in self.decode(code))

    def parse_codes(self, text, count: int | None = None) -> tuple[int, ...]:
        """The codes of an element string of count elements, e digits each,
        or of any whole number of them when count is None; another length
        raises DimensionMismatch, a non-string or a bad digit OutOfRange."""
        if not isinstance(text, str):
            raise OutOfRange(f"an element string must be a string, got {text!r}")
        digits = modulus_from_string(text)
        if any(d >= self.p for d in digits):
            raise OutOfRange(f"element string {text!r} has a digit outside GF({self.p})")
        e = self.e
        if len(text) % e if count is None else len(text) != count * e:
            want = f"a multiple of {e}" if count is None else count * e
            raise DimensionMismatch(f"element string {text!r} has {len(text)} digits, not {want}")
        return tuple(self.encode(digits[i : i + e]) for i in range(0, len(text), e))

    def parse_code(self, text: str) -> int:
        return self.parse_codes(text, 1)[0]

    def to_jsonable(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": "".join(_DIGIT_CHARS[c] for c in self.modulus)}

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.e}))" if self.e > 1 else f"FieldSpec(GF({self.p}))"


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    if e == 1:
        return (0, 1)
    for code in range(p**e):
        cand = _codes_to_digits(code, p, e) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible monic polynomial of degree {e} over GF({p})")


def _check_field(p, e) -> None:
    """p must be a prime and e a positive integer, with p^e below
    2^(FIELD_BITS_CAP + 1); the size is read before p is trial-divided,
    and p^e is not computed for a huge e."""
    if not isinstance(p, int):
        raise NonPrimeCharacteristic(f"characteristic {p!r} is not prime")
    if not isinstance(e, int) or e < 1:
        raise OutOfRange(f"extension degree must be a positive integer, got {e!r}")
    limit = 1 << FIELD_BITS_CAP + 1
    if p >= limit or p ** min(e, FIELD_BITS_CAP + 1) >= limit:
        raise ExtensionTooLarge(f"GF({p}^{e}) exceeds the {FIELD_BITS_CAP}-bit field cap")
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p!r} is not prime")


@lru_cache(maxsize=None)
def _field_make_cached(p: int, e: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    if modulus is None:
        _check_field(p, e)
        modulus = _canonical_modulus(p, e)
    return FieldSpec(p, e, modulus)


def field_make(p: int, e: int, modulus=None) -> FieldSpec:
    """Build a validated GF(p^e).

    If modulus is omitted the canonical (least, see module docstring)
    irreducible monic polynomial is selected, so the construction is
    deterministic given (p, e).
    """
    if modulus is not None:
        modulus = tuple(json_int(c, "modulus coefficient") for c in modulus)
    return _field_make_cached(p, e, modulus)


def modulus_from_string(text: str) -> tuple[int, ...]:
    """The digits of a little-endian digit string: a modulus's
    coefficients, or the digits of an element string."""
    out = []
    for ch in text:
        d = _DIGIT_CHARS.find(ch.lower())
        if d < 0:
            raise OutOfRange(f"bad digit {ch!r} in {text!r}")
        out.append(d)
    return tuple(out)


def prime_power(q: int) -> tuple[int, int]:
    """Split a prime power q into (p, e); rejects everything else."""
    if not isinstance(q, int) or q < 2:
        raise OutOfRange(f"field order must be an integer >= 2, got {q!r}")
    if q >= 1 << FIELD_BITS_CAP + 1:
        raise ExtensionTooLarge(f"GF({q}) exceeds the {FIELD_BITS_CAP}-bit field cap")
    p = q
    for f in range(2, q + 1):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    e = 0
    rem = q
    while rem % p == 0:
        rem //= p
        e += 1
    if rem != 1 or not _is_prime(p):
        raise OutOfRange(f"{q} is not a prime power")
    return p, e


def json_int(value, name: str) -> int:
    """value, if it is a JSON integer; a bool, float, string or any other
    value raises OutOfRange naming the field, rather than being truncated
    or read digit by digit."""
    if type(value) is not int:
        raise OutOfRange(f"{name} must be an integer, got {value!r}")
    return value


def json_array(value, name: str) -> list:
    """value, if it is a JSON array (list or tuple); a string or any other
    value raises OutOfRange naming the field, not read as its characters."""
    if not isinstance(value, (list, tuple)):
        raise OutOfRange(f"{name} must be an array, got {value!r}")
    return value
