"""Arithmetic contexts for code symbols.

Two kinds of context are supported:

* ``Field``: the binary extension field GF(2^w), 2 <= w <= 16, defined by
  an irreducible polynomial of degree w.
* ``Ring``: binary polynomials modulo M_p(x) = 1 + x + ... + x^(p-1) for an
  odd prime p.  M_p(x) need not be irreducible, so the ring may contain
  zero divisors; unit testing goes through gcd with M_p(x) and bulk linear
  algebra goes through the factorization of M_p(x) into irreducibles.

Both kinds hand linear algebra the same two hooks, so no caller needs to
know which kind it holds: ``factor_views(rows)`` reduces a matrix into
each factor field (one view for a field, one per irreducible factor of
M_p(x) for the ring), and ``crt_bits(residues)`` glues one residue per
factor back into an element.  The ring does both a byte at a time
through split tables (Plank, Greenan & Miller, FAST 2013), built once by
``byte_tables``, the one builder of such tables here and in ``linalg``;
``factor_views`` maps each distinct entry to its residues modulo every
factor at once, packed in lanes of ``lane_width`` bits.

Elements are bit vectors packed into ints (bit k = coefficient of x^k),
wrapped in :class:`Element` so that mixing contexts is detected.
``Field.element`` hands out one interned Element per bits value, at most
2^w of them; a ring, with up to 2^(p-1) residues, builds a new one each
call.  ``elements(bits)`` turns a solve's output into Elements in one
batch: a field's interned ones, or a ring's new ones built by a trusted
constructor that skips the checks its in-range ints do not need.  In
both contexts ``alpha`` is the residue of x; in a field its
multiplicative order divides 2^w - 1, in the ring it is exactly p, with
the defining identity alpha^(p-1) = 1 + alpha + ... + alpha^(p-2).

Field multiplication uses log/antilog tables built on a primitive element
(found by search, since the residue of x need not generate the whole
multiplicative group).  Ring factor fields of degree above 16 have none: a
product there is a 4-bit-window carry-less multiply reduced one byte at a
time through fold tables built with the field.  Their ``_Gf2mOps.ratios``
sweep takes no inverse: it keys each column by y times the other nonzero
xs, from prefix and suffix products of spread residues (one bit per byte,
two bytes past degree 255), each one int multiply reduced by a fold at
x^p when the factor is M_p(x) itself and by Barrett reduction otherwise.
"""

from __future__ import annotations

import random
import struct
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from math import gcd as int_gcd
from operator import getitem, index, itemgetter, xor
from typing import Sequence

from . import _gf2poly as poly
from .errors import (
    AlgebraMismatchError,
    BadWidthError,
    ItemError,
    NotAUnitError,
    NotPrimeError,
    ReducibleModulusError,
)

# Published irreducible (and primitive) polynomials, one per width.
# Callers may override; these defaults keep O(alpha) = 2^w - 1.
DEFAULT_FIELD_POLY: dict[int, int] = {
    2: 0x7,        # x^2+x+1
    3: 0xB,        # x^3+x+1
    4: 0x13,       # x^4+x+1
    5: 0x25,       # x^5+x^2+1
    6: 0x43,       # x^6+x+1
    7: 0x89,       # x^7+x^3+1
    8: 0x11D,      # x^8+x^4+x^3+x^2+1
    9: 0x211,      # x^9+x^4+1
    10: 0x409,     # x^10+x^3+1
    11: 0x805,     # x^11+x^2+1
    12: 0x1053,    # x^12+x^6+x^4+x+1
    13: 0x201B,    # x^13+x^4+x^3+x+1
    14: 0x4443,    # x^14+x^10+x^6+x+1
    15: 0x8003,    # x^15+x+1
    16: 0x1100B,   # x^16+x^12+x^3+x+1
}

_TABLE_DEGREE_MAX = 16


# Lane widths memoryview.cast splits natively (8 goes through bytes).
_CASTS = {8 * struct.calcsize(c): c for c in "HIQ"} if sys.byteorder == "little" else {}


def lane_width(width: int) -> int:
    """The lane that holds a width-bit value: 8, 16, 32 or 64 bits, or
    whole bytes above 64, so that unpack splits it without shifts."""
    return next((lane for lane in (8, 16, 32, 64) if width <= lane), 8 * ((width + 7) >> 3))


def unpack(acc: int, count: int, width: int) -> list[int]:
    """The first count width-bit values of a packed int, the lowest first:
    through bytes at width 8, memoryview.cast at the native widths of
    _CASTS, and shift-and-mask at any other width."""
    if width == 8:
        return list(acc.to_bytes(count, "little"))
    if width in _CASTS:
        return memoryview(acc.to_bytes(count * width >> 3, "little")).cast(_CASTS[width]).tolist()
    mask = (1 << width) - 1
    return [acc >> o & mask for o in range(0, count * width, width)]


_BIT = [bytes(v >> k & 1 for v in range(256)) for k in range(8)]     # byte value -> its bit k


def bit_bytes(data: bytes) -> bytes:
    """Every bit of data as one byte, lowest bit first: byte 8t + k is bit
    k of data[t], from one bytes.translate per bit position.  The result
    is bytes, which iterates faster than a bytearray."""
    out = bytearray(8 * len(data))
    for k, table in enumerate(_BIT):
        out[k::8] = data.translate(table)
    return bytes(out)


def byte_tables(images: Sequence[int]) -> list[list[int]]:
    """Split tables of the GF(2)-linear map that takes bit i to images[i]:
    table t maps a byte b to the XOR of images[8t + i] over the set bits i
    of b.  A last chunk of c < 8 images gets a 2^c-entry table, not a
    zero-padded one, so a byte beyond the map's domain raises IndexError."""
    tables = []
    for shift in range(0, len(images), 8):
        table = [0]
        for e in images[shift:shift + 8]:       # repeat stops map at the old length
            table += map(xor, table, repeat(e, len(table)))
        tables.append(table)
    return tables


def _check_odd_prime(p: int) -> None:
    if p % 2 == 0 or poly._prime_factors(p) != [p]:
        raise NotPrimeError(f"p must be an odd prime, got {p}")


def _order_of_2_mod(p: int) -> int:
    """Multiplicative order of 2 in GF(p)."""
    order = p - 1
    for q in poly._prime_factors(p - 1):
        while order % q == 0 and pow(2, order // q, p) == 1:
            order //= q
    return order


class _Gf2mOps:
    """Arithmetic in GF(2)[x]/(f) for irreducible f, on raw ints.

    Log/antilog tables are built for degrees up to 16.  Beyond that (only
    ring factor fields for large p) a product is the windowed carry-less
    ``poly.mul`` followed by ``reduce``, which folds the bits above the
    degree one byte at a time through tables built with the field, one per
    byte of x^d .. x^(2d-2): its domain is a product of two residues.

    The tableless ``ratios`` sweep multiplies spread residues instead
    (Kronecker substitution, as in Harvey, J. Symbolic Comput. 2009): bit
    k of a residue goes to the low bit of slot k, a slot one byte wide, or
    two where d > 255, since a slot of a product counts up to d pairs of
    bits.  A carry-less product is then one int multiply, each slot's low
    bit its coefficient.  ``_spread_mul`` reduces it by folding at x^p
    when f is M_p(x) itself (x^p = 1 there) and by Barrett reduction with
    floor(x^(2d) / f) otherwise; its constants are built with the field.
    """

    __slots__ = ("modulus", "degree", "q", "qm1", "has_tables", "exp", "log",
                 "_fold", "_exp_np", "_log_np", "_slot", "_ones", "_shift", "_top", "_mu",
                 "_tail", "_spread_mul")

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.degree = poly.degree(modulus)
        self.q = 1 << self.degree
        self.qm1 = self.q - 1
        self.has_tables = self.degree <= _TABLE_DEGREE_MAX
        self._fold = None
        self._exp_np = None
        self._log_np = None
        if self.has_tables:
            g = self._find_generator()
            exp = [0] * (2 * self.qm1 - 1)
            log = [0] * self.q
            v = 1
            for i in range(self.qm1):
                exp[i] = v
                log[v] = i
                if g == 2:      # times x: shift, reduce on overflow
                    v <<= 1
                    if v & self.q:
                        v ^= modulus
                else:
                    v = poly.mulmod(v, g, modulus)
            for i in range(self.qm1, 2 * self.qm1 - 1):
                exp[i] = exp[i - self.qm1]
            self.exp = exp
            self.log = log
        else:
            self.exp = self.log = None
            d = self.degree
            self._fold = byte_tables([poly.mod(1 << k, modulus) for k in range(d, 2 * d - 1)])
            self._slot = slot = 8 if d < 256 else 16
            if modulus & (modulus + 1) == 0:        # M_p(x), p = d + 1: x^p = 1
                self._shift, self._top = (d + 1) * slot, d * slot
                self._spread_mul = self._mul_fold
            else:
                self._shift = d * slot
                self._mu, self._tail = self._spread([poly.divmod_(1 << 2 * d, modulus)[0],
                                                     modulus ^ 1 << d])
                self._spread_mul = self._mul_barrett
            self._ones = ((1 << self._shift) - 1) // ((1 << slot) - 1)    # 1s below _shift

    def _find_generator(self) -> int:
        primes = poly._prime_factors(self.qm1)
        c = 2
        while True:
            if all(poly.powmod(c, self.qm1 // rho, self.modulus) != 1 for rho in primes):
                return c
            c += 1

    def reduce(self, a: int) -> int:
        """a mod f, for a product a of two residues: one lookup per byte above
        d.  A longer a (bits at x^(2d-1) or above) raises ValueError."""
        top = a >> self.degree
        if not top:
            return a
        if top >> (self.degree - 1):
            raise ValueError(f"reduce takes a product of two residues, got {a.bit_length()} bits")
        out = a & self.qm1
        for table, byte in zip(self._fold, top.to_bytes((top.bit_length() + 7) >> 3, "little")):
            out ^= table[byte]
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.has_tables:
            return self.exp[self.log[a] + self.log[b]]
        return self.reduce(poly.mul(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self.has_tables:
            return self.exp[self.qm1 - self.log[a]]
        return poly.invmod(a, self.modulus)

    def ratios(self, xs: Sequence[int], ys: Sequence[int]) -> list:
        """One key per column: equal keys mean equal ratios y/x, and -1 marks
        x = 0.  With tables the key is log y - log x mod q-1 (q-1 for y = 0).
        Without, it is y times the product of the other nonzero xs, the
        ratio times one constant of the sweep, as a spread residue (0 for
        y = 0) from prefix and suffix products: no inverse."""
        if self.has_tables:
            log, qm1 = self.log, self.qm1
            return [-1 if not x else (log[y] - log[x]) % qm1 if y else qm1 for x, y in zip(xs, ys)]
        n, mul = len(xs), self._spread_mul
        spread = self._spread([*xs, *ys])
        prefix, acc = [], 1             # prefix[i] = product of the nonzero xs before i
        for x in spread[:n]:
            prefix.append(acc)
            acc = mul(acc, x) if x else acc
        keys, acc = [-1] * n, 1         # acc: product of the nonzero xs after i
        for i in range(n - 1, -1, -1):
            x, y = spread[i], spread[n + i]
            if x:
                keys[i] = mul(y, mul(prefix[i], acc)) if y else 0
                acc = mul(acc, x)
        return keys

    def _spread(self, values) -> list[int]:
        """Each value with bit k moved to the low bit of slot k; a value may
        have d + 1 bits, as floor(x^(2d) / f) does."""
        nbytes, step = (self.degree >> 3) + 1, self._slot >> 3
        data = b"".join(map(int.to_bytes, values, repeat(nbytes), repeat("little")))
        bits = bit_bytes(data)
        if step > 1:
            wide = bytearray(step * len(bits))
            wide[::step] = bits
            bits = wide
        span = 8 * nbytes * step
        return [int.from_bytes(bits[o:o + span], "little") for o in range(0, len(bits), span)]

    def _mul_fold(self, a: int, b: int) -> int:
        """Product of two spread residues mod M_p(x): slot k + p adds onto
        slot k, as x^p = 1, and a set slot p-1 clears by adding M_p(x)."""
        t = a * b
        t = (t + (t >> self._shift)) & self._ones
        return t ^ self._ones if t >> self._top else t

    def _mul_barrett(self, a: int, b: int) -> int:
        """Product of two spread residues mod f, by Barrett reduction: as t
        has degree below 2d, t div f is exactly (t div x^d) floor(x^(2d) /
        f) div x^d, and the remainder is the low d slots of t + (t div f)
        (f - x^d)."""
        t, ones, shift = a * b, self._ones, self._shift
        q = ((t >> shift) & ones) * self._mu >> shift & ones
        return (t ^ q * self._tail) & ones

    def np_tables(self):
        """(exp, log) as int32 numpy arrays, or None when table-less.  Needs
        numpy; only sdbench calls it, and it goes with the benchmark change
        that drops ``algebra.np_tables.ms.w16``."""
        if not self.has_tables:
            return None
        if self._exp_np is None:
            import numpy as np

            self._exp_np = np.asarray(self.exp, dtype=np.int32)
            self._log_np = np.asarray(self.log, dtype=np.int32)
        return self._exp_np, self._log_np


@dataclass(frozen=True, slots=True)
class Element:
    """One symbol: a fixed-width bit vector tied to its algebra.

    bits go through operator.index: a float or a string raises TypeError,
    and a bool or a numpy integer is stored as a plain int."""

    algebra: "Algebra"
    bits: int

    def __post_init__(self):
        bits = self.bits
        if type(bits) is not int:
            bits = index(bits)
            object.__setattr__(self, "bits", bits)
        if not 0 <= bits < (1 << self.algebra.element_bits):
            raise ValueError(f"bits {bits:#x} out of range for {self.algebra}")

    def __add__(self, other: "Element") -> "Element":
        return self.algebra.add(self, other)

    __xor__ = __add__

    def __mul__(self, other: "Element") -> "Element":
        return self.algebra.mul(self, other)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"Element({self.algebra.element_token(self)!r}, {self.algebra})"


# The trusted constructor's parts: Element's slot descriptors set the
# fields of a bare instance, skipping the frozen __setattr__ and the checks.
_new_element = object.__new__
_set_algebra = Element.algebra.__set__
_set_bits = Element.bits.__set__


class Algebra:
    """Common surface of Field and Ring.  Instances are immutable and
    compare by their defining parameters, so independently constructed
    contexts interoperate."""

    element_bits: int
    modulus: int        # degree element_bits: elements are residues mod it

    # -- element plumbing ------------------------------------------------

    def element(self, bits: int) -> Element:
        return Element(self, bits)

    def elements(self, bits: Sequence[int]) -> list[Element]:
        """The Elements of bits, plain ints in range (as linalg's solves
        return them), built by the trusted constructor: no index or range
        pass, as Matrix._of_ints."""
        out = []
        for v in bits:
            e = _new_element(Element)
            _set_algebra(e, self)
            _set_bits(e, v)
            out.append(e)
        return out

    @property
    def zero(self) -> Element:
        return Element(self, 0)

    @property
    def one(self) -> Element:
        return Element(self, 1)

    @property
    def alpha(self) -> Element:
        return Element(self, 2)

    def _check(self, a: Element) -> int:
        if type(a) is Element and a.algebra is self:
            return a.bits
        if not isinstance(a, Element):
            raise TypeError(f"expected Element, got {type(a).__name__}")
        if a.algebra != self:
            raise AlgebraMismatchError(f"element of {a.algebra} used with {self}")
        return a.bits

    # -- arithmetic ------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        return Element(self, self._check(a) ^ self._check(b))

    def mul(self, a: Element, b: Element) -> Element:
        return Element(self, self.mul_bits(self._check(a), self._check(b)))

    def inv(self, a: Element) -> Element:
        return Element(self, self.inv_bits(self._check(a)))

    def is_unit(self, a: Element) -> bool:
        return self.is_unit_bits(self._check(a))

    def alpha_pow(self, k: int) -> Element:
        return Element(self, self.alpha_pow_bits(k))

    def add_bits(self, a: int, b: int) -> int:
        return a ^ b

    def mul_bits(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv_bits(self, a: int) -> int:
        raise NotImplementedError

    def is_unit_bits(self, a: int) -> bool:
        raise NotImplementedError

    def alpha_pow_bits(self, k: int) -> int:
        raise NotImplementedError

    def order_of_alpha(self) -> int:
        raise NotImplementedError

    # -- factor fields ---------------------------------------------------

    def factor_views(self, rows) -> list[tuple[_Gf2mOps, list[list[int]]]]:
        """(ops, rows reduced into that factor field) per factor field; the
        rows are fresh lists the caller may mutate."""
        raise NotImplementedError

    def crt_bits(self, residues) -> int:
        """The element with these residues, one per factor field, in the
        order of factor_views."""
        raise NotImplementedError

    # -- text forms ------------------------------------------------------

    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.descriptor()

    def _alpha_exponent_of(self, bits: int) -> int | None:
        """k with alpha^k == bits, or None if bits is not a power of alpha."""
        raise NotImplementedError

    def token(self, bits: int) -> str:
        """Render element bits: 0, 1, a^k for powers of alpha, x:<hex> otherwise."""
        if bits < 2:
            return str(bits)
        k = self._alpha_exponent_of(bits)
        return f"x:{bits:x}" if k is None else f"a^{k}"

    def read_token(self, token: str) -> int:
        """Inverse of token; raises ValueError on bad tokens."""
        if token in ("0", "1"):
            return int(token)
        if token.startswith("a^"):
            body = token[2:]
            try:
                k = -read_int(body[1:]) if body.startswith("-") else read_int(body)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            return self.alpha_pow_bits(k)
        if token.startswith("x:"):
            try:
                bits = read_int(token[2:], 16)
            except ValueError:
                raise ValueError(f"bad hex in token {token!r}") from None
            if not 0 <= bits < (1 << self.element_bits):
                raise ValueError(f"token {token!r} out of range for {self}")
            return bits
        raise ValueError(f"unrecognized element token {token!r}")

    def element_token(self, e: Element) -> str:
        return self.token(self._check(e))

    def parse_element(self, token: str) -> Element:
        return self.element(self.read_token(token))


class Field(Algebra):
    """GF(2^w) defined by an irreducible polynomial of degree w."""

    def __init__(self, w: int, modulus: int | None = None):
        if not 2 <= w <= 16:
            raise BadWidthError(f"field width must be in [2, 16], got {w}")
        if modulus is None:
            modulus = DEFAULT_FIELD_POLY[w]
        if poly.degree(modulus) != w:
            raise BadWidthError(
                f"modulus 0x{modulus:x} has degree {poly.degree(modulus)}, expected {w}")
        if not poly.is_irreducible(modulus):
            raise ReducibleModulusError(f"0x{modulus:x} is reducible over GF(2)")
        self.w = w
        self.modulus = modulus
        self.element_bits = w
        self.ops = _Gf2mOps(modulus)
        self._elements: dict[int, Element] = {}     # at most 2^w, filled on first use
        # alpha = g^la: alpha^k = g^lg iff d = gcd(la, q-1) divides lg, and
        # then k = (lg/d) * (la/d)^-1 mod O(alpha), where O(alpha) = (q-1)/d
        self._log_alpha = self.ops.log[2]
        self._log_gcd = int_gcd(self.ops.qm1, self._log_alpha)
        self._alpha_order = self.ops.qm1 // self._log_gcd
        self._log_alpha_inv = pow(self._log_alpha // self._log_gcd, -1, self._alpha_order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.w, self.modulus) == (other.w, other.modulus)

    def __hash__(self) -> int:
        return hash(("field", self.w, self.modulus))

    def element(self, bits: int) -> Element:
        """The one Element of these bits, built by the checked constructor
        on first use; a rejected value leaves no entry."""
        if type(bits) is not int:
            bits = index(bits)
        e = self._elements.get(bits)
        if e is None:
            e = self._elements[bits] = Element(self, bits)
        return e

    def elements(self, bits: Sequence[int]) -> list[Element]:
        """The interned Elements of bits, in one lookup each; element builds
        any not yet interned."""
        try:
            return list(map(self._elements.__getitem__, bits))
        except KeyError:
            return list(map(self.element, bits))

    def mul_bits(self, a: int, b: int) -> int:
        return self.ops.mul(a, b)

    def inv_bits(self, a: int) -> int:
        if a == 0:
            raise NotAUnitError("zero is not invertible")
        return self.ops.inv(a)

    def is_unit_bits(self, a: int) -> bool:
        return a != 0

    def alpha_pow_bits(self, k: int) -> int:
        e = k % self._alpha_order
        return self.ops.exp[(e * self._log_alpha) % self.ops.qm1]

    def order_of_alpha(self) -> int:
        return self._alpha_order

    def factor_views(self, rows) -> list[tuple[_Gf2mOps, list[list[int]]]]:
        return [(self.ops, [list(r) for r in rows])]

    def crt_bits(self, residues) -> int:
        return residues[0]

    def _alpha_exponent_of(self, bits: int) -> int | None:
        lg, d = self.ops.log[bits], self._log_gcd
        return None if lg % d else lg // d * self._log_alpha_inv % self._alpha_order

    def descriptor(self) -> str:
        return f"field w={self.w} poly=0x{self.modulus:x}"


class Ring(Algebra):
    """Binary polynomials modulo M_p(x) = 1 + x + ... + x^(p-1), p an odd
    prime.  Residues have degree <= p-2 and are stored as (p-1)-bit
    vectors; reduction substitutes x^(p-1) <- 1 + x + ... + x^(p-2).
    """

    def __init__(self, p: int):
        _check_odd_prime(p)
        self.p = p
        self.modulus = (1 << p) - 1          # M_p(x), degree p-1
        self.element_bits = p - 1
        self.all_ones = (1 << (p - 1)) - 1   # the residue of x^(p-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("ring", self.p))

    def mul_bits(self, a: int, b: int) -> int:
        # x^p = 1 mod M_p(x): fold the product (degree <= 2p-4) once at x^p,
        # then clear bit p-1 by adding M_p(x) itself.
        t = poly.mul(a, b)
        t = (t & self.modulus) ^ (t >> self.p)
        return t ^ self.modulus if t >> (self.p - 1) else t

    def inv_bits(self, a: int) -> int:
        d, s, _ = poly.gcdext(a, self.modulus)
        if d != 1:
            raise NotAUnitError(
                f"gcd with M_{self.p}(x) is 0x{d:x}; element is not a unit")
        return poly.mod(s, self.modulus)

    def is_unit_bits(self, a: int) -> bool:
        return poly.gcd(a, self.modulus) == 1

    def alpha_pow_bits(self, k: int) -> int:
        e = k % self.p
        return self.all_ones if e == self.p - 1 else 1 << e

    def order_of_alpha(self) -> int:
        return self.p

    def _alpha_exponent_of(self, bits: int) -> int | None:
        if bits == self.all_ones:
            return self.p - 1
        if bits & (bits - 1) == 0:          # monomial x^k
            return bits.bit_length() - 1
        return None

    def descriptor(self) -> str:
        return f"ring p={self.p}"

    # -- factor-field machinery -------------------------------------------

    @cached_property
    def factorization(self) -> "MpFactorization":
        return mp_factorization(self.p)

    @cached_property
    def factor_ops(self) -> list[_Gf2mOps]:
        return [_Gf2mOps(f) for f in self.factorization.factors]

    def factor_views(self, rows) -> list[tuple[_Gf2mOps, list[list[int]]]]:
        # one projection per distinct entry (a constructed H holds powers
        # of alpha), into every factor at once through the byte tables
        factors = self.factor_ops
        if len(factors) == 1:           # M_p(x) is irreducible: residues are elements
            return [(factors[0], [list(r) for r in rows])]
        tables, lane = self._projection_tables, lane_width(factors[0].degree)
        values = list({v for r in rows for v in r})
        lanes = [unpack(reduce(xor, map(getitem, tables, v.to_bytes(len(tables), "little")), 0),
                        len(factors), lane) for v in values]
        views = []
        for k, ops in enumerate(factors):
            residue = dict(zip(values, map(itemgetter(k), lanes))).__getitem__
            views.append((ops, [list(map(residue, r)) for r in rows]))
        return views

    @cached_property
    def _projection_tables(self) -> list[list[int]]:
        """The byte tables of projection: byte b at bit 8k maps to the
        residues of b x^(8k) modulo every factor, factor f's in lane f
        (lane_width(degree) bits apart)."""
        lane, powers = lane_width(self.factor_ops[0].degree), [0] * self.element_bits
        for f, ops in enumerate(self.factor_ops):     # powers[k]: x^k in every lane
            v = 1
            for k in range(self.element_bits):
                powers[k] |= v << f * lane
                v <<= 1
                v ^= ops.modulus if v >> ops.degree else 0
        return byte_tables(powers)

    @cached_property
    def _crt_tables(self) -> list[list[list[int]]]:
        """Per factor, the byte tables of its residues times its CRT basis
        element t (1 modulo that factor, 0 modulo the others)."""
        tables = []
        for f, ops in zip(self.factorization.factors, self.factor_ops):
            q, rem = poly.divmod_(self.modulus, f)
            assert rem == 0
            t = poly.mulmod(q, poly.invmod(poly.mod(q, f), f), self.modulus)
            tables.append(byte_tables([self.mul_bits(1 << k, t) for k in range(ops.degree)]))
        return tables

    def project_bits(self, bits: int, k: int) -> int:
        """Residue of bits modulo the k-th irreducible factor of M_p(x): a
        plain poly.mod, the oracle of the projection tables."""
        return poly.mod(bits, self.factorization.factors[k])

    def crt_bits(self, residues: list[int]) -> int:
        """Unique residue mod M_p(x) matching one residue per factor: the
        sum of each residue times its factor's CRT basis element, taken
        from one table per byte of the residue."""
        out = 0
        for per_byte, res in zip(self._crt_tables, residues):
            for table in per_byte:
                out ^= table[res & 0xFF]
                res >>= 8
        return out


@dataclass(frozen=True, slots=True)
class MpFactorization:
    """Complete factorization of M_p(x) into irreducibles over GF(2).

    All factors have degree equal to the multiplicative order of 2 mod p,
    and M_p(x) is squarefree for odd prime p, so the factors are pairwise
    coprime.
    """

    p: int
    factors: tuple[int, ...]

    @property
    def factor_degree(self) -> int:
        return poly.degree(self.factors[0])

    def product(self) -> int:
        return reduce(poly.mul, self.factors, 1)


def _equal_degree_split(f: int, d: int, rng: random.Random) -> list[int]:
    """Split a squarefree product of degree-d irreducibles into its factors
    (Cantor-Zassenhaus with the GF(2) trace map)."""
    n = poly.degree(f)
    if n == d:
        return [f]
    while True:
        u = rng.randrange(1, 1 << n)
        v, t = 0, u
        for _ in range(d):
            v ^= t
            t = poly.mulmod(t, t, f)
        for cand in (v, v ^ 1):
            g = poly.gcd(f, cand)
            if 0 < poly.degree(g) < n:
                q, rem = poly.divmod_(f, g)
                assert rem == 0
                return _equal_degree_split(g, d, rng) + _equal_degree_split(q, d, rng)


def mp_factorization(p: int) -> MpFactorization:
    """Factor M_p(x) = 1 + x + ... + x^(p-1) into irreducibles.

    M_p(x) is irreducible exactly when 2 is primitive mod p; otherwise it
    splits into (p-1)/d irreducibles of degree d = order of 2 mod p.
    """
    _check_odd_prime(p)
    m = (1 << p) - 1
    d = _order_of_2_mod(p)
    if d == p - 1:
        return MpFactorization(p, (m,))
    # deterministic split choices so factor order is reproducible
    rng = random.Random(0x5DC0DE ^ p)
    factors = sorted(_equal_degree_split(m, d, rng))
    fact = MpFactorization(p, tuple(factors))
    assert fact.product() == m and all(poly.degree(f) == d for f in factors)
    return fact


_FIELD_CACHE: dict[tuple[int, int], Field] = {}
_RING_CACHE: dict[int, Ring] = {}


def make_field(w: int, modulus: int | None = None) -> Field:
    """Field context for GF(2^w); modulus defaults to a published
    irreducible polynomial per width."""
    key = (w, DEFAULT_FIELD_POLY.get(w, 0) if modulus is None else modulus)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        ctx = Field(w, modulus)
        _FIELD_CACHE[key] = ctx
    return ctx


def make_ring(p: int) -> Ring:
    """Ring context for binary polynomials modulo M_p(x)."""
    ctx = _RING_CACHE.get(p)
    if ctx is None:
        ctx = Ring(p)
        _RING_CACHE[p] = ctx
    return ctx


def read_int(text: str, base: int = 10) -> int:
    """A non-negative integer written in ASCII digits: decimal, or hex
    (base=16) with an optional 0x prefix.  Unlike int(), signs,
    underscores, whitespace and non-ASCII digits raise ValueError."""
    if base == 16:
        digits = text[2:] if text[:2] in ("0x", "0X") else text
        ok = digits != "" and not digits.strip("0123456789abcdefABCDEF")
    else:
        digits = text
        ok = digits.isascii() and digits.isdigit()
    if not ok:
        raise ValueError(f"expected a {'hex' if base == 16 else 'decimal'} number, got {text!r}")
    return int(digits, base)


def key_values(items: Sequence[str], required: Sequence[str],
               optional: Sequence[str] = ()) -> dict[str, str]:
    """Map key=value items to a dict: each required key exactly once, each
    optional key at most once, nothing else (else ItemError)."""
    kv = {}
    for i, item in enumerate(items):
        key, eq, value = item.partition("=")
        if not eq:
            raise ItemError(f"expected key=value, got {item!r}", i)
        if key in kv:
            raise ItemError(f"repeated key {key!r} in {item!r}", i)
        if key not in required and key not in optional:
            raise ItemError(f"unknown key {key!r} in {item!r}; expected "
                            + " ".join(f"{k}=" for k in (*required, *optional)))
        kv[key] = value
    missing = [f"{k}=" for k in required if k not in kv]
    if missing:
        raise ItemError(f"missing {' '.join(missing)}")
    return kv


def parse_algebra(text: str) -> Algebra:
    """Parse a descriptor token: 'field w=<int> poly=0x<hex>' or 'ring p=<int>'."""
    kind, *items = text.split() or [""]
    if kind == "field":
        kv = key_values(items, ("w", "poly"))
        return make_field(read_int(kv["w"]), read_int(kv["poly"], 16))
    if kind == "ring":
        return make_ring(read_int(key_values(items, ("p",))["p"]))
    raise ValueError(f"unknown algebra kind {kind!r}")
