"""Dense exact univariate polynomials and reduced rational functions.

Coefficients may be any exact field elements that support the usual
arithmetic operators: ``int``, ``fractions.Fraction``, ``QuadNum``,
``GaussianRational``.  Integers are kept as integers (no forced promotion)
so that the heavily used {0,1}-polynomials stay fast; mixed int/Fraction
arithmetic is exact either way.  Every product goes through ``_list_mul``:
a shift of the other operand when one has a single term c*x^k, schoolbook for
a short or non-int operand, else one signed Kronecker product
(``_kronecker_mul``: one big-integer product, byte slots sized by Cauchy-Schwarz).

``_Exact``, ``_coerced`` and ``_power`` are the one arithmetic protocol of the
exact element classes (here, in ``series`` and in ``quadfield``): a coerced
binary method, subtraction, immutability and square-and-multiply.  ``_Exact``
is a ``_Record``, the one immutable slotted class; records without methods or
checks of their own are NamedTuples.
``check_size`` is the one cost guard: a size known before the work (a size
parameter, a power, an exact value's bits) is refused past its cap.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import takewhile
from math import gcd, isqrt, lcm
from operator import add, mul, not_
from typing import Iterable, Sequence

_LITTLE = sys.byteorder == "little"  # slots are little-endian; else ``array`` byteswaps
_SLOT_CODES = {array(c).itemsize: c for c in "bhiq"}  # signed item size -> code, ascending
_SIGN_FILL = bytes(255 * (i >> 7) for i in range(256))  # top byte -> sign-extension byte

MAX_COEFFS_LOG2 = 24  # a size parameter: ``expand --name H --order 2^24`` takes 1.5 GB
MAX_RESULT_BITS_LOG2 = 20  # past 2^20 bits an exact value takes seconds to minutes to compute and print
MAX_NESTING = 100  # parentheses and prefix signs in an expression, each up to four Python frames
NUMERIC_BITS = 256  # mpmath precision of every numeric embedding: cf at non-rational points, fib's delta


def check_size(what: str, size: int, cap_log2: int = MAX_COEFFS_LOG2) -> int:
    """``size``, or a ValueError naming ``what`` if it passes 2^cap_log2."""
    if size > 1 << cap_log2:
        raise ValueError(f"{what} {size} is over the cap of 2^{cap_log2} = {1 << cap_log2}")
    return size


def _strip(coeffs: Sequence) -> tuple:
    zeros = len(list(takewhile(not_, reversed(coeffs))))  # the trailing zeros, counted at C speed
    return tuple(coeffs[: len(coeffs) - zeros])


def _slot_bytes(a: Sequence[int], b: Sequence[int]) -> int:
    """Signed Kronecker slot width for a * b in bytes; 0 if a or b is zero."""
    bound, short = isqrt(sum(map(mul, a, a)) * sum(map(mul, b, b))), min(len(a), len(b))
    if len(a) + len(b) > 5 * short + 1:  # lopsided, so sqrt(len(a) * len(b)) > 2 * min(len)
        bound = min(bound, short * max(map(abs, a)) * max(map(abs, b)))
    return (bound.bit_length() + 8) // 8 if bound else 0  # plus a sign bit


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Multiply signed integer coefficient lists with one big-integer product.

    Every product and input coefficient is at most isqrt(sum a_i^2 * sum b_j^2)
    in size (Cauchy-Schwarz; if lopsided, also min(len) * max|a| * max|b|), so
    it fits a two's-complement slot of w bytes, the fewest that hold the bound
    and a sign bit (``_slot_bytes``).  Up to w = 8 the slots go through the
    smallest ``array`` item of c >= w bytes at C speed; if w < c, strided
    slices keep the w low bytes of each item, and on unpacking
    ``bytes.translate`` of each slot's top byte fills the c - w sign bytes.
    Wider slots use per-slot ``to_bytes``.  XOR with an offset that sets the
    top bit of every slot, minus that offset, turns the packed slots into
    sum a_i 2^(8wi); adding the offset to the product and XOR-ing it again
    turns the result back into signed slots.
    """
    n, w = len(a) + len(b) - 1, _slot_bytes(a, b)
    if not w:
        return [0] * n
    c = next((s for s in _SLOT_CODES if s >= w), 0)
    top = (1 << 8 * w - 1).to_bytes(w, "little")

    def pack(p: Sequence[int]) -> int:
        if c:
            items = array(_SLOT_CODES[c], p)
            if not _LITTLE:
                items.byteswap()
            raw = items.tobytes()
            if w < c:
                wide, raw = raw, bytearray(w * len(p))
                for j in range(w):
                    raw[j::w] = wide[j::c]
        else:
            raw = b"".join(v.to_bytes(w, "little", signed=True) for v in p)
        offset = int.from_bytes(top * len(p), "little")
        return (int.from_bytes(raw, "little") ^ offset) - offset

    packed = pack(a)  # a square multiplies the one integer by itself: CPython's squaring path
    offset = int.from_bytes(top * n, "little")
    raw = ((packed * (packed if b is a else pack(b)) + offset) ^ offset).to_bytes(n * w, "little")
    if not c:
        return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, n * w, w)]
    if w < c:
        narrow, raw = raw, bytearray(n * c)
        sign = narrow[w - 1 :: w].translate(_SIGN_FILL)
        for j in range(c):
            raw[j::c] = narrow[j::w] if j < w else sign
    items = array(_SLOT_CODES[c], raw)
    if not _LITTLE:
        items.byteswap()
    return items.tolist()


def _list_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    for p, q in ((b, a), (a, b)):  # p = c x^k, so the product is q shifted and scaled
        c = p[-1]
        if c and (len(p) == 1 or not p[0] and p.count(0) == len(p) - 1):
            out = [0] * (len(p) - 1)
            out += [v * c if v else 0 for v in q]  # zeros stay int, as in the schoolbook loop
            return out
    if len(b) > 8 and {int}.issuperset(map(type, a)) and {int}.issuperset(map(type, b)):
        return _kronecker_mul(a, b)
    # schoolbook with the short operand outside beats packing overhead
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                if x:
                    out[i + j] = out[i + j] + x * y
    return out


def _coerced(op):
    """``op`` on ``other`` coerced by ``self._coerce``; NotImplemented if it does not embed."""

    def method(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else op(self, other)

    return method


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply over the bits of n, top
    down; ``one`` is the value for n = 0."""
    if not n:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class _Record:
    """Immutable record with its fields in ``__slots__``, set once by ``object.__setattr__``.
    Equal, hashed and shown by ``_key()``: every slot in order, unless a subclass keys
    by its leading slots alone."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


class _Exact(_Record):
    """Immutable exact ring element; subclasses give ``_coerce``, ``__add__``
    and ``__neg__``, and subtraction follows from them."""

    __slots__ = ()

    @_coerced
    def __sub__(self, other):
        return self + (-other)

    __rsub__ = _coerced(lambda self, other: other - self)


class Polynomial(_Exact):
    """Immutable dense polynomial; ``coeffs[i]`` is the coefficient of x^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # strips trailing zeros
        coeffs = tuple(coeffs)
        object.__setattr__(self, "coeffs", _strip(coeffs) if coeffs and not coeffs[-1] else coeffs)

    @classmethod
    def zero(cls) -> Polynomial:
        return cls(())

    @classmethod
    def one(cls) -> Polynomial:
        return cls((1,))

    @classmethod
    def x(cls) -> Polynomial:
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> Polynomial:
        return cls((c,))

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> Polynomial:
        return cls([0] * exponent + [coeff])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    @_coerced
    def __add__(self, other) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial([*map(add, a, b), *a[len(b) :]])

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            return Polynomial(_list_mul(self.coeffs, other.coeffs))
        if type(other) is int and other in (0, 1):  # the 1 and 0 of a continuant's head matrix
            return self if other else Polynomial.zero()
        if isinstance(other, (int, Fraction)) or _is_scalar(other):
            return Polynomial([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        """self^n, refused first past deg*n + 1 coefficients or, for p = P/d (P integral), past
        2^20 bits in all: n*ceil(log2 max(||P||_1, d)) bits a term (|[x^k] P^n| <= ||P||_1^n)
        times its terms, one for a single-term base and deg*n + 1 for any other."""
        if n < 0:
            raise ValueError("negative polynomial power")
        terms = check_size("power's coefficient count", self.degree * n + 1)
        if {int, Fraction}.issuperset(map(type, self.coeffs)):
            d = lcm(*(c.denominator for c in self.coeffs))
            norm = max(int(sum(map(abs, self.coeffs)) * d), d)
            terms = terms if sum(map(bool, self.coeffs)) > 1 else 1
            check_size("power's bits", terms * n * (norm - 1).bit_length(), MAX_RESULT_BITS_LOG2)
        return _power(self, n, Polynomial.one())

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)) or _is_scalar(other):
            return Polynomial.constant(other)
        return NotImplemented

    @_coerced
    def __divmod__(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Exact field division with remainder; ``other`` must be nonzero."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= d:
            return Polynomial.zero(), self
        quo = [0] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d]
            if c:
                c = _exact_div(c, lead)
                quo[i] = c
                for j, v in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * v
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other) -> Polynomial:
        return divmod(self, other)[0]

    def __mod__(self, other) -> Polynomial:
        return divmod(self, other)[1]

    def gcd(self, other: Polynomial) -> Polynomial:
        """Monic greatest common divisor.

        Rational-coefficient inputs are cleared to integers and run through a
        primitive pseudo-remainder sequence (with a one-prime coprimality
        shortcut), which avoids the coefficient blowup of fraction Euclid at
        large degree.  Other coefficient fields fall back to plain Euclid.
        """
        if not self:
            return other.monic()
        if not other:
            return self.monic()
        a = _to_int_coeffs(self.coeffs)
        b = _to_int_coeffs(other.coeffs)
        if a is not None and b is not None:
            if _coprime_mod_p(a, b):
                return Polynomial.one()
            return Polynomial(_int_gcd(a, b)).monic()
        x, y = self, other
        while y:
            x, y = y, x % y
        return x.monic()

    def monic(self) -> Polynomial:
        if not self:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial([_exact_div(c, lead) for c in self.coeffs])

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def substitute_power(self, k: int) -> Polynomial:
        """Return p(x^k)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return Polynomial(out)

    def shift(self, k: int) -> Polynomial:
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Polynomial([0] * k + list(self.coeffs))

    def reverse(self, m: int) -> Polynomial:
        """Return x^m * p(1/x), which is a polynomial when m >= deg p."""
        if m < self.degree:
            raise ValueError(f"x^{m} * p(1/x) is not a polynomial (deg p = {self.degree})")
        out = [0] * (m + 1)
        for i, c in enumerate(self.coeffs):
            out[m - i] = c
        return Polynomial(out)

    def derivative(self) -> Polynomial:
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, point):
        """Evaluate by Horner's rule; works over any ring with + and *."""
        result = point * 0
        for c in reversed(self.coeffs):
            result = result * point + c
        return result

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_integer(self) -> bool:
        """True when every coefficient is an integer (denominator 1)."""
        return all(
            type(c) is int or isinstance(c, Fraction) and c.denominator == 1 for c in self.coeffs
        )

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _to_int_coeffs(coeffs) -> list[int] | None:
    """Clear denominators to a primitive integer list; None if not rational."""
    if not {type(c) for c in coeffs} <= {int, Fraction}:
        return None
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = gcd(*ints)
    if content > 1:
        ints = [v // content for v in ints]
    return ints


def _coprime_mod_p(a: list[int], b: list[int]) -> bool:
    """True when gcd(a mod p, b mod p) is constant, which certifies
    gcd(a, b) = 1 over Q: the true gcd's leading coefficient divides lc(a)
    and lc(b) (Gauss), so as long as p misses one of those the modular gcd
    degree only ever overshoots."""
    p = (1 << 31) - 1
    if a[-1] % p == 0 and b[-1] % p == 0:
        return False
    am = [c % p for c in a]
    bm = [c % p for c in b]
    for seq in (am, bm):
        while seq and not seq[-1]:
            seq.pop()
    if not am or not bm:
        return False
    while bm:
        lead_inv = pow(bm[-1], p - 2, p)
        da, db = len(am) - 1, len(bm) - 1
        while da >= db:
            c = am[-1] * lead_inv % p
            if c:
                for j in range(db + 1):
                    am[da - db + j] = (am[da - db + j] - c * bm[j]) % p
            am.pop()
            while am and not am[-1]:
                am.pop()
            da = len(am) - 1
        am, bm = bm, am
    return len(am) == 1


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder sequence over Z; returns a primitive gcd
    (up to sign)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _to_int_coeffs(_pseudo_rem(a, b))
    return a


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    db = len(b) - 1
    lc = b[-1]
    rem = list(a)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db]
        if c:
            g = gcd(c, lc)
            scale, mult = lc // g, c // g
            if scale != 1:
                for j in range(i + db):
                    rem[j] *= scale
            for j in range(db):
                rem[i + j] -= mult * b[j]
        rem.pop()
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _is_scalar(v) -> bool:
    # ring scalars (QuadNum, GaussianRational, mpf, ...) have no .coeffs
    return (
        hasattr(v, "__mul__")
        and not hasattr(v, "coeffs")
        and not isinstance(v, (Polynomial, RationalFunction, list, tuple, str))
    )


def _exact_div(a, b):
    """a / b exactly.  A rational quotient that is an integer is an ``int``,
    so integer data stays on the integer fast paths; other fields use ``/``."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        q = Fraction(a) / Fraction(b)
        return q.numerator if q.denominator == 1 else q
    return a / b


def format_poly(p: Polynomial) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            if c == 1:
                parts.append(xs)
            elif c == -1:
                parts.append(f"-{xs}")
            else:
                parts.append(f"{c}*{xs}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


class RationalFunction(_Exact):
    """Quotient of polynomials kept in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = Polynomial.one()):
        if not isinstance(num, Polynomial):
            num = Polynomial.constant(num)
        if not isinstance(den, Polynomial):
            den = Polynomial.constant(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.coeffs[-1]
            if lead != 1:
                num = Polynomial([_exact_div(c, lead) for c in num.coeffs])
                den = den.monic()
        else:
            den = Polynomial.one()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_poly(cls, p: Polynomial) -> RationalFunction:
        return cls(p, Polynomial.one())

    @classmethod
    def x(cls) -> RationalFunction:
        return cls(Polynomial.x())

    @classmethod
    def constant(cls, c) -> RationalFunction:
        return cls(Polynomial.constant(c))

    @classmethod
    def _coerce(cls, v):
        if isinstance(v, cls):
            return v
        if isinstance(v, Polynomial):
            return cls.from_poly(v)
        if isinstance(v, (int, Fraction)):
            return cls.constant(v)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    @_coerced
    def __eq__(self, other) -> bool:
        return self.num == other.num and self.den == other.den

    @_coerced
    def __add__(self, other) -> RationalFunction:
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction(-self.num, self.den)

    @_coerced
    def __mul__(self, other) -> RationalFunction:
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, other) -> RationalFunction:
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    __rtruediv__ = _coerced(lambda self, other: other / self)

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        return RationalFunction(self.num**n, self.den**n)

    def substitute_power(self, k: int) -> RationalFunction:
        return RationalFunction(self.num.substitute_power(k), self.den.substitute_power(k))

    def __call__(self, point):
        """Evaluate at a field element; raises ZeroDivisionError at poles."""
        den = self.den(point)
        if not den:
            raise ZeroDivisionError("pole of rational function")
        return _exact_div(self.num(point), den)

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == Polynomial.one():
            return str(self.num)
        return f"({self.num})/({self.den})"


# ---------------------------------------------------------------------------
# Tiny expression parser used by the CLI for inputs like "x^2-2" or
# "q/(1-q)^2".  Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | atom ('^' INT)?
#   atom   := INT | INT '/' INT (as part of term) | VAR | '(' expr ')'
# ---------------------------------------------------------------------------


class ExprError(ValueError):
    pass


def parse_rational(text: str, var: str | None = None) -> RationalFunction:
    """Parse a polynomial/rational expression in one variable (x or q)."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ExprError(f"unexpected end of expression in {text!r}")
        t = tokens[pos]
        pos += 1
        return t

    names = set()

    def atom(depth: int) -> RationalFunction:
        t = take()
        if t[0] == "int":
            return RationalFunction.constant(t[1])
        if t[0] == "name":
            names.add(t[1])
            return RationalFunction.x()
        if t == ("op", "("):
            e = expr(depth + 1)
            if peek() != ("op", ")"):
                raise ExprError(f"missing ')' in {text!r}")
            take()
            return e
        raise ExprError(f"unexpected token {t[1]!r} in {text!r}")

    def unary(depth: int) -> RationalFunction:
        if depth > MAX_NESTING:
            raise ExprError(f"expression nested more than {MAX_NESTING} deep")
        if peek() in (("op", "-"), ("op", "+")):
            op = take()[1]
            a = unary(depth + 1)
            return -a if op == "-" else a
        a = atom(depth)
        if peek() == ("op", "^"):
            take()
            t = take()
            if t[0] != "int":
                raise ExprError(f"exponent must be an integer in {text!r}")
            a = a ** t[1]
        return a

    def term(depth: int) -> RationalFunction:
        a = unary(depth)
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            b = unary(depth)
            a = a * b if op == "*" else a / b
        return a

    def expr(depth: int) -> RationalFunction:
        a = term(depth)
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            b = term(depth)
            a = a + b if op == "+" else a - b
        return a

    result = expr(0)
    if pos != len(tokens):
        raise ExprError(f"trailing input {tokens[pos][1]!r} in {text!r}")
    if len(names) > 1:
        raise ExprError(f"more than one variable in {text!r}: {sorted(names)}")
    if var is not None and names and names != {var}:
        raise ExprError(f"expected variable {var!r} in {text!r}")
    return result


def parse_poly(text: str, var: str | None = None) -> Polynomial:
    rf = parse_rational(text, var)
    if rf.den != Polynomial.one():
        raise ExprError(f"{text!r} is not a polynomial")
    return rf.num


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c.isalpha():
            tokens.append(("name", c))
            i += 1
        elif c in "+-*/^()":
            tokens.append(("op", c))
            i += 1
        else:
            raise ExprError(f"bad character {c!r} at position {i} in {text!r}")
    return tokens
