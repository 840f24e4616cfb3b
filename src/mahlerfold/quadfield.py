"""Exact arithmetic in Q(sqrt(5)) and Q(i).

``_Quadratic`` is the one implementation of a + b*sqrt(D) arithmetic; its
subclasses fix D and the components.  ``GaussianRational`` is Q(i) (D = -1,
rational components); ``QuadNum`` is Q(sqrt(5)) (D = 5), whose components may
themselves be ``GaussianRational`` values, which gives exact arithmetic in
Q(i, sqrt(5)) for root-of-unity evaluations.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import _coerced, _Exact, _power


def _mpf(q: Fraction):
    import mpmath as mp

    return mp.mpf(q.numerator) / q.denominator


class _Quadratic(_Exact):
    """a + b*sqrt(D); conjugation (a, -b) is a field automorphism.

    Subclasses set ``D``, ``_FIELD`` (its name in error messages),
    ``_SCALARS`` (the types that embed as (v, 0)) and ``_component``.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", self._component(a))
        object.__setattr__(self, "b", self._component(b))

    @classmethod
    def _coerce(cls, v):
        if isinstance(v, cls):
            return v
        if isinstance(v, cls._SCALARS):
            return cls(v, v * 0)
        return NotImplemented

    @_coerced
    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __hash__(self):  # an embedded scalar (b = 0) hashes as that scalar
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    @_coerced
    def __add__(self, other):
        return type(self)(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.a, -self.b)

    @_coerced
    def __mul__(self, other):
        return type(self)(
            self.a * other.a + self.D * (self.b * other.b),
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return type(self)(self.a, -self.b)

    def norm(self):
        """a^2 - D b^2; multiplicative."""
        return self.a * self.a - self.D * (self.b * self.b)

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError(f"division by zero in {self._FIELD}")
        return type(self)(self.a / n, -self.b / n)

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    __rtruediv__ = _coerced(lambda self, other: other / self)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, type(self)(1, 0))


class GaussianRational(_Quadratic):
    """a + b*i with exact rational a, b (also read as ``re`` and ``im``)."""

    __slots__ = ()
    D = -1
    _FIELD = "Q(i)"
    _SCALARS = (int, Fraction)
    _component = staticmethod(Fraction)

    re = property(lambda self: self.a)
    im = property(lambda self: self.b)

    def to_mpc(self):
        import mpmath as mp

        return mp.mpc(_mpf(self.a), _mpf(self.b))

    def __repr__(self):
        return f"GaussianRational({self.a}, {self.b})"

    def __str__(self):
        return f"{self.a}{'+' if self.b >= 0 else ''}{self.b}i"


class QuadNum(_Quadratic):
    """a + b*sqrt(5) with rational or Gaussian-rational components."""

    __slots__ = ()
    D = 5
    _FIELD = "Q(sqrt5)"
    _SCALARS = (int, Fraction, GaussianRational)

    @staticmethod
    def _component(v):
        return Fraction(v) if isinstance(v, (int, Fraction)) else v

    @classmethod
    def sqrt5(cls) -> QuadNum:
        return cls(0, 1)

    @classmethod
    def phi(cls) -> QuadNum:
        """The golden ratio (1 + sqrt(5)) / 2."""
        return cls(Fraction(1, 2), Fraction(1, 2))

    def to_mp(self):
        """Embed numerically at the current mpmath precision."""
        import mpmath as mp

        s5 = mp.sqrt(5)
        if isinstance(self.a, GaussianRational):
            return self.a.to_mpc() + self.b.to_mpc() * s5
        if self.a * self.b < 0:  # a + b*sqrt5 = norm / conjugate, with no cancellation
            return _mpf(self.norm()) / (_mpf(self.a) - _mpf(self.b) * s5)
        return _mpf(self.a) + _mpf(self.b) * s5

    def sign(self) -> int:
        """-1, 0 or 1, exactly (rational components): a + b*sqrt5 has the
        sign of a when a^2 > 5 b^2, else that of b."""
        lead = self.a if self.a * self.a > 5 * self.b * self.b else self.b
        return (lead > 0) - (lead < 0)

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r})"

    def __str__(self):
        if not self.b:
            return str(self.a)
        return f"{self.a} + ({self.b})*sqrt5"


PHI = QuadNum.phi()
SQRT5 = QuadNum.sqrt5()
