"""Fold-recursion DSL, sign words, specialization and specializability tests.

A fold spec declares base words over the alphabet {+x, -x} and a rule that
builds word n from words n-1 .. n-D using constants (x, -x, and the
parity-signed (-1)^n * x), references, reversals and negations.  One walker,
``_unfold``, is the only interpreter of that rule: sign words, word lengths
and continuant matrices are its images of the words under different maps of a
letter (a sign, a count, a Key Lemma step).  Continuant matrices are thus
computed through the recursion itself, so they stay cheap even when the words
grow exponentially; the computation is generic over the coefficient ring
(polynomials, truncated series, exact rationals, ints, big floats).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, count, islice

from .contfrac import ContinuantMatrix, Word, _identity_like, euclid_cf, eval_irregular, IrregularCF
from .poly import Polynomial, RationalFunction
from .series import TruncatedSeries


class FoldSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class RuleConst:
    sign: int  # +1 or -1
    parity: bool = False  # True: the letter is sign * (-1)^n * x

    def pretty(self) -> str:
        s = "-" if self.sign < 0 else ""
        return f"{s}s*x" if self.parity else f"{s}x"


@dataclass(frozen=True)
class RuleRef:
    depth: int  # refers to word n - depth
    reverse: bool = False
    negate: bool = False

    def pretty(self) -> str:
        return ("-" if self.negate else "") + ("~" if self.reverse else "") + f"w{self.depth}"


@dataclass(frozen=True)
class FoldSpec:
    bases: tuple[tuple[int, ...], ...]
    rule: tuple

    def __post_init__(self):
        if not self.rule:
            raise ValueError("rule must be non-empty")
        depth = self.max_depth()
        if depth > len(self.bases):
            raise ValueError(
                f"rule refers {depth} levels back but only {len(self.bases)} bases are declared"
            )

    def max_depth(self) -> int:
        return max((it.depth for it in self.rule if isinstance(it, RuleRef)), default=0)

    def pretty(self) -> str:
        bases = ",".join("[" + ",".join("+" if s > 0 else "-" for s in b) + "]" for b in self.bases)
        rule = ", ".join(it.pretty() for it in self.rule)
        return f"bases:{bases} ; rule: {rule}"


def parse_fold_spec(text: str) -> FoldSpec:
    """Parse the fold DSL.

    Grammar:
        spec := ("bases:" wordlist ";")? "rule:" item ("," item)*
        wordlist := "[" signs? "]" ("," "[" signs? "]")*
        item := "x" | "-x" | "s*x" | "-s*x" | ["-"] ["~"] "w" DIGIT+
        signs := ("+"|"-") ("," ("+"|"-"))*

    When the bases section is omitted a single empty base word is assumed.
    """
    bases: list[tuple[int, ...]] = []
    have_bases = False
    body = text
    offset = 0
    m = re.match(r"\s*bases\s*:", text)
    if m:
        have_bases = True
        semi = text.find(";", m.end())
        if semi < 0:
            raise FoldSyntaxError("missing ';' after bases section", len(text))
        bases = _parse_wordlist(text[m.end() : semi], m.end())
        body = text[semi + 1 :]
        offset = semi + 1
    m = re.match(r"\s*rule\s*:", body)
    if not m:
        raise FoldSyntaxError("expected 'rule:'", offset)
    items = []
    for piece, pos in _split_commas(body[m.end() :], offset + m.end()):
        items.append(_parse_item(piece, pos))
    if not have_bases:
        bases = [()]
    return FoldSpec(tuple(bases), tuple(items))


def _split_commas(text: str, offset: int):
    pos = 0
    for piece in text.split(","):
        yield piece, offset + pos
        pos += len(piece) + 1


def _parse_wordlist(text: str, offset: int) -> list[tuple[int, ...]]:
    words = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace() or c == ",":
            i += 1
            continue
        if c != "[":
            raise FoldSyntaxError(f"expected '[' in bases, found {c!r}", offset + i)
        j = text.find("]", i)
        if j < 0:
            raise FoldSyntaxError("unterminated base word", offset + i)
        inner = text[i + 1 : j]
        signs = []
        for tok, pos in _split_commas(inner, offset + i + 1):
            tok = tok.strip()
            if not tok:
                continue
            if tok == "+":
                signs.append(1)
            elif tok == "-":
                signs.append(-1)
            else:
                raise FoldSyntaxError(f"bad sign {tok!r} in base word", pos)
        words.append(tuple(signs))
        i = j + 1
    return words


def _parse_item(piece: str, pos: int):
    tok = piece.strip()
    if not tok:
        raise FoldSyntaxError("empty rule item", pos)
    if tok in ("x", "+x"):
        return RuleConst(1)
    if tok == "-x":
        return RuleConst(-1)
    if tok in ("s*x", "+s*x"):
        return RuleConst(1, parity=True)
    if tok == "-s*x":
        return RuleConst(-1, parity=True)
    m = re.fullmatch(r"(-)?(~)?w(\d+)", tok)
    if m:
        depth = int(m.group(3))
        if depth < 1:
            raise FoldSyntaxError("ref depth must be >= 1", pos)
        return RuleRef(depth, reverse=bool(m.group(2)), negate=bool(m.group(1)))
    raise FoldSyntaxError(f"unknown token {tok!r}", pos)


# ---------------------------------------------------------------------------
# Built-in specs for the worked examples.
# ---------------------------------------------------------------------------

NAMED_SPECS = {
    "dragon": "bases:[] ; rule: w1, x, -~w1",
    "rho": "bases:[],[] ; rule: w2, s*x, -~w2, s*x, w1",
    "cubic": "bases:[] ; rule: w1, w1, x, -~w1, -~w1",
    "cubic-alt": "bases:[] ; rule: w1, -~w1, -~w1, w1, x",
    "quintic": "bases:[] ; rule: w1, w1, w1, -x, -~w1, -~w1, -~w1, x",
    "rational-ex": "bases:[] ; rule: w1, -~w1, x, -x, -~w1, w1, x",
}


def named_spec(name: str) -> FoldSpec:
    try:
        return parse_fold_spec(NAMED_SPECS[name])
    except KeyError:
        raise ValueError(f"unknown spec {name!r}; built-ins: {sorted(NAMED_SPECS)}") from None


def resolve_spec(spec) -> FoldSpec:
    """A FoldSpec, a built-in name, a path to a spec file, or DSL text."""
    if isinstance(spec, FoldSpec):
        return spec
    if spec in NAMED_SPECS:
        return named_spec(spec)
    import os

    if os.path.isfile(spec):
        with open(spec) as fh:
            return parse_fold_spec(fh.read())
    return parse_fold_spec(spec)


# ---------------------------------------------------------------------------
# The fold-rule interpreter: words, lengths and continuants.
# ---------------------------------------------------------------------------


def _unfold(spec: FoldSpec, empty, letter, join):
    """Yield the images of w_0, w_1, ... under a map that respects the rule.

    The one interpreter of the fold rule.  ``empty()`` is a fresh image of
    the empty word, ``letter(acc, s)`` appends the letter s*x (s = +1 or -1)
    to an image and ``join(acc, image, ref)`` appends the image of a word
    reversed and negated as the RuleRef ``ref`` says.  Only the images that
    the rule can still refer to (the last ``max_depth``) are kept.
    """
    window: deque = deque(maxlen=max(spec.max_depth(), 1))
    for m in count():
        acc = empty()
        if m < len(spec.bases):
            for s in spec.bases[m]:
                acc = letter(acc, s)
        else:
            for it in spec.rule:
                if isinstance(it, RuleConst):
                    acc = letter(acc, -it.sign if it.parity and m % 2 else it.sign)
                else:
                    acc = join(acc, window[-it.depth], it)
        window.append(acc)
        yield acc


def _append_sign(word: list[int], s: int) -> list[int]:
    word.append(s)
    return word


def _extend_signs(word: list[int], ref_word: list[int], ref: RuleRef) -> list[int]:
    if ref.reverse:
        ref_word = ref_word[::-1]
    word.extend([-s for s in ref_word] if ref.negate else ref_word)
    return word


def _sign_words(spec: FoldSpec):
    return _unfold(spec, list, _append_sign, _extend_signs)


def iterate_fold(spec, n: int) -> list[int]:
    """The sign word w_n as a list over {+1, -1}; refused past MAX_SIGN_WORD_LETTERS."""
    spec = resolve_spec(spec)
    if n < 0:
        raise ValueError("n must be >= 0")
    if _passes_letter_cap(spec, n):
        raise ValueError(f"w_{n} would pass the cap of {MAX_SIGN_WORD_LETTERS} letters")
    return next(islice(_sign_words(spec), n, None))


def _passes_letter_cap(spec: FoldSpec, n: int) -> bool:
    """Whether |w_n| > MAX_SIGN_WORD_LETTERS, from lengths saturating at the cap + 1;
    stops once max_depth successive words pass it, as every later word contains one."""
    top, run = MAX_SIGN_WORD_LETTERS + 1, 0
    lengths = _unfold(spec, int, lambda k, s: min(k + 1, top), lambda k, r, ref: min(k + r, top))
    for m, length in enumerate(islice(lengths, n + 1)):
        run = run + 1 if length == top and m >= len(spec.bases) else 0
        if run and run == spec.max_depth():
            return True
    return length == top


def word_lengths(spec, n: int) -> list[int]:
    """Lengths of w_0..w_n, from the recursion (no words materialized)."""
    spec = resolve_spec(spec)
    lengths = _unfold(spec, int, lambda k, s: k + 1, lambda k, ref_k, ref: k + ref_k)
    return list(islice(lengths, max(n + 1, 0)))


def _continuant_images(spec: FoldSpec, x):
    """(continuant matrix, length) of w_0, w_1, ... with x the ring image of
    the letter x.  Negated references use N(-w) = (-1)^len(w) D N(w) D with
    D = diag(1, -1), which is exact for Key Lemma products; reversal is the
    transpose."""
    minus_x = -x

    def letter(acc, s):
        mat, length = acc
        return mat.push(x if s > 0 else minus_x), length + 1

    def join(acc, image, ref):
        (mat, length), (ref_mat, ref_len) = acc, image
        if ref.reverse:
            ref_mat = ref_mat.transpose()
        if ref.negate:
            ref_mat = ref_mat.conjugate_sign()
            if ref_len % 2:
                ref_mat = ref_mat.scale(-1)
        return mat.mul(ref_mat), length + ref_len

    return _unfold(spec, lambda: (_identity_like(x), 0), letter, join)


class FoldEngine:
    """Computes continuants of w_n for a fold spec over an arbitrary ring.

    ``x`` is the ring image of the letter x.  Levels are pulled from the
    fold-rule interpreter on demand and cached.
    """

    def __init__(self, spec, x):
        self.spec = resolve_spec(spec)
        self.x = x
        self._images = _continuant_images(self.spec, x)
        self._cache: list = []

    def matrix(self, n: int) -> ContinuantMatrix:
        """Continuant matrix of the headless word w_n (Key Lemma product)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        while len(self._cache) <= n:
            self._cache.append(next(self._images))
        return self._cache[n][0]

    def with_head(self, n: int, head) -> ContinuantMatrix:
        """Continuant matrix of [head; w_n]: the Key Lemma factor of the head
        pushed on the left, as a right push on the transpose."""
        return self.matrix(n).transpose().push(head).transpose()


def fold_continuants(spec, n: int, head: Polynomial | None = None) -> ContinuantMatrix:
    """Continuants of [head; w_n] over Q[x] (head defaults to rho's s_n)."""
    return FoldEngine(spec, Polynomial.x()).with_head(n, rho_head(n) if head is None else head)


def rho_head(n: int) -> Polynomial:
    """s_n = 1 for even n, 1 + x for odd n."""
    return Polynomial.one() if n % 2 == 0 else Polynomial([1, 1])


def fold_continuants_series(spec, n: int, order: int, head=None) -> ContinuantMatrix:
    """Continuants computed in the truncated-series ring (prefix-exact)."""
    engine = FoldEngine(spec, TruncatedSeries.x(order))
    return engine.matrix(n) if head is None else engine.with_head(n, head)


def fold_value(spec, n: int, x, head=None):
    """p/q of [head; w_n] (or of w_n alone) at a scalar x, exactly."""
    engine = FoldEngine(spec, x)
    return (engine.matrix(n) if head is None else engine.with_head(n, head)).ratio()


# ---------------------------------------------------------------------------
# Specialization to regular continued fractions.
# ---------------------------------------------------------------------------

_X = Polynomial.x()
_ONE = Polynomial.one()


def specialize(head: Polynomial, word: list[int]) -> Word:
    """Rewrite [head; (+-x)*] as a regular CF by repeated ripple steps.

    Scans left to right applying the exact identities
    [.., a, -y, z, ..] -> [.., a-1, 1, y-1, -z, ..] and, at the tail,
    [.., a, -y] -> [.., a-1, 1, y-1], so the value is preserved by
    construction.  Each ripple negates the remaining letters; that is
    tracked with a parity flag to keep the rewrite linear time.  The
    resulting partial quotients lie in {head, head-1, 1, x-2, x-1, x} and
    the length grows by at most the number of sign changes.
    """
    if not isinstance(head, Polynomial):
        head = Polynomial.constant(head)
    out: list[Polynomial] = [head]
    flipped = False
    x_minus_1 = _X - _ONE
    for s in word:
        effective = -s if flipped else s
        if effective > 0:
            out.append(_X)
        else:
            out[-1] = out[-1] - _ONE
            out.append(_ONE)
            out.append(x_minus_1)
            flipped = not flipped
    return Word(tuple(out[1:]), out[0])


def word_to_cf(head: Polynomial, word: list[int]) -> Word:
    """[head; signs * x] as a Word over Q[x]."""
    if not isinstance(head, Polynomial):
        head = Polynomial.constant(head)
    return Word(tuple(_X if s > 0 else -_X for s in word), head)


def specialized_digits(spec, n: int, x_value: int, count: int) -> list[int]:
    """First ``count`` integer partial quotients (head included) of the
    specialized CF of w_n evaluated at an integer x."""
    word = iterate_fold(spec, n)
    sp = specialize(rho_head(n), word)
    out = []
    for sym in sp.symbols():
        out.append(int(sym(x_value)))
        if len(out) >= count:
            break
    return out


# ---------------------------------------------------------------------------
# Generating functions of the sign words; the I/J system.
# ---------------------------------------------------------------------------


class StabilizationError(RuntimeError):
    pass


# A sign word is a Python list, 8 bytes a letter; iterate_fold and the walk
# below refuse to build a longer word (64 MiB) rather than exhaust memory.
MAX_SIGN_WORD_LETTERS = 1 << 23


def sign_generating_functions(spec, order: int, max_iter: int = 64):
    """(even-limit, odd-limit) coefficient prefixes of the word sequence.

    Walks the levels until two successive words of each parity agree on the
    first order+1 letters and are long enough; raises StabilizationError
    otherwise: after ``max_iter`` levels, or before building a word of more
    than MAX_SIGN_WORD_LETTERS letters.
    """
    spec = resolve_spec(spec)
    need = order + 1
    prev: dict[int, list[int]] = {}
    stable: dict[int, list[int]] = {}
    words = _sign_words(spec)
    for n, length in enumerate(word_lengths(spec, max_iter - 1)):
        if length > MAX_SIGN_WORD_LETTERS:
            raise StabilizationError(
                f"word prefixes did not stabilize to order {order} before word {n}, "
                f"whose {length} letters pass the cap of {MAX_SIGN_WORD_LETTERS}"
            )
        w = next(words)
        par = n % 2
        if par in prev and len(prev[par]) >= need and len(w) >= len(prev[par]):
            if w[:need] == prev[par][:need] and par not in stable:
                stable[par] = w[:need]
        prev[par] = w
        if 0 in stable and 1 in stable:
            return (
                TruncatedSeries(stable[0], order),
                TruncatedSeries(stable[1], order),
            )
    raise StabilizationError(
        f"word prefixes did not stabilize to order {order} within {max_iter} iterations"
    )


def rho_word_equations(order: int):
    """Residuals of both Mahler equations for rho's word GFs, denominators
    cleared to polynomials: returns (residual_F, residual_G) TruncatedSeries.

    F(x) = x^2 F(x^4) - 2x^6/(1+x^8) + 1/(1+x^4) + x/(1+x^2)
    G(x) = x^4 G(x^4) - (1-x^8)/(1+x^8) + x^2/(1+x^4) - x/(1+x^2)
    """
    f, g = sign_generating_functions("rho", order)
    m = Polynomial([1, 0, 1])  # 1+x^2
    m4 = m.substitute_power(2)  # 1+x^4
    m8 = m.substitute_power(4)  # 1+x^8
    clear = m * m4 * m8
    x = Polynomial.x()
    res_f = (f - f.substitute_power(4).shift(2)) * clear - (
        -2 * (x**6) * m * m4 + m * m8 + x * m4 * m8
    )
    res_g = (g - g.substitute_power(4).shift(4)) * clear - (
        -(1 - x**8) * m * m4 + (x**2) * m * m8 - x * m4 * m8
    )
    return res_f, res_g


def tilde_transforms(order: int):
    """(F~, G~): F~ = F - x/(1+x^2), G~ = -G - x/(1+x^2); both are even."""
    f, g = sign_generating_functions("rho", order)
    odd = TruncatedSeries.x(order) / Polynomial([1, 0, 1])
    return f - odd, -g - odd


@dataclass(frozen=True)
class IJReport:
    order: int
    # lowest index where a residual is nonzero or I/J leaves {0, ±1}
    first_failure: int | None

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def ij_series(order: int):
    """The {0,±1}-series I, J with I(x^2) = x^2 F~(x^3), J(x^2) = x^4 G~(x^3).

    Equivalently: I's coefficient at 3k+1 is F~'s at 2k, J's at 3k+2 is G~'s
    at 2k, zeros elsewhere.
    """
    src_order = 2 * ((order + 2) // 3) + 2
    ft, gt = tilde_transforms(src_order)
    i_coeffs = [0] * (order + 1)
    j_coeffs = [0] * (order + 1)
    for k in range(order // 3 + 1):
        if 3 * k + 1 <= order and 2 * k <= ft.order:
            i_coeffs[3 * k + 1] = ft.coeffs[2 * k]
        if 3 * k + 2 <= order and 2 * k <= gt.order:
            j_coeffs[3 * k + 2] = gt.coeffs[2 * k]
    return TruncatedSeries(i_coeffs, order), TruncatedSeries(j_coeffs, order)


def ij_system_check(order: int) -> IJReport:
    """Verify I(x) = J(x^2) + x/(1+x^6), J(x) = I(x^2) - x^5/(1+x^6) and the
    once-iterated forms, exactly to the given order."""
    i_s, j_s = ij_series(order)
    g6 = TruncatedSeries.one(order) / (1 + Polynomial.monomial(6))
    g12 = TruncatedSeries.one(order) / (1 + Polynomial.monomial(12))
    eq1 = i_s - (j_s.substitute_power(2) + g6.shift(1))
    eq2 = j_s - (i_s.substitute_power(2) - g6.shift(5))
    it1 = i_s - (i_s.substitute_power(4) + g6.shift(1) - g12.shift(10))
    it2 = j_s - (j_s.substitute_power(4) - g6.shift(5) + g12.shift(2))
    nonzero = (i for r in (eq1, eq2, it1, it2) for i, c in enumerate(r.coeffs) if c)
    out_of_range = (i for s in (i_s, j_s) for i, c in enumerate(s.coeffs) if c not in (0, 1, -1))
    return IJReport(order, min(chain(nonzero, out_of_range), default=None))


def signed_even_subword(word: list[int]) -> list[int]:
    """e_n: the even-index letters with alternating twist (-1)^m w[2m]."""
    return [(-1) ** m * word[2 * m] for m in range(len(word) // 2)]


# ---------------------------------------------------------------------------
# Special recursions: P/Q polynomials.
# ---------------------------------------------------------------------------


class NotSpecialError(ValueError):
    pass


def _is_special(spec: FoldSpec) -> bool:
    """One empty base and the rule w1, c, -~w1, c, w1, ... with at least two
    references and constants c in {x, -x}."""
    rule = spec.rule
    if spec.bases != ((),) or len(rule) < 3 or len(rule) % 2 == 0:
        return False
    refs_ok = all(
        ref == RuleRef(1, reverse=bool(i % 2), negate=bool(i % 2)) for i, ref in enumerate(rule[::2])
    )
    return refs_ok and all(isinstance(c, RuleConst) and not c.parity for c in rule[1::2])


# Levels up to this many letters are checked over Q[x]; past it continuant
# coefficients grow doubly fast, so longer levels get the light checks.
SPECIAL_FULL_LETTERS = 4096


def special_recursion_polys(spec) -> tuple[Polynomial, Polynomial]:
    """P, Q in Z[y] with p_n = p~ P(x p~) and q_n = q~ P(x p~) + Q(x p~).

    p~, q~ are the previous level's continuants.  P and Q are read off level
    2 as base-(x p~) expansions (``_solve_in_powers``).  Negating every
    level's continuants (a global sign) maps P(y), Q(y) to P(-y), Q(-y), so
    the pair is normalized by y -> -y to make P's leading coefficient
    positive; a P of even degree with a negative leading coefficient has no
    such normalization and is refused.  The relations are verified exactly over
    Q[x] at levels 2..4; a level longer than SPECIAL_FULL_LETTERS (4096)
    letters is instead checked at the integer points x = 2 and x = 3 and as
    a series prefix to order 64.
    """
    spec = resolve_spec(spec)
    if not _is_special(spec):
        raise NotSpecialError(f"spec is not special: {spec.pretty()}")
    r = sum(1 for it in spec.rule if isinstance(it, RuleRef))
    lengths = word_lengths(spec, 4)
    engine = FoldEngine(spec, Polynomial.x())
    light = [FoldEngine(spec, 2), FoldEngine(spec, 3), FoldEngine(spec, TruncatedSeries.x(64))]
    checks = [
        (e, n)
        for n in (2, 3, 4)
        for e in ([engine] if lengths[n] <= SPECIAL_FULL_LETTERS else light)
    ]
    mat, prev = engine.matrix(2), engine.matrix(1)
    arg = _X * prev.p
    P = _solve_in_powers(mat.p, prev.p, arg, r - 1)
    Q = None if P is None else _solve_in_powers(mat.q - prev.q * P(arg), _ONE, arg, r - 2)
    if (
        Q is None
        or (P.coeffs[-1] < 0 and P.degree % 2 == 0)
        or not all(_special_holds(e, n, P, Q) for e, n in checks)
    ):
        raise NotSpecialError("could not solve for P, Q with a consistent sign")
    return (P(-_X), Q(-_X)) if P.coeffs[-1] < 0 else (P, Q)


def _special_holds(engine: FoldEngine, n: int, P: Polynomial, Q: Polynomial) -> bool:
    """The special relations between levels n-1 and n in the engine's ring."""
    mat, prev = engine.matrix(n), engine.matrix(n - 1)
    arg = engine.x * prev.p
    at = P(arg)
    return mat.p == prev.p * at and mat.q == prev.q * at + Q(arg)


def _solve_in_powers(target: Polynomial, factor: Polynomial, arg: Polynomial, deg: int):
    """The P of degree <= deg with target = factor * P(arg), or None.

    arg(0) = 0, so the powers of arg have distinct valuations and
    target / factor has at most one base-arg expansion: its digits are the
    constant terms left by exact division by arg, one digit at a time.
    """
    rest, rem = divmod(target, factor)
    digits = []
    for _ in range(deg + 1):
        if rem:
            return None
        digits.append(rest.coeff(0))
        rest, rem = divmod(rest - digits[-1], arg)
    return None if rem or rest else Polynomial(digits)


# ---------------------------------------------------------------------------
# Specializability of iterated-polynomial continued fractions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecializableReport:
    mode: str
    specializable: bool
    checked_up_to: int
    fails_at: int | None = None
    witness: Polynomial | None = None


class DegreeCapExceeded(RuntimeError):
    def __init__(self, degree: int, cap: int):
        super().__init__(f"iterated polynomial degree {degree} exceeds cap {cap}")
        self.degree = degree


def specializable_iterated(
    f: Polynomial, mode: str, n_max: int, degree_cap: int = 4096
) -> SpecializableReport:
    """Check whether the CF of sum 1/f^m(x) (cohn_sum) or of the irregular
    x + f(x)/1 + f^2(x)/1 + ... (irregular) has all partial quotients in Z[x].
    """
    if f.degree < 2:
        raise ValueError("deg f must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mode not in ("cohn_sum", "irregular"):
        raise ValueError(f"unknown mode {mode!r}")
    iterates = [Polynomial.x()]
    for _ in range(n_max):
        nxt = f(iterates[-1])
        if nxt.degree > degree_cap:
            raise DegreeCapExceeded(nxt.degree, degree_cap)
        iterates.append(nxt)
    for n in range(1, n_max + 1):
        if mode == "cohn_sum":
            value = RationalFunction.constant(0)
            for m in range(n, -1, -1):
                value = value + RationalFunction(Polynomial.one(), iterates[m])
        else:
            pairs = tuple((iterates[m], Polynomial.one()) for m in range(1, n + 1))
            value = eval_irregular(
                IrregularCF(Polynomial.x(), pairs), RationalFunction.x()
            )
        word = euclid_cf(value)
        for sym in word.symbols():
            if not sym.is_integer():
                return SpecializableReport(mode, False, n_max, fails_at=n, witness=sym)
    return SpecializableReport(mode, True, n_max)


COHN_CONGRUENCES: tuple[tuple[str, str], ...] = (
    ("0", "x^2"),
    ("-x", "x^2"),
    ("1", "x^2*(x-1)"),
    ("-1", "x^2*(x+1)"),
    ("x^3-x^2-x+1", "x^2*(x-1)^2"),
    ("-x^3+2*x^2-x+1", "x^2*(x-1)^2"),
    ("-x^3+3*x^2-2*x+1", "x^2*(x-1)^2"),
    ("x^3+x^2-x-1", "x^2*(x+1)^2"),
    ("-x^3-2*x^2-x-1", "x^2*(x+1)^2"),
    ("-x^3-3*x^2-2*x-1", "x^2*(x+1)^2"),
    ("x^2-x+1", "x^2*(x-1)^2"),
    ("x^2-2*x+1", "x^2*(x-1)^2"),
    ("-x^2-x-1", "x^2*(x+1)^2"),
    ("-x^2-2*x-1", "x^2*(x+1)^2"),
)


def cohn_congruence_test(f: Polynomial) -> list[int]:
    """1-based ids of the fourteen congruences satisfied by f (may be empty)."""
    if f.degree < 2:
        raise ValueError("deg f must be >= 2")
    from .poly import parse_poly

    matches = []
    for i, (rhs, modulus) in enumerate(COHN_CONGRUENCES, start=1):
        if (f - parse_poly(rhs)) % parse_poly(modulus) == Polynomial.zero():
            matches.append(i)
    return matches
