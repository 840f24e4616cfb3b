"""Fold-recursion DSL, sign words, specialization and specializability tests.

A fold spec declares base words over the alphabet {+x, -x} and a rule that
builds word n from words n-1 .. n-D using constants (x, -x, and the
parity-signed (-1)^n * x), references, reversals and negations.  One walker,
``_unfold``, is the only interpreter of that rule: sign words, word lengths
and continuant matrices are its images of the words under different maps of a
letter (a sign, a count, a Key Lemma step).  Continuant matrices are thus
computed through the recursion itself, so they stay cheap even when the words
grow exponentially; the computation is generic over the coefficient ring
(polynomials, truncated series, exact rationals, ints, big floats).  Each run
U, c, -~U of a rule (dragon, rho, cubic and quintic have one) is found when
the spec is built.  Words and lengths read a rule from the left; matrices read
it from the right, multiplying each item's factor on the left, so a run costs
the Folding Lemma's two squares and one product, and a check that reads only
(p, q) pushes e1 through the rule at four products a run.
"""

from __future__ import annotations

import re
from array import array
from collections import deque
from itertools import chain, count, islice
from typing import NamedTuple

from .contfrac import ContinuantMatrix, IrregularCF, _identity_like, euclid_cf, eval_irregular, fold_matrix, regular_cf
from .poly import Polynomial, RationalFunction, _Record, check_size
from .series import TruncatedSeries


class FoldSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# Rule items are NamedTuples, so each equals any tuple of the same values; _find_folds
# therefore compares items by type as well as by value.
class RuleConst(NamedTuple):
    sign: int  # +1 or -1
    parity: bool = False  # True: the letter is sign * (-1)^n * x

    def pretty(self) -> str:
        s = "-" if self.sign < 0 else ""
        return f"{s}s*x" if self.parity else f"{s}x"


class RuleRef(NamedTuple):
    depth: int  # refers to word n - depth
    reverse: bool = False
    negate: bool = False

    def pretty(self) -> str:
        return ("-" if self.negate else "") + ("~" if self.reverse else "") + f"w{self.depth}"


class RuleFold(NamedTuple):
    u: tuple  # the run U, const, -~U, with U's own runs folded
    const: RuleConst


def _mirror(it):
    """-~ of a rule item: a letter negated, a reference reversed and negated."""
    if isinstance(it, RuleConst):
        return RuleConst(-it.sign, it.parity)
    return RuleRef(it.depth, not it.reverse, not it.negate)


def _find_folds(rule: tuple) -> tuple:
    """The rule with each run U, c, -~U (U led by a reference, the longest U
    first, left to right) replaced by a RuleFold."""
    out, i = [], 0
    while i < len(rule):
        runs = (
            k for k in range((len(rule) - i - 1) // 2, 0, -1)
            if isinstance(rule[i + k], RuleConst)
            and all(type(a) is type(b) and a == _mirror(b)
                    for a, b in zip(rule[i + k + 1 :], reversed(rule[i : i + k])))
        )
        k = next(runs, 0) if isinstance(rule[i], RuleRef) else 0
        out.append(RuleFold(_find_folds(rule[i : i + k]), rule[i + k]) if k else rule[i])
        i += 2 * k + 1
    return tuple(out)


def _column_closed(items: tuple) -> bool:
    """Whether every reference is unreversed and last in the rule or in a
    fold's U, so a level's first column needs only those of earlier levels."""
    return all(
        isinstance(it, RuleConst)
        or (isinstance(it, RuleFold) and _column_closed(it.u))
        or (i == len(items) - 1 and isinstance(it, RuleRef) and not it.reverse)
        for i, it in enumerate(items)
    )


class FoldSpec(_Record):
    """Base words and a rule; ``folds`` is the rule with its runs folded."""

    __slots__ = ("bases", "rule", "folds")

    def __init__(self, bases: tuple[tuple[int, ...], ...], rule: tuple):
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "rule", rule)
        if not rule:
            raise ValueError("rule must be non-empty")
        depth = self.max_depth()
        if depth > len(bases):
            raise ValueError(f"rule refers {depth} levels back but only {len(bases)} bases are declared")
        object.__setattr__(self, "folds", _find_folds(rule))

    def _key(self) -> tuple:  # equal, hashed and shown by bases and rule; folds follow from them
        return self.bases, self.rule

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


def _unfold(spec: FoldSpec, empty, letter, join, fold=None, step: int = 1):
    """Yield the images of w_0, w_1, ... under a map that respects the rule.

    The one interpreter of the fold rule.  ``empty()`` is a fresh image of
    the empty word, ``letter(acc, s)`` adds the letter s*x (s = +1 or -1)
    to an image and ``join(acc, image, ref)`` adds the image of a word
    reversed and negated as the RuleRef ``ref`` says; ``fold(acc, image, s)``,
    if given, adds a run U, s*x, -~U of ``spec.folds`` from U's image.  Items
    are added at the right end, or with ``step=-1`` read from the right end and
    added at the left.  Only the images that the rule can still refer to (the
    last ``max_depth``) are kept.
    """
    window: deque = deque(maxlen=max(spec.max_depth(), 1))
    rule = spec.folds if fold else spec.rule
    for m in count():
        items = tuple(map(RuleConst, spec.bases[m])) if m < len(spec.bases) else rule
        window.append(_read(items, m, window, (empty, letter, join, fold, step)))
        yield window[-1]


def _read(items, m: int, window, maps):
    """The image of ``items`` in word m (see ``_unfold``)."""
    empty, letter, join, fold, step = maps
    acc = empty()
    for it in items[::step]:
        if isinstance(it, RuleFold):
            c = it.const
            acc = fold(acc, _read(it.u, m, window, maps), -c.sign if c.parity and m % 2 else c.sign)
        elif isinstance(it, RuleConst):
            acc = letter(acc, -it.sign if it.parity and m % 2 else it.sign)
        else:
            acc = join(acc, window[-it.depth], it)
    return acc


def _append_sign(word: array, s: int) -> array:
    word.append(s)
    return word


def _extend_signs(word: array, ref_word: array, ref: RuleRef) -> array:
    if ref.reverse:
        ref_word = ref_word[::-1]
    word.extend(negated(ref_word) if ref.negate else ref_word)
    return word


def _sign_words(spec: FoldSpec):
    return _unfold(spec, lambda: array("b"), _append_sign, _extend_signs)


_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # +1 and -1 as signed bytes, swapped


def negated(word: array) -> array:
    """The sign word with every letter negated."""
    return array("b", word.tobytes().translate(_NEGATE))


def iterate_fold(spec, n: int) -> array:
    """The sign word w_n as an array('b') over {+1, -1}; refused past MAX_SIGN_WORD_LETTERS."""
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


def _matrix_images(spec: FoldSpec, x):
    """(continuant matrix, length) of w_0, w_1, ... with x the ring image of
    the letter x.  Each rule is read from its right end and each item's
    factor multiplies the accumulator from the left: a letter t is
    (t, 1; 1, 0), a reference its word's matrix (transposed if reversed; if
    negated, N(-w) = (-1)^len(w) D N(w) D with D = diag(1, -1), exact for Key
    Lemma products) and a run U, t, -~U ``fold_matrix`` of U's first column,
    at two squares and one product.  The accumulator starts at I; for a
    column-closed spec it starts at e1 = (1, 0; 0, 0) instead, so each
    reference is read first, as its own column, the second column stays
    zero, and a run is st (a; c)(a, -c) + J with (a, c) U's column and
    J = (0, 1; 1, 0): four products of (a, c) with the column.
    """
    minus_x, start = -x, _identity_like(x)
    zero = start.p_prev
    column = _column_closed(spec.folds)
    if column:
        start = ContinuantMatrix(start.p, zero, zero, zero)

    def times(acc, mat, length):
        return (mat if acc[0] is start else mat.mul(acc[0])), acc[1] + length

    def letter(acc, s):
        (m, length), t = acc, x if s > 0 else minus_x
        second = m.p_prev if column else t * m.p_prev + m.q_prev  # a column read keeps it zero
        return ContinuantMatrix(t * m.p + m.q, second, m.p, m.p_prev), length + 1

    def join(acc, image, ref):
        ref_mat, ref_len = image
        if ref.reverse:
            ref_mat = ref_mat.transpose()
        if ref.negate:
            ref_mat = ref_mat.conjugate_sign()
            if ref_len % 2:
                ref_mat = ref_mat.scale(-1)
        return times(acc, ref_mat, ref_len)

    def fold(acc, image, s):
        (m, length), (u, u_len) = acc, image
        if not column:
            return times(acc, fold_matrix(u.p, u.q, u_len, x if s > 0 else minus_x), 2 * u_len + 1)
        w = (x if (s > 0) ^ (u_len % 2) else minus_x) * (u.p * m.p - u.q * m.q)  # st (a v1 - c v2)
        return ContinuantMatrix(u.p * w + m.q, zero, u.q * w + m.p, zero), length + 2 * u_len + 1

    return _unfold(spec, lambda: (start, 0), letter, join, fold, step=-1)


class FoldEngine:
    """Computes continuants of w_n for a fold spec over an arbitrary ring.

    ``x`` is the ring image of the letter x.  Levels are pulled from the
    fold-rule interpreter (``_matrix_images``) on demand and cached, each rule
    read from the right.  Only the first column (p, q) of each matrix is
    promised: for a column-closed spec (rho, dragon) the engine pushes e1
    through each rule, so every operand is a column and the second column is
    zero; for any other spec the matrices are whole.
    """

    def __init__(self, spec, x):
        self.spec = resolve_spec(spec)
        self.x = x
        self._images = _matrix_images(self.spec, x)
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
        times that of w_n."""
        return ContinuantMatrix(head, 1, 1, 0).mul(self.matrix(n))


def fold_continuants(spec, n: int) -> ContinuantMatrix:
    """Continuants p, q of [s_n; w_n] over Q[x], with s_n rho's head: the first
    column of ``FoldEngine``'s matrix, whose second column may be zero."""
    return FoldEngine(spec, Polynomial.x()).with_head(n, rho_head(n))


def rho_head(n: int) -> Polynomial:
    """s_n = 1 for even n, 1 + x for odd n."""
    return Polynomial.one() if n % 2 == 0 else Polynomial([1, 1])


# ---------------------------------------------------------------------------
# Specialization to regular continued fractions.
# ---------------------------------------------------------------------------

_X = Polynomial.x()
_ONE = Polynomial.one()


def specialize(head: Polynomial, word: list[int]) -> IrregularCF:
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
    return regular_cf(out)


# ---------------------------------------------------------------------------
# Generating functions of the sign words; the I/J system.
# ---------------------------------------------------------------------------


class StabilizationError(ValueError):
    pass


# A sign word is an array('b'), 1 byte a letter; iterate_fold and the walk
# below refuse to build a longer word (8 MiB) rather than exhaust memory.
MAX_SIGN_WORD_LETTERS = 1 << 23
MAX_GF_LEVELS = 64
MAX_ITERATE_DEGREE_LOG2 = 12  # fold cohn: deg f^n_max <= 4096


def sign_generating_functions(spec, order: int):
    """(even-limit, odd-limit) coefficient prefixes of the word sequence.

    Walks the levels until two successive words of each parity agree on the
    first order+1 letters and are long enough; raises StabilizationError
    otherwise: after MAX_GF_LEVELS levels, or before building a word of more
    than MAX_SIGN_WORD_LETTERS letters.
    """
    spec = resolve_spec(spec)
    need = order + 1
    prev: dict[int, array] = {}
    stable: dict[int, array] = {}
    words = _sign_words(spec)
    for n, length in enumerate(word_lengths(spec, MAX_GF_LEVELS - 1)):
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
        f"word prefixes did not stabilize to order {order} within {MAX_GF_LEVELS} iterations"
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


class IJReport(NamedTuple):
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
    i_coeffs, j_coeffs = [0] * (order + 1), [0] * (order + 1)
    i_coeffs[1::3] = ft.coeffs[::2][: (order + 2) // 3]  # ft, gt reach far enough
    j_coeffs[2::3] = gt.coeffs[::2][: (order + 1) // 3]
    return TruncatedSeries._of(tuple(i_coeffs), order), TruncatedSeries._of(tuple(j_coeffs), order)


def ij_system_check(order: int) -> IJReport:
    """Verify I(x) = J(x^2) + x/(1+x^6), J(x) = I(x^2) - x^5/(1+x^6) and the
    once-iterated forms, exactly to the given order."""
    i_s, j_s = ij_series(order)
    g6 = TruncatedSeries.one(order) / (1 + Polynomial.monomial(6))
    g12 = TruncatedSeries.one(order) / (1 + Polynomial.monomial(12))
    firsts = (  # each right side is built, compared and dropped in turn
        i_s.first_difference(j_s.substitute_power(2) + g6.shift(1)),
        j_s.first_difference(i_s.substitute_power(2) - g6.shift(5)),
        i_s.first_difference(i_s.substitute_power(4) + g6.shift(1) - g12.shift(10)),
        j_s.first_difference(j_s.substitute_power(4) - g6.shift(5) + g12.shift(2)),
    )
    units = {0, 1, -1}
    out_of_range = (i for s in (i_s, j_s) if not units.issuperset(s.coeffs)
                    for i, c in enumerate(s.coeffs) if c not in units)
    return IJReport(order, min(chain((i for i in firsts if i is not None), out_of_range), default=None))


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
    light = [FoldEngine(spec, x) for x in (2, 3, TruncatedSeries.x(64))]
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


class SpecializableReport(NamedTuple):
    mode: str
    specializable: bool
    checked_up_to: int
    fails_at: int | None = None
    witness: Polynomial | None = None


def specializable_iterated(f: Polynomial, mode: str, n_max: int) -> SpecializableReport:
    """Check whether the CF of sum 1/f^m(x) (cohn_sum) or of the irregular
    x + f(x)/1 + f^2(x)/1 + ... (irregular) has all partial quotients in Z[x].
    An n_max whose last iterate passes degree 2^MAX_ITERATE_DEGREE_LOG2 is
    refused before any work; the iterate f^n is composed when level n is checked.
    """
    if f.degree < 2:
        raise ValueError("deg f must be >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mode not in ("cohn_sum", "irregular"):
        raise ValueError(f"unknown mode {mode!r}")
    for m in range(1, n_max + 1):  # deg f^m = (deg f)^m, past the cap by m = 13 at the latest
        check_size("iterated polynomial degree", f.degree**m, MAX_ITERATE_DEGREE_LOG2)
    iterates = [Polynomial.x()]
    for n in range(1, n_max + 1):
        iterates.append(f(iterates[-1]))
        if mode == "cohn_sum":
            value = RationalFunction.constant(0)
            for m in range(n, -1, -1):
                value = value + RationalFunction(Polynomial.one(), iterates[m])
        else:
            pairs = tuple((iterates[m], Polynomial.one()) for m in range(1, n + 1))
            value = eval_irregular(
                IrregularCF(Polynomial.x(), pairs), RationalFunction.x()
            )
        cf = euclid_cf(value)
        for sym in (cf.head, *cf.entries):
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
