from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mahlerfold import folding
from mahlerfold.contfrac import Word, _identity_like, continuants, euclid_cf
from mahlerfold.folding import (
    FoldEngine,
    FoldSpec,
    FoldSyntaxError,
    NotSpecialError,
    RuleConst,
    RuleFold,
    RuleRef,
    StabilizationError,
    cohn_congruence_test,
    fold_continuants,
    fold_continuants_series,
    ij_series,
    ij_system_check,
    iterate_fold,
    named_spec,
    parse_fold_spec,
    rho_head,
    rho_word_equations,
    sign_generating_functions,
    signed_even_subword,
    special_recursion_polys,
    specializable_iterated,
    specialize,
    specialized_digits,
    word_lengths,
    word_to_cf,
)
from mahlerfold.poly import Polynomial, RationalFunction, parse_poly
from mahlerfold.series import TruncatedSeries, truncated_partial

P = Polynomial


# -- reference implementations ------------------------------------------------

def literal_words(spec: FoldSpec, n: int) -> list[list[int]]:
    """w_0..w_n by the literal per-level recursion over whole words."""
    words = [list(b) for b in spec.bases]
    for m in range(len(spec.bases), n + 1):
        out: list[int] = []
        for it in spec.rule:
            if isinstance(it, RuleConst):
                out.append(it.sign * (-1 if (it.parity and m % 2) else 1))
            else:
                w = words[m - it.depth]
                if it.reverse:
                    w = w[::-1]
                if it.negate:
                    w = [-s for s in w]
                out.extend(w)
        words.append(out)
    return words[: n + 1]


def mul_path_matrices(spec: FoldSpec, x, n: int) -> list:
    """M(w_0..w_n) over the ring of x with one ContinuantMatrix.mul per
    reference: the rule read item by item, without the Folding Lemma."""
    minus_x = -x

    def letter(acc, s):
        return acc[0].push(x if s > 0 else minus_x), acc[1] + 1

    def join(acc, image, ref):
        ref_mat, ref_len = image
        if ref.reverse:
            ref_mat = ref_mat.transpose()
        if ref.negate:
            ref_mat = ref_mat.conjugate_sign()
            if ref_len % 2:
                ref_mat = ref_mat.scale(-1)
        return acc[0].mul(ref_mat), acc[1] + ref_len

    images = folding._unfold(spec, lambda: (_identity_like(x), 0), letter, join)
    return [mat for mat, _ in islice(images, n + 1)]


def specialize_by_slicing(head: Polynomial, word: list[int]) -> Word:
    """Reference ripple implementation with literal tail negation (O(L^2));
    kept as an independent cross-check of :func:`specialize`."""
    if not isinstance(head, Polynomial):
        head = Polynomial.constant(head)
    seq: list[Polynomial] = [head] + [P.x() if s > 0 else -P.x() for s in word]
    i = 1
    while i < len(seq):
        if _is_negative_lead(seq[i]):
            y = -seq[i]
            seq[i - 1] = seq[i - 1] - P.one()
            tail = [-z for z in seq[i + 1 :]]
            seq = seq[:i] + [P.one(), y - P.one()] + tail
            i += 2  # inserted entries are positive; the negated tail may not be
        else:
            i += 1
    return Word(tuple(seq[1:]), seq[0])


def _is_negative_lead(p: Polynomial) -> bool:
    return bool(p.coeffs) and p.coeffs[-1] < 0


def specialize_three_step(head: Polynomial, word: list[int]) -> Word:
    """The insert-1 / drop-signs / subtract-neighbours shortcut.

    Only defined for words whose first letter is +x; used as an independent
    cross-check of :func:`specialize`.
    """
    if not isinstance(head, Polynomial):
        head = Polynomial.constant(head)
    if not word:
        return Word((), head)
    if word[0] < 0:
        raise ValueError("three-step shortcut requires a leading +x")
    marked: list[int | None] = []  # None marks an inserted 1
    for i, s in enumerate(word):
        marked.append(s)
        if i + 1 < len(word) and word[i + 1] != s:
            marked.append(None)
    entries = []
    for i, v in enumerate(marked):
        if v is None:
            entries.append(P.one())
        else:
            drop = (i > 0 and marked[i - 1] is None) + (
                i + 1 < len(marked) and marked[i + 1] is None
            )
            entries.append(P.x() - drop)
    return Word(tuple(entries), head)


# -- DSL ----------------------------------------------------------------------

def test_parse_rho_spec():
    spec = parse_fold_spec("bases:[],[] ; rule: w2, s*x, -~w2, s*x, w1")
    assert spec.bases == ((), ())
    assert spec.rule == (
        RuleRef(2),
        RuleConst(1, parity=True),
        RuleRef(2, reverse=True, negate=True),
        RuleConst(1, parity=True),
        RuleRef(1),
    )
    assert spec == named_spec("rho")


def test_parse_dragon_spec():
    spec = parse_fold_spec("bases:[] ; rule: w1, x, -~w1")
    assert spec == named_spec("dragon")


def test_parse_unknown_token():
    with pytest.raises(FoldSyntaxError) as err:
        parse_fold_spec("rule: w1, q3, x")
    assert "q3" in str(err.value)


def test_parse_depth_exceeds_bases():
    with pytest.raises(ValueError):
        parse_fold_spec("bases:[] ; rule: w2, x")


def test_pretty_roundtrip():
    for name in ("dragon", "rho", "cubic", "quintic", "rational-ex"):
        spec = named_spec(name)
        assert parse_fold_spec(spec.pretty()) == spec


def test_parse_base_signs():
    spec = parse_fold_spec("bases:[+,-,+] ; rule: w1, x")
    assert spec.bases == ((1, -1, 1),)


# -- word iteration -----------------------------------------------------------

def test_rho_word_n4():
    assert list(iterate_fold("rho", 4)) == [1, 1, 1, -1, -1, 1, -1, -1, 1, 1]


def test_rho_word_lengths():
    assert word_lengths("rho", 5) == [0, 0, 2, 4, 10, 20]
    lens = word_lengths("rho", 14)
    for n, k in enumerate(lens):
        assert k == ((1 << (n + 1)) + (-1) ** n) // 3 - 1


def test_rho_length_parity_mod_4():
    lens = word_lengths("rho", 16)
    for n in range(2, 17, 2):
        assert lens[n] % 4 == 2
    for n in range(1, 17, 2):
        assert lens[n] % 4 == 0


def test_dragon_word_n4():
    assert list(iterate_fold("dragon", 4)) == [
        1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, -1, 1, -1, -1,
    ]


def dragon_sign(i: int) -> int:
    """Independent closed form: strip trailing zeros of i+1, look at bit 1."""
    n = i + 1
    n >>= (n & -n).bit_length() - 1
    return -1 if n & 2 else 1


def test_dragon_matches_bit_oracle():
    word = iterate_fold("dragon", 16)
    assert len(word) == (1 << 16) - 1
    for i in (0, 1, 2, 3, 100, 12345, 65533):
        assert word[i] == dragon_sign(i)
    assert all(word[i] == dragon_sign(i) for i in range(len(word)))


def test_dragon_even_positions_alternate():
    # Toeplitz property: positions 0, 2, 4, ... carry +1, -1, +1, ...
    word = iterate_fold("dragon", 16)
    for m in range(len(word) // 2):
        assert word[2 * m] == (1 if m % 2 == 0 else -1)


def test_rho_odd_positions():
    for n, sign in ((8, 1), (9, -1)):
        word = iterate_fold("rho", n)
        for m in range(len(word)):
            if m % 4 == 1:
                assert word[m] == sign
            elif m % 4 == 3:
                assert word[m] == -sign


def test_e_words():
    # w_4 = [1,1,1,-1,-1,1,-1,-1,1,1] gives e_4 = [1,-1,-1,1,1]
    assert signed_even_subword(iterate_fold("rho", 4)) == [1, -1, -1, 1, 1]
    for n in range(0, 9):
        w = iterate_fold("rho", n)
        e_next = signed_even_subword(iterate_fold("rho", n + 1))
        if n % 2 == 0:
            assert list(w) == [-s for s in e_next]
        else:
            assert [1, *w] == e_next


# -- continuants through the recursion ---------------------------------------

def test_rho_theorem_continuants():
    for n in range(0, 13):
        mat = fold_continuants("rho", n, rho_head(n))
        assert mat.p == truncated_partial("H", n)
        assert mat.q == truncated_partial("H", n - 1).substitute_power(2)


def test_fold_engine_matches_direct_product():
    # engine transforms (transpose / sign-conjugate) equal the literal
    # Key Lemma product over the materialized word
    cases = {"dragon": 7, "rho": 7, "cubic": 4, "quintic": 4, "rational-ex": 4}
    for name, top in cases.items():
        spec = named_spec(name)
        engine = FoldEngine(spec, P.x())
        for n in range(0, top + 1):
            word = iterate_fold(spec, n)
            direct = continuants(word_to_cf(P.one(), word))
            assert engine.with_head(n, P.one()) == direct


def test_dragon_literal_continuants():
    mat = fold_continuants("dragon", 3, P.one())
    assert mat.p == P([1, 0, 0, 0, 1, 0, -1, -1])
    assert mat.q == P.monomial(7, -1)


def test_dragon_n4_ratio():
    # [1; p_4] = 1 + 1/x - 1/x^3 - 1/x^7 - 1/x^15: the truncation of the
    # classic x*sum(x^-2^k) folded series with the signs the +x-fold
    # actually produces
    ratio = fold_continuants("dragon", 4, P.one()).ratio()
    assert ratio.den == P.monomial(15)
    assert ratio.num == P([-1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 1, 1])


def test_fold_continuants_series_prefix():
    # series-ring continuants agree with the polynomial ring ones
    full = fold_continuants("rho", 8, rho_head(8))
    pref = fold_continuants_series("rho", 8, 40, rho_head(8))
    assert pref.p.coeffs == tuple(full.p.coeff(i) for i in range(41))
    assert pref.q.coeffs == tuple(full.q.coeff(i) for i in range(41))


# -- the fold-rule walker against the literal recursion -----------------------

_CONSTS = (RuleConst(1), RuleConst(-1), RuleConst(1, parity=True), RuleConst(-1, parity=True))


@st.composite
def small_specs(draw):
    """One or two short bases; constants and depth-1/2 references with ~/-."""
    bases = tuple(
        tuple(draw(st.lists(st.sampled_from((1, -1)), max_size=2)))
        for _ in range(draw(st.integers(1, 2)))
    )
    refs = st.builds(
        RuleRef, st.integers(1, len(bases)), reverse=st.booleans(), negate=st.booleans()
    )
    rule = draw(st.lists(st.one_of(st.sampled_from(_CONSTS), refs), min_size=1, max_size=4))
    return FoldSpec(bases, tuple(rule))


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 6))
def test_walker_words_and_lengths_match_literal_recursion(spec, n):
    words = literal_words(spec, n)
    assert list(iterate_fold(spec, n)) == words[n]
    assert word_lengths(spec, n) == [len(w) for w in words]


@settings(max_examples=80, deadline=None)
@given(small_specs(), st.integers(0, 5), st.integers(-3, 3), st.integers(-3, 3))
def test_engine_with_head_matches_literal_continuants(spec, n, t, head):
    word = literal_words(spec, n)[n]
    direct = continuants(Word(tuple(s * t for s in word), head))
    assert FoldEngine(spec, t).with_head(n, head) == direct


# -- the Folding Lemma in the engine against the mul path ----------------------

def _ref(depth, flip=False):
    return RuleRef(depth, reverse=flip, negate=flip)


FOLD_TABLE = {
    "dragon": (["w1"], True),
    "rho": (["w2"], True),
    "cubic": (["w1, w1"], False),
    "quintic": (["w1, w1, w1"], False),
    "cubic-alt": ([], False),
    "rational-ex": ([], False),
    "bases:[] ; rule: x, -~w1, x, w1": (["-~w1"], False),
    "bases:[] ; rule: w1, x, -~w1, x, w1, x, -~w1": (["w1", "w1"], True),
    "bases:[] ; rule: w1, x, -~w1, x, w1, -x, -~w1": (["fold(w1; x)"], True),
    "bases:[] ; rule: w1, x, -~w1, x, w1, x, -~w1, x, w1": (["w1", "w1"], True),
    "bases:[] ; rule: w1, x, -~w1, x, ~w1": (["w1"], False),
    "bases:[] ; rule: w1, x, -~w1, w1, x": (["w1"], False),
    "bases:[] ; rule: w1, x, -x, -x": ([], False),  # x, -x, -x is led by a letter
}


def _show(it) -> str:
    if isinstance(it, RuleFold):
        return f"fold({', '.join(map(_show, it.u))}; {it.const.pretty()})"
    return it.pretty()


@pytest.mark.parametrize("spec", FOLD_TABLE)
def test_fold_detector_table(spec):
    runs, closed = FOLD_TABLE[spec]
    folds = folding.resolve_spec(spec).folds
    found = [", ".join(map(_show, f.u)) for f in folds if isinstance(f, RuleFold)]
    assert found == runs
    assert folding._column_closed(folds) is closed


def test_nested_run_is_folded_inside_u():
    # w1, x, -~w1, x, w1, -x, -~w1 is the run U, x, -~U with U = w1, x, -~w1,
    # and U is itself the run w1, x, -~w1
    (outer,) = parse_fold_spec("bases:[] ; rule: w1, x, -~w1, x, w1, -x, -~w1").folds
    assert outer.const == RuleConst(1)
    assert outer.u == (RuleFold((_ref(1),), RuleConst(1)),)


@st.composite
def planted_specs(draw):
    """A run U, c, -~U (U of 1-3 items led by a reference: wN, -~wN, -wN or
    ~wN) then a tail that keeps the spec column-closed (for a one-item
    unreversed U) or breaks it."""
    bases = tuple(
        tuple(draw(st.lists(st.sampled_from((1, -1)), max_size=3)))
        for _ in range(draw(st.integers(1, 2)))
    )
    depths = st.integers(1, len(bases))
    refs = st.builds(RuleRef, depths, reverse=st.booleans(), negate=st.booleans())
    lead = draw(refs)
    u = (lead, *draw(st.lists(st.one_of(st.sampled_from(_CONSTS), refs), max_size=2)))
    closed = ((), (RuleConst(1),), (RuleConst(-1, parity=True), _ref(1)), (RuleRef(1, negate=True),))
    open_ = ((_ref(1, True),), (_ref(1), RuleConst(-1)), (RuleConst(1), RuleRef(1, reverse=True)))
    tail = draw(st.sampled_from(closed + open_))
    c = draw(st.sampled_from(_CONSTS))
    return FoldSpec(bases, (*u, c, *map(folding._mirror, reversed(u)), *tail))


_RINGS = {
    "Z": lambda: -2,
    "Q[x]": P.x,
    "series": lambda: TruncatedSeries.x(24),
    "Fraction": lambda: Fraction(-3, 2),
}


@settings(max_examples=90, deadline=None)
@given(planted_specs(), st.integers(0, 6), st.sampled_from(sorted(_RINGS)), st.integers(-2, 2))
def test_engine_folds_match_mul_path(spec, n, ring, head):
    assert any(isinstance(it, RuleFold) for it in spec.folds)
    lengths = word_lengths(spec, n)
    n = max(m for m in range(n + 1) if lengths[m] <= 1500)
    x = _RINGS[ring]()
    oracle = mul_path_matrices(spec, x, n)
    engine = FoldEngine(spec, x)
    assert [engine.matrix(m) for m in range(n + 1)] == oracle
    col = FoldEngine(spec, x, column=True).with_head(n, head)
    want = oracle[n].transpose().push(head).transpose()
    assert (col.p, col.q) == (want.p, want.q)
    if folding._column_closed(spec.folds):
        assert col.p_prev == col.q_prev == 0 * x  # the walk keeps first columns alone


@pytest.mark.parametrize("name, top", [("dragon", 9), ("rho", 10), ("cubic", 5), ("quintic", 3)])
def test_named_engines_match_mul_path(name, top):
    spec = named_spec(name)
    for x in (P.x(), 3, TruncatedSeries.x(40)):
        oracle = mul_path_matrices(spec, x, top)
        engine = FoldEngine(spec, x)
        assert [engine.matrix(m) for m in range(top + 1)] == oracle
        columns = FoldEngine(spec, x, column=True)
        cols = [columns.matrix(m) for m in range(top + 1)]
        assert [(c.p, c.q) for c in cols] == [(m.p, m.q) for m in oracle]


@pytest.mark.parametrize(
    "name, n, column, big, empty",
    [
        ("cubic", 6, False, 36, None),
        ("cubic-alt", 6, False, 72, None),
        ("quintic", 4, False, 38, None),
        ("rational-ex", 5, False, 72, None),
        ("rho", 10, False, 63, None),
        ("dragon", 10, False, 18, None),
        ("rho", 12, True, 28, 4),
        ("dragon", 12, True, 16, 13),
    ],
)
def test_engine_product_budget(monkeypatch, name, n, column, big, empty):
    """Building levels 0..n stays within a budget of ring products:
    Kronecker-sized ones (both operands over 8 terms) and, in a column read,
    products with a zero operand."""
    from mahlerfold import poly

    sizes, list_mul = [], poly._list_mul

    def counted(a, b):
        sizes.append((len(a), len(b)))
        return list_mul(a, b)

    monkeypatch.setattr(poly, "_list_mul", counted)
    FoldEngine(named_spec(name), P.x(), column).matrix(n)
    assert sum(a > 8 and b > 8 for a, b in sizes) <= big
    if empty is not None:
        assert sum(not a or not b for a, b in sizes) <= empty


# -- specialization -----------------------------------------------------------

def test_specialize_rho4():
    word = iterate_fold("rho", 4)
    sp = specialize(rho_head(4), word)
    x = P.x()
    one = P.one()
    assert sp.head == one
    assert list(sp.entries) == [
        x, x, x - 1, one, x - 1, x - 1, one, x - 2, one, x - 1, x - 1, one, x - 1, x,
    ]


def test_specialize_matches_three_step_on_even_words():
    for n in (2, 4, 6, 8):
        word = iterate_fold("rho", n)
        a = specialize(rho_head(n), word)
        b = specialize_three_step(rho_head(n), word)
        assert a == b


def test_specialize_matches_slicing_reference():
    # the parity-flag rewrite equals the literal tail-negating ripple,
    # including words that open with -x (where the three-step is undefined)
    import random

    rng = random.Random(5)
    for _ in range(30):
        word = [rng.choice((1, -1)) for _ in range(rng.randint(1, 40))]
        head = P([1, 1]) if word[0] < 0 else P.one()
        assert specialize(head, word) == specialize_by_slicing(head, word)


def test_specialize_all_positive_unchanged():
    sp = specialize(P.one(), [1, 1, 1])
    assert list(sp.entries) == [P.x()] * 3


def test_specialize_preserves_value_and_bounds():
    import random

    rng = random.Random(11)
    for _ in range(20):
        word = [rng.choice((1, -1)) for _ in range(rng.randint(1, 64))]
        original = continuants(word_to_cf(P([1, 1]), word)).ratio()
        sp = specialize(P([1, 1]), word)
        assert continuants(sp).ratio() == original
        assert len(sp.entries) <= 2 * len(word)
        for entry in sp.entries:
            assert entry.coeffs[-1] > 0  # no negative partial quotients


def test_specialized_digits_at_5():
    even = specialized_digits("rho", 12, 5, 20)
    assert even == [1, 5, 5, 4, 1, 4, 4, 1, 3, 1, 4, 4, 1, 4, 5, 4, 1, 4, 4, 1]
    odd = specialized_digits("rho", 13, 5, 20)
    assert odd == [5, 1, 4, 4, 1, 4, 4, 1, 4, 5, 4, 1, 4, 4, 1, 3, 1, 4, 5, 4]


# -- generating functions and the I/J system ---------------------------------

def test_sign_generating_functions_residuals():
    res_f, res_g = rho_word_equations(64)
    assert res_f.is_zero()
    assert res_g.is_zero()


def test_sign_gf_odd_positions():
    f, g = sign_generating_functions("rho", 64)
    for m in range(1, 65, 2):
        expect = 1 if m % 4 == 1 else -1
        assert f.coeffs[m] == expect
        assert g.coeffs[m] == -expect


def test_sign_gf_unsettled_spec_fails_fast(monkeypatch):
    # the prefixes of this spec's words never settle while their lengths
    # double; the walk must stop before the first word over the letter cap
    # instead of doubling the word length until max_iter
    spec = parse_fold_spec("bases:[] ; rule: ~w1, -w1, -s*x")
    built = []
    sign_words = folding._sign_words

    def recorded(spec):
        for w in sign_words(spec):
            built.append(len(w))
            yield w

    monkeypatch.setattr(folding, "_sign_words", recorded)
    monkeypatch.setattr(folding, "MAX_SIGN_WORD_LETTERS", 10**4)
    with pytest.raises(StabilizationError, match="pass the cap of 10000"):
        sign_generating_functions(spec, 64)
    assert built == word_lengths(spec, 13)  # 2^13 - 1 letters; 2^14 - 1 is over
    assert max(built) <= 10**4


def test_sign_gf_late_settling_spec():
    # even words start with n/2 ones, so both parities settle only at level 11,
    # long after the first word of order+1 letters (level 4)
    f, g = sign_generating_functions("bases:[],[] ; rule: s*x, w2, w1", 3)
    assert f.coeffs == (1, 1, 1, 1) and f.order == 3
    assert g.coeffs == (-1, -1, -1, -1) and g.order == 3


def test_ij_system():
    report = ij_system_check(96)
    assert report.ok


def test_ij_system_holds_at_low_orders():
    assert all(ij_system_check(order).ok for order in range(10))


def test_ij_coefficient_range():
    i_s, j_s = ij_series(96)
    assert set(i_s.coeffs) <= {0, 1, -1}
    assert set(j_s.coeffs) <= {0, 1, -1}


def _special_chain(consts) -> FoldSpec:
    """w1, c1, -~w1, c2, w1, ... with the constants c_i = +-x."""
    items = ["w1"]
    for i, c in enumerate(consts, start=1):
        items += ["x" if c > 0 else "-x", "-~w1" if i % 2 else "w1"]
    return parse_fold_spec("bases:[] ; rule: " + ", ".join(items))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=7), st.integers(0, 4),
       st.sampled_from(sorted(_RINGS)))
@example([1, 1, -1], 4, "Q[x]")  # w1, x, -~w1, x, w1, -x, -~w1: a fold nested in U
@example([1] * 7, 4, "Fraction")
def test_column_walk_matches_mul_path_on_special_chains(consts, n, ring):
    spec = _special_chain(consts)
    lengths = word_lengths(spec, n)
    if ring == "Q[x]":  # its mul path takes 20 s at the 8-reference chain's 4095 letters
        n = max(m for m in range(n + 1) if lengths[m] <= 700)
    x = _RINGS[ring]()
    columns = FoldEngine(spec, x, column=True)
    got = [columns.matrix(m) for m in range(n + 1)]
    assert [(c.p, c.q) for c in got] == [(m.p, m.q) for m in mul_path_matrices(spec, x, n)]
    assert folding._column_closed(spec.folds)


# -- special recursions -------------------------------------------------------

def test_special_polys_dragon():
    p, q = special_recursion_polys("dragon")
    assert p == P([0, 1])  # P(y) = y
    assert q == P.one()


def test_special_polys_five_term():
    # the canonical chain (w_0 empty, so word lengths stay even) satisfies
    # P(y) = 1 + y^2; odd-length variants of the same rule flip the sign of
    # the quadratic term
    p, q = special_recursion_polys(parse_fold_spec("bases:[] ; rule: w1, x, -~w1, x, w1"))
    assert p == P([1, 0, 1])  # 1 + y^2
    assert q == P([0, 1])  # y


def test_special_polys_five_term_odd_variant():
    # the odd-length instance [x], x, [-x], x, [x] of the same rule has
    # P(y) = 1 - y^2, Q(y) = y: p = p~ (1 - (x p~)^2) with p~ = x
    from mahlerfold.contfrac import continuants

    mat = continuants(word_to_cf(P([0, 1]), [1, -1, 1, 1]))  # [x; x, -x, x, x]
    p_tilde = P.x()
    arg = P.x() * p_tilde
    assert mat.p == p_tilde * (P.one() - arg * arg)


def test_special_polys_20_nonconstant():
    rule = []
    for i in range(20):
        if i:
            rule.append("x")
        rule.append("-~w1" if i % 2 else "w1")
    spec = parse_fold_spec("bases:[] ; rule: " + ", ".join(rule))
    p, q = special_recursion_polys(spec)
    from math import comb

    # coefficient magnitudes are the Fibonacci-polynomial binomials
    # C(19-k, k) for P and C(18-k, k) for Q; the canonical chain carries
    # alternating signs on them
    expect_p = [0] * 20
    for k in range(10):
        expect_p[19 - 2 * k] = (-1) ** k * comb(19 - k, k)
    expect_q = [0] * 19
    for k in range(10):
        expect_q[18 - 2 * k] = (-1) ** (k + 1) * comb(18 - k, k)
    assert p == P(expect_p)
    assert q == P(expect_q)


def test_special_polys_degree_dominance():
    # deg P >= deg Q for all-positive special specs
    for refs in (2, 3, 4, 5):
        rule = []
        for i in range(refs):
            if i:
                rule.append("x")
            rule.append("-~w1" if i % 2 else "w1")
        spec = parse_fold_spec("bases:[] ; rule: " + ", ".join(rule))
        p, q = special_recursion_polys(spec)
        assert p.degree >= q.degree


def test_special_polys_have_int_coefficients():
    # exact division by the four-reference chain's p~ yields integral digits,
    # which must come back as int, not Fraction(n, 1)
    chain4 = parse_fold_spec("bases:[] ; rule: w1, x, -~w1, x, w1, x, -~w1")
    for spec in ("dragon", chain4):
        p, q = special_recursion_polys(spec)
        assert all(type(c) is int for c in p.coeffs + q.coeffs)


def test_special_rejects_non_special():
    with pytest.raises(NotSpecialError):
        special_recursion_polys("cubic")


# r = 2..7 references, four +-x constant patterns per r drawn with
# random.Random(1): (constants, P, Q) as coefficient lists, with P = Q = None
# where the spec is refused; recorded with a dense coefficient-column linear
# solve over Q.
SPECIAL_BATTERY = [
    ("+", [0, 1], [1]),
    ("+", [0, 1], [1]),
    ("-", [0, 1], [1]),
    ("+", [0, 1], [1]),
    ("--", [1, 0, 1], [0, -1]),
    ("--", [1, 0, 1], [0, -1]),
    ("++", [1, 0, 1], [0, 1]),
    ("-+", None, None),
    ("--+", [0, 0, 0, 1], [1, 0, 1]),
    ("--+", [0, 0, 0, 1], [1, 0, 1]),
    ("+-+", [0, 2, 0, 1], [1, 0, 1]),
    ("+++", [0, -2, 0, 1], [1, 0, -1]),
    ("-+-+", [1, 0, -3, 0, 1], [0, 2, 0, -1]),
    ("+--+", [1, 0, -1, 0, 1], [0, 0, 0, 1]),
    ("-++-", [1, 0, -1, 0, 1], [0, 0, 0, -1]),
    ("-+-+", [1, 0, -3, 0, 1], [0, 2, 0, -1]),
    ("+-+--", [0, -1, 0, 2, 0, 1], [1, 0, -1, 0, -1]),
    ("+----", [0, -1, 0, -2, 0, 1], [1, 0, -3, 0, 1]),
    ("+-+--", [0, -1, 0, 2, 0, 1], [1, 0, -1, 0, -1]),
    ("+--+-", [0, 1, 0, 2, 0, 1], [1, 0, -1, 0, -1]),
    ("++---+", None, None),
    ("-+--++", None, None),
    ("++++--", [1, 0, 2, 0, 3, 0, 1], [0, 1, 0, 2, 0, 1]),
    ("---+-+", [1, 0, -4, 0, -1, 0, 1], [0, 1, 0, 2, 0, -1]),
]


@pytest.mark.parametrize("consts, p, q", SPECIAL_BATTERY, ids=[c for c, _, _ in SPECIAL_BATTERY])
def test_special_polys_battery(consts, p, q):
    items = ["w1"]
    for i, c in enumerate(consts, start=1):
        items += ["x" if c == "+" else "-x", "-~w1" if i % 2 else "w1"]
    spec = parse_fold_spec("bases:[] ; rule: " + ", ".join(items))
    if p is None:
        with pytest.raises(NotSpecialError, match="consistent sign"):
            special_recursion_polys(spec)
        return
    got_p, got_q = special_recursion_polys(spec)
    assert (list(got_p.coeffs), list(got_q.coeffs)) == (p, q)
    assert all(type(c) is int for c in got_p.coeffs + got_q.coeffs)


_small = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))


def _polys(min_size, max_size):
    return st.lists(_small, min_size=min_size, max_size=max_size).map(P)


def _columns_oracle(target, factor, arg, deg):
    """The unique P with target = factor * P(arg) from sympy's linsolve on the
    coefficient columns of factor * arg^i, or None when it is inconsistent."""
    sympy = pytest.importorskip("sympy")
    cols = [factor]
    for _ in range(deg):
        cols.append(cols[-1] * arg)
    height = max(c.degree for c in cols + [target]) + 1
    a = sympy.Matrix([[sympy.Rational(col.coeff(i)) for col in cols] for i in range(height)])
    b = sympy.Matrix([sympy.Rational(target.coeff(i)) for i in range(height)])
    unknowns = sympy.symbols(f"c0:{deg + 1}")
    solutions = sympy.linsolve((a, b), unknowns)
    if not solutions:
        return None
    (solution,) = solutions
    return P([Fraction(int(v.p), int(v.q)) for v in solution])


@given(
    _polys(0, 5),
    st.integers(0, 4),
    _polys(1, 4).filter(bool),
    _polys(1, 3).filter(bool),
    _polys(1, 6).filter(bool),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_solve_in_powers_reads_the_expansion(poly, deg, factor, base, noise, divisible):
    arg = P.x() * base
    got = folding._solve_in_powers(factor * poly(arg), factor, arg, deg)
    if poly.degree > deg:
        assert got is None
    else:
        assert got == poly
        assert all(type(c) is int or c.denominator != 1 for c in got.coeffs)
    # noise * factor keeps the first division exact, so later digits decide
    perturbed = factor * (poly(arg) + noise) if divisible else factor * poly(arg) + noise
    assert folding._solve_in_powers(perturbed, factor, arg, deg) == _columns_oracle(
        perturbed, factor, arg, deg
    )


# -- Cohn specializability ----------------------------------------------------

def test_cohn_congruences():
    assert cohn_congruence_test(parse_poly("x^2")) == [1]
    # 1 + x^2*(x-1)*x satisfies item 3
    f = parse_poly("x^4-x^3+1")
    assert 3 in cohn_congruence_test(f)
    assert cohn_congruence_test(parse_poly("x^2+x+1")) == []


def test_specializable_x_squared():
    report = specializable_iterated(parse_poly("x^2"), "irregular", 6)
    assert report.specializable


def test_specializable_x2_minus_2():
    report = specializable_iterated(parse_poly("x^2-2"), "irregular", 6)
    assert report.specializable
    # the truncations' regular CFs have sign-alternating quotients +-(x^2-2)
    from mahlerfold.contfrac import IrregularCF, eval_irregular

    f = parse_poly("x^2-2")
    iterates = [P.x()]
    for _ in range(5):
        iterates.append(f(iterates[-1]))
    pairs = tuple((iterates[m], P.one()) for m in range(1, 6))
    value = eval_irregular(IrregularCF(P.x(), pairs), RationalFunction.x())
    word = euclid_cf(value)
    tail = list(word.entries)
    for i in range(len(tail) - 1):
        assert tail[i] == -tail[i + 1]
        assert tail[i] in (f, -f)


def test_not_specializable_cohn_sum():
    report = specializable_iterated(parse_poly("x^2+x+1"), "cohn_sum", 4)
    assert not report.specializable
    assert report.fails_at is not None
    assert report.witness is not None and not report.witness.is_integer()


def test_specializable_cohn_sum_positive():
    # x^2 satisfies congruence 1, so the Cohn sum is specializable
    report = specializable_iterated(parse_poly("x^2"), "cohn_sum", 6)
    assert report.specializable


def test_degree_cap():
    with pytest.raises(ValueError, match=r"degree 16384 is over the cap of 2\^12 = 4096"):
        specializable_iterated(parse_poly("x^4+1"), "cohn_sum", 8)
