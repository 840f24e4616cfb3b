"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from mahlerfold.contfrac import (
    irregular_continuants,
    lambda_value,
    rho_at_root_of_unity,
    rho_cf,
    rho_sum_over_roots,
    rho_value,
)
from mahlerfold.curve import export_svg, path_from_signs, self_crossing
from mahlerfold.fiblucas import (
    IDENTITY_IDS,
    cf_identity_table,
    run_identity,
)
from mahlerfold.folding import (
    FoldEngine,
    fold_continuants,
    fold_continuants_series,
    ij_series,
    ij_system_check,
    iterate_fold,
    named_spec,
    rho_head,
    rho_word_equations,
    specialize,
    specialized_digits,
    word_lengths,
    word_to_cf,
)
from mahlerfold.hadamard import (
    hadamard_mahler_probe,
    hadamard_product,
    is_complete_hadamard_rational,
)
from mahlerfold.identities import verify_series_identity
from mahlerfold.poly import Polynomial, RationalFunction, parse_rational
from mahlerfold.quadfield import PHI
from mahlerfold.series import TruncatedSeries, baum_sweet, expand_named, fibbinary
from mahlerfold.contfrac import continuants

P = Polynomial


def _verdict(num: int, label: str, started: float, bound: float | None = None):
    elapsed = time.monotonic() - started
    budget = f" [< {bound:g} s budget]" if bound is not None else ""
    print(f"ACCEPTANCE {num:2d}: PASS  {label}  ({elapsed:.2f} s{budget})")
    if bound is not None:
        assert elapsed < bound


def test_criterion_01_series_expansions():
    t0 = time.monotonic()
    f = expand_named("F", 10)
    assert [i for i, c in enumerate(f.coeffs) if c] == [0, 1, 2, 5, 6, 8, 9, 10]
    g = expand_named("G", 13)
    assert [i for i, c in enumerate(g.coeffs) if c] == [0, 1, 3, 4, 5, 11, 12, 13]
    assert expand_named("H", 10).coeffs == (1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1)
    assert expand_named("I", 9).coeffs == (1, 1, 0, 1, 1, 0, 0, 1, 0, 1)
    n_top = 1 << 16
    h = expand_named("H", n_top - 1).coeffs
    i_s = expand_named("I", n_top - 1).coeffs
    for n in range(n_top):
        assert h[n] == fibbinary(n)
        assert i_s[n] == baum_sweet(n)
    _verdict(1, "named expansions + membership to 2^16", t0, bound=5.0)


def test_criterion_02_identity_suite():
    t0 = time.monotonic()
    for ident in ("propFGH", "cross-GG-qFF", "cross-FG4-qGF4",
                  "mahler4-F", "mahler4-G", "mahler4-H", "mahler4-I"):
        report = verify_series_identity(ident, 512)
        assert report.holds, ident
        assert report.checked == 512
    for ident in ("hn-nonlinear", "hn-combinatorial"):
        report = verify_series_identity(ident, 1 << 12)
        assert report.holds and report.checked == 12, ident
    _verdict(2, "series identities at order 512, H_n lemmas to n = 12", t0, bound=30.0)


def test_criterion_03_rho_folded_cf_theorem():
    t0 = time.monotonic()
    from mahlerfold.series import truncated_partial

    lengths = word_lengths("rho", 14)
    assert lengths[:6] == [0, 0, 2, 4, 10, 20]
    engine = FoldEngine("rho", P.x())
    for n in range(15):
        assert lengths[n] == ((1 << (n + 1)) + (-1) ** n) // 3 - 1
        mat = engine.with_head(n, rho_head(n))
        assert mat.p == truncated_partial("H", n)
        assert mat.q == truncated_partial("H", n - 1).substitute_power(2)
    _verdict(3, "continuants of [s_n; w_n] = (H_n, H_{n-1}(x^2)) for n <= 14", t0, bound=60.0)


def test_criterion_04_specialization():
    t0 = time.monotonic()
    x, one = P.x(), P.one()
    sp4 = specialize(rho_head(4), iterate_fold("rho", 4))
    assert sp4.head == one
    assert list(sp4.entries) == [
        x, x, x - 1, one, x - 1, x - 1, one, x - 2, one, x - 1, x - 1, one, x - 1, x,
    ]
    # value preservation as an exact rational-function identity
    word4 = iterate_fold("rho", 4)
    assert continuants(sp4).ratio() == continuants(word_to_cf(rho_head(4), word4)).ratio()
    for n in (5, 7):
        word = iterate_fold("rho", n)
        sp = specialize(rho_head(n), word)
        assert continuants(sp).ratio() == continuants(word_to_cf(rho_head(n), word)).ratio()
    assert specialized_digits("rho", 12, 5, 20) == [
        1, 5, 5, 4, 1, 4, 4, 1, 3, 1, 4, 4, 1, 4, 5, 4, 1, 4, 4, 1,
    ]
    assert specialized_digits("rho", 13, 5, 20) == [
        5, 1, 4, 4, 1, 4, 4, 1, 4, 5, 4, 1, 4, 4, 1, 3, 1, 4, 5, 4,
    ]
    _verdict(4, "rho_4 display, exact value preservation, rho(5) digit lists", t0)


def test_criterion_05_word_gf_equations():
    t0 = time.monotonic()
    res_f, res_g = rho_word_equations(128)
    assert res_f.is_zero() and res_g.is_zero()
    report = ij_system_check(128)
    assert report.ok
    i_s, j_s = ij_series(128)
    assert set(i_s.coeffs) <= {0, 1, -1} and set(j_s.coeffs) <= {0, 1, -1}
    _verdict(5, "F/G Mahler equations and I/J system exact to order 128", t0)


def _cubic_abcd(order: int):
    from math import comb

    a = [0] * (order + 1)
    c = [0] * (order + 1)
    d = [0] * (order + 1)
    for k in range(order // 2 + 1):
        if 2 * k + 1 <= order:
            a[2 * k + 1] = Fraction(comb(3 * k + 1, k), k + 1)
        c[2 * k] = Fraction(comb(3 * k, k), 2 * k + 1)
        if 2 * k + 3 <= order:
            d[2 * k + 3] = -Fraction(2 * comb(3 * k + 3, k), k + 2)
    b = [2 - c[0]] + [-v for v in c[1:]]
    return a, b, c, d


def test_criterion_06_cubic_quintic_rational():
    t0 = time.monotonic()
    # cubic prefixes match the binomial series through x^25
    order = 25
    mat = fold_continuants_series("cubic", 27, order)
    a, b, c, d = _cubic_abcd(order)
    assert list(mat.p.coeffs) == a
    assert list(mat.p_prev.coeffs) == b
    assert list(mat.q.coeffs) == c
    assert list(mat.q_prev.coeffs) == d
    # C = 1 + x^2 C^3 to order 64
    _, _, c64, _ = _cubic_abcd(64)
    c_series = TruncatedSeries(c64, 64)
    resid = c_series - (TruncatedSeries.one(64) + (c_series * c_series * c_series).shift(2))
    assert resid.is_zero()
    # numeric parity-stable limits
    with mp.workprec(256):
        eng1 = FoldEngine("cubic", 1)
        vals = []
        for n in (10, 11, 12):
            m = eng1.matrix(n)
            vals.append(mp.mpf(m.p) / m.q)
        target = mp.mpf("1.4322996825595144583")
        assert all(abs(v - target) < mp.mpf(10) ** -15 for v in vals)
        eng10 = FoldEngine("cubic", 10)
        m = eng10.matrix(9)
        assert abs(mp.mpf(m.p) / m.q - mp.mpf("10.099000099980200960")) < mp.mpf(10) ** -12
    # quintic: Laurent prefix of t and the quintic relation to order 32
    n_orders = 38
    qmat = fold_continuants_series("quintic", 40, n_orders)
    p_c = list(qmat.p.coeffs)
    q_c = list(qmat.q.coeffs)
    assert q_c[0] == 0  # q has valuation 1: t = p/q is Laurent with a simple pole
    u = TruncatedSeries(p_c, n_orders) / TruncatedSeries(q_c[1:] + [0], n_orders)  # u = x t
    expect_u = {0: 1, 2: -4, 4: -20, 6: -197, 8: -2410, 10: -32939, 12: -481780, 14: -7377385}
    for idx, val in expect_u.items():
        assert u.coeffs[idx] == val
    for idx in range(1, 15, 2):
        assert u.coeffs[idx] == 0
    # x^4 * (x t^5 - t^4 + 2x t^3 + 2 t^2 - 3x t + x^2 - 1) with t = u/x:
    # u^5 - u^4 + 2 x^2 u^3 + 2 x^2 u^2 - 3 x^4 u + x^6 - x^4 = 0
    u2 = u * u
    u3 = u2 * u
    resid = (
        u3 * u2 - u2 * u2 + (u3 * 2).shift(2) + (u2 * 2).shift(2) - (u * 3).shift(4)
        + TruncatedSeries([0] * 6 + [1], n_orders) - TruncatedSeries([0] * 4 + [1], n_orders)
    )
    assert all(resid.coeffs[i] == 0 for i in range(36 + 1))
    # rational example: the convergent tends to 2x/(1+x^2) coefficient-wise
    target = TruncatedSeries.from_rational(parse_rational("2*x/(1+x^2)"), 32)
    prev = None
    for n in (40, 41):
        m = fold_continuants_series("rational-ex", n, 32)
        ratio = m.p / m.q
        if prev is not None:
            assert ratio.coeffs == prev.coeffs
        prev = ratio
    assert prev.coeffs == target.coeffs
    _verdict(6, "cubic/quintic/rational folded CF examples", t0)


def test_criterion_07_curves():
    t0 = time.monotonic()
    assert self_crossing(path_from_signs(iterate_fold("dragon", 17))) is None
    for n in (15, 16):
        assert self_crossing(path_from_signs(iterate_fold("rho", n))) is None
    word = iterate_fold("cubic", 8)
    assert self_crossing(path_from_signs(word)) is not None
    svg1 = export_svg(path_from_signs(iterate_fold("dragon", 9)))
    svg2 = export_svg(path_from_signs(iterate_fold("dragon", 9)))
    assert svg1 == svg2
    golden = os.path.join(os.path.dirname(__file__), "golden", "dragon9.svg")
    with open(golden) as fh:
        assert svg1 == fh.read()
    _verdict(7, "dragon <= 17 and rho <= 16 non-crossing, cubic crosses by 8, SVG stable",
             t0, bound=30.0)


# Starts argv[1:], reaps it with os.wait4 and prints its exit code and peak
# RSS in KiB.  Linux carries the forking process's peak RSS into the child at
# exec, so the CLI is started from this small interpreter, not from pytest.
_PEAK_RSS_HELPER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(*argv: str) -> float:
    """Peak RSS of one CLI run, in MB; the run must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    cli = [sys.executable, "-m", "mahlerfold.cli", *argv]
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER, *cli], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, peak_kib = map(int, out.split())
    assert code == 0
    return peak_kib / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB on Linux")
def test_curve_check_memory_guard():
    # dragon n = 20 (2^20 edges) measured 262-270 MB peak RSS when the path held
    # a vertex tuple and crossing used a set of edge tuples, 113 MB with the
    # word-only walk and int edge keys, and 27.5 MB with one-byte words and a
    # bytearray edge grid (2 vCPUs, Python 3.11)
    t0 = time.monotonic()
    peak = _peak_rss_mb("--json", "curve", "check", "--spec", "dragon", "--n", "20")
    assert peak < 56
    _verdict(7, f"dragon n = 20 curve check peaks at {peak:.0f} MB [< 56 MB]", t0)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB on Linux")
def test_curve_render_memory_guard(tmp_path):
    # dragon n = 15 (2^15 edges, a 3.4 MB SVG) measured 35.8 MB peak RSS with a
    # list of lines joined at the end, and 30.0 MB written through one
    # StringIO (2 vCPUs, Python 3.11)
    t0 = time.monotonic()
    out = tmp_path / "dragon15.svg"
    peak = _peak_rss_mb("curve", "render", "--spec", "dragon", "--n", "15", "--out", str(out))
    assert out.read_text().count("<line ") == 1 << 15
    assert peak < 60
    _verdict(7, f"dragon n = 15 curve render peaks at {peak:.0f} MB [< 60 MB]", t0)


def test_criterion_08_roots_of_unity():
    t0 = time.monotonic()
    with mp.workprec(256):
        for n in range(2, 9):
            total = rho_sum_over_roots(n, precision=256)
            assert abs(total - (1 << (n - 1))) < mp.mpf(10) ** -20
    assert rho_at_root_of_unity(0) == PHI  # exact in Q(sqrt5)
    # lambda_n(x) = x rho_n(x^-3) at x = 1/2: rho(8) = 2 lambda(1/2) per parity
    with mp.workprec(256):
        for n in (12, 13):
            rho_f = rho_value(n, Fraction(8))
            lam_f = lambda_value(n, Fraction(1, 2))
            assert rho_f == 2 * lam_f  # exact rational identity at every level
            delta = abs(mp.mpf(rho_f.numerator) / rho_f.denominator
                        - 2 * mp.mpf(lam_f.numerator) / lam_f.denominator)
            assert delta < mp.mpf(10) ** -20
    _verdict(8, "sum over X_n = 2^(n-1), rho(1) = phi, rho(8) = 2 lambda(1/2)", t0)


def test_criterion_09_hadamard():
    t0 = time.monotonic()
    order = 1024
    coeffs = [0] * (order + 1)
    j = 1
    while j <= order:
        coeffs[j] = 1
        j <<= 1
    pow2 = TruncatedSeries(coeffs, order)
    geom2 = TruncatedSeries.from_rational(parse_rational("1/(1-2*q)"), order)
    prod = hadamard_product(pow2, geom2)
    for n in range(order + 1):
        expect = 2**n if n and n & (n - 1) == 0 else 0
        assert prod.coeffs[n] == expect
    probe = hadamard_mahler_probe(pow2, parse_rational("1/(1-2*q)"), 2, 512, 4, 8)
    assert probe.is_none_up_to
    from tests.test_hadamard import FIXTURE

    assert len(FIXTURE) == 20
    for text, complete, m in FIXTURE:
        result = is_complete_hadamard_rational(parse_rational(text))
        assert result.complete == complete
        if complete:
            assert result.m == m
    _verdict(9, "counterexample to 1024, probe none_up_to(4,8), 20-case classifier", t0)


def test_criterion_10_fibonacci_identities():
    t0 = time.monotonic()
    for ident in IDENTITY_IDS:
        result = run_identity(ident, 12)
        if ident in ("good", "fl-ratio", "hideyuki"):
            assert result.delta_mp(256) < mp.mpf(10) ** -30
        else:
            assert result.delta_mp(256) < mp.mpf(10) ** -20
            deep = cf_identity_table(ident, 12)
            assert deep.expected == result.expected
    # the partials converge doubly exponentially: 13 terms resolve far past
    # 100 digits (true residual ~ 1/F(2^13) ~ 1e-1712)
    good = run_identity("good", 13)
    assert good.delta_mp(1024) < mp.mpf(10) ** -100
    _verdict(10, "Good / fl-ratio / Hideyuki / 7-5 display / six table rows", t0, bound=5.0)


@pytest.mark.soft
@pytest.mark.xfail(strict=False, reason="numeric observation, non-blocking")
def test_criterion_11_rho_zeros_soft():
    t0 = time.monotonic()
    order = 4096
    h = expand_named("H", order)
    with mp.workprec(300):
        coeffs = [mp.mpf(c) for c in h.coeffs]
        dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

        def horner(cs, z):
            acc = mp.mpc(0)
            for c in reversed(cs):
                acc = acc * z + c
            return acc

        z = mp.mpc("-0.44", "0.6565")
        for _ in range(60):
            step = horner(coeffs, z) / horner(dcoeffs, z)
            z = z - step
            if abs(step) < mp.mpf(10) ** -40:
                break
        target = mp.mpc("-0.440049", "0.65651142")
        assert abs(z - target) < mp.mpf(10) ** -4
        assert abs(z.conjugate() - target.conjugate()) < mp.mpf(10) ** -4
        # it is a zero of rho = H(x)/H(x^2): H vanishes, H(x^2) does not
        assert abs(horner(coeffs, z * z)) > mp.mpf(10) ** -2
    _verdict(11, "two zeros of rho near -0.440049 +- 0.65651142i (soft)", t0)
