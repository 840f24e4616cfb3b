import pytest

from mahlerfold import identities
from mahlerfold.identities import FOLD_CHECKS, REGISTRY, identity_ids, verify_series_identity
from mahlerfold.identities import _level_report, _series_report
from mahlerfold.poly import Polynomial
from mahlerfold.series import TruncatedSeries, expand_named, truncated_partial


def test_prop_fgh_holds_at_256():
    report = verify_series_identity("propFGH", 256)
    assert report.holds and report.first_failure is None


def test_cross_relation_holds_at_256():
    assert verify_series_identity("cross-GG-qFF", 256).holds
    assert verify_series_identity("cross-FG4-qGF4", 256).holds


@pytest.mark.parametrize("ident", identity_ids())
def test_registry_all_hold_at_128(ident):
    assert verify_series_identity(ident, 128).holds


def test_identities_exact_at_small_order():
    # exact identities hold at every order, even tiny ones
    for ident in identity_ids():
        assert verify_series_identity(ident, 8).holds


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify_series_identity("nope", 16)


def test_hn_reversal_to_level_10():
    report = verify_series_identity("hn-reversal", 2048)
    assert report.holds
    assert report.checked == 10


def test_hn_nonlinear_base_case():
    # at n=1 the left side is 1*(x+1) - 1*1 = x
    lhs = truncated_partial("H", -1).substitute_power(2) * truncated_partial("H", 1) \
        - truncated_partial("H", 0) * truncated_partial("H", 0).substitute_power(2)
    assert lhs == Polynomial([0, 1])


def test_corrupted_coefficient_is_detected():
    f, g, i = (expand_named(name, 64) for name in "FGI")
    coeffs = list(i.coeffs)
    coeffs[13] += 1
    rhs = f.substitute_power(3).shift(1) + g.substitute_power(3)
    report = _series_report("propFGH", TruncatedSeries(coeffs, 64), rhs)
    assert not report.holds
    assert report.first_failure == 13


def test_registry_metadata():
    for ident in identity_ids():
        entry = REGISTRY[ident]
        assert entry.kind in ("series", "prefix")
        assert entry.description


@pytest.mark.parametrize("ident", list(FOLD_CHECKS))
def test_fold_checks_hold(ident):
    check = FOLD_CHECKS[ident]
    assert check.kind in ("fold", "series") and check.description
    report = check.run(6 if check.kind == "fold" else 64)
    assert report.holds and report.first_failure is None


def test_level_report_first_failing_level():
    report = _level_report("demo", 1, 9, lambda n: n not in (4, 7))
    assert report == identities.IdentityReport("demo", False, 4, 9)
    assert _level_report("demo", 0, 3, lambda n: True).holds


def test_fg_mahler_reports_first_nonzero_residual(monkeypatch):
    zero = TruncatedSeries.zero(32)
    bad = TruncatedSeries([0] * 11 + [1], 32)
    monkeypatch.setattr(identities.folding, "rho_word_equations", lambda order: (zero, bad))
    report = FOLD_CHECKS["fg-mahler"].run(32)
    assert (report.holds, report.first_failure, report.checked) == (False, 11, 32)
