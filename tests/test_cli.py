import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mahlerfold.cli import main
from mahlerfold.contfrac import rho_value
from mahlerfold.curve import export_svg, path_from_signs
from mahlerfold.fiblucas import run_identity
from mahlerfold.folding import iterate_fold
from mahlerfold.identities import FOLD_CHECKS, REGISTRY
from mahlerfold.poly import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_json(capsys):
    code, out = run(capsys, "--json", "expand", "--name", "I", "--order", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["coeffs"] == ["1", "1", "0", "1", "1", "0", "0", "1", "0", "1"]


def test_expand_deterministic(capsys):
    _, out1 = run(capsys, "--json", "expand", "--name", "H", "--order", "20")
    _, out2 = run(capsys, "--json", "expand", "--name", "H", "--order", "20")
    assert out1 == out2


def test_verify_single(capsys):
    code, out = run(capsys, "verify", "--id", "propFGH", "--order", "64")
    assert code == 0
    assert "pass" in out


def test_verify_all_small(capsys):
    code, out = run(capsys, "verify", "--all", "--order", "48", "--max-level", "6")
    assert code == 0
    assert "FAIL" not in out
    for ident in ("propFGH", "rho-theorem", "ij-system", "e-words"):
        assert ident in out


def test_verify_bare_and_all_list_the_same_entries(capsys):
    small = ["--order", "48", "--max-level", "6"]
    ids = []
    for argv in (["--json", "verify"] + small, ["--json", "verify", "--all"] + small):
        code, out = run(capsys, *argv)
        assert code == 0
        ids.append([e["id"] for e in json.loads(out)["entries"]])
    assert ids[0] == ids[1]
    assert "determinant-law[0]" in ids[0]


def test_verify_exit_code_contract(capsys):
    # usage errors exit 2 via argparse
    with pytest.raises(SystemExit) as err:
        main(["expand", "--name", "Z", "--order", "4"])
    assert err.value.code == 2


def test_cf_eval(capsys):
    code, out = run(
        capsys, "--json", "cf", "eval",
        "--word", '{"head": 1, "entries": [2, 3]}',
    )
    assert code == 0
    assert json.loads(out)["value"] == "10/7"


def test_cf_eval_undefined(capsys):
    code, out = run(
        capsys, "--json", "cf", "eval",
        "--word", '{"head": 1, "entries": [1, -1]}',
    )
    assert code == 1
    assert "undefined_at_depth" in out


def test_cf_euclid(capsys):
    code, out = run(
        capsys, "--json", "cf", "euclid",
        "--num", "1+x+x^2+x^4+x^5", "--den", "1+x^2+x^4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["head"] == "1 + x"
    assert payload["entries"] == ["-x", "-x", "x", "x"]


def test_cf_rho_root(capsys):
    code, out = run(capsys, "cf", "rho", "--point", "root:1/1")
    assert code == 0
    assert "sqrt5" in out


def test_fold_iterate_signs(capsys):
    code, out = run(capsys, "--json", "fold", "iterate", "--spec", "rho", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["signs"] == "+++--+--++"
    assert payload["length"] == 10


def test_fold_iterate_specialize(capsys):
    code, out = run(
        capsys, "--json", "fold", "iterate", "--spec", "rho", "--n", "4", "--specialize"
    )
    payload = json.loads(out)
    assert payload["entries"][2] == "-1 + x"


def test_fold_check(capsys):
    code, out = run(capsys, "fold", "check", "--id", "rho-theorem", "--n", "8")
    assert code == 0


def test_fold_cohn(capsys):
    code, out = run(
        capsys, "--json", "fold", "cohn", "--poly", "x^2", "--mode", "irregular",
        "--nmax", "4",
    )
    payload = json.loads(out)
    assert payload["congruences"] == [1]
    assert payload["specializable"] is True


def test_curve_check_exit_codes(capsys):
    code, _ = run(capsys, "curve", "check", "--spec", "dragon", "--n", "10")
    assert code == 0
    code, _ = run(capsys, "curve", "check", "--spec", "cubic", "--n", "8")
    assert code == 1


def test_curve_render_golden(tmp_path, capsys):
    out_file = tmp_path / "dragon9.svg"
    code, _ = run(capsys, "curve", "render", "--spec", "dragon", "--n", "9",
                  "--out", str(out_file))
    assert code == 0
    data = out_file.read_bytes()
    golden = os.path.join(os.path.dirname(__file__), "golden", "dragon9.svg")
    with open(golden, "rb") as fh:
        assert data == fh.read()


def test_curve_render_overlay(tmp_path, capsys):
    # the triangle figure: w_15 with negated-reversed w_14 on top (small n here)
    out_file = tmp_path / "tri.svg"
    code, _ = run(capsys, "curve", "render", "--spec", "rho", "--n", "9",
                  "--out", str(out_file), "--overlay", "rho:8:negrev")
    assert code == 0
    w8, w9 = iterate_fold("rho", 8), iterate_fold("rho", 9)
    paths = [path_from_signs(w9), path_from_signs([-s for s in reversed(w8)])]
    assert out_file.read_text() == export_svg(paths)


def test_fold_spec_from_file(tmp_path, capsys):
    spec_file = tmp_path / "dragon.fold"
    spec_file.write_text("bases:[] ; rule: w1, x, -~w1\n")
    code, out = run(capsys, "--json", "fold", "iterate", "--spec", str(spec_file), "--n", "3")
    assert code == 0
    assert json.loads(out)["signs"] == "++-++--"


def test_hadamard_product_cli(capsys):
    code, out = run(
        capsys, "--json", "hadamard", "product",
        "--a", "pow2", "--b", "1/(1-2*q)", "--order", "8",
    )
    payload = json.loads(out)
    assert payload["coeffs"] == ["0", "2", "4", "0", "16", "0", "0", "0", "256"]


def test_hadamard_complete_cli(capsys):
    code, out = run(capsys, "--json", "hadamard", "complete", "--rational", "1/(1-2*q)")
    payload = json.loads(out)
    assert payload["complete"] is False
    code, out = run(capsys, "--json", "hadamard", "complete", "--rational", "q/(1-q)^2")
    payload = json.loads(out)
    assert payload["complete"] is True and payload["m"] == 1


def test_hadamard_kernel_cli(capsys):
    code, out = run(
        capsys, "--json", "hadamard", "kernel", "--seq", "1/(1-q)", "--k", "2",
        "--depth", "3", "--length", "512",
    )
    payload = json.loads(out)
    assert payload["distinct"] == 1


def test_hadamard_probe_cli(capsys):
    code, out = run(
        capsys, "--json", "hadamard", "probe", "--f", "pow2", "--g", "1/(1-2*q)",
        "--dmax", "2", "--degmax", "3", "--order", "128",
    )
    payload = json.loads(out)
    assert payload["result"].startswith("none_up_to")


def test_fib_identity_cli(capsys):
    # 8 terms leave delta ~ 7e-54: within 2^-128, though not within 2^-256
    code, out = run(capsys, "--json", "--bits", "128", "fib", "identity", "--id", "good",
                    "--terms", "8")
    assert code == 0
    payload = json.loads(out)
    assert float(payload["delta"]) < 1e-30


def test_fib_identity_fails_when_delta_passes_2_to_minus_bits(capsys):
    # three terms of Good's sum leave delta ~ 0.05: a verification failure
    code, out = run(capsys, "--json", "fib", "identity", "--id", "good", "--terms", "3")
    assert code == 1
    assert float(json.loads(out)["delta"]) > 0.04
    # the verdict is |delta| < 2^-bits: 2^-5 < 0.0486 < 2^-4
    assert main(["--bits", "5", "fib", "identity", "--id", "good", "--terms", "3"]) == 1
    assert main(["--bits", "4", "fib", "identity", "--id", "good", "--terms", "3"]) == 0


def test_fib_identity_table_row(capsys):
    code, out = run(capsys, "--json", "fib", "identity", "--id", "table-3", "--terms", "12")
    payload = json.loads(out)
    assert payload["expected"] == "-1"


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "euclid", "--num", "x^", "--den", "1"],
        ["expand", "--name", "H", "--order", "-3"],
        ["cf", "rho", "--point", "root:3/0"],
        ["cf", "rho", "--point", "root:3"],
        ["cf", "rho", "--point", "abc"],
        ["cf", "rho", "--n", "-3", "--point", "0.5"],
        ["cf", "eval", "--word", "{bad"],
        ["cf", "eval", "--word", "[1, 2]"],
        ["fold", "iterate", "--spec", "bogus", "--n", "3"],
        ["hadamard", "complete", "--rational", "1/q"],
        ["fold", "cohn", "--poly", "x^9+1", "--nmax", "6"],
        ["fib", "identity", "--id", "lucas", "--terms", "3"],
        ["curve", "render", "--spec", "dragon", "--n", "3", "--out", "-", "--overlay", "rho"],
        ["hadamard", "probe", "--f", "F", "--g", "1/(1-x)", "--k", "0", "--dmax", "1"],
        ["curve", "render", "--spec", "dragon", "--n", "3", "--out", "-", "--overlay", "rho:"],
        ["curve", "render", "--spec", "dragon", "--n", "3", "--out", "-", "--overlay", "rho:x"],
        ["curve", "render", "--spec", "dragon", "--n", "3", "--out", "-", "--overlay", "rho:8:rev"],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("mahlerfold: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if "--overlay" in argv:  # the message names the form that parses
        assert "SPEC:LEVEL[:negrev]" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "euclid", "--num", "x^", "--den", "1"],
        ["fold", "cohn", "--poly", "x^9+1", "--nmax", "6"],
    ],
)
def test_bad_input_json_error_object(capsys, argv):
    code = main(["--json", *argv])
    captured = capsys.readouterr()
    assert code == 2
    message = captured.err.removeprefix("mahlerfold: error: ").rstrip("\n")
    assert json.loads(captured.out) == {"error": message, "schema": 1}


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)
def test_fib_identity_prints_past_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "--json", "fib", "identity", "--id", "table-1", "--terms", "14")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    computed = json.loads(out)["computed"]
    assert len(computed) > 4300  # Python's default int-to-str digit limit
    sys.set_int_max_str_digits(0)
    try:
        assert computed == str(run_identity("table-1", 14).computed)
    finally:
        sys.set_int_max_str_digits(limit)


def test_fib_identity_cost_guard(capsys):
    t0 = time.monotonic()
    code = main(["fib", "identity", "--id", "table-1", "--terms", "25"])
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        "mahlerfold: error: 25 terms: exact value bits 134217728 is over the cap of 2^20 = 1048576")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert main(["fib", "identity", "--id", "table-1", "--terms", "18"]) == 0


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)
def test_cf_rho_prints_past_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "cf", "rho", "--point", "1/2")  # the default --n 16
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"value: {rho_value(16, Fraction(1, 2))}\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_cf_rho_cost_guard(capsys):
    t0 = time.monotonic()
    code = main(["cf", "rho", "--n", "24", "--point", "1/3"])
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "mahlerfold: error: rho_24 at 1/3: exact value bits 33554432 is over the cap of 2^20 = 1048576\n"
    )


@pytest.mark.parametrize("name", ["missing-dir/x.svg", "."])
def test_unwritable_out_file_exits_2(tmp_path, capsys, name):
    # a missing directory raises FileNotFoundError, a directory IsADirectoryError
    out = str(tmp_path / name)
    code = main(["--json", "curve", "render", "--spec", "dragon", "--n", "3", "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("mahlerfold: error: [Errno ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    message = captured.err.removeprefix("mahlerfold: error: ").rstrip("\n")
    assert json.loads(captured.out) == {"error": message, "schema": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["fold", "iterate", "--spec", "rho", "--n", "3", "--continuants", "--specialize"],
        ["fold", "iterate", "--spec", "rho", "--n", "3", "--signs", "--continuants"],
        ["verify", "--all", "--id", "propFGH"],
    ],
)
def test_conflicting_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_unknown_verify_id_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--id", "nope"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err


@pytest.mark.parametrize("terms", ["0", "-1"])
def test_fib_terms_must_be_positive(capsys, terms):
    with pytest.raises(SystemExit) as err:
        main(["fib", "identity", "--id", "good", "--terms", terms])
    assert err.value.code == 2
    assert "--terms: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fold", "check", "--id", "rho-theorem", "--n", "-3"], "--n"),
        (["fold", "check", "--id", "fg-mahler", "--order", "-1"], "--order"),
        (["verify", "--id", "rho-theorem", "--max-level", "-2"], "--max-level"),
        (["verify", "--id", "hn-recursions", "--order", "-4"], "--order"),
        (["hadamard", "probe", "--f", "F", "--g", "1/(1-x)", "--dmax", "-1"], "--dmax"),
        (["hadamard", "probe", "--f", "F", "--g", "1/(1-x)", "--degmax", "-1"], "--degmax"),
    ],
)
def test_negative_levels_and_orders_exit_2(capsys, argv, flag):
    # an empty range of levels is not a pass
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--bits", "-5", "fib", "identity", "--id", "good"],
        ["fib", "identity", "--id", "good", "--bits", "0"],
    ],
)
def test_bits_must_be_positive(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bits: must be >= 1" in captured.err


def test_verify_all_at_a_low_order(capsys):
    # every catalogue entry, the I/J system included, holds at any order
    code, out = run(capsys, "--json", "verify", "--all", "--order", "4")
    assert code == 0
    payload = json.loads(out)
    ids = [*REGISTRY, *FOLD_CHECKS, *(f"determinant-law[{i}]" for i in range(3))]
    assert [e["id"] for e in payload["entries"]] == ids and len(ids) == 18
    assert payload["failures"] == []


_HUGE = "100000000000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "--name", "H", "--order", _HUGE], f"order {_HUGE} is over the cap of 2^24"),
        (["expand", "--name", "H", "--order", str(2**24 + 1)], "is over the cap of 2^24"),
        (["verify", "--id", "propFGH", "--order", _HUGE], f"order {_HUGE} is over the cap"),
        (["hadamard", "product", "--a", "pow2", "--b", "1/(1-2*q)", "--order", _HUGE], "over the cap"),
        (["hadamard", "kernel", "--seq", "H", "--length", _HUGE], f"length {_HUGE} is over the cap"),
        (["hadamard", "kernel", "--seq", "H", "--depth", _HUGE], "shows only 0 terms"),
        (["hadamard", "probe", "--f", "F", "--g", "1/(1-q)", "--order", _HUGE], "over the cap"),
        (["hadamard", "probe", "--f", "F", "--g", "1/(1-q)", "--degmax", _HUGE],
         "the probe system's entry count"),
    ],
)
def test_sizes_past_the_cap_exit_2_before_allocating(capsys, argv, message):
    # each of these would allocate (or, for the kernel depth, compute k^depth)
    # far past memory and time; they are refused first
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_level_zero_is_accepted(capsys):
    code, out = run(capsys, "fold", "check", "--id", "rho-theorem", "--n", "0")
    assert code == 0
    assert "n <= 0" in out


def test_sign_word_cap_exits_2(capsys, monkeypatch):
    # an order whose rho sign words would pass the letter cap is refused
    from mahlerfold import folding

    monkeypatch.setattr(folding, "MAX_SIGN_WORD_LETTERS", 1000)
    assert main(["verify", "--id", "fg-mahler", "--order", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass the cap of 1000" in captured.err


@pytest.mark.parametrize("cmd", [["fold", "iterate"], ["curve", "check"]])
def test_sign_word_letter_cap_exits_2(capsys, monkeypatch, cmd):
    # a level whose word would pass the letter cap is refused before it is built
    from mahlerfold import folding

    monkeypatch.setattr(folding, "MAX_SIGN_WORD_LETTERS", 100)
    assert main(cmd + ["--spec", "dragon", "--n", "6"]) == 0  # 64 letters
    capsys.readouterr()
    assert main(cmd + ["--spec", "dragon", "--n", "7"]) == 2  # 128 letters
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mahlerfold: error: w_7 would pass the cap of 100 letters\n"


def test_failing_fold_check_reports_first_level(capsys, monkeypatch):
    # H_3 corrupted: the rho theorem first fails at level 3, in verify and fold check
    from mahlerfold import identities

    partial = identities.truncated_partial

    def corrupted(name, n):
        return partial(name, n) + 1 if (name, n) == ("H", 3) else partial(name, n)

    monkeypatch.setattr(identities, "truncated_partial", corrupted)
    code, out = run(capsys, "--json", "verify", "--id", "rho-theorem")
    payload = json.loads(out)
    assert code == 1
    assert payload["failures"] == ["rho-theorem"]
    assert payload["entries"][0]["detail"] == "n <= 10; first failure at 3"
    code, out = run(capsys, "fold", "check", "--id", "rho-theorem", "--n", "10")
    assert code == 1
    assert out == "id: rho-theorem\nstatus: FAIL\ndetail: n <= 10; first failure at 3\n"


def test_failing_ij_system_reports_first_index(capsys, monkeypatch):
    # I's coefficient at x^7 corrupted: the I/J system first fails at index 7
    from mahlerfold import folding
    from mahlerfold.series import TruncatedSeries

    ij_series = folding.ij_series

    def corrupted(order):
        i_s, j_s = ij_series(order)
        coeffs = list(i_s.coeffs)
        coeffs[7] += 2
        return TruncatedSeries(coeffs, i_s.order), j_s

    monkeypatch.setattr(folding, "ij_series", corrupted)
    code, out = run(capsys, "verify", "--id", "ij-system")
    assert code == 1
    assert "FAIL  ij-system" in out and "; first failure at 7 (" in out


def test_bad_input_process_exit_code():
    # the exit status and stderr of a real process, not just main's return value
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "mahlerfold.cli", "cf", "euclid", "--num", "x^", "--den", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == "mahlerfold: error: unexpected end of expression in 'x^'\n"


def test_cohn_stops_at_the_first_failing_level(capsys, monkeypatch):
    # f and f(f) already fail, so no iterate past degree 4 is composed
    composed = []
    call = Polynomial.__call__

    def recording_call(self, point):
        result = call(self, point)
        if isinstance(point, Polynomial):
            composed.append(result.degree)
        return result

    monkeypatch.setattr(Polynomial, "__call__", recording_call)
    code, out = run(capsys, "--json", "fold", "cohn", "--poly", "x^2+x+1",
                    "--mode", "irregular", "--nmax", "12")
    assert max(composed) == 4
    assert code == 0
    assert out == (
        '{"checked_up_to": 12, "congruences": [], "fails_at": 2, "mode": "irregular", '
        '"schema": 1, "specializable": false, "witness": "1/2 + 1/2*x + 1/2*x^2"}\n'
    )


def _address_space_2gb():
    # a guard that stopped working would fail here with MemoryError, not exhaust the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))


@pytest.mark.parametrize("argv, message", [
    (["fold", "check", "--id", "rho-theorem", "--n", "40"],
     "rho-theorem at level 40: coefficients 1099511627776 is over the cap of 2^20 = 1048576"),
    (["fold", "cohn", "--poly", "x^4+1", "--mode", "sum", "--nmax", "8"],
     "iterated polynomial degree 16384 is over the cap of 2^12 = 4096"),
    (["fold", "check", "--id", "rho-theorem", "--n", _HUGE], f"rho-theorem level {_HUGE} is over the cap"),
    (["fib", "identity", "--id", "good", "--terms", _HUGE], f"terms {_HUGE} is over the cap"),
    (["cf", "rho", "--point", "1/3", "--n", _HUGE], f"rho_{_HUGE} at 1/3: exponent bits"),
    (["cf", "euclid", "--num", "x^99999999999", "--den", "1"],
     "power's coefficient count 100000000000 is over the cap of 2^24 = 16777216"),
    (["cf", "euclid", "--num", "2^99999999999", "--den", "1"],
     "power's coefficient bits 99999999999 is over the cap of 2^20 = 1048576"),
    (["cf", "euclid", "--num", "(1+x)^100000000", "--den", "1"], "power's coefficient count 100000001"),
    (["hadamard", "product", "--a", "F", "--b", "1/(1-q^100000000)", "--order", "16"],
     "power's coefficient count 100000001"),
    (["cf", "euclid", "--num", "(" * 2000 + "x" + ")" * 2000, "--den", "1"],
     "expression nested more than 100 deep"),
    (["cf", "euclid", "--num=" + "-" * 5000 + "x", "--den", "1"], "expression nested more than 100 deep"),
    (["cf", "rho", "--point", "0.5", "--n", "100000"],
     "rho_100000 at 0.5: exponent bits 5000000000 is over the cap of 2^20 = 1048576"),
    (["--bits", _HUGE, "fib", "identity", "--id", "good", "--terms", "4"],
     f"--bits {_HUGE} is over the cap of 2^20 = 1048576"),
    (["--bits", _HUGE, "cf", "rho", "--point", "0.5"], f"--bits {_HUGE} is over the cap of 2^20"),
], ids=["rho-theorem-level", "cohn-degree", "rho-theorem-huge-level", "fib-huge-terms",
        "cf-rho-huge-n-exact", "power-degree", "power-bits", "power-binomial", "hadamard-power",
        "nested-parentheses", "prefix-signs", "cf-rho-numeric-n", "bits-fib", "bits-cf-rho"])
def test_costly_requests_are_refused_before_the_work(argv, message):
    # the refusal comes from a cost estimate, not after hours of work
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")}
    proc = subprocess.run([sys.executable, "-m", "mahlerfold.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=2, preexec_fn=_address_space_2gb)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"mahlerfold: error: {message}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
