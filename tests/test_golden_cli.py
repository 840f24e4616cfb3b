"""Golden CLI transcript: stdout and exit code of fixed commands.

Each case has a file ``tests/golden/cli/<name>.txt`` whose first line is
``exit: <code>`` and whose remainder is the command's stdout, with the
``verify`` timing field masked.  Regenerate (after a deliberate output
change) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import os
import re

import pytest

from mahlerfold.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")

CASES = {
    # the README examples (curve render is covered by golden/dragon9.svg)
    "expand-H-16-json": ["expand", "--name", "H", "--order", "16", "--json"],
    "verify-propFGH-512": ["verify", "--id", "propFGH", "--order", "512"],
    "verify-all": ["verify", "--all"],
    "cf-eval": ["cf", "eval", "--word", '{"head": 1, "entries": [2, 3]}'],
    "cf-euclid": ["cf", "euclid", "--num", "1+x+x^2+x^4+x^5", "--den", "1+x^2+x^4"],
    "cf-rho-root-3-8": ["cf", "rho", "--point", "root:3/8"],
    "fold-iterate-rho-5-specialize": ["fold", "iterate", "--spec", "rho", "--n", "5", "--specialize"],
    "fold-check-rho-theorem-12": ["fold", "check", "--id", "rho-theorem", "--n", "12"],
    "fold-cohn-x2-2": ["fold", "cohn", "--poly", "x^2-2", "--mode", "irregular", "--nmax", "6"],
    "curve-check-cubic-8": ["curve", "check", "--spec", "cubic", "--n", "8"],
    "hadamard-product": ["hadamard", "product", "--a", "pow2", "--b", "1/(1-2*q)", "--order", "16"],
    "hadamard-complete": ["hadamard", "complete", "--rational", "q/(1-q)^2"],
    "hadamard-kernel": ["hadamard", "kernel", "--seq", "1/(1-q)", "--k", "2", "--depth", "4"],
    "hadamard-probe": ["hadamard", "probe", "--f", "pow2", "--g", "1/(1-2*q)", "--dmax", "4",
                       "--degmax", "8", "--order", "512"],
    "fib-good-json": ["fib", "identity", "--id", "good", "--terms", "10", "--json"],
    # rho at an exact rational point, at mpmath decimal and complex points and
    # at a root of unity at high precision
    "cf-rho-half-10": ["cf", "rho", "--point", "1/2", "--n", "10"],
    "cf-rho-decimal-half-10": ["cf", "rho", "--point", "0.5", "--n", "10"],
    "cf-rho-complex-4": ["cf", "rho", "--point", "(1+2j)", "--n", "4"],
    "cf-rho-root-5-16-512": ["cf", "rho", "--point", "root:5/16", "--bits", "512"],
    # the exact root-of-unity branches: Q(sqrt5) at +-1, Q(i, sqrt5) at +-i
    "cf-rho-root-1-1": ["cf", "rho", "--point", "root:1/1"],
    "cf-rho-root-1-2": ["cf", "rho", "--point", "root:1/2"],
    "cf-rho-root-1-4": ["cf", "rho", "--point", "root:1/4"],
    "cf-rho-root-3-4": ["cf", "rho", "--point", "root:3/4"],
    # continued-fraction evaluation and continuants beyond the README
    "cf-eval-undefined": ["--json", "cf", "eval", "--word", '{"head": 1, "entries": [1, -1]}'],
    "cf-eval-poly": ["cf", "eval", "--word", '{"head": "x", "entries": ["x^2", "-x", "1/2"]}'],
    "cf-eval-poly-at-third": ["cf", "eval", "--word", '{"head": "x", "entries": ["x^2", "-x"]}',
                              "--at", "1/3"],
    "cf-eval-poly-at-decimal-half": ["cf", "eval", "--word",
                                     '{"head": "x", "entries": ["x^2", "-x"]}', "--at", "0.5"],
    # without a head the first entry heads the continued fraction: [2; 3] = 7/3
    "cf-eval-headless": ["cf", "eval", "--word", '{"entries": [2, 3]}'],
    # JSON decimal numbers are read as written, as their strings are
    "cf-eval-decimal-json": ["cf", "eval", "--word", '{"head": 0.1, "entries": [0.25]}'],
    "fold-iterate-dragon-6-continuants": ["fold", "iterate", "--spec", "dragon", "--n", "6",
                                          "--continuants"],
    "fold-cohn-x2-sum": ["fold", "cohn", "--poly", "x^2", "--mode", "sum", "--nmax", "4"],
    # the fold-rule interpreter on every built-in rule shape; continuants only
    # where the transcript stays small (quintic's runs to 1.4 MB)
    "curve-check-rho-12": ["curve", "check", "--spec", "rho", "--n", "12"],
}
for _spec in ("cubic", "cubic-alt", "quintic", "rational-ex"):
    CASES[f"fold-iterate-{_spec}-5-signs"] = ["fold", "iterate", "--spec", _spec, "--n", "5",
                                               "--signs"]
for _spec in ("cubic", "cubic-alt"):
    CASES[f"fold-iterate-{_spec}-5-continuants"] = ["fold", "iterate", "--spec", _spec, "--n",
                                                     "5", "--continuants"]
for _ident in ("good", "fl-ratio", "hideyuki", "lucas", "table-1", "table-2", "table-3",
               "table-4", "table-5", "table-6"):
    CASES[f"fib-{_ident}"] = ["fib", "identity", "--id", _ident]

_MS_TEXT = re.compile(r"\(\d+(\.\d+)? ms\)")


def _mask(text: str) -> str:
    """Blank out verify's wall-clock ``ms`` field."""
    return _MS_TEXT.sub("(- ms)", text)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, _mask(out.getvalue())


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    with open(_golden_path(name)) as fh:
        first, _, expected = fh.read().partition("\n")
    code, out = _run(CASES[name])
    assert (code, out) == (int(first.removeprefix("exit: ")), expected)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case, argv in CASES.items():
        code, out = _run(argv)
        with open(_golden_path(case), "w") as fh:
            fh.write(f"exit: {code}\n{out}")
