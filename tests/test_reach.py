"""Every module-level function in ``src/`` is reached by a command.

A fresh interpreter turns on ``sys.setprofile`` before it imports
``mahlerfold``, so calls made at import count too, and then runs three sets
of commands in-process:

- every golden CLI case (``tests/test_golden_cli.py``);
- every job of ``perfbench/run.py``'s ``workloads(0)``, read from the runner:
  CLI jobs through ``cli.main``, the others as the scripts they name;
- the console-script commands of the CI workflow, refusals included, at small
  sizes.

A function that none of them enters is reached only by tests: it moves to
``tests/`` or goes.  ``ALLOWED`` lists the exceptions, each under the open
ROADMAP item that will give it a caller or replace it.  An entry that is
reached, or no longer exists, fails the test as well, so the list only
shrinks.  Dunder functions are exempt.
"""

import json
import os
import subprocess
import sys

from test_golden_cli import CASES, GOLDEN_DIR

ROOT = os.path.join(os.path.dirname(__file__), "..")

ALLOWED = {
    "item 3 (exact rho at every 2^n-th root of unity)": "contfrac.rho_cf",
    "item 5 (modular certificates; special recursions)":
        "folding.special_recursion_polys folding._is_special folding._special_holds "
        "folding._solve_in_powers",
    "item 9 (Fibonacci-Lucas identities proven by telescoping)":
        "fiblucas.telescope_sum fiblucas.telescope_product_sum fiblucas.cf_row_entry_check "
        "fiblucas._eval_rf",
}

_HUGE = "100000000000"
CI_REFUSED = [
    ["fold", "check", "--id", "rho-theorem", "--n", "40"],
    ["fold", "check", "--id", "e-words", "--n", "40"],
    ["fold", "cohn", "--poly", "x^4+1", "--mode", "sum", "--nmax", "8"],
    ["expand", "--name", "H", "--order", _HUGE],
    ["verify", "--id", "propFGH", "--order", _HUGE],
    ["hadamard", "product", "--a", "F", "--b", "1/(1-q)", "--order", _HUGE],
    ["hadamard", "kernel", "--seq", "H", "--length", _HUGE],
    ["hadamard", "kernel", "--seq", "H", "--depth", _HUGE],
    ["hadamard", "probe", "--f", "F", "--g", "1/(1-q)", "--order", _HUGE],
    ["hadamard", "probe", "--f", "F", "--g", "1/(1-q)", "--degmax", _HUGE],
    ["cf", "euclid", "--num", "x^99999999999", "--den", "1"],
    ["cf", "euclid", "--num", "2^99999999999", "--den", "1"],
    ["cf", "euclid", "--num", "(1+x)^100000000", "--den", "1"],
    ["cf", "euclid", "--num", "(1+x)^1000000", "--den", "1"],
    ["hadamard", "product", "--a", "F", "--b", "1/(1-q^100000000)", "--order", "16"],
    ["cf", "euclid", "--num", "(" * 2000 + "x" + ")" * 2000, "--den", "1"],
    ["cf", "euclid", "--num=" + "-" * 5000 + "x", "--den", "1"],
    ["cf", "rho", "--point", "0.5", "--n", "100000"],
    ["cf", "rho", "--point", "1/3", "--n", _HUGE],
    ["--bits", _HUGE, "fib", "identity", "--id", "good", "--terms", "4"],
    ["--bits", _HUGE, "cf", "rho", "--point", "0.5"],
]
CI_PASSING = [
    ["fold", "check", "--id", "rho-theorem", "--n", "8", "--json"],
    ["--json", "expand", "--name", "H", "--order", "16"],
    ["curve", "render", "--spec", "dragon", "--n", "9", "--out", "{tmp}/dragon9.svg"],
    ["curve", "render", "--spec", "rho", "--n", "9", "--out", "{tmp}/rho9.svg",
     "--palette", "two-tone", "--overlay", "rho:8:negrev"],
    ["--json", "fold", "iterate", "--spec", "quintic", "--n", "3", "--continuants"],
    ["curve", "check", "--spec", "dragon", "--n", "10", "--json"],
    ["cf", "euclid", "--num", "3^14000", "--den", "1"],
]

CHILD = r"""
import contextlib, importlib, io, json, pkgutil, runpy, sys, types

seen = set()
sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code))

from mahlerfold import cli

root, tmp, commands = json.loads(sys.stdin.read())


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            if argv[:2] != ["-m", "mahlerfold.cli"]:
                sys.argv = argv
                runpy.run_path(argv[0], run_name="__main__")
                return 0
            return cli.main(argv[2:])
        except SystemExit as exc:
            return exc.code


codes = {" ".join(argv): [run(["-m", "mahlerfold.cli", *argv]), code] for argv, code in commands}
sys.path.insert(0, root + "/perfbench")
import run as runner

for workload in runner.workloads(0).values():
    for job in workload.jobs:
        argv = list(job.argv)
        if "--out" in argv:
            argv[argv.index("--out") + 1] = tmp + "/job.svg"
        codes[job.id] = [run(argv), job.exit_code]
sys.setprofile(None)

import mahlerfold

unreached = []
modules = [mahlerfold] + [importlib.import_module(f"mahlerfold.{m.name}")
                          for m in pkgutil.iter_modules(mahlerfold.__path__)]
for module in modules:
    for attr, value in vars(module).items():
        if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                and value.__name__ == attr and not attr.startswith("__")
                and value.__code__ not in seen):
            unreached.append(module.__name__.removeprefix("mahlerfold.") + "." + attr)
print(json.dumps({"codes": codes, "unreached": sorted(unreached)}))
"""


def _golden_code(name: str) -> int:
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as fh:
        return int(fh.readline().removeprefix("exit: "))


def test_every_src_function_is_reached_or_owned(tmp_path):
    commands = [(argv, _golden_code(name)) for name, argv in CASES.items()]
    commands += [([a.replace("{tmp}", str(tmp_path)) for a in argv], 0) for argv in CI_PASSING]
    commands += [(argv, 2) for argv in CI_REFUSED]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps([ROOT, str(tmp_path), commands]),
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # each command exits as it is known to, so none stopped short of its work
    assert {name: got for name, (got, want) in result["codes"].items() if got != want} == {}

    allowed = {name for names in ALLOWED.values() for name in names.split()}
    unreached = set(result["unreached"])
    unlisted = sorted(unreached - allowed)
    assert not unlisted, f"reached only by tests (move them to tests/ or delete them): {unlisted}"
    stale = sorted(allowed - unreached)
    assert not stale, f"allowlisted but reached or gone (drop the entries): {stale}"
