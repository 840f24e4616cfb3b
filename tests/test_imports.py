"""What a fresh process imports.

Each check runs in its own interpreter, because the test modules themselves
import mpmath and every mahlerfold module.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")

# every name mahlerfold/__init__.py imported eagerly before it became lazy
PACKAGE_NAMES = """
Polynomial RationalFunction parse_poly parse_rational PHI SQRT5 GaussianRational QuadNum
MahlerEquation MahlerSolveError TruncatedSeries baum_sweet expand_named fibbinary membership
solve_mahler truncated_partial IdentityReport identity_ids verify_series_identity
ContinuantMatrix DivisionByZero IrregularCF Word continuants euclid_cf eval_irregular
eval_regular fold lambda_word limit_classify product_to_H rho_at_root_of_unity rho_cf rho_value
FoldEngine FoldSpec FoldSyntaxError cohn_congruence_test fold_continuants ij_system_check
iterate_fold named_spec parse_fold_spec sign_generating_functions special_recursion_polys
specializable_iterated specialize LatticePath export_svg path_from_signs self_crossing
KernelReport becker_homogenize hadamard_mahler_probe hadamard_product
is_complete_hadamard_rational k_kernel binet_residual cf_identity_table fib lucas run_identity
telescope_product_sum telescope_sum __version__
""".split()

EXACT_COMMANDS = [
    ["cf", "euclid", "--num", "1+x+x^2+x^4+x^5", "--den", "1+x^2+x^4"],
    ["cf", "eval", "--word", '{"head": 1, "entries": [2, 3]}'],
    ["cf", "rho", "--point", "2/1", "--n", "4"],
    ["cf", "rho", "--point", "root:1/4"],
    ["curve", "check", "--spec", "dragon", "--n", "10"],
    ["fold", "check", "--id", "rho-theorem", "--n", "8"],
    ["hadamard", "probe", "--f", "pow2", "--g", "1/(1-2*q)", "--dmax", "4", "--degmax", "8",
     "--order", "512"],
    ["verify", "--all", "--order", "64"],
]

RUN_MAIN = """
import contextlib, io, json, sys
from mahlerfold.cli import main
codes, out = [], io.StringIO()
for argv in {commands!r}:
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
mahlerfold = sorted(m for m in sys.modules if m.split(".")[0] == "mahlerfold")
print(json.dumps({{"codes": codes, "out": out.getvalue(), "mpmath": "mpmath" in sys.modules,
                  "mahlerfold": mahlerfold}}))
"""


def fresh(code: str) -> dict:
    """Run code in a new interpreter; it prints one JSON line last."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_commands_do_not_load_mpmath():
    result = fresh(RUN_MAIN.format(commands=EXACT_COMMANDS))
    assert result["codes"] == [0] * len(EXACT_COMMANDS)
    assert not result["mpmath"]


def test_numeric_root_of_unity_loads_mpmath():
    result = fresh(RUN_MAIN.format(commands=[["cf", "rho", "--point", "root:1/8"]]))
    assert result["codes"] == [0]
    assert result["out"] == "value: (1.32573251264142 - 0.145672008149607j)\n"
    assert result["mpmath"]


def test_a_submodule_loads_only_what_it_imports():
    result = fresh(
        "import json, sys, mahlerfold.series\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('mahlerfold', 'mpmath'))))"
    )
    assert result == ["mahlerfold", "mahlerfold.poly", "mahlerfold.series"]


def test_package_names_resolve_lazily():
    result = fresh(
        "import json, sys, mahlerfold\n"
        "listed = dir(mahlerfold)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('mahlerfold.'))\n"
        f"names = {PACKAGE_NAMES!r}\n"
        "homes = {n: getattr(getattr(mahlerfold, n), '__module__', None) for n in names}\n"
        "same = all(getattr(mahlerfold, n) is getattr(sys.modules[h], n)\n"
        "           for n, h in homes.items() if h in sys.modules)\n"
        "try:\n"
        "    mahlerfold.no_such_name\n"
        "    missing = False\n"
        "except AttributeError:\n"
        "    missing = True\n"
        "from mahlerfold import linalg\n"
        "print(json.dumps({'unlisted': sorted(set(names) - set(listed)), 'loaded': loaded,\n"
        "                  'same': same, 'missing': missing, 'version': mahlerfold.__version__}))"
    )
    assert result == {"unlisted": [], "loaded": [], "same": True, "missing": True,
                      "version": "0.1.0"}


def test_cli_import_loads_every_trace_target():
    # the benchmark's trace shim wraps its targets after `import mahlerfold.cli`
    spec = importlib.util.spec_from_file_location(
        "trace_shim", os.path.join(ROOT, "perfbench", "trace_shim.py"))
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    result = fresh(RUN_MAIN.format(commands=[]))
    assert {module for module, *_ in shim.TARGETS} <= set(result["mahlerfold"])
    assert not result["mpmath"]


def test_series_builds_no_dataclass():
    # MahlerEquation is a plain class: importing the series layer does not
    # load dataclasses, whose classes exec generated methods at import
    result = fresh("import json, sys, mahlerfold.series\nprint(json.dumps('dataclasses' in sys.modules))")
    assert result is False


def test_cli_import_builds_one_dataclass():
    # the records are NamedTuples or plain classes; Identity stays a dataclass
    # because the trace shim rebinds registry entries with dataclasses.replace
    result = fresh(
        "import json, sys, mahlerfold.cli\n"
        "print(json.dumps(sorted(f'{name}.{c.__qualname__}' for name, module in list(sys.modules.items())\n"
        "    if name.split('.')[0] == 'mahlerfold' for c in vars(module).values()\n"
        "    if isinstance(c, type) and c.__module__ == name and '__dataclass_fields__' in vars(c))))"
    )
    assert result == ["mahlerfold.identities.Identity"]


def test_records_compare_hash_and_refuse_assignment():
    from mahlerfold.contfrac import Word
    from mahlerfold.folding import FoldSpec, RuleConst, RuleFold, RuleRef, _find_folds, named_spec
    from mahlerfold.poly import Polynomial
    from mahlerfold.series import MahlerEquation

    assert RuleConst(1) == RuleConst(1) and RuleConst(1) != RuleRef(1)
    assert RuleRef(2, True) == RuleRef(2, reverse=True) != RuleRef(2, negate=True)
    # NamedTuples equal plain tuples of the same values, so nothing may tell items apart by ==
    # alone: RuleConst and RuleFold both have two fields, and a RuleRef run is mirrored by type
    assert RuleConst(1) == (1, False) and RuleFold((), RuleConst(1)) != RuleConst(1)
    ref = RuleRef(1)
    assert _find_folds((ref, RuleConst(1), RuleRef(1, True, True))) == (RuleFold((ref,), RuleConst(1)),)
    assert _find_folds((ref, RuleConst(1), (1, True, True))) == (ref, RuleConst(1), (1, True, True))
    spec = named_spec("rho")
    same = FoldSpec(spec.bases, spec.rule)
    assert same == spec and hash(same) == hash(spec) and same.folds == spec.folds
    assert len({RuleConst(-1), RuleConst(-1), RuleRef(1), spec, same}) == 3
    assert repr(Word((1, 2), 3)) == "Word(entries=(1, 2), head=3)" and len(Word((1, 2))) == 2
    assert repr(spec) == f"FoldSpec(bases={spec.bases!r}, rule={spec.rule!r})"
    eq = MahlerEquation(2, [Polynomial.one()])
    for record, name in ((RuleConst(1), "sign"), (RuleRef(1), "depth"), (spec, "rule"),
                         (spec, "folds"), (Word((1,)), "head"), (eq, "k")):
        try:
            setattr(record, name, None)
        except AttributeError:
            continue
        raise AssertionError(f"{type(record).__name__}.{name} was assigned")
