"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error: argparse's
rejections (its usage message only, also under ``--json``; conflicting flags
are among them) and any domain error raised by bad input after parsing,
including an output file that cannot be written, which ``main`` reports as one
``mahlerfold: error: ...`` line on stderr (under ``--json`` also as
{"error": ..., "schema": 1} on stdout).  All outputs are deterministic for
fixed arguments; JSON payloads carry a top-level "schema": 1 field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time
from fractions import Fraction

from . import contfrac, curve, fiblucas, folding, hadamard
from .identities import FOLD_CHECKS, REGISTRY
from .poly import MAX_RESULT_BITS_LOG2, RationalFunction, check_size, parse_poly, parse_rational
from .series import NAMED_SERIES, TruncatedSeries, expand_named

SCHEMA = 1


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _series_payload(name: str, series: TruncatedSeries) -> dict:
    return {
        "name": name,
        "order": series.order,
        "coeffs": [str(Fraction(c)) for c in series.coeffs],
    }


def _exact_str(value) -> str:
    """str() of an exact value whose integers may have more digits than
    Python's int-to-str limit, which guards parsing input, not our output."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# expand / verify
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    series = expand_named(args.name, args.order)
    _emit(_series_payload(args.name, series), args.json)
    return 0


_DETAIL = {"series": "order {}", "prefix": "levels <= {}", "fold": "n <= {}"}


def _entry(ident: str, ok: bool, detail: str) -> dict:
    return {"id": ident, "status": "pass" if ok else "FAIL", "detail": detail}


def _run_check(ident: str, order: int, max_level: int) -> dict:
    """Run one catalogue entry: a fold check gets the level, any other the order."""
    check = {**REGISTRY, **FOLD_CHECKS}[ident]  # at call time: a tracer may rebind entries
    report = check.run(max_level if check.kind == "fold" else order)
    detail = _DETAIL[check.kind].format(report.checked)
    if report.first_failure is not None:
        detail += f"; first failure at {report.first_failure}"
    return _entry(ident, report.holds, detail)


def _random_spotchecks(seed: int) -> list[dict]:
    """Randomized determinant-law samples run with the whole catalogue."""
    rng = random.Random(seed)
    results = []
    for trial in range(3):
        word = contfrac.Word(
            tuple(rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 12))),
            rng.randint(-9, 9),
        )
        n = len(word.entries)  # index of the last symbol
        ok = contfrac.continuants(word).det() == (-1) ** (n + 1)
        results.append({**_entry(f"determinant-law[{trial}]", ok, f"n={n}"), "ms": 0.0})
    return results


def cmd_verify(args) -> int:
    entries = []
    for ident in [args.id] if args.id else [*REGISTRY, *FOLD_CHECKS]:
        start = time.monotonic()
        entry = _run_check(ident, args.order, args.max_level)
        entries.append({**entry, "ms": round((time.monotonic() - start) * 1000.0, 1)})
    if not args.id:
        entries += _random_spotchecks(args.seed)
    failures = [e["id"] for e in entries if e["status"] == "FAIL"]
    if args.json:
        print(json.dumps({"schema": SCHEMA, "entries": entries,
                          "failures": failures}, sort_keys=True))
    else:
        for e in entries:
            print(f"{e['status']:4}  {e['id']:<22} {e['detail']} ({e['ms']} ms)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# cf subcommands
# ---------------------------------------------------------------------------


def _parse_point(text: str):
    if "/" in text and "j" not in text and "i" not in text:
        return Fraction(text)
    import mpmath as mp

    try:
        return mp.mpmathify(text)
    except TypeError:
        raise ValueError(f"bad point {text!r}") from None


def _precision(point, bits: int):
    """mpmath's working precision at a numeric point; none, and no import, at an exact one."""
    if point is None or isinstance(point, Fraction):
        return contextlib.nullcontext()
    import mpmath as mp

    return mp.workprec(bits)


def _parse_word_json(text: str) -> contfrac.Word:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("--word must be a JSON object")
    entries = tuple(_parse_entry(e) for e in data.get("entries", []))
    head = data.get("head")
    return contfrac.Word(entries, _parse_entry(head) if head is not None else None)


def _parse_entry(e):
    if isinstance(e, str):
        try:
            return Fraction(e)
        except ValueError:
            return parse_poly(e)
    if isinstance(e, (int, float)):
        return Fraction(e)
    raise ValueError(f"bad word entry {e!r}")


def cmd_cf(args) -> int:
    if args.cf_cmd == "eval":
        word = _parse_word_json(args.word)
        point = _parse_point(args.at) if args.at else None
        with _precision(point, args.bits):
            try:
                value = contfrac.eval_regular(word, point)
            except contfrac.DivisionByZero as exc:
                _emit({"undefined_at_depth": exc.depth}, args.json)
                return 1
        _emit({"value": _exact_str(value)}, args.json)
        return 0
    if args.cf_cmd == "euclid":
        num = parse_poly(args.num)
        den = parse_poly(args.den)
        word = contfrac.euclid_cf(RationalFunction(num, den))
        _emit({"head": str(word.head), "entries": [str(e) for e in word.entries]}, args.json)
        return 0
    if args.cf_cmd == "rho":
        if args.point and args.point.startswith("root:"):
            a, _, denom = args.point[5:].partition("/")
            a, denom = int(a), int(denom)
            n = denom.bit_length() - 1
            if denom < 1 or 1 << n != denom:
                raise ValueError("root denominator must be a power of two")
            value = contfrac.rho_at_root_of_unity(n, a, args.bits)
            _emit({"value": _exact_str(value)}, args.json)
            return 0
        point = _parse_point(args.point) if args.point else None
        if point is None:
            raise ValueError("cf rho requires --point")
        with _precision(point, args.bits):
            value = contfrac.rho_value(args.n, point)
        _emit({"value": _exact_str(value)}, args.json)
        return 0
    raise AssertionError


# ---------------------------------------------------------------------------
# fold subcommands
# ---------------------------------------------------------------------------


def cmd_fold(args) -> int:
    if args.fold_cmd == "iterate":
        spec = folding.resolve_spec(args.spec)
        word = folding.iterate_fold(spec, args.n)
        payload = {"n": args.n, "length": len(word)}
        if args.continuants:
            mat = folding.fold_continuants(spec, args.n, folding.rho_head(args.n))
            payload["p"] = str(mat.p)
            payload["q"] = str(mat.q)
        elif args.specialize:
            sp = folding.specialize(folding.rho_head(args.n), word)
            payload["head"] = str(sp.head)
            payload["entries"] = [str(e) for e in sp.entries]
        else:
            payload["signs"] = "".join("+" if s > 0 else "-" for s in word)
        _emit(payload, args.json)
        return 0
    if args.fold_cmd == "check":
        entry = _run_check(args.id, args.order, args.n)
        _emit(entry, args.json)
        return 0 if entry["status"] == "pass" else 1
    if args.fold_cmd == "cohn":
        f = parse_poly(args.poly)
        mode = "cohn_sum" if args.mode == "sum" else "irregular"
        congruences = folding.cohn_congruence_test(f)
        report = folding.specializable_iterated(f, mode, args.nmax)
        payload = {
            "mode": mode,
            "congruences": congruences,
            "specializable": report.specializable,
            "checked_up_to": report.checked_up_to,
        }
        if report.fails_at is not None:
            payload["fails_at"] = report.fails_at
            payload["witness"] = str(report.witness)
        _emit(payload, args.json)
        return 0
    raise AssertionError


# ---------------------------------------------------------------------------
# curve subcommands
# ---------------------------------------------------------------------------


def cmd_curve(args) -> int:
    word = folding.iterate_fold(args.spec, args.n)
    path = curve.path_from_signs(word)
    if args.curve_cmd == "render":
        paths = [path]
        if args.overlay is not None:
            ospec, _, level = args.overlay.removesuffix(":negrev").rpartition(":")
            if not (ospec and level.isdecimal()):
                raise ValueError(f"--overlay {args.overlay!r} is not SPEC:LEVEL[:negrev]")
            oword = folding.iterate_fold(ospec, int(level))
            if args.overlay.endswith(":negrev"):
                oword = folding.negated(oword[::-1])
            paths.append(curve.path_from_signs(oword))
        svg = curve.export_svg(paths, palette=args.palette)
        if args.out == "-":
            sys.stdout.write(svg)
        else:
            with open(args.out, "w") as fh:
                fh.write(svg)
            print(f"wrote {args.out} ({path.edge_count} edges)")
        return 0
    if args.curve_cmd == "check":
        hit = curve.self_crossing(path)
        _emit(
            {
                "n": args.n,
                "edges": path.edge_count,
                "self_crossing": hit is not None,
                "first_repeated_edge": hit,
            },
            args.json,
        )
        return 1 if hit is not None else 0
    raise AssertionError


# ---------------------------------------------------------------------------
# hadamard subcommands
# ---------------------------------------------------------------------------


def _series_from_spec(text: str, order: int) -> TruncatedSeries:
    """Named series (F/G/H/I), 'pow2' (sum of q^(2^n)), or a rational expr."""
    check_size("order", order)
    if text in NAMED_SERIES:
        return expand_named(text, order)
    if text == "pow2":
        return TruncatedSeries([int(n > 0 and not n & (n - 1)) for n in range(order + 1)], order)
    return TruncatedSeries.from_rational(parse_rational(text), order)


def cmd_hadamard(args) -> int:
    if args.hadamard_cmd == "product":
        a = _series_from_spec(args.a, args.order)
        b = _series_from_spec(args.b, args.order)
        _emit(_series_payload(f"({args.a})*({args.b})", hadamard.hadamard_product(a, b)), args.json)
        return 0
    if args.hadamard_cmd == "complete":
        result = hadamard.is_complete_hadamard_rational(parse_rational(args.rational))
        payload = {"complete": result.complete}
        if result.complete:
            payload["m"] = result.m
        else:
            payload["witness"] = str(result.witness)
        _emit(payload, args.json)
        return 0
    if args.hadamard_cmd == "kernel":
        seq = _series_from_spec(args.seq, check_size("length", args.length) - 1).coeffs
        report = hadamard.k_kernel(seq, args.k, args.depth)
        _emit(
            {
                "k": report.k,
                "depth": report.depth,
                "distinct": report.distinct,
                "generators_estimate": report.generators_estimate,
            },
            args.json,
        )
        return 0
    if args.hadamard_cmd == "probe":
        f = _series_from_spec(args.f, args.order)
        g = parse_rational(args.g)
        result = hadamard.hadamard_mahler_probe(f, g, args.k, args.order, args.dmax, args.degmax)
        if result.found is None:
            _emit({"result": f"none_up_to(d_max={args.dmax}, deg_max={args.degmax})"}, args.json)
        else:
            _emit(
                {
                    "result": "recursion_found",
                    "k": result.found.k,
                    "coeffs": [str(c) for c in result.found.coeffs],
                },
                args.json,
            )
        return 0
    raise AssertionError


# ---------------------------------------------------------------------------
# fib subcommand
# ---------------------------------------------------------------------------


def cmd_fib(args) -> int:
    import mpmath as mp

    result = fiblucas.run_identity(args.id, args.terms)
    delta = result.delta_mp(args.bits)
    payload = {
        "id": args.id,
        "terms": args.terms,
        "expected": _exact_str(result.expected),
        "computed": _exact_str(result.computed),
        "delta": mp.nstr(delta, 8),
    }
    _emit(payload, args.json)
    return 0 if result.within(args.bits) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mahlerfold")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--bits", type=positive_int, default=256, help="big-float precision")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # trailing flag from clobbering one given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--bits", type=positive_int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("expand", help="expand a named series")
    p.add_argument("--name", required=True, choices=NAMED_SERIES)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_expand)

    p = add_parser("verify", help="run identity checks")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--id", choices=[*REGISTRY, *FOLD_CHECKS], help="one identity id")
    which.add_argument("--all", action="store_true", help="run the whole catalogue")
    p.add_argument("--order", type=nonnegative_int, default=256)
    p.add_argument("--max-level", type=nonnegative_int, default=10)
    p.set_defaults(func=cmd_verify)

    p = add_parser("cf", help="continued fraction tools")
    cf_sub = p.add_subparsers(dest="cf_cmd", required=True)
    q = cf_sub.add_parser("eval", parents=[common])
    q.add_argument("--word", required=True, help='JSON {"head": ..., "entries": [...]}')
    q.add_argument("--at", help="evaluation point")
    q.set_defaults(func=cmd_cf)
    q = cf_sub.add_parser("euclid", parents=[common])
    q.add_argument("--num", required=True)
    q.add_argument("--den", required=True)
    q.set_defaults(func=cmd_cf)
    q = cf_sub.add_parser("rho", parents=[common])
    q.add_argument("--n", type=int, default=16,
                   help="truncation level (exact rational points pay 2^n-size exponents)")
    q.add_argument("--point", help="complex value or root:a/2^n")
    q.set_defaults(func=cmd_cf)

    p = add_parser("fold", help="fold-recursion tools")
    fold_sub = p.add_subparsers(dest="fold_cmd", required=True)
    q = fold_sub.add_parser("iterate", parents=[common])
    q.add_argument("--spec", required=True, help="named spec or DSL text")
    q.add_argument("--n", type=int, required=True)
    output = q.add_mutually_exclusive_group()
    output.add_argument("--signs", action="store_true")
    output.add_argument("--continuants", action="store_true")
    output.add_argument("--specialize", action="store_true")
    q.set_defaults(func=cmd_fold)
    q = fold_sub.add_parser("check", parents=[common])
    q.add_argument("--id", required=True, choices=list(FOLD_CHECKS))
    q.add_argument("--n", type=nonnegative_int, default=10)
    q.add_argument("--order", type=nonnegative_int, default=128)
    q.set_defaults(func=cmd_fold)
    q = fold_sub.add_parser("cohn", parents=[common])
    q.add_argument("--poly", required=True)
    q.add_argument("--mode", choices=["sum", "irregular"], default="irregular")
    q.add_argument("--nmax", type=int, default=5)
    q.set_defaults(func=cmd_fold)

    p = add_parser("curve", help="folding curves")
    curve_sub = p.add_subparsers(dest="curve_cmd", required=True)
    q = curve_sub.add_parser("render", parents=[common])
    q.add_argument("--spec", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--out", required=True, help="output file, or - for stdout")
    q.add_argument("--overlay", help="SPEC:LEVEL[:negrev], a second curve drawn on top")
    q.add_argument("--palette", choices=list(curve.PALETTES), default="rainbow")
    q.set_defaults(func=cmd_curve)
    q = curve_sub.add_parser("check", parents=[common])
    q.add_argument("--spec", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_curve)

    p = add_parser("hadamard", help="Hadamard product tools")
    h_sub = p.add_subparsers(dest="hadamard_cmd", required=True)
    q = h_sub.add_parser("product", parents=[common])
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--order", type=int, default=64)
    q.set_defaults(func=cmd_hadamard)
    q = h_sub.add_parser("complete", parents=[common])
    q.add_argument("--rational", required=True)
    q.set_defaults(func=cmd_hadamard)
    q = h_sub.add_parser("kernel", parents=[common])
    q.add_argument("--seq", required=True)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--depth", type=int, default=4)
    q.add_argument("--length", type=int, default=1024)
    q.set_defaults(func=cmd_hadamard)
    q = h_sub.add_parser("probe", parents=[common])
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--dmax", type=nonnegative_int, default=4)
    q.add_argument("--degmax", type=nonnegative_int, default=8)
    q.add_argument("--order", type=int, default=256)
    q.set_defaults(func=cmd_hadamard)

    p = add_parser("fib", help="Fibonacci-Lucas identities")
    fib_sub = p.add_subparsers(dest="fib_cmd", required=True)
    q = fib_sub.add_parser("identity", parents=[common])
    q.add_argument("--id", required=True, choices=list(fiblucas.IDENTITY_IDS))
    q.add_argument("--terms", type=positive_int, default=10)
    q.set_defaults(func=cmd_fib)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_size("--bits", args.bits, MAX_RESULT_BITS_LOG2)
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        if args.json:
            _emit({"error": str(exc)}, True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
