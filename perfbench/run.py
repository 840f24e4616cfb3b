"""Benchmark mahlerfold: wall time to an exact verdict on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from the root of a source checkout; the jobs import ``src/mahlerfold``.
Each job is a fresh interpreter running a CLI command (or ``solve_h.py``
where no command reaches ``solve_mahler``).  The loop is closed: one client,
one job at a time, in an order shuffled by the seed.  A batch runs every job
of the workload once; batches repeat until the next one would end after S
seconds (at least one runs).  Every answer is checked against
``oracles.py``; a wrong answer, wrong exit code or a traceback fails the job.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (median over the run of fresh interpreters running
``import mahlerfold.cli``, two before each batch), ``wall_s`` (median batch
wall time) and ``peak_rss_mb`` (median over batches of the largest peak RSS
of one job, from ``os.wait4``).  ``fail_ratio`` is printed above it; it is 0
on a correct program, so it is not an end-to-end metric of BENCHMARK.json,
and it equals ``failed / attempted`` of the last line.

Each workload's ``targets`` names the spans whose layer dominates it; a
change to that layer should move ``wall_s`` there and nowhere else (the
curve layer also moves ``peak_rss_mb`` on curve-paths).

With ``--trace 1`` untraced and traced batches alternate.  Traced jobs run
under ``trace_shim.py``; the per-layer metrics come from its spans and
counters, the per-job metrics from the untraced batches, and
``trace.overhead_s`` is the traced minus the untraced median batch time.
A layer or job that the workload does not run reads 0.

The metric names and units are those of BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_PER_BATCH = 2  # fresh imports timed before each untraced batch
RUN_LIMIT_S = 170.0  # a job still running this long after its workload began is killed
MAX_COUNTERS = {"poly.mul.max_coeff_bits"}


@dataclass
class Job:
    id: str
    argv: list[str]  # after the interpreter
    check: Callable[[str, Path], str | None]  # (stdout, work dir) -> error or None
    exit_code: int = 0


@dataclass
class Workload:
    jobs: list[Job]
    targets: tuple[str, ...]  # spans that must record calls in a traced run


@dataclass
class JobResult:
    id: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None
    trace: dict | None = None


@dataclass
class Batch:
    traced: bool
    results: list[JobResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)


# --- answer checks -----------------------------------------------------------

VERIFY_IDS = [
    "propFGH", "cross-GG-qFF", "cross-FG4-qGF4", "mahler4-F", "mahler4-G",
    "mahler4-H", "mahler4-I", "hn-recursions", "hn-nonlinear",
    "hn-combinatorial", "hn-reversal", "rho-theorem", "fg-mahler", "ij-system",
    "e-words", "determinant-law[0]", "determinant-law[1]", "determinant-law[2]",
]


def check_verify_all(out: str, work: Path) -> str | None:
    data = json.loads(out)
    ids = [e["id"] for e in data["entries"]]
    if ids != VERIFY_IDS:
        return f"identity list {ids}"
    bad = [e["id"] for e in data["entries"] if e["status"] != "pass"]
    if bad or data["failures"]:
        return f"identities not passing: {bad or data['failures']}"
    return None


def check_solve_h(order: int):
    def check(out: str, work: Path) -> str | None:
        coeffs = json.loads(out)["coeffs"]
        if len(coeffs) != order + 1:
            return f"{len(coeffs)} coefficients"
        for n, c in enumerate(coeffs):
            if c != ("0" if n & (n >> 1) else "1"):
                return f"coefficient {n} is {c}"
        return None

    return check


MAHLER4_F = [{0: 1}, {0: -1, 1: -1, 2: -1}, {4: 1}]


def check_probe_found(out: str, work: Path) -> str | None:
    data = json.loads(out)
    if data["result"] != "recursion_found" or data["k"] != 4:
        return f"result {data['result']} k={data.get('k')}"
    coeffs = [oracles.parse_poly_text(c) for c in data["coeffs"]]
    negated = [{e: -c for e, c in p.items()} for p in MAHLER4_F]
    if coeffs not in (MAHLER4_F, negated):
        return f"recursion {data['coeffs']} is not +-mahler4-F"
    return None


def check_probe_none(dmax: int, degmax: int):
    def check(out: str, work: Path) -> str | None:
        result = json.loads(out)["result"]
        want = f"none_up_to(d_max={dmax}, deg_max={degmax})"
        return None if result == want else f"result {result}"

    return check


def check_fold_check(n: int):
    def check(out: str, work: Path) -> str | None:
        data = json.loads(out)
        ok = data["status"] == "pass" and data["detail"] == f"n <= {n}"
        return None if ok else f"{data['status']} {data['detail']}"

    return check


def check_dragon_continuants(n: int, points: list[int]):
    def check(out: str, work: Path) -> str | None:
        data = json.loads(out)
        word = oracles.dragon_word(n)
        if data["length"] != len(word):
            return f"length {data['length']}"
        p, q = oracles.parse_poly_text(data["p"]), oracles.parse_poly_text(data["q"])
        head = [1, 1] if n % 2 else [1]  # the CLI's head: 1 for even n, 1 + x for odd n
        for t in points:
            want = oracles.continuants_mod(word, head, t)
            if (oracles.eval_mod(p, t), oracles.eval_mod(q, t)) != want:
                return f"p, q differ from the continuant recursion at x = {t}"
        return None

    return check


def check_curve(spec: str, n: int):
    def check(out: str, work: Path) -> str | None:
        data = json.loads(out)
        edges, hit = oracles.walk(spec, n)
        got = (data["edges"], data["self_crossing"], data["first_repeated_edge"])
        want = (edges, hit is not None, hit)
        return None if got == want else f"(edges, crossing, first repeat) {got} != {want}"

    return check


def check_svg(n: int, name: str):
    def check(out: str, work: Path) -> str | None:
        path = work / name
        try:
            got = oracles.svg_steps(path.read_bytes(), scale=8)
        except ValueError as exc:
            return str(exc)
        finally:
            path.unlink(missing_ok=True)
        want = oracles.steps(oracles.dragon_word(n))
        if got != want:
            return f"{len(got)} lines do not trace the dragon curve of {len(want)} edges"
        return None

    return check


def workloads(seed: int) -> dict[str, Workload]:
    cli = ["-m", "mahlerfold.cli"]
    rng = random.Random(seed)
    points = [rng.randrange(2, oracles.PRIME) for _ in range(3)]
    probe = cli + ["hadamard", "probe", "--f", "pow2", "--g", "1/(1-2*q)", "--dmax", "4"]
    svg = f"dragon-svg-15.{os.getpid()}.svg"
    return {
        "mahler-identities": Workload(
            [
                Job("verify-all", cli + ["verify", "--all", "--order", "32768", "--seed", str(seed), "--json"],
                    check_verify_all),
                Job("solve-H", [str(BENCH / "solve_h.py"), "8192"], check_solve_h(8192)),
                Job("probe-found-F4", cli + ["hadamard", "probe", "--f", "F", "--g", "1/(1-q)", "--k", "4",
                                            "--dmax", "2", "--degmax", "4", "--order", "1024", "--json"],
                    check_probe_found),
            ],
            ("series.mul", "identities.run"),
        ),
        "fold-deep": Workload(
            [
                Job("rho-theorem-16", cli + ["fold", "check", "--id", "rho-theorem", "--n", "16", "--json"],
                    check_fold_check(16)),
                Job("dragon-continuants-14", cli + ["fold", "iterate", "--spec", "dragon", "--n", "14",
                                                    "--continuants", "--json"],
                    check_dragon_continuants(14, points)),
            ],
            ("poly.mul", "contfrac.matmul", "folding.engine"),
        ),
        "probe-none": Workload(
            [
                Job("probe-none-2048x8", probe + ["--degmax", "8", "--order", "2048", "--json"],
                    check_probe_none(4, 8)),
                Job("probe-none-512x10", probe + ["--degmax", "10", "--order", "512", "--json"],
                    check_probe_none(4, 10)),
            ],
            ("hadamard.probe",),
        ),
        "curve-paths": Workload(
            [
                Job("dragon-check-19", cli + ["curve", "check", "--spec", "dragon", "--n", "19", "--json"],
                    check_curve("dragon", 19)),
                Job("rho-check-19", cli + ["curve", "check", "--spec", "rho", "--n", "19", "--json"],
                    check_curve("rho", 19)),
                Job("dragon-svg-15", cli + ["curve", "render", "--spec", "dragon", "--n", "15",
                                            "--out", str(WORK / svg)],
                    check_svg(15, svg)),
                Job("cubic-check-8", cli + ["curve", "check", "--spec", "cubic", "--n", "8", "--json"],
                    check_curve("cubic", 8), exit_code=1),
            ],
            ("curve.path", "curve.crossing", "curve.svg", "folding.iterate"),
        ),
    }


# --- running jobs --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # bytecode is cached, as in an install
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


class Runner:
    """Runs one child at a time through spawner.py, which reaps it with
    os.wait4; create it before this process grows (see spawner.py)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.helper = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()

    def spawn(self, argv: list[str], tag: str) -> tuple[dict, str, str]:
        """(spawner reply, stdout, stderr) of one child."""
        out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        request = {
            "argv": [sys.executable] + argv,
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": max(self.deadline - time.monotonic(), 1.0),
        }
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        line = self.helper.stdout.readline()
        if not line:
            raise SystemExit("spawner.py exited")
        try:
            return json.loads(line), out_path.read_text(), err_path.read_text()
        finally:
            out_path.unlink()
            err_path.unlink()

    def run_job(self, job: Job, traced: bool) -> JobResult:
        spans = WORK / f"{job.id}.spans.json"
        argv = [str(BENCH / "trace_shim.py"), str(spans), job.id] + job.argv if traced else job.argv
        reply, out, err = self.spawn(argv, job.id)
        result = JobResult(job.id, reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024.0, None)
        if reply["code"] != job.exit_code:
            result.error = f"exit code {reply['code']}, expected {job.exit_code}: {err.strip()[-300:]}"
        elif "Traceback" in err:
            result.error = f"traceback: {err.strip()[-300:]}"
        else:
            try:
                result.error = job.check(out, WORK)
            except (ValueError, KeyError, TypeError) as exc:
                result.error = f"unreadable output: {exc!r}"
        if traced and spans.exists():
            result.trace = summarize_spans(json.loads(spans.read_text()))
            spans.unlink()
        elif traced and result.error is None:
            result.error = "traced run wrote no spans"
        return result


def summarize_spans(data: dict) -> dict:
    """Per span name: calls, self seconds and slowest call; plus counters."""
    spans = data["spans"]
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end"] - s["start"]
    calls, self_ns, slowest = Counter(), Counter(), {}
    verifies = 0
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        if name.startswith("trace."):
            continue
        calls[name] += 1
        self_ns[name] += dur - child_ns[i]
        slowest[name] = max(slowest.get(name, 0), dur)
        if name == "series.residual" and s["parent"] >= 0 and spans[s["parent"]]["name"] == "hadamard.probe":
            verifies += 1
    metrics = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        metrics[f"{name}.slowest_s"] = slowest[name] / 1e9
    metrics.update(data["counters"])
    metrics["hadamard.probe.verifies"] = verifies
    return metrics


def merge_traces(results: list[JobResult]) -> dict:
    total: dict = {}
    for r in results:
        for key, value in (r.trace or {}).items():
            if key in MAX_COUNTERS or key.endswith(".slowest_s"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    scanned, crossing_s = total.get("curve.crossing.edges_scanned", 0), total.get("curve.crossing.self_s", 0)
    total["curve.crossing.edges_per_s"] = scanned / crossing_s if crossing_s else 0.0
    verifies = total.get("hadamard.probe.verifies", 0)
    total["hadamard.probe.found_per_verify"] = total.get("hadamard.probe.found", 0) / verifies if verifies else 0.0
    return total


def exact_counts(trace: dict) -> dict:
    return {k: v for k, v in trace.items() if not k.endswith(("_s", "_per_s", "_per_verify"))}


# --- measuring a workload ------------------------------------------------------


def time_import(runner: Runner) -> float:
    reply, _, err = runner.spawn(["-c", "import mahlerfold.cli"], "setup")
    if reply["code"] != 0:
        raise SystemExit(f"import mahlerfold.cli failed: {err.strip()[-300:]}")
    return reply["wall"]


def measure(wl: Workload, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    rng = random.Random(seed)
    batches: list[Batch] = []
    setup: list[float] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            batch = Batch(traced)
            if not trace:
                setup += [time_import(runner) for _ in range(SETUP_PER_BATCH)]
            for job in rng.sample(wl.jobs, len(wl.jobs)):
                batch.results.append(runner.run_job(job, traced))
            batches.append(batch)
        now = time.monotonic()
        if now + (now - round_start) > start + seconds:
            break

    results = [r for b in batches for r in b.results]
    errors = [f"{r.id}: {r.error}" for r in results if r.error]
    plain = [b for b in batches if not b.traced]
    metrics: dict[str, float] = {}
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    metrics["wall_s"] = statistics.median(b.wall_s for b in plain)
    metrics["peak_rss_mb"] = statistics.median(max(r.rss_mb for r in b.results) for b in plain)
    metrics["fail_ratio"] = len(errors) / len(results)
    if trace:
        traced = [b for b in batches if b.traced]
        layer = [merge_traces(b.results) for b in traced]
        if any(exact_counts(t) != exact_counts(layer[0]) for t in layer[1:]):
            errors.append("counters differ between traced batches of the same seed")
        counts = exact_counts(layer[0])
        for key in layer[0]:
            metrics[key] = counts[key] if key in counts else statistics.median(t[key] for t in layer)
        for span in wl.targets:
            if not layer[0].get(f"{span}.calls"):
                errors.append(f"target layer {span} recorded no calls")
        for job in wl.jobs:
            mine = [r for b in plain for r in b.results if r.id == job.id]
            metrics[f"job.{job.id}.wall_s"] = statistics.median(r.wall_s for r in mine)
            metrics[f"job.{job.id}.cpu_s"] = statistics.median(r.cpu_s for r in mine)
            metrics[f"job.{job.id}.peak_rss_mb"] = statistics.median(r.rss_mb for r in mine)
        metrics["trace.overhead_s"] = statistics.median(b.wall_s for b in traced) - metrics["wall_s"]
    return {
        "walls": [round(b.wall_s, 3) for b in plain],
        "attempted": len(results),
        "failed": sum(1 for r in results if r.error),
        "errors": errors,
        "metrics": metrics,
    }


# --- entry point ---------------------------------------------------------------


def environment(seed: int, spec: dict, runner: Runner) -> dict:
    imports = {mod: runner.spawn(["-c", f"import {mod}"], "env")[0]["code"] == 0 for mod in ("numpy", "sympy")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy_imports": imports["numpy"],
        "sympy_imports": imports["sympy"],
        "seed": seed,
        "loop": "closed, one client, one job at a time",
        "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
    }


def check_checkout(runner: Runner) -> None:
    """Fail unless the jobs import mahlerfold from this checkout's src/."""
    # the import also fills the bytecode cache, so no timed import compiles
    code = "import mahlerfold.cli, runpy, weakref; print(mahlerfold.__file__)"
    reply, out, err = runner.spawn(["-c", code], "warmup")
    if reply["code"] != 0 or not Path(out.strip()).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"mahlerfold does not import from {ROOT / 'src'}: {out.strip()} {err.strip()[-300:]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mahlerfold" / "cli.py").is_file():
        raise SystemExit(f"no src/mahlerfold under {ROOT}; run from the root of a mahlerfold checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wls = workloads(args.seed)
    names = list(wls) if args.workload == "all" else [args.workload]
    if any(n not in wls for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wls)} or all")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_ratio"] = "ratio"

    WORK.mkdir(exist_ok=True)
    out_metrics, attempted, failed, errors = {}, 0, 0, []
    with Runner(time.monotonic() + RUN_LIMIT_S) as runner:
        check_checkout(runner)
        for name in names:
            runner.deadline = time.monotonic() + RUN_LIMIT_S
            res = measure(wls[name], args.seed, args.seconds, bool(args.trace), runner)
            attempted += res["attempted"]
            failed += res["failed"]
            errors += [f"{name}: {e}" for e in res["errors"]]
            m = res["metrics"]
            print(f"{name}: {res['attempted']} jobs, {res['failed']} failed; untraced batch walls (s): {res['walls']}")
            shown = ["setup_s", "wall_s", "peak_rss_mb", "fail_ratio"] + [d["name"] for d in spec["per_layer"]]
            for key in shown:
                if key in m:
                    print(f"  {key:<36} {m[key]:>16.6g} {units[key]}")
            for d in declared:
                if d["name"] not in m and not args.trace:
                    raise SystemExit(f"metric {d['name']} was not measured")
                key = d["name"] if len(names) == 1 else f"{name}.{d['name']}"
                out_metrics[key] = {"value": m.get(d["name"], 0), "unit": d["unit"]}
        env = environment(args.seed, spec, runner)
    for e in errors:
        print(f"FAILED {e}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
