"""Self-test of the benchmark's own checks; run from the checkout root:

    python3 perfbench/selftest.py

1. cubic-check-8 passes with the true expected answer (fail_ratio 0) and
   fails when the expected first repeated edge is off by one
   (fail_ratio > 0).
2. Two traced runs of probe-found-F4 record identical exact counters, and
   its target layer records calls.

Exits 0 when every check holds and 1 otherwise.
"""

import sys
import time

import oracles
import run


def main() -> int:
    problems = []
    run.WORK.mkdir(exist_ok=True)
    jobs = {j.id: j for wl in run.workloads(seed=0).values() for j in wl.jobs}
    with run.Runner(time.monotonic() + run.RUN_LIMIT_S) as runner:
        run.check_checkout(runner)
        cubic = run.Workload([jobs["cubic-check-8"]], ())
        good = run.measure(cubic, 0, 0.0, False, runner)["metrics"]["fail_ratio"]
        if good != 0:
            problems.append(f"true expected answer: fail_ratio {good}, want 0")
        true_walk = oracles.walk
        oracles.walk = lambda spec, n: (true_walk(spec, n)[0], true_walk(spec, n)[1] + 1)
        try:
            bad = run.measure(cubic, 0, 0.0, False, runner)["metrics"]["fail_ratio"]
        finally:
            oracles.walk = true_walk
        if not bad > 0:
            problems.append(f"wrong expected answer: fail_ratio {bad}, want > 0")
        print(f"cubic-check-8 fail_ratio: {good} with the true answer, {bad} with a wrong one")

        probe = jobs["probe-found-F4"]
        first, second = (run.merge_traces([runner.run_job(probe, traced=True)]) for _ in range(2))
        if run.exact_counts(first) != run.exact_counts(second):
            problems.append(f"counters differ: {run.exact_counts(first)} vs {run.exact_counts(second)}")
        print(f"probe-found-F4 exact counters, two traced runs: {run.exact_counts(first)}")
        if not first.get("hadamard.probe.calls"):
            problems.append("hadamard.probe recorded no calls")
    for p in problems:
        print(f"FAILED {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
