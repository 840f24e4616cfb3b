"""Run the benchmark's child processes one at a time and report their rusage.

run.py starts this helper before it builds any large expected answer,
because Linux reports a child's peak RSS as at least the peak RSS of the
process that forked it.  Each stdin line is a JSON request
{"argv", "stdout", "stderr", "timeout"}; each reply line is
{"wall", "code", "cpu", "maxrss_kb"}.  The child is killed after
``timeout`` seconds.  The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "code": proc.returncode,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
