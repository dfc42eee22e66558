"""Run one command and report its own wall time and rusage as a JSON line.

    python3 -S perfbench/launch.py '{"argv": [...], "stdout": PATH,
                                     "stderr": PATH, "timeout": SECONDS}'

The benchmark starts every measured CLI process through this small
launcher.  A process's ru_maxrss also counts the memory of the process it
was forked from (Linux keeps the high-water mark across exec), so forking
from the benchmark, which holds traces and outputs, would inflate the peak
RSS of the measured process.  The child is killed when it outlives
``timeout``; the reply then has "killed": true.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def main() -> int:
    req = json.loads(sys.argv[1])
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
    signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                         file_actions=actions)
    killed = False
    try:
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        killed = True
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    os.close(out)
    os.close(err)
    print(json.dumps({"code": os.waitstatus_to_exitcode(status), "killed": killed,
                      "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
