"""Start operation processes for run.py and report what each one cost.

This is a separate small process (run with ``python3 -S``) because a child's
memory high-water mark starts from the process it was spawned from: spawned
from the runner, which may hold a parsed 24 MB report, every operation would
report at least the runner's size.  Reads one JSON request per line on stdin,
runs it to completion and answers with one JSON line: start and end on the
monotonic clock shared with the children, exit code, and the rusage of the
reaped process, which includes its own reaped children (Pool workers).
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    running = [0]

    def kill_group(_signum, _frame) -> None:
        if running[0]:
            try:
                os.killpg(running[0], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, kill_group)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            req["argv"][0], req["argv"], req["env"], file_actions=actions, setsid=True
        )
        running[0] = pid
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        kill_group(None, None)  # anything the operation left running
        running[0] = 0
        reply = {
            "t0": t0,
            "wall_s": t1 - t0,
            "exit": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
