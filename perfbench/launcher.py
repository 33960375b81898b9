"""Launches the benchmark's measured processes and reports their resource use.

Linux counts the resident-set high-water mark of the process that forks and
execs a child into that child's ``ru_maxrss``.  The harness holds numpy,
espd and parsed outputs, so it does not launch measured commands itself:
this small process does, and its own high-water mark stays below that of
any espd command.

Protocol: one JSON request per line on stdin, ``[argv, cwd, stdout_path]``
(``stdout_path`` null discards the output); one JSON reply per line on
stdout, ``[exit code, wall s, user + sys cpu s, max rss MB]``.  The process
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        argv, cwd, stdout_path = json.loads(line)
        with open(stdout_path or os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        reply = [rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
