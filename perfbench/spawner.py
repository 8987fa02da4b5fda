"""Runs benchmark child processes one at a time on request, and times them.

Protocol: one JSON request per stdin line, {"cmd", "cwd", "env", "stdout",
"stderr", "timeout"}; one JSON reply per stdout line, {"code", "wall_s",
"cpu_s", "maxrss_kb"}, where cpu_s is the child's user plus system time.
Ends at end of input.

The children are started from this small process rather than from the
benchmark itself because Linux reports, as a child's ru_maxrss, at least
the resident size of the process it was forked from.  Forked from here,
a child's reported peak is its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"code": proc.returncode, "wall_s": wall,
                                  "cpu_s": usage.ru_utime + usage.ru_stime,
                                  "maxrss_kb": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
