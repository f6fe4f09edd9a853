"""Runs the benchmark's child processes from a small, long-lived process.

A child starts as a copy of the process that spawns it, and Linux keeps
that copy's resident size in the child's ``ru_maxrss``. Spawned from the
benchmark itself (numpy plus its parsed corpora), every child's peak RSS
would read at least the benchmark's size. This helper imports only the
standard library, so the peaks it reports are the children's own.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "cwd": "...", "timeout": seconds}``; one JSON reply per
line on stdout, ``{"wall": seconds, "code": exit code, "maxrss_kb": KiB}``.
The child's stderr goes to ``<cwd>/stderr.txt``. On SIGTERM the running
child is killed and reaped before the helper exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter

_current = None


def _stop(signum, frame):
    if _current is not None and _current.poll() is None:
        _current.kill()
        _current.wait()
    sys.exit(128 + signum)


def main() -> int:
    global _current
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        request = json.loads(line)
        cwd = request["cwd"]
        with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            start = perf_counter()
            _current = subprocess.Popen(request["cmd"], cwd=cwd, stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(request["timeout"], _current.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(_current.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        _current.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "code": _current.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
