"""Process launcher for the benchmark: starts each timed process from a small parent.

A process started directly from the benchmark would report the benchmark's
own resident set as its peak: on Linux the peak RSS a child reports includes
the memory image of its parent at the moment it was forked.  This launcher
holds only the interpreter and a few standard modules, so the peak RSS of the
processes it starts is their own.

Reads one JSON request per line from stdin, ``{"argv": [...], "stderr": path
or null}``, runs it with stdin and stdout closed, and answers one JSON line
``{"code": exit code, "seconds": wall time, "maxrss_kib": peak RSS}``.  The
peak RSS comes from wait4, so it also covers the children the process
waited for.  Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time

#: a process still running after this long is killed
TIMEOUT = 120.0


def run(argv: list[str], stderr_path: str | None) -> dict:
    stderr = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    finally:
        if stderr_path:
            stderr.close()
    return {"code": proc.returncode, "seconds": seconds, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["argv"], request.get("stderr"))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
