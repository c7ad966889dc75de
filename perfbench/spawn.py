"""Start the benchmark's command processes from a small process.

Usage: python3 perfbench/spawn.py TIMEOUT_SECONDS

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout": path,
"stderr": path}``, starts that command with ``os.posix_spawn``, waits for it
with ``os.wait4`` and answers with one JSON line, ``{"wall": s, "cpu": s,
"maxrss_kb": n, "rc": n, "ref": s}``. A command still running after
TIMEOUT_SECONDS is killed. One command runs at a time.

``ref`` is the mean time of ``reference_loop`` run just before and just
after the command: a fixed piece of pure-Python work, the same on every
commit, that tells the benchmark how fast the host ran at that moment.

Commands start here rather than in the benchmark because Linux carries the
parent's memory high-water mark across exec into the child's ``ru_maxrss``;
this process stays small, so a command's ``ru_maxrss`` is its own.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction


def reference_loop() -> float:
    """Time one fixed mix of the kinds of work orbitspace does: closing a
    permutation group under composition, exact rational arithmetic, and a
    JSON round trip of an integer table. Returns seconds."""
    start = time.perf_counter()
    a, b = (1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)
    seen, frontier = {a}, [a]
    while len(seen) < 1500:
        nxt = []
        for p in frontier:
            for g in (a, b):
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 97 - 48, i % 12 + 1) * Fraction(i % 13 + 1, i % 7 + 1)
    rows = [[(i * j) % 251 for j in range(120)] for i in range(120)]
    for _ in range(3):
        rows = json.loads(json.dumps({"mul": rows}))["mul"]
    return time.perf_counter() - start


def main(argv) -> int:
    timeout = int(argv[0])
    child = 0

    def on_alarm(signum, frame):
        if child:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        before = reference_loop()
        start = time.perf_counter()
        child = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        signal.alarm(timeout)
        _, status, usage = os.wait4(child, 0)
        wall = time.perf_counter() - start
        child = 0
        signal.alarm(0)
        after = reference_loop()
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "rc": os.waitstatus_to_exitcode(status),
            "ref": (before + after) / 2,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
