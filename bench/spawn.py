"""Run one command and report its wall time, peak RSS and exit code.

    python3 bench/spawn.py OUT ERR CMD...

Prints ``<wall seconds> <peak RSS in KiB> <exit code>``. The benchmark
starts every timed child through this small process: Linux carries a
parent's RSS high-water mark into a child it spawns, so a child started
straight from the benchmark, which holds numpy, scipy and the outputs it
checks, would report the benchmark's memory as its own.
"""

import os
import sys
import time


def main() -> None:
    out, err, cmd = sys.argv[1], sys.argv[2], sys.argv[3:]
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        actions = [
            (os.POSIX_SPAWN_DUP2, stdout.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))


if __name__ == "__main__":
    main()
