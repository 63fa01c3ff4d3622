"""Child launcher: run ``blochspec.cli.main`` with ``src/`` on the path.

Usage: launch.py SPAWN_NS FD CLI_ARGS...

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it spawned this
process (CLOCK_MONOTONIC is system-wide on Linux).  Once ``blochspec.cli`` is
imported, the set-up time in nanoseconds is written to the inherited file
descriptor FD.  The CLI's stdout, stderr and exit code pass through unchanged.
This avoids ``python -m blochspec.cli``, which prints a runpy warning, and the
``blochspec`` console script, which need not be installed.
"""

import os
import sys
import time


def main() -> int:
    spawn_ns, fd = int(sys.argv[1]), int(sys.argv[2])
    sys.path[0] = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    from blochspec import cli

    setup_ns = time.monotonic_ns() - spawn_ns
    with os.fdopen(fd, "w") as report:
        report.write(f"{setup_ns}\n")
    return cli.main(sys.argv[3:])


if __name__ == "__main__":
    sys.exit(main())
