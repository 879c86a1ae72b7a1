"""Child processes timed to the moment they exit.

`subprocess.run(timeout=...)` polls for the child's exit with sleeps that
grow to 50 ms, so a child whose output goes nowhere is timed on a 50-ms
grid.  `run` blocks in `waitpid` instead and keeps the deadline with a
SIGALRM that kills the child.
"""
from __future__ import annotations

import signal
import subprocess
import time


def run(argv, deadline_s, capture=False, **kwargs):
    """Run `argv` to its end; returns (wall seconds, return code, stdout).

    The return code is -SIGKILL when the deadline killed the child; stdout
    is None unless `capture`.  The child is always reaped."""
    out = subprocess.PIPE if capture else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=out, text=capture, **kwargs)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        stdout, _ = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - t0, proc.returncode, stdout
