"""A fixed control workload that measures how fast the machine runs now.

On a shared host the same op's wall time drifts by a third or more within
minutes, and every process on the machine drifts together.  The benchmark
therefore times a fixed pure-Python control, which imports nothing from
`jacfact`, between its ops and reports every time scaled to the speed at
which the control takes its reference time:

    reported time = wall time / slowdown,  slowdown = mean control time / reference

An op's slowdown is the mean of the `LOCAL` controls nearest it, half
before and half after, as the machine's speed changes within a run.  A
change to `jacfact` leaves the control alone, so it moves the reported
times as it moves wall time; drift of the machine moves the control and the
ops together and cancels.  An op's deadline is scaled by the slowdown of
the controls taken just before it (the last `window` of them), so that it
stops the same work at any speed.  The control runs in-process for
in-process ops, and as a fresh interpreter (start-up, a few standard-library
imports, the same loop) for ops and set-ups that are whole processes.  The
reference times are the controls' medians on the two-core Xeon the
benchmark was built on, so reported times read as wall times on that
machine.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import procs

CONTROL = """
P = (1 << 61) - 1


class Node:
    __slots__ = ("label", "kids")

    def __init__(self, label, kids):
        self.label, self.kids = label, kids


def build(depth, x):
    if depth == 0:
        return Node(x % 97, ())
    return Node(x % 89, (build(depth - 1, x * 3 + 1), build(depth - 1, x * 5 + 2)))


def fold(node):
    return (node.label + sum(fold(k) * 31 for k in node.kids)) % P


table, x = {}, 1
for i in range(3000):
    x = (x * 6364136223846793005 + 1442695040888963407) % P
    key = (i % 211, x & 1023)
    table[key] = table.get(key, 0) + x
total = sum(fold(build(7, k)) for k in range(12))
words = sorted(f"v{a}_{b}:{v % 1000}" for (a, b), v in table.items())
"""
# Modules a fresh control interpreter imports, as a CLI op imports its own.
SPAWN_IMPORTS = "import argparse, dataclasses, decimal, fractions, json, statistics\n"

_CODE = compile(CONTROL, "<control>", "exec")
REF_INPROCESS_S = 0.0055
REF_SPAWN_S = 0.055
# Control time taken after each op, as a share of the op's wall time, so
# that the controls sample the machine evenly over the run.
SHARE = 0.03
PRIME_S = 0.3
# Controls averaged for the slowdown of one op, half before it and half
# after; and for the slowdown that sets an op's deadline, the last ones
# before it (about the last five seconds of ops).
LOCAL = 10
WINDOW_INPROCESS = 50
WINDOW_SPAWN = 8


def control_inprocess():
    t0 = time.perf_counter()
    exec(_CODE, {})
    return time.perf_counter() - t0


def control_spawn():
    argv = [sys.executable, "-c", SPAWN_IMPORTS + CONTROL]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    wall, code, _ = procs.run(argv, 60, env=env)
    if code:
        raise subprocess.CalledProcessError(code, argv)
    return wall


class Speed:
    """Control timings of one run and the slowdown they give."""

    def __init__(self, spawn):
        self.control = control_spawn if spawn else control_inprocess
        self.ref_s = REF_SPAWN_S if spawn else REF_INPROCESS_S
        self.window = WINDOW_SPAWN if spawn else WINDOW_INPROCESS
        self.samples = []
        self._spend(PRIME_S)  # so that `slowdown` is defined before the first op
        self.primed = len(self.samples)

    def _spend(self, seconds):
        """Time the control once, and again until `seconds` are spent."""
        spent = 0.0
        while not spent or spent < seconds:
            t = self.control()
            self.samples.append(t)
            spent += t

    def sample(self, after_s):
        """Controls for `SHARE` of `after_s`, the wall time of the op just run."""
        self._spend(SHARE * after_s)

    @property
    def slowdown(self):
        """Mean time of the last `window` controls over their reference,
        for the deadline of the next op."""
        return statistics.fmean(self.samples[-self.window:]) / self.ref_s

    def around(self, mark):
        """Slowdown from the `LOCAL` controls nearest `mark`, the number of
        controls taken before the op."""
        lo = max(0, min(mark - LOCAL // 2, len(self.samples) - LOCAL))
        return statistics.fmean(self.samples[lo:lo + LOCAL]) / self.ref_s

    @property
    def run_slowdown(self):
        """Mean over all controls taken between ops (reported beside the
        times, for reading the wall-clock figures)."""
        return statistics.fmean(self.samples[self.primed:] or self.samples) / self.ref_s
