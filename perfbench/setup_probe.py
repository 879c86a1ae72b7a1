"""One set-up of a workload in a fresh interpreter: import `jacfact` from the
checkout's `src/` and build the workload's inputs, then exit.

`run.py` times whole runs of this script, from process start to exit, to
report `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys

import run

if __name__ == "__main__":
    run.import_library()
    run.build_ops(sys.argv[1], int(sys.argv[2]))
