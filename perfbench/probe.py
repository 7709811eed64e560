"""Set-up probe: ``python perfbench/probe.py <workload>`` imports the program,
performs the workload's set-up and prints ``ready``.  The caller times it
from process start to that line."""

import importlib
import sys

if __name__ == "__main__":
    importlib.import_module(sys.argv[1].replace("-", "_")).setup()
    print("ready", flush=True)
