"""Set-up as a user pays it: a fresh interpreter imports fttlab and builds the inputs.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints ``ready`` when the first case could start.

    python3 bench/setup_probe.py WORKLOAD SEED TINY
"""

import sys

import fttlab  # noqa: F401  (the import is what is being timed)

import inputs

workload, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
inputs.deck(workload, seed, 0, inputs.TINY if tiny else inputs.FULL)
print("ready", flush=True)
