"""Set-up as a fresh interpreter does it: import the package, load inputs.

Usage: ``python setup_probe.py [horn|grammar FILE]``, from the repository
root with ``src`` on ``PYTHONPATH``. Prints ``ready`` once the resident
state a query needs exists; the caller times from spawn to that line.
"""

import sys

import hyperpaths

if len(sys.argv) == 3:
    with open(sys.argv[2], encoding="utf-8") as fh:
        text = fh.read()
    if sys.argv[1] == "horn":
        hyperpaths.parse_hypergraph(text)
    else:
        hyperpaths.to_hypergraph(hyperpaths.parse_grammar(text))
print("ready", flush=True)
