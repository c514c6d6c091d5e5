"""Check that importing the CLI loads none of the modules it keeps off its start-up path.

    python tests/import_guard.py

Imports `weitzenboeck` and `weitzenboeck.cli` from wherever this
interpreter finds them (with PYTHONPATH=src, the source tree; without it,
the installed package), prints the package's path, and exits with status
1, naming the modules, if that import loaded `dataclasses`, `inspect` or
`json`.  Every CLI call pays for what the import loads: the value classes
are plain classes, and `json` is imported only when machine output is
printed.
"""

import sys

KEPT_OUT = {"dataclasses", "inspect", "json"}

before = set(sys.modules)
import weitzenboeck  # noqa: E402
import weitzenboeck.cli  # noqa: E402

loaded = sorted(KEPT_OUT & (set(sys.modules) - before))
print(weitzenboeck.__file__)
if loaded:
    sys.exit(f"importing weitzenboeck and weitzenboeck.cli loaded {', '.join(loaded)}")
