"""Set-up probe run in a fresh interpreter by run.py.

Imports `seblab.cli` from the given source directory and loads the given
instance files through `seblab.io.load_instance`, then prints one JSON line
with the two times in milliseconds.

    python3 bench/setup_child.py <src dir> <instance.json>...
"""

import json
import sys
import time


def main():
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import seblab.cli

    imported = time.perf_counter()
    for path in sys.argv[2:]:
        seblab.cli.io.load_instance(path)
    loaded = time.perf_counter()
    print(json.dumps({"import_ms": 1e3 * (imported - start),
                      "load_ms": 1e3 * (loaded - imported)}))


if __name__ == "__main__":
    main()
