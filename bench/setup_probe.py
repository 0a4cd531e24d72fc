"""Set-up probe: import portopt.cli and load one config, doing no sector work.

run.py starts it in a fresh interpreter with PYTHONPATH pointing at src/.
It prints one JSON line with the two in-process timings and the file the
package was imported from.

Usage: python3 bench/setup_probe.py <config.yaml>
"""

import json
import sys
from time import perf_counter


def main():
    start = perf_counter()
    import portopt.cli

    imported = perf_counter()
    portopt.cli.load_config(sys.argv[1])
    loaded = perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported,
                      "module": portopt.cli.__file__}))


if __name__ == "__main__":
    main()
