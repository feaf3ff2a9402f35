"""Set-up probe, run in a fresh interpreter by bench/run.py.

Times what a new CLI process pays before its first task: importing
mbpilab (and numpy with it), parsing every INI config of the workload and
building its models.  Prints the seconds as one JSON line.

Usage: python3 bench/probe.py SRC_DIR CONFIG.ini [CONFIG.ini ...]
"""

import json
import sys
import time


def main(argv):
    started = time.perf_counter()
    sys.path.insert(0, argv[1])
    from mbpilab import cli

    for path in argv[2:]:
        cli.build_model(cli.load_config(path)["model"])
    print(json.dumps({"setup_s": time.perf_counter() - started}))


if __name__ == "__main__":
    main(sys.argv)
