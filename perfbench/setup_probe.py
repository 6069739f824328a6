"""Cold-start probe: import qheat and parse one operation's commands.

Run in a fresh interpreter by ``child.py``; prints the ``time.perf_counter``
readings at the start and the end as a JSON pair.
Only the standard library is imported before the clock starts.

    python3 setup_probe.py SRC_DIR ARGV_LIST_JSON
"""

import json
import sys
import time


def main() -> int:
    src, argv_list = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    from qheat import cli

    for argv in argv_list:
        args = cli.build_parser().parse_args(argv)
        if args.command in ("simulate", "exact"):
            with open(args.config) as fh:
                cli.parse_experiment(json.load(fh))
    print(json.dumps([start, time.perf_counter()]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
