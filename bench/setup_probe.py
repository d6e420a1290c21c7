"""Time one set-up in a fresh interpreter: `import wavebank` plus warm-up ops.

Usage: python3 setup_probe.py SRC_DIR OPS_JSON
OPS_JSON holds a list of argv lists.  Prints the set-up time in seconds.
A failing warm-up op is still timed; the main run counts it as failed.
Interpreter start-up is not included; the import of numpy (which wavebank
pulls in) is.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, ops_file = sys.argv[1], sys.argv[2]
    with open(ops_file) as fh:
        ops = json.load(fh)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from wavebank import cli

    for argv in ops:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except (Exception, SystemExit):  # the main run checks and counts warm-up failures
                pass
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
