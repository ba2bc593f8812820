"""The workload process.

    python3 worker.py setup SRC          print [set-up time, reference time]
    python3 worker.py run SRC < job      run the job, print a JSON report

Set-up is timed first, before the benchmark imports anything else, as the
time to import `starprod.cli` from SRC and build its argument parser.  A job
is JSON on stdin: `argvs` (cycled, one request at a time), `seconds`,
`trace`, and `extra` (label -> argv, each run once, traced, after the timed
loop).  With `trace` set, the first half of the time runs untraced requests
and the second half traced ones; see loop.py.
"""

import sys
import time


def main():
    mode, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import starprod.cli

    starprod.cli.build_parser()
    setup_s = time.perf_counter() - start
    import json

    import loop  # both imported only after set-up is timed

    if mode == "setup":
        print(json.dumps([setup_s, loop.calibrate()[0]]))
        return
    loop.main(setup_s)


if __name__ == "__main__":
    main()
