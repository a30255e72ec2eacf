"""Time one set-up of a workload in a fresh interpreter and print it as JSON.

    python3 perfbench/probe.py <workload> <seed> <work directory>

Set-up is what a user pays before the first job: the import of homsuper
from this checkout's src/ (which parses the identity registry) plus seeded
generation and writing of the workload's inputs.  The clock starts before
anything but `time` is imported, so no module homsuper needs is loaded
uncounted.  run.py starts this script several times and keeps the median.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(name, seed, workdir):
    sys.path.insert(0, str(SRC))
    import homsuper
    import workloads
    workload = workloads.generate(name, int(seed), Path(workdir))
    elapsed = time.perf_counter() - STARTED
    import statistics
    import reference
    speed = reference.NOMINAL_S / statistics.median(
        reference.slice_seconds() for _ in range(3))
    where = Path(homsuper.__file__).resolve().parent
    if where != (SRC / "homsuper").resolve():
        print("probe imported homsuper from %s" % where, file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": elapsed * speed, "raw_setup_s": elapsed,
                      "input_digest": workload.input_digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
