"""One fresh-process set-up: ``import camina``, then write the seeded input
files.  Prints the seconds it took and then the median seconds of three
passes of the reference loop (``reference.py``) run right after it.

    python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import camina  # noqa: E402,F401
from inputs import write_inputs  # noqa: E402

write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
setup_s = time.perf_counter() - t0

from reference import reference  # noqa: E402

print(setup_s, statistics.median(reference()[0] for _ in range(3)))
