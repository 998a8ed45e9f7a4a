"""Set-up cost of one fresh interpreter: import wulff_tvl1, parse the
workload's gauges and make one small warm-up call per gauge.  Prints the
seconds taken.

    python3 perfbench/setup_probe.py '<JSON list of gauge specs>'
"""

import json
import sys
import time

t0 = time.perf_counter()
import wulff_tvl1  # noqa: E402,F401  (the import is what is timed)
from wulff_tvl1.gauge import Gauge  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by wulff_tvl1)

x = np.full((4, 4, 2), 0.75)
for spec in json.loads(sys.argv[1]):
    g = Gauge.from_json(spec)
    g(x)
    g.project_minus_wulff(x)
print(time.perf_counter() - t0)
