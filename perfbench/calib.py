"""Machine-speed calibration.

The speed of a shared machine drifts: on a 2-vCPU VM the same
pure-Python work can take 1.5x longer from one second to the next
and from one minute to the next, because co-tenants contend for the
core and its caches.  That drift is common to every timed call, so the
benchmark samples a fixed kernel throughout each round, between the
timed calls and every ``INTERVAL_NS`` inside the query loop, and scales
the round's raw times by ``REFERENCE_NS / median(kernel samples)``.

Reported times are therefore seconds on a machine where the kernel
takes ``REFERENCE_NS``: a change to posheap moves them in proportion,
while a busy neighbour moves them much less than it moves raw times
(which ``run.py`` prints alongside).  The kernel is a small mix of what
posheap's calls spend their time on - int-keyed dict ``setdefault``,
``array`` updates, building and sorting lists of tuples, and a compact
JSON encode/decode round trip - so that contention slows it about as
much as it slows the library.  It uses no posheap code, so no change to
the library can move it.
"""

from __future__ import annotations

import json
import random
import statistics
from array import array

from spans import perf

# scale constant: about the kernel's time on an idle core of the 2-vCPU
# Intel Xeon 2.1 GHz VM the benchmark was tuned on, CPython 3.11
REFERENCE_NS = 4_000_000
INTERVAL_NS = 200_000_000
_KEYS = 3_000


class Calibrator:
    def __init__(self):
        rng = random.Random("calibration")
        self._keys = [rng.randrange(1 << 30) for _ in range(_KEYS)]
        self._last = 0
        self.samples: list[int] = []

    def kernel(self) -> int:
        keys = self._keys
        d: dict[int, int] = {}
        a = array("i", bytes(4 << 12))
        for i, k in enumerate(keys):
            d.setdefault(k, i)
            a[k & 0xFFF] += 1
        rows = [(k & 0xFF, k, i) for i, k in enumerate(keys)]
        rows.sort()
        blob = json.dumps([[i, k, None, d[k]] for i, k in enumerate(keys)], separators=(",", ":"))
        return len(json.loads(blob)) + len(rows) + a[0]

    def tick(self, force: bool = False) -> int:
        """Sample the kernel unless one ran in the last INTERVAL_NS;
        returns the time spent."""
        t0 = perf()
        if not force and t0 - self._last < INTERVAL_NS:
            return 0
        self.kernel()
        t1 = perf()
        self.samples.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def take(self) -> float:
        """Scale factor for the samples since the last take; resets."""
        if not self.samples:
            return 1.0
        f = REFERENCE_NS / statistics.median(self.samples)
        self.samples = []
        return f
