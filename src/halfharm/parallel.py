"""The optional thread pool shared by the package's independent sweeps.

HALFHARM_THREADS sets the worker count; the default is 1 (no pool).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    """HALFHARM_THREADS as a worker count: 1 when unset, not an integer or
    below 1, and never more than os.cpu_count()."""
    try:
        n = int(os.environ.get("HALFHARM_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(n, os.cpu_count() or 1))


def map_ordered(fn, items) -> list:
    """[fn(x) for x in items], on thread_count() workers when that is above 1."""
    items = list(items)
    n = thread_count()
    if n > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
