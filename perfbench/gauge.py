"""The machine's speed during a run, from reference jobs that do not use avec.

The reference machine's speed drifts by 15% or more over seconds and
over minutes, for every process alike, so two sets of runs of the same
code can differ by more than any useful bound.  A `SpeedGauge` times two
fixed pure-Python BFS jobs between commands: one on a graph that fits in
the CPU caches, one on a graph of about 20 MB that does not.  Cache-bound
and memory-bound code slow down by different amounts under the same
load, and avec's commands are a mix of both; the geometric mean of the
two jobs tracked the commands' speed better than either job alone.

`factor` is REFERENCE_S over the median of the samples; the end-to-end
times of a run are multiplied by it, so that they read as seconds at the
reference machine's usual speed.
"""

import random
import statistics
from collections import deque
from functools import cache
from time import perf_counter

# Median of `reference_sample` on the reference machine (2 cores,
# Python 3.11.7).
REFERENCE_S = 0.0550
# A sample costs about 0.15 s; the gauge takes one per this much run time.
SAMPLE_EVERY_S = 2.0


@cache
def _graph(n):
    """A fixed random graph: a random tree plus n random edges."""
    rng = random.Random(n)
    adj = [[] for _ in range(n)]
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _bfs_time(adj, sources):
    start = perf_counter()
    for s in sources:
        dist = [-1] * len(adj)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return perf_counter() - start


def reference_sample():
    """Geometric mean of the cache-resident and the memory-bound job, in s."""
    small = _bfs_time(_graph(3000), range(25))
    large = _bfs_time(_graph(100_000), range(1))
    return (small * large) ** 0.5


class SpeedGauge:
    def __init__(self):
        self.samples = []
        self._start = None

    def tick(self):
        """Catch up to one sample per SAMPLE_EVERY_S since the first tick.

        Called between commands; after a long command it takes several
        samples, so that long and short commands weigh alike.
        """
        if self._start is None:
            self._start = perf_counter()
        due = 1 + int((perf_counter() - self._start) / SAMPLE_EVERY_S)
        while len(self.samples) < due:
            self.samples.append(reference_sample())

    def factor(self):
        return REFERENCE_S / statistics.median(self.samples)
