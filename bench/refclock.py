"""Program time at a fixed reference speed of the host.

The benchmark shares its CPUs with other tenants of the host, whose load
changes the host's speed by up to 1.8x within minutes.  A wall-clock time
read on such a host measures the neighbours as much as the program.  So
while the program runs, a fixed pure-Python kernel (`kernel`, defined here,
independent of the program) is timed every PERIOD_S seconds, from a SIGALRM
handler in the program's own process, and every stretch of program time
between two kernel runs is scaled by NOMINAL_S / (the kernel's time around
that stretch).  The result is the time the program would have taken on the
host running the kernel in NOMINAL_S, which was about the kernel's median on
a 2-vCPU Intel Xeon virtual machine at 2.0 GHz.  A change to the program
changes this time as it changes the wall time; the host's speed cancels out.

Kernel runs are taken out of the program's time, so a run measured with a
RefClock reports only the program's own work.
"""

import time

NOMINAL_S = 0.0034
PERIOD_S = 0.05
NEIGHBOURS = 2  # kernel runs on each side of a stretch that set its speed


def _circulant(n: int, steps: tuple[int, ...]) -> list[int]:
    return [sum(1 << (v + s) % n | 1 << (v - s) % n for s in steps) for v in range(n)]


BFS_GRAPHS = [_circulant(n, steps) for n in (9, 13, 17) for steps in ((1, 2), (2, 5))]
COLOUR_GRAPHS = [
    tuple(tuple(u for u in range(n) if row >> u & 1) for row in _circulant(n, (1, 2)))
    for n in (13, 16, 17)
]
TABLE_BYTES = 1 << 22  # twice this machine's per-core L2, so reads go to the shared L3
_table: list[bytes] = []


def _bfs() -> int:
    total = 0
    for adj in BFS_GRAPHS:
        n = len(adj)
        for source in range(0, n, 3):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                reached = []
                for v in frontier:
                    row = adj[v]
                    for u in range(n):
                        if row >> u & 1 and u not in dist:
                            dist[u] = dist[v] + 1
                            reached.append(u)
                frontier = reached
            total += sum(dist.values())
    return total


def _scattered_reads() -> int:
    if not _table:
        _table.append(bytes(range(256)) * (TABLE_BYTES // 256))
    table, mask, i = _table[0], TABLE_BYTES - 1, 1
    for _ in range(3200):
        i = (i * 2654435761 + table[i]) & mask
    return i


def _allocations() -> int:
    kept = []
    for i in range(450):
        kept.append((frozenset(range(i % 23)), {j: (j, i) for j in range(i % 11)}))
        if len(kept) > 100:
            kept = []
    return len(kept)


def _colour(nbrs: tuple[tuple[int, ...], ...], k: int) -> bool:
    """Saturation-ordered backtracking k-colouring, as exact colouring code does it."""
    colours = [0] * len(nbrs)

    def pick() -> int:
        best, best_sat = -1, -1
        for v in range(len(nbrs)):
            if not colours[v]:
                sat = len({colours[u] for u in nbrs[v] if colours[u]})
                if sat > best_sat:
                    best, best_sat = v, sat
        return best

    def solve(remaining: int, used: int) -> bool:
        if remaining == 0:
            return True
        v = pick()
        forbidden = {colours[u] for u in nbrs[v]}
        for c in range(1, min(k, used + 1) + 1):
            if c not in forbidden:
                colours[v] = c
                if solve(remaining - 1, max(used, c)):
                    return True
        colours[v] = 0
        return False

    return solve(len(nbrs), 0)


def kernel() -> int:
    """About equal parts of breadth-first search with bit tests, reads scattered
    over a table in L3, allocation of small sets and dicts, and recursive
    colouring backtracking."""
    return (_bfs() + _scattered_reads() + _allocations()
            + sum(_colour(g, k) for g in COLOUR_GRAPHS for k in (3, 4)))


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


class RefClock:
    """Times the kernel every PERIOD_S seconds while the program runs."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # start and end of every kernel run
        self._busy = False

    def tick(self, *_: object) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.marks.append((t0, time.perf_counter()))
        self._busy = False

    def start(self) -> None:
        import signal

        signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def kernel_median(self) -> float:
        return _median([b - a for a, b in self.marks])

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Program time at the reference speed inside each (start, end) wall interval.

        Every interval must lie between the first and the last kernel run.
        """
        marks = self.marks
        durations = [b - a for a, b in marks]
        factors = []  # for the gap after kernel run i
        for i in range(len(marks) - 1):
            near = durations[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS]
            factors.append(NOMINAL_S / _median(near))
        out = []
        i = 0
        for start, end in intervals:
            if start < marks[0][1] or end > marks[-1][0]:
                raise ValueError("interval outside the clock's kernel runs")
            while marks[i + 1][0] <= start:
                i += 1
            total, j = 0.0, i
            while j < len(factors) and marks[j][1] < end:
                overlap = min(end, marks[j + 1][0]) - max(start, marks[j][1])
                if overlap > 0:
                    total += overlap * factors[j]
                j += 1
            out.append(total)
        return out
