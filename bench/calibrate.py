"""Speed meter: times an op and samples the host's speed while it runs.

The benchmark host is shared, and its speed drifts by up to about 2x,
sometimes within a second.  The drift slows a fixed pure-Python kernel and
the library alike.  So the meter times the kernel three times before an op,
every TICK_S seconds during it (from a SIGALRM handler, in the same thread)
and three times after it.  It reports the op's wall time less the time
spent in the handler, and that time scaled by REF_S over the median kernel
time: the op's time at the reference speed, at which kernel() takes REF_S.
The raw wall time is reported next to the scaled one.

The kernel uses no library code, so no change to the library moves it.  It
mimics the library's inner loops: log/exp table lookups with XOR row
updates, dot products through a q x q addition table the size of
GF(289)'s, small objects with operator methods, and tuple-keyed dicts.
The large table matters: the host's slow spells hurt code that misses the
cache more than code that does not.  Changing the kernel, REF_S or TICK_S
changes every scaled number, so it is a change of the benchmark, not of the
program.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

REF_S = 0.0017    # kernel() seconds on a 2-vCPU Xeon VM in a fast spell; sets the scale only
TICK_S = 0.05     # interval of the speed samples taken during an op
_AROUND = 3       # kernel timings before and after each op


def _tables() -> tuple[list[int], list[int]]:
    exp, log = [0] * 510, [0] * 256
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x & 256:
            x ^= 0x11D
    return exp, log


_EXP, _LOG = _tables()

_P = 289
_ADD_P = [[(a + b) % _P for b in range(_P)] for a in range(_P)]
_EXP_P = [pow(3, i, _P) for i in range(2 * (_P - 1))]
_LOG_P = [0] * _P
for _i in range(_P - 1):
    _LOG_P[_EXP_P[_i]] = _i
_ROWS_P = [[(i * 53 + j * 29 + 7) % _P for j in range(64)] for i in range(12)]


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __mul__(self, other: "_Elem") -> "_Elem":
        a, b = self.v, other.v
        return _Elem(_EXP[_LOG[a] + _LOG[b]] if a and b else 0)


def kernel() -> int:
    """Rank of a fixed 20 x 20 matrix over GF(256), dot products through the
    large table, then object and dict work."""
    exp, log = _EXP, _LOG
    n = 20
    a = [[(i * 37 + j * 11 + 1) & 255 for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        linv = 255 - log[a[rank][c]]
        a[rank] = rowr = [exp[log[v] + linv] if v else 0 for v in a[rank]]
        for i in range(n):
            f = a[i][c]
            if i != rank and f:
                lf = log[f]
                row = a[i]
                for j in range(c, n):
                    v = rowr[j]
                    if v:
                        row[j] ^= exp[lf + log[v]]
        rank += 1
    add, exp_p, log_p = _ADD_P, _EXP_P, _LOG_P
    for r1 in _ROWS_P:
        for r2 in _ROWS_P:
            dot = 0
            for x, y in zip(r1, r2):
                if x and y:
                    dot = add[dot][exp_p[log_p[x] + log_p[y]]]
            rank += dot
    acc = _Elem(1)
    seen = {}
    for i in range(1, 600):
        acc = acc * _Elem(i & 255 or 1)
        seen[(acc.v, i & 15)] = i
    return rank + len(seen)


@dataclass
class Timing:
    result: object
    error: str | None     # the exception the call raised, as text
    wall_s: float         # wall seconds, less the time spent sampling
    tick_s: float         # seconds the speed samples took inside the call
    s: float              # wall_s at the reference speed


class Meter:
    """Times calls while sampling the host's speed; one per process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._samples: list[float] = []
        self._inside = 0.0
        self._busy = False

    def _kernel_time(self) -> float:
        t0 = self.clock()
        kernel()
        return self.clock() - t0

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = self.clock()
        self._samples.append(self._kernel_time())
        self._inside += self.clock() - t0
        self._busy = False

    def time(self, fn) -> Timing:
        """Call fn() and time it; an exception from fn is returned as text."""
        self._samples = [self._kernel_time() for _ in range(_AROUND)]
        self._inside = 0.0
        result = error = None
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = self.clock()
        try:
            result = fn()
        except Exception as exc:   # a failing op is counted; the caller goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = self.clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.extend(self._kernel_time() for _ in range(_AROUND))
        wall -= self._inside
        return Timing(result, error, wall, self._inside,
                      wall * REF_S / statistics.median(self._samples))
