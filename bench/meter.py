"""Job timing normalised by a reference kernel timed between the jobs.

The machines this benchmark runs on share their cores with other virtual
machines.  The speed of a core changes by up to 2x, both within a second
and over minutes, while the process is never descheduled (its CPU time
grows with wall time), so raw times of the same work spread by 15-40%
from run to run.  A fixed pure-Python reference kernel slows down with
the jobs, so every time is rescaled by the reference timings around it:

    reported = measured * REF_NOMINAL_S / mean reference time nearby

The unit stays the second: it is the second of a machine on which the
reference kernel takes exactly ``REF_NOMINAL_S``.  The kernel uses no
ptableaux code, so a change to the library moves the reported times and a
change of machine load does not.  Raw times are kept in the report.
"""
from __future__ import annotations

from itertools import product
from time import perf_counter

from oracle import insertion_shape, is_lattice

REF_NOMINAL_S = 0.003
# Job time between two reference timings, and the number of reference
# timings on either side of a block that set its factor.  The speed of a
# core changes faster than a second, so a single reference timing says
# little about the job next to it; the mean of a window of them is the
# average speed over that window, which the jobs in it saw too.
BLOCK_S = 0.05
WINDOW = 10


def reference_kernel():
    """Library-like work on tuples, dicts and small loops: group all words of
    length 6 over [3] by insertion shape and sort the groups."""
    groups: dict = {}
    for letters in product((1, 2, 3), repeat=6):
        key = (insertion_shape(letters[::-1]), is_lattice(letters))
        groups.setdefault(key, []).append(letters)
    return sorted((key, len(words)) for key, words in groups.items())


def time_reference() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


class Meter:
    """Collects job times and, once a block holds ``BLOCK_S`` of job time, a
    reference timing.  Each job is scaled by the mean reference timing of
    the ``2 * WINDOW`` timings around its block."""

    def __init__(self):
        self.raw: list[float] = []
        self._block_of: list[int] = []
        self._block_s = 0.0
        self.refs = [time_reference()]

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._block_of.append(len(self.refs) - 1)
        self._block_s += seconds
        if self._block_s >= BLOCK_S:
            self.refs.append(time_reference())
            self._block_s = 0.0

    def normalized(self) -> list[float]:
        if self._block_s:
            self.refs.append(time_reference())
            self._block_s = 0.0
        refs = self.refs
        factors = []
        for k in range(len(refs) - 1):
            window = refs[max(0, k + 1 - WINDOW): k + 1 + WINDOW]
            factors.append(REF_NOMINAL_S * len(window) / sum(window))
        return [s * factors[k] for s, k in zip(self.raw, self._block_of)]


def normalized_call(fn, *args):
    """Run ``fn`` between two windows of reference timings; returns (result,
    raw seconds, normalised seconds)."""
    before = [time_reference() for _ in range(WINDOW)]
    start = perf_counter()
    result = fn(*args)
    raw = perf_counter() - start
    refs = before + [time_reference() for _ in range(WINDOW)]
    return result, raw, raw * REF_NOMINAL_S * len(refs) / sum(refs)
