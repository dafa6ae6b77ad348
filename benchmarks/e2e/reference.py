"""The host-speed reference: a fixed pure-Python kernel timed between operations.

The shared host this benchmark was built on runs a process at two speeds,
switching between them many times a second: in its slow state the same
pure-Python code takes about 1.7 times as long, and CPU time rises with
wall time, so the process is not being descheduled.  A whole run can sit
mostly in either state, so raw timings of one program moved by a third
between runs minutes apart.

The benchmark therefore runs this kernel between every two operations and
scales each operation's time by :data:`REFERENCE_S` over the mean of the
kernel times just before and just after it.  The result reads as the time
the operation would take with the host at reference speed.  The kernel is
benchmark code that no program change can speed up or slow down.
"""

from __future__ import annotations

from time import perf_counter

#: The kernel's time at reference speed: about its time on the measurement
#: host (a shared VM with 2 vCPUs, Python 3.11.7) in the host's fast state.
REFERENCE_S = 1e-4

#: Iterations per kernel call.
ITERATIONS = 300


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class ReferenceKernel:
    """Dict, list, attribute, int and bytes work, as the program does.

    It allocates no container, so it never triggers the cyclic garbage
    collector and moves no collection into an operation.
    """

    def __init__(self):
        self._cells = [_Cell(index) for index in range(64)]
        self._table = {index: 0 for index in range(256)}
        self._data = bytes(range(256)) * 4
        self._slots = [b""] * 128

    def run(self) -> int:
        table, cells, data, slots = self._table, self._cells, self._data, self._slots
        acc = 0
        for index in range(ITERATIONS):
            key = data[index & 1023]
            table[key] = (table[key] + index) & 0xFFFF
            cell = cells[index & 63]
            cell.value = (cell.value * 31 + key) & 0xFFFFFF
            acc ^= cell.value
            slots[index & 127] = data[key:key + 4]
        return acc

    def timed(self) -> float:
        """One run's wall time, in seconds."""
        started = perf_counter()
        self.run()
        return perf_counter() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    scaled to the host at reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
