"""Slice timing normalised to host speed.

A run is cut into slices well under a second.  Each slice is timed and
then followed by one :func:`~refkernel.reference_kernel` call; the
slice's rate at reference host speed is

    work / (slice_time / kernel_time * NOMINAL_S)

and a run reports the median over its slices.  Set-up phases are timed
the same way, with the kernel run three times after each one.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from refkernel import NOMINAL_S, time_reference


@dataclass
class Slice:
    """One timed piece of workload and the kernel time measured after it."""

    work: float
    seconds: float
    kernel_s: float

    @property
    def rate(self) -> float:
        """Work per second at reference host speed."""
        return self.work * self.kernel_s / (self.seconds * NOMINAL_S)

    @property
    def raw_rate(self) -> float:
        """Work per host second, as measured."""
        return self.work / self.seconds


@dataclass
class Setup:
    """One timed set-up phase and the kernel time measured after it."""

    seconds: float
    kernel_s: float

    @property
    def normalised(self) -> float:
        """Set-up time at reference host speed."""
        return self.seconds * NOMINAL_S / self.kernel_s


@dataclass
class Slicer:
    """Collects slices and set-up phases of one run.

    ``open`` starts the clock; ``close(work)`` ends the current slice,
    runs the reference kernel outside the clock and starts the next
    slice.  ``pause`` ends the clock without recording a slice (the
    workload's checks run between rounds, untimed).
    """

    slices: list[Slice] = field(default_factory=list)
    setups: list[Setup] = field(default_factory=list)
    #: A :class:`~layers.Ledger` to switch on only while a slice runs.
    ledger: object = None
    _t0: float | None = None

    def open(self) -> None:
        self._record(True)
        self._t0 = time.perf_counter()

    def close(self, work: float) -> None:
        t1 = time.perf_counter()
        self._record(False)
        if self._t0 is None:
            raise RuntimeError("slice closed before it was opened")
        seconds = t1 - self._t0
        self.slices.append(Slice(work, seconds, time_reference(1)))
        self.open()

    def pause(self) -> None:
        self._record(False)
        self._t0 = None

    def setup_done(self, t_start: float) -> None:
        """Record a set-up phase that began at ``t_start`` and ends now."""
        seconds = time.perf_counter() - t_start
        self.setups.append(Setup(seconds, time_reference(3)))

    def _record(self, on: bool) -> None:
        if self.ledger is not None:
            self.ledger.active = on

    # -- summaries ---------------------------------------------------------

    @property
    def work(self) -> float:
        return sum(s.work for s in self.slices)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.slices)

    def rate(self) -> float:
        """Median per-slice rate at reference host speed."""
        return statistics.median(s.rate for s in self.slices if s.work > 0)

    def raw_rate(self) -> float:
        """Median per-slice rate as measured on this host."""
        return statistics.median(s.raw_rate for s in self.slices if s.work > 0)

    def host_factor(self) -> float:
        """Median of kernel_time / NOMINAL_S over the slices (>1: slow host)."""
        return statistics.median(s.kernel_s for s in self.slices) / NOMINAL_S
