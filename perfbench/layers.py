"""Per-layer ledger: wrap each layer's public functions, time them as spans.

Used only by ``--trace 1`` runs.  The wrappers are installed from this
file around the program's own functions; the program itself is not
changed.  Spans are recorded only while a timed slice runs (the
:class:`~timing.Slicer` switches :attr:`Ledger.active`), kept in memory,
and written once at the end as a Chrome-trace file that Perfetto and
``repro top --replay`` read.

A layer's *self* time is its span time minus the time of wrapped spans
inside it; the *unattributed* remainder is slice time covered by no
span.  Self times plus the remainder add up to the traced slice time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

#: (module, class or None for a module function, function, layer name,
#: result -> count).  A layer whose name ends in ``#`` only counts calls
#: and records no span.
LAYERS = (
    ("repro.fleet.coordinator", "FleetCoordinator", "run_cycles", "fleet.coordinator.run_cycles", None),
    ("repro.fleet.shard", "ShardSim", "run", "fleet.shard.run", None),
    ("repro.fleet.workload", "WorkloadConfig", "offered", "fleet.workload.offered", None),
    ("repro.fleet.workload", None, "interval_stream", "fleet.workload.interval_stream#", None),
    ("repro.fleet.placement", "WatermarkPlacement", "desired", "fleet.placement.desired", None),
    ("repro.fleet.placement", "GreedyPlacement", "desired", "fleet.placement.desired", None),
    ("repro.fleet.placement", "GeneticPlacement", "desired", "fleet.placement.desired", None),
    ("repro.nfv.cluster_kernel", "ClusterKernel", "step", "nfv.cluster_kernel.step", None),
    ("repro.nfv.engine", "PacketEngine", "compile_chains", "nfv.engine.compile_chains", None),
    ("repro.nfv.engine", "PacketEngine", "step_batch", "nfv.engine.step_batch",
     lambda tel: tel.throughput_gbps.size),
    ("repro.nfv.node", "Node", "step_all", "nfv.node.step_all", None),
    ("repro.core.env", "NFVEnv", "step", "core.env.step", None),
    ("repro.rl.ddpg", "DDPGAgent", "update", "rl.ddpg.update", None),
    ("repro.rl.ddpg", "DDPGAgent", "act", "rl.ddpg.act", None),
    ("repro.rl.nn", "MLP", "forward", "rl.nn.forward", None),
    ("repro.rl.nn", "MLP", "backward", "rl.nn.backward", None),
    ("repro.rl.nn", "Adam", "step", "rl.nn.adam_step", None),
    ("repro.rl.per", "PrioritizedReplayBuffer", "sample", "rl.per.sample", None),
    ("repro.rl.per", "PrioritizedReplayBuffer", "update_priorities", "rl.per.update_priorities", None),
    ("repro.rl.per", "PrioritizedReplayBuffer", "add", "rl.per.add", None),
)

#: Spans kept for the trace file; the ledger totals count every span.
MAX_EVENTS = 100_000


class Ledger:
    """Span totals, self times and call counts per layer."""

    def __init__(self) -> None:
        self.active = False
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self.events: list[tuple[str, float, float]] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS`."""
        for module, owner, attr, name, size in LAYERS:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            fn = target.__dict__[attr]
            if name.endswith("#"):
                wrapper = self._counter(fn, name[:-1])
            else:
                wrapper = self._span(fn, name, size)
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, fn))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    def _counter(self, fn, name: str):
        ledger = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if ledger.active:
                ledger.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str, size):
        ledger = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not ledger.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                else:
                    ledger.covered_s += dur
                ledger.total_s[name] += dur
                ledger.self_s[name] += dur - frame[0]
                ledger.calls[name] += 1
                if len(ledger.events) < MAX_EVENTS:
                    ledger.events.append((name, t0, dur))
            if size is not None:
                ledger.items[name] += size(result)
            return result

        return spanned

    # -- output --------------------------------------------------------------

    def write_trace(self, path: str) -> None:
        """Write the kept spans once, in the layout :mod:`repro.obs` writes.

        A ``[`` line, then one event per line with a trailing comma and
        no closing bracket, which Perfetto and ``read_trace`` accept.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n")
            fh.write(json.dumps({
                "name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
                "args": {"name": "perfbench"},
            }) + ",\n")
            for name, t0, dur in self.events:
                fh.write(json.dumps({
                    "name": name, "ph": "X", "ts": round(t0 * 1e6, 3),
                    "dur": round(dur * 1e6, 3), "pid": pid, "tid": 0, "args": {},
                }) + ",\n")
