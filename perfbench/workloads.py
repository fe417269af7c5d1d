"""The four benchmark workloads.

Each workload builds its scenario from a registered preset plus the
overrides listed here, so the program receives only a generated spec.
A *round* is one complete, seeded piece of work (a fleet run, a set of
training runs, one scan per chain); a benchmark run repeats whole rounds
and every round of a run must give bit-identical results.  Inside a
round, :class:`~timing.Slicer` times slices well under a second.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import checks
from repro.fleet import FleetCoordinator, FleetSpec
from repro.core.env import NFVEnv
from repro.nfv.engine import PacketEngine
from repro.nfv.knobs import DEFAULT_RANGES
from repro.scenario import GRIDS
from repro.scenario.presets import SCENARIOS
from repro.scenario.runner import build_context, run, scan_knob_grid, scan_report


class Workload:
    """One benchmark workload; subclasses fill in the round."""

    name = ""
    #: Operations (coordinator cycles, training runs, grid scans) per round.
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed

    def run_round(self, slicer):
        """Set up (recorded on ``slicer``), run the timed slices, return a payload."""
        raise NotImplementedError

    def check(self, payload) -> list[str]:
        """Check one round; returns one message per failed operation."""
        raise NotImplementedError

    def sim_metrics(self, payload) -> dict[str, float]:
        """``sim_j_per_gbit`` and ``sim_gbps`` of one round."""
        raise NotImplementedError

    def fingerprint(self, payload) -> str:
        """What must repeat exactly from round to round."""
        raise NotImplementedError

    def layer_counts(self, payload) -> dict[str, float]:
        """Per-round counts read from the results rather than from spans."""
        return {}


# -- fleets ------------------------------------------------------------------


class FleetWorkload(Workload):
    """Local-backend fleet runs, stepped one coordinator cycle per call.

    A round is ``runs`` fleet runs on seeds derived from the benchmark
    seed; one operation is one coordinator cycle.
    """

    preset = ""
    fleet: dict = {}
    slice_cycles = 1
    runs = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cycles = FleetSpec.from_mapping(self.spec(0).fleet).cycles
        self.ops_per_round = self.runs * self.cycles

    def spec(self, k: int):
        return SCENARIOS.get(self.preset)().with_updates(
            fleet=self.fleet, seed=self.seed * self.runs + k
        )

    def run_round(self, slicer):
        return [self._run_fleet(self.spec(k), slicer) for k in range(self.runs)]

    def _run_fleet(self, spec, slicer) -> dict:
        t0 = time.perf_counter()
        fleet = FleetSpec.from_mapping(spec.fleet)
        coordinator = FleetCoordinator(
            fleet, sla=spec.sla, sla_params=spec.sla_params,
            interval_s=spec.interval_s, seed=spec.seed,
        )
        try:
            # Warm-up: the first cycle fills the kernel plan caches.
            coordinator.run_cycles(1)
            slicer.setup_done(t0)
            slicer.open()
            done, timed = 1, 0
            while done < fleet.cycles:
                work = 0
                for _ in range(min(self.slice_cycles, fleet.cycles - done)):
                    work += coordinator.n_chains * fleet.sync_every
                    coordinator.run_cycles(1)
                    done += 1
                slicer.close(work)
                timed += work
            slicer.pause()
            result = coordinator.result().to_dict()
        finally:
            coordinator.close()
        stepped = sum(r["chains"] for r in result["intervals"][fleet.sync_every:])
        if stepped != timed:
            raise checks.CheckFailed(f"timed {timed} chain-intervals, the run stepped {stepped}")
        return result

    def check(self, payload) -> list[str]:
        failed = []
        for result in payload:
            try:
                checks.check_fleet(result)
            except checks.CheckFailed as exc:
                failed += [f"{self.name} seed {result['fleet']['seed']}: {exc}"] * self.cycles
        return failed

    def sim_metrics(self, payload) -> dict[str, float]:
        energy = gbit = gbps = 0.0
        for result in payload:
            dt = result["fleet"]["interval_s"]
            energy += result["totals"]["energy_j"]
            gbit += math.fsum(r["throughput_gbps"] * dt for r in result["intervals"])
            gbps += result["totals"]["mean_throughput_gbps"]
        return {"sim_j_per_gbit": energy / gbit, "sim_gbps": gbps / len(payload)}

    def fingerprint(self, payload) -> str:
        keep = [
            {k: v for k, v in result.items() if k not in ("elapsed_s", "metrics")}
            for result in payload
        ]
        return json.dumps(keep, sort_keys=True)

    def layer_counts(self, payload) -> dict[str, float]:
        return {"fleet.placement.migrations": float(sum(len(r["migrations"]) for r in payload))}


class FleetDiurnal(FleetWorkload):
    """The ``datacenter`` preset as registered: 4 x 8 x 4 chains, diurnal
    load and flash crowds, no churn.  The workload draw dominates."""

    name = "fleet-diurnal"
    preset = "fleet-datacenter"
    fleet = {"preset": "datacenter"}
    slice_cycles = 1


class FleetConsolidate(FleetWorkload):
    """A small WAN fleet under churn that migrates all run long."""

    name = "fleet-consolidate"
    preset = "fleet-wan"
    #: Churn makes one run's mean throughput vary by ~10% from seed to
    #: seed; eight runs per round bring the spread of ``sim_gbps`` down.
    runs = 8
    fleet = {
        "preset": "wan",
        "topology": {"preset": "wan", "n_sites": 4, "nodes": 2, "chains_per_node": 1},
        "workload": {
            "peak_rate_pps": 3e5,
            "churn": {"arrivals_per_cycle": 1.0, "departure_prob": 0.15, "max_chains": 24},
        },
        "migration": {"amortize_intervals": 64},
        "placement": "genetic",
        "cycles": 64,
    }
    slice_cycles = 3


# -- GreenNFV training -------------------------------------------------------


class GreenNFVTrain(Workload):
    """The ``greennfv-ee`` preset: DDPG with PER under the EE SLA.

    One operation trains one policy, rolls it out over the 40-interval
    horizon and runs the static Baseline on the same spec.  A round
    trains ``UNITS`` policies on seeds derived from the benchmark seed,
    since one policy's throughput varies by about 13% from seed to seed.
    Slices are episodes: a hook on ``NFVEnv.reset`` closes the running
    slice, whose work is the episode's steps.
    """

    name = "greennfv-train"
    UNITS = 12

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops_per_round = self.UNITS
        self._slicer = None
        self._t0 = 0.0
        self._pending = None
        self._install_hook()

    def unit_specs(self):
        base = SCENARIOS.get("greennfv-ee")()
        return [base.with_updates(seed=self.seed * self.UNITS + k) for k in range(self.UNITS)]

    def _install_hook(self) -> None:
        reset = NFVEnv.reset
        workload = self

        def reset_hook(env, *args, **kwargs):
            workload._boundary(env.episode_len)
            return reset(env, *args, **kwargs)

        NFVEnv.reset = reset_hook

    def _boundary(self, next_work: int) -> None:
        slicer = self._slicer
        if slicer is None:
            return
        if self._pending is None:
            slicer.setup_done(self._t0)
            slicer.open()
        else:
            slicer.close(self._pending)
        self._pending = next_work

    def run_round(self, slicer):
        out = []
        for spec in self.unit_specs():
            self._slicer, self._pending, self._t0 = slicer, None, time.perf_counter()
            try:
                trained = run(spec)
                slicer.close(self._pending)
            finally:
                self._slicer = None
                slicer.pause()
            baseline = run(spec.with_updates(controller="static"))
            out.append((trained.to_dict(), baseline.to_dict()))
        return out

    def check(self, payload) -> list[str]:
        failed = []
        for trained, baseline in payload:
            try:
                checks.check_training(trained, baseline, DEFAULT_RANGES)
            except checks.CheckFailed as exc:
                failed.append(f"{self.name} seed {trained['spec']['seed']}: {exc}")
        return failed

    def sim_metrics(self, payload) -> dict[str, float]:
        energy = gbit = gbps = 0.0
        for trained, _ in payload:
            dt = trained["spec"]["interval_s"]
            energy += trained["metrics"]["total_energy_j"]
            gbit += math.fsum(p["throughput_gbps"] * dt for p in trained["timeline"])
            gbps += trained["metrics"]["mean_throughput_gbps"]
        return {"sim_j_per_gbit": energy / gbit, "sim_gbps": gbps / len(payload)}

    def fingerprint(self, payload) -> str:
        return json.dumps(
            [(t["metrics"], t["timeline"], b["metrics"]) for t, b in payload], sort_keys=True
        )


# -- knob scan ---------------------------------------------------------------


class KnobScan(Workload):
    """``scan_knob_grid`` over the ``fine`` grid x 8 loads x 3 frame sizes.

    One operation scans one chain; a round scans the default, light and
    heavy chains.  Loads are drawn one per log-spaced stratum between
    1e5 and 1.5e7 pps, so every seed spans light to beyond-line-rate load.
    """

    name = "knob-scan"
    CHAINS = ("default", "light", "heavy")
    FRAMES = (64.0, 512.0, 1518.0)
    N_LOADS = 8
    REPRICE_POINTS = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops_per_round = len(self.CHAINS)
        rng = np.random.default_rng(seed)
        edges = np.linspace(math.log(1e5), math.log(1.5e7), self.N_LOADS + 1)
        self.loads = [float(math.exp(rng.uniform(a, b))) for a, b in zip(edges, edges[1:])]

    def specs(self):
        base = SCENARIOS.get("baseline")()
        return [base.with_updates(chain=c, seed=self.seed) for c in self.CHAINS]

    def run_round(self, slicer):
        t0 = time.perf_counter()
        grid = GRIDS.get("fine")()
        specs = self.specs()
        slicer.setup_done(t0)
        out = []
        for spec in specs:
            slicer.open()
            tel = scan_knob_grid(spec, grid, offered_grid=self.loads, packet_bytes=list(self.FRAMES))
            slicer.close(tel.achieved_pps.size)
            slicer.pause()
            out.append(self._summarise(spec, grid, tel))
        return out

    def _summarise(self, spec, grid, tel) -> dict:
        """Check one chain's scan, untimed, and keep only its summary.

        One scan's arrays are alive at a time, so ``peak_rss_mb`` is the
        footprint of one ``step_batch`` grid, not of the round.
        """
        best = scan_report(spec, grid, tel, top=1)["results"][0]
        failure = None
        try:
            checks.check_scan(tel, grid, self.loads, self.FRAMES, best)
            ctx = build_context(spec)
            engine = PacketEngine(params=ctx.engine_params)
            rng = np.random.default_rng([self.seed, self.CHAINS.index(spec.chain)])
            shape = tel.achieved_pps.shape
            k_best = next(
                i for i, k in enumerate(grid)
                if (k.cpu_share, k.cpu_freq_ghz, k.llc_fraction, k.dma_mb, int(k.batch_size))
                == tuple(best["knobs"].values())
            )
            points = [(k_best, l, p) for l in range(shape[1]) for p in range(shape[2])]
            points += [tuple(int(rng.integers(n)) for n in shape) for _ in range(self.REPRICE_POINTS)]
            checks.check_reprice(
                tel, points,
                lambda k, l, p: engine.step(
                    ctx.chain, grid[k], self.loads[l], self.FRAMES[p], spec.interval_s
                ),
            )
        except checks.CheckFailed as exc:
            failure = f"{self.name} chain {spec.chain}: {exc}"
        return {"chain": spec.chain, "interval_s": spec.interval_s, "best": best, "failure": failure}

    def check(self, payload) -> list[str]:
        return [s["failure"] for s in payload if s["failure"] is not None]

    def sim_metrics(self, payload) -> dict[str, float]:
        energy = sum(s["best"]["mean_energy_j"] for s in payload)
        gbit = sum(s["best"]["mean_throughput_gbps"] * s["interval_s"] for s in payload)
        gbps = sum(s["best"]["mean_throughput_gbps"] for s in payload) / len(payload)
        return {"sim_j_per_gbit": energy / gbit, "sim_gbps": gbps}

    def fingerprint(self, payload) -> str:
        return json.dumps([s["best"] for s in payload], sort_keys=True)


WORKLOADS = {w.name: w for w in (FleetDiurnal, FleetConsolidate, GreenNFVTrain, KnobScan)}
