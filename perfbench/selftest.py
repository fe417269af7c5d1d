"""Self-test of the benchmark's checks.

Run from the repository root::

    python3 perfbench/selftest.py

A short run of each workload must pass every check, and every check
must fail when handed a deliberately broken copy of a real result.
Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import os
import sys
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from layers import Ledger  # noqa: E402
from timing import Slicer  # noqa: E402
from workloads import FleetConsolidate, FleetDiurnal, GreenNFVTrain, KnobScan  # noqa: E402
from repro.nfv.knobs import DEFAULT_RANGES  # noqa: E402
from repro.scenario import GRIDS  # noqa: E402
from repro.scenario.runner import scan_knob_grid, scan_report  # noqa: E402

SEED = 3
RESULTS: list[tuple[str, bool]] = []


def passes(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed as exc:
        RESULTS.append((f"good {name}: {exc}", False))
        return
    RESULTS.append((f"good {name}", True))


def fails(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckFailed as exc:
        RESULTS.append((f"broken {name}: caught ({exc})", True))
        return
    RESULTS.append((f"broken {name}: NOT caught", False))


def broken(result: dict, edit) -> dict:
    out = copy.deepcopy(result)
    edit(out)
    return out


# -- fleets ------------------------------------------------------------------


def fleet_cases() -> None:
    diurnal = FleetDiurnal(SEED).run_round(Slicer())[0]
    passes("fleet-diurnal run", checks.check_fleet, diurnal)
    consolidate = FleetConsolidate(SEED)
    consolidate.runs = 1
    result = consolidate.run_round(Slicer())[0]
    passes("fleet-consolidate run", checks.check_fleet, result)
    assert result["migrations"] and result["churn"], "consolidate run must migrate and churn"

    def energy_open(r):
        r["totals"]["energy_j"] += 1.0

    def scale_offered(factor):
        def edit(r):
            for row in r["intervals"]:
                row["offered_pps"] *= factor
        return edit

    def host_twice(r):
        arrival = next(c for c in r["churn"] if c["event"] == "arrival")
        r["churn"].append(dict(arrival))

    def wrong_source(r):
        r["migrations"][0]["src_node"] += 1

    def over_capacity(r):
        r["fleet"]["migration"]["capacity_per_node"] = 1

    def losing_move(r):
        r["migrations"][0]["gain_j"] = r["migrations"][0]["cost_j"]

    def bad_hops(r):
        r["migrations"][0]["hops"] += 1

    def no_link(r):
        r["migrations"][0].update(src_shard="site1", dst_shard="site3",
                                  path=["site1", "site3"], hops=1)

    def delivered_too_much(r):
        r["intervals"][5]["offered_pps"] = 1.0

    def wrong_mean(r):
        r["totals"]["mean_throughput_gbps"] *= 1.001

    fails("energy does not close", checks.check_fleet_totals, broken(diurnal, energy_open))
    for name, r in (("diurnal", diurnal), ("consolidate", result)):
        fails(f"{name} offered mean +10%", checks.check_fleet_offered, broken(r, scale_offered(1.1)))
        fails(f"{name} offered mean -10%", checks.check_fleet_offered, broken(r, scale_offered(0.9)))
    fails("chain hosted twice", checks.check_fleet_hosting, broken(result, host_twice))
    fails("migration from a node not hosting the chain", checks.check_fleet_hosting,
          broken(result, wrong_source))
    fails("capacity_per_node exceeded", checks.check_fleet_hosting, broken(result, over_capacity))
    fails("migration with gain <= cost", checks.check_fleet_migrations, broken(result, losing_move))
    fails("hops != len(path) - 1", checks.check_fleet_migrations, broken(result, bad_hops))
    fails("path over a missing link", checks.check_fleet_migrations, broken(result, no_link))
    fails("delivered > offered", checks.check_fleet_delivery, broken(diurnal, delivered_too_much))
    fails("total off the rows", checks.check_fleet_totals, broken(result, wrong_mean))


# -- training ----------------------------------------------------------------


def training_cases() -> None:
    train = GreenNFVTrain(SEED)
    train.UNITS = 1
    (trained, baseline), = train.run_round(Slicer())
    passes("greennfv-train run", checks.check_training, trained, baseline, DEFAULT_RANGES)

    def baseline_rollout(r):
        # The policy's knobs stay, so only the margin over the Baseline can tell.
        for point, base in zip(r["timeline"], baseline["timeline"]):
            point.update({k: v for k, v in base.items() if k != "knobs"})
        r["metrics"] = dict(baseline["metrics"])

    def knob_outside(r):
        r["timeline"][7]["knobs"]["cpu_share"] = DEFAULT_RANGES.max_cpu_share * 1.01

    def metric_off(r):
        r["metrics"]["energy_efficiency"] *= 1.001

    fails("Baseline rollout in place of the trained policy's", checks.check_training,
          broken(trained, baseline_rollout), baseline, DEFAULT_RANGES)
    fails("knob outside the knob space", checks.check_training,
          broken(trained, knob_outside), baseline, DEFAULT_RANGES)
    fails("metric off its timeline", checks.check_training,
          broken(trained, metric_off), baseline, DEFAULT_RANGES)


# -- knob scan ---------------------------------------------------------------


def scan_cases() -> None:
    scan = KnobScan(SEED)
    summaries = scan.run_round(Slicer())
    for s in summaries:
        RESULTS.append((f"good knob-scan chain {s['chain']}", s["failure"] is None))
    spec = scan.specs()[0]
    grid = GRIDS.get("fine")()
    tel = scan_knob_grid(spec, grid, offered_grid=scan.loads, packet_bytes=list(scan.FRAMES))
    best = scan_report(spec, grid, tel, top=1)["results"][0]
    fields = ("achieved_pps", "dropped_pps", "energy_j", "throughput_gbps", "power_w")
    copy_tel = lambda: SimpleNamespace(**{f: np.array(getattr(tel, f)) for f in fields})

    def args(t, b=best):
        return (t, grid, scan.loads, scan.FRAMES, b)

    passes("knob-scan arrays", checks.check_scan, *args(copy_tel()))
    over_line = copy_tel()
    top = int(np.argmax(scan.loads))
    over_line.achieved_pps[0, top, 2] = checks.line_rate_pps(scan.FRAMES[2]) * 1.01
    over_line.dropped_pps[0, top, 2] = scan.loads[top] - over_line.achieved_pps[0, top, 2]
    fails("achieved above the 10 GbE line rate", checks.check_scan, *args(over_line))
    over_offer = copy_tel()
    over_offer.achieved_pps[1, 0, 2] = scan.loads[0] * 1.01
    fails("achieved above offered", checks.check_scan, *args(over_offer))
    leak = copy_tel()
    leak.dropped_pps[2, 3, 1] += 1.0
    fails("dropped != offered - achieved", checks.check_scan, *args(leak))
    runner_up = scan_report(spec, grid, tel, top=2)["results"][1]
    fails("best point not the most efficient", checks.check_scan, *args(copy_tel(), runner_up))

    engine_step = scan_engine_step(spec, grid, scan)
    points = [(5, 2, 1), (100, 7, 0)]
    passes("scalar re-pricing", checks.check_reprice, copy_tel(), points, engine_step)
    drift = copy_tel()
    drift.energy_j[100, 7, 0] *= 1 + 1e-6
    fails("batched point off the scalar path", checks.check_reprice, drift, points, engine_step)


def scan_engine_step(spec, grid, scan):
    from repro.nfv.engine import PacketEngine
    from repro.scenario.runner import build_context

    ctx = build_context(spec)
    engine = PacketEngine(params=ctx.engine_params)
    return lambda k, l, p: engine.step(
        ctx.chain, grid[k], scan.loads[l], scan.FRAMES[p], spec.interval_s
    )


# -- ledger ------------------------------------------------------------------


def ledger_case() -> None:
    ledger = Ledger()
    slicer = Slicer(ledger=ledger)
    ledger.install()
    try:
        FleetDiurnal(SEED).run_round(slicer)
    finally:
        ledger.uninstall()
    total = slicer.seconds
    unattributed = total - ledger.covered_s
    adds_up = abs(sum(ledger.self_s.values()) + unattributed - total) <= 1e-6 * total
    RESULTS.append(("ledger: self times + unattributed == traced total", adds_up))
    largest = max(ledger.self_s, key=ledger.self_s.get)
    RESULTS.append((f"ledger: largest fleet-diurnal layer is {largest}", True))


def main() -> int:
    fleet_cases()
    training_cases()
    scan_cases()
    ledger_case()
    bad = 0
    for message, ok in RESULTS:
        print(("PASS " if ok else "FAIL ") + message)
        bad += not ok
    print(f"{len(RESULTS) - bad} passed, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
