"""Correctness checks, computed apart from the program.

Each check takes plain result data (the JSON-native artifacts the
program returns) and raises :class:`CheckFailed` with a reason.  Totals
are recomputed from per-interval rows and logs, physical bounds are
derived here from first principles (frame size plus 20 B of Ethernet
overhead on a 10 GbE link), and the fleet's offered load is compared
with the analytic mean of the documented diurnal x flash-crowd model.
"""

from __future__ import annotations

import math

import numpy as np

#: Ethernet preamble + start delimiter + inter-frame gap, in bytes.
WIRE_OVERHEAD_B = 20
LINE_RATE_BPS = 10e9
#: The paper's margin for GreenNFV over the static Baseline.
PAPER_MARGIN = 1.5


class CheckFailed(Exception):
    """A result broke a property the method must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def line_rate_pps(frame_bytes: float) -> float:
    """10 GbE packet rate for a frame size, framing overhead included."""
    return LINE_RATE_BPS / (8.0 * (frame_bytes + WIRE_OVERHEAD_B))


# -- fleets ------------------------------------------------------------------


def check_fleet(result: dict) -> None:
    """Every fleet check on one ``FleetResult.to_dict()`` payload."""
    fleet = result["fleet"]
    rows = result["intervals"]
    _require(
        [r["index"] for r in rows] == list(range(fleet["cycles"] * fleet["sync_every"])),
        "interval rows do not cover the run exactly once",
    )
    check_fleet_totals(result)
    check_fleet_delivery(result)
    check_fleet_hosting(result)
    check_fleet_migrations(result)
    check_fleet_offered(result)


def check_fleet_totals(result: dict) -> None:
    """Totals recomputed from the interval rows and the migration log."""
    rows, migs, totals = result["intervals"], result["migrations"], result["totals"]
    dt = result["fleet"]["interval_s"]
    _require(
        totals["energy_j"] == totals["sim_energy_j"] + totals["migration_energy_j"],
        "energy does not close: energy_j != sim_energy_j + migration_energy_j",
    )
    sim_j = math.fsum(r["energy_j"] for r in rows)
    mig_j = math.fsum(m["cost_j"] for m in migs)
    mean_gbps = math.fsum(r["throughput_gbps"] for r in rows) / len(rows)
    energy_j = sim_j + mig_j
    expect = {
        "intervals": len(rows),
        "sim_energy_j": sim_j,
        "migration_energy_j": mig_j,
        "energy_j": energy_j,
        "mean_throughput_gbps": mean_gbps,
        "mean_power_w": energy_j / (len(rows) * dt),
        "energy_efficiency": mean_gbps / (energy_j / 1e3),
        "sla_violations": sum(r["sla_violations"] for r in rows),
        "migrations": len(migs),
        "migration_hops": sum(m["hops"] for m in migs),
        "arrivals": sum(c["event"] == "arrival" for c in result["churn"]),
        "departures": sum(c["event"] == "departure" for c in result["churn"]),
    }
    for key, value in expect.items():
        _require(_close(totals[key], value), f"total {key}={totals[key]!r}, rows give {value!r}")


def check_fleet_delivery(result: dict) -> None:
    """Delivered packets never exceed offered packets, interval by interval."""
    frame = result["fleet"]["workload"]["packet_bytes"]
    for r in result["intervals"]:
        delivered_pps = r["throughput_gbps"] * 1e9 / (8.0 * (frame + WIRE_OVERHEAD_B))
        _require(
            delivered_pps <= r["offered_pps"] * (1 + 1e-9),
            f"interval {r['index']}: delivered {delivered_pps:.6g} pps > offered {r['offered_pps']:.6g}",
        )


def initial_placement(topology: dict) -> dict[str, tuple[str, int]]:
    """The documented initial deployment: ``chains_per_node`` per node."""
    out = {}
    for shard in topology["shards"]:
        for node in range(shard["nodes"]):
            for slot in range(shard["chains_per_node"]):
                out[f"{shard['name']}-n{node}-c{slot}"] = (shard["name"], node)
    return out


def check_fleet_hosting(result: dict) -> None:
    """Replay deploy, churn and migrations: each chain on exactly one node.

    Decisions stamped with interval ``i`` take effect from interval
    ``i`` on (the benchmark steps one coordinator cycle per call, so
    every plan is applied before the next cycle runs).
    """
    fleet = result["fleet"]
    capacity = fleet["migration"]["capacity_per_node"]
    nodes = {s["name"]: s["nodes"] for s in fleet["topology"]["shards"]}
    placement = initial_placement(fleet["topology"])
    events: dict[int, list[tuple[str, dict]]] = {}
    for c in result["churn"]:
        events.setdefault(c["interval"], []).append((c["event"], c))
    for m in result["migrations"]:
        events.setdefault(m["interval"], []).append(("migration", m))
    order = {"departure": 0, "migration": 1, "arrival": 2}
    rows = result["intervals"]
    for index in range(len(rows) + 1):
        batch = sorted(events.pop(index, []), key=lambda e: order[e[0]])
        for kind, e in batch:
            name = e["chain"]
            if kind == "departure":
                _require(
                    placement.get(name, (None,))[0] == e["shard"],
                    f"departure of {name} from {e['shard']}, which does not host it",
                )
                del placement[name]
            elif kind == "migration":
                _require(
                    placement.get(name) == (e["src_shard"], e["src_node"]),
                    f"migration of {name} from a node that does not host it",
                )
                placement[name] = (e["dst_shard"], e["dst_node"])
            else:
                _require(name not in placement, f"chain {name} hosted twice")
                placement[name] = (e["shard"], e["node"])
        counts: dict[tuple[str, int], int] = {}
        for key in placement.values():
            _require(0 <= key[1] < nodes.get(key[0], 0), f"chain placed on unknown node {key}")
            counts[key] = counts.get(key, 0) + 1
        _require(
            max(counts.values(), default=0) <= capacity,
            f"interval {index}: a node hosts more than capacity_per_node={capacity}",
        )
        if index < len(rows):
            _require(
                rows[index]["chains"] == len(placement),
                f"interval {index}: {rows[index]['chains']} chains stepped, "
                f"replay hosts {len(placement)}",
            )
    _require(not events, f"decisions stamped outside the run: {sorted(events)}")
    _require(
        result["totals"]["final_chains"] == len(placement),
        "final chain count disagrees with the replay",
    )


def check_fleet_migrations(result: dict) -> None:
    """Every migration pays off and travels a valid routed path."""
    topo = result["fleet"]["topology"]
    names = [s["name"] for s in topo["shards"]]
    if topo["mesh"]:
        adjacent = {frozenset((a, b)) for a in names for b in names if a != b}
    else:
        adjacent = {frozenset((l["a"], l["b"])) for l in topo["links"]}
    for m in result["migrations"]:
        path = m["path"]
        _require(m["gain_j"] > m["cost_j"], f"migration of {m['chain']} with gain <= cost")
        _require(m["hops"] == len(path) - 1, f"migration of {m['chain']}: hops != len(path) - 1")
        _require(
            path[0] == m["src_shard"] and path[-1] == m["dst_shard"],
            f"migration of {m['chain']}: path does not join source and target",
        )
        _require(len(set(path)) == len(path), f"migration of {m['chain']}: path revisits a shard")
        for a, b in zip(path, path[1:]):
            _require(frozenset((a, b)) in adjacent, f"migration of {m['chain']}: {a}-{b} is no link")


def diurnal_level(index: int, dt: float, workload: dict) -> float:
    """The noise-free diurnal factor of the interval mid-point."""
    if workload["profile"] == "constant":
        return 1.0
    period = workload["period_s"]
    mid = index * dt + dt / 2.0
    phase = 2.0 * math.pi * (mid % period) / period
    lo = workload["trough_fraction"]
    return lo + (1.0 - lo) * 0.5 * (1.0 - math.cos(phase))


def expected_offered(result: dict) -> tuple[float, float]:
    """(mean, standard deviation) of the run's summed offered load.

    Each chain-interval offers ``peak x level x noise x flash``: noise
    has mean 1 and deviation ``noise_std``; a crowd starts with
    probability ``p`` per interval and multiplies by ``m`` for
    ``duration`` intervals, so the flash factor is ``m`` with
    probability ``1 - (1 - p)^w`` (``w`` the starts that can reach the
    interval).  Draws of one chain are correlated only through crowds
    whose windows overlap, i.e. within ``duration`` intervals; the
    covariance of two intervals is counted for ``min`` of their chain
    counts, which over-counts under churn and so errs wide.
    """
    fleet = result["fleet"]
    wl = fleet["workload"]
    dt = fleet["interval_s"]
    flash = wl["flash"]
    p, m, d = flash["probability"], flash["multiplier"], flash["duration_intervals"]
    rows = result["intervals"]
    window = [min(d, r["index"] + 1) for r in rows]
    active = [1.0 - (1.0 - p) ** w for w in window]
    base = [wl["peak_rate_pps"] * diurnal_level(r["index"], dt, wl) for r in rows]
    mean = var = 0.0
    for i, r in enumerate(rows):
        q = active[i]
        e_flash = 1.0 + (m - 1.0) * q
        mean += r["chains"] * base[i] * e_flash
        e_sq = (1.0 + (m * m - 1.0) * q) * (1.0 + wl["noise_std"] ** 2)
        var += r["chains"] * base[i] ** 2 * (e_sq - e_flash**2)
        for j in range(i + 1, min(len(rows), i + d)):
            union = window[i] + (j - i)
            both = active[i] + active[j] - (1.0 - (1.0 - p) ** union)
            cov = (m - 1.0) ** 2 * (both - active[i] * active[j])
            var += 2.0 * min(r["chains"], rows[j]["chains"]) * base[i] * base[j] * cov
    return mean, math.sqrt(var)


#: Standard deviations of the sum the offered load may stray.
OFFERED_SIGMAS = 4.0


def check_fleet_offered(result: dict) -> None:
    """The fleet's total offered load matches the analytic model."""
    mean, sigma = expected_offered(result)
    got = math.fsum(r["offered_pps"] for r in result["intervals"])
    _require(
        abs(got - mean) <= OFFERED_SIGMAS * sigma,
        f"offered load {got:.6g} is {(got / mean - 1) * 100:+.2f}% off the model mean "
        f"{mean:.6g} (tolerance {OFFERED_SIGMAS * sigma / mean * 100:.2f}%)",
    )


# -- training ----------------------------------------------------------------


def check_training(trained: dict, baseline: dict, ranges) -> None:
    """The trained GreenNFV policy against its own timeline and the Baseline.

    ``trained``/``baseline`` are ``RunResult.to_dict()`` payloads on the
    same spec; ``ranges`` holds the knob space's ``min_*``/``max_*``.
    """
    for result in (trained, baseline):
        check_run_metrics(result)
    _require(trained["spec"]["controller"] == "ddpg", "trained run is not the DDPG policy")
    _require(baseline["spec"]["controller"] == "static", "baseline run is not the static Baseline")
    check_knobs(trained["timeline"], ranges)
    t, b = trained["metrics"], baseline["metrics"]
    for key in ("mean_throughput_gbps", "energy_efficiency"):
        _require(
            t[key] >= PAPER_MARGIN * b[key],
            f"trained {key} {t[key]:.4g} is not {PAPER_MARGIN}x the Baseline's {b[key]:.4g}",
        )


def check_run_metrics(result: dict) -> None:
    """Aggregate metrics recomputed from the per-interval timeline."""
    points = result["timeline"]
    spec = result["spec"]
    _require(len(points) == spec["intervals"], "timeline does not cover the horizon")
    dt = spec["interval_s"]
    energy = math.fsum(p["energy_j"] for p in points)
    mean_gbps = math.fsum(p["throughput_gbps"] for p in points) / len(points)
    expect = {
        "mean_throughput_gbps": mean_gbps,
        "total_energy_j": energy,
        "mean_power_w": energy / (len(points) * dt),
        "energy_efficiency": mean_gbps / (energy / 1e3),
        "sla_satisfied_frac": sum(bool(p["sla_satisfied"]) for p in points) / len(points),
    }
    for key, value in expect.items():
        got = result["metrics"][key]
        _require(_close(got, value), f"metric {key}={got!r}, timeline gives {value!r}")


def check_knobs(points: list[dict], ranges) -> None:
    """Every knob the policy applied lies inside the knob space."""
    bounds = {
        "cpu_share": (ranges.min_cpu_share, ranges.max_cpu_share),
        "cpu_freq_ghz": (ranges.min_freq_ghz, ranges.max_freq_ghz),
        "llc_fraction": (ranges.min_llc_fraction, ranges.max_llc_fraction),
        "dma_mb": (ranges.min_dma_mb, ranges.max_dma_mb),
        "batch_size": (ranges.min_batch, ranges.max_batch),
    }
    for i, p in enumerate(points):
        knobs = p["knobs"]
        _require(knobs is not None and set(knobs) == set(bounds), f"interval {i}: knobs missing")
        for key, (lo, hi) in bounds.items():
            _require(lo <= knobs[key] <= hi, f"interval {i}: {key}={knobs[key]} outside [{lo}, {hi}]")


# -- knob scan ---------------------------------------------------------------


def check_scan(tel, knobs, loads, frames, best: dict) -> None:
    """Physical bounds and conservation over a (K, L, P) scan grid.

    ``best`` is the program's top-ranked energy-efficiency point; it must
    be the grid's argmax of mean Gbit/s per kJ computed here.
    """
    achieved = np.asarray(tel.achieved_pps)
    offered = np.asarray(loads, dtype=np.float64)[None, :, None]
    line = np.asarray([line_rate_pps(f) for f in frames])[None, None, :]
    _require(achieved.shape == (len(knobs), len(loads), len(frames)), "scan grid has the wrong shape")
    _require(bool(np.all(achieved <= offered * (1 + 1e-12))), "scan: achieved > offered")
    _require(bool(np.all(achieved <= line * (1 + 1e-12))), "scan: achieved > 10 GbE line rate")
    dropped = np.asarray(tel.dropped_pps)
    _require(
        bool(np.all(np.abs(dropped - (offered - achieved)) <= 1e-9 * offered)),
        "scan: dropped != offered - achieved",
    )
    energy = np.asarray(tel.energy_j)
    eff = np.where(energy > 0, np.asarray(tel.throughput_gbps) / (energy / 1e3), 0.0)
    k = int(np.argmax(eff.mean(axis=(1, 2))))
    got = knobs[k]
    want = best["knobs"]
    _require(
        (got.cpu_share, got.cpu_freq_ghz, got.llc_fraction, got.dma_mb, int(got.batch_size))
        == (want["cpu_share"], want["cpu_freq_ghz"], want["llc_fraction"], want["dma_mb"], want["batch_size"]),
        "scan: reported best point is not the most efficient one",
    )


#: Telemetry fields compared between the batched and the scalar path.
REPRICE_FIELDS = ("achieved_pps", "throughput_gbps", "power_w", "energy_j", "dropped_pps")


def check_reprice(tel, points, scalar_step) -> None:
    """Grid points re-priced through the scalar path agree within 1e-9.

    ``points`` are (k, l, p) indices; ``scalar_step(k, l, p)`` returns
    the scalar ``TelemetrySample`` for that point.
    """
    for k, l, p in points:
        sample = scalar_step(k, l, p)
        for name in REPRICE_FIELDS:
            batched = float(getattr(tel, name)[k, l, p])
            scalar = float(getattr(sample, name))
            _require(
                abs(batched - scalar) <= 1e-9 * max(abs(scalar), 1e-9),
                f"scan point {(k, l, p)}: {name} batched {batched!r} != scalar {scalar!r}",
            )
