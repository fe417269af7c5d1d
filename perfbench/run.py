"""perfbench: end-to-end and per-layer benchmark of the GreenNFV reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-diurnal --seed 1 --seconds 10 --trace 0

Runs one workload in this single process for at least ``--seconds``
seconds of whole rounds, checks every result, and prints the metrics;
the last line of standard output is one JSON object.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer ledger.  See README.md.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP in this process, set before numpy loads:
# the host has 2 CPUs and OpenBLAS would otherwise start up to 64.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "traces"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def blas_build(np) -> str:
    """The BLAS numpy was built against, as numpy reports it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    config = " ".join(str(blas.get("openblas configuration", "")).split())
    return f"{blas.get('name')} {blas.get('version')} {config}".strip()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from refkernel import time_reference
    from timing import Setup, Slicer

    # Set-up time counts the program's imports, not numpy's.
    t_import = time.perf_counter()
    from workloads import WORKLOADS

    import_setup = Setup(time.perf_counter() - t_import, time_reference(3))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(
        f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas=[{blas_build(np)}] "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}"
    )
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        from layers import Ledger

        ledger = Ledger()
        slicers = {False: Slicer(), True: Slicer(ledger=ledger)}
    else:
        ledger = None
        slicers = {False: Slicer()}

    attempted = failed = 0
    correct = True
    # Only the first round's payload is kept, so that peak memory does
    # not grow with the number of rounds a host manages to run.
    first = None
    rounds = {False: 0, True: 0}
    counts: dict[str, float] = {}
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds[False] > rounds[True]
        slicer = slicers[traced]
        attempted += workload.ops_per_round
        if traced:
            ledger.install()
        try:
            payload = workload.run_round(slicer)
        except Exception as exc:  # a round that raises fails all its operations
            print(f"FAILED round: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += workload.ops_per_round
            payload = None
        finally:
            slicer.pause()
            if traced:
                ledger.uninstall()
        if payload is not None:
            messages = workload.check(payload)
            for message in messages:
                print(f"FAILED check: {message}", file=sys.stderr)
            failed += len(messages)
            rounds[traced] += 1
            if traced:
                for key, value in workload.layer_counts(payload).items():
                    counts[key] = counts.get(key, 0.0) + value
            if not messages:
                fingerprint = workload.fingerprint(payload)
                if first is None:
                    first = (fingerprint, payload)
                elif fingerprint != first[0]:
                    print("FAILED check: a round differs from the first round", file=sys.stderr)
                    correct = False
            payload = None
        elapsed = time.perf_counter() - t_start
        enough = not args.trace or (rounds[True] and rounds[False])
        if elapsed >= args.seconds and (enough or elapsed >= 4 * args.seconds):
            break
        if failed == attempted and attempted >= 3 * workload.ops_per_round:
            break  # every round fails; stop early
    if first is None or (args.trace and not rounds[True]):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 0

    plain = slicers[False]
    if not args.trace:
        setups = [s.normalised for s in plain.setups]
        setup_s = import_setup.normalised + statistics.median(setups)
        setup_raw = import_setup.seconds + statistics.median(s.seconds for s in plain.setups)
        rate = plain.rate()
        sim = workload.sim_metrics(first[1])
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "chain_intervals_per_s": metric(rate, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "sim_j_per_gbit": metric(sim["sim_j_per_gbit"], "J/Gbit"),
            "sim_gbps": metric(sim["sim_gbps"], "Gbit/s"),
        }
        print(f"rounds={rounds[False]} slices={len(plain.slices)} "
              f"setups={len(plain.setups)} measured_s={plain.seconds:.3f} "
              f"import_s={import_setup.seconds:.4f} (normalised {import_setup.normalised:.4f}) "
              f"round setup median={statistics.median(setups):.4f} (normalised) "
              f"slice host factor={plain.host_factor():.4f}")
        print(f"{'metric':<24}{'value':>14} {'unit':<8}{'raw':>14}{'host factor':>13}")
        rows = [
            ("setup_s", setup_s, "s", setup_raw, setup_raw / setup_s),
            ("chain_intervals_per_s", rate, "1/s", plain.raw_rate(), rate / plain.raw_rate()),
        ]
        for name, value, unit, raw, factor in rows:
            print(f"{name:<24}{value:>14.6g} {unit:<8}{raw:>14.6g}{factor:>13.4f}")
        for name in ("peak_rss_mb", "sim_j_per_gbit", "sim_gbps"):
            m = metrics[name]
            print(f"{name:<24}{m['value']:>14.6g} {m['unit']:<8}")
    else:
        metrics, ok = layer_metrics(ledger, slicers, rounds, counts)
        correct = correct and ok
        path = TRACE_DIR / f"{args.workload}.trace.json"
        ledger.write_trace(str(path))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


#: (metric, ledger layer, what) for the per-layer times.
LAYER_TIMES = (
    ("fleet.workload.offered_s", "fleet.workload.offered", "total"),
    ("nfv.cluster_kernel.step_s", "nfv.cluster_kernel.step", "total"),
    ("nfv.engine.compile_chains_s", "nfv.engine.compile_chains", "total"),
    ("fleet.shard.run_s", "fleet.shard.run", "total"),
    ("fleet.shard.self_s", "fleet.shard.run", "self"),
    ("fleet.placement.desired_s", "fleet.placement.desired", "total"),
    ("fleet.coordinator.run_cycles_s", "fleet.coordinator.run_cycles", "total"),
    ("fleet.coordinator.self_s", "fleet.coordinator.run_cycles", "self"),
    ("core.env.step_s", "core.env.step", "total"),
    ("nfv.node.step_all_s", "nfv.node.step_all", "total"),
    ("rl.ddpg.update_s", "rl.ddpg.update", "total"),
    ("rl.ddpg.act_s", "rl.ddpg.act", "total"),
    ("rl.nn.forward_s", "rl.nn.forward", "total"),
    ("rl.nn.backward_s", "rl.nn.backward", "total"),
    ("rl.nn.adam_step_s", "rl.nn.adam_step", "total"),
    ("rl.per.sample_s", "rl.per.sample", "total"),
    ("rl.per.update_priorities_s", "rl.per.update_priorities", "total"),
    ("rl.per.add_s", "rl.per.add", "total"),
    ("nfv.engine.step_batch_s", "nfv.engine.step_batch", "total"),
)

#: (metric, ledger layer) for the per-layer call counts.
LAYER_CALLS = (
    ("nfv.cluster_kernel.steps", "nfv.cluster_kernel.step"),
    ("nfv.engine.compile_chains_calls", "nfv.engine.compile_chains"),
    ("fleet.placement.desired_calls", "fleet.placement.desired"),
    ("core.env.steps", "core.env.step"),
    ("rl.ddpg.updates", "rl.ddpg.update"),
)


def layer_metrics(ledger, slicers, n_rounds, counts):
    """Per-round, host-speed-normalised layer metrics; prints the ledger."""
    traced = slicers[True]
    rounds = n_rounds[True]
    slice_s = traced.seconds
    scale = 1.0 / (traced.host_factor() * rounds)
    unattributed = slice_s - ledger.covered_s
    attributed = sum(ledger.self_s.values())
    ok = abs(attributed + unattributed - slice_s) <= 1e-6 * slice_s
    overhead = (slicers[False].rate() / traced.rate() - 1.0) * 100.0
    metrics = {}
    for name, layer, kind in LAYER_TIMES:
        source = ledger.total_s if kind == "total" else ledger.self_s
        metrics[name] = metric(source.get(layer, 0.0) * scale, "s")
    for name, layer in LAYER_CALLS:
        metrics[name] = metric(ledger.calls.get(layer, 0) / rounds, "count")
    metrics["nfv.engine.step_batch_points"] = metric(
        ledger.items.get("nfv.engine.step_batch", 0.0) / rounds, "count")
    metrics["fleet.workload.streams_per_chain_interval"] = metric(
        ledger.calls.get("fleet.workload.interval_stream", 0) / traced.work, "1/ci")
    metrics["fleet.placement.migrations"] = metric(
        counts.get("fleet.placement.migrations", 0.0) / rounds, "count")
    metrics["trace.unattributed_s"] = metric(unattributed * scale, "s")
    metrics["trace.overhead_pct"] = metric(overhead, "%")

    print(f"traced rounds={rounds} untraced rounds={n_rounds[False]} "
          f"traced slice time={slice_s:.4f} s host factor={traced.host_factor():.4f}")
    print(f"tracing overhead: {overhead:+.2f}% (normalised rate untraced "
          f"{slicers[False].rate():.6g}/s, traced {traced.rate():.6g}/s)")
    print(f"{'layer (per round, reference speed)':<36}{'calls':>10}{'total s':>12}"
          f"{'self s':>12}{'self %':>9}")
    for layer in sorted(ledger.self_s, key=lambda n: -ledger.self_s[n]):
        print(f"{layer:<36}{ledger.calls[layer] / rounds:>10.1f}"
              f"{ledger.total_s[layer] * scale:>12.6f}{ledger.self_s[layer] * scale:>12.6f}"
              f"{100 * ledger.self_s[layer] / slice_s:>8.2f}%")
    print(f"{'(unattributed)':<36}{'':>10}{'':>12}{unattributed * scale:>12.6f}"
          f"{100 * unattributed / slice_s:>8.2f}%")
    print(f"{'(traced total)':<36}{'':>10}{'':>12}{slice_s * scale:>12.6f}"
          f"{100 * (attributed + unattributed) / slice_s:>8.2f}%")
    if not ok:
        print("FAILED check: self times plus unattributed do not add up to the traced total",
              file=sys.stderr)
    return metrics, ok


if __name__ == "__main__":
    sys.exit(main())
