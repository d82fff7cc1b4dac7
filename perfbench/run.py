"""The repository benchmark: four served workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gate_hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  The load generator and every server run on one CPU, and
their times are scaled to a reference CPU speed measured on it between
slices (see :mod:`reference`); the unscaled figures are printed beside
them.  ``--trace 1`` is the separate traced run: it alternates
untraced and traced blocks (``tctx`` on every request, spans echoed back),
times the client codec, replays the window's requests through an
in-process engine built from wrapped public stages, and prints the
per-layer metrics and a layer table (also written to
``.perfbench/layers-<workload>.json``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every served decision is checked against an embedded engine fed the same
inputs in the same order; a mismatch counts as a failure and makes
``correct`` false.  Run outside a checkout (no ``src/repro`` beside this
directory) the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: set-ups per untraced run; ``setup_s`` is the quickest (interference only slows one).
SETUPS = 2
#: the window is cut into slices this long; see :func:`_window`.
SLICE_SECONDS = 0.25
#: reference-kernel runs timed before and after each set-up.
SETUP_KERNELS = 5

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists under *section*."""
    with open(SPEC, "r", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[section]}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (*q* in [0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            setups: int = SETUPS, corrupt: bool = False, scale: Optional[Dict] = None) -> Dict:
    """Run one workload once; returns the result document (see :func:`main`)."""
    from fleet import Fleet, bench_cpu, load_average, provenance, stolen_seconds
    from inputs import Inputs
    from reference import kernel_seconds
    from workloads import WORKLOADS, Recorder

    inherited = os.sched_getaffinity(0)
    cpu = bench_cpu()
    os.sched_setaffinity(0, {cpu})
    work = os.path.join(ROOT, ".perfbench", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        stamp = provenance(ROOT, seed)
        stamp["load_before"] = load_average()
        kind = WORKLOADS[workload]
        inputs = Inputs(seed, live_events=kind.live_events(seconds), **(scale or {}))
        bench = kind(inputs, work, seconds)
        oracle = inputs.oracle()
        rounds = 1 if trace else setups
        #: (seconds, seconds stolen, reference kernel seconds around it) per set-up.
        setup_times: List[Tuple[float, float, float]] = []
        for attempt in range(rounds):
            fleet = Fleet(ROOT)
            kernel = kernel_seconds(SETUP_KERNELS)
            stolen = stolen_seconds(cpu)
            started = time.perf_counter()
            try:
                bench.start(fleet)
            except BaseException:
                bench.close()
                fleet.stop()
                raise
            elapsed = time.perf_counter() - started
            stolen = stolen_seconds(cpu) - stolen
            setup_times.append((elapsed, stolen, (kernel + kernel_seconds(SETUP_KERNELS)) / 2))
            if attempt + 1 < rounds:
                bench.close()
                fleet.stop()
        with fleet:
            setup_rss = fleet.peak_rss_mb()
            recorder = Recorder()
            tracer = None
            before = bench.server_stats()
            if trace:
                from layers import Tracer

                tracer = Tracer(recorder)
            try:
                window = _window(bench, recorder, fleet, cpu, seconds, tracer)
            finally:
                if tracer is not None:
                    tracer.finish()
            after = bench.server_stats()
            window["rss_mb"] = (setup_rss, fleet.peak_rss_mb())
            if corrupt:
                bench.corrupt()
            mismatched = bench.verify(oracle)
            layer = None
            if tracer is not None:
                from layers import per_layer

                layer = per_layer(bench, tracer, recorder, before, after,
                                  client_cpu=window["client_cpu"])
            bench.close()
        stamp["load_after"] = load_average()
        return _result(workload, recorder, mismatched, window, setup_times, stamp, layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, inherited)


def _window(bench, recorder, fleet, cpu: int, seconds: float, tracer) -> Dict:
    """The timed closed loop, cut into slices of ``SLICE_SECONDS``.

    Each slice records its duration, the time the hypervisor stole from
    *cpu* in it, the server CPU it used, what the recorder counted in it and
    the reference kernel's time around it (the kernel runs between slices,
    outside them); the end-to-end metrics are medians over slices, so a
    burst of host interference moves one slice, not the run.  A workload whose pre-generated inputs run out ends the
    window early (``cut``); the slices before the cut still count.  The
    load generator's own garbage collector is paused for the window so its
    pauses never land in a measured round trip.
    """
    from fleet import self_cpu_seconds, stolen_seconds
    from reference import kernel_seconds

    slices = []
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        client_cpu = self_cpu_seconds()
        server_cpu = fleet.cpu_seconds()
        mark_kernel = kernel_seconds()
        mark_cpu, mark_stolen = fleet.cpu_seconds(), stolen_seconds(cpu)
        started = mark_time = time.perf_counter()
        deadline = started + seconds
        mark = recorder.mark()
        index = 0
        while True:
            now = time.perf_counter()
            cut = bench.exhausted()
            if now - mark_time >= SLICE_SECONDS or now >= deadline or cut:
                used, stolen = fleet.cpu_seconds(), stolen_seconds(cpu)
                kernel = kernel_seconds()
                if now - mark_time >= SLICE_SECONDS / 2:
                    piece = recorder.since(mark, now - mark_time, used - mark_cpu)
                    piece["kernel"] = (mark_kernel + kernel) / 2
                    piece["stolen"] = stolen - mark_stolen
                    slices.append(piece)
                if now >= deadline or cut:
                    break
                mark_kernel, mark_cpu, mark = kernel, fleet.cpu_seconds(), recorder.mark()
                mark_stolen = stolen_seconds(cpu)
                now = mark_time = time.perf_counter()
            if tracer is not None:
                tracer.select_block(now - started)
            bench.step(recorder, index)
            index += 1
        elapsed = time.perf_counter() - started
        server_cpu = fleet.cpu_seconds() - server_cpu
        client_cpu = self_cpu_seconds() - client_cpu
    finally:
        gc.enable()
        gc.unfreeze()
    return {"slices": slices, "elapsed": elapsed, "server_cpu": server_cpu,
            "client_cpu": client_cpu, "cut": cut}


def _median_over(slices, value) -> float:
    values = [value(piece) for piece in slices]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _gated(slices, setup_times, rss_mb: float, speed: Callable[[float], float]) -> Dict[str, float]:
    """The gated end-to-end metrics; times are scaled by ``speed(kernel seconds)``."""

    def per_op_cpu(piece):
        ops = piece["decisions"] + piece["events"]
        return piece["cpu"] / ops * speed(piece["kernel"]) * 1e6 if ops else None

    def rate(piece):
        ran = piece["duration"] - piece["stolen"]
        return piece["decisions"] / (ran * speed(piece["kernel"])) if ran > 0 else None

    def decide_p50(piece):
        values = piece["latencies"].get("decide")
        return percentile(values, 0.50) * speed(piece["kernel"]) * 1e6 if values else None

    return {
        "setup_s": min((elapsed - stolen) * speed(kernel)
                       for elapsed, stolen, kernel in setup_times),
        "decide_p50_us": _median_over(slices, decide_p50),
        "decisions_per_s": _median_over(slices, rate),
        "server_cpu_us_per_op": _median_over(slices, per_op_cpu),
        "server_rss_mb": rss_mb,
    }


def _result(workload, recorder, mismatched, window, setup_times, stamp, layer) -> Dict:
    from reference import REFERENCE_SECONDS

    ops = recorder.decisions + recorder.events
    failed = recorder.failed + mismatched
    lat = recorder.latencies
    slices = window["slices"]
    end_to_end = _gated(slices, setup_times, window["rss_mb"][0],
                        lambda kernel: REFERENCE_SECONDS / kernel)
    # The gated end-to-end metrics first, the same without the kernel
    # scaling, then the ones only some workloads have (whole-window figures,
    # unscaled and ungated).
    units = metric_units("end_to_end")
    report = {name: (value, units[name]) for name, value in end_to_end.items()}
    unscaled = _gated(slices, setup_times, window["rss_mb"][0], lambda kernel: 1.0)
    for name in ("setup_s", "decide_p50_us", "decisions_per_s", "server_cpu_us_per_op"):
        report[f"{name}.unscaled"] = (unscaled[name], units[name])
    kernels = [piece["kernel"] for piece in slices] or [kernel for _, _, kernel in setup_times]
    report["reference_kernel_ms"] = (statistics.median(kernels) * 1e3, "ms")
    report["stolen_pct"] = (sum(piece["stolen"] for piece in slices)
                            / max(sum(piece["duration"] for piece in slices), 1e-9) * 100, "%")
    for kind, name, unit, scale in (("decide", "decide", "us", 1e6), ("enforce", "enforce", "us", 1e6),
                                    ("batch", "batch", "ms", 1e3), ("ingest", "ingest_ack", "ms", 1e3)):
        if lat.get(kind):
            if kind != "decide":
                report[f"{name}_p50_{unit}"] = (percentile(lat[kind], 0.50) * scale, unit)
            report[f"{name}_p90_{unit}"] = (percentile(lat[kind], 0.90) * scale, unit)
            report[f"{name}_p99_{unit}"] = (percentile(lat[kind], 0.99) * scale, unit)
    report["server_rss_end_mb"] = (window["rss_mb"][1], "MB")
    if recorder.events:
        report["events_per_s"] = (recorder.events / sum(lat["ingest"]), "1/s")
        report["server_cpu_us_per_event"] = (window["server_cpu"] / recorder.events * 1e6, "us")
    else:
        report["server_cpu_us_per_decision"] = (window["server_cpu"] / max(ops, 1) * 1e6, "us")
    report["client_cpu_us_per_op"] = (window["client_cpu"] / max(ops, 1) * 1e6, "us")
    report["error_rate"] = (failed / max(ops, 1), "ratio")
    return {
        "workload": workload,
        "window_s": window["elapsed"],
        "window_cut": window["cut"],
        "slices": len(slices),
        "samples": {kind: len(values) for kind, values in lat.items()},
        "setup_times_s": [elapsed for elapsed, _, _ in setup_times],
        "report": report,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "attempted": ops,
        "failed": failed,
        "mismatched": mismatched,
        "provenance": stamp,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gate_hot", "audit_cold", "tracker_mixed", "fabric_gate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SOURCE}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    # A terminated run still unwinds, so its servers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    stamp = result["provenance"]
    print(f"# {result['workload']}  seed={stamp['seed']}  revision={stamp['revision']}  "
          f"nproc={stamp['nproc']}  cpu={stamp['cpu_model']!r}  python={stamp['python']}")
    print(f"# platform={stamp['platform']}  load before={stamp['load_before']} "
          f"after={stamp['load_after']}  window={result['window_s']:.2f}s  "
          f"slices={result['slices']}  samples={result['samples']}")
    print("# set-ups: " + ", ".join(f"{value:.3f}" for value in result["setup_times_s"]) + " s")
    if result["window_cut"]:
        print("# window cut short: the pre-generated live stream was used up")
    if args.trace:
        print("# traced run: half the window carries tctx, so these figures are not gated")
    for name, (value, unit) in result["report"].items():
        print(f"{name:<32} {value:>14.4f} {unit}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        from layers import print_layers

        print_layers(result["per_layer"], units)
        values = result["per_layer"]["metrics"]
    else:
        values = result["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
