"""Run one workload of the toricmld benchmark and print its metrics.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy.  One process, no threads.

Set-up (importing toricmld, drawing the inputs from the seed, building what
the workload does not time) runs ``SETUP_REPS`` times and ``setup_s`` is the
median.  Then whole passes over the workload's cases repeat until the next
pass would end after ``--seconds``.  Every pass prepares fresh library
objects, times each case's call alone, and checks every output outside the
timing; an output that differs from the first pass's is a miss too.

The machine's speed drifts by tens of percent over minutes, so every pass
also times a fixed calibration kernel between cases, and every time is
scaled by the reference kernel time over the pass's median kernel time.  A
case's time is the median of its scaled times over the passes.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
passes alternate between untraced and traced (wrappers from ``spans.py``);
the metrics are the per-layer medians over the traced passes, the traced
``solve_s`` and the tracing overhead, traced over untraced ``solve_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output missed its check, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
CALIBRATION_INTERVAL_S = 0.05
# Median time of calibration_kernel() on the machine the benchmark was tuned
# on (Intel Xeon, 2 vCPUs, Python 3.11.7): scaled times read as seconds at
# that machine's speed.
CALIBRATION_REFERENCE_S = 0.00246


@functools.cache
def _calibration_pool() -> list:
    return [(Fraction(k % 97 + 1, k % 89 + 2), k * 7919 % 100003) for k in range(40_000)]


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind toricmld does: small Fractions,
    integer arithmetic, tuples and a dict, with strided reads over a pool of
    a few megabytes so that it feels cache pressure as the workloads do.  It
    uses nothing from the library."""
    pool = _calibration_pool()
    total, j = 0, 0
    table: dict = {}
    for k in range(1, 500):
        j = (j + 7919) % len(pool)
        f, x = pool[j]
        g = f + Fraction(k % 5 + 2, 3 * k + 1)
        total += g.numerator % 101 + x % 7
        key = (x % 1013, k % 19)
        table[key] = table.get(key, 0) + 1
    return total + len(table)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def import_library():
    """Import toricmld and its CLI afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "toricmld" or n.startswith("toricmld.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tm = importlib.import_module("toricmld")
    importlib.import_module("toricmld.cli")
    if not Path(tm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"toricmld imported from {tm.__file__}, not from {SRC}")
    return tm


@dataclass
class Pass:
    traced: bool
    times: list[float]  # measured seconds per case
    scaled: list[float]  # seconds at the reference speed per case
    texts: list[str]
    misses: list[str]
    speed: float  # CALIBRATION_REFERENCE_S over the pass's median calibration time
    layers: dict = field(default_factory=dict)


def run_pass(wl: workloads.Workload, prepared: list, tracer, reference) -> Pass:
    """Time every case, then check every output.

    A case with ``repeat`` > 1 is too short for the pass's speed: its calls
    see the machine's faster swings.  It runs that many times on freshly
    prepared objects, each run right after a calibration kernel run, and its
    scaled time is the median ratio of the two times, times the reference
    kernel time.  Its first output is checked.
    """
    gc.collect()
    clock = time.perf_counter
    times, local, results = [], [], []
    calibrations = [calibrate()]
    last = clock()
    for case, obj in zip(wl.cases, prepared):
        if clock() - last >= CALIBRATION_INTERVAL_S:
            calibrations.append(calibrate())
            last = clock()
        runs, ratios = [], []
        for i in range(case.repeat):
            target = obj if i == 0 else case.prepare(case.spec)
            kernel = calibrate() if case.repeat > 1 else None
            if tracer is not None:
                tracer.instance = case.key
                tracer.enabled = True
            t0 = clock()
            try:
                result, error = case.run(target), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            runs.append(clock() - t0)
            if tracer is not None:
                tracer.enabled = False
            if i == 0:
                results.append((result, error))
            if kernel is not None:
                ratios.append(runs[-1] / kernel)
        times.append(statistics.median(runs))
        local.append(CALIBRATION_REFERENCE_S * statistics.median(ratios) if ratios else None)
    calibrations.append(calibrate())
    speed = CALIBRATION_REFERENCE_S / statistics.median(calibrations)
    scaled = [t * speed if own is None else own for t, own in zip(times, local)]
    texts, misses = [], []
    for case, obj, (result, error) in zip(wl.cases, prepared, results):
        try:
            if error is not None:
                raise workloads.Miss(f"raised {type(error).__name__}: {error}")
            text = case.check(case.spec, obj, result)
            if reference is not None and reference[case.key] != text:
                raise workloads.Miss("output differs from the first pass")
        except Exception as exc:  # includes Miss; a crashing check is a miss too
            misses.append(f"{case.key}: {exc}")
            text = f"MISS {exc}"
        texts.append(text)
    return Pass(tracer is not None, times, scaled, texts, misses, speed)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and that
    percentile; the maximum when there are too few samples."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    i = len(s) - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / len(s)


def end_to_end(wl, passes, setup_times) -> tuple[dict, list[str]]:
    largest = wl.cases.index(wl.largest())
    per_case = [statistics.median(p.scaled[i] for p in passes) for i in range(len(wl.cases))]
    tail_value, tail_pct = tail(per_case)
    values = {
        "setup_s": statistics.median(setup_times),
        "solve_s": sum(per_case),
        "instance_p50_ms": 1000 * statistics.median(per_case),
        "instance_tail_ms": 1000 * tail_value,
        "largest_instance_s": per_case[largest],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"setup_s": "s", "solve_s": "s", "instance_p50_ms": "ms", "instance_tail_ms": "ms",
             "largest_instance_s": "s", "peak_rss_mb": "MB"}
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "solve_s": f"sum over {len(per_case)} cases of each one's median of {len(passes)} passes",
        "instance_p50_ms": f"median case, n={len(per_case)}",
        "instance_tail_ms": f"p{tail_pct:.1f}, n={len(per_case)}",
        "largest_instance_s": wl.largest().key,
        "peak_rss_mb": "ru_maxrss",
    }
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    lines = [f"{k} = {v:.6g} {units[k]}  ({notes[k]})" for k, v in values.items()]
    return metrics, lines


def per_layer(traced, untraced) -> tuple[dict, list[str]]:
    values = spans.median_metrics([
        {k: v * p.speed if layer_unit(k) == "s" else v for k, v in p.layers.items()} for p in traced
    ])
    traced_solve = statistics.median(sum(p.scaled) for p in traced)
    untraced_solve = statistics.median(sum(p.scaled) for p in untraced)
    values["trace.solve_s"] = traced_solve
    values["trace.overhead"] = traced_solve / untraced_solve
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    lines = [f"{k} = {v:.6g} {layer_unit(k)}" for k, v in values.items()]
    lines.append(f"tracing overhead = {traced_solve:.4f} s traced / {untraced_solve:.4f} s untraced "
                 f"= {values['trace.overhead']:.3f} ({len(traced)} traced, {len(untraced)} untraced passes)")
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("cosets_per_order") or name == "trace.overhead":
        return "1"
    return "count"


def set_up(name: str, seed: int, workdir: Path):
    """Import, draw the inputs and prepare the first pass, SETUP_REPS times;
    the last repetition's objects are the ones measured."""
    setup_times = []
    for _ in range(SETUP_REPS):
        before = calibrate()
        t0 = time.perf_counter()
        tm = import_library()
        wl = workloads.build(name, seed, tm, str(workdir))
        prepared = [c.prepare(c.spec) for c in wl.cases]
        elapsed = time.perf_counter() - t0
        setup_times.append(elapsed * CALIBRATION_REFERENCE_S / statistics.median([before, calibrate()]))
    return wl, prepared, setup_times


def measure(wl: workloads.Workload, prepared: list, seconds: float, tracer) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; with a tracer,
    every second pass is traced and there is at least one of each kind."""
    passes: list[Pass] = []
    reference = None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if passes:
            prepared = [c.prepare(c.spec) for c in wl.cases]
        if traced:
            tracer.install()
            tracer.start_pass()
        p = run_pass(wl, prepared, tracer if traced else None, reference)
        if traced:
            p.layers = tracer.finish_pass()
            tracer.uninstall()
        passes.append(p)
        if reference is None:
            reference = {c.key: t for c, t in zip(wl.cases, p.texts)}
        now = time.perf_counter()
        enough = tracer is None or len(passes) >= 2
        if enough and now - start + (now - pass_start) > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (env, passes, digests) as JSON here")
    args = parser.parse_args(argv)

    env = environment()
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']!r}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    workloads.quiet_primitivization_warnings()
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            wl, prepared, setup_times = set_up(args.workload, args.seed, workdir)
        except Exception as exc:  # no library or no inputs: nothing to measure
            print(f"error: set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        tracer = spans.Tracer() if args.trace else None
        passes = measure(wl, prepared, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    misses = [m for p in passes for m in p.misses]
    output_digest = workloads.digest(sorted(f"{c.key}\t{t}" for c, t in zip(wl.cases, passes[0].texts)))
    print(f"workload {args.workload}, seed {args.seed}, {len(wl.cases)} cases, {len(passes)} passes, "
          f"inputs {wl.input_digest()}, outputs {output_digest}")
    untraced = [p for p in passes if not p.traced]
    if tracer is not None:
        metrics, lines = per_layer([p for p in passes if p.traced], untraced)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, lines = end_to_end(wl, untraced, setup_times)
    for line in lines:
        print(line)
    speeds = [p.speed for p in passes]
    print(f"machine speed (reference / measured calibration time): {min(speeds):.3f} to {max(speeds):.3f} "
          f"over {len(passes)} passes; the times above are scaled by it")
    print(f"failed_ratio = {len(misses) / attempted:.6g} 1  ({len(misses)} of {attempted} operations)")
    for miss in misses[:20]:
        print(f"MISS {miss}", file=sys.stderr)

    result = {"correct": not misses, "attempted": attempted, "failed": len(misses), "metrics": metrics}
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": env, "input_digest": wl.input_digest(), "output_digest": output_digest,
            "setup_scaled_s": setup_times, "pass_raw_s": [sum(p.times) for p in passes],
            "pass_speed": speeds, "pass_traced": [p.traced for p in passes], "misses": misses,
            "result": result,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not misses else 1


if __name__ == "__main__":
    sys.exit(main())
