"""Collect benchmark runs over several seeds, and compare two collections.

    python3 perfbench/compare.py collect --workload family --seeds dev --out A.json
    python3 perfbench/compare.py collect --workload family --seeds 1,held_out --trace 1 --out T.json
    python3 perfbench/compare.py diff A.json B.json

``collect`` runs ``perfbench/run.py`` once per seed, one process at a time,
for ``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given, and
writes every run's full record (environment, digests, metrics) to ``--out``.
It prints each metric's median, quartiles and spread, the distance between
the quartiles as a share of the median, beside the metric's bound.

``diff`` compares two collections of the same workload metric by metric:
the change of the median, and whether it is worse than the bound.  Where
the base's own spread is wider than the bound the comparison is reported as
unresolved.  For seeds present in both it also requires identical input and
output digests, and in traced collections identical counters.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTER_SUFFIXES = (".calls", ".cosets", "_total", "cosets_per_order")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str, workload: str) -> list[int]:
    """Comma-separated seeds and ranges ('1-10,12'); 'dev' and 'held_out'
    stand for the workload's entries in seeds.json."""
    named = json.loads((HERE / "seeds.json").read_text(encoding="utf-8"))[workload]
    seeds = []
    for part in text.split(","):
        if part in ("dev", "held_out"):
            part = named[part]
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_table(runs: list[dict]) -> dict[str, list[float]]:
    names = runs[0]["result"]["metrics"]
    return {name: [r["result"]["metrics"][name]["value"] for r in runs] for name in names}


def bounds(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def collect(args) -> int:
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for seed in parse_seeds(args.seeds, args.workload):
            out = Path(tmp) / f"{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0 or not out.exists():
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            record = json.loads(out.read_text(encoding="utf-8"))
            runs.append(record)
            values = record["result"]["metrics"]
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in list(values.items())[:6])
            print(f"seed {seed}: {shown}", flush=True)
    Path(args.out).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                          "seconds": seconds, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    summarize(runs, bounds(spec))
    return 0


def summarize(runs: list[dict], known: dict[str, dict]) -> None:
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in metric_table(runs).items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = known.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  over bound" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {shown:>6}{flag}")


def diff(args) -> int:
    known = bounds(load_spec())
    base = json.loads(Path(args.base).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    if base["workload"] != new["workload"] or base["trace"] != new["trace"]:
        print("the two collections are of different workloads or trace modes", file=sys.stderr)
        return 2
    print(f"workload {base['workload']}: {len(base['runs'])} base runs, {len(new['runs'])} new runs")
    status = 0
    base_values, new_values = metric_table(base["runs"]), metric_table(new["runs"])
    print(f"{'metric':<34} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for name, values in base_values.items():
        if name not in new_values:
            print(f"{name:<34} missing from the new collection")
            status = 1
            continue
        b1, bmed, b3 = quartiles(values)
        _, nmed, _ = quartiles(new_values[name])
        change = nmed / bmed - 1 if bmed else 0.0
        meta = known.get(name, {})
        verdict = ""
        if "bound" in meta:
            worse = change if meta["better"] == "lower" else -change
            if bmed and (b3 - b1) / bmed > meta["bound"]:
                verdict = "unresolved (base spread over bound)"
            elif worse > meta["bound"]:
                verdict = "WORSE than bound"
                status = 1
            else:
                verdict = "within bound"
        print(f"{name:<34} {bmed:>12.6g} {nmed:>12.6g} {change:>+8.3f}  {verdict}")
    base_by_seed = {r["seed"]: r for r in base["runs"]}
    for run in new["runs"]:
        old = base_by_seed.get(run["seed"])
        if old is None:
            continue
        for key in ("input_digest", "output_digest"):
            if old[key] != run[key]:
                print(f"seed {run['seed']}: {key} differs ({old[key]} vs {run[key]})")
                status = 1
        if base["trace"]:
            for name, value in old["result"]["metrics"].items():
                if name.endswith(COUNTER_SUFFIXES):
                    other = run["result"]["metrics"].get(name, {}).get("value")
                    if other != value["value"]:
                        print(f"seed {run['seed']}: counter {name} {value['value']} -> {other}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run one workload over several seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10, 1,5,9, dev or held_out")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=collect)
    p = sub.add_parser("diff", help="compare two collections of one workload")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
