"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The in-process tests use the small input sizes (``workloads.SMALL``); the
command-line tests run one short pass of the real workloads.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def traced_pass(name: str, seed: int, workdir: str):
    """Input digest, output digest, counters and misses of one traced pass."""
    tm = run.import_library()
    wl = workloads.build(name, seed, tm, workdir, workloads.SMALL)
    prepared = [c.prepare(c.spec) for c in wl.cases]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start_pass()
        p = run.run_pass(wl, prepared, tracer, None)
        layers = tracer.finish_pass()
    finally:
        tracer.uninstall()
    counters = {k: v for k, v in layers.items() if run.layer_unit(k) != "s"}
    outputs = workloads.digest(sorted(f"{c.key}\t{t}" for c, t in zip(wl.cases, p.texts)))
    return wl.input_digest(), outputs, counters, p.misses


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_repeats_counters_and_digests(name, tmp_path):
    first = traced_pass(name, 3, str(tmp_path))
    second = traced_pass(name, 3, str(tmp_path))
    assert first[3] == [] and second[3] == []
    assert first[:3] == second[:3]
    assert first[2]["mld.mld.calls"] > 0
    assert first[2]["lattice.reps_scaled.cosets"] == first[2]["mld.group_order_total"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_changes_inputs(name, tmp_path):
    tm = run.import_library()
    a = workloads.build(name, 3, tm, str(tmp_path), workloads.SMALL)
    b = workloads.build(name, 4, tm, str(tmp_path), workloads.SMALL)
    assert a.input_digest() != b.input_digest()


def test_install_rebinds_every_importer_and_uninstall_restores():
    tm = run.import_library()
    modules = {name: sys.modules[f"toricmld.{name}"] for name in ("exactmath", "lattice", "mld", "cli")}

    def bindings():
        return (tm.mld, modules["mld"].mld, modules["cli"].mld, modules["exactmath"].hnf,
                modules["lattice"].hnf, tm.Lattice.__dict__["from_generators"],
                tm.QuotientGroup.__dict__["reps_scaled"])

    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bindings()
        assert all(x is not y for x, y in zip(before, during))
        assert during[0] is during[1] is during[2]
        assert during[3] is during[4]
    finally:
        tracer.uninstall()
    assert all(x is y for x, y in zip(before, bindings()))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_wrong_output_is_a_miss(name, tmp_path):
    tm = run.import_library()
    wl = workloads.build(name, 3, tm, str(tmp_path), workloads.SMALL)
    case = wl.cases[0]
    obj = case.prepare(case.spec)
    out = case.run(obj)
    case.check(case.spec, obj, out)
    if name == "family":
        code_s, summary, code_w, witness = out
        wrong = (code_s, summary, code_w, witness.replace("pair = (i=0, j=1)", "pair = (i=0, j=2)"))
    elif name == "witness_deep":
        wrong = dataclasses.replace(out, pair=(0, out.pair[1] + 1))
    elif isinstance(out, tuple) and len(out) == 2:  # affine: scan and oracle
        wrong = (out[0], dataclasses.replace(out[1], cone_index=out[1].cone_index + 1))
    elif isinstance(out, tuple):  # fibration
        mfs, report, cert, wit = out
        wrong = (mfs, report, dataclasses.replace(cert, holds=False), wit)
    else:  # cyclic quotient value
        wrong = out / 2
    with pytest.raises(workloads.Miss):
        case.check(case.spec, obj, wrong)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "family", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "family", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
