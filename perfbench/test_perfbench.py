"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They run every workload once at its smallest size through the gate, check
that two traced runs of the same code give identical counts, and check the
gate and the seeded inputs themselves.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import layertrace
import run
import speedprobe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], capture_output=True, text=True, timeout=170
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_passes_the_gate(workload):
    code, result = bench("--workload", workload, "--seed", "5", "--quick")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name for name, _ in run.END_TO_END} == set(result["metrics"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    counts = []
    for _ in range(2):
        code, result = bench("--workload", workload, "--seed", "5", "--quick", "--trace", "1")
        assert code == 0
        assert {name for name, _ in layertrace.METRICS} == set(result["metrics"])
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]


def test_alphabet_matches_s_k_symbols():
    from autfb import Signature, format_name, s_k_symbols

    sig = Signature(*workloads.COCYCLE_SIG)
    assert workloads.S_K_111 == tuple(format_name(sig, s) for s in s_k_symbols(sig))


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    assert workloads.make_inputs("cocycle", 7) != workloads.make_inputs("cocycle", 8)


def test_cocycle_spelling_lengths_do_not_follow_the_seed():
    def lengths(seed):
        rounds = workloads.make_inputs("cocycle", seed)["cochain"]["rounds"]
        return sorted(len(text.split()) for texts in rounds for text in texts)

    assert lengths(7) == lengths(8)
    assert set(lengths(7)) == set(range(1, workloads.MAX_SPELLING + 1))


def test_scaled_time_divides_out_the_reference_speed():
    nominal = speedprobe.REF_NOMINAL_S
    assert speedprobe.scaled([(1.0, nominal)]) == pytest.approx(1.0)
    assert speedprobe.scaled([(1.0, nominal), (0.5, 2 * nominal)]) == pytest.approx(1.25)


def test_speed_probe_samples_the_work_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with speedprobe.SpeedProbe(interval=0.01) as probe:
        while time.perf_counter() - start < 0.2:
            pass
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.stretches) >= 3
    assert all(work >= 0 and ref > 0 for work, ref in probe.stretches)
    assert sum(work for work, _ in probe.stretches) < elapsed


def test_digest_table_covers_every_command():
    assert set(run.load_digests()) == {workloads.command_key(a) for a in workloads.all_commands()}


def _facts(key, **extra):
    digests = run.load_digests()
    return {"key": key, "code": 0, "sha256": digests[key], "bytes": 1, **extra}


def test_gate_counts_every_kind_of_miss():
    digests = run.load_digests()
    nielsen = "verify nielsen --n 2 --k 0 --l 0"
    good = {"commands": [_facts(nielsen, status={"PASS": 27, "SKIP": 1}, families={"N1": 27})], "cochain": [0, 0]}
    assert run.gate(good, digests)[:2] == (29, 0)
    misses = [
        {"code": 1},
        {"sha256": "0" * 64},
        {"status": {"PASS": 26, "FAIL": 1}},
        {"status": {"PASS": 26}},
    ]
    for miss in misses:
        bad = {"commands": [{**good["commands"][0], **miss}], "cochain": []}
        attempted, failed, problems = run.gate(bad, digests)
        assert failed == attempted and problems, miss
    assert run.gate({"commands": [], "cochain": [0, 3, "ValueError: x"]}, digests)[:2] == (3, 2)
    expand = _facts("expand --n 2 --k 2 --l 2 --depth 1", relators=5039)
    assert run.gate({"commands": [expand], "cochain": []}, digests)[1] == 5039
    rank = _facts("rank --n 1 --k 1 --l 2", rank=["6", "7", "FAIL"], closed_form=6)
    assert run.gate({"commands": [rank], "cochain": []}, digests)[1] == 1


def test_gate_checks_the_table5_census():
    digests = run.load_digests()
    key = "verify table5 --n 2 --k 2 --l 2"
    census = dict(workloads.FROZEN_FAMILIES[key])
    ok = _facts(key, status={"PASS": 128}, families=census)
    assert run.gate({"commands": [ok], "cochain": []}, digests)[1] == 0
    census["table5.row7"] -= 1
    bad = _facts(key, status={"PASS": 127}, families=census)
    assert run.gate({"commands": [bad], "cochain": []}, digests)[1] == 127


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
