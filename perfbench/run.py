"""The autfb benchmark: one command, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py [--workload verify-grid|expand|cocycle|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--quick]

Every workload run is a fresh child interpreter (child.py), started one at
a time, that receives only the inputs generated here from the seed.  With
--trace 0 the children run untraced for --seconds (at least MIN_RUNS of
them), each after SETUP_PROBES set-up-only children, and the medians are
reported.  With --trace 1 untraced and traced children alternate, and
the traced ones give the per-layer metrics.  --quick runs each workload once
at its smallest size.

The end-to-end times are in reference seconds: wall time scaled by the
machine's speed, sampled while the time runs (speedprobe.py), so that the
drift of a shared host's speed does not read as a change in autfb.  The
wall times are printed beside them.

Every child's output is gated: exit codes, stdout digests recorded at a
known-good commit, the frozen counts, closed-form ranks and zero cochain
values.  Human-readable lines come first; the last stdout line is one JSON
object.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layertrace
import speedprobe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 3
SETUP_PROBES = 1
REFERENCE_PROBES = 3
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("checks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """A child could not be run or its output could not be read."""


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_speed():
    """Median time of REFERENCE_PROBES reference runs in this process."""
    return statistics.median(speedprobe.time_reference() for _ in range(REFERENCE_PROBES))


def spawn(workload, seed, quick, mode, trace=False, probe=False):
    """Run one child; set-up time runs from input generation to the child being ready.

    The reference is timed just before and just after, and set-up is scaled
    by it to reference seconds as the child's work is (see speedprobe).
    """
    ref_before = reference_speed()
    start = time.monotonic()
    inputs = workloads.make_inputs(workload, seed, quick)
    payload = json.dumps({**inputs, "mode": mode, "trace": trace, "probe": probe})
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    try:
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=payload,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    ref = (ref_before + reference_speed()) / 2
    result["setup_wall_s"] = result["ready"] - start
    result["setup_s"] = result["setup_wall_s"] * speedprobe.REF_NOMINAL_S / ref
    return result


def command_checks(facts):
    """Number of checks a command decided, read from its output; at least 1."""
    if "status" in facts:
        n = facts["status"].get("PASS", 0) + facts["status"].get("FAIL", 0)
    else:
        n = facts.get("relators", facts.get("cells", 1))
    return max(n, 1)


def command_problems(facts, digests):
    key = facts["key"]
    problems = []
    if facts["code"] != 0:
        problems.append(f"exit {facts['code']}")
    if digests.get(key) != facts["sha256"]:
        problems.append("stdout digest mismatch")
    status = facts.get("status", {})
    if status.get("FAIL"):
        problems.append(f"{status['FAIL']} FAIL lines")
    if key in workloads.FROZEN_PASSES and status.get("PASS") != workloads.FROZEN_PASSES[key]:
        problems.append(f"PASS count {status.get('PASS')} != {workloads.FROZEN_PASSES[key]}")
    if key in workloads.FROZEN_FAMILIES:
        want = workloads.FROZEN_FAMILIES[key]
        if {f: c for f, c in facts["families"].items() if f in want} != want:
            problems.append("row census differs")
    if key in workloads.FROZEN_RELATORS and facts["relators"] != workloads.FROZEN_RELATORS[key]:
        problems.append(f"{facts['relators']} relators != {workloads.FROZEN_RELATORS[key]}")
    if "rank" in facts:
        want = str(facts["closed_form"])
        if facts["rank"] != [want, want, "PASS"]:
            problems.append(f"rank line {facts['rank']} != closed form {want}")
    return [f"{key}: {p}" for p in problems]


def gate(result, digests):
    """(checks attempted, checks failed, problem lines) for one child's result."""
    attempted = failed = 0
    problems = []
    for facts in result["commands"]:
        n = command_checks(facts)
        bad = command_problems(facts, digests)
        attempted += n
        if bad:
            failed += n
            problems += bad
    for i, value in enumerate(result["cochain"]):
        attempted += 1
        if value != 0:
            failed += 1
            problems.append(f"cochain identity {i}: {value}")
    return attempted, failed, problems


def provenance(seed, workload, python):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "workload": workload,
        "seed": seed,
        "python": python,
        "cores": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def _room_for(deadline, last):
    """Whether another step as long as the last one still ends before the deadline."""
    return time.monotonic() + last < deadline


def timed(workload, seed, seconds, quick):
    """Untraced children; end-to-end metrics as medians over children.

    Set-up-only probes go before every working child, so that set-up is
    sampled across the whole run, as the work is.  No child is started that
    would end after the deadline, once MIN_RUNS have run.
    """
    deadline = time.monotonic() + seconds
    setups, runs = [], []
    last = 0.0
    while not runs or (not quick and (len(runs) < MIN_RUNS or _room_for(deadline, last))):
        t = time.monotonic()
        setups += [spawn(workload, seed, quick, "setup") for _ in range(SETUP_PROBES)]
        runs.append(spawn(workload, seed, quick, "run", probe=True))
        last = time.monotonic() - t
    return runs, setups + runs


def traced(workload, seed, seconds, quick):
    """Untraced/traced child pairs; per-layer metrics from the traced ones."""
    deadline = time.monotonic() + seconds
    pairs = []
    last = 0.0
    while not pairs or (not quick and _room_for(deadline, last)):
        t = time.monotonic()
        pairs.append((spawn(workload, seed, quick, "run"), spawn(workload, seed, quick, "run", trace=True)))
        last = time.monotonic() - t
    return [r for pair in pairs for r in pair], pairs


def measure(workload, seed, seconds, trace, quick, digests):
    """Run one workload; print its lines and return (attempted, failed, metrics)."""
    if trace:
        runs, pairs = traced(workload, seed, seconds, quick)
    else:
        runs, setups = timed(workload, seed, seconds, quick)
    gated = [gate(r, digests) for r in runs]
    attempted = sum(a for a, _, _ in gated)
    failed = sum(f for _, f, _ in gated)
    problems = [p for _, _, ps in gated for p in ps]
    print("# provenance " + json.dumps(provenance(seed, workload, runs[0]["python"])))
    for line in sorted(set(problems)):
        print(f"# FAILED {workload}: {line}")

    metrics = {}
    if trace:
        layers = [t["layers"] for _, t in pairs]
        units = dict(layertrace.METRICS)
        for name, unit in layertrace.METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(t["verdict_s"] - u["verdict_s"] for u, t in pairs)
            elif unit == "s":
                value = statistics.median(layer[name] for layer in layers)
            else:
                value = layers[0][name]
                if any(layer[name] != value for layer in layers):
                    failed += 1
                    print(f"# FAILED {workload}: traced count {name} differs between runs")
            metrics[name] = {"value": value, "unit": units[name]}
        note = f"traced runs {len(pairs)}"
    else:
        samples = {"setup_s": [r["setup_s"] for r in setups]}
        samples["verdict_s"] = [speedprobe.scaled(r["stretches"]) for r in runs]
        samples["checks_per_s"] = [a / v for v, (a, _, _) in zip(samples["verdict_s"], gated)]
        samples["peak_rss_mb"] = [r["rss_mb"] for r in runs]
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        samples["verdict_wall_s"] = [r["verdict_s"] for r in runs]
        samples["setup_wall_s"] = [r["setup_wall_s"] for r in setups]
        print("# samples " + json.dumps({k: [round(v, 4) for v in vs] for k, vs in samples.items()}))
        note = f"medians of {len(runs)} runs and {len(samples['setup_s'])} set-ups"
    for name, m in metrics.items():
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{workload}\tfailed_share\t{failed / attempted:.6g}\tratio\t({failed} of {attempted} checks; {note})")
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="each workload once at its smallest size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "autfb", "__init__.py")):
        print(f"no autfb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    digests = load_digests()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = measure(name, args.seed, args.seconds, args.trace, args.quick, digests)
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
