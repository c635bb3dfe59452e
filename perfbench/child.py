"""One workload run in a fresh interpreter, so autfb's module caches start cold.

Reads its inputs as one JSON object on stdin.  Set-up ends once autfb is
imported and the inputs are read; nothing before that calls into autfb.
The work runs every command through autfb.cli.main in-process with stdout
captured, then the cochain rounds through the autfb.cocycle API.  The
facts the parent gates on (exit codes, stdout digests, parsed counts,
cochain values) are gathered after the clock stops, and printed as one
JSON line.  Layer wrappers are installed only when "trace" is set, and
the speed probe (speedprobe.py) runs only when "probe" is set.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import Counter

import speedprobe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_command(main, args):
    """Exit code and stdout text of one CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=list(args), prog_name="autfb")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crashing command is a failed check, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def run_cochain(spec):
    """The coboundary law of zeta_r on seeded kernel elements; each value should be 0."""
    from autfb import automorphism as au
    from autfb import cocycle as co
    from autfb.freegroup import Signature

    sig = Signature(*spec["sig"])
    ctx = co.PairingContext(sig, y=spec["y"], a=spec["a"], b=spec["b"])
    values = []
    for texts in spec["rounds"]:
        row = []
        try:
            g0, g1, g2, g3 = (au.spelling_aut(sig, au.parse_spelling(sig, t)) for t in texts)
            for r in spec["r"]:
                row.append(
                    co.zeta_eval(ctx, r, g1, g2, g3)
                    - co.zeta_eval(ctx, r, g0, g2, g3)
                    + co.zeta_eval(ctx, r, g0, g1, g3)
                    - co.zeta_eval(ctx, r, g0, g1, g2)
                )
        except Exception as exc:  # a failed round is failed checks, not a crashed run
            row += [f"{type(exc).__name__}: {exc}"] * (len(spec["r"]) - len(row))
        values.extend(row)
    return values


def command_facts(args, code, out):
    """What the gate needs from one command's run, parsed from its stdout."""
    data = out.encode("utf-8")
    facts = {"key": " ".join(args), "code": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    lines = out.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if args[0] == "verify":
        rows = [ln.split("\t") for ln in body]
        facts["status"] = dict(Counter(r[-1] for r in rows))
        facts["families"] = dict(Counter(r[0] for r in rows))
    elif args[0] == "rank":
        from autfb.abelianization import closed_form_rank
        from autfb.freegroup import Signature

        n, k, l = (int(args[i]) for i in (2, 4, 6))
        fields = body[0].split("\t") if body else []
        facts["rank"] = fields[1:]
        facts["closed_form"] = closed_form_rank(Signature(n, k, l))
    elif args[0] == "expand":
        facts["relators"] = len(body)
    elif args[0] == "pairing":
        facts["cells"] = sum(len(ln.split("\t")) for ln in body)
    return facts


def main():
    inputs = json.load(sys.stdin)
    import autfb
    import autfb.cli

    home = os.path.join(ROOT, "src", "autfb")
    if os.path.dirname(os.path.abspath(autfb.__file__)) != home:
        sys.exit(f"autfb was imported from {autfb.__file__}, not from {home}")
    ready = time.monotonic()
    if inputs["mode"] == "setup":
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    invoke = run_command
    if inputs["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        invoke = tracer.wrap("cli.main", run_command)

    probe = speedprobe.SpeedProbe() if inputs["probe"] else contextlib.nullcontext()
    t0 = time.perf_counter()
    with probe:
        outputs = [invoke(autfb.cli.main, args) for args in inputs["commands"]]
        cochain = run_cochain(inputs["cochain"]) if inputs["cochain"] else []
    verdict_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = tracer.metrics(sum(len(out.encode("utf-8")) for _, out in outputs))
    result = {
        "ready": ready,
        "verdict_s": verdict_s,
        "stretches": probe.stretches if inputs["probe"] else None,
        "rss_mb": rss_mb,
        "commands": [command_facts(args, code, out) for args, (code, out) in zip(inputs["commands"], outputs)],
        "cochain": cochain,
        "python": sys.version.split()[0],
        "layers": layers,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
