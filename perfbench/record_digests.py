"""Record the sha256 of each benchmark command's stdout into digests.json.

Each command runs as its own `python -m autfb.cli` process, independent of
the in-process capture the benchmark uses, so the gate also checks that the
two give the same bytes.  The table is recorded once, from a commit whose
output is known good, and every benchmark run checks against it:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    digests = {}
    for args in workloads.all_commands():
        proc = subprocess.run(
            [sys.executable, "-m", "autfb.cli", *args], capture_output=True, cwd=ROOT, env=env, timeout=600
        )
        if proc.returncode != 0:
            sys.exit(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr.decode()}")
        digests[workloads.command_key(args)] = hashlib.sha256(proc.stdout).hexdigest()
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")


if __name__ == "__main__":
    main()
