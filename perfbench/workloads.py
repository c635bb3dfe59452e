"""The benchmark's workloads, their seeded inputs and their frozen counts.

Inputs are plain data: CLI argument lists and automorphism spellings as
text.  Nothing here imports autfb, so generating inputs never calls into
the package under test.
"""

from __future__ import annotations

import random

FAMILIES = (
    "nielsen",
    "jensen-wahl",
    "rk",
    "c-lemma",
    "action-table",
    "table5",
    "inverse-property",
)

# verify-grid: many short checks built from elementary composes, spread
# over signatures from pure-x (no boundary) to three y's.  (3,3,3) alone
# would take half the time, leaving room for only three children in a run.
GRID = ((2, 0, 0), (3, 0, 0), (4, 0, 0), (1, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2))
GRID_QUICK = ((2, 0, 0), (1, 1, 2))

# expand: symbol rewriting through S_Q words, then evaluation of every relator.
EXPAND = (((1, 1, 1), 3), ((2, 2, 2), 1))
EXPAND_QUICK = (((1, 1, 1), 2),)

# cocycle: the pairing table and the coboundary law of zeta_r at (1,1,1),
# with y = y1, a = x1, b = z1 as letter codes.
COCYCLE_SIG = (1, 1, 1)
COCYCLE_Y, COCYCLE_A, COCYCLE_B = 2, 1, 3
PAIRING_SIZE, PAIRING_SIZE_QUICK = 24, 4
ROUNDS, ROUNDS_QUICK = 240, 5
ZETA_R = (1, 2, 3)
MAX_SPELLING = 6
# The S_K alphabet at (1,1,1), written out so that drawing random kernel
# elements needs no call into autfb; a test checks it against s_k_symbols.
S_K_111 = ("M[x1^+1,y1]", "M[x1^-1,y1]", "C[z1,y1]", "C[y1,x1]", "C[y1,z1]")

WORKLOADS = ("verify-grid", "expand", "cocycle")

# Counts pinned by the acceptance tests, keyed by command.
FROZEN_PASSES = {
    "verify nielsen --n 2 --k 0 --l 0": 27,
    "verify nielsen --n 3 --k 0 --l 0": 183,
    "verify nielsen --n 4 --k 0 --l 0": 700,
    "verify jensen-wahl --n 2 --k 2 --l 2": 547,
    "verify jensen-wahl --n 1 --k 1 --l 2": 82,
    "verify jensen-wahl --n 3 --k 1 --l 1": 591,
}
FROZEN_FAMILIES = {
    "verify table5 --n 2 --k 2 --l 2": {
        "table5.row1": 8,
        "table5.row2": 16,
        "table5.row3": 8,
        "table5.row4": 8,
        "table5.row5": 16,
        "table5.row6": 8,
        "table5.row7": 48,
        "table5.row8": 16,
    },
}
FROZEN_RELATORS = {
    "expand --n 1 --k 1 --l 1 --depth 2": 182,
    "expand --n 2 --k 2 --l 2 --depth 1": 5040,
}


def sig_args(sig):
    n, k, l = sig
    return ["--n", str(n), "--k", str(k), "--l", str(l)]


def command_key(args):
    return " ".join(args)


def grid_commands(quick):
    out = []
    for sig in GRID_QUICK if quick else GRID:
        out.extend(["verify", fam, *sig_args(sig)] for fam in FAMILIES)
        if sig[1] >= 1:
            out.append(["rank", *sig_args(sig)])
    return out


def expand_commands(quick):
    return [
        ["expand", *sig_args(sig), "--depth", str(depth)]
        for sig, depth in (EXPAND_QUICK if quick else EXPAND)
    ]


def pairing_command(quick):
    size = str(PAIRING_SIZE_QUICK if quick else PAIRING_SIZE)
    return ["pairing", *sig_args(COCYCLE_SIG), "--rmax", size, "--mmax", size]


def all_commands():
    """Every command any workload runs, at both sizes; the digest table's keys."""
    out = []
    for quick in (False, True):
        out += grid_commands(quick) + expand_commands(quick) + [pairing_command(quick)]
    return out


def random_spelling(rng, length):
    letters = []
    for _ in range(length):
        name = rng.choice(S_K_111)
        letters.append(name + "^-1" if rng.randrange(2) else name)
    return " ".join(letters)


def make_inputs(workload, seed, quick=False):
    """The plain-data inputs of one workload run; equal seeds give equal inputs.

    Command order is shuffled by the seed; the cochain rounds draw their
    kernel elements from it, with a fixed census of spelling lengths.
    """
    rng = random.Random(f"{workload}:{seed}")
    cochain = None
    if workload == "verify-grid":
        commands = grid_commands(quick)
    elif workload == "expand":
        commands = expand_commands(quick)
    elif workload == "cocycle":
        commands = [pairing_command(quick)]
        rounds = ROUNDS_QUICK if quick else ROUNDS
        # Every length from 1 to MAX_SPELLING equally often, in seeded
        # order, so that the amount of work varies little with the seed.
        lengths = [1 + i % MAX_SPELLING for i in range(4 * rounds)]
        rng.shuffle(lengths)
        cochain = {
            "sig": list(COCYCLE_SIG),
            "y": COCYCLE_Y,
            "a": COCYCLE_A,
            "b": COCYCLE_B,
            "r": list(ZETA_R),
            "rounds": [[random_spelling(rng, n) for n in lengths[4 * i : 4 * i + 4]] for i in range(rounds)],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(commands)
    return {"workload": workload, "commands": commands, "cochain": cochain}
