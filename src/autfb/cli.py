"""Command-line front end: verification suites, rank and homomorphism
reports, pairing tables, and relation expansion as reproducible batch
runs.

All machine output is line-oriented TSV with no timestamps, so a rerun
with the same parameters is byte-identical.  Exit status: 0 when every
check passes, 1 when a verification fails, 2 on a usage error.  The
options are parsed by one `argparse` parser, built once at import.
"""

from __future__ import annotations

import argparse
import os
import sys

from .freegroup import Signature
from .automorphism import ClaimFailedError, parse_aut
from . import abelianization as ab
from . import cocycle as co
from . import presentation as pr


class UsageError(Exception):
    """A request the options cannot serve; `main` reports it and exits 2."""


def _signature(n, k, l):
    try:
        return Signature(n, k, l)
    except ValueError as exc:
        raise UsageError(str(exc))


def _gen_code(sig, text, what):
    try:
        code = sig.letter_code(text.strip())
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}")
    if code < 0:
        raise UsageError(f"{what}: expected a generator like x1 or z2, got {text!r}")
    return code


def _aut_from_options(sig, aut_text, word_file, what="--aut"):
    if aut_text is None and word_file is None:
        raise UsageError(f"{what} or --word is required")
    if aut_text is not None and word_file is not None:
        raise UsageError(f"give {what} or --word, not both")
    if word_file is not None:
        try:
            with open(word_file, "r", encoding="utf-8") as fh:
                aut_text = fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"--word: {word_file} is not UTF-8 text ({exc.reason})")
    try:
        return parse_aut(sig, aut_text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _pairing_context(sig, y_text, a_text=None, b_text=None):
    """The pairing stage named by --y/--a/--b, defaulting to y1 and the
    first two of X, Z."""
    xz = sig.xz_gens()
    if sig.k < 1 or len(xz) < 2:
        raise UsageError("needs k >= 1 and at least two non-y generators")
    y = _gen_code(sig, y_text, "--y") if y_text else sig.y_gens()[0]
    a = _gen_code(sig, a_text, "--a") if a_text else xz[0]
    b = _gen_code(sig, b_text, "--b") if b_text else xz[1]
    try:
        return co.PairingContext(sig, y=y, a=a, b=b)
    except ValueError as exc:
        raise UsageError(str(exc))


FAMILY_CHOICES = (*pr.FAMILY_GROUPS, "action-table", "table5", "inverse-property")


def verify(family, n, k, l, fmt, summary):
    """Run one verification family and report PASS/FAIL per instance."""
    sig = _signature(n, k, l)
    if family in ("action-table", "inverse-property"):
        keep = "action" if family == "action-table" else "inverse"
        report = pr.verify_action_consistency(sig, keep)
    elif family == "table5":
        report = pr.verify_table5(sig)
    else:
        report = pr.verify_relations(family, sig)
    if fmt == "text":
        print("# family\tparameters\tstatus")
    print(report.format(summary=summary))
    return 0 if report.all_passed else 1


def rank(n, k, l, fmt):
    """Exact abelianization rank against the closed-form count."""
    sig = _signature(n, k, l)
    if sig.k < 1:
        raise UsageError("rank needs at least one y-generator (--k >= 1)")
    expected = ab.closed_form_rank(sig)
    computed = ab.abelianization_rank(sig)
    status = "PASS" if computed == expected else "FAIL"
    if fmt == "text":
        print("# sig\texpected\tcomputed\tstatus")
    print(f"({sig.n},{sig.k},{sig.l})\t{expected}\t{computed}\t{status}")
    return 0 if status == "PASS" else 1


def johnson(n, k, l, fmt, aut_text, word_file):
    """Per-boundary-letter homomorphism values of one kernel element."""
    sig = _signature(n, k, l)
    if sig.k < 1:
        raise UsageError("needs at least one y-generator (--k >= 1)")
    f = _aut_from_options(sig, aut_text, word_file)
    try:
        if sig.n == 0:
            full = ab.johnson_full(f)
            for c in sig.gens():
                w = full[c]
                cells = "\t".join(
                    f"{i},{j}:{v}" for (i, j), v in sorted(w.coeffs.items())
                )
                print(f"J[{sig.letter_name(c)}]\t{cells if w else '0'}")
        else:
            row = ab.generator_image_row(f)
            if fmt == "text":
                print("# action matrix: rows y, columns x")
            i = 0
            for label, letters, block in ab.image_blocks(sig):
                for c in letters:
                    cells = "\t".join(str(v) for v in row[i : i + len(block)])
                    print(f"{label}[{sig.letter_name(c)}]\t{cells}")
                    i += len(block)
    except ValueError as exc:
        raise UsageError(str(exc))
    except ClaimFailedError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    return 0


def pairing(n, k, l, fmt, y_text, a_text, b_text, rmax, mmax):
    """TSV matrix of pairing values; passes iff it is twice the identity."""
    ctx = _pairing_context(_signature(n, k, l), y_text, a_text, b_text)
    if rmax < 1 or mmax < 1:
        raise UsageError("--rmax and --mmax must be positive")
    if fmt == "text":
        print("# rows r = 1..%d, columns m = 1..%d" % (rmax, mmax))
    ok = True
    for r in range(1, rmax + 1):
        row = []
        for m in range(1, mmax + 1):
            v = co.pairing(ctx, r, m)
            ok = ok and v == (2 if r == m else 0)
            row.append(str(v))
        print("\t".join(row))
    return 0 if ok else 1


def isum(n, k, l, fmt, y_text, s_text, aut_text, word_file):
    """The invariant I_s of a kernel element as basis-point lines."""
    sig = _signature(n, k, l)
    ctx = _pairing_context(sig, y_text)
    s = _gen_code(sig, s_text, "--s")
    f = _aut_from_options(sig, aut_text, word_file)
    try:
        value = co.i_s(ctx, f, s)
    except ValueError as exc:
        raise UsageError(str(exc))
    if fmt == "text":
        print("# lattice point\tcoefficient")
    if not value:
        print("(empty)\t0")
    for v, c in sorted(value.terms.items()):
        coords = ",".join(str(x) for x in v)
        print(f"({coords})\t{c}")
    return 0


def expand(n, k, l, fmt, depth):
    """Expand the seed relations and prove every relator trivial.

    The all-identity verdict is proved from the seeds and the action
    table: every expanded relator is a conjugate of a seed (lpres_expand's
    induction), so the seeds are evaluated and, at depth >= 1, each action
    table entry, not the relators one by one.
    """
    sig = _signature(n, k, l)
    if depth < 0:
        raise UsageError("--depth must be >= 0")
    words, sound = pr.lpres_expand_proved(sig, depth)
    text = pr._alphabet(sig).text
    for i in range(0, len(words), 256):  # a print per line costs ~0.5 us more
        print("\n".join(" ".join(map(text.__getitem__, w)) for w in words[i : i + 256]))
    status = "PASS" if sound else "FAIL"
    print(f"# relations\t{len(words)}\tall-identity\t{status}")
    return 0 if sound else 1


def _existing_file(path):
    """--word names an existing, readable file that is not a directory."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    for name, what in (("n", "x"), ("k", "y"), ("l", "z")):
        shared.add_argument(f"--{name}", type=int, default=0, help=f"number of {what}-generators (default 0)")
    shared.add_argument("--format", dest="fmt", choices=("tsv", "text"), default="tsv",
                        help="tsv is bare machine output; text adds header comments (default tsv)")
    parser = argparse.ArgumentParser(prog="autfb", allow_abbrev=False, description=(
        "Symbolic toolkit for boundary-respecting free-group automorphisms."))
    commands = parser.add_subparsers(dest="command", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, parents=[shared], allow_abbrev=False,
                                  help=run.__doc__.splitlines()[0], description=run.__doc__)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command(verify)
    option("family", choices=FAMILY_CHOICES, metavar="{" + "|".join(FAMILY_CHOICES) + "}")
    option("--summary", action="store_true", help="print only the count footer")
    command(rank)
    option = command(johnson)
    option("--aut", dest="aut_text", help="automorphism spelling")
    option("--word", dest="word_file", type=_existing_file, help="file holding the spelling")
    option = command(pairing)
    option("--y", dest="y_text", help="chosen y-generator (default y1)")
    option("--a", dest="a_text", help="first direction (default first of X,Z)")
    option("--b", dest="b_text", help="second direction (default second of X,Z)")
    option("--rmax", type=int, default=6, help="rows r = 1..RMAX (default 6)")
    option("--mmax", type=int, default=6, help="columns m = 1..MMAX (default 6)")
    option = command(isum)
    option("--y", dest="y_text", help="chosen y-generator (default y1)")
    option("--s", dest="s_text", required=True, help="generator whose invariant to print")
    option("--aut", dest="aut_text", help="automorphism spelling")
    option("--word", dest="word_file", type=_existing_file, help="file holding the spelling")
    option = command(expand)
    option("--depth", type=int, default=1, help="expansion depth >= 0 (default 1)")
    return parser


_PARSER = _build_parser()


def main(args=None, prog_name="autfb"):
    """Run one command on `args` (default: the process arguments) and exit
    with its status.  Usage lines name `autfb` whatever `prog_name` says."""
    try:
        opts = vars(_PARSER.parse_args(args))
        del opts["command"]
        code = opts.pop("run")(**opts)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 2
    except BrokenPipeError:
        # The reader left: what is still buffered goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except KeyboardInterrupt:
        print("Aborted!", file=sys.stderr)
        code = 1
    sys.exit(code)


# perfbench/child.py calls `main.main(args=..., prog_name=...)`, as it called the click group.
main.main = main


if __name__ == "__main__":
    main()
