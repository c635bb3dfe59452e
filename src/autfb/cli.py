"""Command-line front end: verification suites, rank and homomorphism
reports, pairing tables, and relation expansion as reproducible batch
runs.

All machine output is line-oriented TSV with no timestamps, so a rerun
with the same parameters is byte-identical.  Exit status: 0 when every
check passes, 1 when a verification fails, 2 on a usage error.
"""

from __future__ import annotations

import sys

import click

from .freegroup import Signature
from .automorphism import ClaimFailedError, parse_aut
from . import abelianization as ab
from . import cocycle as co
from . import presentation as pr


def _signature(n, k, l):
    try:
        return Signature(n, k, l)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _gen_code(sig, text, what):
    try:
        code = sig.letter_code(text.strip())
    except ValueError as exc:
        raise click.UsageError(f"{what}: {exc}")
    if code < 0:
        raise click.UsageError(f"{what}: expected a generator like x1 or z2, got {text!r}")
    return code


def _aut_from_options(sig, aut_text, word_file, what="--aut"):
    if aut_text is None and word_file is None:
        raise click.UsageError(f"{what} or --word is required")
    if aut_text is not None and word_file is not None:
        raise click.UsageError(f"give {what} or --word, not both")
    if word_file is not None:
        with open(word_file, "r", encoding="utf-8") as fh:
            aut_text = fh.read()
    try:
        return parse_aut(sig, aut_text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _pairing_context(sig, y_text, a_text=None, b_text=None):
    """The pairing stage named by --y/--a/--b, defaulting to y1 and the
    first two of X, Z."""
    xz = sig.xz_gens()
    if sig.k < 1 or len(xz) < 2:
        raise click.UsageError("needs k >= 1 and at least two non-y generators")
    y = _gen_code(sig, y_text, "--y") if y_text else sig.y_gens()[0]
    a = _gen_code(sig, a_text, "--a") if a_text else xz[0]
    b = _gen_code(sig, b_text, "--b") if b_text else xz[1]
    try:
        return co.PairingContext(sig, y=y, a=a, b=b)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _echo_report(report, summary, fmt):
    if fmt == "text":
        click.echo("# family\tparameters\tstatus")
    click.echo(report.format(summary=summary))


_sig_options = [
    click.option("--n", default=0, show_default=True, help="number of x-generators"),
    click.option("--k", default=0, show_default=True, help="number of y-generators"),
    click.option("--l", default=0, show_default=True, help="number of z-generators"),
    click.option(
        "--format",
        "fmt",
        type=click.Choice(["tsv", "text"]),
        default="tsv",
        show_default=True,
        help="tsv is bare machine output; text adds header comments",
    ),
]


def _with_sig_options(cmd):
    for opt in reversed(_sig_options):
        cmd = opt(cmd)
    return cmd


@click.group()
def main():
    """Symbolic toolkit for boundary-respecting free-group automorphisms."""


FAMILY_CHOICES = (*pr.FAMILY_GROUPS, "action-table", "table5", "inverse-property")


@main.command()
@click.argument("family", type=click.Choice(FAMILY_CHOICES))
@_with_sig_options
@click.option("--summary", is_flag=True, help="print only the count footer")
def verify(family, n, k, l, fmt, summary):
    """Run one verification family and report PASS/FAIL per instance."""
    sig = _signature(n, k, l)
    if family in ("action-table", "inverse-property"):
        keep = "action" if family == "action-table" else "inverse"
        report = pr.verify_action_consistency(sig, (keep,))
    elif family == "table5":
        report = pr.verify_table5(sig)
    else:
        report = pr.verify_relations(family, sig)
    _echo_report(report, summary, fmt)
    sys.exit(0 if report.all_passed else 1)


@main.command()
@_with_sig_options
def rank(n, k, l, fmt):
    """Exact abelianization rank against the closed-form count."""
    sig = _signature(n, k, l)
    if sig.k < 1:
        raise click.UsageError("rank needs at least one y-generator (--k >= 1)")
    expected = ab.closed_form_rank(sig)
    computed = ab.abelianization_rank(sig)
    status = "PASS" if computed == expected else "FAIL"
    if fmt == "text":
        click.echo("# sig\texpected\tcomputed\tstatus")
    click.echo(f"({sig.n},{sig.k},{sig.l})\t{expected}\t{computed}\t{status}")
    sys.exit(0 if status == "PASS" else 1)


@main.command()
@_with_sig_options
@click.option("--aut", "aut_text", default=None, help="automorphism spelling")
@click.option(
    "--word",
    "word_file",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="file holding the spelling",
)
def johnson(n, k, l, fmt, aut_text, word_file):
    """Per-boundary-letter homomorphism values of one kernel element."""
    sig = _signature(n, k, l)
    if sig.k < 1:
        raise click.UsageError("needs at least one y-generator (--k >= 1)")
    f = _aut_from_options(sig, aut_text, word_file)
    try:
        if sig.n == 0:
            full = ab.johnson_full(sig, f)
            for c in sig.gens():
                w = full[c]
                cells = "\t".join(
                    f"{i},{j}:{v}" for (i, j), v in sorted(w.coeffs.items())
                )
                click.echo(f"J[{sig.letter_name(c)}]\t{cells if w else '0'}")
        else:
            if fmt == "text":
                click.echo("# action matrix: rows y, columns x")
            for y, row in zip(sig.y_gens(), ab.act_hom(sig, f)):
                cells = "\t".join(str(v) for v in row)
                click.echo(f"A[{sig.letter_name(y)}]\t{cells}")
            for c in sig.y_gens():
                cells = "\t".join(str(v) for v in ab.johnson_y(sig, f, c))
                click.echo(f"J'[{sig.letter_name(c)}]\t{cells}")
            for c in sig.z_gens():
                cells = "\t".join(str(v) for v in ab.johnson_z(sig, f, c))
                click.echo(f"J[{sig.letter_name(c)}]\t{cells}")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except ClaimFailedError as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


@main.command()
@_with_sig_options
@click.option("--y", "y_text", default=None, help="chosen y-generator (default y1)")
@click.option("--a", "a_text", default=None, help="first direction (default first of X,Z)")
@click.option("--b", "b_text", default=None, help="second direction (default second of X,Z)")
@click.option("--rmax", default=6, show_default=True)
@click.option("--mmax", default=6, show_default=True)
def pairing(n, k, l, fmt, y_text, a_text, b_text, rmax, mmax):
    """TSV matrix of pairing values; passes iff it is twice the identity."""
    ctx = _pairing_context(_signature(n, k, l), y_text, a_text, b_text)
    if rmax < 1 or mmax < 1:
        raise click.UsageError("--rmax and --mmax must be positive")
    if fmt == "text":
        click.echo("# rows r = 1..%d, columns m = 1..%d" % (rmax, mmax))
    ok = True
    for r in range(1, rmax + 1):
        row = []
        for m in range(1, mmax + 1):
            v = co.pairing(ctx, r, m)
            ok = ok and v == (2 if r == m else 0)
            row.append(str(v))
        click.echo("\t".join(row))
    sys.exit(0 if ok else 1)


@main.command()
@_with_sig_options
@click.option("--y", "y_text", default=None, help="chosen y-generator (default y1)")
@click.option("--s", "s_text", required=True, help="generator whose invariant to print")
@click.option("--aut", "aut_text", default=None, help="automorphism spelling")
@click.option(
    "--word",
    "word_file",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="file holding the spelling",
)
def isum(n, k, l, fmt, y_text, s_text, aut_text, word_file):
    """The invariant I_s of a kernel element as basis-point lines."""
    sig = _signature(n, k, l)
    ctx = _pairing_context(sig, y_text)
    s = _gen_code(sig, s_text, "--s")
    f = _aut_from_options(sig, aut_text, word_file)
    try:
        value = co.i_s(ctx, f, s)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "text":
        click.echo("# lattice point\tcoefficient")
    if not value:
        click.echo("(empty)\t0")
    for v, c in sorted(value.terms.items()):
        coords = ",".join(str(x) for x in v)
        click.echo(f"({coords})\t{c}")
    sys.exit(0)


@main.command()
@_with_sig_options
@click.option("--depth", default=1, show_default=True, help="expansion depth >= 0")
def expand(n, k, l, fmt, depth):
    """Expand the seed relations and prove every relator trivial.

    The all-identity verdict is proved from the seeds and the action
    table: every expanded relator is a conjugate of a seed (lpres_expand's
    induction), so the seeds are evaluated and, at depth >= 1, each action
    table entry, not the relators one by one.
    """
    sig = _signature(n, k, l)
    if depth < 0:
        raise click.UsageError("--depth must be >= 0")
    words, sound = pr.lpres_expand_proved(sig, depth)
    text = pr._alphabet(sig).text
    for i in range(0, len(words), 256):  # an echo per line costs ~6 us
        click.echo("\n".join(" ".join(text[c] for c in w) for w in words[i : i + 256]))
    status = "PASS" if sound else "FAIL"
    click.echo(f"# relations\t{len(words)}\tall-identity\t{status}")
    sys.exit(0 if sound else 1)


if __name__ == "__main__":
    main()
