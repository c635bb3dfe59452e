"""Batch front end: frozen outputs, exit codes, byte determinism."""

import hashlib
import json
import os
import shlex

import pytest
from click.testing import CliRunner

import autfb.abelianization as abelianization
import autfb.presentation as presentation
from autfb import Signature, c_name, format_spelling, gen_word, m_name
from autfb.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "digests.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

runner = CliRunner()


def _err(result):
    try:
        return result.stderr
    except (AttributeError, ValueError):
        return result.output


def test_verify_seed_family_full_listing():
    res = runner.invoke(main, ["verify", "rk", "--n", "1", "--k", "1", "--l", "1"])
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "R1.1\tx=1,e=+1,v=2,w=1,d=-1,y=2\tPASS",
        "R1.1\tx=1,e=-1,v=2,w=1,d=+1,y=2\tPASS",
        "R1.2\tx=1,e=+1,y=2,v=3,z=2\tPASS",
        "R1.2\tx=1,e=-1,y=2,v=3,z=2\tPASS",
        "R2\tno instances at this signature\tSKIP",
        "R3\tno instances at this signature\tSKIP",
        "R4\tno instances at this signature\tSKIP",
        "R5\tx=1,y=2,e=+1\tPASS",
        "R5\tx=1,y=2,e=-1\tPASS",
        "# total\t9\tpass\t6\tfail\t0\tskip\t3",
    ]


def test_verify_summary_flag_prints_only_the_footer():
    res = runner.invoke(
        main,
        ["verify", "rk", "--n", "1", "--k", "1", "--l", "1", "--summary"],
    )
    assert res.exit_code == 0
    assert res.output == "# total\t9\tpass\t6\tfail\t0\tskip\t3\n"


def test_verify_text_format_adds_a_header():
    res = runner.invoke(
        main, ["verify", "nielsen", "--n", "2", "--format", "text"]
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "# family\tparameters\tstatus"
    assert lines[-1] == "# total\t28\tpass\t27\tfail\t0\tskip\t1"


def test_verify_all_skip_family_passes():
    res = runner.invoke(main, ["verify", "rk", "--k", "1"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 6
    assert all(ln.endswith("SKIP") for ln in lines[:-1])


def test_verify_residue_table():
    res = runner.invoke(main, ["verify", "table5", "--n", "1", "--k", "1", "--l", "3"])
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "# total\t36\tpass\t36\tfail\t0\tskip\t0"


def test_verify_action_filter_keeps_one_direction():
    res = runner.invoke(
        main, ["verify", "action-table", "--k", "1", "--l", "2"]
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[-1].startswith("# total\t")
    assert "\tfail\t0\t" in lines[-1]
    assert all(ln.split("\t")[0] == "action" for ln in lines[:-1])


def test_verify_inverse_property_tabulates_the_action_once(monkeypatch):
    calls = {"action_f": 0, "action_extend": 0}

    def counted(name):
        original = getattr(presentation, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(presentation, name, wrapper)

    counted("action_f")
    counted("action_extend")
    res = runner.invoke(
        main, ["verify", "inverse-property", "--n", "2", "--k", "2", "--l", "2"]
    )
    assert res.exit_code == 0
    # 42 S_Q letters (21 symbols at either power) times 22 S_K symbols.
    assert calls == {"action_f": 42 * 22, "action_extend": 0}


def test_verify_rejects_unknown_family():
    res = runner.invoke(main, ["verify", "qx"])
    assert res.exit_code == 2


def test_rank_line_and_guard():
    res = runner.invoke(main, ["rank", "--n", "1", "--k", "1", "--l", "1"])
    assert res.exit_code == 0
    assert res.output == "(1,1,1)\t4\t4\tPASS\n"
    res = runner.invoke(main, ["rank", "--n", "2"])
    assert res.exit_code == 2
    assert "at least one y-generator" in _err(res)


def test_johnson_with_x_generators():
    res = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--aut", "M[x1^+1,y1]"],
    )
    assert res.exit_code == 0
    assert res.output.splitlines() == ["A[y1]\t1", "J'[y1]\t0\t0", "J[z1]\t0"]


def test_johnson_without_x_generators():
    res = runner.invoke(
        main, ["johnson", "--k", "2", "--l", "1", "--aut", "C[y1,y2]"]
    )
    assert res.exit_code == 0
    assert res.output.splitlines() == ["J[y1]\t1,2:1", "J[y2]\t0", "J[z1]\t0"]


def test_johnson_reads_a_spelling_file(tmp_path):
    f = tmp_path / "spelling.txt"
    f.write_text("M[x1^+1,y1]\n", encoding="utf-8")
    res = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--word", str(f)],
    )
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "A[y1]\t1"


def test_johnson_usage_errors(tmp_path):
    f = tmp_path / "spelling.txt"
    f.write_text("M[x1^+1,y1]\n", encoding="utf-8")
    both = runner.invoke(
        main,
        [
            "johnson", "--n", "1", "--k", "1", "--l", "1",
            "--aut", "M[x1^+1,y1]", "--word", str(f),
        ],
    )
    assert both.exit_code == 2
    neither = runner.invoke(main, ["johnson", "--n", "1", "--k", "1", "--l", "1"])
    assert neither.exit_code == 2
    outside = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--aut", "M[x1^+1,z1]"],
    )
    assert outside.exit_code == 2
    assert "kernel" in _err(outside)
    bad = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--aut", "M[w1,y1]"],
    )
    assert bad.exit_code == 2


def test_johnson_failed_claim_exits_one(monkeypatch):
    # Report every image as a conjugate of the wrong letter, so the claim
    # that a kernel element conjugates each y-letter fails.
    monkeypatch.setattr(abelianization, "cyclic_reduce", lambda w: (gen_word(w.sig, 1), w))
    res = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--aut", "M[x1^+1,y1]"],
    )
    assert res.exit_code == 1
    assert "is not a conjugate" in _err(res)


def test_pairing_small_table():
    args = ["pairing", "--n", "1", "--k", "1", "--l", "1", "--rmax", "2", "--mmax", "2"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert res.output == "2\t0\n0\t2\n"
    again = runner.invoke(main, args)
    assert again.output == res.output


def test_pairing_guards():
    res = runner.invoke(main, ["pairing", "--n", "2"])
    assert res.exit_code == 2
    res = runner.invoke(
        main, ["pairing", "--n", "1", "--k", "1", "--l", "1", "--rmax", "0"]
    )
    assert res.exit_code == 2


def test_isum_conjugation_move():
    res = runner.invoke(
        main,
        [
            "isum", "--n", "1", "--k", "1", "--l", "1",
            "--s", "z1", "--aut", "C[z1,y1]",
        ],
    )
    assert res.exit_code == 0
    assert res.output == "(0,0)\t1\n(0,1)\t-1\n"


def test_isum_identity_is_empty():
    res = runner.invoke(
        main,
        ["isum", "--n", "1", "--k", "1", "--l", "1", "--s", "x1", "--aut", ""],
    )
    assert res.exit_code == 0
    assert res.output == "(empty)\t0\n"


def test_isum_guards():
    res = runner.invoke(
        main,
        ["isum", "--n", "1", "--k", "1", "--l", "1", "--s", "w1", "--aut", ""],
    )
    assert res.exit_code == 2
    res = runner.invoke(
        main,
        ["isum", "--n", "1", "--k", "1", "--l", "1", "--s", "y1", "--aut", ""],
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["isum", "--s", "x1^-1", "--aut", ""],
        ["pairing", "--y", "y1^-1"],
    ],
    ids=["isum", "pairing"],
)
def test_generator_options_reject_an_inverse_letter(args):
    res = runner.invoke(main, args + ["--n", "1", "--k", "1", "--l", "1"])
    assert res.exit_code == 2
    assert "expected a generator like x1 or z2" in _err(res)


@pytest.mark.parametrize(
    "args",
    [
        ["isum", "--s", "x01", "--aut", ""],
        ["isum", "--s", "x\u0661", "--aut", ""],
        ["pairing", "--a", "z01"],
    ],
    ids=["isum-leading-zero", "isum-non-ascii-digit", "pairing-leading-zero"],
)
def test_generator_options_read_ascii_indices_without_leading_zeros(args):
    res = runner.invoke(main, args + ["--n", "1", "--k", "1", "--l", "1"])
    assert res.exit_code == 2
    assert "expected a generator like x1 or z2" in _err(res)


@pytest.mark.parametrize(
    "args", [["pairing"], ["isum", "--s", "x1", "--aut", ""]], ids=["pairing", "isum"]
)
def test_pairing_stage_rejects_a_non_y_chosen_letter(args):
    res = runner.invoke(main, args + ["--y", "x1", "--n", "1", "--k", "1", "--l", "1"])
    assert res.exit_code == 2
    assert "is not a y-generator code" in _err(res)


def test_verify_help_lists_the_families_in_order():
    res = runner.invoke(main, ["verify", "--help"])
    assert res.exit_code == 0
    listed = "{nielsen|jensen-wahl|rk|c-lemma|action-table|table5|inverse-property}"
    assert listed in "".join(res.output.split())


def test_expand_depth_zero():
    res = runner.invoke(
        main, ["expand", "--n", "1", "--k", "1", "--l", "1", "--depth", "0"]
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 7
    assert lines[-1] == "# relations\t6\tall-identity\tPASS"


def test_expand_depth_one_count():
    res = runner.invoke(
        main, ["expand", "--n", "1", "--k", "1", "--l", "1", "--depth", "1"]
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 39
    assert lines[-1] == "# relations\t38\tall-identity\tPASS"


# The signatures at which the benchmark's verify-grid records digests.
DIGEST_SIGS = ((2, 0, 0), (3, 0, 0), (4, 0, 0), (1, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2))


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--n", "1", "--k", "1", "--l", "1", "--depth", "3"],
        ["expand", "--n", "2", "--k", "2", "--l", "2", "--depth", "1"],
    ]
    + [
        ["verify", family, "--n", str(n), "--k", str(k), "--l", str(l)]
        for family in ("action-table", "inverse-property", "table5")
        for n, k, l in DIGEST_SIGS
    ],
)
def test_expand_output_matches_the_recorded_digest(args):
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)[" ".join(args)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("sig,depth", [((0, 2, 2), 1), ((2, 1, 0), 2), ((1, 2, 1), 2), ((3, 1, 1), 1)])
def test_expand_lines_spell_the_library_relators(sig, depth):
    """The text path, at signatures the recorded digests do not cover:
    each body line is the library's relator spelled by format_spelling."""
    n, k, l = sig
    res = runner.invoke(
        main, ["expand", "--n", str(n), "--k", str(k), "--l", str(l), "--depth", str(depth)]
    )
    _assert_expand_verdict(res, "PASS")
    words = presentation.lpres_expand(Signature(*sig), depth)
    assert words
    assert res.output.splitlines()[:-1] == [format_spelling(Signature(*sig), w) for w in words]


def _expand_111(depth):
    return runner.invoke(
        main, ["expand", "--n", "1", "--k", "1", "--l", "1", "--depth", str(depth)]
    )


def _assert_expand_verdict(res, status):
    lines = res.output.splitlines()
    assert lines[-1] == f"# relations\t{len(lines) - 1}\tall-identity\t{status}"
    assert res.exit_code == (0 if status == "PASS" else 1)


def test_expand_fails_on_a_wrong_action_entry(monkeypatch):
    # One (t, s) pair of the action gets an extra S_K letter: C[y1,x1].
    t, s = m_name(1, 1, 3), m_name(1, 1, 2)
    original = presentation.action_f

    def wrong(sig, t_, s_):
        word = original(sig, t_, s_)
        return word + (c_name(2, 1),) if (t_, s_) == (t, s) else word

    monkeypatch.setattr(presentation, "action_f", wrong)
    _assert_expand_verdict(_expand_111(1), "FAIL")
    # At depth 0 no relator is made through the table, so it is not read.
    _assert_expand_verdict(_expand_111(0), "PASS")


@pytest.mark.parametrize("depth", [0, 2])
def test_expand_fails_on_a_corrupted_seed(monkeypatch, depth):
    original = presentation.enumerate_relations

    def corrupted(family, sig):
        insts = original(family, sig)
        if family == "rk":
            first = insts[0]
            insts = [first._replace(lhs=first.lhs + (m_name(1, 1, 2),)), *insts[1:]]
        return insts

    monkeypatch.setattr(presentation, "enumerate_relations", corrupted)
    _assert_expand_verdict(_expand_111(depth), "FAIL")


def test_expand_evaluates_the_seeds_and_the_action_entries_only(monkeypatch):
    sig = Signature(2, 2, 2)
    calls = []
    original = presentation.symbol_images

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(presentation, "symbol_images", counted)
    res = runner.invoke(main, ["expand", "--n", "2", "--k", "2", "--l", "2", "--depth", "1"])
    _assert_expand_verdict(res, "PASS")
    seeds = presentation.enumerate_relations("rk", sig)
    entries = len(presentation._sq_letters(sig)) * len(presentation.s_k_symbols(sig))
    assert len(calls) <= len(seeds) + 2 * entries


def test_expand_rejects_negative_depth():
    res = runner.invoke(
        main, ["expand", "--n", "1", "--k", "1", "--l", "1", "--depth", "-1"]
    )
    assert res.exit_code == 2


def test_verification_output_is_byte_stable():
    args = ["verify", "jensen-wahl", "--n", "1", "--k", "1", "--l", "2"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert first.output.splitlines()[-1] == "# total\t82\tpass\t82\tfail\t0\tskip\t0"


def _readme_examples():
    """(command, shown lines) for each indented `$ autfb ...` block of the
    README; a block ends at the first line that is not indented."""
    examples, shown = [], None
    with open(README, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("    $ autfb "):
                shown = []
                examples.append((line[len("    $ autfb ") :], shown))
            elif shown is not None and line.startswith("    "):
                shown.append(line[4:])
            else:
                shown = None
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_shows_six_examples():
    assert len(README_EXAMPLES) == 6


@pytest.mark.parametrize(
    "command,shown", README_EXAMPLES, ids=[c.split()[0] for c, _ in README_EXAMPLES]
)
def test_readme_example_prints_what_it_shows(command, shown):
    command, _, pipe = command.partition(" | ")
    res = runner.invoke(main, shlex.split(command))
    assert res.exit_code == 0
    lines = res.output.splitlines()
    if pipe:
        assert pipe.startswith("tail -")
        lines = lines[-int(pipe[len("tail -") :]) :]
    assert lines == shown
