"""Batch front end: frozen outputs, exit codes, byte determinism."""

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from types import SimpleNamespace

import pytest

import autfb.abelianization as abelianization
import autfb.presentation as presentation
from autfb import Signature, c_name, format_spelling, m_name, s_k_symbols, s_q_symbols
from autfb.cli import main
from expansion_routes import meeting_pairs

DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "digests.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class _Runner:
    """Runs the CLI in-process with stdout and stderr captured."""

    def invoke(self, main, args):
        out, err = io.StringIO(), io.StringIO()
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code
            except Exception as exc:
                exit_code, exception = 1, exc
        stdout = out.getvalue()
        return SimpleNamespace(
            exit_code=exit_code, exception=exception, output=stdout, stdout=stdout, stderr=err.getvalue()
        )


runner = _Runner()


def _err(result):
    return result.stderr


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
    calls = {"_action_word": 0, "action_extend": 0}

    def counted(name):
        original = getattr(presentation, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(presentation, name, wrapper)

    counted("_action_word")
    counted("action_extend")
    res = runner.invoke(
        main, ["verify", "inverse-property", "--n", "2", "--k", "2", "--l", "2"]
    )
    assert res.exit_code == 0
    # 42 S_Q letters (21 symbols at either power) times 22 S_K symbols make
    # 924 pairs; the table reads only the 416 whose fields share a code.
    sig = Signature(2, 2, 2)
    dense = 2 * len(s_q_symbols(sig)) * len(s_k_symbols(sig))
    assert (meeting_pairs(sig), dense) == (416, 42 * 22)
    assert calls == {"_action_word": meeting_pairs(sig), "action_extend": 0}


def test_verify_rejects_unknown_family():
    res = runner.invoke(main, ["verify", "qx"])
    assert res.exit_code == 2


SIG_111 = ["--n", "1", "--k", "1", "--l", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "qx"],
        ["verify", "rk", "--n", "x"],
        ["expand", *SIG_111, "--dep", "1"],
        ["isum", *SIG_111, "--aut", ""],
        ["johnson", *SIG_111, "--word", "{tmp}/missing.txt"],
        ["johnson", *SIG_111, "--word", "{tmp}"],
        ["rank", "--k", "1", "--bogus"],
        [],
    ],
    ids=[
        "unknown-family", "non-integer", "abbreviated-option", "missing-s",
        "missing-word-file", "word-directory", "unknown-option", "no-command",
    ],
)
def test_the_parser_refuses_a_malformed_command(tmp_path, args):
    res = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr


def test_rank_line_and_guard():
    res = runner.invoke(main, ["rank", "--n", "1", "--k", "1", "--l", "1"])
    assert res.exit_code == 0
    assert res.output == "(1,1,1)\t4\t4\tPASS\n"
    res = runner.invoke(main, ["rank", "--n", "2"])
    assert res.exit_code == 2
    assert "at least one y-generator" in _err(res)


@pytest.mark.parametrize(
    "fmt, header",
    [("tsv", []), ("text", ["# action matrix: rows y, columns x"])],
    ids=["tsv", "text"],
)
def test_johnson_with_x_generators(fmt, header):
    res = runner.invoke(
        main,
        [
            "johnson", "--n", "1", "--k", "1", "--l", "1",
            "--aut", "M[x1^+1,y1]", "--format", fmt,
        ],
    )
    assert res.exit_code == 0
    assert res.output.splitlines() == [*header, "A[y1]\t1", "J'[y1]\t0\t0", "J[z1]\t0"]


# Two kernel elements at (2,2,2) whose lines, between them, have a nonzero
# cell in every block: A, J' and J.
JOHNSON_222 = {
    "C[y1,x1] M[x2^-1,y2] C[z1,y2]^-1 C[y2,z2]": [
        "A[y1]\t0\t0",
        "A[y2]\t0\t-1",
        "J'[y1]\t1\t0\t0\t0",
        "J'[y2]\t0\t0\t0\t1",
        "J[z1]\t0\t-1",
        "J[z2]\t0\t0",
    ],
    "C[z2,y1] C[y1,x2]^-1 M[x1^+1,y2]": [
        "A[y1]\t0\t0",
        "A[y2]\t1\t0",
        "J'[y1]\t0\t-1\t0\t0",
        "J'[y2]\t0\t0\t0\t0",
        "J[z1]\t0\t0",
        "J[z2]\t1\t0",
    ],
}


@pytest.mark.parametrize("spelling", JOHNSON_222)
@pytest.mark.parametrize(
    "fmt, header",
    [("tsv", ""), ("text", "# action matrix: rows y, columns x\n")],
    ids=["tsv", "text"],
)
def test_johnson_prints_every_block_at_222(spelling, fmt, header):
    res = runner.invoke(
        main, ["johnson", "--n", "2", "--k", "2", "--l", "2", "--aut", spelling, "--format", fmt]
    )
    assert res.exit_code == 0
    assert res.stdout == header + "".join(line + "\n" for line in JOHNSON_222[spelling])


@pytest.mark.parametrize("spelling", JOHNSON_222)
def test_johnson_checks_kernel_membership_once(monkeypatch, spelling):
    calls = []
    original = abelianization.is_in_kernel

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(abelianization, "is_in_kernel", counted)
    res = runner.invoke(main, ["johnson", "--n", "2", "--k", "2", "--l", "2", "--aut", spelling])
    assert res.exit_code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["tsv", "text"])
def test_johnson_without_x_generators(fmt):
    # With no x-generators there is no action matrix, so text adds no header.
    res = runner.invoke(
        main, ["johnson", "--k", "2", "--l", "1", "--aut", "C[y1,y2]", "--format", fmt]
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
    outside_text = runner.invoke(
        main,
        [
            "johnson", "--n", "1", "--k", "1", "--l", "1",
            "--aut", "M[x1^+1,z1]", "--format", "text",
        ],
    )
    assert (outside_text.exit_code, outside_text.stdout) == (2, "")
    bad = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--aut", "M[w1,y1]"],
    )
    assert bad.exit_code == 2


@pytest.mark.parametrize(
    "command", [["johnson"], ["isum", "--s", "x1"]], ids=["johnson", "isum"]
)
def test_a_word_file_that_is_not_utf8_is_a_usage_error(tmp_path, command):
    f = tmp_path / "spelling.bin"
    f.write_bytes(b"\xff\xfe")
    res = runner.invoke(main, [*command, "--n", "1", "--k", "1", "--l", "1", "--word", str(f)])
    assert res.exit_code == 2
    assert "not UTF-8" in _err(res)
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_an_unreadable_word_file_is_a_usage_error(tmp_path, monkeypatch):
    f = tmp_path / "spelling.txt"
    f.write_text("M[x1^+1,y1]\n", encoding="utf-8")
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    res = runner.invoke(main, ["johnson", *SIG_111, "--word", str(f)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert "is not readable" in res.stderr


def test_johnson_failed_claim_exits_one(monkeypatch):
    # Report no image as a conjugate of its letter, so the claim that a
    # kernel element conjugates each y-letter fails.
    monkeypatch.setattr(abelianization, "_conjugated", lambda row, c: None)
    res = runner.invoke(
        main,
        ["johnson", "--n", "1", "--k", "1", "--l", "1", "--aut", "M[x1^+1,y1]"],
    )
    assert res.exit_code == 1
    assert "is not a conjugate" in _err(res)
    assert res.stdout == ""


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


@pytest.mark.parametrize(
    "sig,depth,want",
    [
        ((1, 1, 1), 4, "f043bb18b8c8467eeeb3b46ef111d8ac3ba5604384fc24a900a310666579ed98"),
        ((2, 1, 0), 3, "6865ee3a0c27b4c8c8b5440d8eea33bb617c140fbe1f0e607aa0d919531c4204"),
        ((0, 1, 2), 3, "56090dc6d3a7b8a60ea74b43b89435401208cc12aa8e313b043bf35dc97d1ab1"),
        ((1, 2, 1), 2, "57345935a0295c43d5d505bcb27c0027eb0c54cc314f5416bae2dda622d9bed5"),
    ],
)
def test_expand_output_where_words_share_relators(sig, depth, want):
    """Depths at which many words of one first letter and length act on
    the same relator, so the expansion reuses images: stdout sha256s
    recorded at 2e38787, before any reuse."""
    n, k, l = sig
    res = runner.invoke(
        main, ["expand", "--n", str(n), "--k", str(k), "--l", str(l), "--depth", str(depth)]
    )
    _assert_expand_verdict(res, "PASS")
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
    # One (t, s) pair of the coded action rows gets an extra S_K letter: C[y1,x1].
    t, s = m_name(1, 1, 3), m_name(1, 1, 2)
    original = presentation._action_word

    def wrong(sig, t_, s_):
        word = original(sig, t_, s_)
        extra = presentation._alphabet(sig).code[c_name(2, 1)]
        return word + (extra,) if (t_, s_) == (t, s) else word

    monkeypatch.setattr(presentation, "_action_word", wrong)
    _assert_expand_verdict(_expand_111(1), "FAIL")
    # At depth 0 no relator is made through the table, so it is not read.
    _assert_expand_verdict(_expand_111(0), "PASS")


@pytest.mark.parametrize("depth", [0, 2])
def test_expand_fails_on_a_corrupted_seed(monkeypatch, depth):
    original = presentation._relations

    def corrupted(family, sig):
        insts = original(family, sig)
        if family == "rk":
            first = insts[0]
            extra = presentation._alphabet(sig).code[m_name(1, 1, 2)]
            insts = [first._replace(lhs=first.lhs + (extra,)), *insts[1:]]
        return insts

    monkeypatch.setattr(presentation, "_relations", corrupted)
    _assert_expand_verdict(_expand_111(depth), "FAIL")


def test_expand_evaluates_the_seeds_and_the_action_entries_only(monkeypatch):
    sig = Signature(2, 2, 2)
    words = []
    original = presentation._trivial

    def counted(sig_, batch):
        words.extend(batch)
        return original(sig_, batch)

    monkeypatch.setattr(presentation, "_trivial", counted)
    res = runner.invoke(main, ["expand", "--n", "2", "--k", "2", "--l", "2", "--depth", "1"])
    _assert_expand_verdict(res, "PASS")
    seeds = presentation.enumerate_relations("rk", sig)
    entries = len(presentation._sq_codes(sig)) * len(presentation.s_k_symbols(sig))
    assert 0 < len(words) <= len(seeds) + 2 * entries


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


def _python(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_a_closed_pipe_exits_one_without_a_traceback():
    proc = _python("-m", "autfb.cli", "expand", "--n", "2", "--k", "2", "--l", "2", "--depth", "1")
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert first.endswith(b"\n")
    assert (proc.returncode, stderr) == (1, b"")


def test_importing_the_cli_loads_no_click():
    out, _ = _python("-c", "import autfb.cli, sys; print('click' in sys.modules)").communicate(timeout=120)
    assert out == b"False\n"


@pytest.mark.parametrize(
    "args", [["verify", "rk", *SIG_111], ["verify", "qx"]], ids=["verify", "usage-error"]
)
def test_the_module_and_the_in_process_call_print_the_same(args):
    """The benchmark captures main.main in-process; its digests are
    recorded from `python -m autfb.cli`."""
    proc = _python("-m", "autfb.cli", *args)
    stdout, _ = proc.communicate(timeout=120)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exit_:
            main.main(args=list(args), prog_name="autfb")
    assert (stdout, proc.returncode) == (buf.getvalue().encode("utf-8"), exit_.value.code)
