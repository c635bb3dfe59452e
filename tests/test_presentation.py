"""Relation tables, the rewriting action, support bounds, expansion."""

import functools
import hashlib
import itertools
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autfb.automorphism as automorphism
import autfb.presentation as presentation
from autfb.freegroup import _free_reduce
from autfb import (
    RelationInstance,
    Report,
    Signature,
    action_extend,
    action_f,
    c_name,
    compose,
    enumerate_relations,
    eval_symbol_word,
    format_name,
    gen_aut,
    i_name,
    identity,
    lpres_expand,
    lpres_expand_proved,
    m_name,
    p_name,
    s_k_symbols,
    s_n_symbols,
    s_q_symbols,
    spelling_aut,
    sym_inv,
    sym_mul,
    sym_reduce,
    verify_action_consistency,
    verify_relations,
    verify_table5,
)
from autfb.presentation import (
    FAMILY_GROUPS,
    in_s_k,
    in_s_q,
    reduced_sq_words,
)
from expansion_routes import (
    dense_action_table,
    expand_per_word,
    meeting_pairs,
    relators_by_word,
    seeds as reference_seeds,
)
from disjoint_support import (
    admissible,
    disjointness_conditions,
    mult_letter,
    mult_set,
    support,
    support_letter,
)
from finite_quotient import FiniteQuotient

S111 = Signature(1, 1, 1)
S222 = Signature(2, 2, 2)


# ---------------------------------------------------------------------------
# alphabets


def test_alphabet_sizes():
    assert len(s_k_symbols(S111)) == 5
    assert len(s_q_symbols(S111)) == 4
    assert len(s_k_symbols(S222)) == 22
    assert len(s_q_symbols(S222)) == 21
    assert len(s_n_symbols(Signature(3, 0, 0))) == 18


def test_alphabet_admissibility():
    for n, k, l in itertools.product(range(4), repeat=3):
        if n + k + l:
            sig = Signature(n, k, l)
            # powers are ignored by admissibility
            for s in s_k_symbols(sig):
                for u in (s, s.inv()):
                    assert in_s_k(sig, u) and not in_s_q(sig, u)
            for t in s_q_symbols(sig):
                for u in (t, t.inv()):
                    assert in_s_q(sig, u) and not in_s_k(sig, u)
    assert in_s_k(S222, c_name(5, 3, power=-1))


def test_s_k_coding_round_trips_every_letter():
    """Each S_K letter at either power has one code, +-(i+1) for symbol i,
    and each S_Q letter follows, +-(|S_K|+j+1) for symbol j; each code maps
    back to the letter and to its format_name."""
    for n, k, l in itertools.product(range(4), repeat=3):
        if not n + k + l:
            continue
        sig = Signature(n, k, l)
        alpha = presentation._alphabet(sig)
        syms = s_k_symbols(sig)
        assert alpha.s_k == tuple(syms)
        assert alpha.s_q == tuple(s_q_symbols(sig))
        for i, s in enumerate(syms + s_q_symbols(sig), 1):
            for u, c in ((s, i), (s.inv(), -i)):
                assert alpha.code[u] == c
                assert alpha.letter[c] == u
                assert alpha.text[c] == format_name(sig, u)
                assert alpha.decode((c,)) == (u,)
        size = 2 * (len(syms) + len(s_q_symbols(sig)))
        assert len(alpha.code) == len(alpha.letter) == len(alpha.text) == size


@pytest.mark.parametrize("sig", [Signature(2, 0, 1), Signature(3, 0, 0), Signature(0, 0, 2)])
def test_in_s_k_is_false_without_y_letters(sig):
    assert presentation._alphabet(sig).s_k == ()
    for name in (m_name(1, 1, 2), c_name(2, 1), c_name(1, 2, power=-1)):
        assert in_s_k(sig, name) is False


def test_s_q_admits_no_swap_or_inversion_off_the_x_block():
    # P[1,4] would swap x1 with the boundary letter z1; I[4] would invert
    # z1; P[1,9] names a letter the signature does not have.
    sig = Signature(2, 1, 1)
    for t in (p_name(1, 4), i_name(4), p_name(1, 9)):
        for u in (t, t.inv()):
            assert not in_s_q(sig, u)
            with pytest.raises(ValueError):
                action_f(sig, u, m_name(1, 1, 3))


def test_alphabet_order_is_deterministic():
    assert s_k_symbols(S222) == s_k_symbols(S222)
    assert s_k_symbols(S111)[0] == m_name(1, 1, 2)
    assert s_q_symbols(S111)[0] == i_name(1)
    assert s_q_symbols(S111)[1] == c_name(3, 1)


# ---------------------------------------------------------------------------
# formal words over the symbol alphabet


def test_sym_reduce_cancels_power_pairs():
    a = m_name(1, 1, 3)
    b = c_name(5, 3)
    assert sym_reduce((a, a.inv(), b)) == (b,)
    assert sym_reduce(()) == ()
    assert sym_mul((a,), (a.inv(),), (b,)) == (b,)


def ref_sym_reduce(letters):
    """Free reduction that compares letters through GenName.base()."""
    stack = []
    for s in letters:
        if stack and stack[-1].base() == s.base() and stack[-1].power == -s.power:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


# For each of the fields kind, v, e and w, two names that differ in that
# field alone, so a comparison that skipped a field would cancel letters it
# must keep.
NEAR_NAMES = (
    m_name(1, 1, 3),
    m_name(1, -1, 3),
    m_name(1, 1, 2),
    c_name(1, 2),
    p_name(1, 2),
    i_name(1),
    i_name(2),
)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from(NEAR_NAMES), st.sampled_from((1, -1))),
        max_size=24,
    )
)
def test_sym_reduce_matches_the_base_reference(pairs):
    letters = tuple(n._replace(power=p) for n, p in pairs)
    assert sym_reduce(letters) == ref_sym_reduce(letters)


def test_sym_inv_reverses_and_inverts():
    a = m_name(1, 1, 3)
    b = c_name(5, 3)
    assert sym_inv((a, b)) == (b.inv(), a.inv())


def test_eval_symbol_word_instances():
    assert eval_symbol_word(S222, ()) == identity(S222)
    assert eval_symbol_word(S222, (m_name(1, 1, 3),)) == gen_aut(S222, m_name(1, 1, 3))
    for inst in enumerate_relations("rk", S111):
        rel = sym_mul(inst.lhs, sym_inv(inst.rhs))
        assert eval_symbol_word(S111, rel) == identity(S111)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_worked_instances():
    assert len(enumerate_relations("R5", Signature(1, 1, 0))) == 2
    assert enumerate_relations("N3", Signature(1, 0, 0)) == []
    # ordered pairs (x^e, w^d) with x^e != w^d, times the free y, v choices
    n, k = 2, 2
    assert len(enumerate_relations("R1.1", Signature(2, 2, 0))) == (
        (2 * n) ** 2 - 2 * n
    ) * k**2


def test_enumeration_resolves_dotted_tags():
    all_r1 = enumerate_relations("R1", S111)
    dotted = enumerate_relations("R1.2", S111)
    assert dotted and all(i.family == "R1.2" for i in dotted)
    assert set(dotted) <= set(all_r1)
    with pytest.raises(ValueError):
        enumerate_relations("R9", S111)
    with pytest.raises(ValueError):
        enumerate_relations("nonsense", S111)


def test_the_dotted_tags_are_the_ones_the_builders_emit():
    subfamilies = presentation._SUBFAMILIES
    emitted = {i.family for tag in subfamilies for i in enumerate_relations(tag, S222)}
    assert emitted - set(subfamilies) == set(presentation._DOTTED_TAGS)


def test_a_dotted_tag_builds_the_filtered_list_of_its_head():
    """At every n, k, l <= 3, a dotted tag's instances are those of its
    head family with that tag, in the same order, though only its own rows
    of the table are run."""
    for n, k, l in itertools.product(range(4), repeat=3):
        if not n + k + l:
            continue
        sig = Signature(n, k, l)
        for tag in presentation._DOTTED_TAGS:
            head = presentation._SUBFAMILIES[tag.split(".")[0]](sig)
            assert presentation._relations(tag, sig) == [i for i in head if i.family == tag]


def test_a_dotted_tag_runs_only_its_own_rows():
    """_builder of a dotted tag keeps each enclosing _Shared loop but no
    row of another tag."""
    for tag in presentation._DOTTED_TAGS:
        table = presentation._TABLE[tag.split(".")[0]]
        kept = list(presentation._tags(presentation._pruned(table, tag)))
        assert kept == [t for t in presentation._tags(table) if t == tag]
    (shared,) = presentation._pruned(presentation._TABLE["C2"], "C2.2")
    assert shared.loops == presentation._TABLE["C2"][0].loops
    assert [row.tag for row in shared.rows] == ["C2.2"]


@pytest.mark.parametrize("tag", ["R1.9", "Q4.1x", "N1.1", "R1.", "Q4.1''"])
def test_an_unknown_dotted_tag_is_refused(tag):
    for call in (enumerate_relations, verify_relations):
        with pytest.raises(ValueError, match="unknown relation family"):
            call(tag, S222)


def test_a_dotted_tag_without_instances_skips():
    report = verify_relations("C2.2", Signature(1, 1, 0))
    assert report.lines == [("C2.2", "no instances at this signature", "SKIP")]
    assert enumerate_relations("C2.2", Signature(1, 1, 0)) == []


def test_instances_carry_reduced_sides():
    for inst in enumerate_relations("jensen-wahl", S111):
        assert isinstance(inst, RelationInstance)
        assert sym_reduce(inst.lhs) == inst.lhs
        assert sym_reduce(inst.rhs) == inst.rhs


WORD_DIGEST = (
    102_176,
    "37f7330392d8aace975b1f00681dec12de7f28a174ad8b78ce13bac1bc20d650",
)


def _sq_letters(sig):
    """Each S_Q symbol beside its inverse, in s_q_symbols order."""
    return [u for s in s_q_symbols(sig) for u in (s, s.inv())]


def _word_tables(sig):
    """repr of every instance, residue row and action word at sig, as the
    public functions decode them."""
    for tag in presentation._SUBFAMILIES:
        for inst in enumerate_relations(tag, sig):
            yield repr((sig, tuple(inst)))
    for row in presentation.table5_rows(sig):
        yield repr((sig, row))
    syms = s_k_symbols(sig)
    for t in _sq_letters(sig):
        for s in syms:
            yield repr((sig, t, s, action_f(sig, t, s)))


def test_relation_and_action_words_match_the_recorded_digest():
    """Every word the tables spell, letter for letter, at n, k, l in 0..3.

    Any change to a letter, a power or the order of the instances, residue
    rows or action words changes the sha256 of their concatenated reprs.
    """
    digest = hashlib.sha256()
    count = 0
    for n, k, l in itertools.product(range(4), repeat=3):
        if n + k + l:
            for item in _word_tables(Signature(n, k, l)):
                digest.update(item.encode())
                count += 1
    assert (count, digest.hexdigest()) == WORD_DIGEST


WIDE_INSTANCE_DIGEST = (
    10_208,
    "f0b6a055fe10aa231cba2a00102767fdeec64313aeac429208e30f86911aa3ed",
)


def test_relation_instances_at_four_x_match_the_recorded_digest():
    """Every relation instance at (4,0,0), (4,1,1) and (4,2,2), as
    WORD_DIGEST spells them.  At n = 4 N1's [Pab,Pcd] block fires for the
    first time, and N4 and N5 are checked with every side condition live."""
    digest = hashlib.sha256()
    count = 0
    for sig in (Signature(4, 0, 0), Signature(4, 1, 1), Signature(4, 2, 2)):
        for tag in presentation._SUBFAMILIES:
            for inst in enumerate_relations(tag, sig):
                digest.update(repr((sig, tuple(inst))).encode())
                count += 1
    assert (count, digest.hexdigest()) == WIDE_INSTANCE_DIGEST


WIDE_TABLE5_DIGEST = (
    2_030,
    "f5b95feb84c159ebd29f12be99466ef6fb77065f781d6dac4fd7d700f4a1c38a",
)


def test_table5_rows_at_four_x_or_four_z_match_the_recorded_digest():
    """Every table5 row at (4,1,3), (4,2,2) and (2,2,4), as WORD_DIGEST
    spells them.  WORD_DIGEST stops at three x's and three z's; these
    signatures give all nine rows with four of either."""
    digest = hashlib.sha256()
    count = 0
    for sig in (Signature(4, 1, 3), Signature(4, 2, 2), Signature(2, 2, 4)):
        for row in presentation.table5_rows(sig):
            digest.update(repr((sig, row)).encode())
            count += 1
    assert (count, digest.hexdigest()) == WIDE_TABLE5_DIGEST


def test_second_multiplier_move_obstructs_commuting():
    # instances like [M[x1^+1,x2], M[x2^+1,y1]] are excluded from the
    # commuting family because the outer move drags the inner multiplier
    f = gen_aut(S222, m_name(1, 1, 2))
    g = gen_aut(S222, m_name(2, 1, 3))
    assert compose(f, g) != compose(g, f)
    for inst in enumerate_relations("Q2", S222):
        ms = [s for s in inst.lhs if s.kind == "M"]
        for a in ms:
            for b in ms:
                assert a.w != b.v


# ---------------------------------------------------------------------------
# verification reports


def test_verify_relations_frozen_counts():
    table = [
        ("nielsen", Signature(2, 0, 0), 27, 1),
        ("nielsen", Signature(3, 0, 0), 183, 0),
        ("jensen-wahl", Signature(1, 1, 2), 82, 0),
        ("rk", S111, 6, 3),
        ("rk", S222, 248, 0),
        ("c-lemma", S111, 8, 0),
        ("c-lemma", S222, 328, 0),
    ]
    for family, sig, passes, skips in table:
        rep = verify_relations(family, sig)
        assert rep.counts == {"PASS": passes, "FAIL": 0, "SKIP": skips}, (family, sig)
        assert rep.all_passed


def test_verify_relations_names_the_empty_subfamilies():
    rep = verify_relations("nielsen", Signature(2, 0, 0))
    assert [ln[0] for ln in rep.lines if ln[2] == "SKIP"] == ["N5"]
    rep = verify_relations("rk", Signature(0, 1, 0))
    assert [ln[0] for ln in rep.lines] == ["R1", "R2", "R3", "R4", "R5"]
    assert all(ln[2] == "SKIP" for ln in rep.lines)
    assert rep.all_passed


# The relation instances of the four groups at each signature.
QUOTIENT_COUNTS = {Signature(1, 1, 1): 42, Signature(2, 1, 0): 124, Signature(1, 2, 1): 187}


@pytest.mark.parametrize("sig", QUOTIENT_COUNTS, ids=str)
def test_every_relation_instance_holds_in_the_s3_quotient(sig):
    """Both sides of every instance permute Hom(F, S_3) alike, a check that
    reads only the generators' rows and never reduces a word."""
    oracle = FiniteQuotient(sig)
    insts = [i for family in FAMILY_GROUPS for i in enumerate_relations(family, sig)]
    assert len(insts) == QUOTIENT_COUNTS[sig]
    assert [i for i in insts if not oracle.holds(i.lhs, i.rhs)] == []


def _entries_in_the_s3_quotient(sig, table):
    """The (t, c) of each action entry whose row and t s_c t^-1 permute
    Hom(F, S_3) differently, for every S_Q letter t of table."""
    oracle = FiniteQuotient(sig)
    decode = presentation._alphabet(sig).decode
    codes = range(1, len(s_k_symbols(sig)) + 1)
    return [
        (t, c)
        for t, rows in table.items()
        for c in codes
        if not oracle.holds(decode((t, c, -t)), decode(rows[c]))
    ]


@pytest.mark.parametrize("sig", QUOTIENT_COUNTS, ids=str)
def test_every_action_entry_holds_in_the_s3_quotient(sig):
    """Each entry of the action table, at both powers of each S_Q letter,
    permutes the points as the conjugate t s t^-1 does."""
    table = presentation._action_table(sig, presentation._sq_codes(sig))
    assert any(t < 0 for t in table)
    assert _entries_in_the_s3_quotient(sig, table) == []


def test_the_s3_quotient_refuses_an_action_row_with_a_letter_appended():
    """Appending its own symbol to a row breaks every entry: no S_K symbol
    acts trivially on Hom(F, S_3)."""
    table = presentation._action_table(S111, presentation._sq_codes(S111))
    codes = range(1, len(s_k_symbols(S111)) + 1)
    mutant = {t: {c: rows[c] + (c,) for c in codes} for t, rows in table.items()}
    assert _entries_in_the_s3_quotient(S111, mutant) == [(t, c) for t in table for c in codes]


@pytest.mark.parametrize("sig,depth,count", [(S111, 3, 870), (Signature(2, 1, 0), 2, 944)], ids=str)
def test_every_expanded_relator_is_trivial_in_the_s3_quotient(sig, depth, count):
    """Every relator the expansion lists fixes every point of Hom(F, S_3)."""
    oracle = FiniteQuotient(sig)
    decode = presentation._alphabet(sig).decode
    relators = presentation._lpres_expand(sig, depth)[0]
    assert len(relators) == count
    assert [r for r in relators if not oracle.trivial(decode(r))] == []


# The table5 rows at each signature; together they give all nine rows.
TABLE5_QUOTIENT_COUNTS = {Signature(2, 1, 1): 28, Signature(1, 1, 2): 12, Signature(0, 1, 3): 6}


def _table5_in_the_s3_quotient(sig, rows):
    """[whether (t2 t1 s t1^-1 t2^-1)^-1 (t1 t2 s t2^-1 t1^-1) permutes
    Hom(F, S_3) as the row's residue does, for each table5 row]."""
    oracle = FiniteQuotient(sig)
    out = []
    for _, _, t1, t2, s, expected in rows:
        t2_t1_s = (t2, t1, s, t1.inv(), t2.inv())
        t1_t2_s = (t1, t2, s, t2.inv(), t1.inv())
        out.append(oracle.holds(sym_inv(t2_t1_s) + t1_t2_s, expected))
    return out


@pytest.mark.parametrize("sig", TABLE5_QUOTIENT_COUNTS, ids=str)
def test_every_table5_row_holds_in_the_s3_quotient(sig):
    """Each residue permutes Hom(F, S_3) as the commutator difference of
    its two letters on s does; with s appended to each residue, the oracle
    refuses every row."""
    rows = presentation.table5_rows(sig)
    assert len(rows) == TABLE5_QUOTIENT_COUNTS[sig]
    assert _table5_in_the_s3_quotient(sig, rows) == [True] * len(rows)
    mutant = [row[:5] + (row[5] + (row[4],),) for row in rows]
    assert _table5_in_the_s3_quotient(sig, mutant) == [False] * len(rows)


def test_table5_quotient_signatures_cover_every_row():
    rows = {row[0] for sig in TABLE5_QUOTIENT_COUNTS for row in presentation.table5_rows(sig)}
    assert rows == {f"row{i}" for i in range(1, 10)}


@pytest.mark.parametrize("sig", [S111, Signature(2, 1, 0)], ids=str)
def test_the_s3_quotient_refuses_a_seed_with_a_letter_appended(sig):
    """Every rk seed is trivial on Hom(F, S_3), and none stays trivial with
    any S_K symbol appended."""
    oracle = FiniteQuotient(sig)
    decode = presentation._alphabet(sig).decode
    seeds = presentation._lpres_expand(sig, 0)[1]
    codes = range(1, len(s_k_symbols(sig)) + 1)
    assert seeds
    assert [oracle.trivial(decode(r)) for r in seeds] == [True] * len(seeds)
    refused = [not oracle.trivial(decode(r + (c,))) for r in seeds for c in codes]
    assert refused == [True] * len(refused)


def test_the_s3_quotient_refuses_q2_1_with_w_equal_to_v(monkeypatch):
    """Q2.1 excludes w = v beside its signed-letter condition; a table row
    that admits it adds instances, and the oracle finds every one false."""
    sig = Signature(2, 1, 0)
    kept = set(enumerate_relations("Q2.1", sig))
    q21, *rest = presentation._TABLE["Q2"]
    loops = tuple(loop[:2] if loop[0] == "w" else loop for loop in q21.loops)
    assert loops != q21.loops
    monkeypatch.setitem(presentation._TABLE, "Q2", (q21._replace(loops=loops), *rest))
    monkeypatch.setitem(presentation._SUBFAMILIES, "Q2", presentation._builder("Q2"))
    added = [i for i in enumerate_relations("Q2.1", sig) if i not in kept]
    oracle = FiniteQuotient(sig)
    assert len(added) == 8
    assert [oracle.holds(i.lhs, i.rhs) for i in added] == [False] * len(added)


def test_jensen_wahl_subfamily_split_at_222():
    by_family = {}
    for inst in enumerate_relations("jensen-wahl", S222):
        head = inst.family.split(".")[0].rstrip("'")
        by_family[head] = by_family.get(head, 0) + 1
    assert by_family == {"Q1": 27, "Q2": 112, "Q3": 72, "Q4": 320, "Q5": 16}


DIFF_SIGS = (S111, Signature(1, 1, 2), Signature(2, 0, 0), S222)


def _corrupt_every_other_instance(monkeypatch, sig):
    """Each builder appends an S_Q letter to every other instance's lhs."""
    extra = presentation._sq_codes(sig)[0]

    def corrupted(sig_, build):
        return [
            i._replace(lhs=_free_reduce(i.lhs + (extra,))) if n % 2 else i
            for n, i in enumerate(build(sig_))
        ]

    for tag, build in list(presentation._SUBFAMILIES.items()):
        monkeypatch.setitem(
            presentation._SUBFAMILIES, tag, functools.partial(corrupted, build=build)
        )


@pytest.mark.parametrize("corrupt", [False, True], ids=["true", "corrupted"])
@pytest.mark.parametrize("sig", DIFF_SIGS, ids=str)
def test_coded_relation_flags_match_the_spelling_reference(monkeypatch, sig, corrupt):
    """Each verify_relations flag, decided on coded words, is
    spelling_aut(lhs) == spelling_aut(rhs) on the public, decoded instance;
    corrupted builders make both routes see the same failing instances."""
    if corrupt:
        _corrupt_every_other_instance(monkeypatch, sig)
    for family in FAMILY_GROUPS:
        lines = [ln for ln in verify_relations(family, sig).lines if ln[2] != "SKIP"]
        insts = enumerate_relations(family, sig)
        assert [ln[:2] for ln in lines] == [(i.family, i.params) for i in insts]
        want = [spelling_aut(sig, i.lhs) == spelling_aut(sig, i.rhs) for i in insts]
        assert [ln[2] == "PASS" for ln in lines] == want, (sig, family)
        assert all(want) != (corrupt and len(insts) > 1), (sig, family)


@pytest.mark.parametrize("corrupt", [False, True], ids=["true", "corrupted"])
@pytest.mark.parametrize("sig", DIFF_SIGS, ids=str)
def test_coded_table5_lines_match_the_action_extend_reference(monkeypatch, sig, corrupt):
    """Each verify_table5 line equals the action_extend reference on the
    decoded row; every other residue is corrupted, by one more letter or by
    its last letter inverted, and fails both."""
    if corrupt:
        rows = presentation._table5_rows(sig)
        for n in range(1, len(rows), 2):
            *head, s, expected = rows[n]
            if n % 4 == 1:
                expected += (s,)
            else:
                expected = expected[:-1] + (-expected[-1],)
            rows[n] = (*head, s, _free_reduce(expected))
        monkeypatch.setattr(presentation, "_table5_rows", lambda sig_: rows)
    rep = verify_table5(sig)
    assert rep.lines == _table5_by_action_extend(sig).lines
    assert rep.all_passed != (corrupt and rep.counts["PASS"] + rep.counts["FAIL"] > 1)


def test_warm_verify_spells_no_generator_name(monkeypatch):
    """With the alphabet and generator caches warm, each verify family at
    S222 builds and decides its words without one checked GenName
    constructor call (automorphism._name)."""
    runs = {f: functools.partial(verify_relations, f, S222) for f in FAMILY_GROUPS}
    runs["table5"] = functools.partial(verify_table5, S222)
    for run in runs.values():
        run()
    calls = []
    original = automorphism._name

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(automorphism, "_name", counted)
    for family, run in runs.items():
        assert run().all_passed
        assert calls == [], family


def test_report_mechanics():
    r = Report()
    r.add("F", "p=1", True)
    r.add("F", "p=2", False)
    r.skip("G", "empty")
    assert r.counts == {"PASS": 1, "FAIL": 1, "SKIP": 1}
    assert not r.all_passed
    text = r.format()
    assert text.splitlines()[0] == "F\tp=1\tPASS"
    assert text.splitlines()[-1] == "# total\t3\tpass\t1\tfail\t1\tskip\t1"
    assert r.format(summary=True) == text.splitlines()[-1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.none()), max_size=20))
def test_report_counts_equal_a_recount_of_its_lines(ops):
    """add and skip keep the counts; any mix of them reads as a recount."""
    r = Report()
    for i, ok in enumerate(ops):
        if ok is None:
            r.skip("G", f"note {i}")
        else:
            r.add("F", f"p={i}", ok)
    recount = {status: sum(ln[2] == status for ln in r.lines) for status in ("PASS", "FAIL", "SKIP")}
    assert r.counts == recount
    assert r.all_passed == (recount["FAIL"] == 0)
    assert r.format(summary=True) == (
        f"# total\t{len(r.lines)}\tpass\t{recount['PASS']}"
        f"\tfail\t{recount['FAIL']}\tskip\t{recount['SKIP']}"
    )
    r.counts["FAIL"] += 1  # a copy: the report's own counts stay
    assert r.counts == recount


# ---------------------------------------------------------------------------
# the rewriting action


def test_action_worked_instances():
    sig = S222
    y1 = 3
    t = m_name(2, 1, 1, power=-1)
    s = m_name(1, 1, y1)
    assert action_f(sig, t, s) == (m_name(1, 1, y1), m_name(2, 1, y1))
    assert action_f(sig, p_name(1, 2), m_name(1, 1, y1)) == (m_name(2, 1, y1),)
    # no matching row: the two moves commute
    assert action_f(sig, c_name(5, 1), c_name(3, 6)) == (c_name(3, 6),)


def test_action_rejects_bad_letters():
    with pytest.raises(ValueError):
        action_f(S222, m_name(1, 1, 3), m_name(1, 1, 3))  # t not in S_Q
    with pytest.raises(ValueError):
        action_f(S222, p_name(1, 2), c_name(5, 1))  # s not in S_K


def test_action_extend_is_trivial_on_the_empty_word():
    u = (m_name(1, 1, 3), c_name(5, 3, power=-1))
    assert action_extend(S222, (), u) == sym_reduce(u)


def test_action_extend_homomorphic_in_the_target_word():
    rng = random.Random(3)
    qs = s_q_symbols(S222)
    ks = s_k_symbols(S222)
    for _ in range(150):
        w = tuple(
            rng.choice(qs)._replace(power=rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 3))
        )
        u = tuple(
            rng.choice(ks)._replace(power=rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 4))
        )
        v = tuple(
            rng.choice(ks)._replace(power=rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 4))
        )
        lhs = action_extend(S222, w, sym_mul(u, v))
        rhs = sym_mul(action_extend(S222, w, u), action_extend(S222, w, v))
        assert lhs == rhs


def test_action_consistency_small_signatures():
    for sig, pairs in ((S111, 40), (Signature(0, 1, 2), 16)):
        for family in ("action", "inverse"):
            rep = verify_action_consistency(sig, family)
            assert rep.counts == {"PASS": pairs, "FAIL": 0, "SKIP": 0}, (sig, family)


def _action_consistency_by_action_extend(sig):
    """The reference report: one action_f per pair, undone by action_extend
    on GenName words.  It reads presentation.action_f at call time, so a
    monkeypatched action_f reaches it as it reaches the tabulated route."""
    report = Report()
    syms_q, syms_k = s_q_symbols(sig), s_k_symbols(sig)
    if not syms_q or not syms_k:
        report.skip("action", "alphabet empty at this signature")
        return report
    for q in syms_q:
        for pw in (1, -1):
            t = q._replace(power=pw)
            for s in syms_k:
                word = presentation.action_f(sig, t, s)
                params = f"t={format_name(sig, t)},s={format_name(sig, s)}"
                want = eval_symbol_word(sig, (t, s, t.inv())).images
                report.add("action", params, eval_symbol_word(sig, word).images == want)
                back = action_extend(sig, (t.inv(),), word)
                report.add("inverse", params, back == (s,))
    return report


def _table5_by_action_extend(sig):
    """The reference residue check: both orders through action_extend."""
    report = Report()
    rows = presentation.table5_rows(sig)
    if not rows:
        report.skip("table5", "no instances at this signature")
        return report
    for row, params, t1, t2, s, expected in rows:
        got = sym_mul(
            sym_inv(action_extend(sig, (t2, t1), (s,))),
            action_extend(sig, (t1, t2), (s,)),
        )
        report.add(f"table5.{row}", params, got == expected)
    return report


def _assert_action_checks_match_the_reference(sig):
    """Compare line by line, one call per family; return the two families'
    reports and table5's."""
    ref = _action_consistency_by_action_extend(sig)
    reps = []
    for family in ("action", "inverse"):
        want = [ln for ln in ref.lines if ln[0] == family or ln[2] == "SKIP"]
        reps.append(verify_action_consistency(sig, family))
        assert reps[-1].lines == want, (sig, family)
    residues = verify_table5(sig)
    assert residues.lines == _table5_by_action_extend(sig).lines, sig
    return reps, residues


def test_action_consistency_sweep():
    for n in range(0, 4):
        for k in range(1, 4):
            for l in range(0, 4):
                reps, residues = _assert_action_checks_match_the_reference(Signature(n, k, l))
                assert all(rep.all_passed for rep in reps), (n, k, l)
                assert residues.all_passed, (n, k, l)


def test_action_consistency_skips_an_empty_alphabet_for_each_family():
    skip = [("action", "alphabet empty at this signature", "SKIP")]
    for family in ("action", "inverse"):
        assert verify_action_consistency(Signature(2, 0, 0), family).lines == skip
    for wrong in ("actoin", ("action",)):
        with pytest.raises(ValueError):
            verify_action_consistency(S111, wrong)


def _corrupt_one_pair(monkeypatch, sig, t, s):
    """The coded action rows with one extra S_K letter on the row of (t, s).
    action_f decodes the same rows, so the reference sees the corruption."""
    original = presentation._action_word
    extra = presentation._alphabet(sig).code[next(u for u in s_k_symbols(sig) if u != s)]

    def wrong(sig_, t_, s_):
        word = original(sig_, t_, s_)
        return _free_reduce(word + (extra,)) if (t_, s_) == (t, s) else word

    monkeypatch.setattr(presentation, "_action_word", wrong)


def test_a_wrong_action_word_fails_its_action_line(monkeypatch):
    t, s = m_name(2, 1, 1, power=-1), m_name(1, 1, 3)
    _corrupt_one_pair(monkeypatch, S222, t, s)
    rep = verify_action_consistency(S222, "action")
    failed = [ln for ln in rep.lines if ln[2] == "FAIL"]
    assert failed == [("action", f"t={format_name(S222, t)},s={format_name(S222, s)}", "FAIL")]
    assert rep.counts["PASS"] == len(rep.lines) - 1
    # The tabulated and the action_extend routes agree on the broken table too.
    _assert_action_checks_match_the_reference(S222)
    assert not verify_action_consistency(S222, "inverse").all_passed


@pytest.mark.parametrize("power", [1, -1])
def test_a_corrupted_row_fails_only_its_own_action_line(monkeypatch, power):
    """A wrong power +1 row breaks the premise of its inverse letter's
    transport, a wrong power -1 row that of its own; either way the lines
    equal the reference's entry-by-entry evaluation, with the one FAIL."""
    t, s = m_name(2, 1, 1, power=power), m_name(1, -1, 3)
    _corrupt_one_pair(monkeypatch, S222, t, s)
    _assert_action_checks_match_the_reference(S222)
    rep = verify_action_consistency(S222, "action")
    failed = [ln for ln in rep.lines if ln[2] == "FAIL"]
    assert failed == [("action", f"t={format_name(S222, t)},s={format_name(S222, s)}", "FAIL")]


def test_a_correct_table_evaluates_only_the_power_plus_one_entries(monkeypatch):
    words = []
    original = presentation._trivial

    def counted(sig, batch):
        words.extend(map(presentation._alphabet(sig).decode, batch))
        return original(sig, batch)

    monkeypatch.setattr(presentation, "_trivial", counted)
    rep = verify_action_consistency(S222, "action")
    assert rep.counts == {"PASS": 42 * 22, "FAIL": 0, "SKIP": 0}
    # Each word is an entry's row followed by t s^-1 t^-1.
    assert len(words) == 21 * 22
    assert all(w[-3].power == 1 and w[-1] == w[-3].inv() for w in words)
    assert {(w[-3], w[-2].inv()) for w in words} == {
        (t, s) for t in s_q_symbols(S222) for s in s_k_symbols(S222)
    }


def test_a_corrupted_fixed_row_fails_its_inverse_lines(monkeypatch):
    """t fixes s, and the row of (t^-1, s) in the table is s times another
    S_K letter.  The "inverse" line of (t, s) substitutes the fixed row
    (s) into t^-1's table, which gives that row, the line of (t^-1, s)
    substitutes it into t's table, and both fail.  The transport premise of the power -1
    entries fails too, so _entries_hold evaluates them, and the one FAIL
    "action" line is that of (t^-1, s)."""
    alpha = presentation._alphabet(S222)
    t, s = m_name(2, 1, 1), c_name(5, 3)
    tc, c = alpha.code[t], alpha.code[s]
    extra = alpha.code[m_name(1, 1, 3)]
    original = presentation._action_table

    def corrupted(sig, letters):
        table = original(sig, letters)
        assert table[tc][c] == (c,)
        back = list(table[-tc])
        back[c], back[-c] = (c, extra), (-extra, -c)
        table[-tc] = tuple(back)
        return table

    monkeypatch.setattr(presentation, "_action_table", corrupted)
    lines = [f"t={format_name(S222, u)},s={format_name(S222, s)}" for u in (t, t.inv())]
    rep = verify_action_consistency(S222, "inverse")
    assert [ln for ln in rep.lines if ln[2] == "FAIL"] == [("inverse", p, "FAIL") for p in lines]
    words = []
    original_trivial = presentation._trivial

    def counted(sig, batch):
        words.extend(map(presentation._alphabet(sig).decode, batch))
        return original_trivial(sig, batch)

    monkeypatch.setattr(presentation, "_trivial", counted)
    rep = verify_action_consistency(S222, "action")
    assert [ln for ln in rep.lines if ln[2] == "FAIL"] == [("action", lines[1], "FAIL")]
    assert len(words) == 42 * 22
    assert sum(w[-3].power == -1 for w in words) == 21 * 22


@pytest.mark.parametrize("n,tail", [(5, 1), (0, 2)], ids=["one-more-letter", "unreduced"])
def test_a_corrupted_residue_fails_its_table5_line(monkeypatch, n, tail):
    """A residue is compared as built, like the action_extend reference
    does: one more letter s, or an unreduced s s^-1 appended, fails."""
    rows = presentation._table5_rows(S222)
    row, params, t1, t2, s, expected = rows[n]
    rows[n] = (row, params, t1, t2, s, expected + (s, -s)[:tail])
    monkeypatch.setattr(presentation, "_table5_rows", lambda sig: rows)
    rep = verify_table5(S222)
    assert rep.lines == _table5_by_action_extend(S222).lines
    assert [ln for ln in rep.lines if ln[2] == "FAIL"] == [(f"table5.{row}", params, "FAIL")]
    assert rep.counts["PASS"] == len(rows) - 1


# ---------------------------------------------------------------------------
# the commutator-difference table


def test_residue_table_row_census():
    rep = verify_table5(S222)
    assert rep.all_passed
    by_row = {}
    for fam, _, _ in rep.lines:
        by_row[fam] = by_row.get(fam, 0) + 1
    assert by_row == {
        "table5.row1": 8,
        "table5.row2": 16,
        "table5.row3": 8,
        "table5.row4": 8,
        "table5.row5": 16,
        "table5.row6": 8,
        "table5.row7": 48,
        "table5.row8": 16,
    }


def test_residue_table_three_z_row_needs_three_zs():
    rep = verify_table5(Signature(1, 1, 3))
    assert rep.all_passed
    rows = {fam for fam, _, _ in rep.lines}
    assert "table5.row9" in rows
    assert sum(1 for fam, _, _ in rep.lines if fam == "table5.row9") == 6


# ---------------------------------------------------------------------------
# support and multiplier bookkeeping


def test_support_and_mult_worked_instances():
    assert support_letter(m_name(1, 1, 5)) == frozenset({1})
    assert mult_letter(m_name(1, 1, 5)) == frozenset({5})
    assert support_letter(i_name(1)) == frozenset({1, -1})
    assert mult_letter(i_name(1)) == frozenset({1})
    assert support_letter(p_name(1, 2)) == frozenset({1, -1, 2, -2})
    assert support_letter(c_name(5, 3)) == frozenset({5, -5})
    assert support(()) == frozenset()
    assert mult_set((m_name(1, 1, 3), c_name(5, 3))) == frozenset({3})


def test_support_ignores_the_formal_power():
    for s in s_k_symbols(S222) + s_q_symbols(S222):
        assert support_letter(s.inv()) == support_letter(s)
        assert mult_letter(s.inv()) == mult_letter(s)


def test_disjoint_supports_imply_fixing():
    sig = Signature(3, 2, 2)
    rng = random.Random(41)
    ks, qs = s_k_symbols(sig), s_q_symbols(sig)
    gens = list(sig.gens())
    built = 0
    while built < 800:
        half = {g for g in gens if rng.randrange(2)}
        s_pool = [n for n in ks if admissible(n, half)]
        t_pool = [n for n in qs if admissible(n, set(gens) - half)]
        if not s_pool or not t_pool:
            continue
        s_word = sym_reduce(
            tuple(
                rng.choice(s_pool)._replace(power=rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 4))
            )
        )
        t_word = tuple(
            rng.choice(t_pool)._replace(power=rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 4))
        )
        assert disjointness_conditions(s_word, t_word)
        assert action_extend(sig, t_word, s_word) == s_word
        built += 1


def test_rewrite_stays_inside_the_support_bounds():
    rng = random.Random(42)
    ks, qs = s_k_symbols(S222), s_q_symbols(S222)
    # every single-letter pair, both powers of t
    for q in qs:
        for pw in (1, -1):
            t = q._replace(power=pw)
            for s in ks:
                got = action_f(S222, t, s)
                ms = {c for m in mult_letter(s) for c in (m, -m)}
                assert support(got) <= support_letter(s) | support_letter(t) | ms
                assert mult_set(got) <= mult_letter(s) | mult_letter(t)
    # random words through the extension
    for _ in range(1000):
        t = rng.choice(qs)._replace(power=rng.choice((1, -1)))
        s_word = sym_reduce(
            tuple(
                rng.choice(ks)._replace(power=rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 4))
            )
        )
        got = action_extend(S222, (t,), s_word)
        ms = {c for m in mult_set(s_word) for c in (m, -m)}
        assert support(got) <= support(s_word) | support((t,)) | ms
        assert mult_set(got) <= mult_set(s_word) | mult_letter(t)


# ---------------------------------------------------------------------------
# expansion of the seed relations


def test_reduced_sq_words_census():
    words = reduced_sq_words(S111, 2)
    assert len(words) == 65
    assert len(set(words)) == 65
    for w in words:
        for a, b in zip(w, w[1:]):
            assert not (a.base() == b.base() and a.power == -b.power)
    assert reduced_sq_words(S111, 2) == words


def test_expansion_depth_zero_is_the_seed_set():
    seeds = [
        sym_mul(i.lhs, sym_inv(i.rhs)) for i in enumerate_relations("rk", S111)
    ]
    assert lpres_expand(S111, 0) == seeds


def test_expansion_frozen_counts_and_prefix_growth():
    e0 = lpres_expand(S111, 0)
    e1 = lpres_expand(S111, 1)
    assert (len(e0), len(e1)) == (6, 38)
    assert e1[: len(e0)] == e0
    assert len(set(e1)) == len(e1)


def test_expansion_output_evaluates_trivially():
    idt = identity(S111)
    for rel in lpres_expand(S111, 1):
        assert eval_symbol_word(S111, rel) == idt


def _expand_by_action_extend(sig, depth):
    """The reference expansion: the whole action chain per S_Q word."""
    seeds = [sym_mul(i.lhs, sym_inv(i.rhs)) for i in enumerate_relations("rk", sig)]
    seen = set()
    out = []
    for w in reduced_sq_words(sig, depth):
        for r in seeds:
            v = action_extend(sig, w, r)
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def _decoded(sig, relators):
    """lpres_expand_proved's S_K codes as symbol words."""
    return [presentation._alphabet(sig).decode(r) for r in relators]


def _all_relators_trivial(sig, relators):
    """The reference verdict: every relator evaluated to its image table."""
    idt = identity(sig).images
    return all(eval_symbol_word(sig, r).images == idt for r in relators)


@pytest.mark.parametrize(
    "sig,depth",
    [(S111, d) for d in range(4)]
    + [(Signature(1, 2, 1), d) for d in range(3)]
    + [(Signature(2, 1, 1), d) for d in range(3)]
    + [(S222, 1), (Signature(2, 0, 1), 2)],
)
def test_expansion_matches_the_action_extend_reference(sig, depth):
    want = _expand_by_action_extend(sig, depth)
    assert lpres_expand(sig, depth) == want
    # Both verdicts pass on the true table: relator by relator, and by transport.
    assert _all_relators_trivial(sig, want)
    relators, sound = lpres_expand_proved(sig, depth)
    assert (_decoded(sig, relators), sound) == (want, True)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([(S111, 2), (Signature(2, 1, 1), 1)]), data=st.data())
def test_a_corrupted_table_entry_fails_the_transport_verdict(case, data):
    """One action entry gets up to three extra S_K letters; the transport
    verdict fails exactly when that entry no longer evaluates to t s t^-1,
    and always when the relator-by-relator reference finds a nontrivial
    relator.  The built table's rows c and -c of t are replaced, so the
    corruption reaches the table also where t fixes s."""
    sig, depth = case
    syms = s_k_symbols(sig)
    t = data.draw(st.sampled_from(_sq_letters(sig)))
    s = data.draw(st.sampled_from(syms))
    extra = tuple(
        data.draw(st.lists(st.sampled_from(syms + [u.inv() for u in syms]), min_size=1, max_size=3))
    )
    alpha = presentation._alphabet(sig)
    tc, c = alpha.code[t], alpha.code[s]
    row = _free_reduce(presentation._action_word(sig, t, s) + tuple(alpha.code[u] for u in extra))
    original = presentation._action_table

    def wrong(sig_, letters):
        table = original(sig_, letters)
        sub = list(table[tc])
        sub[c], sub[-c] = row, automorphism._inverted(row)
        table[tc] = tuple(sub)
        return table

    with mock.patch.object(presentation, "_action_table", wrong):
        relators, sound = lpres_expand_proved(sig, depth)
    relators = _decoded(sig, relators)
    entry = alpha.decode(row)
    entry_holds = (
        eval_symbol_word(sig, entry).images == eval_symbol_word(sig, (t, s, t.inv())).images
    )
    assert sound == entry_holds
    if not _all_relators_trivial(sig, relators):
        assert not sound


@pytest.mark.parametrize(
    "sig,depth",
    [(S111, 2), (S111, 3), (S222, 1), (Signature(2, 1, 0), 3), (Signature(1, 1, 2), 3)],
)
def test_expansion_tabulates_the_action_once(monkeypatch, sig, depth):
    """_action_word runs once per (letter, symbol) pair whose fields share
    a code (no other symbol can move), and _substitute once per distinct
    (first letter, length, relator) triple whose relator holds a letter
    that the first letter moves: a fixed relator is its own image, and the
    words of one length that start with one letter share images."""
    calls = {"_action_word": 0, "_substitute": 0}

    def counted(name):
        original = getattr(presentation, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(presentation, name, wrapper)

    table = dense_action_table(sig, presentation._sq_codes(sig))
    rels = dict(relators_by_word(sig, depth))
    counted("_action_word")
    counted("_substitute")
    lpres_expand(sig, depth)
    triples = {
        (w[0], len(w), r)
        for w in rels
        if w
        for r in rels[w[1:]]
        if any(table[w[0]][c] != (c,) for c in r)
    }
    dense = 2 * len(s_q_symbols(sig)) * len(s_k_symbols(sig))
    assert calls["_action_word"] == meeting_pairs(sig) < dense
    assert calls["_substitute"] == len(triples)
    # the work the per-word reference does, and the shortcuts remove
    assert len(triples) < (len(rels) - 1) * len(rels[()])


@pytest.mark.parametrize(
    "sig,depth",
    [
        (S111, 4),
        (Signature(2, 1, 0), 3),
        (Signature(0, 1, 2), 3),
        (Signature(1, 2, 1), 2),
        (S222, 2),
        (Signature(1, 1, 2), 3),
    ],
)
def test_expansion_matches_the_per_word_reference(sig, depth):
    """The relators, their order and the seeds equal those of the per-word
    loop that substitutes every relator of every word."""
    relators, seeds, table = presentation._lpres_expand(sig, depth)
    assert relators == expand_per_word(sig, depth)
    assert seeds == reference_seeds(sig)
    assert table == dense_action_table(sig, presentation._sq_codes(sig))


def test_action_tables_match_the_dense_build():
    """At every signature up to (3,3,3) and at (4,3,3), for every S_Q letter
    and for the letters verify_table5 asks for, each table equals the one
    that reduces and inverts every row."""
    for n, k, l in [*itertools.product(range(4), repeat=3), (4, 3, 3)]:
        if not n + k + l:
            continue
        sig = Signature(n, k, l)
        full = presentation._sq_codes(sig)
        table5 = list(dict.fromkeys(t for row in presentation._table5_rows(sig) for t in row[2:4]))
        for letters in (full, table5):
            assert presentation._action_table(sig, letters) == dense_action_table(sig, letters)


def test_expansion_frees_little_beyond_its_dedup_set():
    """What _lpres_expand frees on return stays below a set of its relators
    plus 1 MiB: besides seen, it holds only the layer the next length reads,
    and the last length keeps no image lists."""
    presentation._alphabet(S222)
    tracemalloc.start()
    try:
        relators, _, _ = presentation._lpres_expand(S222, 2)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < sys.getsizeof(set(relators)) + 2**20


def test_expansion_rejects_negative_depth():
    with pytest.raises(ValueError):
        lpres_expand(S111, -1)


def test_reduced_sq_words_rejects_negative_depth():
    assert reduced_sq_words(S111, 0) == [()]
    with pytest.raises(ValueError, match="depth must be >= 0"):
        reduced_sq_words(S111, -1)
