"""Relation tables, the rewriting action, support bounds, expansion."""

import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autfb.presentation as presentation
from autfb import (
    RelationInstance,
    Report,
    Signature,
    action_extend,
    action_f,
    c_name,
    compose,
    disjointness_conditions,
    enumerate_relations,
    eval_symbol_word,
    format_name,
    gen_aut,
    i_name,
    identity,
    lpres_expand,
    lpres_expand_proved,
    m_name,
    mul_gen,
    mult_set,
    p_name,
    s_k_symbols,
    s_n_symbols,
    s_q_symbols,
    support,
    sym_comm,
    sym_conj,
    sym_inv,
    sym_mul,
    sym_pow,
    sym_reduce,
    symbol_images,
    verify_action_consistency,
    verify_relations,
    verify_table5,
)
from autfb.presentation import (
    in_s_k,
    in_s_q,
    mult_letter,
    reduced_sq_words,
    support_letter,
)

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
    which maps back to the letter and to its format_name."""
    for n, k, l in itertools.product(range(4), repeat=3):
        if not n + k + l:
            continue
        sig = Signature(n, k, l)
        alpha = presentation._alphabet(sig)
        syms = s_k_symbols(sig)
        assert alpha.s_k == tuple(syms)
        assert alpha.ksig == (Signature(len(syms), 0, 0) if syms else None)
        for i, s in enumerate(syms, 1):
            for u, c in ((s, i), (s.inv(), -i)):
                assert alpha.code[u] == c
                assert alpha.letter[c] == u
                assert alpha.text[c] == format_name(sig, u)
                assert alpha.decode(alpha.encode((u,)).letters) == (u,)
        assert len(alpha.code) == len(alpha.letter) == len(alpha.text) == 2 * len(syms)


@pytest.mark.parametrize("sig", [Signature(2, 0, 1), Signature(3, 0, 0), Signature(0, 0, 2)])
def test_in_s_k_is_false_without_y_letters(sig):
    assert presentation._alphabet(sig).ksig is None
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


def test_sym_inv_pow_conj_comm():
    a = m_name(1, 1, 3)
    b = c_name(5, 3)
    assert sym_inv((a, b)) == (b.inv(), a.inv())
    assert sym_pow((a,), 3) == (a, a, a)
    assert sym_pow((a,), -2) == (a.inv(), a.inv())
    assert sym_conj((a,), (b,)) == (b, a, b.inv())
    assert sym_comm((a,), (b,)) == (a, b, a.inv(), b.inv())


SYMBOL_POOL = {
    sig: [
        s._replace(power=p)
        for s in s_q_symbols(sig) + s_k_symbols(sig)
        for p in (1, -1)
    ]
    for sig in (S111, S222)
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((S111, S222)).flatmap(
        lambda sig: st.tuples(
            st.just(sig), st.lists(st.sampled_from(SYMBOL_POOL[sig]), max_size=8)
        )
    )
)
@example((S111, []))
@example((S222, []))
def test_symbol_images_are_the_forward_table(case):
    sig, letters = case
    w = tuple(letters)
    assert symbol_images(sig, w) == eval_symbol_word(sig, w).images


def test_eval_symbol_word_instances():
    assert eval_symbol_word(S222, ()) == identity(S222)
    assert eval_symbol_word(S222, (m_name(1, 1, 3),)) == mul_gen(S222, 1, 1, 3)
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


def test_instances_carry_reduced_sides():
    for inst in enumerate_relations("jensen-wahl", S111):
        assert isinstance(inst, RelationInstance)
        assert sym_reduce(inst.lhs) == inst.lhs
        assert sym_reduce(inst.rhs) == inst.rhs


WORD_DIGEST = (
    102_176,
    "37f7330392d8aace975b1f00681dec12de7f28a174ad8b78ce13bac1bc20d650",
)


def _word_tables(sig):
    """repr of every instance, residue row and action word at sig."""
    for build in presentation._SUBFAMILIES.values():
        for inst in build(sig):
            yield repr((sig, tuple(inst)))
    for row in presentation.table5_rows(sig):
        yield repr((sig, row))
    syms = s_k_symbols(sig)
    for t in presentation._sq_letters(sig):
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


def test_jensen_wahl_subfamily_split_at_222():
    by_family = {}
    for inst in enumerate_relations("jensen-wahl", S222):
        head = inst.family.split(".")[0].rstrip("'")
        by_family[head] = by_family.get(head, 0) + 1
    assert by_family == {"Q1": 27, "Q2": 112, "Q3": 72, "Q4": 320, "Q5": 16}


def test_report_mechanics():
    r = Report()
    r.add("F", "p=1", True)
    r.add("F", "p=2", False)
    r.skip("G", "empty")
    assert r.counts == {"PASS": 1, "FAIL": 1, "SKIP": 1}
    assert not r.all_passed
    merged = r.merged(r)
    assert len(merged.lines) == 6
    text = r.format()
    assert text.splitlines()[0] == "F\tp=1\tPASS"
    assert text.splitlines()[-1] == "# total\t3\tpass\t1\tfail\t1\tskip\t1"
    assert r.format(summary=True) == text.splitlines()[-1]


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
    rep = verify_action_consistency(S111)
    assert rep.counts == {"PASS": 80, "FAIL": 0, "SKIP": 0}
    rep = verify_action_consistency(Signature(0, 1, 2))
    assert rep.counts == {"PASS": 32, "FAIL": 0, "SKIP": 0}


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
                ok = symbol_images(sig, word) == symbol_images(sig, (t, s, t.inv()))
                report.add("action", params, ok)
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
    """Compare line by line; return the action pair's and table5's reports."""
    ref = _action_consistency_by_action_extend(sig)
    rep = verify_action_consistency(sig)
    assert rep.lines == ref.lines, sig
    for family in ("action", "inverse"):
        want = [ln for ln in ref.lines if ln[0] == family or ln[2] == "SKIP"]
        assert verify_action_consistency(sig, (family,)).lines == want, (sig, family)
    residues = verify_table5(sig)
    assert residues.lines == _table5_by_action_extend(sig).lines, sig
    return rep, residues


def test_action_consistency_sweep():
    for n in range(0, 4):
        for k in range(1, 4):
            for l in range(0, 4):
                rep, residues = _assert_action_checks_match_the_reference(Signature(n, k, l))
                assert rep.all_passed, (n, k, l)
                assert residues.all_passed, (n, k, l)


def test_action_consistency_skips_an_empty_alphabet_for_each_family():
    skip = [("action", "alphabet empty at this signature", "SKIP")]
    for families in (("action",), ("inverse",), ("action", "inverse")):
        assert verify_action_consistency(Signature(2, 0, 0), families).lines == skip
    with pytest.raises(ValueError):
        verify_action_consistency(S111, ("actoin",))


def _corrupt_one_pair(monkeypatch, sig, t, s):
    """action_f with one extra S_K letter on the image of (t, s)."""
    original = presentation.action_f
    extra = next(u for u in s_k_symbols(sig) if u != s)

    def wrong(sig_, t_, s_):
        word = original(sig_, t_, s_)
        return sym_mul(word, (extra,)) if (t_, s_) == (t, s) else word

    monkeypatch.setattr(presentation, "action_f", wrong)


def test_a_wrong_action_word_fails_its_action_line(monkeypatch):
    t, s = m_name(2, 1, 1, power=-1), m_name(1, 1, 3)
    _corrupt_one_pair(monkeypatch, S222, t, s)
    rep = verify_action_consistency(S222, ("action",))
    failed = [ln for ln in rep.lines if ln[2] == "FAIL"]
    assert failed == [("action", f"t={format_name(S222, t)},s={format_name(S222, s)}", "FAIL")]
    assert rep.counts["PASS"] == len(rep.lines) - 1
    # The tabulated and the action_extend routes agree on the broken table too.
    _assert_action_checks_match_the_reference(S222)
    assert not verify_action_consistency(S222, ("inverse",)).all_passed


def test_a_corrupted_residue_fails_its_table5_line(monkeypatch):
    rows = presentation.table5_rows(S222)
    row, params, t1, t2, s, expected = rows[5]
    rows[5] = (row, params, t1, t2, s, sym_mul(expected, (s,)))
    monkeypatch.setattr(presentation, "table5_rows", lambda sig: rows)
    rep = verify_table5(S222)
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


def _admissible(name, allowed):
    pool = set(support_letter(name)) | {
        c for m in mult_letter(name) for c in (m, -m)
    }
    return all(abs(c) in allowed for c in pool)


def test_disjoint_supports_imply_fixing():
    sig = Signature(3, 2, 2)
    rng = random.Random(41)
    ks, qs = s_k_symbols(sig), s_q_symbols(sig)
    gens = list(sig.gens())
    built = 0
    while built < 800:
        half = {g for g in gens if rng.randrange(2)}
        s_pool = [n for n in ks if _admissible(n, half)]
        t_pool = [n for n in qs if _admissible(n, set(gens) - half)]
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
    return all(symbol_images(sig, r) == idt for r in relators)


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
    relator."""
    sig, depth = case
    syms = s_k_symbols(sig)
    t = data.draw(st.sampled_from(presentation._sq_letters(sig)))
    s = data.draw(st.sampled_from(syms))
    extra = tuple(
        data.draw(st.lists(st.sampled_from(syms + [u.inv() for u in syms]), min_size=1, max_size=3))
    )
    original = presentation.action_f

    def wrong(sig_, t_, s_):
        word = original(sig_, t_, s_)
        return sym_mul(word, extra) if (t_, s_) == (t, s) else word

    with mock.patch.object(presentation, "action_f", wrong):
        relators, sound = lpres_expand_proved(sig, depth)
    relators = _decoded(sig, relators)
    entry_holds = symbol_images(sig, wrong(sig, t, s)) == symbol_images(sig, (t, s, t.inv()))
    assert sound == entry_holds
    if not _all_relators_trivial(sig, relators):
        assert not sound


@pytest.mark.parametrize("sig,depth", [(S111, 2), (S222, 1)])
def test_expansion_tabulates_the_action_once(monkeypatch, sig, depth):
    calls = {"action_f": 0, "_apply_table": 0}

    def counted(name):
        original = getattr(presentation, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(presentation, name, wrapper)

    counted("action_f")
    counted("_apply_table")
    lpres_expand(sig, depth)
    seeds = enumerate_relations("rk", sig)
    words = reduced_sq_words(sig, depth)
    assert calls["action_f"] == 2 * len(s_q_symbols(sig)) * len(s_k_symbols(sig))
    assert calls["_apply_table"] == (len(words) - 1) * len(seeds)


def test_expansion_rejects_negative_depth():
    with pytest.raises(ValueError):
        lpres_expand(S111, -1)
