"""Relation tables, the rewriting action, support bounds, expansion."""

import random

import pytest

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
    gen_aut,
    i_name,
    identity,
    inverse,
    lpres_expand,
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
    for sig in (S111, S222):
        for s in s_k_symbols(sig):
            assert in_s_k(sig, s) and not in_s_q(sig, s)
        for t in s_q_symbols(sig):
            assert in_s_q(sig, t) and not in_s_k(sig, t)
    # powers are ignored by admissibility
    assert in_s_k(S222, c_name(5, 3, power=-1))


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


def test_sym_inv_pow_conj_comm():
    a = m_name(1, 1, 3)
    b = c_name(5, 3)
    assert sym_inv((a, b)) == (b.inv(), a.inv())
    assert sym_pow((a,), 3) == (a, a, a)
    assert sym_pow((a,), -2) == (a.inv(), a.inv())
    assert sym_conj((a,), (b,)) == (b, a, b.inv())
    assert sym_comm((a,), (b,)) == (a, b, a.inv(), b.inv())


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


def test_action_consistency_sweep():
    for n in range(0, 4):
        for k in range(1, 4):
            for l in range(0, 4):
                rep = verify_action_consistency(Signature(n, k, l))
                assert rep.all_passed, (n, k, l)


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


def test_expansion_rejects_negative_depth():
    with pytest.raises(ValueError):
        lpres_expand(S111, -1)
