"""Acceptance runs: one test per shipped guarantee, with stated budgets.

Each test prints a single machine-readable line when its criterion holds.
Random sampling is seeded, so a rerun sees the same instances.
"""

import random
import time

from autfb import (
    FormalSum,
    PairingContext,
    Signature,
    WedgeElement,
    ab_matrix,
    abelianization_rank,
    act_hom,
    action_extend,
    compose,
    con_gen,
    disjointness_conditions,
    eval_symbol_word,
    gen_aut,
    hat,
    i_s,
    identity,
    inverse,
    is_in_autfb_prime,
    johnson_class,
    johnson_full,
    johnson_y,
    johnson_z,
    lpres_expand,
    mu_witnesses,
    mul_gen,
    mult_set,
    pairing,
    s_k_symbols,
    s_q_symbols,
    sigma,
    support,
    support_of_twist,
    sym_reduce,
    closed_form_rank,
    independence_witness,
    verify_action_consistency,
    verify_relations,
    verify_table5,
    wedge_push,
    zeta_eval,
)
from autfb.abelianization import wedge_single
from autfb.presentation import mult_letter, support_letter

S222 = Signature(2, 2, 2)


def _report(num, label):
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_a01_pure_x_relation_tables():
    t0 = time.perf_counter()
    expect = {2: 27, 3: 183, 4: 700}
    for n, passes in expect.items():
        rep = verify_relations("nielsen", Signature(n, 0, 0))
        assert rep.all_passed
        assert rep.counts["PASS"] == passes
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, "pure-x relation tables")


def test_a02_full_group_relation_tables():
    t0 = time.perf_counter()
    expect = {(2, 2, 2): 547, (1, 1, 2): 82, (3, 1, 1): 591}
    for sig, passes in expect.items():
        rep = verify_relations("jensen-wahl", Signature(*sig))
        assert rep.all_passed
        assert rep.counts == {"PASS": passes, "FAIL": 0, "SKIP": 0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, "full-group relation tables")


def test_a03_rewriting_action_consistency():
    t0 = time.perf_counter()
    rep = verify_action_consistency(S222)
    assert rep.all_passed
    families = {ln[0] for ln in rep.lines}
    assert families == {"action", "inverse"}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, "rewriting action and inverse consistency")


def test_a04_residue_rewrite_table():
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
    _report(4, "residue rewrite table")


def _admissible(name, allowed):
    pool = set(support_letter(name)) | {
        c for m in mult_letter(name) for c in (m, -m)
    }
    return all(abs(c) in allowed for c in pool)


def test_a05_support_bounds_random_sweep():
    sig = Signature(3, 2, 2)
    rng = random.Random(51)
    ks, qs = s_k_symbols(sig), s_q_symbols(sig)
    gens = list(sig.gens())

    built = 0
    while built < 5000:
        half = {g for g in gens if rng.randrange(2)}
        s_pool = [m for m in ks if _admissible(m, half)]
        t_pool = [m for m in qs if _admissible(m, set(gens) - half)]
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

    ks2, qs2 = s_k_symbols(S222), s_q_symbols(S222)
    for _ in range(5000):
        t = rng.choice(qs2)._replace(power=rng.choice((1, -1)))
        s_word = sym_reduce(
            tuple(
                rng.choice(ks2)._replace(power=rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 4))
            )
        )
        got = action_extend(S222, (t,), s_word)
        ms = {c for m in mult_set(s_word) for c in (m, -m)}
        assert support(got) <= support(s_word) | support((t,)) | ms
        assert mult_set(got) <= mult_set(s_word) | mult_letter(t)
    _report(5, "support bounds, 10000 random instances")


def test_a06_seed_relation_expansion():
    t0 = time.perf_counter()
    s111 = Signature(1, 1, 1)
    words = lpres_expand(s111, 2)
    assert len(words) == 182
    idt = identity(s111)
    for w in words:
        assert eval_symbol_word(s111, w) == idt
    words = lpres_expand(S222, 1)
    assert len(words) == 5040
    idt = identity(S222)
    for w in words:
        assert eval_symbol_word(S222, w) == idt
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, "seed relation expansion stays trivial")


def test_a07_rank_sweep_and_count_resolution():
    mismatch_alternative = 0
    for n in range(0, 4):
        for k in range(1, 4):
            for l in range(0, 4):
                sig = Signature(n, k, l)
                got = abelianization_rank(sig)
                assert got == closed_form_rank(sig), sig
                if n >= 1:
                    single = 2 * k * n + k * l
                    if l >= 1:
                        assert got != single, sig
                        mismatch_alternative += 1
                    else:
                        assert got == single, sig
    assert mismatch_alternative == 27
    _report(
        7,
        "rank sweep: doubled z-multiplier count matches everywhere,"
        " the halved variant fails at every signature with both x's and z's",
    )


def test_a08_proof_bullet_values():
    s022 = Signature(0, 2, 2)
    # without x-generators: one wedge per move, at its own letter only
    for name in s_k_symbols(s022):
        full = johnson_full(s022, gen_aut(s022, name))
        for c in s022.gens():
            expect = wedge_single(name.v, name.w) if c == name.v else WedgeElement()
            assert full[c] == expect
    assert johnson_full(s022, con_gen(s022, 1, 2))[1] == wedge_single(1, 2)
    assert johnson_full(s022, con_gen(s022, 3, 2))[3] == wedge_single(2, 3, -1)
    assert johnson_full(s022, con_gen(s022, 1, 4))[1] == wedge_single(1, 4)

    # with x-generators: multiplier moves hit only the action matrix,
    # conjugation moves hit exactly one per-letter block
    zero_m = ((0, 0), (0, 0))
    zeros_y, zeros_z = (0, 0, 0, 0), (0, 0)
    for name in s_k_symbols(S222):
        f = gen_aut(S222, name)
        a = act_hom(S222, f)
        jy = {c: johnson_y(S222, f, c) for c in S222.y_gens()}
        jz = {c: johnson_z(S222, f, c) for c in S222.z_gens()}
        if name.kind == "M":
            row = [[0, 0], [0, 0]]
            row[name.w - 3][name.v - 1] = name.e
            assert a == tuple(tuple(r) for r in row)
            assert set(jy.values()) == {zeros_y}
            assert set(jz.values()) == {zeros_z}
        elif S222.klass(name.v) == "z":
            vec = [0, 0]
            vec[name.w - 3] = 1
            assert a == zero_m
            assert jz[name.v] == tuple(vec)
            assert set(jy.values()) == {zeros_y}
            assert all(v == zeros_z for c, v in jz.items() if c != name.v)
        elif S222.klass(name.w) in ("x", "z"):
            cols = [1, 2, 5, 6]
            vec = [0, 0, 0, 0]
            vec[cols.index(name.w)] = 1
            assert a == zero_m
            assert jy[name.v] == tuple(vec)
            assert set(jz.values()) == {zeros_z}
            assert all(v == zeros_y for c, v in jy.items() if c != name.v)
    assert act_hom(S222, mul_gen(S222, 1, 1, 3)) == ((1, 0), (0, 0))
    _report(8, "per-letter values behind the two rank counts")


def _contexts_for_pairing():
    specs = [
        (Signature(1, 1, 1), 2, ((1, 3), (3, 1))),
        (Signature(2, 1, 0), 3, ((1, 2), (2, 1))),
        (Signature(0, 1, 2), 1, ((2, 3), (3, 2))),
        (Signature(2, 2, 1), 3, ((1, 5), (2, 1))),
    ]
    for sig, y, pairs in specs:
        for a, b in pairs:
            yield PairingContext(sig, y=y, a=a, b=b)


def test_a09_pairing_is_twice_the_identity():
    t0 = time.perf_counter()
    checked = 0
    for ctx in _contexts_for_pairing():
        for r in range(1, 7):
            for m in range(1, 7):
                assert pairing(ctx, r, m) == (2 if r == m else 0)
                checked += 1
    assert checked == 8 * 36
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, "pairing table is twice the identity")


def test_a10_invariant_closed_forms_and_translates():
    ctx = PairingContext(Signature(1, 1, 1), y=2, a=1, b=3)
    box = [(p, q) for p in range(-4, 5) for q in range(-4, 5)]
    for m in range(0, 4):
        f_m, g = mu_witnesses(ctx, m)
        mA = ctx.scale(m, ctx.A)
        mAB = tuple(p + q for p, q in zip(mA, ctx.B))
        assert i_s(ctx, f_m, ctx.b) == FormalSum({mA: 1, mAB: -1})
        assert i_s(ctx, g, ctx.b) == FormalSum({ctx.zero: 1, ctx.B: -1})
        for s in range(0, 4):
            sA = ctx.scale(s, ctx.A)
            plus = tuple(p - q for p, q in zip(sA, mA))
            minus = tuple(p - q for p, q in zip(plus, ctx.B))
            assert support_of_twist(ctx, s, f_m) == frozenset({plus, minus})
            assert support_of_twist(ctx, s, g) == frozenset(
                {sA, tuple(p - q for p, q in zip(sA, ctx.B))}
            )
            for x in box:
                twisted = i_s(
                    ctx,
                    compose(compose(sigma(ctx, x), f_m), inverse(sigma(ctx, x))),
                    ctx.b,
                )
                expect = 1 if x == plus else (-1 if x == minus else 0)
                assert twisted.coeff(sA) == expect
            gplus = sA
            gminus = tuple(p - q for p, q in zip(sA, ctx.B))
            for x in (gplus, gminus, (3, 3)):
                twisted = i_s(
                    ctx,
                    compose(compose(sigma(ctx, x), g), inverse(sigma(ctx, x))),
                    ctx.b,
                )
                expect = 1 if x == gplus else (-1 if x == gminus else 0)
                assert twisted.coeff(sA) == expect
    _report(10, "invariant closed forms and their lattice translates")


def test_a11_independent_witness_family():
    ctx = PairingContext(Signature(1, 1, 1), y=2, a=1, b=3)
    seen = []
    for m in range(0, 7):
        h_m, value = independence_witness(ctx, m, s=1, t=3)
        assert is_in_autfb_prime(h_m)
        assert value == FormalSum.point((0, m))
        seen.append(value)
    assert len(set(seen)) == 7
    _report(11, "independent witness family in the boundary-fixing subgroup")


def _random_kernel(sig, rng, max_len):
    pool = s_k_symbols(sig)
    f = identity(sig)
    for _ in range(rng.randrange(1, max_len + 1)):
        g = gen_aut(sig, rng.choice(pool))
        f = compose(f, g if rng.randrange(2) else inverse(g))
    return f


def test_a12_averaged_cochain_laws():
    ctx = PairingContext(Signature(1, 1, 1), y=2, a=1, b=3)
    rng = random.Random(52)
    for _ in range(500):
        g0, g1, g2, g3 = (_random_kernel(ctx.sig, rng, 8) for _ in range(4))
        for r in (1, 2, 3):
            total = (
                zeta_eval(ctx, r, g1, g2, g3)
                - zeta_eval(ctx, r, g0, g2, g3)
                + zeta_eval(ctx, r, g0, g1, g3)
                - zeta_eval(ctx, r, g0, g1, g2)
            )
            assert total == 0
    for _ in range(500):
        trip = [_random_kernel(ctx.sig, rng, 8) for _ in range(3)]
        h = _random_kernel(ctx.sig, rng, 8)
        moved = [compose(h, t) for t in trip]
        for r in (1, 2, 3):
            assert zeta_eval(ctx, r, *moved) == zeta_eval(ctx, r, *trip)
    _report(12, "averaged cochain: coboundary zero, left invariance")


def test_a13_twisted_additivity_and_transport():
    rng = random.Random(53)
    for _ in range(1000):
        f = _random_kernel(S222, rng, 4)
        g = _random_kernel(S222, rng, 4)
        m = ab_matrix(S222, f)
        for c in (3, 4, 5, 6):
            lhs = johnson_class(S222, compose(f, g), c)
            rhs = johnson_class(S222, f, c) + wedge_push(
                m, johnson_class(S222, g, c)
            )
            assert lhs == rhs

    ctx = PairingContext(Signature(2, 2, 1), y=3, a=1, b=2)
    for _ in range(1000):
        f = _random_kernel(ctx.sig, rng, 3)
        f = compose(f, inverse(hat(ctx, f)))
        x = tuple(rng.randrange(-2, 3) for _ in ctx.order)
        s = sigma(ctx, x)
        moved = compose(compose(s, f), inverse(s))
        assert i_s(ctx, moved, ctx.b) == i_s(ctx, f, ctx.b).shifted(x)
    _report(13, "crossed-homomorphism law and lattice transport")
