"""Lattice projections, the section, the averaged cochain, the pairing."""

import hashlib
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autfb.cocycle as cocycle
import word_routes
from autfb import (
    ClaimFailedError,
    FormalSum,
    PairingContext,
    Signature,
    alpha,
    alpha_twisted,
    c_name,
    compose,
    conjugate,
    gen_aut,
    gen_word,
    hat,
    i_s,
    identity,
    inverse,
    is_in_l,
    jprime_y,
    kappa_eval,
    m_name,
    mu_witnesses,
    multiply,
    ny_project,
    pairing,
    power,
    s_k_symbols,
    s_q_symbols,
    sigma,
    spelling_aut,
    support_of_twist,
    independence_witness,
    parse_word,
    zeta_eval,
)

from word_routes import random_kernel

S111 = Signature(1, 1, 1)
S221 = Signature(2, 2, 1)


@pytest.fixture(scope="module")
def ctx111():
    return PairingContext(S111, y=2, a=1, b=3)


@pytest.fixture(scope="module")
def ctx221():
    return PairingContext(S221, y=3, a=1, b=2)


# ---------------------------------------------------------------------------
# formal sums


def test_formal_sum_arithmetic():
    p = FormalSum.point((1, 0))
    q = FormalSum.point((0, 2), -3)
    assert (p + q).coeff((0, 2)) == -3
    assert (p - p) == FormalSum()
    assert not FormalSum()
    assert p.shifted((2, 1)) == FormalSum.point((3, 1))
    assert (p + q).support() == frozenset({(1, 0), (0, 2)})
    assert p.coeff((9, 9)) == 0
    assert FormalSum({(1, 0): 1, (0, 0): 0}) == p


# ---------------------------------------------------------------------------
# context validation and layout


def test_context_rejects_bad_choices():
    with pytest.raises(ValueError):
        PairingContext(Signature(2, 0, 2), y=1, a=1, b=2)
    with pytest.raises(ValueError):
        PairingContext(Signature(0, 1, 1), y=1, a=2, b=2)
    with pytest.raises(ValueError):
        PairingContext(S111, y=1, a=1, b=3)  # x code in the y slot
    with pytest.raises(ValueError):
        PairingContext(S111, y=2, a=2, b=3)  # y code in the a slot
    with pytest.raises(ValueError):
        PairingContext(S111, y=2, a=3, b=3)


@pytest.mark.parametrize("y, a, b", [(2, -1, 3), (2, 1, -3), (-2, 1, 3)])
def test_context_refuses_non_positive_codes(y, a, b):
    with pytest.raises(ValueError, match="must be positive"):
        PairingContext(S111, y=y, a=a, b=b)


def test_unit_refuses_a_code_off_the_lattice(ctx111):
    """The y code 2, the out-of-range 9, 0 and a negative code have no
    coordinate, and unit refuses them with i_s's error."""
    for g in (2, 9, 0, -1):
        with pytest.raises(ValueError, match=f"{g} is not an x- or z-generator code"):
            ctx111.unit(g)
        with pytest.raises(ValueError, match=f"{g} is not an x- or z-generator code"):
            i_s(ctx111, identity(S111), g)


def test_context_layout(ctx111, ctx221):
    assert ctx111.order == (1, 3)
    assert ctx111.A == (1, 0) and ctx111.B == (0, 1)
    assert ctx111.zero == (0, 0)
    assert ctx111.unit(3, -2) == (0, -2)
    assert ctx111.scale(3, (1, -1)) == (3, -3)
    assert ctx221.order == (1, 2, 5)
    assert ctx221.A == (1, 0, 0) and ctx221.B == (0, 1, 0)


# ---------------------------------------------------------------------------
# the projection


def test_projection_worked_instances(ctx111):
    assert ny_project(ctx111, parse_word(S111, "y1")) == FormalSum.point((0, 0))
    assert ny_project(ctx111, parse_word(S111, "z1 z1 y1 z1^-1 z1^-1")) == FormalSum.point(
        (0, 2)
    )
    assert ny_project(ctx111, parse_word(S111, "x1 y1^-1 x1^-1")) == FormalSum.point(
        (1, 0), -1
    )
    with pytest.raises(ValueError):
        ny_project(ctx111, parse_word(S111, "x1 y1"))


def test_projection_ignores_the_other_ys():
    sig = Signature(1, 2, 1)
    ctx = PairingContext(sig, y=2, a=1, b=4)
    assert ny_project(ctx, parse_word(sig, "y2 y1 y2^-1")) == FormalSum.point((0, 0))
    assert ny_project(ctx, parse_word(sig, "y2 y2 y2^-1 y2^-1")) == FormalSum()


def test_projection_refuses_a_word_of_another_signature(ctx111):
    # Same number of letters, so ctx111's letter classes would misread y2
    # as its chosen y and y1 as its x1.
    u = parse_word(Signature(0, 2, 1), "y2 y1 y2^-1")
    with pytest.raises(ValueError, match="signature mismatch"):
        ny_project(ctx111, u)


def test_projection_is_additive_and_shifts_under_conjugation(ctx111):
    rng = random.Random(11)

    def random_ny_word():
        u = parse_word(S111, "")
        for _ in range(rng.randrange(1, 4)):
            conj = parse_word(
                S111,
                " ".join(
                    rng.choice(("x1", "x1^-1", "z1", "z1^-1", "y1", "y1^-1"))
                    for _ in range(rng.randrange(0, 3))
                ),
            )
            core = parse_word(S111, rng.choice(("y1", "y1^-1")))
            u = multiply(u, conjugate(core, conj))
        return u

    for _ in range(200):
        u, v = random_ny_word(), random_ny_word()
        assert ny_project(ctx111, multiply(u, v)) == ny_project(
            ctx111, u
        ) + ny_project(ctx111, v)
        c = rng.choice((1, 3))
        assert ny_project(ctx111, conjugate(u, gen_word(S111, c))) == ny_project(
            ctx111, u
        ).shifted(ctx111.unit(c))


# ---------------------------------------------------------------------------
# invariants of kernel elements


def test_i_s_closed_forms(ctx111, ctx221):
    for ctx in (ctx111, ctx221):
        for m in range(0, 4):
            f_m, g = mu_witnesses(ctx, m)
            mA = ctx.scale(m, ctx.A)
            mAB = tuple(p + q for p, q in zip(mA, ctx.B))
            assert i_s(ctx, f_m, ctx.b) == FormalSum({mA: 1, mAB: -1})
            assert i_s(ctx, g, ctx.b) == FormalSum({ctx.zero: 1, ctx.B: -1})


def test_i_s_validates_its_arguments(ctx111):
    with pytest.raises(ValueError):
        i_s(ctx111, identity(S111), 2)  # y code
    with pytest.raises(ValueError):
        i_s(ctx111, gen_aut(S111, m_name(1, 1, 3)), 1)  # not in the kernel
    other = identity(S221)
    for call in (
        lambda: i_s(ctx111, other, 1),
        lambda: jprime_y(ctx111, other),
        lambda: is_in_l(ctx111, other),
        lambda: alpha(ctx111, 1, other),
    ):
        with pytest.raises(ValueError, match="signature mismatch"):
            call()


def test_jprime_and_membership(ctx111):
    assert jprime_y(ctx111, gen_aut(S111, c_name(2, 1))) == (1, 0)
    assert jprime_y(ctx111, inverse(gen_aut(S111, c_name(2, 3)))) == (0, -1)
    assert not is_in_l(ctx111, gen_aut(S111, c_name(2, 1)))
    assert is_in_l(ctx111, identity(S111))
    f_m, g = mu_witnesses(ctx111, 2)
    assert is_in_l(ctx111, f_m) and is_in_l(ctx111, g)


def test_sigma_is_a_section(ctx111):
    assert sigma(ctx111, ctx111.zero) == identity(S111)
    assert sigma(ctx111, ctx111.A) == gen_aut(S111, c_name(2, 1))
    rng = random.Random(12)
    for _ in range(40):
        x = tuple(rng.randrange(-3, 4) for _ in ctx111.order)
        assert jprime_y(ctx111, sigma(ctx111, x)) == x


def test_hat_reads_off_the_section_value(ctx111):
    f_m, g = mu_witnesses(ctx111, 1)
    assert hat(ctx111, f_m) == identity(S111)
    c = gen_aut(S111, c_name(2, 1))
    assert hat(ctx111, c) == c
    mixed = compose(c, g)
    assert hat(ctx111, mixed) == c


def _random_l(ctx, rng, length):
    f = random_kernel(ctx.sig, rng, length)
    return compose(f, inverse(hat(ctx, f)))


def test_i_s_and_alpha_are_additive_on_l(ctx111):
    rng = random.Random(13)
    for _ in range(150):
        f = _random_l(ctx111, rng, rng.randrange(1, 5))
        g = _random_l(ctx111, rng, rng.randrange(1, 5))
        fg = compose(f, g)
        for s in ctx111.order:
            assert i_s(ctx111, fg, s) == i_s(ctx111, f, s) + i_s(ctx111, g, s)
        for r in (0, 1, 2):
            assert alpha(ctx111, r, fg) == alpha(ctx111, r, f) + alpha(
                ctx111, r, g
            )


def test_alpha_worked_instances(ctx111):
    for m in (1, 2, 3):
        f_m, g = mu_witnesses(ctx111, m)
        for r in (0, 1, 2, 3):
            assert alpha(ctx111, r, f_m) == int(r == m)
        assert alpha(ctx111, 0, g) == 1
    with pytest.raises(ValueError):
        alpha(ctx111, 1, gen_aut(S111, c_name(2, 1)))


def test_twisted_alpha_translates_the_invariant(ctx111):
    rng = random.Random(14)
    f_m, g = mu_witnesses(ctx111, 2)
    assert alpha_twisted(ctx111, ctx111.zero, 2, f_m) == alpha(ctx111, 2, f_m)
    for _ in range(40):
        x = tuple(rng.randrange(-2, 3) for _ in ctx111.order)
        f = _random_l(ctx111, rng, rng.randrange(1, 4))
        s = sigma(ctx111, x)
        moved = compose(compose(s, f), inverse(s))
        assert i_s(ctx111, moved, ctx111.b) == i_s(ctx111, f, ctx111.b).shifted(x)
        for r in (0, 1, 2):
            rA = ctx111.scale(r, ctx111.A)
            assert alpha_twisted(ctx111, x, r, f) == i_s(
                ctx111, f, ctx111.b
            ).shifted(x).coeff(rA)


def test_twist_support_is_the_reflected_invariant_support(ctx111):
    f_m, _ = mu_witnesses(ctx111, 2)
    got = support_of_twist(ctx111, 1, f_m)
    rA = (1, 0)
    expect = {
        tuple(p - q for p, q in zip(rA, v))
        for v in i_s(ctx111, f_m, ctx111.b).support()
    }
    assert got == frozenset(expect)
    assert support_of_twist(ctx111, 1, identity(S111)) == frozenset()


# ---------------------------------------------------------------------------
# I_b from the signed row against the Word route


CTX111 = PairingContext(S111, y=2, a=1, b=3)
CTX221 = PairingContext(S221, y=3, a=1, b=2)


def _kernel_elements(ctx):
    """A product of S_K generators, raised to a power and moved by a
    section: the power and the section lengthen the b-row."""
    names = st.lists(
        st.tuples(st.sampled_from(s_k_symbols(ctx.sig)), st.sampled_from((1, -1))),
        min_size=1,
        max_size=6,
    ).map(lambda ps: tuple(n._replace(power=p) for n, p in ps))
    points = st.tuples(*[st.integers(-2, 2)] * len(ctx.order))

    def build(args):
        sp, m, x = args
        s = sigma(ctx, x)
        return compose(compose(s, power(spelling_aut(ctx.sig, sp), m)), inverse(s))

    return st.tuples(names, st.integers(-4, 4), points).map(build)


@pytest.mark.parametrize("ctx", [CTX111, CTX221], ids=["S111", "S221"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_i_b_matches_the_word_route(ctx, data):
    f = data.draw(_kernel_elements(ctx))
    assert cocycle._i_b(ctx, f) == word_routes.i_b(ctx, f)
    assert i_s(ctx, f, ctx.b) == word_routes.i_b(ctx, f)
    for s in ctx.order:
        u = multiply(word_routes.image(f, s), gen_word(ctx.sig, -s))
        assert ny_project(ctx, u) == word_routes.ny_project(ctx, u)


def test_i_b_matches_the_word_route_on_long_b_rows():
    for ctx in (CTX111, CTX221):
        f_3, g = mu_witnesses(ctx, 3)
        f = compose(sigma(ctx, ctx.B), power(compose(f_3, g), 9))
        f = compose(f, inverse(sigma(ctx, ctx.B)))
        assert len(f.fwd[ctx.b]) > 50
        assert cocycle._i_b(ctx, f) == word_routes.i_b(ctx, f)


def _non_kernel_moves(sig):
    """S_Q generators stay in Aut(F, boundary) but leave the kernel; the
    M moves of a y letter leave Aut(F, boundary) itself."""
    y, x = sig.n + 1, 1
    return list(s_q_symbols(sig)) + [m_name(y, 1, x), m_name(y, -1, x)]


@pytest.mark.parametrize("ctx", [CTX111, CTX221], ids=["S111", "S221"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_non_kernel_elements_are_refused_on_both_routes(ctx, data):
    f = data.draw(_kernel_elements(ctx))
    move = gen_aut(ctx.sig, data.draw(st.sampled_from(_non_kernel_moves(ctx.sig))))
    bad = compose(f, move)
    fresh = PairingContext(ctx.sig, y=ctx.y, a=ctx.a, b=ctx.b)
    with pytest.raises(ValueError):
        cocycle._i_b(fresh, bad)
    with pytest.raises(ValueError):
        word_routes.i_b(fresh, bad)
    assert not fresh._twist_cache


def test_points_of_the_wrong_length_are_refused():
    ctx = PairingContext(S111, y=2, a=1, b=3)
    f = mu_witnesses(ctx, 1)[0]
    for x in ((1, 0, 5), (1,)):
        with pytest.raises(ValueError, match="coordinates"):
            sigma(ctx, x)
        with pytest.raises(ValueError, match="coordinates"):
            alpha_twisted(ctx, x, 1, f)
    for d in ((1,), (0, 0, 1)):
        with pytest.raises(ValueError, match="lengths differ"):
            cocycle._i_b(ctx, f).shifted(d)
    assert sigma(ctx, (1, 0)) == gen_aut(S111, c_name(2, 1))
    assert alpha_twisted(ctx, (0, 0), 1, f) == 1
    assert FormalSum().shifted((1,)) == FormalSum()
    for v in ((1, 0, 0), (1,), ()):
        with pytest.raises(ValueError, match="another length"):
            FormalSum.point((1, 0)).coeff(v)
    assert FormalSum.point((1, 0), 3).coeff([1, 0]) == 3
    assert FormalSum.point((1, 0)).coeff((0, 1)) == 0
    # an empty sum has no rank: every point reads 0
    assert FormalSum().coeff((1, 0, 0)) == FormalSum().coeff(()) == 0


def test_sums_over_points_of_different_lengths_are_not_combined():
    p, q = FormalSum.point((1, 0)), FormalSum.point((1, 0, 0), 2)
    for combine in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different lengths"):
            combine(p, q)
        with pytest.raises(ValueError, match="different lengths"):
            combine(q, p)
    # an empty sum has no rank: it combines with a sum over any length
    assert p + FormalSum() == p - FormalSum() == p
    assert FormalSum() + q == q
    assert FormalSum() - q == FormalSum.point((1, 0, 0), -2)
    assert p + p - FormalSum.point((0, 1)) == FormalSum({(1, 0): 2, (0, 1): -1})


# ---------------------------------------------------------------------------
# the cochain and its averaging


def test_kappa_vanishes_on_repeats(ctx111):
    f_m, g = mu_witnesses(ctx111, 1)
    assert kappa_eval(ctx111, 1, f_m, f_m, g) == 0
    assert kappa_eval(ctx111, 1, g, f_m, f_m) == 0


def test_kappa_on_the_witness_triple(ctx111):
    for m in (1, 2):
        f_m, g = mu_witnesses(ctx111, m)
        for r in (1, 2):
            got = kappa_eval(ctx111, r, identity(S111), f_m, compose(f_m, g))
            assert got == int(r == m)


def test_zeta_vanishes_on_constant_triples(ctx111):
    _, g = mu_witnesses(ctx111, 1)
    assert zeta_eval(ctx111, 1, g, g, g) == 0


def test_zeta_is_left_invariant(ctx111):
    rng = random.Random(15)
    for _ in range(30):
        trip = [random_kernel(S111, rng, rng.randrange(1, 4)) for _ in range(3)]
        base = zeta_eval(ctx111, 1, *trip)
        h = random_kernel(S111, rng, rng.randrange(1, 3))
        moved = [compose(h, t) for t in trip]
        assert zeta_eval(ctx111, 1, *moved) == base
        x = tuple(rng.randrange(-2, 3) for _ in ctx111.order)
        s = inverse(sigma(ctx111, x))
        assert zeta_eval(ctx111, 1, *[compose(s, t) for t in trip]) == base


def test_zeta_is_a_cocycle_in_small_samples(ctx111):
    rng = random.Random(16)
    for _ in range(20):
        g0, g1, g2, g3 = (
            random_kernel(S111, rng, rng.randrange(1, 4)) for _ in range(4)
        )
        for r in (1, 2):
            total = (
                zeta_eval(ctx111, r, g1, g2, g3)
                - zeta_eval(ctx111, r, g0, g2, g3)
                + zeta_eval(ctx111, r, g0, g1, g3)
                - zeta_eval(ctx111, r, g0, g1, g2)
            )
            assert total == 0


# ---------------------------------------------------------------------------
# the reference route: every translate by explicit composition


def _ref_twisted_i_b(ctx, f, x):
    s = sigma(ctx, x)
    return i_s(ctx, compose(compose(s, f), inverse(s)), ctx.b)


def _ref_support(ctx, r, f):
    rA = ctx.scale(r, ctx.A)
    return {tuple(p - q for p, q in zip(rA, v)) for v in i_s(ctx, f, ctx.b).support()}


def _ref_zeta(ctx, r, g0, g1, g2):
    d0, d1, d2 = (compose(g, inverse(hat(ctx, g))) for g in (g0, g1, g2))
    xs = (
        _ref_support(ctx, r, d0)
        | _ref_support(ctx, r, d1)
        | _ref_support(ctx, 0, d1)
        | _ref_support(ctx, 0, d2)
    )
    rA = ctx.scale(r, ctx.A)
    total = 0
    for x in xs:
        t0, t1, t2 = (_ref_twisted_i_b(ctx, d, x) for d in (d0, d1, d2))
        zero = ctx.zero
        total += (t1.coeff(rA) - t0.coeff(rA)) * (t2.coeff(zero) - t1.coeff(zero))
    return total


def _ref_kappa(ctx, r, g0, g1, g2):
    d0, d1, d2 = (compose(g, inverse(hat(ctx, g))) for g in (g0, g1, g2))
    rA = ctx.scale(r, ctx.A)
    i0, i1, i2 = (i_s(ctx, d, ctx.b) for d in (d0, d1, d2))
    return (i1.coeff(rA) - i0.coeff(rA)) * (i2.coeff(ctx.zero) - i1.coeff(ctx.zero))


def _ref_pairing(ctx, r, m):
    f_m, g = mu_witnesses(ctx, m)
    xs = (
        _ref_support(ctx, r, f_m)
        | _ref_support(ctx, 0, g)
        | _ref_support(ctx, r, g)
        | _ref_support(ctx, 0, f_m)
    )
    rA = ctx.scale(r, ctx.A)
    total = 0
    for x in xs:
        tf, tg = _ref_twisted_i_b(ctx, f_m, x), _ref_twisted_i_b(ctx, g, x)
        total += tf.coeff(rA) * tg.coeff(ctx.zero) - tg.coeff(rA) * tf.coeff(ctx.zero)
    return total


@pytest.mark.parametrize("sig, y, a, b", [(S111, 2, 1, 3), (S221, 3, 1, 2)])
def test_zeta_and_kappa_match_the_composition_route(sig, y, a, b):
    ctx = PairingContext(sig, y=y, a=a, b=b)
    rng = random.Random(17)
    nonzero = 0
    for _ in range(30):
        trip = [random_kernel(sig, rng, rng.randrange(2, 9)) for _ in range(3)]
        for g in trip:
            drop = compose(g, inverse(hat(ctx, g)))
            assert is_in_l(ctx, drop)
            assert i_s(ctx, drop, ctx.b) == i_s(ctx, g, ctx.b)
        for r in range(0, 4):
            value = zeta_eval(ctx, r, *trip)
            assert value == _ref_zeta(ctx, r, *trip)
            assert kappa_eval(ctx, r, *trip) == _ref_kappa(ctx, r, *trip)
            nonzero += value != 0
    assert nonzero >= 10


ZETA_KAPPA_DIGEST = (
    2_400,
    "8c215a6c1ad97cc11798e7fdddf19f4d5b4623aa201ed5983732c8ee1329e231",
)


def test_zeta_and_kappa_match_the_recorded_digest():
    """(r, zeta_r, kappa_r) for r in -2..3 over 200 seeded triples of
    kernel elements at (1,1,1) and at (2,2,1), each in a fresh context.
    Negative r reads the invariants on the far side of the origin, so a
    correlation read at the wrong offset, or a projection that loses a
    letter's sign, changes the sha256 of their concatenated reprs."""
    digest = hashlib.sha256()
    count = 0
    for sig, y, a, b in ((S111, 2, 1, 3), (S221, 3, 1, 2)):
        ctx = PairingContext(sig, y=y, a=a, b=b)
        rng = random.Random(f"zeta-kappa:{sig}")
        for _ in range(200):
            trip = [random_kernel(sig, rng, rng.randrange(1, 7)) for _ in range(3)]
            for r in range(-2, 4):
                value = (r, zeta_eval(ctx, r, *trip), kappa_eval(ctx, r, *trip))
                digest.update(repr(value).encode())
                count += 1
    assert (count, digest.hexdigest()) == ZETA_KAPPA_DIGEST


@pytest.mark.parametrize("sig, y, a, b", [(S111, 2, 1, 3), (S221, 3, 1, 2)])
def test_pairing_matches_the_composition_route(sig, y, a, b):
    ctx = PairingContext(sig, y=y, a=a, b=b)
    for r in range(1, 7):
        for m in range(1, 7):
            assert pairing(ctx, r, m) == _ref_pairing(ctx, r, m) == 2 * int(r == m)


@pytest.mark.parametrize("sig, y, a, b", [(S111, 2, 1, 3), (S221, 3, 1, 2)])
def test_witnesses_match_linear_powers(sig, y, a, b):
    ctx = PairingContext(sig, y=y, a=a, b=b)
    cya = gen_aut(sig, c_name(y, a))
    cby = gen_aut(sig, c_name(b, y))
    for m in range(0, 7):
        f_m, _ = mu_witnesses(ctx, m)
        ref = compose(compose(power(cya, m), cby), power(cya, -m))
        assert f_m == ref
        assert f_m.inv_images == ref.inv_images


def test_pairing_table_reuses_its_witness_powers(monkeypatch):
    import autfb.automorphism as au
    import autfb.cocycle as co

    calls = [0]
    real = au.compose

    def counting(f, g):
        calls[0] += 1
        return real(f, g)

    monkeypatch.setattr(au, "compose", counting)
    monkeypatch.setattr(co, "compose", counting)
    ctx = PairingContext(S111, y=2, a=1, b=3)
    for r in range(1, 25):
        for m in range(1, 25):
            assert pairing(ctx, r, m) == 2 * int(r == m)
    # Rebuilding C[y,a]^m and C[y,a]^-m linearly in every cell took 16,128.
    assert calls[0] < 16128 // 4


def test_twist_cache_holds_one_entry_per_element():
    ctx = PairingContext(S111, y=2, a=1, b=3)
    for r in range(1, 7):
        for m in range(1, 7):
            pairing(ctx, r, m)
    assert len(ctx._twist_cache) <= 7


def test_key_is_built_once_and_equal_tables_share_a_twist_entry():
    move, c = m_name(1, 1, 2), c_name(1, 3)
    f = spelling_aut(S111, [move])
    g = spelling_aut(S111, [move, c, c.inv()])
    key = f.key()
    assert f.key() is key
    assert key == (f.sig, f.fwd[1 : S111.ngens + 1])
    assert g is not f and g.key() == key
    ctx = PairingContext(S111, y=2, a=1, b=3)
    assert cocycle._i_b(ctx, f) is cocycle._i_b(ctx, g)
    assert list(ctx._twist_cache) == [key]


def test_context_caches_stay_at_their_cap_and_values_hold(monkeypatch):
    """With the cap patched to 3, the twist, section and point caches
    overflow and drop their oldest entries; zeta_eval, pairing and sigma
    give the values of an uncapped context."""
    rng = random.Random(23)
    triples = [[random_kernel(S111, rng, rng.randrange(1, 4)) for _ in range(3)] for _ in range(6)]
    points = [(i, j) for i in range(-2, 3) for j in range(-1, 2)]
    ref = PairingContext(S111, y=2, a=1, b=3)
    want = (
        [zeta_eval(ref, r, *trip) for trip in triples for r in (1, 2)],
        [pairing(ref, r, m) for r in range(1, 5) for m in range(1, 5)],
        [sigma(ref, x) for x in points],
    )
    assert len(ref._twist_cache) > 3 and len(ref._sigma_cache) > 3 and len(ref._points) > 3
    monkeypatch.setattr(cocycle, "_CACHE_ENTRIES", 3)
    ctx = PairingContext(S111, y=2, a=1, b=3)
    got = ([], [], [])
    for trip in triples:
        for r in (1, 2):
            got[0].append(zeta_eval(ctx, r, *trip))
            assert len(ctx._twist_cache) <= 3
    for r in range(1, 5):
        for m in range(1, 5):
            got[1].append(pairing(ctx, r, m))
            assert len(ctx._points) <= 3
    for x in points:
        got[2].append(sigma(ctx, x))
        assert len(ctx._sigma_cache) <= 3
    assert got == want
    # The newest entries stay: the last three sections are still held.
    assert list(ctx._sigma_cache) == points[-3:]


def test_pairing_table_builds_no_section_per_cycle():
    ctx = PairingContext(S111, y=2, a=1, b=3)
    for r in range(1, 25):
        for m in range(1, 25):
            assert pairing(ctx, r, m) == 2 * int(r == m)
    # Every m is read off I_b(f_0) shifted by mA, so no sigma(mA) is built.
    assert len(ctx._sigma_cache) <= 1


def test_pairing_table_builds_its_witness_pair_once(monkeypatch):
    counts = {"compose": 0, "johnson_y": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(cocycle, "compose", counting("compose", cocycle.compose))
    monkeypatch.setattr(cocycle, "johnson_y", counting("johnson_y", cocycle.johnson_y))
    ctx = PairingContext(S111, y=2, a=1, b=3)
    for r in range(1, 25):
        for m in range(1, 25):
            assert pairing(ctx, r, m) == 2 * int(r == m)
    # Rebuilding and re-checking the pair in every cell took 576 composes
    # and 1,152 johnson_y calls.
    assert counts["compose"] <= 1
    assert counts["johnson_y"] <= 2


# ---------------------------------------------------------------------------
# witnesses and the pairing


def test_witness_pair_commutes(ctx221):
    for m in (1, 3):
        f_m, g = mu_witnesses(ctx221, m)
        assert compose(f_m, g) == compose(g, f_m)


def test_pairing_table(ctx111):
    assert pairing(ctx111, 3, 3) == 2
    assert pairing(ctx111, 2, 5) == 0
    assert pairing(ctx111, 5, 2) == 0
    with pytest.raises(ValueError):
        pairing(ctx111, 0, 1)
    with pytest.raises(ValueError):
        pairing(ctx111, 1, -1)


def test_prime_witness_invariants(ctx111):
    seen = set()
    for m in range(0, 7):
        h_m, value = independence_witness(ctx111, m, s=1, t=3)
        assert value == FormalSum.point((0, m))
        assert i_s(ctx111, h_m, 1) == value
        seen.add(value)
    assert len(seen) == 7


def _two_chain_witness(ctx, m, s, t):
    """h_m = C[y,t]^m M[s,y] C[y,t]^-m with its right factor made by a
    second squaring chain, power(C[y,t], -m), not as the inverse of the
    left factor."""
    cyt = gen_aut(ctx.sig, c_name(ctx.y, t))
    move = gen_aut(ctx.sig, m_name(s, 1, ctx.y))
    return compose(compose(power(cyt, m), move), power(cyt, -m))


@pytest.mark.parametrize("ctx, ts", [("ctx111", (3,)), ("ctx221", (2, 5))])
def test_prime_witness_equals_the_two_chain_route(request, ctx, ts):
    """For m <= 8 and each conjugator t, h_m has the spelling and both
    tables of the route that squares C[y,t]^-1 separately."""
    ctx = request.getfixturevalue(ctx)
    for t in ts:
        for m in range(9):
            h_m, _ = independence_witness(ctx, m, s=1, t=t)
            want = _two_chain_witness(ctx, m, 1, t)
            assert h_m.spelling == want.spelling, (t, m)
            assert (h_m.fwd, h_m.bwd) == (want.fwd, want.bwd), (t, m)


def test_prime_witness_validation(ctx111):
    with pytest.raises(ValueError):
        independence_witness(ctx111, 1, s=3, t=1)  # z code in the x slot
    with pytest.raises(ValueError):
        independence_witness(ctx111, 1, s=1, t=1)
    with pytest.raises(ValueError):
        independence_witness(ctx111, 1, s=1, t=2)  # y conjugator
    with pytest.raises(ValueError):
        independence_witness(ctx111, -1, s=1, t=3)


def test_prime_witness_failed_claims_raise_a_typed_error(ctx111, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cocycle, "is_in_autfb_prime", lambda f: False)
        with pytest.raises(ClaimFailedError, match="boundary letters"):
            independence_witness(ctx111, 2, s=1, t=3)
    with monkeypatch.context() as patch:
        patch.setattr(cocycle, "i_s", lambda ctx, f, s: FormalSum())
        with pytest.raises(ClaimFailedError, match="basis point"):
            independence_witness(ctx111, 2, s=1, t=3)
