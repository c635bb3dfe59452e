"""Named automorphisms: images, composition, membership, text format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autfb import (
    NotInAutFBError,
    Signature,
    apply,
    c_name,
    compose,
    con_gen,
    format_name,
    format_spelling,
    from_images,
    gen_aut,
    gen_word,
    i_name,
    identity,
    inv_gen,
    inverse,
    is_in_autfb,
    is_in_autfb_prime,
    is_in_kernel,
    m_name,
    mul_gen,
    multiply,
    p_name,
    parse_aut,
    parse_name,
    parse_spelling,
    power,
    reduce,
    s_k_symbols,
    s_q_symbols,
    spelling_aut,
    swap_gen,
    word,
)

SIG = Signature(2, 2, 2)
X1, X2, Y1, Y2, Z1, Z2 = 1, 2, 3, 4, 5, 6


def w(text):
    return word(SIG, text)


# ---------------------------------------------------------------------------
# generator images


def test_mul_gen_images():
    f = mul_gen(SIG, X1, 1, Y1)
    assert f.image(X1) == w("y1 x1")
    assert all(f.image(c) == gen_word(SIG, c) for c in SIG.gens() if c != X1)
    g = mul_gen(SIG, X1, -1, Y1)
    assert g.image(X1) == w("x1 y1^-1")


def test_mul_gen_inverse_cancels():
    f = mul_gen(SIG, X1, 1, Y1)
    assert compose(f, inverse(f)) == identity(SIG)
    assert inverse(f).image(X1) == w("y1^-1 x1")


def test_con_gen_images():
    assert con_gen(SIG, Y1, X1).image(Y1) == w("x1 y1 x1^-1")
    assert con_gen(SIG, Z1, Y1).image(Z1) == w("y1 z1 y1^-1")
    assert apply(con_gen(SIG, Y1, X1), w("y2")) == w("y2")


def test_swap_and_inv_images():
    assert apply(swap_gen(SIG, 1, 2), w("x1")) == w("x2")
    assert apply(swap_gen(SIG, 1, 2), w("y1")) == w("y1")
    f = inv_gen(SIG, 1)
    assert apply(f, apply(f, w("x1"))) == w("x1")
    assert compose(swap_gen(SIG, 1, 2), swap_gen(SIG, 1, 2)) == identity(SIG)


def test_name_constructors_validate():
    with pytest.raises(ValueError):
        m_name(1, 1, 1)
    with pytest.raises(ValueError):
        c_name(2, 2)
    with pytest.raises(ValueError):
        m_name(1, 2, 3)
    with pytest.raises(ValueError):
        swap_gen(SIG, 1, 3)
    with pytest.raises(ValueError):
        inv_gen(SIG, 5)


def test_p_name_is_unordered():
    assert p_name(2, 1) == p_name(1, 2)


# ---------------------------------------------------------------------------
# substitution


def test_apply_instances():
    f = mul_gen(SIG, X1, 1, Y1)
    assert apply(f, w("x1 x1")) == w("y1 x1 y1 x1")
    assert apply(identity(SIG), w("x2 z1^-1")) == w("x2 z1^-1")
    assert apply(con_gen(SIG, Y1, X1), w("y1^-1")) == w("x1 y1^-1 x1^-1")


def test_compose_instances():
    f = mul_gen(SIG, X1, 1, Y1)
    assert compose(f, f).image(X1) == w("y1 y1 x1")


def test_power_matches_repeated_composition():
    f = con_gen(SIG, Y1, X1)
    assert power(f, 3) == compose(f, compose(f, f))
    assert power(f, -2) == inverse(compose(f, f))
    assert power(f, 0) == identity(SIG)


def test_from_images_checks_inverse_tables():
    images = [gen_word(SIG, c) for c in SIG.gens()]
    inv_images = [gen_word(SIG, c) for c in SIG.gens()]
    images[Y1 - 1] = w("x1 y1")
    with pytest.raises(ValueError):
        from_images(SIG, images, inv_images)
    inv_images[Y1 - 1] = w("x1^-1 y1")
    f = from_images(SIG, images, inv_images)
    assert apply(f, w("y1")) == w("x1 y1")
    assert not is_in_autfb(f)


# ---------------------------------------------------------------------------
# membership


def test_sk_members_lie_in_the_kernel():
    for name in s_k_symbols(SIG):
        f = gen_aut(SIG, name)
        assert is_in_autfb(f)
        assert is_in_kernel(f)


def test_sq_members_fix_boundary_classes_but_not_the_projection():
    for name in s_q_symbols(SIG):
        f = gen_aut(SIG, name)
        assert is_in_autfb(f)
        assert not is_in_kernel(f)


def test_prime_membership_is_exact_fixing():
    assert is_in_autfb_prime(mul_gen(SIG, X1, 1, Y1))
    assert not is_in_autfb_prime(con_gen(SIG, Y1, X1))
    assert is_in_autfb_prime(mul_gen(SIG, X1, 1, X2))


def test_kernel_test_rejects_non_members_loudly():
    f = mul_gen(SIG, Y1, 1, X1)
    assert not is_in_autfb(f)
    with pytest.raises(NotInAutFBError):
        is_in_kernel(f)


def test_abelian_cycle_witnesses_commute():
    y, a, b = Y1, X1, Z1
    cya = con_gen(SIG, y, a)
    g = compose(con_gen(SIG, a, y), con_gen(SIG, b, y))
    for m in range(1, 7):
        f_m = compose(compose(power(cya, m), con_gen(SIG, b, y)), power(cya, -m))
        assert compose(f_m, g) == compose(g, f_m)


# ---------------------------------------------------------------------------
# text format


def test_parse_name_normalizes_extended_notation():
    assert parse_name(SIG, "M[x1^+1,y1]") == m_name(X1, 1, Y1)
    assert parse_name(SIG, "M[x1^+1,y1^-1]") == m_name(X1, 1, Y1, power=-1)
    assert parse_name(SIG, "C[y1,x1^-1]^-1") == c_name(Y1, X1)
    assert parse_name(SIG, "P[2,1]") == p_name(1, 2)
    with pytest.raises(ValueError):
        parse_name(SIG, "M[x1,y1]")
    with pytest.raises(ValueError):
        parse_name(SIG, "I[3]")


def test_spelling_roundtrip():
    text = "M[x1^+1,y1] C[z1,y2]^-1 P[1,2] I[2]"
    sp = parse_spelling(SIG, text)
    assert format_spelling(SIG, sp) == text
    for name in sp:
        assert parse_name(SIG, format_name(SIG, name)) == name


def test_parse_aut_applies_leftmost_last():
    f = parse_aut(SIG, "P[1,2] M[x1^+1,y1]")
    assert apply(f, w("x1")) == w("y1 x2")


# ---------------------------------------------------------------------------
# algebraic laws

NAME_POOL = s_k_symbols(SIG) + s_q_symbols(SIG)


def spellings(max_len=6):
    return st.lists(
        st.tuples(st.sampled_from(NAME_POOL), st.sampled_from((1, -1))),
        max_size=max_len,
    ).map(lambda ps: tuple(n._replace(power=p) for n, p in ps))


letters = st.sampled_from([c for g in SIG.gens() for c in (g, -g)])
raw_words = st.lists(letters, max_size=16)


def word_of(letters_):
    return reduce(SIG, letters_)


@settings(max_examples=60)
@given(spellings(), raw_words, raw_words)
def test_apply_is_a_homomorphism(sp, a, b):
    f = spelling_aut(SIG, sp)
    u, v = word_of(a), word_of(b)
    assert apply(f, multiply(u, v)) == multiply(apply(f, u), apply(f, v))


@settings(max_examples=60)
@given(spellings(3), spellings(3), raw_words)
def test_compose_matches_nested_application(spf, spg, a):
    f, g = spelling_aut(SIG, spf), spelling_aut(SIG, spg)
    u = word_of(a)
    assert apply(compose(f, g), u) == apply(f, apply(g, u))


@settings(max_examples=60)
@given(spellings(12))
def test_inverse_from_spelling_reversal(sp):
    f = spelling_aut(SIG, sp)
    assert compose(f, inverse(f)) == identity(SIG)
    assert compose(inverse(f), f) == identity(SIG)


def test_key_distinguishes_image_tables():
    rng = random.Random(5)
    seen = {}
    for _ in range(200):
        sp = tuple(
            rng.choice(NAME_POOL)._replace(power=rng.choice((1, -1)))
            for _ in range(rng.randrange(0, 5))
        )
        f = spelling_aut(SIG, sp)
        k = f.key()
        if k in seen:
            assert f == seen[k]
        seen[k] = f
