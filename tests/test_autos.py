"""Named automorphisms: images, composition, membership, text format."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autfb.automorphism as automorphism
import word_routes
from autfb import (
    GenName,
    NamedAut,
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
    invert,
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
    parse_word,
)

SIG = Signature(2, 2, 2)
X1, X2, Y1, Y2, Z1, Z2 = 1, 2, 3, 4, 5, 6


def w(text):
    return parse_word(SIG, text)


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


def test_image_reads_only_letters_of_its_signature():
    sig = Signature(1, 1, 1)
    f = gen_aut(sig, m_name(1, 1, 2))
    assert f.image(-1) == invert(f.image(1)) == parse_word(sig, "x1^-1 y1^-1")
    assert f.image(-3) == gen_word(sig, -3)
    # 0 and -(n+1) would index the signed rows' padding or another row.
    for code in (0, 4, -4, 7):
        with pytest.raises(ValueError, match="out of range"):
            f.image(code)


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
    # every constructor rejects a non-positive index and a power other than +-1
    bad = [
        lambda: i_name(0),
        lambda: i_name(-1),
        lambda: p_name(0, 2),
        lambda: p_name(1, -2),
        lambda: m_name(0, 1, 2),
        lambda: c_name(1, 0),
        lambda: i_name(1, power=2),
        lambda: p_name(1, 2, power=0),
        lambda: c_name(1, 2, power=-2),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


def test_p_name_is_unordered():
    assert p_name(2, 1) == p_name(1, 2)


# ---------------------------------------------------------------------------
# the one image rule against hand-written constructors


def _ref_tables(sig):
    return [gen_word(sig, c) for c in sig.gens()], [gen_word(sig, c) for c in sig.gens()]


def ref_mul_gen(sig, v, e, w):
    images, inv_images = _ref_tables(sig)
    vv, ww = gen_word(sig, v), gen_word(sig, w)
    if e == 1:
        images[v - 1] = multiply(ww, vv)
        inv_images[v - 1] = multiply(invert(ww), vv)
    else:
        images[v - 1] = multiply(vv, invert(ww))
        inv_images[v - 1] = multiply(vv, ww)
    return NamedAut(sig, (m_name(v, e, w),), images, inv_images)


def ref_con_gen(sig, v, w):
    images, inv_images = _ref_tables(sig)
    vv, ww = gen_word(sig, v), gen_word(sig, w)
    images[v - 1] = multiply(multiply(ww, vv), invert(ww))
    inv_images[v - 1] = multiply(multiply(invert(ww), vv), ww)
    return NamedAut(sig, (c_name(v, w),), images, inv_images)


def ref_swap_gen(sig, i, j):
    if not (1 <= i <= sig.n and 1 <= j <= sig.n):
        raise ValueError(f"P indices out of range for {sig}")
    images, _ = _ref_tables(sig)
    images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return NamedAut(sig, (p_name(i, j),), images, list(images))


def ref_inv_gen(sig, i):
    if not 1 <= i <= sig.n:
        raise ValueError(f"I index out of range for {sig}")
    images, _ = _ref_tables(sig)
    images[i - 1] = invert(images[i - 1])
    return NamedAut(sig, (i_name(i),), images, list(images))


def ref_gen_aut(sig, name):
    """Each kind written out at power +1; power -1 swaps the tables."""
    if name.kind == "M":
        f = ref_mul_gen(sig, name.v, name.e, name.w)
    elif name.kind == "C":
        f = ref_con_gen(sig, name.v, name.w)
    elif name.kind == "P":
        f = ref_swap_gen(sig, name.v, name.w)
    else:
        f = ref_inv_gen(sig, name.v)
    if name.power == -1:
        return NamedAut(sig, (name,), f.inv_images, f.images)
    return f


def _names_up_to(top):
    """Every M, C, P and I name whose codes or indices are at most top."""
    for v in range(1, top + 1):
        yield i_name(v)
        for w in range(1, top + 1):
            if v != w:
                yield m_name(v, 1, w)
                yield m_name(v, -1, w)
                yield c_name(v, w)
                if v < w:
                    yield p_name(v, w)


@pytest.mark.parametrize(
    "sig", [Signature(2, 0, 0), Signature(1, 1, 1), Signature(2, 2, 2), Signature(3, 1, 2)]
)
def test_gen_aut_matches_the_hand_written_constructors(sig):
    for base in _names_up_to(sig.ngens + 1):
        # M and C take any letter; P and I take x indices only.
        valid = max(base.v, base.w) <= (sig.ngens if base.kind in ("M", "C") else sig.n)
        for name in (base, base.inv()):
            if valid:
                got, ref = gen_aut(sig, name), ref_gen_aut(sig, name)
                assert got.images == ref.images
                assert got.inv_images == ref.inv_images
                assert got.spelling == ref.spelling == (name,)
            else:
                with pytest.raises(ValueError):
                    gen_aut(sig, name)
                with pytest.raises(ValueError):
                    ref_gen_aut(sig, name)
    # A GenName built by hand is checked as its constructor would check it.
    for name in (
        GenName("M", 1, 1, 1, 1),
        GenName("M", 1, 0, 2, 1),
        GenName("C", 2, 0, 2, -1),
        GenName("C", 1, 0, 2, 2),
        GenName("P", 1, 0, 1, 1),
        GenName("I", 1, 0, 0, 0),
    ):
        with pytest.raises(ValueError):
            gen_aut(sig, name)


def test_the_generator_cache_is_bounded():
    """A fixed bound, far above the 558 (signature, name) pairs that the
    benchmark's verify grid builds, so a long-lived process cannot grow
    the cache without limit while no run of the verify families evicts."""
    info = automorphism._cached_gen_aut.cache_info()
    assert info.maxsize is not None and info.maxsize >= 4 * 558
    assert info.currsize <= info.maxsize


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


def _power_by_repeated_composition(f, m):
    """The reference power: |m| composes, one factor at a time."""
    if m < 0:
        return _power_by_repeated_composition(inverse(f), -m)
    acc = identity(f.sig)
    for _ in range(m):
        acc = compose(acc, f)
    return acc


@pytest.mark.parametrize(
    "text", ["C[y1,x1]", "M[x1^+1,y1] C[z1,x2]^-1", "P[1,2] M[x2^-1,z1] I[1]"]
)
def test_power_matches_the_linear_reference(text):
    f = parse_aut(SIG, text)
    for m in range(-8, 9):
        got, want = power(f, m), _power_by_repeated_composition(f, m)
        assert got.images == want.images
        assert got.inv_images == want.inv_images
        assert got.spelling == want.spelling


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


def test_from_images_refuses_tables_not_of_its_signature():
    sig, other = Signature(1, 1, 1), Signature(0, 2, 1)
    table = [gen_word(other, c) for c in other.gens()]
    with pytest.raises(ValueError, match="signature mismatch"):
        from_images(sig, table, table)
    assert from_images(other, table, table).sig == other
    for wrong in (table[:2], [*table, table[0]]):
        with pytest.raises(ValueError, match="3 words each"):
            from_images(other, wrong, wrong)


def test_from_images_carries_no_spelling():
    """A spelling travels only with tables built from it, so a table built
    from raw images has none."""
    images = [gen_word(SIG, c) for c in SIG.gens()]
    images[Y1 - 1] = w("x1 y1")
    inv_images = list(images)
    inv_images[Y1 - 1] = w("x1^-1 y1")
    f = from_images(SIG, images, inv_images)
    assert f.spelling == ()
    assert repr(f) == "NamedAut(1)"
    with pytest.raises(TypeError):
        from_images(SIG, images, inv_images, (m_name(X1, 1, Y1),))


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
    for tok in (
        "I[3]", "I[0]", "P[01,2]", "P[1,02]", "I[\u0661]", "I[1]\n", "P[1,2]^-1\n",
        "M[x01^+1,y1]", "M[x1^+1,y1]\n", "C[y1,x\u0661]", "C[y1,x1]\n",
    ):
        with pytest.raises(ValueError):
            parse_name(SIG, tok)


def test_spelling_roundtrip():
    text = "M[x1^+1,y1] C[z1,y2]^-1 P[1,2] I[2]"
    sp = parse_spelling(SIG, text)
    assert format_spelling(SIG, sp) == text
    for name in sp:
        assert parse_name(SIG, format_name(SIG, name)) == name


def test_parse_spelling_reads_repeated_tokens_alike():
    s111, s210 = Signature(1, 1, 1), Signature(2, 1, 0)
    for tok in ("M[x1,y1]", "x9", "M[x9^+1,y1]", "I[2]"):
        with pytest.raises(ValueError):
            parse_spelling(s111, f"C[y1,x1] {tok} C[y1,x1] {tok}")
    assert parse_spelling(s210, "M[x2^+1,y1] I[2] M[x2^+1,y1]") == (
        m_name(2, 1, 3),
        i_name(2),
        m_name(2, 1, 3),
    )
    with pytest.raises(ValueError):
        parse_spelling(s111, "M[x2^+1,y1] M[x2^+1,y1]")


def test_parse_name_round_trip_across_signatures():
    for sig in (SIG, Signature(1, 1, 1), Signature(3, 1, 2)):
        for name in s_k_symbols(sig) + s_q_symbols(sig):
            for name in (name, name.inv()):
                tok = format_name(sig, name)
                assert parse_name(sig, tok) == name
                assert parse_spelling(sig, f"{tok} {tok}") == (name, name)


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


# Names that move a y or z letter off its conjugacy class, so that mixed
# spellings land on both sides of the membership test.
NON_MEMBERS = (m_name(Y1, 1, X1), m_name(Z2, -1, Y2), m_name(Y2, 1, Z1))


def involution(changes):
    """The automorphism that changes the given entries and is its own inverse."""
    images = [gen_word(SIG, c) for c in SIG.gens()]
    for c, text in changes.items():
        images[c - 1] = w(text)
    return from_images(SIG, images, images)


# Each sends a y or z letter to a single letter other than itself.
LETTER_MOVES = (
    involution({Y1: "y1^-1"}),
    involution({Y1: "y2", Y2: "y1"}),
    involution({Z1: "y1", Y1: "z1"}),
)


def mixed_spellings(max_len=5):
    """Kernel members (S_K only), boundary-preserving non-members (S_K and
    S_Q) and elements outside Aut(F, boundary)."""
    pools = (s_k_symbols(SIG), NAME_POOL + list(NON_MEMBERS) * 8)
    return st.sampled_from(pools).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from((1, -1))),
            max_size=max_len,
        ).map(lambda ps: tuple(n._replace(power=p) for n, p in ps))
    )


@settings(max_examples=150)
@given(mixed_spellings(), st.sampled_from((identity(SIG),) * 3 + LETTER_MOVES))
@example((), identity(SIG))
@example((s_q_symbols(SIG)[0],), identity(SIG))
@example((), LETTER_MOVES[0])
def test_is_in_autfb_agrees_with_the_rotation_scan(sp, move):
    f = compose(spelling_aut(SIG, sp), move)
    expected = word_routes.is_in_autfb(f)
    assert is_in_autfb(f) == expected
    if expected:
        assert is_in_kernel(f) == word_routes.is_in_kernel(f)
    else:
        with pytest.raises(NotInAutFBError):
            is_in_kernel(f)
        with pytest.raises(NotInAutFBError):
            word_routes.is_in_kernel(f)


def test_is_in_autfb_needs_the_letter_itself_as_cyclic_core():
    # y1 -> x1 y1 x1^-2, whose cyclic core y1 x1^-1 is not a single letter.
    assert not is_in_autfb(compose(con_gen(SIG, Y1, X1), mul_gen(SIG, Y1, -1, X1)))
    for move in LETTER_MOVES:
        assert not is_in_autfb(move)
        assert not is_in_autfb(compose(con_gen(SIG, Y2, X1), move))


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
