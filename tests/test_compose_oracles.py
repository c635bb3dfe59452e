"""Incremental compose against the full-substitution reference and an
independent free-group oracle (sympy.combinatorics.free_groups), and the
cached spelling evaluator against the identity fold."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics.free_groups import free_group

import autfb.automorphism as automorphism
from autfb import (
    Signature,
    apply,
    c_name,
    compose,
    from_images,
    gen_aut,
    identity,
    inverse,
    m_name,
    p_name,
    i_name,
    power,
    spelling_aut,
)

SIGS = (Signature(2, 0, 0), Signature(1, 1, 1), Signature(2, 2, 2))


def ref_compose(f, g):
    """The full-substitution compose: every entry of both tables is
    substituted, f's table into g.images and g's inverse table into
    f.inv_images."""
    images = [apply(f, w) for w in g.images]
    inv_images = [apply(inverse(g), w) for w in f.inv_images]
    h = from_images(f.sig, images, inv_images)
    return automorphism.NamedAut(f.sig, f.spelling + g.spelling, h.fwd, h.bwd)


def all_names(sig):
    """Every M, C, P and I name of the signature, with power +1."""
    codes = list(sig.gens())
    names = []
    for v in codes:
        for w in codes:
            if v != w:
                names += [m_name(v, 1, w), m_name(v, -1, w), c_name(v, w)]
    for i in sig.x_gens():
        names.append(i_name(i))
        names += [p_name(i, j) for j in sig.x_gens() if i < j]
    return names


def factors(sig):
    """An identity factor, one generator to a power, or a short product."""
    gens = st.builds(
        lambda name, p: gen_aut(sig, name._replace(power=p)),
        st.sampled_from(all_names(sig)),
        st.sampled_from((1, -1)),
    )
    powers = st.builds(power, gens, st.integers(-3, 3))
    products = st.lists(st.one_of(gens, powers), min_size=2, max_size=4).map(
        lambda fs: _fold(sig, fs)
    )
    return st.one_of(st.just(identity(sig)), gens, powers, products)


def _fold(sig, fs):
    acc = identity(sig)
    for f in fs:
        acc = ref_compose(acc, f)
    return acc


def pairs():
    return st.sampled_from(SIGS).flatmap(lambda sig: st.tuples(factors(sig), factors(sig)))


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_compose_matches_full_substitution(fg):
    f, g = fg
    got, ref = compose(f, g), ref_compose(f, g)
    assert got.images == ref.images
    assert got.inv_images == ref.inv_images
    assert got.spelling == ref.spelling


def test_compose_reuses_untouched_entries():
    sig = Signature(2, 2, 2)
    f = power(gen_aut(sig, c_name(3, 1)), 2)
    g = gen_aut(sig, m_name(5, 1, 6))
    h = compose(f, g)
    for c in sig.gens():
        if c != 5:
            assert h.fwd[c] is f.fwd[c] and h.fwd[-c] is f.fwd[-c]
    # g's one moved row uses only letters that f fixes.
    assert h.fwd[5] is g.fwd[5] and h.fwd[-5] is g.fwd[-5]
    # f's inverse table never mentions the letter g moves.
    reused = [c for c in sig.gens() if len(f.bwd[c]) > 1]
    assert reused
    assert all(h.bwd[c] is f.bwd[c] and h.bwd[-c] is f.bwd[-c] for c in reused)


def _sympy_group(sig):
    F, *gens = free_group(", ".join(f"g{c}" for c in sig.gens()))
    return F, gens


def _to_sympy(F, gens, letters):
    out = F.identity
    for c in letters:
        out = out * (gens[c - 1] if c > 0 else gens[-c - 1] ** -1)
    return out


def _substitute(F, gens, table, letters):
    """A word's image under a table, multiplied out in the sympy group."""
    out = F.identity
    for c in letters:
        img = _to_sympy(F, gens, table[abs(c) - 1].letters)
        out = out * (img if c > 0 else img**-1)
    return out


@settings(max_examples=80, deadline=None)
@given(pairs())
def test_compose_agrees_with_the_sympy_free_group(fg):
    f, g = fg
    F, gens = _sympy_group(f.sig)
    h = compose(f, g)
    for c in f.sig.gens():
        # h(c) = f(g(c)) and h^-1(c) = g^-1(f^-1(c)), each multiplied out
        # by sympy's own reduction.
        g_c = g.images[c - 1].letters
        assert _to_sympy(F, gens, h.images[c - 1].letters) == _substitute(
            F, gens, f.images, g_c
        )
        fi_c = f.inv_images[c - 1].letters
        assert _to_sympy(F, gens, h.inv_images[c - 1].letters) == _substitute(
            F, gens, g.inv_images, fi_c
        )
        # The two tables are mutually inverse.
        assert _substitute(F, gens, h.images, h.inv_images[c - 1].letters) == gens[c - 1]



def ref_spelling_aut(sig, spelling):
    """The identity fold: every letter built afresh by gen_aut and composed
    onto the identity."""
    acc = identity(sig)
    for name in spelling:
        acc = compose(acc, gen_aut(sig, name))
    return acc


def spellings():
    def at(sig):
        names = st.builds(
            lambda name, p: name._replace(power=p),
            st.sampled_from(all_names(sig)),
            st.sampled_from((1, -1)),
        )
        return st.tuples(st.just(sig), st.lists(names, max_size=6))

    return st.sampled_from(SIGS).flatmap(at)


@settings(max_examples=150, deadline=None)
@given(spellings())
@example((SIGS[0], []))
@example((SIGS[1], [i_name(1, -1), c_name(2, 1, -1), i_name(1)]))
@example((SIGS[2], [p_name(1, 2, -1), i_name(2), m_name(1, -1, 3, -1), p_name(1, 2)]))
def test_spelling_aut_matches_the_identity_fold(case):
    sig, spelling = case
    ref = ref_spelling_aut(sig, spelling)
    # Any iterable of names is a spelling, a one-shot iterator included.
    for got in (spelling_aut(sig, spelling), spelling_aut(sig, iter(spelling))):
        assert got.images == ref.images
        assert got.inv_images == ref.inv_images
        assert got.spelling == ref.spelling


def test_spellings_build_each_generator_once(monkeypatch):
    sig = Signature(4, 1, 2)  # evaluated by no other test, so its cache is cold
    calls = []
    real = automorphism.gen_aut

    def counting(s, name):
        calls.append((s, name))
        return real(s, name)

    monkeypatch.setattr(automorphism, "gen_aut", counting)
    a, b, c, d = m_name(1, 1, 5), c_name(6, 2), p_name(1, 4), i_name(3)
    spelling_aut(sig, (a, b, a, c, a.inv()))
    spelling_aut(sig, (c, d, b, b, a))
    assert len(calls) == len(set(calls))
    assert set(calls) == {(sig, name) for name in (a, b, c, d, a.inv())}
