"""The signed-row substitution kernel against plain references.

_substitute(_signed(rows), letters) is checked against concatenating the
images (inverting a row for a negative letter on the spot) and freely
reducing the result; presentation._step, folded over a word's letters, is
checked against the image table that spelling_aut builds by composition.
presentation._trivial and presentation._stepped, the fold _trivial falls
back to on every word, are checked against comparing that automorphism
with the identity, also on words whose later steps read the inverse rows
that _step leaves None and inverts where it reads them, without writing
them into the table it reads.  presentation._moves, which reads a
generator's rows only at its name's codes, is checked against the full
scan of every row.  Two plain references check the kernel's shortcuts:
_signed_gen_images builds every row of a generator and inverts all of
them through _signed, where automorphism._gen_images writes the identity
and inverts only the moved rows, and _substituted_step calls _substitute
for each moved row, where presentation._step substitutes in one pass.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import autfb.presentation as presentation
from autfb import Signature, identity, s_k_symbols, s_q_symbols, spelling_aut
from autfb.automorphism import (
    _gen_images,
    _inverted,
    _signed,
    _substitute,
    c_name,
    i_name,
    m_name,
    p_name,
)
from expansion_routes import full_scan_moves

S222 = Signature(2, 2, 2)


def _reduce(letters):
    """The reference free reduction: one stack, one letter at a time."""
    out = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _encode(sig, w):
    """A symbol word as its codes (presentation._alphabet)."""
    code = presentation._alphabet(sig).code
    return tuple(code[u] for u in w)


def _inverse(row):
    return tuple(-d for d in reversed(row))


def _by_concatenation(rows, letters):
    out = []
    for c in letters:
        out.extend(rows[c - 1] if c > 0 else _inverse(rows[-c - 1]))
    return _reduce(out)


def _letters(m, max_size):
    return st.lists(
        st.integers(1, m).flatmap(lambda c: st.sampled_from((c, -c))), max_size=max_size
    )


@st.composite
def _rows_and_word(draw):
    """m reduced rows, each u core_c u^-1 around one shared u, so that the
    images of neighbouring letters cancel across several letters, and a
    word over the m codes (not necessarily reduced)."""
    m = draw(st.integers(1, 6))
    u = draw(_letters(m, 5))
    rows = [_reduce(u + draw(_letters(m, 3)) + list(_inverse(u))) for _ in range(m)]
    return rows, draw(_letters(m, 12))


@settings(max_examples=300, deadline=None)
@given(_rows_and_word())
@example(([(1, 2, 3), (-3, -2, 4)], [1, 2]))  # the whole junction 3 2 cancels
@example(([(1, 2, 3), (-3, -2, -1)], [1, 2, 1, 1]))  # one image eats another
@example(([(1, 2), (3,)], [1, -1, 2, -2, 1]))
@example(([(1,)], []))
def test_substitute_is_the_reduced_concatenation(case):
    rows, letters = case
    got = _substitute(_signed(rows), letters)
    assert type(got) is tuple
    assert got == _by_concatenation(rows, letters)


_IMAGE_SIGS = (Signature(2, 0, 0), Signature(1, 1, 2), Signature(3, 2, 2), Signature(2, 0, 1))


def _every_letter_pool(sig):
    """Every S_Q and S_K letter of sig at both powers."""
    return [u for s in s_q_symbols(sig) + s_k_symbols(sig) for u in (s, s.inv())]


_POOL = {sig: _every_letter_pool(sig) for sig in _IMAGE_SIGS}


def test_the_image_pools_hold_p_and_i_at_both_powers():
    for sig, pool in _POOL.items():
        kinds = {(u.kind, u.power) for u in pool}
        assert {("I", 1), ("I", -1)} <= kinds
        if sig.n >= 2:
            assert {("P", 1), ("P", -1)} <= kinds


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(_IMAGE_SIGS).flatmap(
        lambda sig: st.tuples(st.just(sig), st.lists(st.sampled_from(_POOL[sig]), max_size=10))
    )
)
def test_images_match_the_composed_table(case):
    sig, letters = case
    w = tuple(letters)
    want = spelling_aut(sig, w).images
    moves = presentation._moves(sig, set(_encode(sig, w)))
    acc = _signed([(c,) for c in sig.gens()])
    for s in _encode(sig, w):
        acc = presentation._step(acc, moves[s])
    assert tuple(acc[1 : sig.ngens + 1]) == tuple(img.letters for img in want)


def _inverse_word(w):
    return tuple(u.inv() for u in reversed(w))


@st.composite
def _batch(draw, pools=_POOL, size=6):
    """A signature and a batch of words over its pool: random words, their
    prefixes (shared by several words), repeats, empty words and trivial
    words u v u^-1 v^-1 and u u^-1, in drawn order."""
    sig = draw(st.sampled_from(sorted(pools)))
    base = st.lists(st.sampled_from(pools[sig]), max_size=size).map(tuple)
    stems = draw(st.lists(base, min_size=1, max_size=4))
    stem = st.sampled_from(stems)
    word = st.one_of(
        stem,
        st.tuples(stem, st.integers(0, 6)).map(lambda p: p[0][: p[1]]),
        st.tuples(stem, base).map(lambda p: p[0] + p[1]),
        st.tuples(stem, base).map(
            lambda p: p[0] + p[1] + _inverse_word(p[0]) + _inverse_word(p[1])
        ),
        stem.map(lambda u: u + _inverse_word(u)),
        st.just(()),
    )
    return sig, draw(st.lists(word, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_batch())
def test_trivial_matches_comparing_with_the_identity(case):
    sig, words = case
    want = [spelling_aut(sig, w) == identity(sig) for w in words]
    assert presentation._trivial(sig, [_encode(sig, w) for w in words]) == want


# C, I and M letters at both powers, where a moved row reads a letter -d:
# a later step then reads the inverse of a row an earlier step moved, which
# _step inverts only where it reads it.  Small signatures, so letters share codes.
_LAZY_POOL = {
    sig: [
        u
        for s in s_q_symbols(sig) + s_k_symbols(sig)
        if s.kind in ("C", "I", "M")
        for u in (s, s.inv())
    ]
    for sig in (Signature(1, 1, 2), Signature(2, 0, 1), Signature(2, 1, 1))
}


def test_moves_equal_the_full_scan():
    """At every n, k, l <= 3, each S_K and S_Q code at both powers moves
    the rows that a scan of all n rows finds, in the same order."""
    for n, k, l in itertools.product(range(4), repeat=3):
        if not n + k + l:
            continue
        sig = Signature(n, k, l)
        letters = presentation._alphabet(sig).letter
        moves = presentation._moves(sig, letters)
        for c in letters:
            assert moves[c] == full_scan_moves(sig, c), (sig, c)


def test_the_lazy_pools_read_inverse_rows():
    for sig, pool in _LAZY_POOL.items():
        kinds = {(u.kind, u.power) for u in pool}
        assert {("C", 1), ("C", -1), ("I", 1), ("I", -1), ("M", 1), ("M", -1)} <= kinds
        code = presentation._alphabet(sig).code
        moves = presentation._moves(sig, [code[u] for u in pool])
        assert any(d < 0 for u in pool for _, row in moves[code[u]] for d in row)


@settings(max_examples=200, deadline=None)
@given(_batch(_LAZY_POOL, size=10))
def test_trivial_matches_the_identity_on_words_that_read_inverse_rows(case):
    sig, words = case
    want = [spelling_aut(sig, w) == identity(sig) for w in words]
    assert presentation._trivial(sig, [_encode(sig, w) for w in words]) == want


def test_step_inverts_a_moved_row_only_when_it_is_read():
    sig = Signature(2, 0, 1)
    conj, mult = presentation.c_name(3, 1), presentation.m_name(1, -1, 3)
    code = presentation._alphabet(sig).code
    moves = presentation._moves(sig, [code[conj], code[mult]])
    root = _signed([(c,) for c in sig.gens()])
    # C[z1,x1] moves z1 to x1 z1 x1^-1 and leaves its inverse row unbuilt.
    acc = presentation._step(root, moves[code[conj]])
    assert acc[3] == (1, 3, -1) and acc[-3] is None
    # M[x1^-1,z1] moves x1 to x1 z1^-1, so it reads row -3: inverted where
    # it is read, and acc is left as it was.
    before = list(acc)
    out = presentation._step(acc, moves[code[mult]])
    assert acc == before and acc[-3] is None
    assert out[1] == (1, 1, -3, -1) and out[-1] is None
    assert out[3] is acc[3] and out[-3] is None
    assert tuple(out[1:4]) == spelling_aut(sig, (conj, mult)).fwd[1:4]


def test_trivial_answers_in_input_order():
    """P and I at both powers; repeats and the empty word keep their
    places, and the words are handed over out of sorted order."""
    sig = Signature(2, 0, 0)
    p, i1 = presentation.p_name(1, 2), presentation.i_name(1)
    words = [(p, i1), (), (p, p.inv()), (i1,), (p, i1), (i1.inv(), i1), (p, p), (i1, p) * 2]
    coded = [_encode(sig, w) for w in words]
    assert coded != sorted(coded)
    want = [False, True, True, False, False, True, True, False]
    assert presentation._trivial(sig, coded) == want


def test_expansion_relators_made_by_substitution_hold_only_the_table_ints():
    """Each substitution splices the table's own rows: no letter of a
    relator made by a substitution is a fresh int object (a code below -5
    negated on the fly)."""
    relators, seeds, table = presentation._lpres_expand(S222, 1)
    assert len(relators) == 5040
    stored = {id(c) for sub in table.values() for row in sub for c in row}
    seed_set = set(seeds)
    made = [r for r in relators if r not in seed_set]
    assert len(made) == 5040 - len(seed_set)
    assert all(id(c) in stored for r in made for c in r)


def _signed_gen_images(sig, name):
    """A generator's signed rows built plainly: all n rows, then _signed,
    which inverts each of them, the unmoved ones too."""
    kind, v, e, w, p = name
    rows = [(c,) for c in sig.gens()]
    if kind == "M":
        rows[v - 1] = (w * p, v) if e == 1 else (v, -w * p)
    elif kind == "C":
        rows[v - 1] = (w * p, v, -w * p)
    elif kind == "P":
        rows[v - 1], rows[w - 1] = (w,), (v,)
    else:
        rows[v - 1] = (-v,)
    return _signed(rows)


def _every_name(sig):
    """Every generator name of sig at both powers: M and C over any two
    distinct letters, P and I over the x's."""
    gens, xs = list(sig.gens()), list(sig.x_gens())
    for p in (1, -1):
        for v, w in itertools.permutations(gens, 2):
            yield from (m_name(v, e, w, p) for e in (1, -1))
            yield c_name(v, w, p)
        yield from (p_name(i, j, p) for i, j in itertools.combinations(xs, 2))
        yield from (i_name(i, p) for i in xs)


def test_gen_images_equal_the_signed_construction():
    """At every n, k, l <= 3, every name's rows equal the reference's, and
    each is a tuple of 2n + 1 tuples.  A row that two generators of one
    signature leave unmoved is one object in both tables."""
    count = shared = 0
    for n, k, l in itertools.product(range(4), repeat=3):
        if not n + k + l:
            continue
        sig = Signature(n, k, l)
        ident = _signed([(c,) for c in sig.gens()])
        first = {}
        for name in _every_name(sig):
            got = _gen_images(sig, name)
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            assert got == _signed_gen_images(sig, name), (sig, name)
            for i, row in enumerate(got[1:], 1):
                if row == ident[i]:
                    shared += i in first
                    assert first.setdefault(i, row) is row, (sig, name, i)
            count += 1
    assert count == 7808
    assert shared > count


def _substituted_step(acc, moved):
    """presentation._step through the shared kernel: the None rows a moved
    row reads are inverted in a copy of acc, and _substitute builds the
    moved row from that copy."""
    full = list(acc)
    for _, row in moved:
        for d in row:
            if full[d] is None:
                full[d] = _inverted(full[-d])
    out = list(acc)
    for c, row in moved:
        out[c] = _substitute(full, row)
        out[-c] = None
    return out


@pytest.mark.parametrize("sig", [Signature(1, 1, 2), Signature(2, 1, 1), S222, Signature(3, 2, 2)], ids=str)
def test_step_equals_the_substitution_reference(sig):
    """Seeded random words over S_K and S_Q at both powers, folded from the
    identity by both steps: after every letter both tables are equal, the
    unbuilt (None) inverse rows included, each moved row's inverse is None,
    and the table each step read is left as it was."""
    rng = random.Random(f"step:{sig}")
    letters = list(presentation._alphabet(sig).letter)
    moves = presentation._moves(sig, letters)
    root = _signed(tuple((c,) for c in sig.gens()))
    read_unbuilt = 0
    for _ in range(200):
        got = want = root
        for s in rng.choices(letters, k=rng.randrange(1, 16)):
            before = list(got)
            new, ref = presentation._step(got, moves[s]), _substituted_step(want, moves[s])
            assert list(got) == before and new == ref, (sig, s)
            assert all(new[-c] is None for c, _ in moves[s]), (sig, s)
            read_unbuilt += sum(got[d] is None for _, row in moves[s] for d in row)
            got, want = new, ref
    assert read_unbuilt > 0  # later steps read rows that earlier ones left None


@pytest.mark.parametrize(
    "sig", [Signature(2, 0, 0), Signature(1, 1, 2), Signature(2, 1, 1), S222, Signature(3, 2, 2)], ids=str
)
def test_stepped_matches_comparing_with_the_identity(sig):
    """presentation._stepped, which _trivial falls back to when a shape
    fails the relabeling premise, on every word it is handed: seeded
    batches of random words with all their prefixes (the empty word and a
    one-letter word among them), trivial words u u^-1, u v u^-1 v^-1 and
    the squares of P and I letters, and repeats, shuffled out of sorted
    order."""
    rng = random.Random(f"stepped:{sig}")
    pool = _every_letter_pool(sig)
    involutions = [u for u in pool if u.kind in ("P", "I")]
    unsorted = 0
    for _ in range(20):
        stems = [tuple(rng.choices(pool, k=rng.randrange(1, 9))) for _ in range(3)]
        words = []
        for u in stems:
            words += [u[:j] for j in range(len(u) + 1)]
            words.append(u + _inverse_word(u))
        u, v = stems[:2]
        words.append(u + v + _inverse_word(u) + _inverse_word(v))
        words += [(p, p) for p in rng.sample(involutions, min(2, len(involutions)))]
        words += rng.choices(words, k=4)
        rng.shuffle(words)
        coded = [_encode(sig, w) for w in words]
        unsorted += coded != sorted(coded)
        want = [spelling_aut(sig, w) == identity(sig) for w in words]
        assert presentation._stepped(sig, coded) == want, sig
        assert not all(want)
    assert unsorted
