"""The signed-row substitution kernel against plain references.

_substitute(_signed(rows), letters) is checked against concatenating the
images (inverting a row for a negative letter on the spot) and freely
reducing the result; presentation._step, folded over a word's letters, is
checked against the image table that spelling_aut builds by composition,
and presentation._trivial against comparing that automorphism with the
identity, also on words whose later steps read the inverse rows that
_step fills only on demand.  presentation._Moves, which reads a
generator's rows only at its name's codes, is checked against the full
scan of every row.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import autfb.presentation as presentation
from autfb import Signature, identity, s_k_symbols, s_q_symbols, spelling_aut
from autfb.automorphism import _signed, _substitute
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
_POOL = {
    sig: [u for s in s_q_symbols(sig) + s_k_symbols(sig) for u in (s, s.inv())]
    for sig in _IMAGE_SIGS
}


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
    moves = presentation._Moves(sig)
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
# _step fills only on demand.  Small signatures, so letters share codes.
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
        moves = presentation._Moves(sig)
        for c in presentation._alphabet(sig).letter:
            assert moves[c] == full_scan_moves(sig, c), (sig, c)


def test_the_lazy_pools_read_inverse_rows():
    for sig, pool in _LAZY_POOL.items():
        kinds = {(u.kind, u.power) for u in pool}
        assert {("C", 1), ("C", -1), ("I", 1), ("I", -1), ("M", 1), ("M", -1)} <= kinds
        moves = presentation._Moves(sig)
        code = presentation._alphabet(sig).code
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
    moves = presentation._Moves(sig)
    code = presentation._alphabet(sig).code
    root = _signed([(c,) for c in sig.gens()])
    # C[z1,x1] moves z1 to x1 z1 x1^-1 and leaves its inverse row unbuilt.
    acc = presentation._step(root, moves[code[conj]])
    assert acc[3] == (1, 3, -1) and acc[-3] is None
    # M[x1^-1,z1] moves x1 to x1 z1^-1, so it reads row -3: filled in place.
    out = presentation._step(acc, moves[code[mult]])
    assert acc[-3] == (1, -3, -1)
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
