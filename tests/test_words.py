"""Free-group word layer: reduction, arithmetic, conjugacy, projections."""

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autfb.freegroup
from autfb import (
    Signature,
    abelianize,
    commutator,
    conjugate,
    cyclic_reduce,
    delete_y,
    format_word,
    invert,
    is_conjugate,
    multiply,
    parse_word,
    reduce,
)

SIG = Signature(2, 2, 2)


def w(text):
    return parse_word(SIG, text)


# ---------------------------------------------------------------------------
# signature bookkeeping


def test_signature_validates_counts():
    with pytest.raises(ValueError):
        Signature(-1, 1, 0)
    with pytest.raises(ValueError):
        Signature(0, 0, -2)


def test_signature_partition():
    assert SIG.ngens == 6
    assert list(SIG.x_gens()) == [1, 2]
    assert list(SIG.y_gens()) == [3, 4]
    assert list(SIG.z_gens()) == [5, 6]
    assert [SIG.klass(c) for c in SIG.gens()] == ["x", "x", "y", "y", "z", "z"]
    assert SIG.gen_code("y", 2) == 4
    assert SIG.letter_name(5) == "z1"
    with pytest.raises(ValueError):
        SIG.gen_code("z", 3)


# ---------------------------------------------------------------------------
# reduction and arithmetic, worked instances


def test_reduce_cancels_adjacent_inverses():
    assert reduce(SIG, [1, -1, 3]) == w("y1")
    assert reduce(SIG, []) == w("")
    assert reduce(SIG, [3, 1, -1, -3, 5]) == w("z1")


def test_reduce_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        reduce(SIG, [7])
    with pytest.raises(ValueError):
        reduce(SIG, [0])


def test_multiply_instances():
    assert multiply(w("x1"), w("x1^-1")) == w("")
    assert multiply(w("x1"), w("")) == w("x1")
    assert multiply(w("y1 x1"), w("x1^-1 z1")) == w("y1 z1")


def test_invert_instances():
    assert invert(w("x1 y2^-1")) == w("y2 x1^-1")
    assert invert(w("")) == w("")
    assert invert(w("z1 z1")) == w("z1^-1 z1^-1")


def test_conjugate_instances():
    assert conjugate(w("y1"), w("x1")) == w("x1 y1 x1^-1")
    assert conjugate(w("x1"), w("x1")) == w("x1")
    assert conjugate(w("y1"), w("x1 x1")) == w("x1 x1 y1 x1^-1 x1^-1")


def test_commutator_instances():
    assert commutator(w("x1"), w("x1")) == w("")
    assert commutator(w("x1"), w("")) == w("")
    assert commutator(w("x1"), w("y1")) == w("x1 y1 x1^-1 y1^-1")


def test_cyclic_reduce_instances():
    core, conj = cyclic_reduce(w("x1 y1 x1^-1"))
    assert (core, conj) == (w("y1"), w("x1"))
    core, conj = cyclic_reduce(w("y1"))
    assert (core, conj) == (w("y1"), w(""))
    core, conj = cyclic_reduce(w("x1^-1 z1 y1 x1"))
    assert (core, conj) == (w("z1 y1"), w("x1^-1"))


def test_is_conjugate_instances():
    assert is_conjugate(w("y1"), w("x1 y1 x1^-1"))
    assert not is_conjugate(w("y1"), w("y2"))
    assert is_conjugate(w("x1 z1"), w("z1 x1"))


def test_abelianize_instances():
    assert abelianize(w("x1 y1 x1^-1")) == (0, 0, 1, 0, 0, 0)
    assert abelianize(w("")) == (0, 0, 0, 0, 0, 0)
    assert abelianize(w("x1 x1 z2^-1")) == (2, 0, 0, 0, 0, -1)


def test_delete_y_instances():
    assert delete_y(w("x1 y1 x1^-1")) == w("")
    assert delete_y(w("y2 z1 y2^-1")) == w("z1")
    assert delete_y(w("x1 y1 z1 y1^-1 x1")) == w("x1 z1 x1")


def test_delete_y_does_not_recheck_a_valid_word(monkeypatch):
    u = w("x1 y1 z1 y1^-1 x1 y2")
    checked = []
    original = autfb.freegroup._check_letters

    def counted(sig, letters):
        checked.append(letters)
        return original(sig, letters)

    monkeypatch.setattr(autfb.freegroup, "_check_letters", counted)
    assert delete_y(u).letters == (1, 5, 1)
    assert checked == []
    # The constructors that take raw letters still check them.
    reduce(SIG, [1, -1, 3])
    parse_word(SIG, "x1")
    assert len(checked) == 2


# ---------------------------------------------------------------------------
# text grammar


def test_parse_format_roundtrip():
    for text in ("", "x1", "x1 y2^-1 z1", "z2^-1 z2^-1 y1"):
        assert format_word(w(text)) == text


def test_parser_rejects_general_exponents():
    with pytest.raises(ValueError):
        parse_word(SIG, "x1^2")
    with pytest.raises(ValueError):
        parse_word(SIG, "x1^+1")
    with pytest.raises(ValueError):
        parse_word(SIG, "w1")
    with pytest.raises(ValueError):
        parse_word(SIG, "y3")


@pytest.mark.parametrize(
    "sig",
    [Signature(1, 0, 0), Signature(0, 2, 1), Signature(1, 1, 1), SIG, Signature(3, 1, 2)],
)
def test_letter_code_inverts_letter_name(sig):
    for g in sig.gens():
        for c in (g, -g):
            assert sig.letter_code(sig.letter_name(c)) == c


def test_letter_code_reads_the_letter_grammar():
    assert SIG.letter_code("x2") == 2
    assert SIG.letter_code("z1^-1") == -5
    assert SIG.letter_code("x1^1") == 1
    bad = (
        "x1^2", "x1^+1", "x1^-2", "w1", "x3", "y0", "z3^-1", "", "x1 ", "x1\n",
        "x01", "y001^-1", "x\u0661", "z\uff11",
    )
    for text in bad:
        with pytest.raises(ValueError):
            SIG.letter_code(text)


def _index_text(index, style):
    """index written plainly, with one or two leading zeros, or in
    Arabic-Indic digits."""
    if style == "zero":
        return "0" + str(index)
    if style == "zeros":
        return "00" + str(index)
    if style == "arabic":
        return "".join(chr(0x660 + int(d)) for d in str(index))
    return str(index)


def _code_or_error(read, sig, text):
    try:
        return read(sig, text)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def letter_texts(draw):
    """A signature and a text over x, y and z, indices 0 to ngens + 2."""
    sig = Signature(*draw(st.tuples(*(st.integers(0, 3) for _ in range(3))).filter(any)))
    index = draw(st.integers(0, sig.ngens + 2))
    style = draw(st.sampled_from(["plain", "zero", "zeros", "arabic"]))
    exp = draw(st.sampled_from(["", "^1", "^-1", "^+1", "^2", "^-2"]))
    return sig, draw(st.sampled_from("xyz")) + _index_text(index, style) + exp


@settings(max_examples=300, deadline=None)
@given(letter_texts())
def test_letter_table_agrees_with_the_grammar(case):
    """Every text gives the code, or the ValueError, of the grammar alone."""
    sig, text = case
    want = _code_or_error(autfb.freegroup._parse_letter, sig, text)
    assert _code_or_error(Signature.letter_code, sig, text) == want


def test_module_docstring_example_runs():
    result = doctest.testmod(autfb.freegroup)
    assert result.failed == 0
    assert result.attempted > 0


# ---------------------------------------------------------------------------
# algebraic laws on random words

letters = st.sampled_from(
    [c for g in SIG.gens() for c in (g, -g)]
)
raw_words = st.lists(letters, max_size=24)


def mk(letters_):
    return reduce(SIG, letters_)


@given(raw_words)
def test_reduce_idempotent_and_reduced(ls):
    u = mk(ls)
    assert reduce(SIG, list(u.letters)) == u
    assert all(a != -b for a, b in zip(u.letters, u.letters[1:]))


@given(raw_words, raw_words, raw_words)
def test_multiply_associative(a, b, c):
    u, v, t = mk(a), mk(b), mk(c)
    assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))


@given(raw_words)
def test_inverse_law(ls):
    u = mk(ls)
    assert multiply(u, invert(u)) == w("")
    assert invert(invert(u)) == u


@given(raw_words, raw_words)
def test_conjugacy_by_construction(a, b):
    u, c = mk(a), mk(b)
    assert is_conjugate(u, conjugate(u, c))


@given(raw_words)
def test_cyclic_reduce_reconstructs(ls):
    u = mk(ls)
    core, conj = cyclic_reduce(u)
    assert conjugate(core, conj) == u
    if core:
        assert core.letters[0] != -core.letters[-1]


@given(raw_words, raw_words)
def test_abelianize_additive(a, b):
    u, v = mk(a), mk(b)
    lhs = abelianize(multiply(u, v))
    rhs = tuple(p + q for p, q in zip(abelianize(u), abelianize(v)))
    assert lhs == rhs


@given(raw_words, raw_words)
def test_delete_y_is_a_homomorphism(a, b):
    u, v = mk(a), mk(b)
    assert delete_y(multiply(u, v)) == multiply(delete_y(u), delete_y(v))
    assert all(SIG.klass(abs(c)) != "y" for c in delete_y(u).letters)


@settings(max_examples=40)
@given(raw_words)
def test_format_parse_inverse_of_each_other(ls):
    u = mk(ls)
    assert parse_word(SIG, format_word(u)) == u
