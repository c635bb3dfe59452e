"""presentation._trivial decides one word per relabeling class, against
deciding every word.

The reference for a single word is spelling_aut compared with the
identity; the reference for a whole check is the stepping decider,
presentation._stepped, run on every word (what _trivial falls back to).
The batches hold relabeled copies of each drawn word, so that a class has
several members, some trivial and some not.  The premise that makes one
decision per class sound, generator tables that commute with relabeling,
is checked at run time; a generator corrupted at one index breaks it, and
then every line equals full evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import autfb.presentation as presentation
from autfb import Signature, identity, spelling_aut, verify_action_consistency, verify_relations
from autfb.automorphism import NamedAut, _inverted, c_name, i_name, m_name, p_name
from autfb.presentation import FAMILY_GROUPS

_SIGS = (Signature(3, 0, 0), Signature(1, 1, 2), Signature(2, 2, 2), Signature(3, 2, 2))


def _relabeled(sig, word, perm):
    """The coded word with every generator field g of its letters written
    perm[g]; a P letter's fields are sorted again by p_name."""
    alpha = presentation._alphabet(sig)
    out = []
    for c in word:
        kind, v, e, w, p = alpha.letter[c]
        if kind == "P":
            name = p_name(perm[v], perm[w], p)
        elif kind == "I":
            name = i_name(perm[v], p)
        elif kind == "M":
            name = m_name(perm[v], e, perm[w], p)
        else:
            name = c_name(perm[v], perm[w], p)
        out.append(alpha.code[name])
    return tuple(out)


def _perms(sig):
    """A permutation of the generators that maps each class to itself."""
    classes = (list(sig.x_gens()), list(sig.y_gens()), list(sig.z_gens()))
    return st.tuples(*map(st.permutations, classes)).map(
        lambda images: {g: h for cls, img in zip(classes, images) for g, h in zip(cls, img)}
    )


def _instance_words(sig):
    """Every relation instance of the four groups as lhs rhs^-1: trivial
    words that do not cancel freely."""
    return [
        i.lhs + _inverted(i.rhs)
        for family in FAMILY_GROUPS
        for i in presentation._relations(family, sig)
    ]


_INSTANCE_WORDS = {sig: _instance_words(sig) for sig in _SIGS}


def _swapped(sig, c):
    """The code of letter c with its fields v and w exchanged, or None when
    that is no letter of the alphabet (or, for P, the same letter)."""
    alpha = presentation._alphabet(sig)
    kind, v, e, w, p = alpha.letter[c]
    return alpha.code.get((kind, w, e, v, p))


@st.composite
def _batch(draw):
    """A signature and a batch of coded words, in drawn order.  Each stem
    (a drawn word of 1 to 10 letters over the whole alphabet, with P and I
    letters at both powers; a relation instance; an instance with one
    letter appended; or u u^-1) comes with a relabeled copy, which is in
    its class, and with three near misses, which have its shapes or its
    pattern of fields but are no relabeling of it: relabeled only from
    letter i on, letter i inverted, and letter i's fields exchanged."""
    sig = draw(st.sampled_from(_SIGS))
    codes = sorted(presentation._alphabet(sig).letter)
    drawn = st.lists(st.sampled_from(codes), min_size=1, max_size=10).map(tuple)
    instance = st.sampled_from(_INSTANCE_WORDS[sig])
    stem = st.one_of(
        drawn,
        instance,
        st.tuples(instance, st.sampled_from(codes)).map(lambda p: p[0] + (p[1],)),
        drawn.map(lambda w: w + _inverted(w)),
    )
    words = []
    for w in draw(st.lists(stem, min_size=1, max_size=4)):
        perm = draw(_perms(sig))
        i = draw(st.integers(0, len(w) - 1))
        swapped = _swapped(sig, w[i])
        words += [w, _relabeled(sig, w, perm), w[:i] + _relabeled(sig, w[i:], perm)]
        words += [w[:i] + (c,) + w[i + 1 :] for c in (-w[i], swapped) if c]
    return sig, draw(st.permutations(words))


@settings(max_examples=150, deadline=None)
@given(_batch())
def test_trivial_matches_each_word_compared_with_the_identity(case):
    sig, words = case
    decode = presentation._alphabet(sig).decode
    want = [spelling_aut(sig, decode(w)) == identity(sig) for w in words]
    assert presentation._trivial(sig, words) == want


def test_a_word_and_its_relabeling_share_one_verdict():
    """A relation word and its relabeling are one class, and the two with
    one letter appended are another: each class is decided once, the first
    trivial and the second not."""
    sig = Signature(2, 2, 2)
    word = _INSTANCE_WORDS[sig][-1]
    swap = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
    extra = presentation._alphabet(sig).code[m_name(1, 1, 3)]
    words = [word, _relabeled(sig, word, swap), word + (extra,), _relabeled(sig, word + (extra,), swap)]
    assert len(set(words)) == 4
    assert presentation._trivial(sig, words) == [True, True, False, False]


def _stepped_lines(monkeypatch, check):
    """check()'s lines with _trivial deciding every word."""
    with monkeypatch.context() as m:
        m.setattr(presentation, "_trivial", presentation._stepped)
        return check().lines


def _checks(sig):
    """The report of each relation group and of the action family."""
    checks = {family: (lambda f=family: verify_relations(f, sig)) for family in FAMILY_GROUPS}
    checks["action"] = lambda: verify_action_consistency(sig, "action")
    return checks


@pytest.mark.parametrize("sig", [Signature(3, 3, 3), Signature(4, 4, 4)], ids=str)
def test_report_lines_equal_deciding_every_word(monkeypatch, sig):
    for name, check in _checks(sig).items():
        lines = check().lines
        assert lines == _stepped_lines(monkeypatch, check), name
        assert all(status == "PASS" for _, _, status in lines), name


# The signatures of the benchmark's verify grid.
_GRID = [
    Signature(*s)
    for s in ((2, 0, 0), (3, 0, 0), (4, 0, 0), (1, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2))
]


def test_the_verify_grid_decides_one_word_per_class(monkeypatch):
    """The relation groups and the action family at the grid's signatures
    hand 12,009 words to _trivial, which decides 1,666."""
    counts = {"words": 0, "decided": 0}
    trivial, stepped = presentation._trivial, presentation._stepped

    def counted(key, decide):
        def run(sig, words):
            counts[key] += len(words)
            return decide(sig, words)

        return run

    monkeypatch.setattr(presentation, "_trivial", counted("words", trivial))
    monkeypatch.setattr(presentation, "_stepped", counted("decided", stepped))
    for sig in _GRID:
        for check in _checks(sig).values():
            assert check().all_passed
    assert counts == {"words": 12009, "decided": 1666}


def test_every_shape_holds_at_small_signatures():
    """At every n, k, l <= 3 each letter's tables are its shape's template,
    so one decision per class is sound for every word the alphabet spells."""
    for n in range(4):
        for k in range(4):
            for l in range(4):
                if n + k + l:
                    relabeling = presentation._Relabeling(Signature(n, k, l))
                    assert all(relabeling[shape] for shape in relabeling.codes), (n, k, l)


@pytest.fixture
def fresh_relabeling():
    """The premise cache emptied around a test that patches generator
    tables, so no verdict on the patched tables outlives it."""
    presentation._relabeling.cache_clear()
    yield
    presentation._relabeling.cache_clear()


def _corrupt(monkeypatch, sig, name, extra):
    """presentation's generator tables with the code extra appended to
    name's fwd row at name.v (and that row's inverse); every other table,
    and name's bwd, as they are."""
    original = presentation._cached_gen_aut

    def corrupted(sig_, name_):
        gen = original(sig_, name_)
        if (sig_, name_) != (sig, name):
            return gen
        fwd = list(gen.fwd)
        fwd[name.v] += (extra,)
        fwd[-name.v] = _inverted(fwd[name.v])
        return NamedAut(sig, gen.spelling, tuple(fwd), gen.bwd)

    monkeypatch.setattr(presentation, "_cached_gen_aut", corrupted)


def _shape(sig, name):
    relabeling = presentation._relabeling(sig)
    return relabeling, relabeling.info[presentation._alphabet(sig).code[name]][2]


S311 = Signature(3, 1, 1)


# x1 is not a field of M[x3^+1,y1] (no template), y1 is one (a template
# unlike its shape's); M[x1^+1,y1] is at the indices every class starts from.
@pytest.mark.parametrize(
    "name,extra",
    [(m_name(3, 1, 4), 1), (m_name(3, 1, 4), 4), (m_name(1, 1, 4), 2)],
    ids=["x3-foreign", "x3-own", "x1-foreign"],
)
def test_a_corrupted_generator_breaks_the_premise(monkeypatch, fresh_relabeling, name, extra):
    """The corrupted letter's shape fails, and every family's lines, FAIL
    lines included, equal deciding every word."""
    _corrupt(monkeypatch, S311, name, extra)
    relabeling, shape = _shape(S311, name)
    assert not relabeling[shape]
    failed = {}
    for family, check in _checks(S311).items():
        lines = check().lines
        assert lines == _stepped_lines(monkeypatch, check), family
        failed[family] = sum(status == "FAIL" for _, _, status in lines)
    assert failed["nielsen"] == 0
    assert all(failed[family] for family in ("jensen-wahl", "rk", "c-lemma", "action"))


def test_without_the_premise_a_corrupted_generator_fails_its_whole_class(
    monkeypatch, fresh_relabeling
):
    """An R5 instance at x1, y1, rotated to start with M[x1^+1,y1] (the
    decider reads a first letter's fwd rows); its relabelings at x2 and x3
    do not hold that letter.  With M[x1^+1,y1] corrupted, only the first
    word fails; were the premise taken as given, its one decision would
    fail all three."""
    alpha = presentation._alphabet(S311)
    word = (alpha.M[1, 1, 4], -alpha.C[4, 1], alpha.M[1, -1, 4], alpha.C[4, 1])
    swaps = ({1: 2, 2: 1, 3: 3, 4: 4, 5: 5}, {1: 3, 2: 2, 3: 1, 4: 4, 5: 5})
    words = [word] + [_relabeled(S311, word, perm) for perm in swaps]
    assert presentation._trivial(S311, words) == [True] * 3
    presentation._relabeling.cache_clear()
    _corrupt(monkeypatch, S311, m_name(1, 1, 4), 1)
    assert presentation._trivial(S311, words) == [False, True, True]
    monkeypatch.setattr(presentation._Relabeling, "__missing__", lambda self, shape: True)
    presentation._relabeling.cache_clear()
    assert presentation._trivial(S311, words) == [False] * 3
