"""Formal presentations: symbol alphabets, relation tables, and the
conjugation action of the quotient alphabet on the kernel alphabet.

Alphabets (in_s_k and in_s_q test membership in s_k_symbols and
s_q_symbols, at either formal power):

    S_N   swaps, inversions, and Nielsen moves among the x's
    S_Q   S_N plus conjugations C[z,v] and Nielsen moves M[x^e,v] with
          targets in X u Z  (a copy of the boundary quotient group)
    S_K   M[x^e,y], C[z,y], C[y,v]  (normal generators of the kernel)

_alphabet is the one coding of S_K u S_Q as signed ints: symbol i of
s_k_symbols is code i + 1, symbol j of s_q_symbols follows as |S_K| + j + 1,
and a letter at formal power -1 is the negated code.  A word over the
symbols is a tuple of codes, freely reduced by freegroup._free_reduce (a
letter cancels only against its formal inverse: P and I are involutions in
the group but not in the free group on symbols) and inverted by negation.

The relation families (N1-N5, Q1-Q5, R1.1-R5, C1.1-C2.2), the residue rows
of table5 and the action rows are built as coded words that spell every
letter as the paper does, at its own power: the code of C[z,v]^e is
e * C[z, v], read from the alphabet's per-kind maps (its fields M, C, P
and I), and a conjugation is a literal tuple of codes.
The families are one table, _TABLE, with a row (_Row) per relation of the
paper: its tag and params text, its bound variables in loop order, each
with a domain and the bound variables it must differ from, and a body
that spells lhs and rhs or returns None when a remaining side condition
fails.  _Shared loops enclose rows whose instances interleave.  Table 5's
nine residue rows are rows of the same kind, in _TABLE5: a table5 row's
lhs is its letter triple (t1, t2, s) and its rhs the residue.  One
interpreter (_emit) loops, prunes, formats and builds every instance and
residue row, each side as its row spells it: no relation side cancels,
so none is reduced there (a residue row spells its residue reduced), and
enumerate_relations reduces its sides for the public API.  _SUBFAMILIES holds one builder per family, and
Q1 is N1-N5 retagged.  A dotted tag's builder runs only that tag's rows,
inside the _Shared loops that enclose them.  A multiplier relabeled to w^-1 becomes
the power, since M[v^e,w^-1] = M[v^e,w]^-1 and C[v,w^-1] = C[v,w]^-1;
_swapped is the one swap relabeling of an x-index.  Every family is enumerated for a
signature with every side condition enforced, and an instance holds when
lhs rhs^-1 evaluates to the identity.

GenName words remain only at the public edges, which decode once:
enumerate_relations, table5_rows, action_f, reduced_sq_words and
lpres_expand.  sym_reduce, sym_mul, sym_inv, action_letter, action_extend
and eval_symbol_word act on GenName words directly, as the public, per-call
route.

The action map action_f(t, s) rewrites t s t^-1 (t an S_Q letter, s an S_K
symbol) as a word over S_K; extended over words it gives the substitution
rule whose iterated application expands the finite seed relation set into
arbitrarily deep relation layers (lpres_expand).  _action_table holds its
coded rows (_action_word), computed only for the (S_Q letter, S_K symbol)
pairs whose fields share a code, since the letter fixes every other
symbol; each letter's rows are kept signed (automorphism._signed: every
row beside its inverse), and acting by one letter on a coded word is one
_substitute step.  Three checks read the table:

    lpres_expand               walks the words layer by layer: the
                               relators of t w' are t's table substituted
                               into those of w', once per (t, length, r)
    verify_action_consistency  one family per call: "action" evaluates
                               the entries (_entries_hold), "inverse"
                               undoes each by t^-1's table (_undone)
    verify_table5              both orders of two letters, one step each

_entries_hold evaluates the entries of the S_Q letters of power +1; those
of power -1 follow by transport, whose premise is their _undone lines.
lpres_expand_proved decides that every relator is trivial from the seeds
and the entries, not the relators, and leaves them coded for the command
line to spell.

A check hands all its coded words to one _trivial call, which decides
whether each evaluates to the identity.  Relabeling the x's, the y's and
the z's, each class among itself, does not change that answer, so
_trivial decides one word per relabeling class (its canonical form: each
letter's shape and the rank at which each of its fields first appears)
when every generator table of the shapes involved is the relabeled table
(_Relabeling, checked once per signature and shape), and every word
otherwise.  The decider (_stepped) folds each prefix the sorted words
share once.  Its step (_step) rewrites only the forward rows the
letter's generator moves (_Moves, keyed by code, reads only the rows of
the codes the letter's name holds), substitutes each in one pass, and
inverts a row only when it is read.  eval_symbol_word is
automorphism.spelling_aut, which builds both tables of a NamedAut: the
independent reference for _trivial.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import chain, islice
from operator import countOf, itemgetter
from typing import NamedTuple

from .freegroup import Signature, _free_reduce
from .automorphism import (
    _cached_gen_aut,
    _inverted,
    _signed_identity,
    _substitute,
    c_name,
    format_name,
    format_spelling,
    m_name,
    p_name,
    i_name,
    spelling_aut,
)


# ---------------------------------------------------------------------------
# symbol words


def sym_reduce(letters):
    """Freely reduce a sequence of GenName letters.

    Two adjacent letters cancel when their powers are opposite and their
    first four fields (kind, v, e, w) agree.
    """
    stack = []
    for s in letters:
        if stack and stack[-1].power == -s.power and stack[-1][:4] == s[:4]:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def sym_mul(*words):
    out = []
    for w in words:
        out.extend(w)
    return sym_reduce(out)


def sym_inv(w):
    return tuple(s.inv() for s in reversed(w))


def format_symbols(sig, w):
    return format_spelling(sig, w)


def eval_symbol_word(sig, w):
    """Evaluate a symbol word to an automorphism; leftmost letter last."""
    return spelling_aut(sig, w)


class _Moves(dict):
    """code -> the rows its letter's generator moves at sig, as (c, image
    letters): c is moved when the generator's row (NamedAut.fwd) of c is
    not (c,).  Only the rows at the name's own codes (v, and w unless it is
    0) are read, since _gen_images moves no other row.  Each letter's
    generator is read once per map."""

    def __init__(self, sig):
        self.sig = sig
        self.letter = _alphabet(sig).letter

    def __missing__(self, s):
        name = self.letter[s]
        fwd = _cached_gen_aut(self.sig, name).fwd
        rows = self[s] = tuple(
            (c, fwd[c]) for c in (name.v, name.w) if c and fwd[c] != (c,)
        )
        return rows


def _step(acc, moved):
    """The signed table (_signed) of w s from acc, the one of w: each row s
    moves is acc substituted into s's image of it, in one pass that
    cancels each image against the tail at their junction, as _substitute
    does; no other row changes.  A moved row's inverse is left None, and
    is filled in acc, in place, only when a later step reads it."""
    out = list(acc)
    for c, row in moved:
        new = []
        for d in row:
            img = acc[d]
            if img is None:
                img = acc[d] = _inverted(acc[-d])
            if new and new[-1] == -img[0]:
                new.pop()
                k = 1
                while new and k < len(img) and new[-1] == -img[k]:
                    new.pop()
                    k += 1
                new.extend(img[k:])
            else:
                new.extend(img)
        out[c] = tuple(new)
        out[-c] = None
    return out


def _stepped(sig, words):
    """[spelling_aut(sig, w) is the identity for w in words], in input
    order, for coded words (_alphabet).

    A word h s is the identity when h evaluates to s^-1, so h is stepped
    through and its rows compared with the rows of s^-1 (NamedAut.bwd).
    The words go in sorted order, and stack[j] is the signed table of the
    previous h's first j letters: a prefix h shares with the one before it
    is stepped through once, the stack is never deeper than the longest
    word, and no word's table outlives the next word.  The root is a fresh
    list: _step fills inverse rows in place.
    """
    moves = _Moves(sig)
    ends = {}
    stack = [list(_signed_identity(sig.ngens))]
    n = sig.ngens
    prev = ()
    out = [True] * len(words)
    for i in sorted(range(len(words)), key=words.__getitem__):
        w = words[i]
        if not w:
            continue
        head = w[:-1]
        j = 0
        for a, b in zip(prev, head):
            if a != b:
                break
            j += 1
        del stack[j + 1 :]
        for s in head[j:]:
            stack.append(_step(stack[-1], moves[s]))
        s = w[-1]
        end = ends.get(s) or ends.setdefault(
            s, list(_cached_gen_aut(sig, moves.letter[s]).bwd[1 : n + 1])
        )
        out[i] = stack[-1][1 : n + 1] == end
        prev = head
    return out


def _template(sig, name):
    """The positive rows that name's generator moves in its tables (fwd,
    then bwd), with the name's own fields written 1 (v) and 2 (w), signed:
    the same for every name of one shape (_Relabeling) when the tables
    commute with relabeling.  None when a moved row is at, or holds, a
    generator that is none of the name's fields."""
    own = {name.v: 1, -name.v: -1}
    if name.w:
        own.update({name.w: 2, -name.w: -2})
    gen = _cached_gen_aut(sig, name)
    try:
        return tuple(
            tuple((own[c], tuple(own[d] for d in rows[c])) for c in sig.gens() if rows[c] != (c,))
            for rows in (gen.fwd, gen.bwd)
        )
    except KeyError:
        return None


class _Relabeling(dict):
    """shape -> whether relabeling commutes with the generator tables of
    every letter of that shape at sig, read once per shape.

    A shape is a letter's kind, e, power and the classes (x, y or z) of its
    fields v and w: relabeling the x's, the y's and the z's, each class
    among itself, maps a letter to one of its own shape.  info[c] is
    (v, w, shape, whether the letter is a P) for every signed code c,
    indexed as the signed tables are.  A shape holds when its letters
    share one _template: then every relabeling maps each letter's tables
    to the relabeled letter's."""

    def __init__(self, sig):
        alpha = _alphabet(sig)
        self.sig, self.letter = sig, alpha.letter
        self.info = [None] * (len(alpha.letter) + 1)
        self.codes = {}
        ids = {}
        for c, u in alpha.letter.items():
            shape = (u.kind, u.e, u.power, sig.klass(u.v), u.w and sig.klass(u.w))
            shape = ids.setdefault(shape, len(ids))
            self.info[c] = (u.v, u.w, shape, u.kind == "P")
            self.codes.setdefault(shape, []).append(c)

    def __missing__(self, shape):
        templates = {_template(self.sig, self.letter[c]) for c in self.codes[shape]}
        ok = self[shape] = None not in templates and len(templates) == 1
        return ok


@lru_cache(maxsize=16)
def _relabeling(sig):
    return _Relabeling(sig)


def _trivial(sig, words):
    """[spelling_aut(sig, w) is the identity for w in words], in input
    order, for coded words (_alphabet).

    Relabeling the x's, the y's and the z's, each class among itself, is
    conjugation by a permutation automorphism of F, so a relabeled word is
    trivial exactly when the word is.  Each word's canonical form is read
    in one pass: per letter its shape (_Relabeling) and its fields v and w,
    each written as its rank in the order the word's fields first appear
    (a P letter's two ranks sorted again, as P[i,j] is P[j,i]).  Two words
    with one form are relabelings of each other, so _stepped decides only
    the first word of each form, and each word holds its form's index until
    its flag is read back.

    That is sound only if each generator's tables are the relabeled
    tables of the generator it is relabeled from, as _stepped reads them
    (the moved rows of fwd, and bwd's rows): then _stepped steps the
    relabeled word through the relabeled tables.  So every shape the forms
    use must hold in _relabeling(sig), a 16-entry cache; if one does not,
    every word is decided, and the flags equal full evaluation for any
    generator tables.  Every word of a form is an input word, so no
    relabeled letter is ever built and none needs to be in the alphabet.
    """
    shapes = _relabeling(sig)
    info = shapes.info
    forms = {}
    firsts = []
    out = []
    for w in words:
        ranks = {}
        rank = ranks.setdefault
        form = []
        for c in w:
            v, u, shape, swap = info[c]
            rv, ru = rank(v, len(ranks)), rank(u, len(ranks))
            form += (shape, rv, ru) if not swap or rv < ru else (shape, ru, rv)
        i = forms.setdefault(tuple(form), len(forms))
        if i == len(firsts):
            firsts.append(w)
        out.append(i)
    if not all(map(shapes.__getitem__, {s for form in forms for s in form[::3]})):
        return _stepped(sig, words)
    flags = _stepped(sig, firsts)
    return [flags[i] for i in out]


# ---------------------------------------------------------------------------
# alphabets


class _Alphabet(namedtuple("_Alphabet", "s_k s_q code letter text M C P I negated")):
    def decode(self, codes):
        return tuple(self.letter[c] for c in codes)


@lru_cache(maxsize=16)
def _alphabet(sig):
    """S_K, S_Q and their one coding: s_k_symbols(sig)[i] at power +-1 is
    code +-(i+1), and s_q_symbols(sig)[j] is +-(|S_K|+j+1).  code maps a
    letter to its code; letter and text map a code to its letter and to its
    format_name.  M, C, P and I map M[v, e, w], C[v, w], P[i, j] (either
    order) and I[i] to the code of the symbol at power +1, through which
    the builders spell their letters.  negated maps a code c to the
    alphabet's own int -c, so a word inverted through it holds the
    alphabet's ints and no new int per letter."""
    s_k = tuple(s_k_symbols(sig))
    s_q = tuple(s_q_symbols(sig))
    letter = {c: u for i, s in enumerate(s_k + s_q, 1) for c, u in ((i, s), (-i, s.inv()))}
    named = {"M": {}, "C": {}, "P": {}, "I": {}}
    for i, s in enumerate(s_k + s_q, 1):
        kind, v, e, w, _ = s
        if kind == "M":
            named[kind][v, e, w] = i
        elif kind == "I":
            named[kind][v] = i
        else:
            named[kind][v, w] = i
            if kind == "P":
                named[kind][w, v] = i
    return _Alphabet(
        s_k,
        s_q,
        {u: c for c, u in letter.items()},
        letter,
        {c: format_name(sig, u) for c, u in letter.items()},
        *named.values(),
        {-c: c for c in letter},
    )


def in_s_k(sig, name):
    """Admissibility in S_K (power ignored): membership in s_k_symbols."""
    alpha = _alphabet(sig)
    return 0 < abs(alpha.code.get(name, 0)) <= len(alpha.s_k)


def in_s_q(sig, name):
    """Admissibility in S_Q (power ignored): membership in s_q_symbols."""
    alpha = _alphabet(sig)
    return abs(alpha.code.get(name, 0)) > len(alpha.s_k)


def s_k_symbols(sig):
    """S_K in a fixed deterministic order."""
    out = []
    for x in sig.x_gens():
        for e in (1, -1):
            for y in sig.y_gens():
                out.append(m_name(x, e, y))
    for z in sig.z_gens():
        for y in sig.y_gens():
            out.append(c_name(z, y))
    for y in sig.y_gens():
        for v in sig.gens():
            if v != y:
                out.append(c_name(y, v))
    return out


def s_q_symbols(sig):
    """S_Q in a fixed deterministic order, starting with the swaps P[i,j]
    (i < j) and then the inversions I[i]."""
    xs = sig.x_gens()
    out = [p_name(i, j) for i in xs for j in xs if i < j] + [i_name(i) for i in xs]
    for z in sig.z_gens():
        for v in sig.xz_gens():
            if v != z:
                out.append(c_name(z, v))
    for x in sig.x_gens():
        for e in (1, -1):
            for v in sig.xz_gens():
                if v != x:
                    out.append(m_name(x, e, v))
    return out


def s_n_symbols(sig):
    """The Nielsen alphabet: the S_Q symbols that only mention x's."""
    return [
        s
        for s in s_q_symbols(sig)
        if s.kind in ("P", "I")
        or (s.kind == "M" and sig.klass(s.w) == "x")
    ]


# ---------------------------------------------------------------------------
# relation tables


class RelationInstance(NamedTuple):
    family: str
    params: str
    lhs: tuple
    rhs: tuple


def _comm(u, v):
    """The coded commutator u v u^-1 v^-1, reduced (_bracket nests it)."""
    return _free_reduce(u + v + _inverted(u) + _inverted(v))


def _perm_apply(name, code, sign):
    """Apply a swap or inversion symbol to a signed letter."""
    if name.kind == "P":
        return _swapped(name, code), sign
    if name.kind == "I":
        return code, -sign if code == name.v else sign
    raise ValueError("need a P or I symbol")


class _Row(NamedTuple):
    """One relation of the paper's table.

    An instance is built for each binding of the enclosing _Shared loops
    and then of loops, in the listed order.  A loop (name, domain, *others)
    binds name to each value of domain(sig) that differs from the values
    of the already-bound others.  body is called with the alphabet's
    M, C, P, I and K (= |S_K|: a code c is in S_K iff |c| <= K), then every
    bound value in binding order; it returns (lhs, rhs) as coded words, or
    None when a remaining side condition fails.  The instance's params
    text is str.format of params with the bound names; a commutator row's
    instance is [lhs, rhs] = 1, spelled lhs rhs lhs^-1 rhs^-1.  A table5
    row (_TABLE5) returns its letter triple (t1, t2, s) as lhs and its
    residue as rhs.  Every side is taken as the body spells it, unreduced.
    """

    tag: str
    params: str
    loops: tuple
    body: object
    comm: bool = False


class _Shared(NamedTuple):
    """Loops that enclose several rows: for each binding of loops, each
    row's instances follow in turn."""

    loops: tuple
    rows: tuple


# The loop domains, each a function of the signature.
X, Y, Z = Signature.x_gens, Signature.y_gens, Signature.z_gens
XZ, YZ, ALL = Signature.xz_gens, Signature.yz_gens, Signature.gens


def SIGNS(sig):
    return (1, -1)


def SWAPS(sig):
    """The swaps P[i,j] (i < j) of S_Q, in s_q_symbols order."""
    return [t for t in _alphabet(sig).s_q if t.kind == "P"]


def C_K(sig):
    """The C symbols of S_K, in s_k_symbols order."""
    return [c for c in _alphabet(sig).s_k if c.kind == "C"]


def _swapped(t, v):
    """The x-index v relabeled by the swap t = P[i,j]."""
    return t.w if v == t.v else t.v if v == t.w else v


_TABLE = {
    "N1": (
        _Row("N1", "Ia^2,a={a}", (("a", X),), lambda M, C, P, I, K, a: ((I[a], I[a]), ())),
        _Row("N1", "[Ia,Ib],a={a},b={b}", (("a", X), ("b", X, "a")),
             lambda M, C, P, I, K, a, b: ((I[a],), (I[b],)), comm=True),
        _Row("N1", "Pab^2,a={t.v},b={t.w}", (("t", SWAPS),),
             lambda M, C, P, I, K, t: ((P[t.v, t.w], P[t.v, t.w]), ())),
        _Row("N1", "[Pab,Pcd],a={s.v},b={s.w},c={t.v},d={t.w}", (("s", SWAPS), ("t", SWAPS)),
             lambda M, C, P, I, K, s, t:
                 None if {s.v, s.w} & {t.v, t.w} else ((P[s.v, s.w],), (P[t.v, t.w],)),
             comm=True),
        _Row("N1", "PPP=P,a={a},b={b},c={c}", (("a", X), ("b", X, "a"), ("c", X, "a", "b")),
             lambda M, C, P, I, K, a, b, c: ((P[a, b], P[b, c], -P[a, b]), (P[a, c],))),
        _Row("N1", "PIP=I,a={a},b={b}", (("a", X), ("b", X, "a")),
             lambda M, C, P, I, K, a, b: ((P[a, b], I[a], -P[a, b]), (I[b],))),
        _Row("N1", "[Pab,Ic],a={t.v},b={t.w},c={c}", (("t", SWAPS), ("c", X)),
             lambda M, C, P, I, K, t, c:
                 None if c in (t.v, t.w) else ((P[t.v, t.w],), (I[c],)),
             comm=True),
    ),
    # Every swap P[a,b] conjugates before any inversion I[a], as in s_q_symbols.
    "N2": (
        _Row("N2", "P,a={t.v},b={t.w},x={x},e={e:+d},y={y}",
             (("t", SWAPS), ("x", X), ("y", X, "x"), ("e", SIGNS)),
             lambda M, C, P, I, K, t, x, y, e: ((P[t.v, t.w], M[x, e, y], -P[t.v, t.w]),
                                                (M[_swapped(t, x), e, _swapped(t, y)],))),
        _Row("N2", "I,a={a},x={x},e={e:+d},y={y}",
             (("a", X), ("x", X), ("y", X, "x"), ("e", SIGNS)),
             lambda M, C, P, I, K, a, x, y, e:
                 ((I[a], M[x, e, y], -I[a]),
                  ((-1 if y == a else 1) * M[x, -e if x == a else e, y],))),
    ),
    "N3": (
        _Shared((("a", X), ("b", X, "a")), (
            _Row("N3", "form1,a={a},b={b}", (), lambda M, C, P, I, K, a, b:
                 ((-M[a, -1, b], M[b, -1, a], M[a, 1, b]), (I[a], P[a, b]))),
            _Row("N3", "form2,a={a},b={b}", (), lambda M, C, P, I, K, a, b:
                 ((M[a, -1, b], M[b, 1, a], -M[a, 1, b]), (I[b], P[a, b]))),
        )),
    ),
    # x_a^e is none of x_c^f, x_d, x_d^-1, and x_c^f is neither x_b nor x_b^-1.
    "N4": (
        _Row("N4", "a={a},b={b},c={c},d={d},e={e:+d},f={f:+d}",
             (("a", X), ("b", X, "a"), ("c", X, "b"), ("d", X, "c", "a"),
              ("e", SIGNS), ("f", SIGNS)),
             lambda M, C, P, I, K, a, b, c, d, e, f:
                 None if a == c and e == f else ((M[a, e, b],), (M[c, f, d],)),
             comm=True),
    ),
    "N5": (
        _Row("N5", "a={a},b={b},c={c},e={e:+d},f={f:+d}",
             (("a", X), ("b", X, "a"), ("c", X, "a", "b"), ("e", SIGNS), ("f", SIGNS)),
             lambda M, C, P, I, K, a, b, c, e, f:
                 ((M[b, e, a], e * M[c, f, b]), (e * M[c, f, b], M[b, e, a], M[c, f, a]))),
    ),
    "Q2": (
        # w = v genuinely fails to commute (the second move drags the first
        # one's multiplier), so it is excluded beside the signed-letter condition.
        _Row("Q2.1", "x={x},v={v},w={w},z={z},e={e:+d},d={d:+d}",
             (("x", X), ("v", X, "x"), ("w", X, "v"), ("z", YZ), ("e", SIGNS), ("d", SIGNS)),
             lambda M, C, P, I, K, x, v, w, z, e, d:
                 None if x == w and e == d else ((M[x, e, v],), (M[w, d, z],)),
             comm=True),
        _Row("Q2.2", "x={x},v={v},w={w},z={z},e={e:+d}",
             (("x", X), ("v", X, "x"), ("w", YZ), ("z", YZ, "w"), ("e", SIGNS)),
             lambda M, C, P, I, K, x, v, w, z, e: ((M[x, e, v],), (C[w, z],)), comm=True),
        _Row("Q2.3", "u={u},v={v},w={w},z={z}",
             (("u", YZ), ("v", YZ, "u"), ("w", YZ, "u", "v"), ("z", YZ, "u", "w")),
             lambda M, C, P, I, K, u, v, w, z: ((C[u, v],), (C[w, z],)), comm=True),
    ),
    # Includes the index-disjoint commuting instances: for x not moved by
    # the swap or inversion the right side is just the original symbol.
    "Q3": (
        _Shared((("t", SWAPS), ("x", X), ("z", YZ)), (
            _Row("Q3.1", "i={t.v},j={t.w},x={x},e={e:+d},z={z}", (("e", SIGNS),),
                 lambda M, C, P, I, K, t, x, z, e:
                     ((P[t.v, t.w], M[x, e, z], -P[t.v, t.w]), (M[_swapped(t, x), e, z],))),
            _Row("Q3.2", "i={t.v},j={t.w},x={x},z={z}", (),
                 lambda M, C, P, I, K, t, x, z:
                     ((P[t.v, t.w], C[z, x], -P[t.v, t.w]), (C[z, _swapped(t, x)],))),
        )),
        _Shared((("i", X), ("x", X), ("z", YZ)), (
            _Row("Q3.3", "i={i},x={x},e={e:+d},z={z}", (("e", SIGNS),),
                 lambda M, C, P, I, K, i, x, z, e:
                     ((I[i], M[x, e, z], -I[i]), (M[x, -e if x == i else e, z],))),
            _Row("Q3.4", "i={i},x={x},z={z}", (),
                 lambda M, C, P, I, K, i, x, z:
                     ((I[i], C[z, x], -I[i]), (-C[z, x] if x == i else C[z, x],))),
        )),
    ),
    "Q4": (
        _Row("Q4.1", "x={x},w={w},v={v},e={e:+d},d={d:+d}",
             (("x", X), ("w", X, "x"), ("v", ALL, "x", "w"), ("e", SIGNS), ("d", SIGNS)),
             lambda M, C, P, I, K, x, w, v, e, d:
                 ((-d * M[x, e, w], M[w, d, v], d * M[x, e, w]), (M[x, e, v], M[w, d, v]))),
        _Row("Q4.1'", "z={z},x={x},v={v},e={e:+d}",
             (("z", YZ), ("x", X), ("v", ALL, "x", "z"), ("e", SIGNS)),
             lambda M, C, P, I, K, z, x, v, e:
                 ((-e * C[z, x], M[x, e, v], e * C[z, x]), (C[z, v], M[x, e, v]))),
        _Row("Q4.2", "z={z},v={v},x={x},e={e:+d},d={d:+d}",
             (("z", YZ), ("v", ALL, "z"), ("x", X, "v"), ("e", SIGNS), ("d", SIGNS)),
             lambda M, C, P, I, K, z, v, x, e, d: ((e * C[z, v], M[x, d, z], -e * C[z, v]),
                                                   (-e * M[x, d, v], M[x, d, z], e * M[x, d, v]))),
        _Row("Q4.2'", "z={z},w={w},v={v},e={e:+d}",
             (("z", YZ), ("w", YZ, "z"), ("v", ALL, "z", "w"), ("e", SIGNS)),
             lambda M, C, P, I, K, z, w, v, e: ((e * C[z, v], C[w, z], -e * C[z, v]),
                                                (-e * C[w, v], C[w, z], e * C[w, v]))),
    ),
    "Q5": (
        _Row("Q5", "x={x},v={v},e={e:+d}", (("x", X), ("v", YZ), ("e", SIGNS)),
             lambda M, C, P, I, K, x, v, e:
                 ((-e * C[v, x], M[x, -e, v], e * C[v, x]), (-M[x, e, v],))),
    ),
    "R1": (
        _Row("R1.1", "x={x},e={e:+d},v={v},w={w},d={d:+d},y={y}",
             (("x", X), ("w", X), ("e", SIGNS), ("d", SIGNS), ("v", Y), ("y", Y)),
             lambda M, C, P, I, K, x, w, e, d, v, y:
                 None if x == w and e == d else ((M[x, e, v],), (M[w, d, y],)),
             comm=True),
        _Row("R1.2", "x={x},e={e:+d},y={y},v={c.v},z={c.w}",
             (("x", X), ("e", SIGNS), ("y", Y), ("c", C_K)),
             lambda M, C, P, I, K, x, e, y, c:
                 None if x == c.w or c.v == y else ((M[x, e, y],), (C[c.v, c.w],)),
             comm=True),
        _Row("R1.3", "u={c.v},v={c.w},w={d.v},z={d.w}", (("c", C_K), ("d", C_K)),
             lambda M, C, P, I, K, c, d:
                 None if c.v in (d.v, d.w) or d.v == c.w else ((C[c.v, c.w],), (C[d.v, d.w],)),
             comm=True),
    ),
    "R2": (
        _Row("R2", "x={x},e={e:+d},v={v},z={z}", (("x", X), ("v", Y), ("z", Y, "v"), ("e", SIGNS)),
             lambda M, C, P, I, K, x, v, z, e:
                 ((-e * C[v, x], M[x, e, z], e * C[v, x]), (C[v, z], M[x, e, z]))),
    ),
    "R3": (
        _Row("R3", "x={x},d={d:+d},v={v},z={z},e={e:+d}",
             (("x", X), ("v", Y), ("z", Y, "v"), ("e", SIGNS), ("d", SIGNS)),
             lambda M, C, P, I, K, x, v, z, e, d: ((e * C[v, z], M[x, d, v], -e * C[v, z]),
                                                   (-e * M[x, d, z], M[x, d, v], e * M[x, d, z]))),
    ),
    # Only where all three letters are in S_K.
    "R4": (
        _Row("R4", "v={v},z={z},w={w},e={e:+d}",
             (("v", YZ), ("w", YZ, "v"), ("z", ALL, "v", "w"), ("e", SIGNS)),
             lambda M, C, P, I, K, v, w, z, e:
                 None if max(C[v, z], C[w, v], C[w, z]) > K else
                 ((e * C[v, z], C[w, v], -e * C[v, z]), (-e * C[w, z], C[w, v], e * C[w, z]))),
    ),
    "R5": (
        _Row("R5", "x={x},y={y},e={e:+d}", (("x", X), ("y", Y), ("e", SIGNS)),
             lambda M, C, P, I, K, x, y, e:
                 ((-e * C[y, x], M[x, -e, y], e * C[y, x]), (-M[x, e, y],))),
    ),
    "C1": (
        _Shared((("y", Y),), (
            _Row("C1.1", "y={y},a={a},d={d:+d},b={b},zeta={zeta:+d},v={v},e={e:+d}",
                 (("a", X), ("b", X), ("d", SIGNS), ("zeta", SIGNS), ("v", XZ, "a", "b"),
                  ("e", SIGNS)),
                 lambda M, C, P, I, K, y, a, b, d, zeta, v, e: None if a == b and d == zeta
                 else ((e * C[y, v], M[a, d, y], -e * C[y, v]), (M[b, zeta, y],)),
                 comm=True),
            _Row("C1.2", "y={y},x={x},d={d:+d},z={z},v={v},e={e:+d}",
                 (("x", X), ("z", YZ, "y"), ("v", XZ, "z", "x"), ("e", SIGNS), ("d", SIGNS)),
                 lambda M, C, P, I, K, y, x, z, v, e, d:
                     ((e * C[y, v], M[x, d, y], -e * C[y, v]), (C[z, y],)),
                 comm=True),
            # The table's side condition on w has a stray variable; the reading
            # that matches the underlying commuting relation is w distinct from
            # z (and from y).
            _Row("C1.3", "y={y},z={z},w={w},v={v},e={e:+d}",
                 (("z", YZ, "y"), ("w", YZ, "z", "y"), ("v", XZ, "z", "w"), ("e", SIGNS)),
                 lambda M, C, P, I, K, y, z, w, v, e:
                     ((e * C[y, v], C[z, y], -e * C[y, v]), (C[w, y],)),
                 comm=True),
        )),
    ),
    "C2": (
        _Shared((("y", Y), ("z", Z)), (
            _Row("C2.1", "y={y},z={z},x={x},e={e:+d},d={d:+d}",
                 (("x", X), ("e", SIGNS), ("d", SIGNS)),
                 lambda M, C, P, I, K, y, z, x, e, d:
                     ((e * C[y, z], M[x, d, y], -e * C[y, z]), (C[z, y], M[x, d, y])),
                 comm=True),
            _Row("C2.2", "y={y},z={z},w={w},e={e:+d}", (("w", Z, "z"), ("e", SIGNS)),
                 lambda M, C, P, I, K, y, z, w, e:
                     ((e * C[y, z], C[w, y], -e * C[y, z]), (C[z, y], C[w, y])),
                 comm=True),
        )),
    ),
}

# What every body is called with before the bound values (_lead).
_LEAD = ("M", "C", "P", "I", "K")


def _lead(sig):
    """The binding _LEAD names: the alphabet's M, C, P, I and |S_K|."""
    alpha = _alphabet(sig)
    return (alpha.M, alpha.C, alpha.P, alpha.I, len(alpha.s_k))


def _compiled(node, names=_LEAD):
    """node with every name it reads, in a loop's others or a params field,
    replaced by its index in the binding tuple, whose entries are named by
    names.  A loop's others become two indices (one index twice, when it
    names one) or none."""
    loops = []
    for name, domain, *others in node.loops:
        at = tuple(names.index(o) for o in others)
        loops.append((domain, at * 2 if len(at) == 1 else at))
        names += (name,)
    if isinstance(node, _Shared):
        return _Shared(tuple(loops), tuple(_compiled(row, names) for row in node.rows))
    params = re.sub(r"\{(\w+)", lambda m: "{%d" % names.index(m[1]), node.params)
    return node._replace(params=params, loops=tuple(loops))


def _bind(bindings, loops, sig):
    """Each binding extended by every admissible value of each loop in turn."""
    for domain, others in loops:
        values = domain(sig)
        if others:
            i, j = others
            bindings = [b + (v,) for b in bindings for v in values if v != b[i] and v != b[j]]
        else:
            bindings = [b + (v,) for b in bindings for v in values]
    return bindings


def _emit(out, node, sig, bindings):
    """Append to out the instances of a compiled node, in loop order: a
    _Shared node's rows in turn under each of its bindings.  Each side is
    the body's tuple, and a commutator row's lhs is u v u^-1 v^-1 spelled
    as one tuple, none of them reduced."""
    bindings = _bind(bindings, node.loops, sig)
    if isinstance(node, _Shared):
        for b in bindings:
            for row in node.rows:
                _emit(out, row, sig, [b])
        return
    tag, params, _, body, comm = node
    new = tuple.__new__  # as GenName.base does: no keyword map per instance
    negated = _alphabet(sig).negated.__getitem__
    for b in bindings:
        sides = body(*b)
        if sides is None:
            continue
        if comm:
            u, v = sides
            sides = (*u, *v, *map(negated, reversed(u)), *map(negated, reversed(v))), ()
        out.append(new(RelationInstance, (tag, params.format(*b), *sides)))


def _pruned(items, tag):
    """The rows of items tagged tag, each within the _Shared loops that
    enclose it."""
    out = []
    for item in items:
        if isinstance(item, _Shared):
            rows = _pruned(item.rows, tag)
            if rows:
                out.append(item._replace(rows=rows))
        elif item.tag == tag:
            out.append(item)
    return tuple(out)


def _builder(tag):
    """The instance builder of one family, _TABLE[tag] read by _emit, or of
    one of _DOTTED_TAGS, its own rows of its head's table."""
    head = tag.split(".")[0]
    root = _compiled(_Shared((), _TABLE[head] if head == tag else _pruned(_TABLE[head], tag)))

    def build(sig):
        out = []
        _emit(out, root, sig, [_lead(sig)])
        return out

    # perfbench/layertrace.py traces each builder under this name.
    build.__name__ = build.__qualname__ = f"_{tag.lower()}_instances"
    return build


def _q1_instances(sig):
    new = tuple.__new__
    return [
        new(RelationInstance, ("Q1", f"{tag}:{params}", lhs, rhs))
        for family in FAMILY_GROUPS["nielsen"]
        for tag, params, lhs, rhs in _SUBFAMILIES[family](sig)
    ]


FAMILY_GROUPS = {
    "nielsen": ("N1", "N2", "N3", "N4", "N5"),
    "jensen-wahl": ("Q1", "Q2", "Q3", "Q4", "Q5"),
    "rk": ("R1", "R2", "R3", "R4", "R5"),
    "c-lemma": ("C1", "C2"),
}

_SUBFAMILIES = {
    tag: _q1_instances if tag == "Q1" else _builder(tag)
    for tags in FAMILY_GROUPS.values()
    for tag in tags
}


def _tags(items):
    for item in items:
        yield from _tags(item.rows) if isinstance(item, _Shared) else (item.tag,)


# The dotted instance tags the table's rows emit.
_DOTTED_TAGS = tuple(
    dict.fromkeys(tag for rows in _TABLE.values() for tag in _tags(rows) if "." in tag)
)


def _relations(family, sig):
    """enumerate_relations(family, sig) with coded sides (_alphabet), as
    the rows spell them: not reduced, and none cancels."""
    if family in FAMILY_GROUPS:
        out = []
        for tag in FAMILY_GROUPS[family]:
            out.extend(_SUBFAMILIES[tag](sig))
        return out
    if family in _SUBFAMILIES:
        return _SUBFAMILIES[family](sig)
    if family in _DOTTED_TAGS:
        return _builder(family)(sig)
    raise ValueError(f"unknown relation family {family!r}")


def enumerate_relations(family, sig):
    """All instances of a family for the signature, as GenName words.

    `family` is a subfamily tag (N3, Q4, R1, ...), one of _DOTTED_TAGS
    (R1.2, Q4.1', C2.1, ... - resolved by its head), or one of the group
    tags nielsen / jensen-wahl / rk / c-lemma.  Each side is freely
    reduced here, where the coded sides leave the package.
    """
    decode = _alphabet(sig).decode
    return [
        RelationInstance(i.family, i.params, decode(_free_reduce(i.lhs)), decode(_free_reduce(i.rhs)))
        for i in _relations(family, sig)
    ]


# ---------------------------------------------------------------------------
# verification reports


class Report:
    """Line-per-instance verification record: PASS / FAIL / SKIP.

    lines holds one (family, params or note, status) tuple per line; add,
    extend and skip append to it and keep the running count of each status."""

    def __init__(self):
        self.lines = []
        self._counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}

    def add(self, family, params, ok):
        status = "PASS" if ok else "FAIL"
        self.lines.append((family, params, status))
        self._counts[status] += 1

    def extend(self, lines):
        """add(family, params, ok) for each (family, params, ok) of lines, in
        one step: the lines are appended as they are read, and the FAIL
        lines among them counted once they are in."""
        start = len(self.lines)
        self.lines.extend((f, p, "PASS" if ok else "FAIL") for f, p, ok in lines)
        fail = countOf(map(itemgetter(2), islice(self.lines, start, None)), "FAIL")
        self._counts["FAIL"] += fail
        self._counts["PASS"] += len(self.lines) - start - fail

    def skip(self, family, note):
        self.lines.append((family, note, "SKIP"))
        self._counts["SKIP"] += 1

    @property
    def counts(self):
        return dict(self._counts)

    @property
    def all_passed(self):
        return self._counts["FAIL"] == 0

    def format(self, summary=False):
        c = self._counts
        body = [] if summary else [f"{f}\t{p}\t{s}" for f, p, s in self.lines]
        footer = (
            f"# total\t{len(self.lines)}\tpass\t{c['PASS']}"
            f"\tfail\t{c['FAIL']}\tskip\t{c['SKIP']}"
        )
        return "\n".join(body + [footer])


def verify_relations(family, sig):
    """Evaluate every instance of the family; failures are data, not errors.

    An instance holds when lhs rhs^-1 evaluates to the identity; the coded
    words of every subfamily, spelled as the rows spell them, are decided
    by one _trivial call, and each subfamily's lines go in as one extend.
    """
    report = Report()
    tags = [(tag, _relations(tag, sig)) for tag in FAMILY_GROUPS.get(family, (family,))]
    words = [i.lhs + _inverted(i.rhs) if i.rhs else i.lhs for _, insts in tags for i in insts]
    flags = iter(_trivial(sig, words))
    for tag, instances in tags:
        if not instances:
            report.skip(tag, "no instances at this signature")
        # zip reads instances first, so it stops without taking the next tag's flag
        report.extend((i.family, i.params, ok) for i, ok in zip(instances, flags))
    return report


# ---------------------------------------------------------------------------
# the conjugation action


def action_f(sig, t, s):
    """The word over S_K rewriting t s t^-1.

    t is an S_Q letter with a formal power, s an S_K symbol (power +1).
    An absent table entry means t and s commute, so the result is (s,).
    The involutions P and I act the same at either formal power.
    """
    if not in_s_q(sig, t):
        raise ValueError(f"not an S_Q letter: {t}")
    if not (in_s_k(sig, s) and s.power == 1):
        raise ValueError(f"not an S_K symbol: {s}")
    return _alphabet(sig).decode(_action_word(sig, t, s))


def _action_word(sig, t, s):
    """action_f(sig, t, s) as codes (_alphabet), for an S_Q letter t and an
    S_K symbol s that the caller has taken from the alphabet."""
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    sc = alpha.code[s]
    if t.kind in ("P", "I"):
        # relabel the x that s moves (M[x^e,y]) or conjugates by (C[y,x])
        if s.kind == "M":
            return (M[_perm_apply(t, s.v, s.e) + (s.w,)],)
        x, sign = _perm_apply(t, s.w, 1)
        return (C[s.v, x] * sign,)
    p = t.power
    if sig.is_y(s.v):
        # s = C[y,u] is moved only when t moves u itself
        y, u = s.v, s.w
        if t.v != u:
            return (sc,)
        cyw = C[y, t.w] * p
        if t.kind == "C":
            return (-cyw, sc, cyw)
        return (sc, cyw) if t.e == 1 else (-cyw, sc)
    # s = M[x^eps,y] or C[z,y] moves its letter v by y
    v, y = s.v, s.w
    if (t.v, t.e) == (v, s.e):  # t moves the same signed letter
        cyw = C[y, t.w] * p
        return (-cyw, sc, cyw)
    if t.w != v:
        return (sc,)
    # t moves t.v by v; t_y is the same move by y
    t_y = M[t.v, t.e, y] if t.kind == "M" else C[t.v, y]
    cyv = C[y, v] * p
    if s.kind == "C":
        return (sc, t_y, -cyv, -t_y, cyv)
    if p == s.e:
        return (sc, -cyv, -t_y, cyv)
    return (sc, t_y)


def action_letter(sig, t, u):
    """Substitute one S_Q letter through a word over S_K."""
    out = []
    for s in u:
        img = action_f(sig, t, s.base())
        if s.power == -1:
            img = sym_inv(img)
        out.extend(img)
    return sym_reduce(out)


def action_extend(sig, w, u):
    """Act by a word over S_Q on a word over S_K.

    The letters of w are substituted through u right to left, so the
    leftmost letter of w acts last, matching composition order.
    """
    for t in reversed(w):
        u = action_letter(sig, t, u)
    return u


def _action_table(sig, letters):
    """The action of the given S_Q letters (codes) on S_K codes (_alphabet).

    table[t] is the signed rows (_signed) of t: table[t][c] is
    _action_word(sig, t, s_c), freely reduced, and table[t][-c] its
    inverse, so each row is built once per (letter, symbol) pair and
    inverted once, and acting by t on a coded word u is
    _substitute(table[t], u): the action is a homomorphism in u.  The
    expansion's relators are such S_K codes.

    Most rows are (c,): every letter starts from one shared identity
    table, and only the rows it moves are reduced and inverted.  near maps
    each generator code to the S_K codes whose symbol names it (as s.v or
    s.w), and _action_word runs only on the symbols near t.v or t.w, in
    ascending code (t.w is 0 for I, and names no symbol).  That is exact,
    because _action_word returns (s,) unless the fields of s meet those of
    t: P and I relabel only the x's they name, and an M or C letter moves
    a symbol only through its moved letter t.v or its multiplier t.w.
    """
    alpha = _alphabet(sig)
    s_k = alpha.s_k
    same = _signed_identity(len(s_k))
    near = {}
    for c, s in enumerate(s_k, 1):
        near.setdefault(s.v, []).append(c)
        near.setdefault(s.w, []).append(c)
    table = {}
    for t in letters:
        u = alpha.letter[t]
        sub = list(same)
        for c in sorted({*near.get(u.v, ()), *near.get(u.w, ())}):
            row = _action_word(sig, u, s_k[c - 1])
            if row != (c,):
                sub[c] = row = _free_reduce(row)
                sub[-c] = _inverted(row)
        table[t] = tuple(sub)
    return table


def _undone(table, t, codes):
    """[whether table[-t] substitutes table[t][c] back to (c,), for c in
    codes]: acting by t^-1 undoes acting by t on s_c."""
    return [_substitute(table[-t], table[t][c]) == (c,) for c in codes]


def _entries_hold(sig, table):
    """{t: [whether table[t][c] evaluates to t s_c t^-1, for c = 1, 2, ...]}.

    table holds each S_Q letter at both powers.  The entries of power +1
    letters are evaluated, as the _trivial words table[t][c] t s_c^-1 t^-1.
    Those of t = t'^-1 follow by transport: if every entry of t' holds,
    substituting table[t'] into a word u over S_K evaluates to t' u t'^-1,
    so a row table[t][c] that table[t'] substitutes back to (c,) (its
    "inverse" line, _undone) evaluates to t s_c t^-1.  When a premise
    fails, the power -1 entries are evaluated too, so each flag is its
    entry's own.
    """
    codes = range(1, len(_alphabet(sig).s_k) + 1)

    def evaluate(letters):
        flags = iter(_trivial(sig, [table[t][c] + (t, -c, -t) for t in letters for c in codes]))
        return {t: [next(flags) for _ in codes] for t in letters}

    holds = evaluate([t for t in table if t > 0])
    inverse = [t for t in table if t < 0]
    if all(map(all, holds.values())) and all(all(_undone(table, t, codes)) for t in inverse):
        holds.update((t, [True] * len(codes)) for t in inverse)
    else:
        holds.update(evaluate(inverse))
    return holds


def verify_action_consistency(sig, family):
    """Ground truth for the rewriting table, in one of two senses.

    For every S_Q letter t and S_K symbol s, family "action" checks that
    the rewritten word evaluates to the concrete conjugate t s t^-1 (the
    lines are _entries_hold's: a FAIL line is one whose entry does not
    evaluate to its conjugate), and family "inverse" that acting by t^-1
    undoes acting by t as words over S_K (_undone), checked formally on
    the coded table.
    """
    if family not in ("action", "inverse"):
        raise ValueError(f"unknown action family {family!r}")
    report = Report()
    letters = _sq_codes(sig)
    alpha = _alphabet(sig)
    if not letters or not alpha.s_k:
        report.skip("action", "alphabet empty at this signature")
        return report
    table = _action_table(sig, letters)
    codes = range(1, len(alpha.s_k) + 1)
    if family == "action":
        holds = _entries_hold(sig, table)
    else:
        holds = {t: _undone(table, t, codes) for t in letters}
    s_text = [alpha.text[c] for c in codes]
    for t in letters:
        head = f"t={alpha.text[t]},s="
        report.extend((family, head + s, ok) for s, ok in zip(s_text, holds[t]))
    return report


# ---------------------------------------------------------------------------
# the nine commutator-difference computations


def _residue_rows(first, sign):
    """Table 5's rows first to first + 2, at s = M[a^sign, y]."""

    def residue(C, y, a, u, v):
        """C[y,a]^-1 [u,v] C[y,a] at sign +1, [u^-1,v^-1] at sign -1."""
        return (-C[y, a], u, v, -u, -v, C[y, a]) if sign == 1 else (-u, -v, u, v)

    return (
        _Row(f"row{first}", "y={y},a={a},b={b},e={e:+d},c={c},d={d:+d}",
             (("b", X, "a"), ("c", X, "a"), ("e", SIGNS), ("d", SIGNS)),
             lambda M, C, P, I, K, y, a, b, c, e, d: None if b == c and e == d else
                 ((M[b, e, a], M[c, d, a], M[a, sign, y]), residue(C, y, a, M[b, e, y], M[c, d, y]))),
        _Row(f"row{first + 1}", "y={y},a={a},b={b},e={e:+d},i={i}",
             (("b", X, "a"), ("e", SIGNS), ("i", Z)),
             lambda M, C, P, I, K, y, a, b, e, i:
                 ((M[b, e, a], C[i, a], M[a, sign, y]), residue(C, y, a, M[b, e, y], C[i, y]))),
        _Row(f"row{first + 2}", "y={y},a={a},i={i},j={j}", (("i", Z), ("j", Z, "i")),
             lambda M, C, P, I, K, y, a, i, j:
                 ((C[i, a], C[j, a], M[a, sign, y]), residue(C, y, a, C[i, y], C[j, y]))),
    )


def _bracket(C, y, i, u, v):
    """[[C[y,i], u], [C[y,i], v]]"""
    cyi = (C[y, i],)
    return _comm(_comm(cyi, (u,)), _comm(cyi, (v,)))


# Table 5 as rows: a row's lhs is its letter triple (t1, t2, s) and its rhs
# the residue, the expected f(t2 t1, s)^-1 f(t1 t2, s).
_TABLE5 = _compiled(_Shared((("y", Y),), (
    _Shared((("a", X),), _residue_rows(1, 1) + _residue_rows(4, -1)),
    _Shared((("i", Z),), (
        _Row("row7", "y={y},i={i},a={a},e={e:+d},b={b},d={d:+d}",
             (("a", X), ("b", X), ("e", SIGNS), ("d", SIGNS)),
             lambda M, C, P, I, K, y, i, a, b, e, d: None if a == b and e == d else
                 ((-M[a, e, i], -M[b, d, i], C[i, y]), _bracket(C, y, i, M[a, e, y], M[b, d, y]))),
        _Row("row8", "y={y},i={i},a={a},e={e:+d},j={j}", (("a", X), ("e", SIGNS), ("j", Z, "i")),
             lambda M, C, P, I, K, y, i, a, e, j:
                 ((-M[a, e, i], -C[j, i], C[i, y]), _bracket(C, y, i, M[a, e, y], C[j, y]))),
        _Row("row9", "y={y},i={i},j={j},m={m}", (("j", Z, "i"), ("m", Z, "i", "j")),
             lambda M, C, P, I, K, y, i, j, m:
                 ((-C[j, i], -C[m, i], C[i, y]), _bracket(C, y, i, C[j, y], C[m, y]))),
    )),
)))


def _table5_rows(sig):
    """table5_rows(sig) with coded letters and words (_alphabet): _TABLE5
    read by _emit."""
    out = []
    _emit(out, _TABLE5, sig, [_lead(sig)])
    return [(i.family, i.params, *i.lhs, i.rhs) for i in out]


def table5_rows(sig):
    """Instances of the nine residue computations, as GenName letters.

    Each entry is (row, params, t1, t2, s, expected): acting on the S_K
    symbol s by t2 t1 and by t1 t2 differs by the expected word, an
    identity of F(S_K) checked formally, not through evaluation.  The
    t-pairs range over all instances for which t1 and t2 commute, which
    at small ranks includes pairs moving the same letter with opposite
    signs.
    """
    alpha = _alphabet(sig)
    letter = alpha.letter
    return [
        (row, params, letter[t1], letter[t2], letter[s], alpha.decode(expected))
        for row, params, t1, t2, s, expected in _table5_rows(sig)
    ]


def verify_table5(sig):
    """Check f(t2 t1, s)^-1 f(t1 t2, s) against the tabulated residues.

    The comparison is on coded words over S_K, through the action table
    of the S_Q letters the rows use.
    """
    report = Report()
    rows = _table5_rows(sig)
    if not rows:
        report.skip("table5", "no instances at this signature")
        return report
    table = _action_table(sig, dict.fromkeys(t for row in rows for t in row[2:4]))
    for row, params, t1, t2, c, expected in rows:
        # f(t2 t1, s)^-1 is t2's table on the inverse row of t1
        t2_t1_s_inv = _substitute(table[t2], table[t1][-c])
        t1_t2_s = _substitute(table[t1], table[t2][c])
        got = _free_reduce(t2_t1_s_inv + t1_t2_s)
        report.add(f"table5.{row}", params, got == expected)
    return report


# ---------------------------------------------------------------------------
# finite expansion of the recursive relation set


def _sq_codes(sig):
    """The S_Q letters as codes (_alphabet), each symbol beside its inverse."""
    alpha = _alphabet(sig)
    k = len(alpha.s_k)
    return [c for j in range(k + 1, k + len(alpha.s_q) + 1) for c in (j, -j)]


def _sq_words(sig, depth):
    """reduced_sq_words(sig, depth) as coded words."""
    letters = _sq_codes(sig)
    words = [()]
    layer = [()]
    for _ in range(depth):
        layer = [w + (s,) for w in layer for s in letters if not w or w[-1] != -s]
        words.extend(layer)
    return words


def reduced_sq_words(sig, depth):
    """All reduced words over S_Q of length <= depth, deterministic order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return list(map(_alphabet(sig).decode, _sq_words(sig, depth)))


def _lpres_expand(sig, depth):
    """lpres_expand's relators, with the seeds and the table they came from.

    Returns (relators, seeds, table): the seeds and relators are tuples of
    S_K codes (_alphabet), every relator made by a substitution holds the
    table's own ints, and table is the signed action table of every S_Q
    letter ({} when there are no seeds).

    t's image of a relator depends only on t and the relator, so one walk
    over lengths and letters keeps, for each first letter of the last
    length's words, their relators (key 0 for the empty word), and t acts
    once on the distinct relators of every first letter but t^-1.  A
    relator made only of letters whose rows t fixes is its own image, and
    is already in the output, so it is not looked up again.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seeds = [_free_reduce(i.lhs + _inverted(i.rhs)) for i in _relations("rk", sig)]
    if not seeds:  # S_K may then be empty
        return [], seeds, {}
    table = _action_table(sig, _sq_codes(sig))
    m = len(_alphabet(sig).s_k)
    out = list(dict.fromkeys(seeds))
    seen = set(out)
    layer = {0: seeds}  # the empty word's 0 is no letter's inverse
    for length in range(1, depth + 1):
        last, layer = layer, {}
        for t, sub in table.items():
            fix = {c for c in range(-m, m + 1) if sub[c] == (c,)}
            acted = dict.fromkeys(chain.from_iterable(v for f, v in last.items() if f != -t))
            images = []
            for r in acted:
                if not fix.issuperset(r):  # a fixed r is its own image, and in seen
                    r = _substitute(sub, r)
                    if r not in seen:
                        seen.add(r)
                        out.append(r)
                images.append(r)
            if length < depth:  # the last length's images are not read
                layer[t] = images
            del images, acted  # not held while the next letter builds its own
    return out, seeds, table


def lpres_expand(sig, depth):
    """Expand the seed relations through all S_Q words of length <= depth.

    Returns the deduplicated list of relator words over S_K, in first-seen
    order; depth 0 is exactly the seed set written as lhs rhs^-1.

    The relators are built as S_K codes (_alphabet), decoded on return.
    Acting by w = t w' is acting by w' and then by t, so the relators of w
    are t's signed rows substituted into those of w' (_substitute: a
    letter -c reads the row of c inverted once when the table was built).
    The words are walked one length at a time, each length's words in
    _sq_words order, and only the last length's relators are kept.

    So every relator is trivial once every seed is and every table entry
    is right.  If each entry table[t][c] evaluates to t s_c t^-1, then the
    relator _substitute(table[t], r') of t w' evaluates to
    t eval(r') t^-1, because evaluation is a homomorphism on words over
    S_K.  By induction on the length of w, the relator that w makes from a
    seed r evaluates to w eval(r) w^-1.  lpres_expand_proved decides its
    verdict this way.
    """
    return list(map(_alphabet(sig).decode, _lpres_expand(sig, depth)[0]))


def lpres_expand_proved(sig, depth):
    """(lpres_expand's relators as S_K codes, whether every one is trivial).

    The verdict is proved by lpres_expand's induction, not by evaluating
    the relators: every seed must evaluate to the identity, and at depth
    >= 1 every action table entry must evaluate to its conjugate t s t^-1
    (the "action" line of verify_action_consistency, by _entries_hold).
    """
    relators, seeds, table = _lpres_expand(sig, depth)
    sound = all(_trivial(sig, seeds))
    if sound and depth >= 1:
        sound = all(map(all, _entries_hold(sig, table).values()))
    return relators, sound
