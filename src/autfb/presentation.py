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
of table5 and the action rows are built as coded words, each by one builder
that spells every letter as the paper does, at its own power: the code of
C[z,v]^e is e * C[z, v], read from the alphabet's per-kind maps (its
fields M, C, P and I), and a conjugation is a literal tuple of codes,
reduced once by _inst or _comm.
_perm_apply is the one P/I relabeling of the x's a symbol mentions; a
multiplier relabeled to w^-1 becomes the power, since M[v^e,w^-1] =
M[v^e,w]^-1 and C[v,w^-1] = C[v,w]^-1.  Every family is enumerated for a
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
whether each evaluates to the identity, folding each prefix the sorted
words share once.  Its step (_step) rewrites only the forward rows the
letter's generator moves (_Moves, keyed by code, reads only the rows of
the codes the letter's name holds), and inverts a row only when it is
read.  eval_symbol_word is automorphism.spelling_aut, which builds both
tables of a NamedAut: the independent reference for _trivial.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .freegroup import _free_reduce
from .automorphism import (
    _cached_gen_aut,
    _inverted,
    _signed,
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
    moves is acc substituted into s's image of it; no other row changes.
    A moved row's inverse is left None, and is filled in acc, in place,
    only when a later step reads it."""
    out = list(acc)
    for c, row in moved:
        for d in row:
            if acc[d] is None:
                acc[d] = _inverted(acc[-d])
        out[c] = _substitute(acc, row)
        out[-c] = None
    return out


def _trivial(sig, words):
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
    stack = [list(_signed([(c,) for c in sig.gens()]))]
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


# ---------------------------------------------------------------------------
# alphabets


class _Alphabet(namedtuple("_Alphabet", "s_k s_q code letter text M C P I")):
    def decode(self, codes):
        return tuple(self.letter[c] for c in codes)


@lru_cache(maxsize=16)
def _alphabet(sig):
    """S_K, S_Q and their one coding: s_k_symbols(sig)[i] at power +-1 is
    code +-(i+1), and s_q_symbols(sig)[j] is +-(|S_K|+j+1).  code maps a
    letter to its code; letter and text map a code to its letter and to its
    format_name.  M, C, P and I map M[v, e, w], C[v, w], P[i, j] (either
    order) and I[i] to the code of the symbol at power +1, through which
    the builders spell their letters."""
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


def _perm_codes(sig):
    """(code, letter) of each swap and inversion in S_Q, read from the alphabet."""
    alpha = _alphabet(sig)
    return [(alpha.code[t], t) for t in alpha.s_q if t.kind in ("P", "I")]


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
    """The coded commutator u v u^-1 v^-1, reduced."""
    return _free_reduce(u + v + _inverted(u) + _inverted(v))


def _inst(family, params, lhs, rhs=()):
    return RelationInstance(family, params, _free_reduce(lhs), _free_reduce(rhs))


def _comm_inst(family, params, a, b):
    return RelationInstance(family, params, _comm(a, b), ())


def _perm_apply(name, code, sign):
    """Apply a swap or inversion symbol to a signed letter."""
    if name.kind == "P":
        if code == name.v:
            return name.w, sign
        if code == name.w:
            return name.v, sign
        return code, sign
    if name.kind == "I":
        if code == name.v:
            return code, -sign
        return code, sign
    raise ValueError("need a P or I symbol")


def _n1_instances(sig):
    alpha = _alphabet(sig)
    P, I = alpha.P, alpha.I
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        out.append(_inst("N1", f"Ia^2,a={a}", (I[a], I[a])))
    for a in xs:
        for b in xs:
            if a != b:
                out.append(_comm_inst("N1", f"[Ia,Ib],a={a},b={b}", (I[a],), (I[b],)))
    for a in xs:
        for b in xs:
            if a < b:
                out.append(_inst("N1", f"Pab^2,a={a},b={b}", (P[a, b], P[a, b])))
    for a in xs:
        for b in xs:
            for c in xs:
                for d in xs:
                    if len({a, b, c, d}) == 4 and a < b and c < d:
                        out.append(
                            _comm_inst(
                                "N1",
                                f"[Pab,Pcd],a={a},b={b},c={c},d={d}",
                                (P[a, b],),
                                (P[c, d],),
                            )
                        )
    for a in xs:
        for b in xs:
            for c in xs:
                if len({a, b, c}) == 3:
                    p = P[a, b]
                    out.append(
                        _inst("N1", f"PPP=P,a={a},b={b},c={c}", (p, P[b, c], -p), (P[a, c],))
                    )
    for a in xs:
        for b in xs:
            if a != b:
                p = P[a, b]
                out.append(_inst("N1", f"PIP=I,a={a},b={b}", (p, I[a], -p), (I[b],)))
    for a in xs:
        for b in xs:
            for c in xs:
                if len({a, b, c}) == 3 and a < b:
                    out.append(
                        _comm_inst("N1", f"[Pab,Ic],a={a},b={b},c={c}", (P[a, b],), (I[c],))
                    )
    return out


def _n2_instances(sig):
    M = _alphabet(sig).M
    out = []
    xs = list(sig.x_gens())
    for tc, t in _perm_codes(sig):
        head = f"P,a={t.v},b={t.w}" if t.kind == "P" else f"I,a={t.v}"
        for x in xs:
            for y in xs:
                if x == y:
                    continue
                yi, ye = _perm_apply(t, y, 1)
                for e in (1, -1):
                    xi, xe = _perm_apply(t, x, e)
                    out.append(
                        _inst(
                            "N2",
                            f"{head},x={x},e={e:+d},y={y}",
                            (tc, M[x, e, y], -tc),
                            (M[xi, xe, yi] * ye,),
                        )
                    )
    return out


def _n3_instances(sig):
    alpha = _alphabet(sig)
    M, P, I = alpha.M, alpha.P, alpha.I
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        for b in xs:
            if a == b:
                continue
            lhs1 = (-M[a, -1, b], M[b, -1, a], M[a, 1, b])
            out.append(_inst("N3", f"form1,a={a},b={b}", lhs1, (I[a], P[a, b])))
            lhs2 = (M[a, -1, b], M[b, 1, a], -M[a, 1, b])
            out.append(_inst("N3", f"form2,a={a},b={b}", lhs2, (I[b], P[a, b])))
    return out


def _n4_instances(sig):
    M = _alphabet(sig).M
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        for b in xs:
            if a == b:
                continue
            for c in xs:
                for d in xs:
                    if c == d:
                        continue
                    for e in (1, -1):
                        for f in (1, -1):
                            # x_a^e not in {x_c^f, x_d, x_d^-1}; x_c^f not in {x_b, x_b^-1}
                            if a == c and e == f:
                                continue
                            if a == d or c == b:
                                continue
                            out.append(
                                _comm_inst(
                                    "N4",
                                    f"a={a},b={b},c={c},d={d},e={e:+d},f={f:+d}",
                                    (M[a, e, b],),
                                    (M[c, f, d],),
                                )
                            )
    return out


def _n5_instances(sig):
    M = _alphabet(sig).M
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        for b in xs:
            for c in xs:
                if len({a, b, c}) != 3:
                    continue
                for e in (1, -1):
                    for f in (1, -1):
                        mba, mcb = M[b, e, a], M[c, f, b] * e
                        out.append(
                            _inst(
                                "N5",
                                f"a={a},b={b},c={c},e={e:+d},f={f:+d}",
                                (mba, mcb),
                                (mcb, mba, M[c, f, a]),
                            )
                        )
    return out


def _q2_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    xs = list(sig.x_gens())
    yz = sig.yz_gens()
    for x in xs:
        for v in xs:
            if x == v:
                continue
            for w in xs:
                # w = v genuinely fails to commute (the second move drags
                # the first one's multiplier), so it is excluded alongside
                # the stated signed-letter condition.
                if w == v:
                    continue
                for z in yz:
                    for e in (1, -1):
                        for d in (1, -1):
                            if x == w and e == d:
                                continue
                            out.append(
                                _comm_inst(
                                    "Q2.1",
                                    f"x={x},v={v},w={w},z={z},e={e:+d},d={d:+d}",
                                    (M[x, e, v],),
                                    (M[w, d, z],),
                                )
                            )
    for x in xs:
        for v in xs:
            if x == v:
                continue
            for w in yz:
                for z in yz:
                    if w == z:
                        continue
                    for e in (1, -1):
                        out.append(
                            _comm_inst(
                                "Q2.2",
                                f"x={x},v={v},w={w},z={z},e={e:+d}",
                                (M[x, e, v],),
                                (C[w, z],),
                            )
                        )
    for u in yz:
        for v in yz:
            if u == v:
                continue
            for w in yz:
                if w == u or w == v:
                    continue
                for z in yz:
                    if z == u or z == w:
                        continue
                    out.append(
                        _comm_inst("Q2.3", f"u={u},v={v},w={w},z={z}", (C[u, v],), (C[w, z],))
                    )
    return out


def _q3_instances(sig):
    # Includes the index-disjoint commuting instances: for x not moved by
    # the swap or inversion the right side is just the original symbol.
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    yz = sig.yz_gens()
    for tc, t in _perm_codes(sig):
        if t.kind == "P":
            m_tag, c_tag, head = "Q3.1", "Q3.2", f"i={t.v},j={t.w}"
        else:
            m_tag, c_tag, head = "Q3.3", "Q3.4", f"i={t.v}"
        for x in sig.x_gens():
            xi, sign = _perm_apply(t, x, 1)
            for z in yz:
                for e in (1, -1):
                    out.append(
                        _inst(
                            m_tag,
                            f"{head},x={x},e={e:+d},z={z}",
                            (tc, M[x, e, z], -tc),
                            (M[_perm_apply(t, x, e) + (z,)],),
                        )
                    )
                out.append(
                    _inst(c_tag, f"{head},x={x},z={z}", (tc, C[z, x], -tc), (C[z, xi] * sign,))
                )
    return out


def _q4_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    xs = list(sig.x_gens())
    yz = sig.yz_gens()
    allg = list(sig.gens())
    for x in xs:
        for w in xs:
            if x == w:
                continue
            for v in allg:
                if v == x or v == w:
                    continue
                for e in (1, -1):
                    for d in (1, -1):
                        mxw = M[x, e, w] * -d
                        out.append(
                            _inst(
                                "Q4.1",
                                f"x={x},w={w},v={v},e={e:+d},d={d:+d}",
                                (mxw, M[w, d, v], -mxw),
                                (M[x, e, v], M[w, d, v]),
                            )
                        )
    for z in yz:
        for x in xs:
            for v in allg:
                if v == x or v == z:
                    continue
                for e in (1, -1):
                    czx = C[z, x] * e
                    out.append(
                        _inst(
                            "Q4.1'",
                            f"z={z},x={x},v={v},e={e:+d}",
                            (-czx, M[x, e, v], czx),
                            (C[z, v], M[x, e, v]),
                        )
                    )
    for z in yz:
        for v in allg:
            if v == z:
                continue
            for x in xs:
                if x == v:
                    continue
                for e in (1, -1):
                    for d in (1, -1):
                        mxz, czv, mxv = M[x, d, z], C[z, v] * e, M[x, d, v] * e
                        out.append(
                            _inst(
                                "Q4.2",
                                f"z={z},v={v},x={x},e={e:+d},d={d:+d}",
                                (czv, mxz, -czv),
                                (-mxv, mxz, mxv),
                            )
                        )
    for z in yz:
        for w in yz:
            if z == w:
                continue
            for v in allg:
                if v == z or v == w:
                    continue
                for e in (1, -1):
                    cwz, czv, cwv = C[w, z], C[z, v] * e, C[w, v] * e
                    out.append(
                        _inst(
                            "Q4.2'",
                            f"z={z},w={w},v={v},e={e:+d}",
                            (czv, cwz, -czv),
                            (-cwv, cwz, cwv),
                        )
                    )
    return out


def _q5_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    for x in sig.x_gens():
        for v in sig.yz_gens():
            for e in (1, -1):
                cvx = C[v, x] * e
                out.append(
                    _inst(
                        "Q5",
                        f"x={x},v={v},e={e:+d}",
                        (-cvx, M[x, -e, v], cvx),
                        (-M[x, e, v],),
                    )
                )
    return out


def _r1_instances(sig):
    alpha = _alphabet(sig)
    M = alpha.M
    out = []
    xs = list(sig.x_gens())
    ys = list(sig.y_gens())
    c_syms = [(i, s) for i, s in enumerate(alpha.s_k, 1) if s.kind == "C"]
    for x in xs:
        for w in xs:
            for e in (1, -1):
                for d in (1, -1):
                    if x == w and e == d:
                        continue
                    for v in ys:
                        for y in ys:
                            out.append(
                                _comm_inst(
                                    "R1.1",
                                    f"x={x},e={e:+d},v={v},w={w},d={d:+d},y={y}",
                                    (M[x, e, v],),
                                    (M[w, d, y],),
                                )
                            )
    for x in xs:
        for e in (1, -1):
            for y in ys:
                for cc, c in c_syms:
                    v, z = c.v, c.w
                    if x == z or v == y:
                        continue
                    out.append(
                        _comm_inst(
                            "R1.2",
                            f"x={x},e={e:+d},y={y},v={v},z={z}",
                            (M[x, e, y],),
                            (cc,),
                        )
                    )
    for cc1, c1 in c_syms:
        for cc2, c2 in c_syms:
            u, v = c1.v, c1.w
            w, z = c2.v, c2.w
            if u == w or u == z or w == v:
                continue
            out.append(_comm_inst("R1.3", f"u={u},v={v},w={w},z={z}", (cc1,), (cc2,)))
    return out


def _r2_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    for x in sig.x_gens():
        for v in sig.y_gens():
            for z in sig.y_gens():
                if v == z:
                    continue
                for e in (1, -1):
                    cvx = C[v, x] * e
                    out.append(
                        _inst(
                            "R2",
                            f"x={x},e={e:+d},v={v},z={z}",
                            (-cvx, M[x, e, z], cvx),
                            (C[v, z], M[x, e, z]),
                        )
                    )
    return out


def _r3_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    for x in sig.x_gens():
        for v in sig.y_gens():
            for z in sig.y_gens():
                if v == z:
                    continue
                for e in (1, -1):
                    for d in (1, -1):
                        mxv, cvz, mxz = M[x, d, v], C[v, z] * e, M[x, d, z] * e
                        out.append(
                            _inst(
                                "R3",
                                f"x={x},d={d:+d},v={v},z={z},e={e:+d}",
                                (cvz, mxv, -cvz),
                                (-mxz, mxv, mxz),
                            )
                        )
    return out


def _r4_instances(sig):
    alpha = _alphabet(sig)
    C = alpha.C
    out = []
    yz = sig.yz_gens()
    for v in yz:
        for w in yz:
            if w == v:
                continue
            for z in sig.gens():
                if z == v or z == w:
                    continue
                c_vz, c_wv, c_wz = C[v, z], C[w, v], C[w, z]
                if max(c_vz, c_wv, c_wz) > len(alpha.s_k):  # one of them is in S_Q
                    continue
                for e in (1, -1):
                    out.append(
                        _inst(
                            "R4",
                            f"v={v},z={z},w={w},e={e:+d}",
                            (c_vz * e, c_wv, c_vz * -e),
                            (c_wz * -e, c_wv, c_wz * e),
                        )
                    )
    return out


def _r5_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    for x in sig.x_gens():
        for y in sig.y_gens():
            for e in (1, -1):
                cyx = C[y, x] * e
                out.append(
                    _inst(
                        "R5",
                        f"x={x},y={y},e={e:+d}",
                        (-cyx, M[x, -e, y], cyx),
                        (-M[x, e, y],),
                    )
                )
    return out


def _c1_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    xs = list(sig.x_gens())
    yz = sig.yz_gens()
    xz = sig.xz_gens()
    for y in sig.y_gens():
        for a in xs:
            for b in xs:
                for dd in (1, -1):
                    for zz in (1, -1):
                        if a == b and dd == zz:
                            continue
                        for v in xz:
                            if v == a or v == b:
                                continue
                            for e in (1, -1):
                                cyv = C[y, v] * e
                                out.append(
                                    _comm_inst(
                                        "C1.1",
                                        f"y={y},a={a},d={dd:+d},b={b},zeta={zz:+d},v={v},e={e:+d}",
                                        (cyv, M[a, dd, y], -cyv),
                                        (M[b, zz, y],),
                                    )
                                )
        for x in xs:
            for z in yz:
                if z == y:
                    continue
                for v in xz:
                    if v == z or v == x:
                        continue
                    for e in (1, -1):
                        cyv = C[y, v] * e
                        for d in (1, -1):
                            out.append(
                                _comm_inst(
                                    "C1.2",
                                    f"y={y},x={x},d={d:+d},z={z},v={v},e={e:+d}",
                                    (cyv, M[x, d, y], -cyv),
                                    (C[z, y],),
                                )
                            )
        for z in yz:
            if z == y:
                continue
            for w in yz:
                # The table's side condition on w has a stray variable; the
                # reading that matches the underlying commuting relation is
                # w distinct from z (and from y).
                if w == z or w == y:
                    continue
                for v in xz:
                    if v == z or v == w:
                        continue
                    for e in (1, -1):
                        cyv = C[y, v] * e
                        out.append(
                            _comm_inst(
                                "C1.3",
                                f"y={y},z={z},w={w},v={v},e={e:+d}",
                                (cyv, C[z, y], -cyv),
                                (C[w, y],),
                            )
                        )
    return out


def _c2_instances(sig):
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    for y in sig.y_gens():
        for z in sig.z_gens():
            for x in sig.x_gens():
                for e in (1, -1):
                    cyz = C[y, z] * e
                    for d in (1, -1):
                        out.append(
                            _comm_inst(
                                "C2.1",
                                f"y={y},z={z},x={x},e={e:+d},d={d:+d}",
                                (cyz, M[x, d, y], -cyz),
                                (C[z, y], M[x, d, y]),
                            )
                        )
            for w in sig.z_gens():
                if w == z:
                    continue
                for e in (1, -1):
                    cyz = C[y, z] * e
                    out.append(
                        _comm_inst(
                            "C2.2",
                            f"y={y},z={z},w={w},e={e:+d}",
                            (cyz, C[w, y], -cyz),
                            (C[z, y], C[w, y]),
                        )
                    )
    return out


def _q1_instances(sig):
    out = []
    for tag in ("N1", "N2", "N3", "N4", "N5"):
        for inst in _SUBFAMILIES[tag](sig):
            out.append(
                RelationInstance("Q1", f"{inst.family}:{inst.params}", inst.lhs, inst.rhs)
            )
    return out


_SUBFAMILIES = {
    "N1": _n1_instances,
    "N2": _n2_instances,
    "N3": _n3_instances,
    "N4": _n4_instances,
    "N5": _n5_instances,
    "Q1": _q1_instances,
    "Q2": _q2_instances,
    "Q3": _q3_instances,
    "Q4": _q4_instances,
    "Q5": _q5_instances,
    "R1": _r1_instances,
    "R2": _r2_instances,
    "R3": _r3_instances,
    "R4": _r4_instances,
    "R5": _r5_instances,
    "C1": _c1_instances,
    "C2": _c2_instances,
}

FAMILY_GROUPS = {
    "nielsen": ("N1", "N2", "N3", "N4", "N5"),
    "jensen-wahl": ("Q1", "Q2", "Q3", "Q4", "Q5"),
    "rk": ("R1", "R2", "R3", "R4", "R5"),
    "c-lemma": ("C1", "C2"),
}

# The dotted instance tags the builders emit.
_DOTTED_TAGS = (
    "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.1'", "Q4.2", "Q4.2'",
    "R1.1", "R1.2", "R1.3", "C1.1", "C1.2", "C1.3", "C2.1", "C2.2",
)


def _relations(family, sig):
    """enumerate_relations(family, sig) with coded sides (_alphabet)."""
    if family in FAMILY_GROUPS:
        out = []
        for tag in FAMILY_GROUPS[family]:
            out.extend(_SUBFAMILIES[tag](sig))
        return out
    if family in _SUBFAMILIES:
        return _SUBFAMILIES[family](sig)
    if family in _DOTTED_TAGS:
        return [i for i in _SUBFAMILIES[family.split(".")[0]](sig) if i.family == family]
    raise ValueError(f"unknown relation family {family!r}")


def enumerate_relations(family, sig):
    """All instances of a family for the signature, as GenName words.

    `family` is a subfamily tag (N3, Q4, R1, ...), one of _DOTTED_TAGS
    (R1.2, Q4.1', C2.1, ... - resolved by its head), or one of the group
    tags nielsen / jensen-wahl / rk / c-lemma.
    """
    decode = _alphabet(sig).decode
    return [
        RelationInstance(i.family, i.params, decode(i.lhs), decode(i.rhs))
        for i in _relations(family, sig)
    ]


# ---------------------------------------------------------------------------
# verification reports


class Report:
    """Line-per-instance verification record: PASS / FAIL / SKIP.

    lines holds one (family, params or note, status) tuple per line; add
    and skip append to it and keep the running count of each status."""

    def __init__(self):
        self.lines = []
        self._counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}

    def add(self, family, params, ok):
        status = "PASS" if ok else "FAIL"
        self.lines.append((family, params, status))
        self._counts[status] += 1

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
    words of every subfamily are decided by one _trivial call.
    """
    report = Report()
    tags = [(tag, _relations(tag, sig)) for tag in FAMILY_GROUPS.get(family, (family,))]
    flags = iter(_trivial(sig, [i.lhs + _inverted(i.rhs) for _, insts in tags for i in insts]))
    for tag, instances in tags:
        if not instances:
            report.skip(tag, "no instances at this signature")
        for inst in instances:
            report.add(inst.family, inst.params, next(flags))
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
    same = _signed([(c,) for c in range(1, len(s_k) + 1)])
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
    for t in letters:
        for c, ok in zip(codes, holds[t]):
            report.add(family, f"t={alpha.text[t]},s={alpha.text[c]}", ok)
    return report


# ---------------------------------------------------------------------------
# the nine commutator-difference computations


def _table5_rows(sig):
    """table5_rows(sig) with coded letters and words (_alphabet)."""
    alpha = _alphabet(sig)
    M, C = alpha.M, alpha.C
    out = []
    xs = list(sig.x_gens())
    zs = list(sig.z_gens())
    for y in sig.y_gens():
        for a in xs:
            cya = C[y, a]
            for s_eps in (1, -1):
                s = M[a, s_eps, y]
                base = "1" if s_eps == 1 else "4"

                def residue(u, v):
                    """C[y,a]^-1 [u,v] C[y,a] for s = M[a,y], else [u^-1,v^-1]."""
                    if s_eps == 1:
                        return (-cya, u, v, -u, -v, cya)
                    return (-u, -v, u, v)

                for b in xs:
                    if b == a:
                        continue
                    for c in xs:
                        if c == a:
                            continue
                        for e in (1, -1):
                            for d in (1, -1):
                                if b == c and e == d:
                                    continue
                                out.append(
                                    (
                                        f"row{base}",
                                        f"y={y},a={a},b={b},e={e:+d},c={c},d={d:+d}",
                                        M[b, e, a],
                                        M[c, d, a],
                                        s,
                                        residue(M[b, e, y], M[c, d, y]),
                                    )
                                )
                row2 = f"row{int(base) + 1}"
                for b in xs:
                    if b == a:
                        continue
                    for e in (1, -1):
                        for i in zs:
                            out.append(
                                (
                                    row2,
                                    f"y={y},a={a},b={b},e={e:+d},i={i}",
                                    M[b, e, a],
                                    C[i, a],
                                    s,
                                    residue(M[b, e, y], C[i, y]),
                                )
                            )
                row3 = f"row{int(base) + 2}"
                for i in zs:
                    for j in zs:
                        if i == j:
                            continue
                        out.append(
                            (
                                row3,
                                f"y={y},a={a},i={i},j={j}",
                                C[i, a],
                                C[j, a],
                                s,
                                residue(C[i, y], C[j, y]),
                            )
                        )
        for i in zs:
            s = C[i, y]
            cyi = C[y, i]

            def bracket(u, v):
                """[[C[y,i], u], [C[y,i], v]]"""
                return _comm(_comm((cyi,), (u,)), _comm((cyi,), (v,)))

            for a in xs:
                for b in xs:
                    for e in (1, -1):
                        for d in (1, -1):
                            if a == b and e == d:
                                continue
                            out.append(
                                (
                                    "row7",
                                    f"y={y},i={i},a={a},e={e:+d},b={b},d={d:+d}",
                                    -M[a, e, i],
                                    -M[b, d, i],
                                    s,
                                    bracket(M[a, e, y], M[b, d, y]),
                                )
                            )
            for a in xs:
                for e in (1, -1):
                    for j in zs:
                        if j == i:
                            continue
                        out.append(
                            (
                                "row8",
                                f"y={y},i={i},a={a},e={e:+d},j={j}",
                                -M[a, e, i],
                                -C[j, i],
                                s,
                                bracket(M[a, e, y], C[j, y]),
                            )
                        )
            for j in zs:
                if j == i:
                    continue
                for m in zs:
                    if m == i or m == j:
                        continue
                    out.append(
                        (
                            "row9",
                            f"y={y},i={i},j={j},m={m}",
                            -C[j, i],
                            -C[m, i],
                            s,
                            bracket(C[j, y], C[m, y]),
                        )
                    )
    return out


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
    relator made only of letters whose rows t fixes is its own image.
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
            # a fixed r is its own image, and is in seen already
            images = [r if fix.issuperset(r) else _substitute(sub, r) for r in acted]
            for img in images:
                if img not in seen:
                    seen.add(img)
                    out.append(img)
            if length < depth:  # the last length's images are not read
                layer[t] = images
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
