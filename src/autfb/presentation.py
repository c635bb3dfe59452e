"""Formal presentations: symbol alphabets, relation tables, and the
conjugation action of the quotient alphabet on the kernel alphabet.

Words over the symbol alphabets are tuples of GenName letters, each with a
formal power +-1, freely reduced (only an adjacent letter and its formal
inverse cancel; P and I are involutions in the group but not in the free
group on symbols).

The relation tables, table5_rows and action_f spell each word as the
paper does: every letter carries its own power (c_name(z, v, e),
name.inv()), and a conjugation is a literal tuple of letters, reduced
once by _inst or sym_comm.  _perm_apply is the one P/I relabeling of the
x's a symbol mentions; a multiplier relabeled to w^-1 becomes the power on
the name, since M[v^e,w^-1] = M[v^e,w]^-1 and C[v,w^-1] = C[v,w]^-1.

Alphabets (in_s_k and in_s_q test membership in s_k_symbols and
s_q_symbols, at either formal power):

    S_N   swaps, inversions, and Nielsen moves among the x's
    S_Q   S_N plus conjugations C[z,v] and Nielsen moves M[x^e,v] with
          targets in X u Z  (a copy of the boundary quotient group)
    S_K   M[x^e,y], C[z,y], C[y,v]  (normal generators of the kernel)

The relation families (N1-N5, Q1-Q5, R1.1-R5, C1.1-C2.2) are enumerated
exhaustively for a signature with every side condition enforced, and
verified by evaluating both sides to concrete automorphisms.

The action map action_f(t, s) rewrites t s t^-1 (t an S_Q letter, s an S_K
symbol) as a word over S_K; extended over words it gives the substitution
rule whose iterated application expands the finite seed relation set into
arbitrarily deep relation layers (lpres_expand).

_alphabet is the one home of the S_K integer coding (symbol i of
s_k_symbols as +-(i+1)).  _action_table is the action on those codes:
action_f runs once per (S_Q letter, S_K symbol), and acting by one letter
on a coded word is one _apply_table step.  Three checks read the table:

    lpres_expand               memoises by suffix: the relators of t w'
                               are t's table substituted into those of w'
    verify_action_consistency  the "action" line evaluates each entry; the
                               "inverse" line undoes it by t^-1's table
    verify_table5              both orders of two letters, one step each

lpres_expand_proved decides that every relator is trivial by transport:
it evaluates the seeds and each "action" entry (_conjugates), not the
relators, and leaves them coded for the command line to spell.
action_letter and action_extend act on GenName words without the table;
they stay as the public, per-call route.  A word is compared with another
by its forward image table alone (symbol_images); eval_symbol_word is
automorphism.spelling_aut, which builds both tables of a NamedAut.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .freegroup import Signature, Word, invert, multiply
from .automorphism import (
    _apply_table,
    _cached_gen_aut,
    _gen_words,
    _substitute_all,
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


def sym_pow(w, m):
    if m < 0:
        return sym_pow(sym_inv(w), -m)
    return sym_mul(*([w] * m))


def sym_conj(w, c):
    """c w c^-1."""
    return sym_mul(c, w, sym_inv(c))


def sym_comm(u, v):
    """u v u^-1 v^-1."""
    return sym_mul(u, v, sym_inv(u), sym_inv(v))


def format_symbols(sig, w):
    return format_spelling(sig, w)


def eval_symbol_word(sig, w):
    """Evaluate a symbol word to an automorphism; leftmost letter last."""
    return spelling_aut(sig, w)


def symbol_images(sig, w):
    """eval_symbol_word(sig, w).images, without the inverse table.

    A check that compares a symbol word with another, or with the
    identity, reads only the forward images, so it need not build the
    inverse table that compose keeps beside them.
    """
    if not w:
        return tuple(_gen_words(sig))
    acc = _cached_gen_aut(sig, w[0]).images
    for s in w[1:]:
        acc = _substitute_all(acc, _cached_gen_aut(sig, s).images)
    return tuple(acc)


# ---------------------------------------------------------------------------
# alphabets


class _Alphabet(namedtuple("_Alphabet", "s_k code letter text s_q ksig")):
    def encode(self, u):
        return Word(self.ksig, [self.code[s] for s in u])

    def decode(self, codes):
        return tuple(self.letter[c] for c in codes)


@lru_cache(maxsize=16)
def _alphabet(sig):
    """S_K, S_Q at both powers, and the one S_K coding: s_k_symbols(sig)[i]
    at power +-1 is code +-(i+1) of ksig = Signature(|S_K|, 0, 0), None
    when S_K is empty.  code maps a letter to its code; letter and text map
    a code to its letter and to its format_name."""
    s_k = tuple(s_k_symbols(sig))
    letter = {c: u for i, s in enumerate(s_k, 1) for c, u in ((i, s), (-i, s.inv()))}
    return _Alphabet(
        s_k,
        {u: c for c, u in letter.items()},
        letter,
        {c: format_name(sig, u) for c, u in letter.items()},
        frozenset(u for s in s_q_symbols(sig) for u in (s, s.inv())),
        Signature(len(s_k), 0, 0) if s_k else None,
    )


def in_s_k(sig, name):
    """Admissibility in S_K (power ignored): membership in s_k_symbols."""
    return name in _alphabet(sig).code


def in_s_q(sig, name):
    """Admissibility in S_Q (power ignored): membership in s_q_symbols."""
    return name in _alphabet(sig).s_q


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


def _perm_letters(sig):
    """The swaps P[i,j] (i < j), then the inversions I[i]."""
    xs = sig.x_gens()
    return [p_name(i, j) for i in xs for j in xs if i < j] + [i_name(i) for i in xs]


def s_q_symbols(sig):
    """S_Q in a fixed deterministic order."""
    out = _perm_letters(sig)
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


def _inst(family, params, lhs, rhs=()):
    return RelationInstance(family, params, sym_reduce(lhs), sym_reduce(rhs))


def _comm_inst(family, params, a, b):
    return _inst(family, params, sym_comm(a, b))


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
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        ia = i_name(a)
        out.append(_inst("N1", f"Ia^2,a={a}", (ia, ia)))
    for a in xs:
        for b in xs:
            if a != b:
                out.append(
                    _comm_inst("N1", f"[Ia,Ib],a={a},b={b}", (i_name(a),), (i_name(b),))
                )
    for a in xs:
        for b in xs:
            if a < b:
                p = p_name(a, b)
                out.append(_inst("N1", f"Pab^2,a={a},b={b}", (p, p)))
    for a in xs:
        for b in xs:
            for c in xs:
                for d in xs:
                    if len({a, b, c, d}) == 4 and a < b and c < d:
                        out.append(
                            _comm_inst(
                                "N1",
                                f"[Pab,Pcd],a={a},b={b},c={c},d={d}",
                                (p_name(a, b),),
                                (p_name(c, d),),
                            )
                        )
    for a in xs:
        for b in xs:
            for c in xs:
                if len({a, b, c}) == 3:
                    p = p_name(a, b)
                    out.append(
                        _inst(
                            "N1",
                            f"PPP=P,a={a},b={b},c={c}",
                            (p, p_name(b, c), p.inv()),
                            (p_name(a, c),),
                        )
                    )
    for a in xs:
        for b in xs:
            if a != b:
                p = p_name(a, b)
                out.append(
                    _inst(
                        "N1",
                        f"PIP=I,a={a},b={b}",
                        (p, i_name(a), p.inv()),
                        (i_name(b),),
                    )
                )
    for a in xs:
        for b in xs:
            for c in xs:
                if len({a, b, c}) == 3 and a < b:
                    out.append(
                        _comm_inst(
                            "N1",
                            f"[Pab,Ic],a={a},b={b},c={c}",
                            (p_name(a, b),),
                            (i_name(c),),
                        )
                    )
    return out


def _n2_instances(sig):
    out = []
    xs = list(sig.x_gens())
    for t in _perm_letters(sig):
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
                            (t, m_name(x, e, y), t.inv()),
                            (m_name(xi, xe, yi, ye),),
                        )
                    )
    return out


def _n3_instances(sig):
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        for b in xs:
            if a == b:
                continue
            lhs1 = (m_name(a, -1, b, -1), m_name(b, -1, a), m_name(a, 1, b))
            out.append(
                _inst("N3", f"form1,a={a},b={b}", lhs1, (i_name(a), p_name(a, b)))
            )
            lhs2 = (m_name(a, -1, b), m_name(b, 1, a), m_name(a, 1, b, -1))
            out.append(
                _inst("N3", f"form2,a={a},b={b}", lhs2, (i_name(b), p_name(a, b)))
            )
    return out


def _n4_instances(sig):
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
                                    (m_name(a, e, b),),
                                    (m_name(c, f, d),),
                                )
                            )
    return out


def _n5_instances(sig):
    out = []
    xs = list(sig.x_gens())
    for a in xs:
        for b in xs:
            for c in xs:
                if len({a, b, c}) != 3:
                    continue
                for e in (1, -1):
                    for f in (1, -1):
                        mba, mcb = m_name(b, e, a), m_name(c, f, b, e)
                        out.append(
                            _inst(
                                "N5",
                                f"a={a},b={b},c={c},e={e:+d},f={f:+d}",
                                (mba, mcb),
                                (mcb, mba, m_name(c, f, a)),
                            )
                        )
    return out


def _q2_instances(sig):
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
                                    (m_name(x, e, v),),
                                    (m_name(w, d, z),),
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
                                (m_name(x, e, v),),
                                (c_name(w, z),),
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
                        _comm_inst(
                            "Q2.3",
                            f"u={u},v={v},w={w},z={z}",
                            (c_name(u, v),),
                            (c_name(w, z),),
                        )
                    )
    return out


def _q3_instances(sig):
    # Includes the index-disjoint commuting instances: for x not moved by
    # the swap or inversion the right side is just the original symbol.
    out = []
    yz = sig.yz_gens()
    for t in _perm_letters(sig):
        if t.kind == "P":
            m_tag, c_tag, head = "Q3.1", "Q3.2", f"i={t.v},j={t.w}"
        else:
            m_tag, c_tag, head = "Q3.3", "Q3.4", f"i={t.v}"
        for x in sig.x_gens():
            for z in yz:
                for e in (1, -1):
                    out.append(
                        _inst(
                            m_tag,
                            f"{head},x={x},e={e:+d},z={z}",
                            (t, m_name(x, e, z), t.inv()),
                            (m_name(*_perm_apply(t, x, e), z),),
                        )
                    )
                out.append(
                    _inst(
                        c_tag,
                        f"{head},x={x},z={z}",
                        (t, c_name(z, x), t.inv()),
                        (c_name(z, *_perm_apply(t, x, 1)),),
                    )
                )
    return out


def _q4_instances(sig):
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
                        mxw = m_name(x, e, w, -d)
                        out.append(
                            _inst(
                                "Q4.1",
                                f"x={x},w={w},v={v},e={e:+d},d={d:+d}",
                                (mxw, m_name(w, d, v), mxw.inv()),
                                (m_name(x, e, v), m_name(w, d, v)),
                            )
                        )
    for z in yz:
        for x in xs:
            for v in allg:
                if v == x or v == z:
                    continue
                for e in (1, -1):
                    out.append(
                        _inst(
                            "Q4.1'",
                            f"z={z},x={x},v={v},e={e:+d}",
                            (c_name(z, x, -e), m_name(x, e, v), c_name(z, x, e)),
                            (c_name(z, v), m_name(x, e, v)),
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
                        mxz = m_name(x, d, z)
                        out.append(
                            _inst(
                                "Q4.2",
                                f"z={z},v={v},x={x},e={e:+d},d={d:+d}",
                                (c_name(z, v, e), mxz, c_name(z, v, -e)),
                                (m_name(x, d, v, -e), mxz, m_name(x, d, v, e)),
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
                    cwz = c_name(w, z)
                    out.append(
                        _inst(
                            "Q4.2'",
                            f"z={z},w={w},v={v},e={e:+d}",
                            (c_name(z, v, e), cwz, c_name(z, v, -e)),
                            (c_name(w, v, -e), cwz, c_name(w, v, e)),
                        )
                    )
    return out


def _q5_instances(sig):
    out = []
    for x in sig.x_gens():
        for v in sig.yz_gens():
            for e in (1, -1):
                out.append(
                    _inst(
                        "Q5",
                        f"x={x},v={v},e={e:+d}",
                        (c_name(v, x, -e), m_name(x, -e, v), c_name(v, x, e)),
                        (m_name(x, e, v, -1),),
                    )
                )
    return out


def _r1_instances(sig):
    out = []
    xs = list(sig.x_gens())
    ys = list(sig.y_gens())
    c_syms = [s for s in s_k_symbols(sig) if s.kind == "C"]
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
                                    (m_name(x, e, v),),
                                    (m_name(w, d, y),),
                                )
                            )
    for x in xs:
        for e in (1, -1):
            for y in ys:
                for c in c_syms:
                    v, z = c.v, c.w
                    if x == z or v == y:
                        continue
                    out.append(
                        _comm_inst(
                            "R1.2",
                            f"x={x},e={e:+d},y={y},v={v},z={z}",
                            (m_name(x, e, y),),
                            (c,),
                        )
                    )
    for c1 in c_syms:
        for c2 in c_syms:
            u, v = c1.v, c1.w
            w, z = c2.v, c2.w
            if u == w or u == z or w == v:
                continue
            out.append(
                _comm_inst("R1.3", f"u={u},v={v},w={w},z={z}", (c1,), (c2,))
            )
    return out


def _r2_instances(sig):
    out = []
    for x in sig.x_gens():
        for v in sig.y_gens():
            for z in sig.y_gens():
                if v == z:
                    continue
                for e in (1, -1):
                    out.append(
                        _inst(
                            "R2",
                            f"x={x},e={e:+d},v={v},z={z}",
                            (c_name(v, x, -e), m_name(x, e, z), c_name(v, x, e)),
                            (c_name(v, z), m_name(x, e, z)),
                        )
                    )
    return out


def _r3_instances(sig):
    out = []
    for x in sig.x_gens():
        for v in sig.y_gens():
            for z in sig.y_gens():
                if v == z:
                    continue
                for e in (1, -1):
                    for d in (1, -1):
                        mxv = m_name(x, d, v)
                        out.append(
                            _inst(
                                "R3",
                                f"x={x},d={d:+d},v={v},z={z},e={e:+d}",
                                (c_name(v, z, e), mxv, c_name(v, z, -e)),
                                (m_name(x, d, z, -e), mxv, m_name(x, d, z, e)),
                            )
                        )
    return out


def _r4_instances(sig):
    out = []
    yz = sig.yz_gens()
    for v in yz:
        for w in yz:
            if w == v:
                continue
            for z in sig.gens():
                if z == v or z == w:
                    continue
                c_vz, c_wv, c_wz = c_name(v, z), c_name(w, v), c_name(w, z)
                if not (in_s_k(sig, c_vz) and in_s_k(sig, c_wv) and in_s_k(sig, c_wz)):
                    continue
                for e in (1, -1):
                    out.append(
                        _inst(
                            "R4",
                            f"v={v},z={z},w={w},e={e:+d}",
                            (c_name(v, z, e), c_wv, c_name(v, z, -e)),
                            (c_name(w, z, -e), c_wv, c_name(w, z, e)),
                        )
                    )
    return out


def _r5_instances(sig):
    out = []
    for x in sig.x_gens():
        for y in sig.y_gens():
            for e in (1, -1):
                out.append(
                    _inst(
                        "R5",
                        f"x={x},y={y},e={e:+d}",
                        (c_name(y, x, -e), m_name(x, -e, y), c_name(y, x, e)),
                        (m_name(x, e, y, -1),),
                    )
                )
    return out


def _c1_instances(sig):
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
                                cyv = c_name(y, v, e)
                                out.append(
                                    _comm_inst(
                                        "C1.1",
                                        f"y={y},a={a},d={dd:+d},b={b},zeta={zz:+d},v={v},e={e:+d}",
                                        (cyv, m_name(a, dd, y), cyv.inv()),
                                        (m_name(b, zz, y),),
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
                        cyv = c_name(y, v, e)
                        for d in (1, -1):
                            out.append(
                                _comm_inst(
                                    "C1.2",
                                    f"y={y},x={x},d={d:+d},z={z},v={v},e={e:+d}",
                                    (cyv, m_name(x, d, y), cyv.inv()),
                                    (c_name(z, y),),
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
                        cyv = c_name(y, v, e)
                        out.append(
                            _comm_inst(
                                "C1.3",
                                f"y={y},z={z},w={w},v={v},e={e:+d}",
                                (cyv, c_name(z, y), cyv.inv()),
                                (c_name(w, y),),
                            )
                        )
    return out


def _c2_instances(sig):
    out = []
    for y in sig.y_gens():
        for z in sig.z_gens():
            for x in sig.x_gens():
                for e in (1, -1):
                    for d in (1, -1):
                        out.append(
                            _comm_inst(
                                "C2.1",
                                f"y={y},z={z},x={x},e={e:+d},d={d:+d}",
                                (c_name(y, z, e), m_name(x, d, y), c_name(y, z, -e)),
                                (c_name(z, y), m_name(x, d, y)),
                            )
                        )
            for w in sig.z_gens():
                if w == z:
                    continue
                for e in (1, -1):
                    out.append(
                        _comm_inst(
                            "C2.2",
                            f"y={y},z={z},w={w},e={e:+d}",
                            (c_name(y, z, e), c_name(w, y), c_name(y, z, -e)),
                            (c_name(z, y), c_name(w, y)),
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


def enumerate_relations(family, sig):
    """All instances of a family for the signature.

    `family` is a subfamily tag (N3, Q4, R1, ...), a dotted instance tag
    (R1.2, Q4.1', C2.1 - resolved by prefix), or one of the group tags
    nielsen / jensen-wahl / rk / c-lemma.
    """
    if family in FAMILY_GROUPS:
        out = []
        for tag in FAMILY_GROUPS[family]:
            out.extend(_SUBFAMILIES[tag](sig))
        return out
    if family in _SUBFAMILIES:
        return _SUBFAMILIES[family](sig)
    head = family.split(".")[0]
    if head in _SUBFAMILIES:
        return [i for i in _SUBFAMILIES[head](sig) if i.family == family]
    raise ValueError(f"unknown relation family {family!r}")


# ---------------------------------------------------------------------------
# verification reports


class Report:
    """Line-per-instance verification record: PASS / FAIL / SKIP."""

    def __init__(self):
        self.lines = []

    def add(self, family, params, ok):
        self.lines.append((family, params, "PASS" if ok else "FAIL"))

    def skip(self, family, note):
        self.lines.append((family, note, "SKIP"))

    @property
    def counts(self):
        c = {"PASS": 0, "FAIL": 0, "SKIP": 0}
        for _, _, status in self.lines:
            c[status] += 1
        return c

    @property
    def all_passed(self):
        return self.counts["FAIL"] == 0

    def merged(self, other):
        r = Report()
        r.lines = self.lines + other.lines
        return r

    def format(self, summary=False):
        c = self.counts
        body = [] if summary else [f"{f}\t{p}\t{s}" for f, p, s in self.lines]
        footer = (
            f"# total\t{len(self.lines)}\tpass\t{c['PASS']}"
            f"\tfail\t{c['FAIL']}\tskip\t{c['SKIP']}"
        )
        return "\n".join(body + [footer])


def verify_relations(family, sig):
    """Evaluate every instance of the family; failures are data, not errors."""
    report = Report()
    for tag in FAMILY_GROUPS.get(family, (family,)):
        instances = enumerate_relations(tag, sig)
        if not instances:
            report.skip(tag, "no instances at this signature")
            continue
        for inst in instances:
            ok = symbol_images(sig, inst.lhs) == symbol_images(sig, inst.rhs)
            report.add(inst.family, inst.params, ok)
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
    if t.kind in ("P", "I"):
        # relabel the x that s moves (M[x^e,y]) or conjugates by (C[y,x])
        if s.kind == "M":
            return (m_name(*_perm_apply(t, s.v, s.e), s.w),)
        return (c_name(s.v, *_perm_apply(t, s.w, 1)),)
    p = t.power
    if sig.klass(s.v) == "y":
        # s = C[y,u] is moved only when t moves u itself
        y, u = s.v, s.w
        if t.v != u:
            return (s,)
        if t.kind == "C":
            return (c_name(y, t.w, -p), s, c_name(y, t.w, p))
        return (s, c_name(y, t.w, p)) if t.e == 1 else (c_name(y, t.w, -p), s)
    # s = M[x^eps,y] or C[z,y] moves its letter v by y
    v, y = s.v, s.w
    if (t.v, t.e) == (v, s.e):  # t moves the same signed letter
        return (c_name(y, t.w, -p), s, c_name(y, t.w, p))
    if t.w != v:
        return (s,)
    # t moves t.v by v; t_y is the same move by y
    t_y = m_name(t.v, t.e, y) if t.kind == "M" else c_name(t.v, y)
    if s.kind == "C":
        return (s, t_y, c_name(y, v, -p), t_y.inv(), c_name(y, v, p))
    if p == s.e:
        return (s, c_name(y, v, -p), t_y.inv(), c_name(y, v, p))
    return (s, t_y)


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
    """The action of the given S_Q letters on S_K codes (_alphabet).

    table[t][i] is the coded action_f(sig, t, s_i), so action_f and its
    validation run once per (letter, symbol) pair, and acting by t on a
    coded word u is _apply_table(table[t], u): the action is a
    homomorphism in u.  The expansion's relators are such S_K codes.
    """
    alpha = _alphabet(sig)
    return {t: [alpha.encode(action_f(sig, t, s)) for s in alpha.s_k] for t in letters}


def _conjugates(sig, word, t, s):
    """Whether the coded word evaluates to t s t^-1: one "action" entry."""
    word = _alphabet(sig).decode(word.letters)
    return symbol_images(sig, word) == symbol_images(sig, (t, s, t.inv()))


ACTION_FAMILIES = ("action", "inverse")


def verify_action_consistency(sig, families=ACTION_FAMILIES):
    """Ground truth for the rewriting table, in both senses.

    For every S_Q letter t and S_K symbol s: the rewritten word evaluates
    to the concrete conjugate t s t^-1 ("action"), and acting by t^-1
    undoes acting by t as words over S_K ("inverse"), checked formally on
    the coded table.  Only the requested families are reported, in the
    order given for each (t, s).
    """
    unknown = set(families) - set(ACTION_FAMILIES)
    if unknown:
        raise ValueError(f"unknown action families {sorted(unknown)}")
    report = Report()
    letters = _sq_letters(sig)
    alpha = _alphabet(sig)
    if not letters or not alpha.s_k:
        report.skip("action", "alphabet empty at this signature")
        return report
    table = _action_table(sig, letters)
    for t in letters:
        t_name = format_name(sig, t)
        t_inv = t.inv()
        for i, s in enumerate(alpha.s_k):
            word = table[t][i]
            params = f"t={t_name},s={alpha.text[i + 1]}"
            for family in families:
                if family == "action":
                    ok = _conjugates(sig, word, t, s)
                else:
                    ok = _apply_table(table[t_inv], word).letters == (i + 1,)
                report.add(family, params, ok)
    return report


# ---------------------------------------------------------------------------
# the nine commutator-difference computations


def table5_rows(sig):
    """Instances of the nine residue computations.

    Each entry is (row, params, t1, t2, s, expected): acting on the S_K
    symbol s by t2 t1 and by t1 t2 differs by the expected word, an
    identity of F(S_K) checked formally, not through evaluation.  The
    t-pairs range over all instances for which t1 and t2 commute, which
    at small ranks includes pairs moving the same letter with opposite
    signs.
    """
    out = []
    xs = list(sig.x_gens())
    zs = list(sig.z_gens())
    for y in sig.y_gens():
        for a in xs:
            cya = c_name(y, a)
            for s_eps in (1, -1):
                s = m_name(a, s_eps, y)
                base = "1" if s_eps == 1 else "4"

                def residue(u, v):
                    """C[y,a]^-1 [u,v] C[y,a] for s = M[a,y], else [u^-1,v^-1]."""
                    if s_eps == 1:
                        return (cya.inv(), u, v, u.inv(), v.inv(), cya)
                    return (u.inv(), v.inv(), u, v)

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
                                        m_name(b, e, a),
                                        m_name(c, d, a),
                                        s,
                                        residue(m_name(b, e, y), m_name(c, d, y)),
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
                                    m_name(b, e, a),
                                    c_name(i, a),
                                    s,
                                    residue(m_name(b, e, y), c_name(i, y)),
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
                                c_name(i, a),
                                c_name(j, a),
                                s,
                                residue(c_name(i, y), c_name(j, y)),
                            )
                        )
        for i in zs:
            s = c_name(i, y)
            cyi = c_name(y, i)

            def bracket(u, v):
                """[[C[y,i], u], [C[y,i], v]]"""
                return sym_comm(sym_comm((cyi,), (u,)), sym_comm((cyi,), (v,)))

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
                                    m_name(a, e, i, -1),
                                    m_name(b, d, i, -1),
                                    s,
                                    bracket(m_name(a, e, y), m_name(b, d, y)),
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
                                m_name(a, e, i, -1),
                                c_name(j, i, -1),
                                s,
                                bracket(m_name(a, e, y), c_name(j, y)),
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
                            c_name(j, i, -1),
                            c_name(m, i, -1),
                            s,
                            bracket(c_name(j, y), c_name(m, y)),
                        )
                    )
    return out


def verify_table5(sig):
    """Check f(t2 t1, s)^-1 f(t1 t2, s) against the tabulated residues.

    The comparison is on coded words over S_K, through the action table
    of the S_Q letters the rows use.
    """
    report = Report()
    rows = table5_rows(sig)
    if not rows:
        report.skip("table5", "no instances at this signature")
        return report
    letters = dict.fromkeys(t for row in rows for t in row[2:4])
    alpha = _alphabet(sig)
    table = _action_table(sig, letters)
    for row, params, t1, t2, s, expected in rows:
        i = alpha.code[s] - 1
        t2_t1_s = _apply_table(table[t2], table[t1][i])
        t1_t2_s = _apply_table(table[t1], table[t2][i])
        got = multiply(invert(t2_t1_s), t1_t2_s)
        report.add(f"table5.{row}", params, got == alpha.encode(expected))
    return report


# ---------------------------------------------------------------------------
# support and multiplier bookkeeping


def support_letter(name):
    """Signed letter codes a symbol moves; independent of its power."""
    if name.kind == "M":
        return frozenset({name.v * name.e})
    if name.kind == "C":
        return frozenset({name.v, -name.v})
    if name.kind == "P":
        return frozenset({name.v, -name.v, name.w, -name.w})
    if name.kind == "I":
        return frozenset({name.v, -name.v})
    raise ValueError(f"unknown kind {name.kind!r}")


def mult_letter(name):
    """Letter codes a symbol multiplies or conjugates by."""
    if name.kind in ("M", "C"):
        return frozenset({name.w})
    if name.kind == "P":
        return frozenset({name.v, name.w})
    if name.kind == "I":
        return frozenset({name.v})
    raise ValueError(f"unknown kind {name.kind!r}")


def support(w):
    out = set()
    for s in w:
        out |= support_letter(s)
    return frozenset(out)


def mult_set(w):
    out = set()
    for s in w:
        out |= mult_letter(s)
    return frozenset(out)


def disjointness_conditions(s_word, t_word):
    """The three conditions under which the action must fix s_word."""
    ss, st = support(s_word), support(t_word)
    ms = {c for m in mult_set(s_word) for c in (m, -m)}
    mt = {c for m in mult_set(t_word) for c in (m, -m)}
    return not (ss & st) and not (ss & mt) and not (st & ms)


# ---------------------------------------------------------------------------
# finite expansion of the recursive relation set


def _sq_letters(sig):
    out = []
    for s in s_q_symbols(sig):
        out.append(s)
        out.append(s.inv())
    return out


def reduced_sq_words(sig, depth):
    """All reduced words over S_Q of length <= depth, deterministic order."""
    letters = _sq_letters(sig)
    words = [()]
    layer = [()]
    for _ in range(depth):
        nxt = []
        for w in layer:
            for s in letters:
                if w and w[-1].power == -s.power and w[-1][:4] == s[:4]:
                    continue
                nxt.append(w + (s,))
        words.extend(nxt)
        layer = nxt
    return words


def _lpres_expand(sig, depth):
    """lpres_expand's relators, with the seeds and the table they came from.

    Returns (relators, seeds, table): the relators are tuples of S_K codes
    (_alphabet) and table is the coded action table of every S_Q letter
    ({} when there are no seeds).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seeds = [
        sym_mul(inst.lhs, sym_inv(inst.rhs))
        for inst in enumerate_relations("rk", sig)
    ]
    if not seeds:  # S_K may then be empty, and so have no coding
        return [], seeds, {}
    table = _action_table(sig, _sq_letters(sig))
    stored = {}
    seen = set()
    out = []
    for w in reduced_sq_words(sig, depth):
        if w:
            rels = [_apply_table(table[w[0]], r) for r in stored[w[1:]]]
        else:
            rels = [_alphabet(sig).encode(r) for r in seeds]
        if len(w) < depth:
            stored[w] = rels
        for r in rels:
            if r.letters not in seen:
                seen.add(r.letters)
                out.append(r.letters)
    return out, seeds, table


def lpres_expand(sig, depth):
    """Expand the seed relations through all S_Q words of length <= depth.

    Returns the deduplicated list of relator words over S_K, in first-seen
    order; depth 0 is exactly the seed set written as lhs rhs^-1.

    The relators are built as S_K codes (_alphabet), decoded on return.
    Acting by w = t w' is acting by w' and then by t, and reduced_sq_words
    lists w' before w, so the relators of w are the table of t substituted
    into the stored relators of w'; only words shorter than depth are stored.

    So every relator is trivial once every seed is and every table entry
    is right.  If each entry table[t][i] evaluates to t s_i t^-1, then the
    relator _apply_table(table[t], r') of t w' evaluates to
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
    (the "action" line of verify_action_consistency).
    """
    relators, seeds, table = _lpres_expand(sig, depth)
    idt = tuple(_gen_words(sig))
    sound = all(symbol_images(sig, r) == idt for r in seeds)
    if sound and depth >= 1:
        sound = all(
            _conjugates(sig, word, t, s)
            for t, row in table.items()
            for word, s in zip(row, _alphabet(sig).s_k)
        )
    return relators, sound
