"""Formal presentations: symbol alphabets, relation tables, and the
conjugation action of the quotient alphabet on the kernel alphabet.

Words over the symbol alphabets are tuples of GenName letters, each with a
formal power +-1, freely reduced (only an adjacent letter and its formal
inverse cancel; P and I are involutions in the group but not in the free
group on symbols).

Alphabets:

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
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .automorphism import (
    GenName,
    c_name,
    compose,
    format_name,
    gen_aut,
    identity,
    inverse,
    m_name,
    p_name,
    i_name,
)


# ---------------------------------------------------------------------------
# symbol words


def sym_reduce(letters):
    """Freely reduce a sequence of GenName letters."""
    stack = []
    for s in letters:
        if stack and stack[-1].base() == s.base() and stack[-1].power == -s.power:
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
    return " ".join(format_name(sig, s) for s in w)


@lru_cache(maxsize=None)
def _cached_gen_aut(sig, name):
    return gen_aut(sig, name)


def eval_symbol_word(sig, w):
    """Evaluate a symbol word to an automorphism; leftmost letter last."""
    acc = identity(sig)
    for s in w:
        acc = compose(acc, _cached_gen_aut(sig, s))
    return acc


# ---------------------------------------------------------------------------
# alphabets


def in_s_k(sig, name):
    """Admissibility in S_K (power ignored)."""
    if name.kind == "M":
        return sig.klass(name.v) == "x" and sig.klass(name.w) == "y"
    if name.kind == "C":
        if sig.klass(name.v) == "z":
            return sig.klass(name.w) == "y"
        return sig.klass(name.v) == "y" and name.v != name.w
    return False


def in_s_q(sig, name):
    """Admissibility in S_Q (power ignored)."""
    if name.kind in ("P", "I"):
        return True
    if name.kind == "M":
        return (
            sig.klass(name.v) == "x"
            and sig.klass(name.w) in ("x", "z")
            and name.v != name.w
        )
    if name.kind == "C":
        return (
            sig.klass(name.v) == "z"
            and sig.klass(name.w) in ("x", "z")
            and name.v != name.w
        )
    return False


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
    """S_Q in a fixed deterministic order."""
    out = []
    for i in sig.x_gens():
        for j in sig.x_gens():
            if i < j:
                out.append(p_name(i, j))
    for i in sig.x_gens():
        out.append(i_name(i))
    for z in sig.z_gens():
        for v in list(sig.x_gens()) + list(sig.z_gens()):
            if v != z:
                out.append(c_name(z, v))
    for x in sig.x_gens():
        for e in (1, -1):
            for v in list(sig.x_gens()) + list(sig.z_gens()):
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


def _w(*letters):
    return sym_reduce(letters)


def _inst(family, params, lhs, rhs=()):
    return RelationInstance(family, params, sym_reduce(lhs), sym_reduce(rhs))


def _comm_inst(family, params, a, b):
    return _inst(family, params, sym_comm(a, b))


def _signed(sig, code, sign):
    return sig.letter_name(code if sign == 1 else -code)


# The extended naming M[v^e,w^-1] = M[v^e,w]^-1 and C[v,w^-1] = C[v,w]^-1
# is normalized into formal powers right here.


def _make_m(v, e, w_code, w_sign=1, power=1):
    return m_name(v, e, w_code, power * w_sign)


def _make_c(v, w_code, w_sign=1, power=1):
    return c_name(v, w_code, power * w_sign)


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
                    out.append(
                        _inst(
                            "N1",
                            f"PPP=P,a={a},b={b},c={c}",
                            sym_conj((p_name(b, c),), (p_name(a, b),)),
                            (p_name(a, c),),
                        )
                    )
    for a in xs:
        for b in xs:
            if a != b:
                out.append(
                    _inst(
                        "N1",
                        f"PIP=I,a={a},b={b}",
                        sym_conj((i_name(a),), (p_name(a, b),)),
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
    for a in xs:
        for b in xs:
            if a >= b:
                continue
            p = p_name(a, b)
            for x in xs:
                for y in xs:
                    if x == y:
                        continue
                    for e in (1, -1):
                        xi, xe = _perm_apply(p, x, e)
                        yi, ye = _perm_apply(p, y, 1)
                        out.append(
                            _inst(
                                "N2",
                                f"P,a={a},b={b},x={x},e={e:+d},y={y}",
                                sym_conj((m_name(x, e, y),), (p,)),
                                (_make_m(xi, xe, yi, ye),),
                            )
                        )
    for a in xs:
        ia = i_name(a)
        for x in xs:
            for y in xs:
                if x == y:
                    continue
                for e in (1, -1):
                    xi, xe = _perm_apply(ia, x, e)
                    yi, ye = _perm_apply(ia, y, 1)
                    out.append(
                        _inst(
                            "N2",
                            f"I,a={a},x={x},e={e:+d},y={y}",
                            sym_conj((m_name(x, e, y),), (ia,)),
                            (_make_m(xi, xe, yi, ye),),
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
            lhs1 = _w(
                m_name(a, -1, b, -1),
                m_name(b, -1, a),
                m_name(a, 1, b),
            )
            out.append(
                _inst("N3", f"form1,a={a},b={b}", lhs1, (i_name(a), p_name(a, b)))
            )
            lhs2 = _w(
                m_name(a, -1, b),
                m_name(b, 1, a),
                m_name(a, 1, b, -1),
            )
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
                        mba = m_name(b, e, a)
                        mcb = (m_name(c, f, b),)
                        lhs = sym_mul((mba,), sym_pow(mcb, e))
                        rhs = sym_mul(sym_pow(mcb, e), (mba,), (m_name(c, f, a),))
                        out.append(
                            _inst(
                                "N5", f"a={a},b={b},c={c},e={e:+d},f={f:+d}", lhs, rhs
                            )
                        )
    return out


def _yz_gens(sig):
    return list(sig.y_gens()) + list(sig.z_gens())


def _xz_gens(sig):
    return list(sig.x_gens()) + list(sig.z_gens())


def _q2_instances(sig):
    out = []
    xs = list(sig.x_gens())
    yz = _yz_gens(sig)
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
    xs = list(sig.x_gens())
    yz = _yz_gens(sig)
    ps = [p_name(i, j) for i in xs for j in xs if i < j]
    for p in ps:
        for x in xs:
            for z in yz:
                for e in (1, -1):
                    xi, xe = _perm_apply(p, x, e)
                    out.append(
                        _inst(
                            "Q3.1",
                            f"i={p.v},j={p.w},x={x},e={e:+d},z={z}",
                            sym_conj((m_name(x, e, z),), (p,)),
                            (m_name(xi, xe, z),),
                        )
                    )
                xi, xe = _perm_apply(p, x, 1)
                out.append(
                    _inst(
                        "Q3.2",
                        f"i={p.v},j={p.w},x={x},z={z}",
                        sym_conj((c_name(z, x),), (p,)),
                        (_make_c(z, xi, xe),),
                    )
                )
    for a in xs:
        ia = i_name(a)
        for x in xs:
            for z in yz:
                for e in (1, -1):
                    xi, xe = _perm_apply(ia, x, e)
                    out.append(
                        _inst(
                            "Q3.3",
                            f"i={a},x={x},e={e:+d},z={z}",
                            sym_conj((m_name(x, e, z),), (ia,)),
                            (m_name(xi, xe, z),),
                        )
                    )
                xi, xe = _perm_apply(ia, x, 1)
                out.append(
                    _inst(
                        "Q3.4",
                        f"i={a},x={x},z={z}",
                        sym_conj((c_name(z, x),), (ia,)),
                        (_make_c(z, xi, xe),),
                    )
                )
    return out


def _q4_instances(sig):
    out = []
    xs = list(sig.x_gens())
    yz = _yz_gens(sig)
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
                        mxw = (m_name(x, e, w),)
                        lhs = sym_mul(
                            sym_pow(mxw, -d), (m_name(w, d, v),), sym_pow(mxw, d)
                        )
                        out.append(
                            _inst(
                                "Q4.1",
                                f"x={x},w={w},v={v},e={e:+d},d={d:+d}",
                                lhs,
                                (m_name(x, e, v), m_name(w, d, v)),
                            )
                        )
    for z in yz:
        for x in xs:
            for v in allg:
                if v == x or v == z:
                    continue
                for e in (1, -1):
                    czx = (c_name(z, x),)
                    lhs = sym_mul(
                        sym_pow(czx, -e), (m_name(x, e, v),), sym_pow(czx, e)
                    )
                    out.append(
                        _inst(
                            "Q4.1'",
                            f"z={z},x={x},v={v},e={e:+d}",
                            lhs,
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
                        czv = (c_name(z, v),)
                        mxv = (m_name(x, d, v),)
                        lhs = sym_mul(
                            sym_pow(czv, e), (m_name(x, d, z),), sym_pow(czv, -e)
                        )
                        rhs = sym_mul(
                            sym_pow(mxv, -e), (m_name(x, d, z),), sym_pow(mxv, e)
                        )
                        out.append(
                            _inst(
                                "Q4.2",
                                f"z={z},v={v},x={x},e={e:+d},d={d:+d}",
                                lhs,
                                rhs,
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
                    czv = (c_name(z, v),)
                    cwv = (c_name(w, v),)
                    lhs = sym_mul(sym_pow(czv, e), (c_name(w, z),), sym_pow(czv, -e))
                    rhs = sym_mul(sym_pow(cwv, -e), (c_name(w, z),), sym_pow(cwv, e))
                    out.append(
                        _inst(
                            "Q4.2'",
                            f"z={z},w={w},v={v},e={e:+d}",
                            lhs,
                            rhs,
                        )
                    )
    return out


def _q5_instances(sig):
    out = []
    for x in sig.x_gens():
        for v in _yz_gens(sig):
            for e in (1, -1):
                cvx = (c_name(v, x),)
                lhs = sym_mul(sym_pow(cvx, -e), (m_name(x, -e, v),), sym_pow(cvx, e))
                out.append(
                    _inst(
                        "Q5",
                        f"x={x},v={v},e={e:+d}",
                        lhs,
                        (m_name(x, e, v, power=-1),),
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
                    cvx = (c_name(v, x),)
                    lhs = sym_mul(
                        sym_pow(cvx, -e), (m_name(x, e, z),), sym_pow(cvx, e)
                    )
                    out.append(
                        _inst(
                            "R2",
                            f"x={x},e={e:+d},v={v},z={z}",
                            lhs,
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
                        cvz = (c_name(v, z),)
                        mxz = (m_name(x, d, z),)
                        lhs = sym_mul(
                            sym_pow(cvz, e), (m_name(x, d, v),), sym_pow(cvz, -e)
                        )
                        rhs = sym_mul(
                            sym_pow(mxz, -e), (m_name(x, d, v),), sym_pow(mxz, e)
                        )
                        out.append(
                            _inst(
                                "R3",
                                f"x={x},d={d:+d},v={v},z={z},e={e:+d}",
                                lhs,
                                rhs,
                            )
                        )
    return out


def _r4_instances(sig):
    out = []
    yz = _yz_gens(sig)
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
                    lhs = sym_mul(sym_pow((c_vz,), e), (c_wv,), sym_pow((c_vz,), -e))
                    rhs = sym_mul(sym_pow((c_wz,), -e), (c_wv,), sym_pow((c_wz,), e))
                    out.append(
                        _inst("R4", f"v={v},z={z},w={w},e={e:+d}", lhs, rhs)
                    )
    return out


def _r5_instances(sig):
    out = []
    for x in sig.x_gens():
        for y in sig.y_gens():
            for e in (1, -1):
                cyx = (c_name(y, x),)
                lhs = sym_mul(sym_pow(cyx, -e), (m_name(x, -e, y),), sym_pow(cyx, e))
                out.append(
                    _inst(
                        "R5",
                        f"x={x},y={y},e={e:+d}",
                        lhs,
                        (m_name(x, e, y, power=-1),),
                    )
                )
    return out


def _c1_instances(sig):
    out = []
    xs = list(sig.x_gens())
    yz = _yz_gens(sig)
    xz = _xz_gens(sig)
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
                                left = sym_mul(
                                    sym_pow((c_name(y, v),), e),
                                    (m_name(a, dd, y),),
                                    sym_pow((c_name(y, v),), -e),
                                )
                                out.append(
                                    _comm_inst(
                                        "C1.1",
                                        f"y={y},a={a},d={dd:+d},b={b},zeta={zz:+d},v={v},e={e:+d}",
                                        left,
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
                        for d in (1, -1):
                            left = sym_mul(
                                sym_pow((c_name(y, v),), e),
                                (m_name(x, d, y),),
                                sym_pow((c_name(y, v),), -e),
                            )
                            out.append(
                                _comm_inst(
                                    "C1.2",
                                    f"y={y},x={x},d={d:+d},z={z},v={v},e={e:+d}",
                                    left,
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
                        left = sym_mul(
                            sym_pow((c_name(y, v),), e),
                            (c_name(z, y),),
                            sym_pow((c_name(y, v),), -e),
                        )
                        out.append(
                            _comm_inst(
                                "C1.3",
                                f"y={y},z={z},w={w},v={v},e={e:+d}",
                                left,
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
                        left = sym_mul(
                            sym_pow((c_name(y, z),), e),
                            (m_name(x, d, y),),
                            sym_pow((c_name(y, z),), -e),
                        )
                        out.append(
                            _comm_inst(
                                "C2.1",
                                f"y={y},z={z},x={x},e={e:+d},d={d:+d}",
                                left,
                                (c_name(z, y), m_name(x, d, y)),
                            )
                        )
            for w in sig.z_gens():
                if w == z:
                    continue
                for e in (1, -1):
                    left = sym_mul(
                        sym_pow((c_name(y, z),), e),
                        (c_name(w, y),),
                        sym_pow((c_name(y, z),), -e),
                    )
                    out.append(
                        _comm_inst(
                            "C2.2",
                            f"y={y},z={z},w={w},e={e:+d}",
                            left,
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
            ok = eval_symbol_word(sig, inst.lhs) == eval_symbol_word(sig, inst.rhs)
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
    p = t.power
    if s.kind == "M":
        xa, eps, y = s.v, s.e, s.w
        if t.kind == "M":
            if t.v == xa and t.e == eps:
                u = t.w
                return _w(c_name(y, u, -p), s, c_name(y, u, p))
            if t.w == xa:
                if p == eps:
                    return _w(
                        s,
                        c_name(y, xa, -eps),
                        m_name(t.v, t.e, y, -1),
                        c_name(y, xa, eps),
                    )
                return _w(s, m_name(t.v, t.e, y))
            return (s,)
        if t.kind == "C":
            if t.w == xa:
                if p == eps:
                    return _w(
                        s,
                        c_name(y, xa, -eps),
                        c_name(t.v, y, -1),
                        c_name(y, xa, eps),
                    )
                return _w(s, c_name(t.v, y))
            return (s,)
        if t.kind == "P":
            if xa == t.v:
                return (m_name(t.w, eps, y),)
            if xa == t.w:
                return (m_name(t.v, eps, y),)
            return (s,)
        if t.kind == "I":
            if xa == t.v:
                return (m_name(xa, -eps, y),)
            return (s,)
    # s is a conjugation symbol from here on
    if sig.klass(s.v) == "y":
        y, u = s.v, s.w
        if sig.klass(u) == "x":
            if t.kind == "M" and t.v == u:
                eps, d = t.e, t.power
                inner = _w(c_name(y, u, eps), c_name(y, t.w, d))
                return inner if eps == 1 else sym_inv(inner)
            if t.kind == "P":
                if u == t.v:
                    return (c_name(y, t.w),)
                if u == t.w:
                    return (c_name(y, t.v),)
                return (s,)
            if t.kind == "I":
                if u == t.v:
                    return (c_name(y, u, -1),)
                return (s,)
            return (s,)
        if sig.klass(u) == "z":
            if t.kind == "C" and t.v == u:
                return _w(c_name(y, t.w, -p), s, c_name(y, t.w, p))
            return (s,)
        return (s,)  # conjugation of one y by another: fixed by everything
    # s = C[z_i, y]
    zi, y = s.v, s.w
    if t.kind == "C" and t.v == zi:
        return _w(c_name(y, t.w, -p), s, c_name(y, t.w, p))
    if t.kind == "C" and t.w == zi:
        return sym_mul((s,), sym_comm((c_name(t.v, y),), (c_name(y, zi, -p),)))
    if t.kind == "M" and t.w == zi:
        return sym_mul((s,), sym_comm((m_name(t.v, t.e, y),), (c_name(y, zi, -p),)))
    return (s,)


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


def verify_action_consistency(sig):
    """Ground truth for the rewriting table, in both senses.

    For every S_Q letter t and S_K symbol s: the rewritten word evaluates
    to the concrete conjugate t s t^-1, and acting by t^-1 undoes acting
    by t as words over S_K.
    """
    report = Report()
    syms_q = s_q_symbols(sig)
    syms_k = s_k_symbols(sig)
    if not syms_q or not syms_k:
        report.skip("action", "alphabet empty at this signature")
        return report
    for q in syms_q:
        for pw in (1, -1):
            t = q._replace(power=pw)
            t_aut = eval_symbol_word(sig, (t,))
            t_inv_aut = inverse(t_aut)
            for s in syms_k:
                word = action_f(sig, t, s)
                lhs = eval_symbol_word(sig, word)
                rhs = compose(compose(t_aut, _cached_gen_aut(sig, s)), t_inv_aut)
                params = f"t={format_name(sig, t)},s={format_name(sig, s)}"
                report.add("action", params, lhs == rhs)
                back = action_extend(sig, (t.inv(),), word)
                report.add("inverse", params, back == (s,))
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
            cya = (c_name(y, a),)
            for s_eps in (1, -1):
                s = m_name(a, s_eps, y)
                base = "1" if s_eps == 1 else "4"

                def residue(u, v):
                    if s_eps == 1:
                        return sym_conj(sym_comm(u, v), sym_inv(cya))
                    return sym_comm(sym_inv(u), sym_inv(v))

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
                                        residue(
                                            (m_name(b, e, y),), (m_name(c, d, y),)
                                        ),
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
                                    residue((m_name(b, e, y),), (c_name(i, y),)),
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
                                residue((c_name(i, y),), (c_name(j, y),)),
                            )
                        )
        for i in zs:
            s = c_name(i, y)
            cyi = (c_name(y, i),)
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
                                    sym_comm(
                                        sym_comm(cyi, (m_name(a, e, y),)),
                                        sym_comm(cyi, (m_name(b, d, y),)),
                                    ),
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
                                sym_comm(
                                    sym_comm(cyi, (m_name(a, e, y),)),
                                    sym_comm(cyi, (c_name(j, y),)),
                                ),
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
                            sym_comm(
                                sym_comm(cyi, (c_name(j, y),)),
                                sym_comm(cyi, (c_name(m, y),)),
                            ),
                        )
                    )
    return out


def verify_table5(sig):
    """Check f(t2 t1, s)^-1 f(t1 t2, s) against the tabulated residues."""
    report = Report()
    rows = table5_rows(sig)
    if not rows:
        report.skip("table5", "no instances at this signature")
        return report
    for row, params, t1, t2, s, expected in rows:
        got = sym_mul(
            sym_inv(action_extend(sig, (t2, t1), (s,))),
            action_extend(sig, (t1, t2), (s,)),
        )
        report.add(f"table5.{row}", params, got == expected)
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
    if name.kind == "M":
        return frozenset({name.w})
    if name.kind == "C":
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
                if w and w[-1].base() == s.base() and w[-1].power == -s.power:
                    continue
                nxt.append(w + (s,))
        words.extend(nxt)
        layer = nxt
    return words


def lpres_expand(sig, depth):
    """Expand the seed relations through all S_Q words of length <= depth.

    Returns the deduplicated list of relator words over S_K, in first-seen
    order; depth 0 is exactly the seed set written as lhs rhs^-1.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    seeds = [
        sym_mul(inst.lhs, sym_inv(inst.rhs))
        for inst in enumerate_relations("rk", sig)
    ]
    seen = set()
    out = []
    for w in reduced_sq_words(sig, depth):
        for r in seeds:
            v = action_extend(sig, w, r)
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out
