"""Automorphisms of F(n,k,l) as generator-image tables with named spellings.

The named generators:

    M[v^e,w]   multiplies v:  v -> w v   (e = +1)  or  v -> v w^-1  (e = -1)
    C[v,w]     conjugates v:  v -> w v w^-1
    P[i,j]     swaps x_i and x_j
    I[i]       inverts x_i

Automorphisms act on the left and compose right-to-left, so in a spelling
the leftmost name is applied last.  A NamedAut always carries both its
image table and the image table of its inverse; inversion just swaps the
tables and reverses the spelling, and never solves equations.

Equality of automorphisms is extensional (image tables), not spelling
equality; that is what makes a relation a pair of spellings with equal
images.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .freegroup import (
    Word,
    delete_y,
    gen_word,
    invert as invert_word,
    is_conjugate,
    multiply,
)


class NotInAutFBError(ValueError):
    """Raised when an operation needs a boundary-preserving automorphism."""


class GenName(NamedTuple):
    """One named generator with a formal power.

    kind 'M': v = moved letter code, e = its sign, w = multiplier code.
    kind 'C': v = moved letter code, w = conjugator code (e unused, 0).
    kind 'P': v < w are the swapped x-indices (stored canonically).
    kind 'I': v is the inverted x-index.
    power is +1 or -1 and is a formal exponent on the whole name.
    """

    kind: str
    v: int
    e: int
    w: int
    power: int

    def base(self):
        return self._replace(power=1)

    def inv(self):
        return self._replace(power=-self.power)


def m_name(v, e, w, power=1):
    if v == w:
        raise ValueError("M[v^e,w] needs v != w")
    if e not in (1, -1) or power not in (1, -1):
        raise ValueError("signs must be +-1")
    if v <= 0 or w <= 0:
        raise ValueError("generator codes must be positive")
    return GenName("M", v, e, w, power)


def c_name(v, w, power=1):
    if v == w:
        raise ValueError("C[v,w] needs v != w")
    if power not in (1, -1):
        raise ValueError("power must be +-1")
    if v <= 0 or w <= 0:
        raise ValueError("generator codes must be positive")
    return GenName("C", v, 0, w, power)


def p_name(i, j, power=1):
    if i == j:
        raise ValueError("P[i,j] needs i != j")
    if i > j:
        i, j = j, i  # P[i,j] and P[j,i] are tacitly the same name
    return GenName("P", i, 0, j, power)


def i_name(i, power=1):
    return GenName("I", i, 0, 0, power)


class NamedAut:
    """An automorphism of F(n,k,l): spelling plus both image tables."""

    __slots__ = ("sig", "spelling", "images", "inv_images")

    def __init__(self, sig, spelling, images, inv_images):
        self.sig = sig
        self.spelling = tuple(spelling)
        self.images = tuple(images)
        self.inv_images = tuple(inv_images)

    def image(self, code):
        """Image word of a single (possibly negative) letter code."""
        if code > 0:
            return self.images[code - 1]
        return invert_word(self.images[-code - 1])

    def key(self):
        """Hashable identity: the image table."""
        return (self.sig, tuple(w.letters for w in self.images))

    def __eq__(self, other):
        return isinstance(other, NamedAut) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"NamedAut({format_spelling(self.sig, self.spelling) or '1'})"


def _gen_words(sig):
    return [gen_word(sig, c) for c in sig.gens()]


def identity(sig):
    base = _gen_words(sig)
    return NamedAut(sig, (), base, list(base))


def mul_gen(sig, v, e, w):
    """M[v^e,w]: v -> w v (e = +1) or v -> v w^-1 (e = -1), rest fixed."""
    name = m_name(v, e, w)
    images = _gen_words(sig)
    inv_images = _gen_words(sig)
    vv, ww = gen_word(sig, v), gen_word(sig, w)
    if e == 1:
        images[v - 1] = multiply(ww, vv)
        inv_images[v - 1] = multiply(invert_word(ww), vv)
    else:
        images[v - 1] = multiply(vv, invert_word(ww))
        inv_images[v - 1] = multiply(vv, ww)
    return NamedAut(sig, (name,), images, inv_images)


def con_gen(sig, v, w):
    """C[v,w]: v -> w v w^-1, rest fixed."""
    name = c_name(v, w)
    images = _gen_words(sig)
    inv_images = _gen_words(sig)
    vv, ww = gen_word(sig, v), gen_word(sig, w)
    images[v - 1] = multiply(multiply(ww, vv), invert_word(ww))
    inv_images[v - 1] = multiply(multiply(invert_word(ww), vv), ww)
    return NamedAut(sig, (name,), images, inv_images)


def swap_gen(sig, i, j):
    """P[i,j]: x_i <-> x_j; an involution."""
    name = p_name(i, j)
    if not (1 <= i <= sig.n and 1 <= j <= sig.n):
        raise ValueError(f"P indices out of range for {sig}")
    images = _gen_words(sig)
    images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return NamedAut(sig, (name,), images, list(images))


def inv_gen(sig, i):
    """I[i]: x_i -> x_i^-1; an involution."""
    name = i_name(i)
    if not 1 <= i <= sig.n:
        raise ValueError(f"I index out of range for {sig}")
    images = _gen_words(sig)
    images[i - 1] = invert_word(images[i - 1])
    return NamedAut(sig, (name,), images, list(images))


def from_images(sig, images, inv_images, spelling=()):
    """Ad-hoc constructor from raw tables.

    The pair of tables is checked to be mutually inverse before the value
    is released; an unchecked table is never allowed to circulate.
    """
    f = NamedAut(sig, spelling, images, inv_images)
    for c in sig.gens():
        target = gen_word(sig, c)
        if _apply_table(f.images, f.inv_images[c - 1]) != target:
            raise ValueError("image tables are not mutually inverse")
        if _apply_table(f.inv_images, f.images[c - 1]) != target:
            raise ValueError("image tables are not mutually inverse")
    return f


def _apply_table(table, u):
    """Substitute each letter of u by its table image (inverted when the
    letter is negative), reducing as we go."""
    out = []
    for c in u.letters:
        img = table[abs(c) - 1].letters
        if c < 0:
            img = tuple(-d for d in reversed(img))
        for d in img:
            if out and out[-1] == -d:
                out.pop()
            else:
                out.append(d)
    return Word(u.sig, tuple(out), _reduced=True)


def apply(f, u):
    """f(u); a homomorphism in u (the image of a negative letter is the
    inverse of the image of the positive one)."""
    if f.sig != u.sig:
        raise ValueError(f"signature mismatch: {f.sig} vs {u.sig}")
    return _apply_table(f.images, u)


def compose(f, g):
    """f after g: (f compose g)(s) = f(g(s))."""
    if f.sig != g.sig:
        raise ValueError(f"signature mismatch: {f.sig} vs {g.sig}")
    images = [_apply_table(f.images, w) for w in g.images]
    inv_images = [_apply_table(g.inv_images, w) for w in f.inv_images]
    return NamedAut(f.sig, f.spelling + g.spelling, images, inv_images)


def inverse(f):
    """Swap the tables, reverse the spelling, flip each power."""
    spelling = tuple(name.inv() for name in reversed(f.spelling))
    return NamedAut(f.sig, spelling, f.inv_images, f.images)


def power(f, m):
    """f^m for any integer m, by repeated composition."""
    if m < 0:
        return power(inverse(f), -m)
    acc = identity(f.sig)
    for _ in range(m):
        acc = compose(acc, f)
    return acc


def gen_aut(sig, name):
    """Realize one GenName (with its power) as a NamedAut."""
    if name.kind == "M":
        f = mul_gen(sig, name.v, name.e, name.w)
    elif name.kind == "C":
        f = con_gen(sig, name.v, name.w)
    elif name.kind == "P":
        f = swap_gen(sig, name.v, name.w)
    elif name.kind == "I":
        f = inv_gen(sig, name.v)
    else:
        raise ValueError(f"unknown generator kind {name.kind!r}")
    return inverse(f) if name.power == -1 else f


def spelling_aut(sig, spelling):
    """Evaluate a spelling (leftmost name applied last)."""
    acc = identity(sig)
    for name in spelling:
        acc = compose(acc, gen_aut(sig, name))
    return acc


def is_in_autfb(f):
    """Does f fix the conjugacy class of every y and z generator?"""
    sig = f.sig
    for c in list(sig.y_gens()) + list(sig.z_gens()):
        if not is_conjugate(f.images[c - 1], gen_word(sig, c)):
            return False
    return True


def is_in_autfb_prime(f):
    """Does f fix every y and z generator on the nose?"""
    sig = f.sig
    for c in list(sig.y_gens()) + list(sig.z_gens()):
        if f.images[c - 1] != gen_word(sig, c):
            return False
    return True


def is_in_kernel(f):
    """Is f in the kernel of the projection that kills the y letters?

    Precondition: f preserves the boundary classes; a violation raises
    NotInAutFBError rather than returning False, because the kernel is
    only defined inside that group.
    """
    if not is_in_autfb(f):
        raise NotInAutFBError("not a boundary-preserving automorphism")
    sig = f.sig
    for c in list(sig.x_gens()) + list(sig.z_gens()):
        if delete_y(f.images[c - 1]) != gen_word(sig, c):
            return False
    return True


# ---------------------------------------------------------------------------
# Spelling grammar: `M[x1^+1,y1] C[y1,x1] P[1,2] I[1]`, optional `^-1` on any
# token; an optional `^-1` inside the second slot of M/C is normalized into
# the token power (so M[x1^+1,y1^-1] means M[x1^+1,y1]^-1).

_M_RE = re.compile(r"M\[([xyz]\d+)\^(\+?1|-1),([xyz]\d+)(\^-1)?\](\^-1)?$")
_C_RE = re.compile(r"C\[([xyz]\d+),([xyz]\d+)(\^-1)?\](\^-1)?$")
_P_RE = re.compile(r"P\[(\d+),(\d+)\](\^-1)?$")
_I_RE = re.compile(r"I\[(\d+)\](\^-1)?$")


def _parse_gen(sig, text):
    m = re.match(r"([xyz])(\d+)$", text)
    if not m:
        raise ValueError(f"bad generator token {text!r}")
    return sig.gen_code(m.group(1), int(m.group(2)))


def parse_name(sig, tok):
    m = _M_RE.match(tok)
    if m:
        v = _parse_gen(sig, m.group(1))
        e = -1 if m.group(2) == "-1" else 1
        w = _parse_gen(sig, m.group(3))
        pw = (-1 if m.group(4) else 1) * (-1 if m.group(5) else 1)
        return m_name(v, e, w, pw)
    m = _C_RE.match(tok)
    if m:
        v = _parse_gen(sig, m.group(1))
        w = _parse_gen(sig, m.group(2))
        pw = (-1 if m.group(3) else 1) * (-1 if m.group(4) else 1)
        return c_name(v, w, pw)
    m = _P_RE.match(tok)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= sig.n and 1 <= j <= sig.n):
            raise ValueError(f"P indices out of range in {tok!r}")
        return p_name(i, j, -1 if m.group(3) else 1)
    m = _I_RE.match(tok)
    if m:
        i = int(m.group(1))
        if not 1 <= i <= sig.n:
            raise ValueError(f"I index out of range in {tok!r}")
        return i_name(i, -1 if m.group(2) else 1)
    raise ValueError(f"bad automorphism token {tok!r}")


def parse_spelling(sig, text):
    return tuple(parse_name(sig, tok) for tok in text.split())


def parse_aut(sig, text):
    """Parse a spelling and evaluate it (leftmost token applied last)."""
    return spelling_aut(sig, parse_spelling(sig, text))


def format_name(sig, name):
    suffix = "^-1" if name.power == -1 else ""
    if name.kind == "M":
        e = "+1" if name.e == 1 else "-1"
        return f"M[{sig.letter_name(name.v)}^{e},{sig.letter_name(name.w)}]{suffix}"
    if name.kind == "C":
        return f"C[{sig.letter_name(name.v)},{sig.letter_name(name.w)}]{suffix}"
    if name.kind == "P":
        return f"P[{name.v},{name.w}]{suffix}"
    if name.kind == "I":
        return f"I[{name.v}]{suffix}"
    raise ValueError(f"unknown generator kind {name.kind!r}")


def format_spelling(sig, spelling):
    return " ".join(format_name(sig, name) for name in spelling)
