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

gen_aut builds both tables of a named generator by one rule, _gen_images,
at the name and at name.inv(); that rule is also the one check of a name
against a signature.  Spelling tokens read letters by Signature.letter_code.

Equality of automorphisms is extensional (image tables), not spelling
equality; that is what makes a relation a pair of spellings with equal
images.

_cached_gen_aut is the one source of a named generator's automorphism:
spelling_aut, symbol_images, the rank rows and the cocycle witnesses all
read it, and it keeps the 4,096 most recently used (signature, name).
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache, reduce
from typing import NamedTuple

from .freegroup import Word, cyclic_reduce, delete_y, invert as invert_word


class NotInAutFBError(ValueError):
    """Raised when an operation needs a boundary-preserving automorphism."""


class ClaimFailedError(RuntimeError):
    """Raised when a claim the package proves by computation turns out false.

    Such a failure is a defect in the package, not bad input, so it is
    not a ValueError.
    """


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

    # Both build the tuple directly: _replace goes through _make and a
    # keyword map, several times slower on the symbol-word hot paths.
    def base(self):
        return tuple.__new__(GenName, self[:4] + (1,))

    def inv(self):
        return tuple.__new__(GenName, self[:4] + (-self.power,))


def _name(kind, v, e, w, power, *indices):
    """The checks every constructor shares: power +-1, positive indices."""
    if power not in (1, -1):
        raise ValueError("power must be +-1")
    if min(indices) <= 0:
        raise ValueError("generator codes must be positive")
    return GenName(kind, v, e, w, power)


def m_name(v, e, w, power=1):
    if v == w:
        raise ValueError("M[v^e,w] needs v != w")
    if e not in (1, -1):
        raise ValueError("signs must be +-1")
    return _name("M", v, e, w, power, v, w)


def c_name(v, w, power=1):
    if v == w:
        raise ValueError("C[v,w] needs v != w")
    return _name("C", v, 0, w, power, v, w)


def p_name(i, j, power=1):
    if i == j:
        raise ValueError("P[i,j] needs i != j")
    # P[i,j] and P[j,i] are tacitly the same name
    return _name("P", min(i, j), 0, max(i, j), power, i, j)


def i_name(i, power=1):
    return _name("I", i, 0, 0, power, i)


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
    return [Word(sig, (c,), _reduced=True) for c in sig.gens()]


def identity(sig):
    base = _gen_words(sig)
    return NamedAut(sig, (), base, list(base))


def _gen_images(sig, name):
    """The image table of one named generator at its power: the one rule
    for every kind, and the one check of a name.  Each branch passes the
    fields to the kind's constructor, which checks a hand-built GenName,
    and then the codes are checked against the signature.

        M[v^e,w]^p   v -> w^p v (e = +1)  or  v -> v w^-p (e = -1)
        C[v,w]^p     v -> w^p v w^-p
        P[i,j]       x_i <-> x_j          (either power)
        I[i]         x_i -> x_i^-1        (either power)
    """
    kind, v, e, w, p = name
    if kind == "M":
        m_name(v, e, w, p)
        moved = {v: (w * p, v) if e == 1 else (v, -w * p)}
    elif kind == "C":
        c_name(v, w, p)
        moved = {v: (w * p, v, -w * p)}
    elif kind == "P":
        p_name(v, w, p)
        moved = {v: (w,), w: (v,)}
    elif kind == "I":
        i_name(v, p)
        moved = {v: (-v,)}
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind in ("P", "I") and any(sig.klass(i) != "x" for i in moved):
        raise ValueError(f"{kind} indices must be x's for {sig}")
    images = _gen_words(sig)
    for c, letters in moved.items():
        images[c - 1] = Word(sig, letters)
    return images


def gen_aut(sig, name):
    """Realize one GenName (with its power) as a NamedAut; both tables
    come from _gen_images, at name and at name.inv()."""
    return NamedAut(sig, (name,), _gen_images(sig, name), _gen_images(sig, name.inv()))


def mul_gen(sig, v, e, w):
    """M[v^e,w]: v -> w v (e = +1) or v -> v w^-1 (e = -1), rest fixed."""
    return gen_aut(sig, m_name(v, e, w))


def con_gen(sig, v, w):
    """C[v,w]: v -> w v w^-1, rest fixed."""
    return gen_aut(sig, c_name(v, w))


def swap_gen(sig, i, j):
    """P[i,j]: x_i <-> x_j; an involution."""
    return gen_aut(sig, p_name(i, j))


def inv_gen(sig, i):
    """I[i]: x_i -> x_i^-1; an involution."""
    return gen_aut(sig, i_name(i))


def from_images(sig, images, inv_images, spelling=()):
    """Ad-hoc constructor from raw tables.

    The pair of tables is checked to be mutually inverse before the value
    is released; an unchecked table is never allowed to circulate.
    """
    f = NamedAut(sig, spelling, images, inv_images)
    for c in sig.gens():
        for table, other in ((f.images, f.inv_images), (f.inv_images, f.images)):
            if _apply_table(table, other[c - 1]).letters != (c,):
                raise ValueError("image tables are not mutually inverse")
    return f


def _apply_table(table, u):
    """Substitute each letter of u by its table image (inverted when the
    letter is negative), reducing as we go."""
    out = []
    for c in u.letters:
        img = table[abs(c) - 1].letters
        if c < 0:
            img = map(operator.neg, reversed(img))
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


def _substitute_all(table, words):
    """[_apply_table(table, w) for w in words], with the reuses that
    compose describes."""
    out = []
    for w in words:
        lets = w.letters
        if len(lets) == 1 and lets[0] > 0:
            out.append(table[lets[0] - 1])
            continue
        for c in lets:
            c = abs(c)
            if table[c - 1].letters != (c,):
                out.append(_apply_table(table, w))
                break
        else:
            out.append(w)
    return out


def compose(f, g):
    """f after g: (f compose g)(s) = f(g(s)).

    The images are f's table substituted into each entry of g.images; the
    inverse images are g's inverse table substituted into each entry of
    f.inv_images.  Two kinds of entry are reused instead of substituted,
    and both reuses are exact: an entry that is one positive letter c
    substitutes to the table's c-th entry, which is already reduced, and
    an entry whose letters the table all fixes substitutes to itself.
    When g is an elementary move, every entry of g.images but the moved
    one is of the first kind, and only the entries of f.inv_images that
    hold the moved letter can need _apply_table.
    """
    if f.sig != g.sig:
        raise ValueError(f"signature mismatch: {f.sig} vs {g.sig}")
    images = _substitute_all(f.images, g.images)
    inv_images = _substitute_all(g.inv_images, f.inv_images)
    return NamedAut(f.sig, f.spelling + g.spelling, images, inv_images)


def inverse(f):
    """Swap the tables, reverse the spelling, flip each power."""
    spelling = tuple(name.inv() for name in reversed(f.spelling))
    return NamedAut(f.sig, spelling, f.inv_images, f.images)


def power(f, m):
    """f^m for any integer m, by repeated squaring: about 2 log2|m|
    composes.  The spelling is f's spelling repeated |m| times."""
    if m < 0:
        return power(inverse(f), -m)
    acc = identity(f.sig)
    while m:
        if m & 1:
            acc = compose(acc, f)
        m >>= 1
        if m:
            f = compose(f, f)
    return acc


@lru_cache(maxsize=4096)  # far above the 558 pairs of the benchmark's verify grid
def _cached_gen_aut(sig, name):
    return gen_aut(sig, name)


def spelling_aut(sig, spelling):
    """Evaluate a spelling (leftmost name applied last), folding from its
    first generator; the empty spelling is the identity."""
    auts = [_cached_gen_aut(sig, name) for name in spelling]
    return reduce(compose, auts) if auts else identity(sig)


def is_in_autfb(f):
    """Does f fix the conjugacy class of every y and z generator?"""
    sig = f.sig
    for c in sig.yz_gens():
        # A word is conjugate to the letter c exactly when its cyclic
        # core is (c,); no rotation scan is needed.
        if cyclic_reduce(f.images[c - 1])[0].letters != (c,):
            return False
    return True


def is_in_autfb_prime(f):
    """Does f fix every y and z generator on the nose?"""
    for c in f.sig.yz_gens():
        if f.images[c - 1].letters != (c,):
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
    for c in f.sig.xz_gens():
        if delete_y(f.images[c - 1]).letters != (c,):
            return False
    return True


# ---------------------------------------------------------------------------
# Spelling grammar: `M[x1^+1,y1] C[y1,x1] P[1,2] I[1]`, optional `^-1` on any
# token; an optional `^-1` inside the second slot of M/C is normalized into
# the token power (so M[x1^+1,y1^-1] means M[x1^+1,y1]^-1).

_M_RE = re.compile(r"M\[(\w+)\^(\+?1|-1),([\w^-]+)\](\^-1)?")
_C_RE = re.compile(r"C\[(\w+),([\w^-]+)\](\^-1)?")
_P_RE = re.compile(r"P\[([1-9][0-9]*),([1-9][0-9]*)\](\^-1)?")
_I_RE = re.compile(r"I\[([1-9][0-9]*)\](\^-1)?")


def parse_name(sig, tok):
    """One spelling token; its letters are read by Signature.letter_code
    and its P/I indices by Signature.gen_code, so both are range-checked."""
    m = _M_RE.fullmatch(tok)
    if m:
        w = sig.letter_code(m.group(3))
        e = -1 if m.group(2) == "-1" else 1
        pw = (-1 if w < 0 else 1) * (-1 if m.group(4) else 1)
        return m_name(sig.letter_code(m.group(1)), e, abs(w), pw)
    m = _C_RE.fullmatch(tok)
    if m:
        w = sig.letter_code(m.group(2))
        pw = (-1 if w < 0 else 1) * (-1 if m.group(3) else 1)
        return c_name(sig.letter_code(m.group(1)), abs(w), pw)
    m = _P_RE.fullmatch(tok)
    if m:
        i, j = (sig.gen_code("x", int(g)) for g in m.group(1, 2))
        return p_name(i, j, -1 if m.group(3) else 1)
    m = _I_RE.fullmatch(tok)
    if m:
        return i_name(sig.gen_code("x", int(m.group(1))), -1 if m.group(2) else 1)
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
