"""Automorphisms of F(n,k,l) as generator-image tables with named spellings.

The named generators:

    M[v^e,w]   multiplies v:  v -> w v   (e = +1)  or  v -> v w^-1  (e = -1)
    C[v,w]     conjugates v:  v -> w v w^-1
    P[i,j]     swaps x_i and x_j
    I[i]       inverts x_i

Automorphisms act on the left and compose right-to-left, so in a spelling
the leftmost name is applied last.  A NamedAut always carries both its
image table and the image table of its inverse, as signed rows; inversion
just swaps the tables and reverses the spelling, and never solves
equations.

gen_aut builds both tables of a named generator by one rule, _gen_images,
at the name and at name.inv(); that rule is also the one check of a name
against a signature.  Spelling tokens read letters by Signature.letter_code.

Equality of automorphisms is extensional (image tables), not spelling
equality; that is what makes a relation a pair of spellings with equal
images.

_cached_gen_aut is the one source of a named generator's automorphism:
spelling_aut, presentation's _trivial and _Moves, the rank rows and the
cocycle witnesses all read it, and it keeps the 4,096 most recently used
(signature, name).  parse_spelling parses each distinct token of one
spelling once, and keeps nothing between calls.

NamedAut(sig, spelling, fwd, bwd) is the package's one row constructor:
it takes signed rows (_signed: each row beside its inverse) as they are,
unchecked, so the package does not export it.  Callers build values with
gen_aut, parse_aut and from_images, the one route from Word tables, which
it converts and checks.
_substitute over signed rows is the one substitution kernel, for compose,
apply, from_images and every table of presentation.  Words appear only at
the edges: from_images, the images and inv_images views, and apply (the
image of one letter c is apply(f, gen_word(sig, c))).  The membership
tests here and the Johnson maps and cochains above read the rows, through
two readers: _conjugated splits a row u c u^-1, and _times_inverse gives
the letters of f(c) c^-1.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import NamedTuple

from .freegroup import Word, _check_letters, _same_sig, _y_free


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
    """The checks every constructor shares: power +-1, positive indices.
    The tuple is built directly, as in base and inv."""
    if power not in (1, -1):
        raise ValueError("power must be +-1")
    if min(indices) <= 0:
        raise ValueError("generator codes must be positive")
    return tuple.__new__(GenName, (kind, v, e, w, power))


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
    """An automorphism f of F(n,k,l): spelling plus both image tables.

    fwd and bwd are the signed rows (_signed) of f and f^-1, taken as they
    are, unchecked: fwd[c] is the letter tuple of f(c), fwd[-c] its
    inverse.  Only the package calls this constructor; from outside, use
    gen_aut or from_images.  images
    and inv_images are Word views of the rows.  The key is built on its
    first read and kept in _key.
    """

    __slots__ = ("sig", "spelling", "fwd", "bwd", "_key")

    def __init__(self, sig, spelling, fwd, bwd):
        self.sig, self.spelling, self.fwd, self.bwd, self._key = sig, spelling, fwd, bwd, None

    images = property(lambda self: _views(self.sig, self.fwd))
    inv_images = property(lambda self: _views(self.sig, self.bwd))

    def key(self):
        """Hashable identity: the image table, one tuple per automorphism."""
        key = self._key
        if key is None:
            key = self._key = (self.sig, self.fwd[1 : self.sig.ngens + 1])
        return key

    def __eq__(self, other):
        return isinstance(other, NamedAut) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"NamedAut({format_spelling(self.sig, self.spelling) or '1'})"


def _views(sig, rows):
    return tuple(Word(sig, row, _reduced=True) for row in rows[1 : sig.ngens + 1])


def identity(sig):
    rows = _signed([(c,) for c in sig.gens()])
    return NamedAut(sig, (), rows, rows)


def _gen_images(sig, name):
    """The signed rows (_signed) of one named generator at its power: the
    one rule for every kind, and the one check of a name.  Each branch
    passes the fields to the kind's constructor, which checks a hand-built
    GenName, and then the codes are checked against the signature.

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
    _check_letters(sig, [d for row in moved.values() for d in row])
    rows = [(c,) for c in sig.gens()]
    for c, row in moved.items():
        rows[c - 1] = row
    return _signed(rows)


def gen_aut(sig, name):
    """Realize one GenName (with its power) as a NamedAut; both tables
    come from _gen_images, at name and at name.inv()."""
    return NamedAut(sig, (name,), _gen_images(sig, name), _gen_images(sig, name.inv()))


def from_images(sig, images, inv_images):
    """The one constructor from Word tables, with an empty spelling.

    The pair of tables is checked to be one word of sig per generator and
    mutually inverse before the value is released; an unchecked table is
    never allowed to circulate.
    """
    images, inv_images = tuple(images), tuple(inv_images)
    if not len(images) == len(inv_images) == sig.ngens:
        raise ValueError(f"image tables need {sig.ngens} words each")
    if any(w.sig != sig for w in images + inv_images):
        raise ValueError(f"signature mismatch: an image word is not of {sig}")
    fwd, bwd = (_signed([w.letters for w in table]) for table in (images, inv_images))
    for c in sig.gens():
        if _substitute(fwd, bwd[c]) != (c,) or _substitute(bwd, fwd[c]) != (c,):
            raise ValueError("image tables are not mutually inverse")
    return NamedAut(sig, (), fwd, bwd)


def _inverted(row):
    return tuple(map(operator.neg, reversed(row)))


def _signed(rows):
    """A substitution indexed by signed code: sub[c] is rows[c - 1] and
    sub[-c] (index 2m + 1 - c) is its inverse, inverted once here, so a
    substitution never inverts and its letters are the table's own ints.
    rows are reduced letter tuples."""
    return ((), *rows, *map(_inverted, reversed(rows)))


def _substitute(sub, letters):
    """The reduced tuple of sub[c] over the letters c of a word.

    Two reduced images can cancel only at their junction, so each image is
    cancelled against the tail of the output and then spliced in whole.
    """
    out = []
    for c in letters:
        img = sub[c]
        if out and img and out[-1] == -img[0]:
            out.pop()
            k = 1
            while out and k < len(img) and out[-1] == -img[k]:
                out.pop()
                k += 1
            out.extend(img[k:])
        else:
            out.extend(img)
    return tuple(out)


def apply(f, u):
    """f(u); a homomorphism in u (the image of a negative letter is the
    inverse of the image of the positive one)."""
    _same_sig(f, u)
    return Word(u.sig, _substitute(f.fwd, u.letters), _reduced=True)


def _after(sub, rows):
    """sub's automorphism after rows' one, as signed rows; see compose."""
    out = list(rows)
    for c in range(1, len(rows) // 2 + 1):
        row = rows[c]
        if len(row) == 1:
            d = row[0]
            out[c], out[-c] = sub[d], sub[-d]
            continue
        for d in row:
            if sub[d] != (d,):
                img = out[c] = _substitute(sub, row)
                out[-c] = _inverted(img)
                break
    return tuple(out)


def compose(f, g):
    """f after g: (f compose g)(s) = f(g(s)).

    f.fwd is substituted into each row of g.fwd, and g.bwd into each row
    of f.bwd.  Two kinds of row are reused instead of substituted, and both
    reuses are exact: a row that is one letter d substitutes to the rows d
    and -d of the table, and a row whose letters the table all fixes to
    itself and its own inverse row.  When g is an elementary move, every
    row of g but the moved ones is of the first kind, and only the rows of
    f.bwd that hold a moved letter are substituted.
    """
    _same_sig(f, g)
    return NamedAut(f.sig, f.spelling + g.spelling, _after(f.fwd, g.fwd), _after(g.bwd, f.bwd))


def inverse(f):
    """Swap the tables, reverse the spelling, flip each power."""
    spelling = tuple(name.inv() for name in reversed(f.spelling))
    return NamedAut(f.sig, spelling, f.bwd, f.fwd)


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
    first generator as compose does, over the rows alone; one NamedAut is
    built at the end.  The empty spelling is the identity."""
    spelling = tuple(spelling)
    if not spelling:
        return identity(sig)
    first, *rest = (_cached_gen_aut(sig, name) for name in spelling)
    fwd, bwd = first.fwd, first.bwd
    for g in rest:
        fwd, bwd = _after(fwd, g.fwd), _after(g.bwd, bwd)
    return NamedAut(sig, spelling, fwd, bwd)


def _conjugated(row, c):
    """len(u) when the reduced row is u c u^-1, else None: the row is a
    conjugate of c exactly when its cyclic core is (c,), so no rotation
    scan is needed."""
    lo, hi = 0, len(row) - 1
    while lo < hi and row[lo] == -row[hi]:
        lo += 1
        hi -= 1
    return lo if lo == hi and row[lo] == c else None


def _times_inverse(f, c):
    """The reduced letters of f(c) c^-1, read from the row f.fwd[c]: c^-1
    cancels the row's last letter or is appended."""
    row = f.fwd[c]
    return row[:-1] if row[-1:] == (c,) else (*row, -c)


def is_in_autfb(f):
    """Does f fix the conjugacy class of every y and z generator?"""
    for c in f.sig.yz_gens():
        if _conjugated(f.fwd[c], c) is None:
            return False
    return True


def is_in_autfb_prime(f):
    """Does f fix every y and z generator on the nose?"""
    for c in f.sig.yz_gens():
        if f.fwd[c] != (c,):
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
    for c in sig.xz_gens():
        if _y_free(sig, f.fwd[c]) != (c,):
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
    """The names of a spelling's tokens; a repeated token is parsed once."""
    toks = text.split()
    names = {tok: parse_name(sig, tok) for tok in dict.fromkeys(toks)}
    return tuple(names[tok] for tok in toks)


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
