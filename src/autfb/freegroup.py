"""Exact word arithmetic in the free group F(n,k,l).

The group is free on three blocks of generators

    x_1, ..., x_n    (interior letters)
    y_1, ..., y_k    (letters killed by the boundary projection)
    z_1, ..., z_l    (boundary letters)

A letter is a nonzero integer: codes 1..n are the x's, n+1..n+k the y's,
n+k+1..n+k+l the z's, and a negative code is the inverse of the positive
one.  A Word wraps a tuple of letters that is always freely reduced, so
equality of group elements is plain tuple equality.  Signature.letter_code,
the inverse of letter_name, is the one letter grammar: parse_word, the
spelling parser and the command line all read letters through it.

Conventions used throughout the package: conjugation is
conjugate(u, w) = w u w^-1, and commutator(u, v) = u v u^-1 v^-1.

>>> sig = Signature(1, 1, 1)
>>> u = parse_word(sig, "x1 y1 x1^-1")
>>> format_word(u)
'x1 y1 x1^-1'
>>> format_word(multiply(u, invert(u)))
''
>>> abelianize(u)
(0, 1, 0)
>>> format_word(delete_y(u))
''
"""

from __future__ import annotations

import re
from collections import namedtuple

_LETTER_RE = re.compile(r"([xyz])([1-9][0-9]*)(\^-?1)?")


class Signature(namedtuple("Signature", "n k l")):
    """Generator counts (n, k, l); fixes the global letter coding."""

    __slots__ = ()

    def __new__(cls, n, k, l):
        if n < 0 or k < 0 or l < 0:
            raise ValueError("generator counts must be non-negative")
        if n + k + l == 0:
            raise ValueError("at least one generator is required")
        return super().__new__(cls, n, k, l)

    @property
    def ngens(self):
        return self.n + self.k + self.l

    def gens(self):
        """All positive letter codes, in the fixed x < y < z order."""
        return range(1, self.ngens + 1)

    def x_gens(self):
        return range(1, self.n + 1)

    def y_gens(self):
        return range(self.n + 1, self.n + self.k + 1)

    def z_gens(self):
        return range(self.n + self.k + 1, self.ngens + 1)

    def xz_gens(self):
        """The x's then the z's: the letters that survive deleting y."""
        return [*self.x_gens(), *self.z_gens()]

    def yz_gens(self):
        """The y's then the z's: the letters whose classes are fixed."""
        return [*self.y_gens(), *self.z_gens()]

    def klass(self, code):
        """'x', 'y' or 'z' for a letter code (sign ignored)."""
        i = abs(code)
        if not 1 <= i <= self.ngens:
            raise ValueError(f"letter code {code} out of range for {self}")
        if i <= self.n:
            return "x"
        if i <= self.n + self.k:
            return "y"
        return "z"

    def is_y(self, code):
        return self.n < abs(code) <= self.n + self.k

    def gen_code(self, klass, index):
        """Letter code of x_index / y_index / z_index (1-based)."""
        if klass == "x":
            bound, base = self.n, 0
        elif klass == "y":
            bound, base = self.k, self.n
        elif klass == "z":
            bound, base = self.l, self.n + self.k
        else:
            raise ValueError(f"unknown generator class {klass!r}")
        if not 1 <= index <= bound:
            raise ValueError(f"{klass}{index} out of range for {self}")
        return base + index

    def letter_name(self, code):
        """Text form of a letter, e.g. 'x2' or 'z1^-1'."""
        klass = self.klass(code)
        i = abs(code)
        if klass == "y":
            i -= self.n
        elif klass == "z":
            i -= self.n + self.k
        return f"{klass}{i}" + ("^-1" if code < 0 else "")

    def letter_code(self, text):
        """Inverse of letter_name, and the one letter grammar: reads 'x2',
        'z1^-1' and 'x1^1'; any other exponent, and an index with a leading
        zero or a non-ASCII digit, is an error."""
        m = _LETTER_RE.fullmatch(text)
        if not m:
            raise ValueError(f"expected a generator like x1 or z2, got {text!r}")
        klass, index, exp = m.groups()
        code = self.gen_code(klass, int(index))
        return -code if exp == "^-1" else code


class Word:
    """A freely reduced word; immutable and hashable.

    Use reduce()/parse_word() to build one; the constructor trusts its input
    only when told to via _reduced.
    """

    __slots__ = ("sig", "letters")

    def __init__(self, sig, letters, _reduced=False):
        if _reduced:
            lets = tuple(letters)
        else:
            _check_letters(sig, letters)
            lets = _free_reduce(letters)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "letters", lets)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.sig == other.sig
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.sig, self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other):
        return multiply(self, other)

    def __invert__(self):
        return invert(self)

    def __repr__(self):
        return f"Word({format_word(self) or '1'})"


def _check_letters(sig, letters):
    for c in letters:
        if c == 0 or not abs(c) <= sig.ngens:
            raise ValueError(f"letter code {c} out of range for {sig}")


def _free_reduce(letters):
    """Cancel adjacent inverse pairs of letters already known to be valid."""
    stack = []
    for c in letters:
        if stack and stack[-1] == -c:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def reduce(sig, raw):
    """Freely reduce a raw letter sequence into a Word."""
    return Word(sig, raw)


def gen_word(sig, code):
    """The one-letter word for a (possibly negative) letter code."""
    _check_letters(sig, (code,))
    return Word(sig, (code,), _reduced=True)


def _same_sig(u, v):
    if u.sig != v.sig:
        raise ValueError(f"signature mismatch: {u.sig} vs {v.sig}")


def multiply(u, v):
    """Product u v, reduced.  Only the junction needs cancelling."""
    _same_sig(u, v)
    a = list(u.letters)
    b = v.letters
    i = 0
    while a and i < len(b) and a[-1] == -b[i]:
        a.pop()
        i += 1
    a.extend(b[i:])
    return Word(u.sig, tuple(a), _reduced=True)


def invert(u):
    return Word(u.sig, tuple(-c for c in reversed(u.letters)), _reduced=True)


def conjugate(u, w):
    """w u w^-1 (the convention u^w)."""
    return multiply(w, multiply(u, invert(w)))


def commutator(u, v):
    """u v u^-1 v^-1."""
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def cyclic_reduce(u):
    """Split u = conjugator * core * conjugator^-1 with core cyclically reduced."""
    lets = u.letters
    lo, hi = 0, len(lets)
    while hi - lo >= 2 and lets[lo] == -lets[hi - 1]:
        lo += 1
        hi -= 1
    core = Word(u.sig, lets[lo:hi], _reduced=True)
    conj = Word(u.sig, lets[:lo], _reduced=True)
    return core, conj


def is_conjugate(u, v):
    """Conjugacy test: cyclic reduction, then rotation matching."""
    _same_sig(u, v)
    cu, _ = cyclic_reduce(u)
    cv, _ = cyclic_reduce(v)
    if len(cu) != len(cv):
        return False
    a, b = cu.letters, cv.letters
    if not a:
        return True
    # Cyclically reduced conjugates are exactly the rotations of one another;
    # doubling b turns the rotation test into a window scan.
    n = len(a)
    bb = b + b
    return any(bb[i : i + n] == a for i in range(n))


def abelianize(u):
    """Exponent-sum vector over all n+k+l generators, as a tuple."""
    coords = [0] * u.sig.ngens
    for c in u.letters:
        coords[abs(c) - 1] += 1 if c > 0 else -1
    return tuple(coords)


def _y_free(sig, letters):
    """The reduced tuple of letters with every y letter deleted."""
    return _free_reduce(c for c in letters if not sig.is_y(c))


def delete_y(u):
    """Kill every y letter, then reduce; the boundary projection."""
    return Word(u.sig, _y_free(u.sig, u.letters), _reduced=True)


def parse_word(sig, text):
    """Parse the word grammar: whitespace-separated `x1`, `y2^-1`, ...

    The empty string is the identity.  Exponents other than +-1 are
    rejected; write powers as repeated tokens.
    """
    return Word(sig, [sig.letter_code(tok) for tok in text.split()])


def format_word(u):
    """Inverse of parse_word; the identity prints as ''."""
    return " ".join(u.sig.letter_name(c) for c in u.letters)
