"""Finite-rank abelian invariants of the kernel.

Everything here works in the abelianized free group, an integer lattice
with one coordinate per generator code, and in its exterior square.  The
maps computed:

    act_hom      k x n matrix recording how a kernel element pushes the
                 x-coordinates into the y-block
    johnson_*    per-boundary-letter values: a wedge class for the full
                 map, a y-block vector at a z-letter, an (x,z)-block
                 vector at a y-letter
    abelianization_rank
                 exact integer rank of the stacked generator images

The maps read f.sig and the signed rows f.fwd, never a Word; wedge_class
is the one Word edge.  Each public call checks kernel membership once,
then reads its blocks through shared unchecked readers over letters.

No floating point anywhere; ranks come from fraction-free elimination.
"""

from __future__ import annotations

from .freegroup import Signature, Word
from .freegroup import abelianize as ab_vector
from .automorphism import ClaimFailedError, NamedAut, is_in_kernel
from .automorphism import _cached_gen_aut, _conjugated, _times_inverse
from .presentation import s_k_symbols


# ---------------------------------------------------------------------------
# lattice helpers


def _exponents(letters, block):
    """The exponent sum in a letter tuple of each code of block."""
    return tuple(letters.count(g) - letters.count(-g) for g in block)


def ab_matrix(f: NamedAut):
    """Matrix of the abelianized action, rows and columns by code - 1."""
    gens = f.sig.gens()
    return tuple(zip(*(_exponents(f.fwd[c], gens) for c in gens)))


# ---------------------------------------------------------------------------
# the exterior square


class WedgeElement:
    """Integer combination of e_i ^ e_j basis elements, keys i < j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            if i == j:
                raise ValueError("wedge of a generator with itself")
            if i > j:
                i, j, c = j, i, -c
            if c:
                clean[(i, j)] = clean.get((i, j), 0) + c
        self.coeffs = {k: v for k, v in clean.items() if v}

    def __eq__(self, other):
        return isinstance(other, WedgeElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return WedgeElement(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return WedgeElement(out)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "WedgeElement(0)"
        parts = [f"{c}*e{i}^e{j}" for (i, j), c in sorted(self.coeffs.items())]
        return "WedgeElement(" + " + ".join(parts) + ")"

    def flatten(self, ngens):
        """Coefficient vector over all pairs i < j in lexicographic order."""
        return tuple(
            self.coeffs.get((i, j), 0)
            for i in range(1, ngens + 1)
            for j in range(i + 1, ngens + 1)
        )


def wedge_class(u: Word):
    """Class of a zero-exponent-sum word in the exterior square.

    One left-to-right scan: a letter g^e at a point where the running
    exponent-sum of a later-coded generator q is p[q] contributes
    e * p[q] to the (g, q) coefficient.  For a commutator [g, h] this
    yields the class of h-bar wedge g-bar, which is the orientation the
    per-generator values downstream rely on.
    """
    if any(c != 0 for c in ab_vector(u)):
        raise ValueError("word has nonzero exponent sums")
    return _wedge(u.letters, u.sig.ngens)


def _wedge(letters, ngens):
    """wedge_class's scan over a letter tuple, with no exponent check."""
    prefix = [0] * (ngens + 1)
    coeffs = {}
    for g in letters:
        base = abs(g)
        e = 1 if g > 0 else -1
        for q in range(base + 1, ngens + 1):
            if prefix[q]:
                key = (base, q)
                coeffs[key] = coeffs.get(key, 0) + e * prefix[q]
        prefix[base] += e
    return WedgeElement(coeffs)


# ---------------------------------------------------------------------------
# the homomorphisms


def _require_kernel(f):
    if not is_in_kernel(f):
        raise ValueError("automorphism is not in the kernel")


def _act_rows(f):
    sig = f.sig
    cols = [_exponents(f.fwd[x], sig.y_gens()) for x in sig.x_gens()]
    return tuple(tuple(v[i] for v in cols) for i in range(sig.k))


def _wedge_at(f, c):
    """Wedge class of f(c) c^-1 at a boundary letter c.  Its callers have
    checked that f is in the kernel, which sends each boundary letter to a
    conjugate of itself, so f(c) c^-1 has zero exponent sums unchecked."""
    return _wedge(_times_inverse(f, c), f.sig.ngens)


def _conjugator(f, c, block):
    """Exponents over block of the word u with f(c) = u c u^-1."""
    row = f.fwd[c]
    n = _conjugated(row, c)
    if n is None:
        raise ClaimFailedError(f"image of letter {c} is not a conjugate of it")
    return _exponents(row[:n], block)


def act_hom(f: NamedAut):
    """k x n matrix: row per y-generator, column per x-generator."""
    _require_kernel(f)
    return _act_rows(f)


def johnson_class(f: NamedAut, c: int) -> WedgeElement:
    """Wedge class of f(c) c^-1 at a boundary letter c (a positive code)."""
    _require_kernel(f)
    if c < 0 or f.sig.klass(c) not in ("y", "z"):
        raise ValueError("boundary letter expected")
    return _wedge_at(f, c)


def johnson_full(f: NamedAut):
    """Per-boundary-letter wedge classes; a homomorphism only when n = 0."""
    if f.sig.n != 0:
        raise ValueError("defined as a homomorphism only with no x-generators")
    _require_kernel(f)
    return {c: _wedge_at(f, c) for c in f.sig.gens()}


def johnson_z(f: NamedAut, c: int):
    """y-block exponent vector of the word conjugating a z-letter."""
    _require_kernel(f)
    if c < 0 or f.sig.klass(c) != "z":
        raise ValueError("z-generator expected")
    return _conjugator(f, c, f.sig.y_gens())


def johnson_y(f: NamedAut, c: int):
    """(x,z)-block exponent vector of the word conjugating a y-letter."""
    _require_kernel(f)
    if c < 0 or f.sig.klass(c) != "y":
        raise ValueError("y-generator expected")
    return _conjugator(f, c, f.sig.xz_gens())


# ---------------------------------------------------------------------------
# exact rank


def int_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("rows differ in length")
    m = [r for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(m):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                if piv is None or abs(m[r][col]) < abs(m[piv][col]):
                    piv = r
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                q = m[r][col]
                m[r] = [p * a - q * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def image_blocks(sig: Signature):
    """The blocks of generator_image_row with x's, in order: the label, the
    letters with a row each and the letters a row counts.  A holds the
    act_hom rows, J' johnson_y at each y and J johnson_z at each z."""
    return (
        ("A", sig.y_gens(), sig.x_gens()),
        ("J'", sig.y_gens(), sig.xz_gens()),
        ("J", sig.z_gens(), sig.y_gens()),
    )


def generator_image_row(f: NamedAut):
    """Image of a kernel element in the stacked abelian target: with x's,
    the image_blocks in order; without, the flattened johnson_full classes."""
    _require_kernel(f)
    sig = f.sig
    if sig.n == 0:
        return tuple(v for c in sig.gens() for v in _wedge_at(f, c).flatten(sig.ngens))
    _, *conjugators = image_blocks(sig)
    row = [v for r in _act_rows(f) for v in r]
    for _, letters, block in conjugators:
        for c in letters:
            row.extend(_conjugator(f, c, block))
    return tuple(row)


def abelianization_rank(sig: Signature) -> int:
    """Exact rank of the span of the generator images."""
    if sig.k < 1:
        raise ValueError("needs at least one y-generator")
    images = (generator_image_row(_cached_gen_aut(sig, s)) for s in s_k_symbols(sig))
    return int_rank(images)


def closed_form_rank(sig: Signature) -> int:
    """The closed-form rank: 2kl + k(k-1) without x's, else 2kn + 2kl."""
    if sig.n == 0:
        return 2 * sig.k * sig.l + sig.k * (sig.k - 1)
    return 2 * sig.k * sig.n + 2 * sig.k * sig.l
