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

No floating point anywhere; ranks come from fraction-free elimination.
"""

from __future__ import annotations

from .freegroup import Signature, Word, cyclic_reduce, gen_word, invert, multiply
from .freegroup import abelianize as ab_vector
from .automorphism import NamedAut, apply, is_in_kernel
from .presentation import s_k_symbols


# ---------------------------------------------------------------------------
# lattice helpers


def ab_matrix(sig: Signature, f: NamedAut):
    """Matrix of the abelianized action, rows and columns by code - 1."""
    n = sig.ngens
    cols = [ab_vector(apply(f, gen_word(sig, c))) for c in sig.gens()]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


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


def wedge_single(i, j, c=1):
    return WedgeElement({(i, j): c})


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
    ngens = u.sig.ngens
    prefix = [0] * (ngens + 1)
    coeffs = {}
    for g in u.letters:
        base = abs(g)
        e = 1 if g > 0 else -1
        for q in range(base + 1, ngens + 1):
            if prefix[q]:
                key = (base, q)
                coeffs[key] = coeffs.get(key, 0) + e * prefix[q]
        prefix[base] += e
    return WedgeElement(coeffs)


def wedge_push(matrix, w: WedgeElement):
    """Induced map of an abelianized action on the exterior square."""
    out = {}
    ngens = len(matrix)
    for (i, j), c in w.coeffs.items():
        col_i = [matrix[p][i - 1] for p in range(ngens)]
        col_j = [matrix[p][j - 1] for p in range(ngens)]
        for p in range(ngens):
            if not col_i[p]:
                continue
            for q in range(ngens):
                if p == q or not col_j[q]:
                    continue
                a, b, cc = p + 1, q + 1, c * col_i[p] * col_j[q]
                if a > b:
                    a, b, cc = b, a, -cc
                out[(a, b)] = out.get((a, b), 0) + cc
    return WedgeElement(out)


# ---------------------------------------------------------------------------
# the homomorphisms


def _require_kernel(f):
    if not is_in_kernel(f):
        raise ValueError("automorphism is not in the kernel")


def act_hom(sig: Signature, f: NamedAut):
    """k x n matrix: row per y-generator, column per x-generator."""
    _require_kernel(f)
    rows = list(sig.y_gens())
    out = []
    for y in rows:
        out.append([0] * sig.n)
    for idx, x in enumerate(sig.x_gens()):
        v = ab_vector(apply(f, gen_word(sig, x)))
        for r, y in enumerate(rows):
            out[r][idx] = v[y - 1]
    return tuple(tuple(r) for r in out)


def johnson_class(sig: Signature, f: NamedAut, c: int) -> WedgeElement:
    """Wedge class of f(c) c^-1 at a boundary letter c."""
    _require_kernel(f)
    if sig.klass(c) not in ("y", "z"):
        raise ValueError("boundary letter expected")
    u = multiply(apply(f, gen_word(sig, c)), invert(gen_word(sig, c)))
    return wedge_class(u)


def johnson_full(sig: Signature, f: NamedAut):
    """Per-boundary-letter wedge classes; a homomorphism only when n = 0."""
    if sig.n != 0:
        raise ValueError("defined as a homomorphism only with no x-generators")
    _require_kernel(f)
    return {c: johnson_class(sig, f, c) for c in sig.gens()}


def _conjugating_word(sig, f, c):
    img = apply(f, gen_word(sig, c))
    core, conj = cyclic_reduce(img)
    if core != gen_word(sig, c):
        raise AssertionError(f"image of letter {c} is not a conjugate of it")
    return conj


def johnson_z(sig: Signature, f: NamedAut, c: int):
    """y-block exponent vector of the word conjugating a z-letter."""
    _require_kernel(f)
    if sig.klass(c) != "z":
        raise ValueError("z-generator expected")
    v = ab_vector(_conjugating_word(sig, f, c))
    return tuple(v[y - 1] for y in sig.y_gens())


def johnson_y(sig: Signature, f: NamedAut, c: int):
    """(x,z)-block exponent vector of the word conjugating a y-letter."""
    _require_kernel(f)
    if sig.klass(c) != "y":
        raise ValueError("y-generator expected")
    v = ab_vector(_conjugating_word(sig, f, c))
    codes = list(sig.x_gens()) + list(sig.z_gens())
    return tuple(v[g - 1] for g in codes)


# ---------------------------------------------------------------------------
# exact rank


def int_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
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


def generator_image_row(sig: Signature, f: NamedAut):
    """Image of a kernel element in the stacked abelian target."""
    row = []
    if sig.n == 0:
        full = johnson_full(sig, f)
        for c in sig.gens():
            row.extend(full[c].flatten(sig.ngens))
    else:
        for r in act_hom(sig, f):
            row.extend(r)
        for c in sig.y_gens():
            row.extend(johnson_y(sig, f, c))
        for c in sig.z_gens():
            row.extend(johnson_z(sig, f, c))
    return tuple(row)


def abelianization_rank(sig: Signature) -> int:
    """Exact rank of the span of the generator images."""
    if sig.k < 1:
        raise ValueError("needs at least one y-generator")
    from .presentation import _cached_gen_aut

    rows = [
        generator_image_row(sig, _cached_gen_aut(sig, s)) for s in s_k_symbols(sig)
    ]
    return int_rank(rows)


def closed_form_rank(sig: Signature) -> int:
    """The closed-form rank: 2kl + k(k-1) without x's, else 2kn + 2kl."""
    if sig.n == 0:
        return 2 * sig.k * sig.l + sig.k * (sig.k - 1)
    return 2 * sig.k * sig.n + 2 * sig.k * sig.l
