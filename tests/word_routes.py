"""The Word routes of membership, of the Johnson maps and of the lattice
projection: the references the signed-row versions in the package are
checked against.

Each one reads an automorphism through apply (image) and the word
functions of freegroup (is_conjugate, cyclic_reduce, delete_y, multiply,
gen_word), not through the signed rows.  The membership, abelianization
and cochain tests read these helpers; the package does not.  The module
also holds wedge_single and wedge_push, the two exterior-square maps that
only tests use, and random_kernel, the seeded sampler of kernel elements.
"""

from autfb import (
    FormalSum,
    NotInAutFBError,
    WedgeElement,
    abelianize,
    apply,
    compose,
    cyclic_reduce,
    delete_y,
    gen_aut,
    gen_word,
    identity,
    inverse,
    is_conjugate,
    multiply,
    s_k_symbols,
    wedge_class,
)


def image(f, c):
    """The Word f(c) of one (possibly negative) letter code."""
    return apply(f, gen_word(f.sig, c))


def random_kernel(sig, rng, length):
    """A product of length S_K generators, each drawn from rng at a random
    power, composed onto the identity."""
    pool = s_k_symbols(sig)
    f = identity(sig)
    for _ in range(length):
        g = gen_aut(sig, rng.choice(pool))
        f = compose(f, g if rng.randrange(2) else inverse(g))
    return f


def is_in_autfb(f):
    """Every y and z letter's image is conjugate to it, by a rotation scan."""
    return all(is_conjugate(image(f, c), gen_word(f.sig, c)) for c in f.sig.yz_gens())


def is_in_kernel(f):
    """Deleting the y letters from each x and z image gives the letter back."""
    if not is_in_autfb(f):
        raise NotInAutFBError("not a boundary-preserving automorphism")
    return all(delete_y(image(f, c)).letters == (c,) for c in f.sig.xz_gens())


def _require_kernel(f):
    if not is_in_kernel(f):
        raise ValueError("automorphism is not in the kernel")


def ab_matrix(f):
    """Matrix of the abelianized action, from the abelianized image words."""
    n = f.sig.ngens
    cols = [abelianize(image(f, c)) for c in f.sig.gens()]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def act_hom(f):
    """k x n matrix: the y-block of each abelianized x image, transposed."""
    _require_kernel(f)
    sig = f.sig
    cols = [abelianize(image(f, x)) for x in sig.x_gens()]
    return tuple(tuple(v[y - 1] for v in cols) for y in sig.y_gens())


def johnson_class(f, c):
    """wedge_class of the Word f(c) c^-1 at a boundary letter c."""
    _require_kernel(f)
    return wedge_class(multiply(image(f, c), gen_word(f.sig, -c)))


def johnson_full(f):
    """johnson_class at every letter of a signature with no x's."""
    return {c: johnson_class(f, c) for c in f.sig.gens()}


def generator_image_row(f):
    """With x's, the act_hom rows, johnson_y at each y and johnson_z at
    each z; without, the flattened johnson_full classes."""
    sig = f.sig
    if sig.n == 0:
        return tuple(v for w in johnson_full(f).values() for v in w.flatten(sig.ngens))
    row = [v for r in act_hom(f) for v in r]
    for c in sig.y_gens():
        row.extend(johnson_y(f, c))
    for c in sig.z_gens():
        row.extend(johnson_z(f, c))
    return tuple(row)


def _conjugator(f, c, block):
    """Exponents over block of the conjugator cyclic_reduce splits off f(c)."""
    _require_kernel(f)
    core, conj = cyclic_reduce(image(f, c))
    assert core.letters == (c,), "a kernel element conjugates each boundary letter"
    v = abelianize(conj)
    return tuple(v[g - 1] for g in block)


def johnson_y(f, c):
    """(x,z)-block exponent vector of the word conjugating a y-letter."""
    return _conjugator(f, c, f.sig.xz_gens())


def johnson_z(f, c):
    """y-block exponent vector of the word conjugating a z-letter."""
    return _conjugator(f, c, f.sig.y_gens())


def ny_project(ctx, u):
    """delete_y refuses a word with a y-free part, then one scan by letter
    class: non-y letters move the lattice prefix, the chosen y counts."""
    if delete_y(u):
        raise ValueError("word survives deleting the y-generators")
    sig = ctx.sig
    prefix = [0] * len(ctx.order)
    terms = {}
    for g in u.letters:
        e = 1 if g > 0 else -1
        if sig.is_y(g):
            if abs(g) == ctx.y:
                v = tuple(prefix)
                terms[v] = terms.get(v, 0) + e
        else:
            prefix[ctx.order.index(abs(g))] += e
    return FormalSum(terms)


def i_b(ctx, f):
    """ny_project of f(b) b^-1, built as Words, for a kernel element f."""
    _require_kernel(f)
    return ny_project(ctx, multiply(image(f, ctx.b), gen_word(ctx.sig, -ctx.b)))


def wedge_single(i, j, c=1):
    """c times the basis element e_i ^ e_j."""
    return WedgeElement({(i, j): c})


def wedge_push(matrix, w):
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
