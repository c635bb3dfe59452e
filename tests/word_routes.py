"""The Word routes of membership, of the Johnson maps at a boundary letter
and of the lattice projection: the references the signed-row versions in
the package are checked against.

Each one reads an automorphism through its Word views (image) and the
word functions of freegroup (is_conjugate, cyclic_reduce, delete_y,
multiply), not through the signed rows.  The membership, abelianization
and cochain tests read these helpers; the package does not.
"""

from autfb import (
    FormalSum,
    NotInAutFBError,
    abelianize,
    cyclic_reduce,
    delete_y,
    gen_word,
    is_conjugate,
    multiply,
)


def is_in_autfb(f):
    """Every y and z letter's image is conjugate to it, by a rotation scan."""
    return all(is_conjugate(f.image(c), gen_word(f.sig, c)) for c in f.sig.yz_gens())


def is_in_kernel(f):
    """Deleting the y letters from each x and z image gives the letter back."""
    if not is_in_autfb(f):
        raise NotInAutFBError("not a boundary-preserving automorphism")
    return all(delete_y(f.image(c)).letters == (c,) for c in f.sig.xz_gens())


def _conjugator(f, c, block):
    """Exponents over block of the conjugator cyclic_reduce splits off f(c)."""
    if not is_in_kernel(f):
        raise ValueError("automorphism is not in the kernel")
    core, conj = cyclic_reduce(f.image(c))
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
    if not is_in_kernel(f):
        raise ValueError("automorphism is not in the kernel")
    return ny_project(ctx, multiply(f.image(ctx.b), gen_word(ctx.sig, -ctx.b)))
