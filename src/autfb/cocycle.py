"""Averaged cocycles on the kernel and the evaluation pairing.

The stage: fix one y-generator and two distinct non-y generators a, b.
Words that die under delete_y project to finite integer combinations of
basis symbols y^v, one per point v of the (x, z) exponent lattice; the
projection of f(s) s^-1 is the invariant I_s(f).  On the subgroup L of
kernel elements fixing the chosen y exactly up to conjugation depth zero
(jprime_y = 0), picking off the coefficient at the lattice point rA gives
a functional alpha_r, whose lattice translates combine into the averaged
cochain zeta_r.  Everything is exact integer arithmetic; all the infinite
sums collapse to finite ones over explicitly computed supports.

Conventions recorded in PairingContext: the section sigma multiplies the
conjugation generators in the fixed order x_1 ... x_n z_1 ... z_l, and
each element's invariant I_b is computed once and cached on the context,
keyed by the automorphism's key (NamedAut.key, its image table, built
once per automorphism), so two equal tables share one entry.  I_b is
_project, the one projection kernel, which ny_project and i_s share,
over the letters of f(b) b^-1 that automorphism._times_inverse reads
from the signed row f.fwd[b]; no Word is built on the way.  The context
also keeps the sections sigma(x) and the points rA (PairingContext.r_a)
that alpha, kappa_eval, zeta_eval and pairing read.  Each of these three
caches keeps at most _CACHE_ENTRIES entries, dropping the oldest first.
Every lattice translate is read off that one sum (see _i_b), so zeta_r
and the pairing are finite correlations of invariants; the pairing's two
witness sums are taken once per context.
Generators come from automorphism._cached_gen_aut.
"""

from __future__ import annotations

import operator

from .freegroup import Signature, Word, _same_sig
from .automorphism import (
    ClaimFailedError,
    NamedAut,
    _cached_gen_aut,
    _times_inverse,
    c_name,
    compose,
    identity,
    inverse,
    is_in_autfb_prime,
    m_name,
    power,
)
from .abelianization import _require_kernel, johnson_y


# The cap on each PairingContext cache, as on automorphism._cached_gen_aut;
# the benchmark's cocycle workload holds about 550 twist entries.
_CACHE_ENTRIES = 4096


def _remember(cache, key, value):
    """cache[key] = value, first dropping the oldest entries that would
    take the cache past _CACHE_ENTRIES; returns value."""
    while cache and len(cache) >= _CACHE_ENTRIES:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


class FormalSum:
    """Finite integer combination of lattice basis symbols y^v."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {v: c for v, c in (terms or {}).items() if c}

    @classmethod
    def point(cls, v, c=1):
        return cls({tuple(v): c})

    def coeff(self, v):
        """The coefficient of y^v.  A point whose length differs from that
        of the terms' points raises ValueError; an empty sum has no rank,
        so it reads 0 at every point."""
        v = tuple(v)
        c = self.terms.get(v)
        if c is not None:
            return c
        if self.terms and len(v) != len(next(iter(self.terms))):
            raise ValueError(f"cannot read the point {v} in a sum over points of another length")
        return 0

    def support(self):
        return frozenset(self.terms)

    def shifted(self, d):
        d = tuple(d)
        out = {}
        for v, c in self.terms.items():
            if len(v) != len(d):
                raise ValueError(f"cannot shift the point {v} by {d}: lengths differ")
            out[tuple(map(operator.add, v, d))] = c
        return FormalSum(out)

    def __add__(self, other):
        _same_rank(self.terms, other.terms)
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out.get(v, 0) + c
        return FormalSum(out)

    def __sub__(self, other):
        _same_rank(self.terms, other.terms)
        return FormalSum(_minus(self.terms, other.terms))

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "FormalSum(0)"
        parts = [f"{c}*y^{v}" for v, c in sorted(self.terms.items())]
        return "FormalSum(" + " + ".join(parts) + ")"


def _same_rank(p, q):
    """Refuse two non-empty term maps whose points differ in length."""
    if p and q and len(next(iter(p))) != len(next(iter(q))):
        raise ValueError("cannot combine sums over points of different lengths")


def _minus(p, q):
    """The terms of p - q, for term maps that hold no zero coefficient."""
    out = dict(p)
    for v, c in q.items():
        c = out.get(v, 0) - c
        if c:
            out[v] = c
        else:
            del out[v]
    return out


class PairingContext:
    """Chosen y, distinguished lattice directions A and B, and caches."""

    def __init__(self, sig: Signature, y: int, a: int, b: int):
        if sig.k < 1:
            raise ValueError("needs at least one y-generator")
        if sig.n + sig.l < 2:
            raise ValueError("needs at least two non-y generators")
        if min(y, a, b) <= 0:
            raise ValueError("generator codes must be positive")
        if sig.klass(y) != "y":
            raise ValueError(f"{y} is not a y-generator code")
        for g in (a, b):
            if sig.klass(g) == "y":
                raise ValueError(f"{g} is not an x- or z-generator code")
        if a == b:
            raise ValueError("the two distinguished generators must differ")
        self.sig = sig
        self.y = y
        self.a = a
        self.b = b
        self.order = tuple(sig.xz_gens())
        self._index = {g: i for i, g in enumerate(self.order)}
        # Each signed non-y letter's lattice coordinate and step, for _project.
        self._steps = {e * g: (i, e) for g, i in self._index.items() for e in (1, -1)}
        self.A = self.unit(a)
        self.B = self.unit(b)
        self._sigma_cache = {}
        self._twist_cache = {}
        self._points = {}
        self._witness_sums = None

    def _slot(self, g):
        """The lattice coordinate of the x- or z-generator code g."""
        i = self._index.get(g)
        if i is None:
            raise ValueError(f"{g} is not an x- or z-generator code")
        return i

    def unit(self, g, c=1):
        v = [0] * len(self.order)
        v[self._slot(g)] = c
        return tuple(v)

    @property
    def zero(self):
        return (0,) * len(self.order)

    def scale(self, r, v):
        return tuple(r * c for c in v)

    def r_a(self, r):
        """The lattice point rA, kept in _points."""
        v = self._points.get(r)
        if v is None:
            v = _remember(self._points, r, self.scale(r, self.A))
        return v

    def point(self, x):
        """x as a lattice point; one of the wrong length is refused."""
        x = tuple(x)
        if len(x) != len(self.order):
            raise ValueError(f"lattice point {x} needs {len(self.order)} coordinates")
        return x


def _project(ctx, letters):
    """The one projection kernel, over a sequence of letter codes.

    One scan: non-y letters advance the running lattice prefix and are
    freely reduced on a stack, each occurrence of the chosen y contributes
    its sign at the current prefix, and the remaining y-generators
    contribute nothing.  A sequence whose y-free part does not reduce to
    the identity is refused.
    """
    steps = ctx._steps
    y = ctx.y
    prefix = [0] * len(ctx.order)
    kept = []
    terms = {}
    for g in letters:
        step = steps.get(g)
        if step is None:
            if g == y or g == -y:
                v = tuple(prefix)
                terms[v] = terms.get(v, 0) + (1 if g > 0 else -1)
            continue
        if kept and kept[-1] == -g:
            kept.pop()
        else:
            kept.append(g)
        i, e = step
        prefix[i] += e
    if kept:
        raise ValueError("word survives deleting the y-generators")
    return FormalSum(terms)


def ny_project(ctx: PairingContext, u: Word) -> FormalSum:
    """Project a word with trivial y-free part onto the y^v basis."""
    _same_sig(u, ctx)
    return _project(ctx, u.letters)


def i_s(ctx: PairingContext, f: NamedAut, s: int) -> FormalSum:
    """Projection of f(s) s^-1; s ranges over the x- and z-generators."""
    _same_sig(f, ctx)
    _require_kernel(f)
    ctx._slot(s)
    return _project(ctx, _times_inverse(f, s))


def jprime_y(ctx: PairingContext, f: NamedAut):
    """Lattice point recording how f conjugates the chosen y."""
    _same_sig(f, ctx)
    return johnson_y(f, ctx.y)


def is_in_l(ctx: PairingContext, f: NamedAut) -> bool:
    return jprime_y(ctx, f) == ctx.zero


def sigma(ctx: PairingContext, x) -> NamedAut:
    """Section of jprime_y: the ordered product of C[y,s]^{x_s}."""
    x = tuple(x)
    cached = ctx._sigma_cache.get(x)
    if cached is None:
        ctx.point(x)
        acc = identity(ctx.sig)
        for g, exp in zip(ctx.order, x):
            if exp:
                acc = compose(acc, power(_cached_gen_aut(ctx.sig, c_name(ctx.y, g)), exp))
        cached = _remember(ctx._sigma_cache, x, acc)
    return cached


def hat(ctx: PairingContext, g: NamedAut) -> NamedAut:
    """The section applied to g's own jprime_y value."""
    return sigma(ctx, jprime_y(ctx, g))


def _require_l(ctx, f):
    if not is_in_l(ctx, f):
        raise ValueError("automorphism moves the chosen y-generator")


def _i_b(ctx: PairingContext, f: NamedAut) -> FormalSum:
    """I_b(f), computed once per image table and cached on the context.

    Every lattice translate reads off this one sum by the transport
    identity I_b(sigma(x) f sigma(x)^-1) = I_b(f).shifted(x), which holds
    for every kernel f: sigma(x) fixes b and conjugates the chosen y by a
    y-free word with abelianization x, so each chosen-y letter of
    f(b) b^-1 moves from lattice point p to p + x.
    """
    key = f.key()
    cached = ctx._twist_cache.get(key)
    if cached is None:
        _same_sig(f, ctx)
        _require_kernel(f)
        cached = _remember(ctx._twist_cache, key, _project(ctx, _times_inverse(f, ctx.b)))
    return cached


def _corr(p, q, d) -> int:
    """The finite correlation of two term maps: sum over v of p[v] * q[v - d]."""
    total = 0
    for v, c in p.items():
        e = q.get(tuple(map(operator.sub, v, d)))
        if e:
            total += c * e
    return total


def alpha(ctx: PairingContext, r: int, f: NamedAut) -> int:
    """Coefficient at the lattice point rA of the b-invariant."""
    _require_l(ctx, f)
    return _i_b(ctx, f).coeff(ctx.r_a(r))


def alpha_twisted(ctx: PairingContext, x, r: int, f: NamedAut) -> int:
    """The lattice translate of alpha: evaluate on the sigma(x) transport."""
    _require_l(ctx, f)
    return _i_b(ctx, f).coeff(tuple(map(operator.sub, ctx.r_a(r), ctx.point(x))))


def support_of_twist(ctx: PairingContext, r: int, f: NamedAut):
    """The finitely many x with a chance of a nonzero twisted value."""
    _require_l(ctx, f)
    rA = ctx.r_a(r)
    return frozenset(
        tuple(p - q for p, q in zip(rA, v)) for v in _i_b(ctx, f).support()
    )


def kappa_eval(ctx: PairingContext, r: int, g0, g1, g2) -> int:
    """Difference-product cochain, arguments dropped into L by hats: the
    difference I_b(d1) - I_b(d0) at rA times I_b(d2) - I_b(d1) at 0.

    The drop d of g composes g with hat(g)^-1, which fixes b, so
    I_b(d) = I_b(g), and each factor is read from the three invariants.
    """
    i0, i1, i2 = (_i_b(ctx, g).terms for g in (g0, g1, g2))
    rA, zero = ctx.r_a(r), ctx.zero
    return (i1.get(rA, 0) - i0.get(rA, 0)) * (i2.get(zero, 0) - i1.get(zero, 0))


def zeta_eval(ctx: PairingContext, r: int, g0, g1, g2) -> int:
    """Sum of all lattice translates of kappa, a finite correlation.

    The translate at x multiplies the first difference at rA - x by the
    second at -x; summing over x is the correlation at offset rA: the sum
    over v of p[v] (I_b(g2) - I_b(g1))[v - rA], with p = I_b(g1) - I_b(g0)
    taken once and the second difference read point by point.
    """
    i0, i1, i2 = (_i_b(ctx, g).terms for g in (g0, g1, g2))
    d = ctx.r_a(r)
    total = 0
    for v, c in _minus(i1, i0).items():
        u = tuple(map(operator.sub, v, d))
        total += c * (i2.get(u, 0) - i1.get(u, 0))
    return total


def mu_witnesses(ctx: PairingContext, m: int):
    """The commuting pair (f_m, g) generating the m-th abelian cycle.

    f_0 is C[b,y] itself.  C[y,a]^m is sigma(mA), cached on the context,
    and C[y,a]^-m is its inverse, the same two tables swapped, so once
    sigma(mA) is cached the pair costs three composes.
    """
    cby = _cached_gen_aut(ctx.sig, c_name(ctx.b, ctx.y))
    g = compose(_cached_gen_aut(ctx.sig, c_name(ctx.a, ctx.y)), cby)
    if m == 0:
        return cby, g
    cya_m = sigma(ctx, ctx.unit(ctx.a, m))
    return compose(compose(cya_m, cby), inverse(cya_m)), g


def pairing(ctx: PairingContext, r: int, m: int) -> int:
    """Evaluation of the r-th averaged class on the m-th abelian cycle.

    Summed over x, the f_m-translate at rA times the g-translate at 0,
    minus the same with f_m and g swapped: two correlations at rA.
    f_m is f_0 conjugated by sigma(mA), so I_b(f_m) is P = I_b(f_0)
    shifted by mA (see _i_b).  With Q = I_b(g), folding that shift into
    the offsets gives corr(P, Q, (r-m)A) - corr(Q, P, (r+m)A).  P and Q
    are taken once per context, after both witnesses are checked in L.
    """
    if r < 1 or m < 1:
        raise ValueError("both indices must be positive")
    if ctx._witness_sums is None:
        f_0, g = mu_witnesses(ctx, 0)
        for f in (f_0, g):
            _require_l(ctx, f)
        ctx._witness_sums = (_i_b(ctx, f_0).terms, _i_b(ctx, g).terms)
    p, q = ctx._witness_sums
    return _corr(p, q, ctx.r_a(r - m)) - _corr(q, p, ctx.r_a(r + m))


def independence_witness(ctx: PairingContext, m: int, s: int, t: int):
    """The conjugated multiplier h_m and its s-invariant, one basis point.

    h_m multiplies s by a y conjugated t-deep; its invariant is the single
    basis symbol at m times the t-direction, so distinct m give
    independent images.  h_m is p M[s,y] p^-1 with p = C[y,t]^m, and its
    right factor is inverse(p), p's tables swapped, so one power is taken.
    """
    sig = ctx.sig
    if sig.klass(s) != "x":
        raise ValueError("the multiplied generator must be an x-generator")
    if t not in ctx._index:
        raise ValueError("the conjugating generator must be an x- or z-generator")
    if s == t:
        raise ValueError("the two generators must differ")
    if m < 0:
        raise ValueError("nonnegative power expected")
    cyt = _cached_gen_aut(sig, c_name(ctx.y, t))
    move = _cached_gen_aut(sig, m_name(s, 1, ctx.y))
    p = power(cyt, m)
    h_m = compose(compose(p, move), inverse(p))
    if not is_in_autfb_prime(h_m):
        raise ClaimFailedError("witness fails to fix the boundary letters")
    value = i_s(ctx, h_m, s)
    expected = FormalSum.point(ctx.unit(t, m))
    if value != expected:
        raise ClaimFailedError("witness invariant is not the expected basis point")
    return h_m, value
