"""A finite-quotient oracle: automorphisms of F(n,k,l) as permutations of
Hom(F, S_3).

An automorphism f moves each homomorphism phi: F -> S_3 to phi o f, and
(phi o f)(x_c) is the product of phi over the letters of f's row
fwd[c]; so a generator's permutation is read from its rows, and no word
is ever reduced.  A spelling s_1 ... s_m is s_1 o ... o s_m (leftmost
applied last), so a point is moved by s_1 first.  Equal automorphisms
give equal permutations: two spellings that move some point to different
places are different automorphisms.  The converse fails, so a pass is a
necessary condition only.
"""

from itertools import permutations, product

from autfb import gen_aut

S3 = list(permutations(range(3)))
# As S3 indices: ONE is the identity, MUL[a][b] is a o b and INV[a] is a^-1.
ONE = S3.index((0, 1, 2))
MUL = [[S3.index(tuple(a[i] for i in b)) for b in S3] for a in S3]
INV = [row.index(ONE) for row in MUL]


class FiniteQuotient:
    """The 6^(n+k+l) homomorphisms F -> S_3 of one signature, and the
    permutation of them by each generator name, built on its first use."""

    def __init__(self, sig):
        self.sig = sig
        self.points = list(product(range(len(S3)), repeat=sig.ngens))
        self.index = {phi: i for i, phi in enumerate(self.points)}
        self.perms = {}

    def _value(self, phi, row):
        """phi of the word row: the product of phi over its letters."""
        value = ONE
        for c in row:
            value = MUL[value][phi[c - 1] if c > 0 else INV[phi[-c - 1]]]
        return value

    def perm(self, name):
        """point i goes to perm(name)[i] under the generator name."""
        if name not in self.perms:
            fwd = gen_aut(self.sig, name).fwd
            self.perms[name] = [
                self.index[tuple(self._value(phi, fwd[c]) for c in self.sig.gens())]
                for phi in self.points
            ]
        return self.perms[name]

    def spelled(self, spelling):
        """The permutation of a spelling: point i goes to the returned [i]."""
        moved = list(range(len(self.points)))
        for name in spelling:
            perm = self.perm(name)
            moved = [perm[i] for i in moved]
        return moved

    def holds(self, lhs, rhs):
        """Whether the spellings lhs and rhs permute the points alike."""
        return self.spelled(lhs) == self.spelled(rhs)
