"""A finite-quotient oracle: automorphisms of F(n,k,l) as permutations of
Hom(F, G) for a finite group G, S_3 or A_4.

An automorphism f moves each homomorphism phi: F -> G to phi o f, and
(phi o f)(x_c) is the product of phi over the letters of f's row
fwd[c]; so a generator's permutation is read from its rows, and no word
is ever reduced.  A spelling s_1 ... s_m is s_1 o ... o s_m (leftmost
applied last), so a point is moved by s_1 first.  Equal automorphisms
give equal permutations: two spellings that move some point to different
places are different automorphisms.  The converse fails, so a pass is a
necessary condition only.

The tests hold three kinds of claim to it: a relation instance (holds,
its two sides), an action table entry (holds, t s t^-1 against the
entry's row) and an expanded relator (trivial, against the identity).
Since it never reduces a word, it is independent of the substitution
kernel that builds the rows and relators.  It decides each claim on its
own, so it shares nothing with the decider's one decision per relabeling
class either.
"""

from itertools import combinations, permutations, product

from autfb import gen_aut

S3 = list(permutations(range(3)))
# The even permutations of four points, the 12 elements of A_4.
A4 = [p for p in permutations(range(4)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0]


class Group:
    """A group of permutations as indices into elements: one is the
    identity, mul[a][b] is a o b and inv[a] is a^-1."""

    def __init__(self, elements):
        self.one = elements.index(tuple(range(len(elements[0]))))
        self.mul = [[elements.index(tuple(a[i] for i in b)) for b in elements] for a in elements]
        self.inv = [row.index(self.one) for row in self.mul]


class FiniteQuotient:
    """The |G|^(n+k+l) homomorphisms F -> G of one signature, G = S_3
    unless another list of permutations is given, and the permutation of
    them by each generator name, built on its first use."""

    def __init__(self, sig, elements=S3):
        self.sig = sig
        self.group = Group(elements)
        self.points = list(product(range(len(elements)), repeat=sig.ngens))
        self.index = {phi: i for i, phi in enumerate(self.points)}
        self.perms = {}

    def _value(self, phi, row):
        """phi of the word row: the product of phi over its letters."""
        g = self.group
        value = g.one
        for c in row:
            value = g.mul[value][phi[c - 1] if c > 0 else g.inv[phi[-c - 1]]]
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

    def trivial(self, spelling):
        """Whether the spelling fixes every point."""
        return self.spelled(spelling) == list(range(len(self.points)))
