"""Abelianized invariants: wedge classes, per-letter maps, exact ranks."""

import random
from fractions import Fraction

import pytest

import word_routes
from autfb import (
    Signature,
    WedgeElement,
    ab_matrix,
    ab_vector,
    abelianization_rank,
    act_hom,
    apply,
    c_name,
    commutator,
    compose,
    cyclic_reduce,
    gen_aut,
    gen_word,
    identity,
    int_rank,
    inverse,
    invert,
    multiply,
    parse_aut,
    johnson_class,
    johnson_full,
    johnson_y,
    johnson_z,
    m_name,
    s_k_symbols,
    closed_form_rank,
    wedge_class,
    parse_word,
)
import autfb
from autfb import abelianization, automorphism, cli, cocycle, freegroup, presentation
from word_routes import random_kernel, wedge_push, wedge_single

S022 = Signature(0, 2, 2)
S111 = Signature(1, 1, 1)
S222 = Signature(2, 2, 2)


# ---------------------------------------------------------------------------
# lattice and exterior-square plumbing


def test_ab_vector_counts_signed_occurrences():
    u = parse_word(S222, "x1 y1 x1^-1 z2 y1 x2^-1")
    assert ab_vector(u) == (0, -1, 2, 0, 0, 1)
    assert ab_vector(parse_word(S222, "")) == (0, 0, 0, 0, 0, 0)


def test_ab_matrix_of_a_multiplier_move():
    m = ab_matrix(gen_aut(S222, m_name(1, 1, 3)))
    assert m[2][0] == 1  # y1 row picks up the x1 column
    ident = tuple(
        tuple(int(i == j) for j in range(6)) for i in range(6)
    )
    assert ab_matrix(identity(S222)) == ident


def test_wedge_element_canonical_form():
    assert WedgeElement({(2, 1): 3}) == WedgeElement({(1, 2): -3})
    assert WedgeElement({(1, 2): 1, (2, 1): 1}) == WedgeElement()
    assert not WedgeElement({(1, 3): 0})
    with pytest.raises(ValueError):
        WedgeElement({(2, 2): 1})
    w = wedge_single(1, 3) + wedge_single(2, 3, 2)
    assert w.flatten(3) == (0, 1, 2)
    assert (w - w) == WedgeElement()


def test_wedge_class_orientation():
    y1 = parse_word(S022, "y1")
    y2 = parse_word(S022, "y2")
    got = wedge_class(commutator(y1, y2))
    assert got == wedge_single(1, 2, -1)
    assert wedge_class(commutator(y2, y1)) == wedge_single(1, 2)
    with pytest.raises(ValueError):
        wedge_class(parse_word(S022, "y1 y2"))


def test_wedge_push_matrices():
    ident = ((1, 0), (0, 1))
    swap = ((0, 1), (1, 0))
    w = wedge_single(1, 2, 5)
    assert wedge_push(ident, w) == w
    assert wedge_push(swap, w) == wedge_single(1, 2, -5)


# ---------------------------------------------------------------------------
# the per-letter homomorphisms


def test_act_hom_picks_out_the_multiplier_entry():
    for e in (1, -1):
        got = act_hom(gen_aut(S222, m_name(1, e, 3)))
        assert got == ((e, 0), (0, 0))
    assert act_hom(gen_aut(S222, c_name(5, 3))) == ((0, 0), (0, 0))
    with pytest.raises(ValueError):
        act_hom(gen_aut(S222, m_name(1, 1, 5)))  # z multiplier: not in the kernel


def test_johnson_full_needs_no_x_letters():
    with pytest.raises(ValueError):
        johnson_full(gen_aut(S222, c_name(5, 3)))


def test_boundary_conjugation_bullets_without_x_generators():
    # y1=1 y2=2 z1=3 z2=4
    full = johnson_full(gen_aut(S022, c_name(1, 2)))
    assert full == {
        1: wedge_single(1, 2),
        2: WedgeElement(),
        3: WedgeElement(),
        4: WedgeElement(),
    }
    for name in s_k_symbols(S022):
        v, w = name.v, name.w
        full = johnson_full(gen_aut(S022, name))
        for c in S022.gens():
            expect = wedge_single(v, w) if c == v else WedgeElement()
            assert full[c] == expect, (name, c)


def test_boundary_conjugation_bullets_with_x_generators():
    zero_m = ((0, 0), (0, 0))
    zeros_y = (0, 0, 0, 0)
    zeros_z = (0, 0)
    for name in s_k_symbols(S222):
        f = gen_aut(S222, name)
        a = act_hom(f)
        jy = {c: johnson_y(f, c) for c in S222.y_gens()}
        jz = {c: johnson_z(f, c) for c in S222.z_gens()}
        if name.kind == "M":
            expect = [[0, 0], [0, 0]]
            expect[name.w - 3][name.v - 1] = name.e
            assert a == tuple(tuple(r) for r in expect)
            assert all(v == zeros_y for v in jy.values())
            assert all(v == zeros_z for v in jz.values())
        elif S222.klass(name.v) == "z":
            # conjugating a z-letter by a y-letter
            assert a == zero_m
            assert all(v == zeros_y for v in jy.values())
            expect = [0, 0]
            expect[name.w - 3] = 1
            assert jz[name.v] == tuple(expect)
            assert all(v == zeros_z for c, v in jz.items() if c != name.v)
        elif S222.klass(name.w) in ("x", "z"):
            # conjugating a y-letter by a non-y letter
            assert a == zero_m
            assert all(v == zeros_z for v in jz.values())
            cols = [1, 2, 5, 6]
            expect = [0, 0, 0, 0]
            expect[cols.index(name.w)] = 1
            assert jy[name.v] == tuple(expect)
            assert all(v == zeros_y for c, v in jy.items() if c != name.v)


# A kernel element at (1,1,1): its class at z1 = 3 is -e2^e3, and the
# readers refuse the negative codes -3 and -2 rather than drop the sign.
F111 = "C[z1,y1] M[x1^+1,y1]"


def test_johnson_class_refuses_a_negative_code():
    f = parse_aut(S111, F111)
    assert johnson_class(f, 3) == wedge_single(2, 3, -1)
    with pytest.raises(ValueError, match="boundary letter expected"):
        johnson_class(f, -3)


def test_johnson_y_refuses_a_negative_code():
    f = parse_aut(S111, F111)
    assert johnson_y(f, 2) == (0, 0)
    with pytest.raises(ValueError, match="y-generator expected"):
        johnson_y(f, -2)


def test_johnson_z_refuses_a_negative_code():
    f = parse_aut(S111, F111)
    assert johnson_z(f, 3) == (1,)
    with pytest.raises(ValueError, match="z-generator expected"):
        johnson_z(f, -3)


def test_johnson_argument_validation():
    f = gen_aut(S222, c_name(5, 3))
    with pytest.raises(ValueError):
        johnson_z(f, 3)  # y-letter passed to the z map
    with pytest.raises(ValueError):
        johnson_y(f, 5)
    with pytest.raises(ValueError):
        johnson_class(f, 1)  # x is not a boundary letter
    with pytest.raises(ValueError):
        johnson_class(gen_aut(S222, m_name(1, 1, 5)), 3)


def test_boundary_class_twisted_additivity():
    rng = random.Random(7)
    for _ in range(120):
        f = random_kernel(S222, rng, rng.randrange(1, 5))
        g = random_kernel(S222, rng, rng.randrange(1, 5))
        m = ab_matrix(f)
        for c in (3, 4, 5, 6):
            lhs = johnson_class(compose(f, g), c)
            rhs = johnson_class(f, c) + wedge_push(m, johnson_class(g, c))
            assert lhs == rhs


def test_act_hom_is_additive():
    rng = random.Random(8)
    for _ in range(120):
        f = random_kernel(S222, rng, rng.randrange(1, 5))
        g = random_kernel(S222, rng, rng.randrange(1, 5))
        got = act_hom(compose(f, g))
        fa, ga = act_hom(f), act_hom(g)
        assert got == tuple(
            tuple(x + y for x, y in zip(r, s)) for r, s in zip(fa, ga)
        )


@pytest.mark.parametrize("sig", [S222, S022], ids=["S222", "S022"])
def test_johnson_y_z_match_the_cyclic_reduce_route(sig):
    """The row scan's conjugator equals the one cyclic_reduce splits off
    the Word image, at every y and z letter of random kernel elements."""
    rng = random.Random(11)
    for _ in range(80):
        f = random_kernel(sig, rng, rng.randrange(1, 6))
        for c in sig.y_gens():
            assert johnson_y(f, c) == word_routes.johnson_y(f, c)
        for c in sig.z_gens():
            assert johnson_z(f, c) == word_routes.johnson_z(f, c)


@pytest.mark.parametrize(
    "sig", [S222, S022, Signature(3, 1, 1)], ids=["S222", "S022", "S311"]
)
def test_row_readers_match_the_word_routes(sig):
    """ab_matrix, act_hom, johnson_class, johnson_full and the rank row read
    the signed rows; each equals its Word route on random kernel elements,
    and the rank row is as long as its image_blocks."""
    rng = random.Random(12)
    for _ in range(60):
        f = random_kernel(sig, rng, rng.randrange(1, 6))
        assert ab_matrix(f) == word_routes.ab_matrix(f)
        assert act_hom(f) == word_routes.act_hom(f)
        for c in sig.yz_gens():
            assert johnson_class(f, c) == word_routes.johnson_class(f, c)
        row = abelianization.generator_image_row(f)
        assert row == word_routes.generator_image_row(f)
        if sig.n == 0:
            assert johnson_full(f) == word_routes.johnson_full(f)
        else:
            blocks = abelianization.image_blocks(sig)
            assert len(row) == sum(len(rows) * len(cols) for _, rows, cols in blocks)


def test_boundary_class_matches_the_conjugating_word():
    rng = random.Random(9)
    for _ in range(80):
        f = random_kernel(S222, rng, rng.randrange(1, 5))
        for c in (3, 4, 5, 6):
            u = multiply(
                apply(f, gen_word(S222, c)), invert(gen_word(S222, c))
            )
            core, conj = cyclic_reduce(apply(f, gen_word(S222, c)))
            assert core == gen_word(S222, c)
            v = ab_vector(conj)
            expect = WedgeElement(
                {(c, q): v[q - 1] for q in S222.gens() if q != c and v[q - 1]}
            )
            assert johnson_class(f, c) == expect
            assert wedge_class(u) == expect


# ---------------------------------------------------------------------------
# exact rank


def _frac_rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_int_rank_edge_cases():
    assert int_rank([]) == 0
    assert int_rank([(0, 0), (0, 0)]) == 0
    assert int_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert int_rank([(2, 4), (3, 6)]) == 1
    # rows of different lengths are refused, zero rows included
    for rows in ([(2, 4), (1, 2, 3)], [(1, 2, 3), (2, 4)], [(0, 0), (1, 2, 3)]):
        with pytest.raises(ValueError):
            int_rank(rows)


def test_int_rank_against_rational_elimination():
    rng = random.Random(10)
    for _ in range(250):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 8)
        rows = [
            tuple(rng.randrange(-3, 4) for _ in range(ncols))
            for _ in range(nrows)
        ]
        assert int_rank(rows) == _frac_rank(rows)


def test_rank_worked_instances():
    assert abelianization_rank(Signature(0, 2, 1)) == 6
    assert abelianization_rank(Signature(1, 1, 1)) == 4
    assert abelianization_rank(Signature(2, 1, 0)) == 4
    assert abelianization_rank(S022) == 10
    with pytest.raises(ValueError):
        abelianization_rank(Signature(2, 0, 2))


def test_rank_closed_form():
    assert closed_form_rank(Signature(0, 2, 2)) == 10
    assert closed_form_rank(Signature(0, 3, 0)) == 6
    assert closed_form_rank(Signature(2, 1, 3)) == 10
    for sig in (Signature(0, 1, 1), Signature(1, 2, 0), Signature(2, 2, 2)):
        assert abelianization_rank(sig) == closed_form_rank(sig)


def test_rank_rows_read_the_stored_generator_images(monkeypatch):
    """With the generator cache warm, every rank row reads the generator
    _cached_gen_aut already holds: no module calls gen_aut again."""
    abelianization_rank(S222)
    calls = []

    def counted(sig, name):
        calls.append(name)
        return gen_aut(sig, name)

    patched = 0
    for mod in (autfb, freegroup, automorphism, presentation, abelianization, cocycle, cli):
        for attr, value in list(vars(mod).items()):
            if value is gen_aut:
                monkeypatch.setattr(mod, attr, counted)
                patched += 1
    assert patched >= 2  # automorphism's own binding and autfb's re-export
    assert abelianization_rank(S222) == closed_form_rank(S222)
    assert calls == []


def test_each_rank_row_and_johnson_full_check_the_kernel_once(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return automorphism.is_in_kernel(f)

    monkeypatch.setattr(abelianization, "is_in_kernel", counted)
    sigs = [Signature(*t) for t in ((1, 1, 2), (3, 1, 1), (2, 2, 2), (3, 2, 2), (2, 3, 2))]
    for sig in sigs:
        assert abelianization_rank(sig) == closed_form_rank(sig)
    assert len(calls) == sum(len(s_k_symbols(sig)) for sig in sigs) == 104
    calls.clear()
    johnson_full(gen_aut(S022, c_name(1, 2)))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# redundancy of the remaining conjugation moves


def _comm_aut(f, g):
    return compose(compose(f, g), compose(inverse(f), inverse(g)))


def test_split_multiplier_pair_is_a_commutator():
    m = gen_aut(S222, m_name(1, 1, 3))
    mi = gen_aut(S222, m_name(1, -1, 3))
    c = gen_aut(S222, c_name(3, 1))
    assert compose(m, mi) == _comm_aut(m, c)
    assert compose(m, mi) != _comm_aut(c, m)


def test_y_by_y_conjugation_is_a_commutator():
    lhs = gen_aut(S222, c_name(3, 4))
    rhs = _comm_aut(inverse(gen_aut(S222, c_name(3, 1))), gen_aut(S222, m_name(1, 1, 4)))
    assert lhs == rhs
    assert lhs != _comm_aut(gen_aut(S222, m_name(1, 1, 4)), inverse(gen_aut(S222, c_name(3, 1))))
