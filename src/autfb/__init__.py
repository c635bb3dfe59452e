"""Exact symbolic computation in the automorphism group of a free group
with distinguished boundary letters, and in the kernel of its action on
the boundary.

The layers, bottom up:

    freegroup       words, reduction, conjugacy, abelianization
    automorphism    named generators, composition, membership tests
    presentation    relation tables, the rewriting action, expansion
    abelianization  homology action, per-letter homomorphisms, ranks
    cocycle         lattice projections, averaged cocycles, the pairing

Everything is integer-exact and deterministic; the `autfb` console script
exposes the verification suites.
"""

from .freegroup import (
    Signature,
    Word,
    abelianize,
    commutator,
    conjugate,
    cyclic_reduce,
    delete_y,
    format_word,
    gen_word,
    invert,
    is_conjugate,
    multiply,
    parse_word,
    reduce,
)
from .automorphism import (
    ClaimFailedError,
    GenName,
    NotInAutFBError,
    apply,
    c_name,
    compose,
    format_name,
    format_spelling,
    from_images,
    gen_aut,
    i_name,
    identity,
    inverse,
    is_in_autfb,
    is_in_autfb_prime,
    is_in_kernel,
    m_name,
    p_name,
    parse_aut,
    parse_name,
    parse_spelling,
    power,
    spelling_aut,
)
from .presentation import (
    RelationInstance,
    Report,
    action_extend,
    action_f,
    enumerate_relations,
    eval_symbol_word,
    lpres_expand,
    lpres_expand_proved,
    s_k_symbols,
    s_n_symbols,
    s_q_symbols,
    sym_inv,
    sym_mul,
    sym_reduce,
    table5_rows,
    verify_action_consistency,
    verify_relations,
    verify_table5,
)
from .abelianization import (
    WedgeElement,
    ab_matrix,
    ab_vector,
    abelianization_rank,
    act_hom,
    int_rank,
    johnson_class,
    johnson_full,
    johnson_y,
    johnson_z,
    closed_form_rank,
    wedge_class,
)
from .cocycle import (
    FormalSum,
    PairingContext,
    alpha,
    alpha_twisted,
    hat,
    i_s,
    is_in_l,
    jprime_y,
    kappa_eval,
    mu_witnesses,
    ny_project,
    pairing,
    sigma,
    support_of_twist,
    independence_witness,
    zeta_eval,
)

__version__ = "0.1.0"
