"""The per-word expansion, the dense action table and the full scan of a
generator's moved rows: the references that presentation._lpres_expand,
presentation._action_table and presentation._Moves are checked against.

None reuses any work or skips a row.  Every row of every S_Q letter is
reduced and inverted, every relator of every S_Q word is substituted,
also where the letter fixes it or where another word of the same first
letter and length substituted the same relator, and every row of a
generator is compared with the identity.  The expansion and substitution
tests read these helpers; the package does not.
"""

import autfb.presentation as presentation
from autfb import s_k_symbols, s_q_symbols
from autfb.automorphism import _cached_gen_aut, _inverted, _signed, _substitute
from autfb.freegroup import _free_reduce


def dense_action_table(sig, letters):
    """{t: the signed rows of t}, each row _action_word freely reduced."""
    alpha = presentation._alphabet(sig)
    return {
        t: _signed(
            [_free_reduce(presentation._action_word(sig, alpha.letter[t], s)) for s in alpha.s_k]
        )
        for t in letters
    }


def meeting_pairs(sig):
    """The number of (S_Q letter at either power, S_K symbol) pairs whose
    fields share a nonzero code: the pairs a letter can move."""
    return 2 * sum(
        bool(({t.v, t.w} - {0}) & {s.v, s.w}) for t in s_q_symbols(sig) for s in s_k_symbols(sig)
    )


def full_scan_moves(sig, code):
    """The (c, row) of every row 1..n that code's generator does not fix."""
    fwd = _cached_gen_aut(sig, presentation._alphabet(sig).letter[code]).fwd
    return tuple((c, fwd[c]) for c in sig.gens() if fwd[c] != (c,))


def seeds(sig):
    """The rk relations written as lhs rhs^-1, as S_K codes."""
    return [_free_reduce(i.lhs + _inverted(i.rhs)) for i in presentation._relations("rk", sig)]


def relators_by_word(sig, depth):
    """Yield (w, the relators of w) for each S_Q word w of length <= depth,
    in _sq_words order: the seeds for the empty word, and for w = t w'
    t's dense rows substituted into every relator of w'."""
    table = dense_action_table(sig, presentation._sq_codes(sig))
    stored = {}
    for w in presentation._sq_words(sig, depth):
        rels = [_substitute(table[w[0]], r) for r in stored[w[1:]]] if w else seeds(sig)
        if len(w) < depth:
            stored[w] = rels
        yield w, rels


def expand_per_word(sig, depth):
    """Every word's relators, deduplicated in first-seen order."""
    return list(dict.fromkeys(r for _, rels in relators_by_word(sig, depth) for r in rels))
