"""Support and multiplier bookkeeping: the oracle of the disjoint-support
fixing rule.

A symbol word s_word over S_K and a word t_word over S_Q whose supports and
multipliers are disjoint (disjointness_conditions) must be fixed by the
action: action_extend(sig, t_word, s_word) == s_word.  admissible picks the
letters such words are drawn from.  The acceptance sweep and the presentation tests read
these helpers; the package does not.
"""


def support_letter(name):
    """Signed letter codes a symbol moves; independent of its power."""
    if name.kind == "M":
        return frozenset({name.v * name.e})
    if name.kind == "C":
        return frozenset({name.v, -name.v})
    if name.kind == "P":
        return frozenset({name.v, -name.v, name.w, -name.w})
    if name.kind == "I":
        return frozenset({name.v, -name.v})
    raise ValueError(f"unknown kind {name.kind!r}")


def mult_letter(name):
    """Letter codes a symbol multiplies or conjugates by."""
    if name.kind in ("M", "C"):
        return frozenset({name.w})
    if name.kind == "P":
        return frozenset({name.v, name.w})
    if name.kind == "I":
        return frozenset({name.v})
    raise ValueError(f"unknown kind {name.kind!r}")


def support(w):
    out = set()
    for s in w:
        out |= support_letter(s)
    return frozenset(out)


def mult_set(w):
    out = set()
    for s in w:
        out |= mult_letter(s)
    return frozenset(out)


def disjointness_conditions(s_word, t_word):
    """The three conditions under which the action must fix s_word."""
    ss, st = support(s_word), support(t_word)
    ms = {c for m in mult_set(s_word) for c in (m, -m)}
    mt = {c for m in mult_set(t_word) for c in (m, -m)}
    return not (ss & st) and not (ss & mt) and not (st & ms)


def admissible(name, allowed):
    """Whether every letter name moves or multiplies by lies in allowed."""
    pool = set(support_letter(name)) | {c for m in mult_letter(name) for c in (m, -m)}
    return all(abs(c) in allowed for c in pool)
