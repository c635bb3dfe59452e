"""Spans and counts at the public boundaries of each autfb layer.

Installed only in a traced child, from outside the package: each wrapped
function is rebound under every name that holds it in the autfb modules,
because `from .x import y` makes a separate binding (compose is bound in
automorphism, presentation and cocycle).  Calls inside one module go
through that module's globals, so they pass the wrapper too.

Each span records its name, start, end and parent in flat arrays; counts
are taken in the same wrappers.  After the run the spans are reduced to
per-layer metrics: a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array

# The public functions wrapped in each layer.  Private helpers stay inside
# the self time of the public function that calls them.
LAYERS = {
    "freegroup": (
        "multiply",
        "invert",
        "conjugate",
        "commutator",
        "cyclic_reduce",
        "is_conjugate",
        "abelianize",
        "delete_y",
        "gen_word",
        "reduce",
        "parse_word",
        "format_word",
    ),
    "automorphism": (
        "identity",
        "compose",
        "apply",
        "inverse",
        "power",
        "gen_aut",
        "spelling_aut",
        "from_images",
        "is_in_autfb",
        "is_in_autfb_prime",
        "is_in_kernel",
        "parse_spelling",
        "format_name",
    ),
    "presentation": (
        "sym_reduce",
        "sym_mul",
        "sym_inv",
        "eval_symbol_word",
        "s_k_symbols",
        "s_q_symbols",
        "enumerate_relations",
        "verify_relations",
        "action_f",
        "action_letter",
        "action_extend",
        "verify_action_consistency",
        "table5_rows",
        "verify_table5",
        "reduced_sq_words",
        "lpres_expand",
        "format_symbols",
    ),
    "abelianization": (
        "ab_vector",
        "ab_matrix",
        "act_hom",
        "johnson_class",
        "johnson_full",
        "johnson_y",
        "johnson_z",
        "int_rank",
        "generator_image_row",
        "abelianization_rank",
        "closed_form_rank",
    ),
    "cocycle": (
        "ny_project",
        "i_s",
        "jprime_y",
        "is_in_l",
        "sigma",
        "hat",
        "alpha",
        "alpha_twisted",
        "support_of_twist",
        "kappa_eval",
        "zeta_eval",
        "mu_witnesses",
        "pairing",
    ),
}

MEMBERSHIP = ("automorphism.is_in_autfb", "automorphism.is_in_autfb_prime", "automorphism.is_in_kernel")
ACTION_EXTEND = ("presentation.action_extend", "presentation.action_letter")
JOHNSON = tuple(
    f"abelianization.{f}" for f in ("johnson_class", "johnson_full", "johnson_y", "johnson_z")
)
# Relation, alphabet, residue-row and S_Q-word enumeration; the per-family
# instance builders are added by install() under their own names.
ENUMERATE = tuple(
    f"presentation.{f}"
    for f in ("enumerate_relations", "s_k_symbols", "s_q_symbols", "table5_rows", "reduced_sq_words")
)

# Per-layer metrics in report order, with units.  A ratio whose base is
# zero (no such work in the workload) reads 0.
METRICS = (
    ("freegroup.calls", "count"),
    ("freegroup.self_s", "s"),
    ("automorphism.compose.calls", "count"),
    ("automorphism.compose.letters_in", "count"),
    ("automorphism.compose.self_s", "s"),
    ("automorphism.compose.max_image_len", "count"),
    ("automorphism.membership.calls", "count"),
    ("automorphism.membership.self_s", "s"),
    ("automorphism.gen_aut.calls", "count"),
    ("automorphism.self_s", "s"),
    ("presentation.action_f.calls", "count"),
    ("presentation.action_extend.self_s", "s"),
    ("presentation.sym_reduce.calls", "count"),
    ("presentation.sym_reduce.self_s", "s"),
    ("presentation.eval_symbol_word.letters", "count"),
    ("presentation.lpres_expand.unique_ratio", "ratio"),
    ("presentation.gen_cache.entries", "count"),
    ("presentation.gen_cache.hit_ratio", "ratio"),
    ("presentation.enumerate.self_s", "s"),
    ("presentation.self_s", "s"),
    ("abelianization.johnson.calls", "count"),
    ("abelianization.self_s", "s"),
    ("abelianization.int_rank.calls", "count"),
    ("cocycle.zeta_eval.calls", "count"),
    ("cocycle.zeta_eval.self_s", "s"),
    ("cocycle.pairing.self_s", "s"),
    ("cocycle.i_s.calls", "count"),
    ("cocycle.self_s", "s"),
    ("cocycle.twist_cache.entries", "count"),
    ("cocycle.sigma_cache.entries", "count"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def _compose_in(tracer, args):
    f, g = args
    tracer.counts["compose.letters_in"] += sum(len(w.letters) for w in g.images) + sum(
        len(w.letters) for w in f.inv_images
    )


def _compose_out(tracer, args, result):
    longest = max(len(w.letters) for w in result.images + result.inv_images)
    if longest > tracer.counts["compose.max_image_len"]:
        tracer.counts["compose.max_image_len"] = longest


def _eval_in(tracer, args):
    tracer.counts["eval_symbol_word.letters"] += len(args[1])


def _expand_out(tracer, args, result):
    tracer.counts["lpres_expand.unique"] += len(result)


HOOKS = {
    "automorphism.compose": (_compose_in, _compose_out),
    "presentation.eval_symbol_word": (_eval_in, None),
    "presentation.lpres_expand": (None, _expand_out),
}


class Tracer:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self.counts = dict.fromkeys(
            ("compose.letters_in", "compose.max_image_len", "eval_symbol_word.letters", "lpres_expand.unique"), 0
        )
        self.contexts = []
        self.gen_cache_info = None

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def layer_totals(self):
        """Calls and self nanoseconds per span name."""
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = array("q", bytes(8 * len(starts)))
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(len(starts)):
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child[i]
        return dict(zip(self.names, calls)), dict(zip(self.names, self_ns))

    def _children_of(self, parent_name, child_name):
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        names, parents = self.span_name, self.span_parent
        return sum(
            1 for i in range(len(names)) if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid
        )

    def metrics(self, stdout_bytes):
        """Every METRICS entry except trace.overhead_s, which needs an untraced run."""
        calls, self_ns = self.layer_totals()

        def n_calls(*names):
            return sum(calls.get(n, 0) for n in names)

        def secs(*names):
            return sum(self_ns.get(n, 0) for n in names) / 1e9

        def layer(prefix):
            return [n for n in self.names if n.startswith(prefix + ".")]

        generated = self._children_of("presentation.lpres_expand", "presentation.action_extend")
        hits, misses, _, size = self.gen_cache_info()
        enumerate_names = ENUMERATE + tuple(n for n in self.names if n.endswith("_instances"))
        return {
            "freegroup.calls": n_calls(*layer("freegroup")),
            "freegroup.self_s": secs(*layer("freegroup")),
            "automorphism.compose.calls": n_calls("automorphism.compose"),
            "automorphism.compose.letters_in": self.counts["compose.letters_in"],
            "automorphism.compose.self_s": secs("automorphism.compose"),
            "automorphism.compose.max_image_len": self.counts["compose.max_image_len"],
            "automorphism.membership.calls": n_calls(*MEMBERSHIP),
            "automorphism.membership.self_s": secs(*MEMBERSHIP),
            "automorphism.gen_aut.calls": n_calls("automorphism.gen_aut"),
            "automorphism.self_s": secs(*layer("automorphism")),
            "presentation.action_f.calls": n_calls("presentation.action_f"),
            "presentation.action_extend.self_s": secs(*ACTION_EXTEND),
            "presentation.sym_reduce.calls": n_calls("presentation.sym_reduce"),
            "presentation.sym_reduce.self_s": secs("presentation.sym_reduce"),
            "presentation.eval_symbol_word.letters": self.counts["eval_symbol_word.letters"],
            "presentation.lpres_expand.unique_ratio": (
                self.counts["lpres_expand.unique"] / generated if generated else 0.0
            ),
            "presentation.gen_cache.entries": size,
            "presentation.gen_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "presentation.enumerate.self_s": secs(*enumerate_names),
            "presentation.self_s": secs(*layer("presentation")),
            "abelianization.johnson.calls": n_calls(*JOHNSON),
            "abelianization.self_s": secs(*layer("abelianization")),
            "abelianization.int_rank.calls": n_calls("abelianization.int_rank"),
            "cocycle.zeta_eval.calls": n_calls("cocycle.zeta_eval"),
            "cocycle.zeta_eval.self_s": secs("cocycle.zeta_eval"),
            "cocycle.pairing.self_s": secs("cocycle.pairing"),
            "cocycle.i_s.calls": n_calls("cocycle.i_s"),
            "cocycle.self_s": secs(*layer("cocycle")),
            "cocycle.twist_cache.entries": sum(len(c._twist_cache) for c in self.contexts),
            "cocycle.sigma_cache.entries": sum(len(c._sigma_cache) for c in self.contexts),
            "cli.self_s": secs(*layer("cli")),
            "cli.stdout_bytes": stdout_bytes,
        }


def _rebind(modules, original, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap every LAYERS function in place; for a traced child only."""
    import autfb
    from autfb import abelianization, automorphism, cli, cocycle, freegroup, presentation

    modules = (autfb, freegroup, automorphism, presentation, abelianization, cocycle, cli)
    for layer, fnames in LAYERS.items():
        home = vars(autfb)[layer]
        for fname in fnames:
            name = f"{layer}.{fname}"
            original = getattr(home, fname)
            _rebind(modules, original, tracer.wrap(name, original, *HOOKS.get(name, (None, None))))
    # verify_relations reaches the instance builders through this table.
    subfamilies = presentation._SUBFAMILIES
    for tag, builder in list(subfamilies.items()):
        wrapper = tracer.wrap(f"presentation.{builder.__name__}", builder)
        subfamilies[tag] = wrapper
        _rebind(modules, builder, wrapper)

    registry = tracer.contexts

    class RecordedContext(cocycle.PairingContext):
        """Registers each context so its cache sizes can be read after the run."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            registry.append(self)

    _rebind(modules, cocycle.PairingContext, RecordedContext)
    tracer.gen_cache_info = presentation._cached_gen_aut.cache_info
