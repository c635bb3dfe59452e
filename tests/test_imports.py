"""Every imported name is read somewhere in its module, every private
function of the package is used somewhere in the package, and no function
of the package imports inside its body.

Scans src/autfb/*.py, tests/*.py and perfbench/*.py with the
standard-library ast module.
The package's __init__.py is skipped by the import scan: its imports are
the public re-exports.  Outside freegroup, only the public Word edges in
WORD_EDGES may read a Word view or a Word's letters, or call Word or a
word function; every other function reads the signed rows.

Also: every name that perfbench/layertrace.py wraps or reads exists on its
module, and the Word views its compose hooks read hold an automorphism's
rows, so deleting one fails here rather than inside a traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from autfb import Signature, Word, parse_aut

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "autfb").glob("*.py"))
SOURCES = (
    sorted(p for p in (ROOT / "src" / "autfb").glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py"))
)


def unused_imports(source):
    """(line, name) for each name bound by an import and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "json")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_functions(sources):
    """Names of private top-level functions that no module reads.

    A name counts as read when it is loaded as a bare name or as an
    attribute anywhere in the given sources.
    """
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_the_scan_finds_an_unused_private_function():
    used = "def _a():\n    return 1\n"
    assert unused_private_functions([used, "def _b():\n    return _a()\n"]) == ["_b"]
    assert unused_private_functions([used, "import m\nm._a()\n"]) == []
    assert unused_private_functions(["def __getattr__(name):\n    pass\n"]) == []


def test_no_unused_private_functions():
    assert unused_private_functions([p.read_text() for p in PACKAGE]) == []


def imports_inside_functions(source):
    """(line, function) for each import statement inside a function body."""
    tree = ast.parse(source)
    return sorted(
        {
            (node.lineno, func.name)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_the_scan_finds_an_import_inside_a_function():
    source = "import os\ndef f():\n    from json import dumps\n    return dumps\n"
    assert imports_inside_functions(source) == [(3, "f")]
    assert imports_inside_functions("import os\ndef f():\n    return os\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_imports_inside_functions(path):
    assert imports_inside_functions(path.read_text()) == []


# The functions outside freegroup that take or give a Word, by module.
# NamedAut takes signed rows; from_images is its one route from Word tables,
# _views builds the images and inv_images views, and apply maps one Word.
WORD_EDGES = {
    "automorphism": {"from_images", "_views", "apply"},
    "abelianization": {"wedge_class"},
    "cocycle": {"ny_project"},
}
WORD_ATTRS = {"images", "inv_images", "letters"}
WORD_CALLS = {"Word", "gen_word", "multiply", "abelianize", "ab_vector"}


def word_reads(source):
    """Names of the functions (Class.method for a method, <module> outside
    any) that read one of WORD_ATTRS or call one of WORD_CALLS."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Attribute) and node.attr in WORD_ATTRS:
            found.add(scope or "<module>")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in WORD_CALLS:
                found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_scan_finds_word_reads():
    source = (
        "def f(a):\n    return a.images[1]\n"
        "class C:\n    def m(self, u):\n        return fg.multiply(u, u)\n"
        "def g(a):\n    return a.fwd[1]\n"
        "w = Word(s, ())\n"
    )
    assert word_reads(source) == {"f", "C.m", "<module>"}
    assert word_reads("def h(u):\n    return _wedge(u.letters)\n") == {"h"}


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "freegroup.py"], ids=lambda p: p.name
)
def test_words_only_at_the_edges(path):
    """No function off the list meets a Word, and every listed edge still
    does, so the list cannot go stale."""
    assert sorted(word_reads(path.read_text())) == sorted(WORD_EDGES.get(path.stem, ()))


def _layertrace():
    """perfbench/layertrace.py, loaded from its file without running install()."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# What layertrace.install() reads besides LAYERS.
TRACER_READS = (
    ("presentation", "_cached_gen_aut"),
    ("presentation", "_SUBFAMILIES"),
    ("cocycle", "PairingContext"),
)


def test_every_name_the_tracer_reads_exists():
    names = [(layer, f) for layer, fs in _layertrace().LAYERS.items() for f in fs]
    missing = [
        f"autfb.{layer}.{name}"
        for layer, name in names + list(TRACER_READS)
        if not hasattr(importlib.import_module(f"autfb.{layer}"), name)
    ]
    assert missing == []
    assert len(names) > 50


def test_the_tracer_can_name_every_instance_builder():
    """layertrace wraps each _SUBFAMILIES builder as presentation.<__name__>,
    and presentation.enumerate.self_s adds up the names ending in
    _instances: a builder without such a name drops out of that metric."""
    for tag, build in importlib.import_module("autfb.presentation")._SUBFAMILIES.items():
        assert callable(build), tag
        assert build.__name__.endswith("_instances"), (tag, build.__name__)


def test_the_word_views_the_tracer_reads_hold_the_rows():
    """layertrace's compose hooks read w.letters from images and inv_images,
    and concatenate the two."""
    sig = Signature(2, 1, 1)
    f = parse_aut(sig, "M[x1^+1,y1] C[z1,x2]^-1 I[2]")
    for views, rows in ((f.images, f.fwd), (f.inv_images, f.bwd)):
        assert type(views) is tuple and all(type(w) is Word for w in views)
        assert tuple(w.letters for w in views) == rows[1 : sig.ngens + 1]
    assert len(f.images + f.inv_images) == 2 * sig.ngens
