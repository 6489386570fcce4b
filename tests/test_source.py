"""Checks on the package source itself."""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "negcurve"

# Public helpers that no command, script or benchmark calls, kept because a
# test checks a statement of the paper through them or compares against them.
REFERENCE_HELPERS = {
    # the paper's family over the (1, 2, 3) triple; its members are checked
    # as r-ncts and seed the nct property tests
    "phi_family",
    # Lemma EU: dropping the r support points on a line keeps the nullity
    # at one order less, checked on random supports in char 0
    "lemma_eu_check",
    # K^2 by squaring the canonical pullback on the smooth refinement, the
    # reference that divisor_square and intersection_numbers are checked against
    "k2_via_refinement",
    # the smooth refinement keeps P_{-K}, which acceptance criterion 8 checks
    "smooth_refine",
}


def test_no_assert_statements():
    # python -O strips asserts, so a guarded result must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _public_defs():
    """(module, name) of every public module-level function and method."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs = [] if node.name.startswith("_") else node.body
            for d in defs:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    yield path.stem, d.name


def _used_names():
    """Names read in src/, scripts/ and perfbench/, outside their own def.

    A string literal that is exactly an identifier counts too, since the
    benchmark's tracer binds functions by attribute name.
    """
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            prev = None
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME and prev != "def":
                    used.add(tok.string)
                elif tok.type == tokenize.STRING:
                    try:
                        value = ast.literal_eval(tok.string)
                    except (ValueError, SyntaxError):
                        value = None
                    if isinstance(value, str) and value.isidentifier():
                        used.add(value)
                if tok.type not in (tokenize.NL, tokenize.COMMENT):
                    prev = tok.string
    return used


def test_every_public_helper_has_a_caller():
    # a helper that only tests call is surface to read and keep, not a tool
    used = _used_names()
    defs = list(_public_defs())
    unused = ["%s.%s" % (mod, name) for mod, name in defs
              if name not in used and name not in REFERENCE_HELPERS]
    assert unused == []
    assert REFERENCE_HELPERS <= {name for _, name in defs}


def test_no_unused_imports():
    # an import nothing reads is a dependency to keep for nothing
    unused = []
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unused.append("%s:%d %s" % (path.relative_to(ROOT),
                                                        node.lineno, name))
    assert unused == []
