"""Checks on the package source itself."""

import ast
import pathlib
import symtable

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


def _imports_of(package):
    """file:line of each import of package, or of a module in it, in src/."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == package for name in names):
                found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_no_numpy_import():
    # numpy is no dependency of the package, whatever the host has installed
    assert _imports_of("numpy") == []


def test_no_sympy_import():
    # certify runs no factorizer: sympy is the tests' oracle, not a dependency
    assert _imports_of("sympy") == []


def test_binomials_are_read_in_laurent_poly_only():
    # the jets at (1, 1) take their binomials from one table,
    # laurent_poly.centred_binomials
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                reads = any(alias.name == "comb" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                reads = node.attr == "comb" and isinstance(node.value, ast.Name) \
                    and node.value.id == "math"
            else:
                continue
            if reads:
                found.append(path.name)
    assert found == ["laurent_poly.py"]


def _callee(node):
    """The name a call calls, plain or as a module attribute."""
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_graded_pieces_come_from_symbolic_power():
    # one function computes a graded piece, symbolic_power.graded_piece: no
    # other module builds a jet matrix only to read its kernel
    found = []
    for top in ("src", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == SRC / "symbolic_power.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call) and _callee(node) == "kernel_polynomials" \
                        and node.args and isinstance(node.args[0], ast.Call) \
                        and _callee(node.args[0]) == "jet_matrix":
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


def _global_reads(table, used):
    """Add the names each scope of `table` reads from the module level.

    A name a function binds, as an argument or by assignment, is its local
    there, so reading it is no use of a module-level function of that name.
    """
    for sym in table.get_symbols():
        if sym.is_referenced() and (table.get_type() == "module" or sym.is_global()):
            used.add(sym.get_name())
    for child in table.get_children():
        _global_reads(child, used)


def _used_names():
    """Names read in src/, scripts/ and perfbench/, scope by scope.

    Attribute names count, and so does a string literal that is exactly an
    identifier, since the benchmark's tracer binds functions by name.
    """
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            _global_reads(symtable.symtable(text, str(path), "exec"), used)
            for node in ast.walk(ast.parse(text, str(path))):
                if isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    used.add(node.value)
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
