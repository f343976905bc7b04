"""Source-level rules for the package:

* no invariant may be an ``assert``, which ``python -O`` strips;
* only ``cli.main`` writes to standard output.  Callers such as the
  benchmark run ``cli.dispatch`` in-process and read the last line of
  stdout as their result, so a stray line would corrupt it;
* only ``ffield`` reads the private tables of ``Fq`` (``_exp``, ``_log``,
  ...); other modules go through its scalar and vectorized ops;
* ``hodge`` computes in integers only: no float constant and no true
  division, so the mod-4 signature congruence is checked exactly;
* every module-level import is read in its own module, except in
  ``__init__.py``, whose imports are the package's re-exports;
* ``orthfin`` imports nothing from ``galclass``: its trace-form census
  is counted in closed form, with no row kernel behind it;
* ``orthfin`` and ``recpoly`` do not read ``factor_degrees``: every
  trace-form reader takes the factor degrees of a lift from the factor
  types of h (``recpoly._type_key``), and no lift is factored;
* the polynomial arithmetic of ``poly`` and ``recpoly`` does not branch
  on its coefficient field: Q and F_q share one scalar interface
  (``Poly.ring``), and only the finite-field entry points, the
  constructor, ``__repr__`` and ``__mul__``'s prime-field reduction
  test for ``field=None``;
* ``as_strided`` and ``numpy.lib.stride_tricks`` appear nowhere under
  ``src/``: the Toeplitz matrix of ``galclass._mulmod``, gathered
  through an index array, is the package's one product path, and no
  view reads memory that its strides were not checked against."""

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "orthogal"


def _trees():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert any(p.name == "galclass.py" for p in sources), SOURCE_DIR
    return [(p, ast.parse(p.read_text(), filename=str(p))) for p in sources]


def test_no_assert_statements():
    found = [f"{p.name}:{node.lineno}" for p, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _writes_stdout(node) -> bool:
    """A print call, a sys.stdout reference or an import of stdout."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    if isinstance(node, ast.Attribute):
        return (node.attr in ("stdout", "__stdout__")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(
            a.name in ("stdout", "__stdout__") for a in node.names)
    return False


def test_only_cli_main_writes_stdout():
    found = []
    for p, tree in _trees():
        allowed = set()
        if p.name == "cli.py":
            main = [node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main"]
            assert len(main) == 1, "cli.main not found"
            allowed = {id(node) for node in ast.walk(main[0])}
        found += [f"{p.name}:{node.lineno}" for node in ast.walk(tree)
                  if _writes_stdout(node) and id(node) not in allowed]
    assert not found, f"writes to stdout outside cli.main: {found}"


def _fq_private_attributes(tree) -> set:
    """The private attributes that Fq.__init__ sets on self."""
    fq = [node for node in tree.body
          if isinstance(node, ast.ClassDef) and node.name == "Fq"]
    assert len(fq) == 1, "ffield.Fq not found"
    init = [node for node in fq[0].body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    return {node.attr for node in ast.walk(init[0])
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def test_only_ffield_reads_the_field_tables():
    trees = {p.name: tree for p, tree in _trees()}
    private = _fq_private_attributes(trees["ffield.py"])
    assert {"_exp", "_log"} <= private, private
    found = [f"{name}:{node.lineno} .{node.attr}"
             for name, tree in trees.items() if name != "ffield.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert not found, f"Fq tables read outside ffield: {found}"


def test_hodge_is_integer_only():
    tree = ast.parse((SOURCE_DIR / "hodge.py").read_text())
    found = [f"hodge.py:{node.lineno}" for node in ast.walk(tree)
             if (isinstance(node, ast.Constant)
                 and isinstance(node.value, (float, complex)))
             or (isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div))]
    assert not found, f"float constants or true division in hodge: {found}"


def _imported_names(tree):
    """(line, bound name) of each module-level import, skipping
    ``from __future__``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    found = []
    for p, tree in _trees():
        if p.name == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        found += [f"{p.name}:{line} {name}"
                  for line, name in _imported_names(tree)
                  if name not in loaded]
    assert not found, f"imports never read in their module: {found}"


def _imported_modules(node):
    """The dotted names an import statement reads: each module, and for
    ``from X import Y`` also X.Y, since Y may be a module."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def test_orthfin_does_not_import_galclass():
    tree = ast.parse((SOURCE_DIR / "orthfin.py").read_text())
    found = [f"orthfin.py:{node.lineno}" for node in ast.walk(tree)
             if any("galclass" in name.split(".")
                    for name in _imported_modules(node))]
    assert not found, f"galclass imported in orthfin: {found}"


def _reads_factor_degrees(node) -> bool:
    """An import of factor_degrees, or an attribute read X.factor_degrees."""
    return (any(mod.split(".")[-1] == "factor_degrees"
                for mod in _imported_modules(node))
            or (isinstance(node, ast.Attribute)
                and node.attr == "factor_degrees"))


def test_trace_form_readers_do_not_import_factor_degrees():
    found = [f"{name}:{node.lineno}"
             for name in ("orthfin.py", "recpoly.py")
             for node in ast.walk(ast.parse((SOURCE_DIR / name).read_text()))
             if _reads_factor_degrees(node)]
    assert not found, f"factor_degrees read by a trace-form reader: {found}"


FIELD_BRANCHES_ALLOWED = {"__init__", "__repr__", "__mul__",
                          "squarefree_decomposition", "factor",
                          "is_irreducible", "classify_H", "in_F_class"}


def _is_field_tag(node) -> bool:
    """F, field or X.field."""
    return ((isinstance(node, ast.Name) and node.id in ("F", "field"))
            or (isinstance(node, ast.Attribute) and node.attr == "field"))


def _field_branches(node, function=None):
    """(line, enclosing function) of each `X is None` or `X is not None`
    with X a field tag, under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (isinstance(node, ast.Compare) and _is_field_tag(node.left)
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(c, ast.Constant) and c.value is None
                    for c in node.comparators)):
        yield node.lineno, function
    for child in ast.iter_child_nodes(node):
        yield from _field_branches(child, function)


def test_poly_arithmetic_does_not_branch_on_the_field():
    found = []
    for name in ("poly.py", "recpoly.py"):
        tree = ast.parse((SOURCE_DIR / name).read_text())
        found += [f"{name}:{line} in {function}"
                  for line, function in _field_branches(tree)
                  if function not in FIELD_BRANCHES_ALLOWED]
    assert not found, f"field=None branches in the arithmetic: {found}"


def test_no_strided_views_in_the_package():
    found = [f"{p.relative_to(SOURCE_DIR.parent)}:{line}"
             for p in sorted(SOURCE_DIR.parent.rglob("*.py"))
             for line, text in enumerate(p.read_text().splitlines(), 1)
             if "as_strided" in text or "stride_tricks" in text]
    assert not found, f"strided views in the package: {found}"
