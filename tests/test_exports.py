"""Every name that quantlab exports is reached by the program or by its
benchmark; a name that only tests reach belongs in reference_kernels.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantlab"


def _exports() -> set[str]:
    """The names quantlab/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(tree: ast.Module, strings: bool) -> set[str]:
    """Names and attributes that tree reads, and with strings set its
    string constants too (perfbench reaches the layers it wraps by
    getattr).  Docstrings are not read, and a def or class does not count
    its references to itself."""
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *defs)) and ast.get_docstring(node, clean=False) is not None
    }
    found = set()

    def visit(node, own):
        if isinstance(node, defs):
            own = own | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and id(node) not in docstrings:
            name = node.value
        if isinstance(name, str) and name not in own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def test_every_export_is_reached_by_the_program_or_its_benchmark():
    sources = [(path, False) for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    sources += [(path, True) for path in (ROOT / "perfbench").glob("*.py")]
    reached = set()
    for path, strings in sources:
        reached |= _references(ast.parse(path.read_text()), strings)
    unreached = sorted(_exports() - reached)
    assert not unreached, f"exported but reached only from tests: {unreached}"


def test_no_module_of_the_package_reads_the_per_call_views():
    # numerators and terms build a Monomial view of a map on each call,
    # for tests and other readers outside; the package reads the int keys
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not attrs & {"numerators", "terms"}, path.name
