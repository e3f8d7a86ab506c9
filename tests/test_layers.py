"""The package's layers, pinned by its import graph.

render is the bottom; coeffring, phasepoly and generators are the
classical layer and make no operator; weylalgebra, the operator type and
the action oracle, imports neither the quantizer's ordering schemes nor
the ladder builder.  quantizer is the one module that turns classical
data into operators.  Each module's imports are read from its source,
so an import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

import quantlab

PACKAGE = Path(quantlab.__file__).resolve().parent


def package_imports(module: str) -> set[str]:
    """The quantlab modules that module imports, without the package
    prefix: "from quantlab.x import ..." gives "x", "from quantlab.vlab.y
    import ..." gives "vlab.y", and "from quantlab import x" gives "x"."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "quantlab":
                out |= {alias.name for alias in node.names}
            elif node.module.startswith("quantlab."):
                out.add(node.module.removeprefix("quantlab."))
        elif isinstance(node, ast.Import):
            out |= {
                alias.name.removeprefix("quantlab.")
                for alias in node.names
                if alias.name.startswith("quantlab.")
            }
    return out


def reaches(imported: set[str], layers: tuple) -> set[str]:
    return {name for name in imported if name.split(".")[0] in layers}


def test_render_imports_nothing_from_the_package():
    assert package_imports("render") == set()


@pytest.mark.parametrize("module", ["coeffring", "phasepoly", "generators"])
def test_the_classical_layer_makes_no_operator(module):
    assert not reaches(package_imports(module), ("weylalgebra", "quantizer", "vlab"))


def test_weylalgebra_imports_no_quantizer_or_ladder_builder():
    # the import-graph half of the oracle's independence from the
    # normal-ordering path; test_oracle.py scans the names it calls
    assert not reaches(package_imports("weylalgebra"), ("generators", "quantizer", "vlab"))


def test_the_graph_reader_sees_the_imports_that_exist():
    # a reader that found nothing would pass every test above
    assert {"coeffring", "phasepoly"} <= package_imports("generators")
    assert {"generators", "weylalgebra"} <= package_imports("quantizer")
