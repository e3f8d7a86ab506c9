"""The package's layers, pinned by its import graph.

render is the bottom; coeffring, phasepoly and generators are the
classical layer and make no operator; weylalgebra, the operator type and
the action oracle, imports neither the quantizer's ordering schemes nor
the ladder builder.  quantizer is the one module that turns classical
data into operators.  Each module's imports are read from its source,
so an import inside a function counts too.

Every command is a fresh interpreter, so the package also keeps its
standard-library imports light: records are namedtuples, and nothing
loads dataclasses (which loads inspect, ast, dis and tokenize) or
typing.
"""

import ast
import os
import subprocess
import sys
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


# dataclasses loads inspect, and both cost more at start-up than the
# package's own modules
HEAVY = ("dataclasses", "inspect", "typing")


def stdlib_imports(path: Path) -> set[str]:
    """The top-level names of the absolute imports in a source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
    return out


def test_no_module_imports_dataclasses_inspect_or_typing():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert {"verify.py", "render.py", "generators.py"} <= {path.name for path in sources}
    heavy = {
        str(path.relative_to(PACKAGE)): stdlib_imports(path) & set(HEAVY) for path in sources
    }
    assert {path: names for path, names in heavy.items() if names} == {}


def test_a_cold_command_loads_no_dataclasses_inspect_or_typing():
    # the CLI's whole import in a fresh interpreter without site-packages,
    # as every command runs
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = (
        "import sys, quantlab.vlab.cli; "
        f"print(sorted(name for name in {HEAVY!r} if name in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
