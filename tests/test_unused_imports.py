"""No import in ``src/qmhd`` goes unused, apart from the package's
re-exports in ``__init__.py`` and the bindings listed below.

A name counts as used when it is read anywhere in its module.  The check
reads the source only, so it needs no linter.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qmhd")

# (module file, name) -> why the unused binding stays
ALLOWED = {
    ("cli.py", "parse_config_text"): "benchmarks/spans.py wraps this binding",
    ("constitutive.py", "dealiased_product"): "benchmarks/spans.py wraps this binding",
    ("constitutive.py", "derivative"): "benchmarks/spans.py wraps this binding",
    ("experiments.py", "dealias"): "benchmarks/spans.py wraps this binding",
    ("experiments.py", "divergence"): "benchmarks/spans.py wraps this binding",
    ("experiments.py", "gradient"): "benchmarks/spans.py wraps this binding",
    ("solver.py", "divergence"): "benchmarks/spans.py wraps this binding",
    ("solver.py", "l2_norm"): "benchmarks/spans.py wraps this binding",
}


def unused_imports(path: str) -> set[str]:
    """Names an import binds in the module at ``path`` that nothing reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - read


MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    allowed = {name for (file, name) in ALLOWED if file == module}
    assert unused_imports(os.path.join(SRC, module)) == allowed


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom math import pi, tau as t\nprint(pi)\n")
    assert unused_imports(str(path)) == {"os", "t"}
