"""Import guard for the demo scripts: every name a demo imports from
``lcslab`` must still exist, so a library deletion cannot silently break
a demo.  The demos are parsed, not run."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def lcslab_imports(path):
    """``(module, name)`` for each name the script imports from lcslab."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "lcslab"
                or node.module.startswith("lcslab.")):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lcslab":
                    yield alias.name, None


def test_demos_are_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(lcslab_imports(path))
    assert imports, f"{path.name} imports nothing from lcslab"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), \
            f"{path.name}: {module} has no {name}"
