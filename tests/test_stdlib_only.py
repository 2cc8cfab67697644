"""The runtime stays stdlib-only: the package imports nothing else, and
nothing from the tests."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tightlp"
# conftest, reference and the test modules are on the tests' path only
TEST_MODULES = {"tests"} | {path.stem for path in PACKAGE.parents[1].glob("tests/*.py")}


def test_every_absolute_import_is_from_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    assert {"conftest", "reference"} <= TEST_MODULES
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"
                assert top not in TEST_MODULES, f"{path.name} imports {module} from the tests"
