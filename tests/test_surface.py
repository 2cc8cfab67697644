"""``src/`` keeps only what runs: every top-level function and class of the
package, and every method and property of its classes, is used by other
package code, shown in README, or called by the benchmark.  Helpers that only
the tests need live in ``tests/reference.py``.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tightlp"


def parsed(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(paths)]


def names_read(node) -> Counter:
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))


def readme_names() -> set[str]:
    """Identifiers in README's backticked spans and code blocks."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```$", text, re.M | re.S)
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(blocks + spans)))


def benchmark_names() -> set[str]:
    """What perfbench reaches through a module (``tl.def_rules``) or names as a
    string (the names its tracer rebinds)."""
    out = set()
    for _, tree in parsed((ROOT / "perfbench").glob("*.py")):
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.add(n.value)
    return out


def unused_definitions() -> list[str]:
    modules = parsed(PACKAGE.glob("*.py"))
    everywhere = sum((names_read(tree) for _, tree in modules), Counter())
    used = readme_names() | benchmark_names()
    unused = []
    for path, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                elsewhere = everywhere[node.name] - names_read(node)[node.name]
                if not elsewhere and node.name not in used:
                    unused.append("%s.%s" % (path.stem, node.name))
    return unused


def attributes_read(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unused_members() -> list[str]:
    """Methods and properties that no package code reads as an attribute
    outside their own body, that README and the benchmark do not name, and
    that override nothing: a dunder or a base-class method is called for us
    (argparse calls ``_ArgumentParser.error``)."""
    modules = parsed(PACKAGE.glob("*.py"))
    everywhere = sum((attributes_read(tree) for _, tree in modules), Counter())
    used = readme_names() | benchmark_names()
    unused = []
    for path, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            module = importlib.import_module("tightlp." + path.stem)
            bases = getattr(module, cls.name).__mro__[1:]
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                name = node.name
                elsewhere = everywhere[name] - attributes_read(node)[name]
                overrides = name.startswith("__") or any(hasattr(b, name) for b in bases)
                if not elsewhere and name not in used and not overrides:
                    unused.append("%s.%s.%s" % (path.stem, cls.name, name))
    return unused


def test_every_definition_in_src_is_used():
    assert unused_definitions() == []


def test_every_method_and_property_in_src_is_used():
    assert unused_members() == []


def test_the_check_sees_package_code_readme_and_benchmark():
    names = readme_names()
    assert {"parse_program", "is_answer_set", "AnswerSetChecker", "def_rules"} <= names
    assert {"check_tightness_preservation", "is_tight_on", "lambda_witness"} <= benchmark_names()
    # perfbench's own warshall is a plain name there, not a use of the package
    assert "warshall" not in benchmark_names()
