"""Every public name in ``src/molfuse`` serves the program, not only tests.

A public ``def`` or ``class`` at module or class level must occur in
``src/molfuse``, ``tools/`` or ``perfbench/`` somewhere besides its own
definition line. A name that only tests use belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "molfuse"
USERS = sorted([
    *PACKAGE.glob("*.py"),
    *(ROOT / "tools").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
    *(ROOT / "perfbench" / "tests").glob("*.py"),
])


def public_definitions(path):
    """(name, line) of each public def or class at module or class level."""
    found = []
    for node in ast.parse(path.read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                    and not item.name.startswith("_")):
                found.append((item.name, item.lineno))
    return found


def test_every_public_name_is_used_outside_the_tests():
    lines = {path: path.read_text().splitlines() for path in USERS}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno in public_definitions(path):
            word = re.compile(rf"\b{name}\b")
            if not any(
                word.search(text)
                for user, texts in lines.items()
                for n, text in enumerate(texts, 1)
                if (user, n) != (path, lineno)
            ):
                unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, f"used only by tests, or not at all: {unused}"
