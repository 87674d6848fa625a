"""The library surface: every public top-level name of a ``tracer`` module
is used somewhere other than the tests.

A name counts as used when it appears, as a whole word, outside its own
definition, its ``__all__`` entry and import statements: in another part
of ``src/tracer``, in ``demos/``, in ``perfbench/*.py``, in ``README.md``
or under ``.github/``. A name only tests use belongs in the tests.
"""

import ast
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blank(lines: list[str], node: ast.stmt) -> None:
    for i in range(node.lineno - 1, node.end_lineno):
        lines[i] = ""


def _defined_names(tree: ast.Module):
    """``(name, statement)`` for each public name a module's top level binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))


def _unused_public_names(root: Path) -> list[str]:
    """``module: name`` for each public name the checkout at ``root`` uses nowhere."""
    src = root / "src" / "tracer"
    definitions = []  # (module, name, statement)
    sources = {}  # module -> its lines without __all__ and imports
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in tree.body:
            is_all = isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            )
            if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
                _blank(lines, node)
        sources[path] = lines
        definitions += [(path, name, node) for name, node in _defined_names(tree)]

    others = [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    others += [root / "README.md", *(p for p in (root / ".github").rglob("*") if p.is_file())]
    other_texts = [path.read_text(encoding="utf-8") for path in others]

    unused = []
    for module, name, node in definitions:
        texts = list(other_texts)
        for path, lines in sources.items():
            if path == module:
                lines = list(lines)
                _blank(lines, node)
            texts.append("\n".join(lines))
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(pattern.search(text) for text in texts):
            unused.append(f"{module.relative_to(src)}: {name}")
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert _unused_public_names(ROOT) == []


def test_the_scan_flags_a_public_name_only_its_own_body_uses(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "tracer", tmp_path / "src" / "tracer", ignore=skip)
    shutil.copytree(ROOT / "demos", tmp_path / "demos")
    shutil.copytree(ROOT / ".github", tmp_path / ".github")
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(ROOT / "README.md", tmp_path)
    with (tmp_path / "src" / "tracer" / "corpus.py").open("a", encoding="utf-8") as handle:
        handle.write("\n\ndef only_tests_call_this():\n    return only_tests_call_this\n")
    assert _unused_public_names(tmp_path) == ["corpus.py: only_tests_call_this"]
