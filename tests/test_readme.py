"""README: the import block under "Library surface" runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_surface_imports() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith(("from ", "import "))]


def test_library_surface_imports_run():
    lines = _library_surface_imports()
    assert lines
    for line in lines:
        try:
            exec(line, {})
        except ImportError as exc:
            raise AssertionError(f"README import fails: {line}: {exc}") from None
