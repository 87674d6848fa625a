"""README: the import block under "Library surface" runs as written."""

import re
import subprocess
import sys
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
    # a fresh interpreter, so that no module an earlier test imported can
    # stand in for one the block needs
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, f"README import block fails:\n{result.stderr}"
