"""README: the import block under "Library surface" runs as written, and the
run configuration block shows every config key."""

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


def _run_configuration_keys() -> set[str]:
    """Every key of the YAML block under "Run configuration file", as ``section.name``."""
    import yaml

    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Run configuration file\n", 1)[1].split("\n#", 1)[0]
    data = yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1))
    keys = set()
    for key, value in data.items():
        keys |= {f"{key}.{name}" for name in value} if isinstance(value, dict) else {key}
    return keys


def test_run_configuration_block_holds_every_config_key():
    from tracer.config import CONFIG_KEYS, RUN_OPTIONS

    keys = _run_configuration_keys()
    for option in RUN_OPTIONS:
        assert option.key in keys, option.key
    assert keys == CONFIG_KEYS
