"""The bundled prompt templates.

A template is its text: ``templates/<template_id>.txt`` inside the
package, with ``{name}`` placeholders (``{{`` and ``}}`` escape literal
braces). The code that fills a template is fixed, so whether its
bindings match the placeholders is checked once, by a test that runs
every stage, not on every render.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import resources


def bundled_templates() -> dict[str, str]:
    """Template id -> body, for every template shipped with the package."""
    root = resources.files("tracer") / "templates"
    return {
        entry.name[: -len(".txt")]: entry.read_text(encoding="utf-8")
        for entry in sorted(root.iterdir(), key=lambda e: e.name)
        if entry.name.endswith(".txt")
    }


def render_template(body: str, bindings: Mapping[str, str]) -> str:
    """``body`` with each placeholder replaced by its binding."""
    return body.format_map(bindings)
