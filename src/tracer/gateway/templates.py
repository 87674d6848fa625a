"""Prompt templates and the bundled template catalog.

Template bodies are plain text files with ``{name}`` placeholders
(``{{`` and ``}}`` escape literal braces). The package ships one file
per template, named ``<template_id>.txt``, in its ``templates``
directory.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

from ..errors import MissingBinding, UnknownBinding, UnknownTemplate

_formatter = string.Formatter()


def _placeholders(body: str) -> frozenset[str]:
    names = set()
    for _, name, spec, conversion in _formatter.parse(body):
        if name is None:
            continue
        if not name.isidentifier() or spec or conversion:
            raise ValueError(f"template placeholder {name!r} must be a bare name")
        names.add(name)
    return frozenset(names)


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt body with its required placeholder bindings."""

    template_id: str
    body: str
    required_bindings: frozenset[str] = field(default=frozenset())

    @classmethod
    def from_body(cls, template_id: str, body: str) -> "PromptTemplate":
        return cls(template_id=template_id, body=body, required_bindings=_placeholders(body))


def render_template(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Substitute every placeholder; binding keys must match exactly."""
    for name in template.required_bindings:
        if name not in bindings:
            raise MissingBinding(name)
    for name in bindings:
        if name not in template.required_bindings:
            raise UnknownBinding(name)
    return template.body.format(**{k: str(v) for k, v in bindings.items()})


class TemplateCatalog:
    """All templates for a run, loaded once."""

    def __init__(self, templates: Mapping[str, PromptTemplate]):
        self._templates = dict(templates)

    @classmethod
    def bundled(cls) -> "TemplateCatalog":
        """The catalog shipped inside the package."""
        root = resources.files("tracer") / "templates"
        templates = {}
        for entry in sorted(root.iterdir(), key=lambda e: e.name):
            if entry.name.endswith(".txt"):
                template_id = entry.name[: -len(".txt")]
                templates[template_id] = PromptTemplate.from_body(
                    template_id, entry.read_text(encoding="utf-8")
                )
        return cls(templates)

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise UnknownTemplate(template_id) from None

    def ids(self) -> list[str]:
        return sorted(self._templates)
