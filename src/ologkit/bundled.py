"""Loaders for the schema and instances shipped inside the package."""

from __future__ import annotations

from functools import cache
from importlib.resources import files

from .dsl import parse_instance, parse_schema
from .instance import Instance
from .schema import OlogSchema

__all__ = [
    "BUNDLED_FILES",
    "bundled_text",
    "bundled_schema",
    "protein_instance",
    "social_instance",
]

BUNDLED_FILES = ("paper.olog", "protein.oinst", "social.oinst")


@cache
def bundled_text(filename: str) -> str:
    """The text of a bundled file, read once per process and shared after that.

    An unknown name raises FileNotFoundError on every call: errors are not cached.
    """
    if filename not in BUNDLED_FILES:
        raise FileNotFoundError(f"no bundled file named {filename!r}")
    return (files("ologkit") / "data" / filename).read_text(encoding="utf-8")


def bundled_schema() -> OlogSchema:
    """The shared brick/glue/lifeline schema."""
    return parse_schema(bundled_text("paper.olog"), "paper.olog")


def protein_instance() -> Instance:
    """The default nine-brick protein instance (lifeline present, ductile)."""
    return parse_instance(bundled_text("protein.oinst"), "protein.oinst")


def social_instance() -> Instance:
    """The social-network instance matched element-for-element to the protein one."""
    return parse_instance(bundled_text("social.oinst"), "social.oinst")
