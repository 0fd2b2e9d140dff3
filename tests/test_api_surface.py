"""Every public function and class in the package is reached from the package.

A public module-level function or class of `src/fusionrec` must be referenced
somewhere in the package outside its own definition. Names in `__all__` and
imports in `__init__.py` do not count: code that only tests, demos or the
benchmark call belongs in `tests/oracles.py` or the caller itself. The few
exceptions are listed below, each with the reason it stays.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionrec"

UNREFERENCED = {
    "align.gradient_check": "finite-difference check of the alignment gradients",
    "projection.gradient_check_projection": "finite-difference check of the projection gradients",
    "config.make_config": "builds a validated config from typed overrides in code",
    "synthetic.make_planted_dataset": "generates the planted worlds the demos and benchmark run on",
    "synthetic.make_zero_shot_variant": "generates the renamed-id world of the zero-shot protocol",
    "synthetic.planted_successor": "names the planted next item that demos check against",
    "synthetic.write_dataset": "writes a generated world as the files the CLI reads",
    "cf.next_item_probabilities": "wrapped by the benchmark's per-layer timing",
    "cf.user_representation_from_vectors": "wrapped by the benchmark's per-layer timing",
    "projection.project_components": "soft-prompt path; stays or goes with the reasoning-path verdict",
    "projection.rank_candidates": "soft-prompt ranking, to be rewritten with per-candidate contexts",
    "evaluate.zero_shot_eval": "the zero-shot protocol, which eval does not run yet",
}


def _modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _public_definitions() -> list[tuple[str, str]]:
    """(module, name) of every public module-level function and class."""
    return [
        (path.stem, node.name)
        for path in _modules()
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references() -> dict[str, set[tuple[str, str | None]]]:
    """{name: {(module, enclosing top-level definition or None)}} of every
    identifier and attribute used in the package."""
    used: dict[str, set[tuple[str, str | None]]] = {}
    for path in _modules():
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.setdefault(node.id, set()).add((path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, set()).add((path.stem, owner))
    return used


def _unreferenced() -> set[str]:
    used = _references()
    return {
        f"{module}.{name}"
        for module, name in _public_definitions()
        if not used.get(name, set()) - {(module, name)}
    }


def test_every_public_name_is_reached_from_the_package_or_listed():
    assert _unreferenced() == set(UNREFERENCED)


def test_every_all_entry_names_a_definition():
    for path in _modules():
        module = importlib.import_module(f"fusionrec.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (path.stem, missing)
