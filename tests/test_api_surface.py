"""Every public function, class and method in the package is reached from the package.

A public module-level function or class of `src/fusionrec`, and a public
method of such a class, must be referenced by name somewhere in the package
outside its own definition. Names in `__all__` and imports in `__init__.py`
do not count: code that only tests, demos or the benchmark call belongs in
`tests/oracles.py` or the caller itself. The few exceptions are listed
below, each with the reason it stays.
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
    "evaluate.RecommendationPipeline.item_vector": "wrapped by the benchmark's per-layer timing",
    "evaluate.RecommendationPipeline.user_vector": "wrapped by the benchmark's per-layer timing",
}


def _modules():
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _public_definitions() -> list[tuple[str, str]]:
    """(module, name) of every public module-level function and class, and
    (module, "Class.method") of every public method of such a class."""
    found = []
    for path in _modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    found.extend(
                        (path.stem, f"{node.name}.{child.name}")
                        for child in node.body
                        if isinstance(child, ast.FunctionDef) and not child.name.startswith("_")
                    )
    return found


def _owned(top: ast.stmt):
    """(owner, subtree) pairs covering `top`: each method of a class is its
    own "Class.method" owner, the rest of the module statement is owned by
    its top-level definition, or by None."""
    if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [(None, top)]
    if isinstance(top, ast.FunctionDef):
        return [(top.name, top)]
    pairs = [(top.name, node) for node in (*top.bases, *top.keywords, *top.decorator_list)]
    for child in top.body:
        method = isinstance(child, ast.FunctionDef)
        pairs.append((f"{top.name}.{child.name}" if method else top.name, child))
    return pairs


def _references() -> dict[str, set[tuple[str, str | None]]]:
    """{name: {(module, enclosing definition or None)}} of every identifier
    and attribute used in the package; the enclosing definition is a
    top-level function or class, or "Class.method" inside a method."""
    used: dict[str, set[tuple[str, str | None]]] = {}
    for path in _modules():
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for owner, subtree in _owned(top):
                for node in ast.walk(subtree):
                    if isinstance(node, ast.Name):
                        used.setdefault(node.id, set()).add((path.stem, owner))
                    elif isinstance(node, ast.Attribute):
                        used.setdefault(node.attr, set()).add((path.stem, owner))
    return used


def _inside(owner: str | None, name: str) -> bool:
    """Whether code owned by `owner` lies in the definition `name`; a class's
    methods lie in the class."""
    return owner == name or (owner or "").startswith(f"{name}.")


def _unreferenced() -> set[str]:
    used = _references()
    return {
        f"{module}.{name}"
        for module, name in _public_definitions()
        if not any(
            where != module or not _inside(owner, name)
            for where, owner in used.get(name.rpartition(".")[2], ())
        )
    }


def test_every_public_name_is_reached_from_the_package_or_listed():
    assert _unreferenced() == set(UNREFERENCED)


def test_every_all_entry_names_a_definition():
    for path in _modules():
        module = importlib.import_module(f"fusionrec.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (path.stem, missing)
