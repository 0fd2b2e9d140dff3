"""Every public function, class and method in the package is reached from the package.

A name is public when it has no leading underscore, and it is imported from
the module that defines it: the package root defines no names and no module
keeps an `__all__` list. A public module-level function or class of
`src/fusionrec`, and a public method of such a class, must be referenced by
name somewhere in the package outside its own definition: code that only
tests, demos or the benchmark call belongs in `tests/oracles.py` or the
caller itself. The few exceptions are listed below, each with the reason it
stays.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionrec"

UNREFERENCED = {
    "synthetic.make_planted_dataset": (
        "generates the planted worlds the demos and tests run on; the benchmark writes "
        "its own with `bench/worlds.py`, so that they do not change when this one does"
    ),
    "synthetic.make_zero_shot_variant": "generates the renamed-id world of the zero-shot protocol",
    "synthetic.planted_successor": "names the planted next item that demos check against",
    "synthetic.write_dataset": "writes a generated world as the files the CLI reads",
    "cf.next_item_probabilities": "wrapped by the benchmark's per-layer timing",
    "cf.rank_by_score": "wrapped by the benchmark's per-layer timing",
    "cot.score_cot": "wrapped by the benchmark's per-layer timing",
    "semantic.fallback_embed": "wrapped by the benchmark's per-layer timing",
    "cf.user_representation_from_vectors": "wrapped by the benchmark's per-layer timing",
    "projection.surrogate_loss_and_gradients": "the soft-prompt demo scores its examples with it",
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


def test_the_package_root_defines_no_names_and_no_module_lists_all():
    probe = (
        "import json, sys, fusionrec; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('fusionrec.')),"
        "sorted(n for n in vars(fusionrec) if not n.startswith('_'))]))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded, public = json.loads(out.stdout)
    assert loaded == [] and public == []
    listing = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert listing == []
