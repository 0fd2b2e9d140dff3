"""Seeded synthetic datasets with planted, recoverable structure.

The planted world has two disjoint item blocks. Each user lives in one block
and walks it mostly sequentially (item i is followed by item i+1 with high
probability), so the true next item is predictable from the history. Titles
are compositional (block word + group word + slot word) and descriptions add
a unique code token per item, which keeps text embeddings both clustered and
separable.

Cold-start structure is planted through "twin" items: a twin copies the
title and description of a base item but has a fresh id that only ever
appears as one user's final (test) interaction. A model that routes unseen
items through text can place the twin where its base belongs; a purely
collaborative one cannot. Twin ids sort ahead of their bases so exact score
ties resolve toward the twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlantedDataset",
    "make_planted_dataset",
    "make_zero_shot_variant",
    "write_dataset",
    "planted_successor",
]

_BLOCK_WORDS = ("alpine", "coastal")
_GROUP_WORDS = ("trail", "ridge", "summit", "valley", "glacier")
_SLOT_WORDS = (
    "anchor",
    "beacon",
    "cinder",
    "dune",
    "ember",
    "fjord",
    "grove",
    "harbor",
    "inlet",
    "juniper",
)
_CODE_LETTERS = "kmnpqrstvw"


@dataclass
class PlantedDataset:
    events: list[tuple[str, str, int, float]]
    catalog: dict[str, tuple[str, str]]
    n_users: int
    n_items: int
    seed: int
    twins: dict[str, str] = field(default_factory=dict)  # twin id -> base id


def _item_id(block: int, index: int) -> str:
    return f"{'ab'[block]}{index:02d}"


def _item_texts(block: int, index: int, n_per_block: int) -> tuple[str, str]:
    group = _GROUP_WORDS[(index * len(_GROUP_WORDS)) // n_per_block]
    slot = _SLOT_WORDS[index % len(_SLOT_WORDS)]
    flat = block * n_per_block + index
    code = _CODE_LETTERS[flat // 10] + _CODE_LETTERS[flat % 10]
    title = f"{_BLOCK_WORDS[block]} {group} {slot}"
    description = f"{_BLOCK_WORDS[block]} series {group} {slot} grade {code}"
    return title, description


def planted_successor(item: str, n_per_block: int = 50) -> str:
    """The high-probability next item of the planted walk (same block)."""
    base = item[1:] if item.startswith("0") else item
    block = "ab".index(base[0])
    index = int(base[1:])
    return _item_id(block, (index + 1) % n_per_block)


def make_planted_dataset(
    n_users: int = 200,
    n_items: int = 100,
    seed: int = 0,
    n_cold_users: int = 0,
    length_range: tuple[int, int] = (8, 14),
    advance_prob: float = 0.85,
) -> PlantedDataset:
    """Two-block sequential world; the last n_cold_users end on twin items."""
    if n_items % 2 != 0 or n_items > 100:
        raise ValueError("n_items must be even and at most 100")
    n_per_block = n_items // 2
    if n_cold_users > n_users:
        raise ValueError("cannot have more cold users than users")
    rng = np.random.default_rng(seed)

    catalog: dict[str, tuple[str, str]] = {}
    for block in range(2):
        for index in range(n_per_block):
            catalog[_item_id(block, index)] = _item_texts(block, index, n_per_block)

    events: list[tuple[str, str, int, float]] = []
    twins: dict[str, str] = {}
    cold_start = n_users - n_cold_users
    per_block_twin_counter = [0, 0]
    low, high = length_range
    for u in range(n_users):
        user = f"u{u:03d}"
        block = u % 2
        length = int(rng.integers(low, high + 1))
        walk = [int(rng.integers(n_per_block))]
        for _ in range(length - 1):
            if rng.random() < advance_prob:
                walk.append((walk[-1] + 1) % n_per_block)
            else:
                walk.append(int(rng.integers(n_per_block)))
        if u >= cold_start:
            # Rotate the walk so its natural successor is this user's
            # assigned twin base, then end on the twin itself.
            base_index = per_block_twin_counter[block] % n_per_block
            per_block_twin_counter[block] += 1
            shift = (base_index - 1 - walk[-2]) % n_per_block
            walk = [(w + shift) % n_per_block for w in walk[:-1]]
            base_id = _item_id(block, base_index)
            twin_id = "0" + base_id
            twins[twin_id] = base_id
            catalog.setdefault(twin_id, catalog[base_id])
            items = [_item_id(block, w) for w in walk] + [twin_id]
        else:
            items = [_item_id(block, w) for w in walk]
        for step, item in enumerate(items, start=1):
            events.append((user, item, step, 5.0))
    return PlantedDataset(
        events=events,
        catalog=catalog,
        n_users=n_users,
        n_items=n_items,
        seed=seed,
        twins=twins,
    )


def make_zero_shot_variant(dataset: PlantedDataset) -> PlantedDataset:
    """Same interactions and item texts under renamed (disjoint) item ids."""
    rename = {item: "z" + item for item in dataset.catalog}
    return PlantedDataset(
        events=[(u, rename[i], t, r) for u, i, t, r in dataset.events],
        catalog={rename[i]: texts for i, texts in dataset.catalog.items()},
        n_users=dataset.n_users,
        n_items=dataset.n_items,
        seed=dataset.seed,
        twins={rename[t]: rename[b] for t, b in dataset.twins.items()},
    )


def write_dataset(dataset: PlantedDataset, interactions_path, catalog_path) -> None:
    """Emit the tab-separated interaction and catalog files."""
    with open(catalog_path, "w", encoding="utf-8") as fh:
        for item in sorted(dataset.catalog):
            title, description = dataset.catalog[item]
            fh.write(f"{item}\t{title}\t{description}\n")
    with open(interactions_path, "w", encoding="utf-8") as fh:
        for user, item, ts, rating in dataset.events:
            fh.write(f"{user}\t{item}\t{ts}\t{rating}\n")
