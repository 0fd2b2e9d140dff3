"""The benchmark's workloads: their input worlds and their run configs.

Inputs are written by the benchmark's own planted-walk generator, so they do
not change when the program's generator does. For up to 100 items it emits
the same events and catalog as `fusionrec.synthetic.make_planted_dataset`
with the same arguments; above 100 items item ids, group bands and the code
token of each description grow by one digit.

Two item blocks; each user lives in one block and walks it mostly in order
(item i is followed by item i+1 with probability 0.85). A "cold" user ends
on a twin item: a fresh id with its base item's texts that occurs only as
that user's test target.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

_BLOCK_WORDS = ("alpine", "coastal")
_GROUP_WORDS = ("trail", "ridge", "summit", "valley", "glacier")
_SLOT_WORDS = (
    "anchor", "beacon", "cinder", "dune", "ember",
    "fjord", "grove", "harbor", "inlet", "juniper",
)
_CODE_LETTERS = "kmnpqrstvw"
_MIN_LENGTH, _MAX_LENGTH = 8, 14
_ADVANCE_PROB = 0.85


@dataclass(frozen=True)
class World:
    events: list[tuple[str, str, int, float]]
    catalog: dict[str, tuple[str, str]]


def planted_world(n_users: int, n_items: int, seed: int, n_cold_users: int = 0) -> World:
    if n_items % 2 or n_items < 2 or n_cold_users > n_users:
        raise ValueError("n_items must be even and n_cold_users at most n_users")
    n_per_block = n_items // 2
    id_width = max(2, len(str(n_per_block - 1)))
    code_width = max(2, len(str(n_items - 1)))
    rng = np.random.default_rng(seed)

    def item_id(block: int, index: int) -> str:
        return f"{'ab'[block]}{index:0{id_width}d}"

    catalog: dict[str, tuple[str, str]] = {}
    for block in range(2):
        for index in range(n_per_block):
            group = _GROUP_WORDS[(index * len(_GROUP_WORDS)) // n_per_block]
            slot = _SLOT_WORDS[index % len(_SLOT_WORDS)]
            digits = f"{block * n_per_block + index:0{code_width}d}"
            code = "".join(_CODE_LETTERS[int(d)] for d in digits)
            catalog[item_id(block, index)] = (
                f"{_BLOCK_WORDS[block]} {group} {slot}",
                f"{_BLOCK_WORDS[block]} series {group} {slot} grade {code}",
            )

    events: list[tuple[str, str, int, float]] = []
    twins_made = [0, 0]
    for u in range(n_users):
        block = u % 2
        length = int(rng.integers(_MIN_LENGTH, _MAX_LENGTH + 1))
        walk = [int(rng.integers(n_per_block))]
        for _ in range(length - 1):
            if rng.random() < _ADVANCE_PROB:
                walk.append((walk[-1] + 1) % n_per_block)
            else:
                walk.append(int(rng.integers(n_per_block)))
        if u >= n_users - n_cold_users:
            # Rotate the walk so that its natural successor is the twin's base.
            base_index = twins_made[block] % n_per_block
            twins_made[block] += 1
            shift = (base_index - 1 - walk[-2]) % n_per_block
            base = item_id(block, base_index)
            catalog.setdefault("0" + base, catalog[base])
            items = [item_id(block, (w + shift) % n_per_block) for w in walk[:-1]] + ["0" + base]
        else:
            items = [item_id(block, w) for w in walk]
        user = f"u{u:0{max(3, len(str(n_users - 1)))}d}"
        events.extend((user, item, step, 5.0) for step, item in enumerate(items, start=1))
    return World(events=events, catalog=catalog)


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int
    n_items: int
    n_cold_users: int
    config: dict[str, object]

    def world(self, seed: int) -> World:
        return planted_world(self.n_users, self.n_items, seed, self.n_cold_users)


# Every key the output checks depend on is set here, so the checks do not
# rest on the program's defaults; the other keys keep those defaults.
_BASE = {
    "data.min_user_events": 5,
    "data.min_item_popularity": 5,
    "cot.threshold": 0.6,
    "cot.weights": (0.25, 0.25, 0.25, 0.25),
    "eval.ks": (1, 5, 10),
    "eval.pool_size": 100,
    "proj.d_token": 64,
    "proj.hidden": 64,
    "proj.epochs": 1,
    "proj.batch_size": 8,
    "proj.slate_size": 20,
}

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance world's make-up at twice the users; CF training dominates.
        Workload(
            "chain",
            400,
            100,
            0,
            {
                **_BASE,
                "cf.embed_dim": 32,
                "cf.epochs": 4,
                "cf.learning_rate": 0.005,
                "align.epochs": 3,
            },
        ),
        # Many users over a catalog 4x the eval pool: per-user loops dominate.
        Workload(
            "wide",
            1000,
            400,
            0,
            {
                **_BASE,
                "cf.epochs": 1,
                "cf.blocks": 1,
                "cf.learning_rate": 0.005,
                "align.epochs": 1,
                "cot.sample_size": 0,
            },
        ),
        # 60 users end on twin items seen only as test targets; long Adam alignment.
        Workload(
            "cold",
            400,
            100,
            60,
            {
                **_BASE,
                "data.min_item_popularity": 1,
                "cf.embed_dim": 32,
                "cf.epochs": 5,
                "cf.blocks": 1,
                "cf.learning_rate": 0.005,
                "align.optimizer": "adam",
                "align.learning_rate": 0.001,
                "align.epochs": 20,
            },
        ),
    )
}


def _render(value) -> str:
    return ", ".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


def write_inputs(workload: Workload, seed: int, directory: str) -> str:
    """Write interactions, catalog and run config; return the config path."""
    world = workload.world(seed)
    interactions = os.path.join(directory, "interactions.tsv")
    catalog = os.path.join(directory, "catalog.tsv")
    with open(catalog, "w", encoding="utf-8") as fh:
        for item in sorted(world.catalog):
            title, description = world.catalog[item]
            fh.write(f"{item}\t{title}\t{description}\n")
    with open(interactions, "w", encoding="utf-8") as fh:
        for user, item, ts, rating in world.events:
            fh.write(f"{user}\t{item}\t{ts}\t{rating}\n")
    config = os.path.join(directory, "run.conf")
    lines = [f"seed = {seed}", f"data.interactions = {interactions}", f"data.catalog = {catalog}"]
    lines += [f"{key} = {_render(value)}" for key, value in workload.config.items()]
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return config
