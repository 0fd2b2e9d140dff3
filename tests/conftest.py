from __future__ import annotations

import numpy as np
import pytest

from fusionrec.align import build_alignment_dataset, init_alignment, train_alignment
from fusionrec.cf import CfConfig, train_cf
from fusionrec.data import Event, build_training_instances, filter_dataset, leave_one_out_split
from fusionrec.evaluate import RecommendationPipeline
from fusionrec.semantic import embed_catalog
from fusionrec.synthetic import make_planted_dataset


def planted_events(dataset) -> list[Event]:
    return [Event(*event) for event in dataset.events]


@pytest.fixture(scope="session")
def toy_world():
    """Small planted dataset plus a trained CF model shared across modules.

    Training is deliberately short; tests that depend on it only need a model
    that beats chance on the planted structure, not a converged one.
    """
    dataset = make_planted_dataset(40, 20, seed=7)
    split = leave_one_out_split(
        filter_dataset(planted_events(dataset), min_user_events=3, min_item_popularity=1)
    )
    rng = np.random.default_rng(11)
    config = CfConfig(embed_dim=16, max_history=12, blocks=1, heads=2, epochs=6, batch_size=8)
    instances = build_training_instances(split, config.max_history)
    model = train_cf(instances, config, rng)
    return {
        "dataset": dataset,
        "split": split,
        "catalog": dataset.catalog,
        "semantic": embed_catalog(dataset.catalog),
        "cf": model,
        "instances": instances,
    }


@pytest.fixture(scope="session")
def toy_alignment(toy_world):
    rng = np.random.default_rng(13)
    examples = build_alignment_dataset(
        toy_world["cf"], toy_world["split"], toy_world["semantic"], rng=rng
    )
    net = init_alignment(
        collab_dim=toy_world["cf"].config.embed_dim,
        sem_dim=768,
        latent_dim=24,
        alpha=0.5,
        beta=0.2,
        rng=rng,
    )
    return train_alignment(net, examples, epochs=5, batch_size=8, learning_rate=1e-3, rng=rng)


@pytest.fixture(scope="session")
def toy_pipeline(toy_world, toy_alignment):
    return RecommendationPipeline(
        cf_model=toy_world["cf"],
        alignment=toy_alignment,
        semantic_map=toy_world["semantic"],
    )
