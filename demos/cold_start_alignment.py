"""Cold items and a renamed domain, served by the shared latent space.

Items the sequence model has never trained on still have text, so the
alignment network can manufacture a stand-in collaborative embedding from
the semantic side. We hold the cold band out of training on purpose, then
compare warm and cold cohorts, and finally evaluate on an isomorphic copy
of the catalog where every id is new.
"""

import numpy as np

from fusionrec.align import (
    build_alignment_dataset,
    init_alignment,
    train_alignment,
)
from fusionrec.cf import CfConfig, train_cf
from fusionrec.data import (
    Event,
    InteractionLog,
    SplitDataset,
    build_sequences,
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
    partition_cold_warm,
)
from fusionrec.evaluate import (
    RecommendationPipeline,
    cold_warm_report,
    evaluate_split,
    render_metric_table,
    zero_shot_eval,
)
from fusionrec.semantic import embed_catalog
from fusionrec.synthetic import make_planted_dataset, make_zero_shot_variant


def as_log(dataset):
    return InteractionLog(
        users={u for u, _, _, _ in dataset.events},
        items={i for _, i, _, _ in dataset.events},
        events=[Event(u, i, t, r) for u, i, t, r in dataset.events],
        catalog=dataset.catalog,
    )


planted = make_planted_dataset(n_users=120, n_items=60, seed=0, n_cold_users=36)
filtered = filter_dataset(as_log(planted), min_user_events=5, min_item_popularity=1)
split = leave_one_out_split(build_sequences(filtered))
partition = partition_cold_warm(filtered, fraction=0.35)
print(f"{len(split.train)} users; {len(partition.cold)} cold items, "
      f"{len(partition.warm)} warm items")

# --- train the backbone with the cold band withheld ---
# The CF vocabulary is exactly the items of the train sequences, so removing
# the cold band from them keeps every cold item out of it.
rng = np.random.default_rng(1)
config = CfConfig(epochs=12)
warm_split = SplitDataset(
    train={user: [item for item in seq if item not in partition.cold]
           for user, seq in split.train.items()},
    validation=split.validation,
    test=split.test,
)
instances = build_training_instances(warm_split, config.max_history)
model = train_cf(instances, config, rng)
in_vocab = sum(model.has_item(item) for item in partition.cold)
print(f"trained on {len(instances)} sequences with the cold band removed; "
      f"{in_vocab}/{len(partition.cold)} cold items in the vocabulary")

# --- align the collaborative and semantic spaces ---
semantic_map = embed_catalog(planted.catalog)
rng2 = np.random.default_rng(2)
examples = build_alignment_dataset(model, split, semantic_map, rng=rng2, negatives_per_user=0)
net = init_alignment(50, 768, 128, 0.5, 0.2, rng=rng2)
train_alignment(net, examples, epochs=300, batch_size=16, learning_rate=1e-3,
                rng=rng2, optimizer="adam")
print(f"alignment loss {net.training_log[0]:.2f} -> {net.training_log[-1]:.2f}")

# --- a cold item still gets an embedding, just via the other door ---
pipeline = RecommendationPipeline(cf_model=model, alignment=net, semantic_map=semantic_map)
cold_item = sorted(partition.cold)[0]
table = pipeline.item_table([cold_item], latent=True)
route = "semantic_path" if table.semantic[0] else "collaborative_path"
print(f"\n{cold_item} ({planted.catalog[cold_item][0]!r}) -> {route}, "
      f"norm {np.linalg.norm(table.latent[0]):.3f}")

# --- cohort comparison and the renamed domain ---
standard = evaluate_split(pipeline, split, ks=[5, 10], candidate_pool_size=59, seed=3)
comparison = cold_warm_report(standard, split, partition)  # cuts of the standard ranks

variant = make_zero_shot_variant(planted)
zs_filtered = filter_dataset(as_log(variant), min_user_events=5, min_item_popularity=1)
zs_split = leave_one_out_split(build_sequences(zs_filtered))
zs_report = zero_shot_eval(pipeline, zs_split, embed_catalog(variant.catalog),
                           ks=[5, 10], candidate_pool_size=59, seed=3)
print()
print(render_metric_table([standard, comparison.warm, comparison.cold, zs_report]), end="")
print("\nevery zero-shot lookup went through the semantic path; the run "
      "would have failed otherwise")
