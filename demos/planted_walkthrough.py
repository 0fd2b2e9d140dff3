"""Walk through the core loop on a synthetic world with a known answer.

The planted generator gives every user a two-block taste (block "a" or "b")
and a mostly-deterministic walk inside that block, so a sequence model that
learns anything at all should put the planted successor near the top. We
synthesize the data, round-trip it through the on-disk format, train the
sequence model, and check both a single prediction and the pooled metrics.
"""

import os
import tempfile

import numpy as np

from fusionrec.cf import CfConfig, next_item_probabilities, rank_by_score, train_cf, verbalize_prior
from fusionrec.data import (
    build_training_instances,
    filter_dataset,
    leave_one_out_split,
    load_interactions,
)
from fusionrec.evaluate import RecommendationPipeline, evaluate_split, render_metric_table
from fusionrec.synthetic import make_planted_dataset, planted_successor, write_dataset

# --- synthesize and reload, exactly as a real run would ---
workdir = tempfile.mkdtemp(prefix="walkthrough")
dataset = make_planted_dataset(n_users=60, n_items=40, seed=3)
interactions = os.path.join(workdir, "interactions.tsv")
catalog = os.path.join(workdir, "catalog.tsv")
write_dataset(dataset, interactions, catalog)
events = load_interactions(interactions, catalog)
n_users, n_items = len({e.user for e in events}), len({e.item for e in events})
print(f"{n_users} users, {n_items} items, {len(events)} events")

split = leave_one_out_split(filter_dataset(events, min_user_events=3, min_item_popularity=1))

# --- train the self-attention backbone ---
# One record per user: the next train item is predicted at every position,
# scored by a softmax over the whole vocabulary; batches hold 8 sequences.
rng = np.random.default_rng(0)
config = CfConfig(embed_dim=32, max_history=12, blocks=1, heads=2, epochs=10, batch_size=8,
                  learning_rate=0.005)
instances = build_training_instances(split, config.max_history)
model = train_cf(instances, config, rng)
positions = sum(len(inst.history) for inst in instances)
print(f"trained on {len(instances)} sequences ({positions} positions); "
      f"cross-entropy {model.training_log[0]:.4f} -> {model.training_log[-1]:.4f}")

# --- one user under the microscope ---
user = split.users()[0]
history = split.train[user]
expected = planted_successor(history[-1], n_per_block=20)
probs = next_item_probabilities(model, history)
ranked = rank_by_score(model, probs)
prior = verbalize_prior(float(probs[model.item_index[expected] - 1]))
print(f"\nuser {user} watched {history[-3:]}")
print(f"planted successor {expected} ranked #{ranked.index(expected) + 1} "
      f"of {len(ranked)} ({prior})")

# --- pooled leave-one-out evaluation ---
pipeline = RecommendationPipeline(cf_model=model)
report = evaluate_split(pipeline, split, ks=[1, 5, 10], candidate_pool_size=39, seed=1)
print()
print(render_metric_table([report]), end="")
print("\nrandom guessing in a 39-item pool would give hr@10 around 0.26")
