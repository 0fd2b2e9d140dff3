"""Project embeddings into a frozen token space and rank by title likelihood.

The surrogate head stands in for a frozen language model: a fixed vocabulary,
fixed token embeddings, and a fixed output layer. Only the three projection
networks train. Items whose titles become likely under the user's soft prompt
rise in the ranking, and because the head never moves, the gain is entirely
attributable to the projections.
"""

import numpy as np

from fusionrec.cot import FixtureAdapter
from fusionrec.projection import (
    ProjectionExample,
    init_projection_stack,
    make_surrogate_head,
    rank_candidates,
    surrogate_loss_and_gradients,
    train_projections,
)

# --- a small world: 10 items with two-token titles ---
rng = np.random.default_rng(5)
n_items = 10
titles = {f"q{i}": f"w{2 * i:02d} w{2 * i + 1:02d}" for i in range(n_items)}
z_vecs = {q: rng.normal(size=12) for q in sorted(titles)}
vocabulary = sorted({t for title in titles.values() for t in title.split()})
head = make_surrogate_head(vocabulary, d_token=32, seed=1)
stack = init_projection_stack(
    d_user=16, d_item=12, d_cot=24, d_token=32, hidden=24, rng=np.random.default_rng(2)
)

examples = []
for u in range(20):
    target = f"q{u % n_items}"
    examples.append(ProjectionExample(
        x_user=rng.normal(size=16),
        slate=[(q, titles[q], z_vecs[q]) for q in sorted(titles)],
        r_vec=rng.normal(size=24) if u % 2 else None,
        target_tokens=titles[target].split(),
        user=f"u{u:02d}",
    ))


def mean_loss():
    return float(np.mean([surrogate_loss_and_gradients(stack, ex, head)[0] for ex in examples]))


def mean_reciprocal_rank():
    total = 0.0
    for u, ex in enumerate(examples):
        ranked = rank_candidates(stack, head, ex.x_user, ex.slate, ex.r_vec)
        total += 1.0 / (ranked.index(f"q{u % n_items}") + 1)
    return total / len(examples)


print(f"before training: loss {mean_loss():.4f}, MRR {mean_reciprocal_rank():.4f}")
train_projections(stack, examples, epochs=60, batch_size=4, learning_rate=0.01,
                  head=head, rng=np.random.default_rng(3), optimizer="adam")
print(f"after 60 epochs:  loss {mean_loss():.4f}, MRR {mean_reciprocal_rank():.4f}")

# --- rank a slate for one user and explain the winner ---
user = examples[4]
ranked = rank_candidates(stack, head, user.x_user, user.slate, user.r_vec)
print(f"\n{user.user} slate order: {ranked[:3]} ... (target q4)")

winner = ranked[0]
fixture = FixtureAdapter({(user.user, winner): "It continues the run of even-index picks."})
print("explanation:", fixture.generate(user.user, winner, "", None))
