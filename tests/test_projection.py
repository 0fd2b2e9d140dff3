from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrec.align import unified_item_embedding
from fusionrec.cot import load_explanation_fixture
from fusionrec.errors import DataError, TrainingError
from fusionrec.evaluate import RecommendationPipeline
from fusionrec.projection import (
    ProjectionDataset,
    ProjectionExample,
    SurrogateHead,
    build_projection_examples,
    build_vocabulary,
    init_projection_stack,
    make_surrogate_head,
    rank_candidates,
    surrogate_loss_and_gradients,
    train_projections,
    _batch_loss_and_grads,
    _theta_free_parts,
)
from fusionrec.semantic import fallback_embed
from oracles import (
    gradient_check_projection,
    max_relative_gradient_error,
    oracle_projection_examples,
    oracle_projection_training,
    oracle_slate_items,
    oracle_theta_free_parts,
)


def _tiny_stack(seed=2):
    return init_projection_stack(
        d_user=5, d_item=4, d_cot=6, d_token=8, hidden=6, rng=np.random.default_rng(seed)
    )


def _tiny_head():
    vocabulary = build_vocabulary(
        {"a": ("red fox", ""), "b": ("blue owl", ""), "c": ("green elk", "")}
    )
    return make_surrogate_head(vocabulary, d_token=8, seed=1)


def _tiny_example(rng, with_cot=True):
    slate = [
        ("a", "red fox", rng.normal(size=4)),
        ("b", "blue owl", rng.normal(size=4)),
        ("c", "green elk", rng.normal(size=4)),
    ]
    return ProjectionExample(
        x_user=rng.normal(size=5),
        slate=slate,
        r_vec=rng.normal(size=6) if with_cot else None,
        target_tokens=["red", "fox"],
        user="u0",
    )


@given(st.integers(min_value=1, max_value=10), st.booleans())
@settings(max_examples=40, deadline=None)
def test_segment_count_is_three_plus_two_per_candidate_plus_reasoning(n_candidates, with_cot):
    head = _tiny_head()
    rng = np.random.default_rng(n_candidates)
    example = ProjectionExample(
        x_user=rng.normal(size=5),
        slate=[(f"i{j}", "red fox", rng.normal(size=4)) for j in range(n_candidates)],
        r_vec=rng.normal(size=6) if with_cot else None,
        target_tokens=["red"],
    )
    parts = _theta_free_parts(ProjectionDataset.of([example]), head)
    assert parts.n_seg.tolist() == [3 + 2 * n_candidates + (1 if with_cot else 0)]


def test_build_vocabulary_sorted_unique_lowercase():
    catalog = {"a": ("Iron Man", "ignored words"), "b": ("iron fist", "")}
    assert build_vocabulary(catalog) == ["fist", "iron", "man"]
    with pytest.raises(DataError, match="empty vocabulary"):
        build_vocabulary({"a": ("", "only description")})


def test_make_surrogate_head_is_seeded_and_frozen():
    head = make_surrogate_head(["alpha", "beta"], d_token=8, seed=3)
    again = make_surrogate_head(["alpha", "beta"], d_token=8, seed=3)
    assert np.array_equal(head.w_out, again.w_out)
    assert np.array_equal(head.token_emb, again.token_emb)
    assert not head.w_out.flags.writeable
    assert head.token_index == {"alpha": 0, "beta": 1}


def test_zero_head_loss_is_log_vocab_size():
    vocab = [f"t{i:02d}" for i in range(50)]
    zero_head = SurrogateHead(
        token_index={t: i for i, t in enumerate(vocab)},
        w_out=np.zeros((50, 16)),
        b_out=np.zeros(50),
        token_emb=np.zeros((50, 16)),
        seed=0,
    )
    stack = init_projection_stack(d_user=5, d_item=4, d_cot=6, d_token=16, hidden=6,
                                  rng=np.random.default_rng(0))
    example = _tiny_example(np.random.default_rng(1))
    for targets in (["t03"], ["t03", "t07", "t00"]):
        loss, _ = surrogate_loss_and_gradients(
            stack, replace(example, target_tokens=targets), zero_head
        )
        assert loss == math.log(50.0)


def test_surrogate_lm_loss_input_validation():
    head = _tiny_head()
    stack = _tiny_stack()
    example = _tiny_example(np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-empty"):
        surrogate_loss_and_gradients(stack, replace(example, target_tokens=[]), head)
    with pytest.raises(DataError, match="outside the surrogate vocabulary"):
        surrogate_loss_and_gradients(stack, replace(example, target_tokens=["wolf"]), head)


def test_projection_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    head = _tiny_head()
    stack = _tiny_stack()
    assert gradient_check_projection(stack, _tiny_example(rng, with_cot=True), head) <= 1e-4
    assert gradient_check_projection(stack, _tiny_example(rng, with_cot=False), head) <= 1e-4


def test_mixed_batch_gradients_match_finite_differences():
    """Ragged slates and a missing reasoning vector, all in one batched step."""
    rng = np.random.default_rng(11)
    head = _tiny_head()
    stack = _tiny_stack()
    batch = [_tiny_example(rng, with_cot=True), _tiny_example(rng, with_cot=False),
             _tiny_example(rng, with_cot=True)]
    batch[0].slate = batch[0].slate[:1]
    batch[2].slate = batch[2].slate[:2]
    batch[2].target_tokens = ["green", "elk", "red"]
    data = ProjectionDataset.of(batch)
    parts = _theta_free_parts(data, head)
    _, grads = _batch_loss_and_grads(stack.params, data, parts, [0, 1, 2], head)

    def loss_fn():
        return _batch_loss_and_grads(stack.params, data, parts, [0, 1, 2], head)[0]

    assert max_relative_gradient_error(loss_fn, stack.params, grads) <= 1e-4


def _toy_training_setup():
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
        slate = [(q, titles[q], z_vecs[q]) for q in sorted(titles)]
        examples.append(
            ProjectionExample(
                x_user=rng.normal(size=16),
                slate=slate,
                r_vec=rng.normal(size=24) if u % 2 else None,
                target_tokens=titles[target].split(),
                user=f"u{u:02d}",
            )
        )
    return stack, head, examples, n_items


def _mean_loss(stack, head, examples):
    return float(np.mean([surrogate_loss_and_gradients(stack, ex, head)[0] for ex in examples]))


def _mean_reciprocal_rank(stack, head, examples, n_items):
    total = 0.0
    for u, ex in enumerate(examples):
        target = f"q{u % n_items}"
        ranked = rank_candidates(stack, head, ex.x_user, ex.slate, ex.r_vec)
        total += 1.0 / (ranked.index(target) + 1)
    return total / len(examples)


def test_training_lowers_loss_and_lifts_the_target():
    stack, head, examples, n_items = _toy_training_setup()
    before_loss = _mean_loss(stack, head, examples)
    before_mrr = _mean_reciprocal_rank(stack, head, examples, n_items)
    w_out_before = head.w_out.copy()
    token_emb_before = head.token_emb.copy()
    train_projections(
        stack, examples, epochs=60, batch_size=4, learning_rate=0.01,
        head=head, rng=np.random.default_rng(3), optimizer="adam",
    )
    after_loss = _mean_loss(stack, head, examples)
    after_mrr = _mean_reciprocal_rank(stack, head, examples, n_items)
    assert (before_loss - after_loss) / before_loss >= 0.30
    assert after_mrr >= 2.0 * before_mrr
    assert len(stack.training_log) == 60
    # the head never trains; only the projections move
    assert np.array_equal(head.w_out, w_out_before)
    assert np.array_equal(head.token_emb, token_emb_before)


def test_training_with_zero_rate_is_a_noop_and_needs_a_head():
    stack, head, examples, _ = _toy_training_setup()
    before = {name: arr.copy() for name, arr in stack.params.items()}
    train_projections(stack, examples[:4], epochs=2, batch_size=2, learning_rate=0.0,
                      head=head, rng=np.random.default_rng(0))
    for name in before:
        assert np.array_equal(stack.params[name], before[name])
    with pytest.raises(TypeError, match="'head'"):
        train_projections(stack, examples[:4], epochs=1, rng=np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_projection_training_names_the_epoch_and_batch():
    stack, head, examples, _ = _toy_training_setup()
    with pytest.raises(TrainingError, match=r"non-finite projection loss at epoch \d+, batch \d+"):
        train_projections(stack, examples, epochs=3, batch_size=4, learning_rate=1e300,
                          head=head, rng=np.random.default_rng(1))


def test_unknown_target_in_the_last_example_raises_before_any_step():
    stack, head, examples, _ = _toy_training_setup()
    examples[-1].target_tokens = ["w00", "unheard"]
    before = {name: arr.copy() for name, arr in stack.params.items()}
    # seed 1 puts the bad example last in the first epoch's order
    assert np.random.default_rng(1).permutation(len(examples))[-1] == len(examples) - 1
    with pytest.raises(DataError, match="'unheard' is outside the surrogate vocabulary"):
        train_projections(stack, examples, epochs=2, batch_size=2, learning_rate=0.1,
                          head=head, rng=np.random.default_rng(1), optimizer="adam")
    for name in before:
        assert np.array_equal(stack.params[name], before[name]), name
    assert stack.training_log == []


_PROJ_VOCAB = ["a1", "a2", "b1", "b2", "c1", "c2", "d1"]


@st.composite
def _projection_datasets(draw):
    """Examples with ragged slates, optional reasoning and 1-4 target tokens."""
    n = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    examples = []
    for u in range(n):
        titles = draw(st.lists(st.lists(st.sampled_from(_PROJ_VOCAB), min_size=1, max_size=3),
                               min_size=1, max_size=4))
        examples.append(ProjectionExample(
            x_user=rng.normal(size=5),
            slate=[(f"i{j}", " ".join(t), rng.normal(size=4)) for j, t in enumerate(titles)],
            r_vec=rng.normal(size=6) if draw(st.booleans()) else None,
            target_tokens=draw(st.lists(st.sampled_from(_PROJ_VOCAB), min_size=1, max_size=4)),
            user=f"u{u}",
        ))
    return examples


@given(
    dataset=_projection_datasets(),
    batch_choice=st.sampled_from([1, 2, 3, "n+1"]),
    optimizer=st.sampled_from(["sgd", "adam"]),
    epochs=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_batched_training_matches_the_per_example_oracle(dataset, batch_choice, optimizer, epochs):
    head = make_surrogate_head(_PROJ_VOCAB, d_token=8, seed=4)
    batch_size = len(dataset) + 1 if batch_choice == "n+1" else batch_choice
    learning_rate = 0.05 if optimizer == "sgd" else 0.01
    ours, reference = _tiny_stack(seed=6), _tiny_stack(seed=6)
    ours_rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
    train_projections(ours, dataset, epochs=epochs, batch_size=batch_size,
                      learning_rate=learning_rate, head=head, rng=ours_rng, optimizer=optimizer)
    oracle_projection_training(reference, dataset, epochs, batch_size, learning_rate, head,
                               reference_rng, optimizer)
    for name, ref in reference.params.items():
        assert np.allclose(ours.params[name], ref, rtol=0.0, atol=1e-12), name
    assert np.allclose(ours.training_log, reference.training_log, rtol=1e-12, atol=0.0)
    assert ours_rng.bit_generator.state == reference_rng.bit_generator.state


def test_rank_candidates_is_order_invariant_with_id_tiebreak():
    stack = _tiny_stack()
    head = _tiny_head()
    rng = np.random.default_rng(1)
    slate = [
        ("c", "green elk", rng.normal(size=4)),
        ("a", "red fox", rng.normal(size=4)),
        ("b", "blue owl", rng.normal(size=4)),
    ]
    x_user = rng.normal(size=5)
    ranked = rank_candidates(stack, head, x_user, slate)
    assert sorted(ranked) == ["a", "b", "c"]
    assert rank_candidates(stack, head, x_user, list(reversed(slate))) == ranked

    twins = [("b", "red fox", rng.normal(size=4)), ("a", "red fox", rng.normal(size=4))]
    tied = rank_candidates(stack, head, x_user, twins)
    assert tied == ["a", "b"]
    with pytest.raises(ValueError, match="at least one candidate"):
        rank_candidates(stack, head, x_user, [])


@pytest.mark.parametrize("with_cot", [False, True])
def test_rank_candidates_sorts_by_the_training_loss_of_each_title(with_cot):
    """The oracle: each candidate's loss is the surrogate training loss of the
    slate's example with that candidate's title as the target."""
    head = make_surrogate_head(_PROJ_VOCAB, d_token=8, seed=4)
    stack = _tiny_stack(seed=6)
    rng = np.random.default_rng(13 + with_cot)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        titles = [" ".join(rng.choice(_PROJ_VOCAB, size=rng.integers(1, 4))) for _ in range(n)]
        slate = [(f"i{j}", title, rng.normal(size=4)) for j, title in enumerate(titles)]
        # an exact-tie twin: another id with the same title, placed at random
        twin = (f"t{int(rng.integers(10))}", titles[int(rng.integers(n))], rng.normal(size=4))
        slate.insert(int(rng.integers(n + 1)), twin)
        x_user = rng.normal(size=5)
        r_vec = rng.normal(size=6) if with_cot else None

        def loss(title):
            example = ProjectionExample(x_user, slate, r_vec, title.lower().split())
            return surrogate_loss_and_gradients(stack, example, head)[0]

        expected = [item for _, item in sorted((loss(title), item) for item, title, _ in slate)]
        assert rank_candidates(stack, head, x_user, slate, r_vec) == expected


def test_build_projection_examples_structure(toy_world, toy_pipeline):
    split = toy_world["split"]
    catalog = toy_world["catalog"]
    examples = build_projection_examples(
        toy_pipeline, split, catalog, rng=np.random.default_rng(9), slate_size=8
    )
    assert len(examples) == len(split.users())
    by_user = {ex.user: ex for ex in examples}
    for user in list(split.users())[:6]:
        ex = by_user[user]
        target = split.validation[user]
        ids = [item for item, _, _ in ex.slate]
        assert target in ids
        assert ids == sorted(ids)
        assert len(ids) == min(8, len(ids))
        owned = set(split.full_sequence(user)) - {target}
        assert not owned & set(ids)
        assert ex.target_tokens == catalog[target][0].lower().split()
        assert ex.r_vec is None
        for _, title, z in ex.slate:
            assert z.shape == (24,)

    user = list(split.users())[0]
    target = split.validation[user]
    embedding = fallback_embed("trace")
    with_cot = build_projection_examples(
        toy_pipeline, split, catalog, rng=np.random.default_rng(9), slate_size=8,
        cot_embeddings={(user, target): embedding},
    )
    flagged = {ex.user: ex for ex in with_cot}[user]
    assert flagged.r_vec is embedding


def test_load_explanation_fixture_roundtrip(tmp_path):
    path = tmp_path / "explanations.tsv"
    path.write_text(
        "u1\tq1\tBecause the pacing\\nmatches.\nu2\tq2\tplain\n", encoding="utf-8"
    )
    table = load_explanation_fixture(path)
    assert table[("u1", "q1")] == "Because the pacing\nmatches."
    assert table[("u2", "q2")] == "plain"
    path.write_text("u1\tq1\n", encoding="utf-8")
    with pytest.raises(DataError, match="explanation fixture line 1: expected 3"):
        load_explanation_fixture(path)


@pytest.mark.parametrize("slate_size, short", [(8, False), (19, True)])
def test_projection_slates_match_the_per_user_oracle(toy_world, toy_alignment, slate_size, short):
    split = toy_world["split"]
    model = toy_world["cf"]
    pipeline = RecommendationPipeline(model, toy_alignment, toy_world["semantic"])
    examples = build_projection_examples(
        pipeline, split, toy_world["catalog"], rng=np.random.default_rng(9), slate_size=slate_size
    )
    expected = oracle_slate_items(
        split, sorted(split.item_universe()), slate_size, np.random.default_rng(9)
    )
    assert {ex.user: [item for item, _, _ in ex.slate] for ex in examples} == expected
    assert (min(map(len, expected.values())) < slate_size) == short
    for ex in examples:
        assert np.array_equal(ex.x_user, pipeline.user_vector(split.train[ex.user]))
        for item, title, z in ex.slate:
            assert title == toy_world["catalog"][item][0]
            unified = unified_item_embedding(toy_alignment, item, model, toy_world["semantic"])
            assert np.array_equal(z, unified)


def test_a_slate_with_exactly_enough_items_draws_like_an_eval_pool(toy_world, toy_alignment):
    split = toy_world["split"]
    universe = sorted(split.item_universe())
    users = split.users()
    eligible = [len(universe) - len(set(split.full_sequence(user))) for user in users]
    # the first user at the edge (eligible == slate_size - 1) with a later user that draws
    edge = next(i for i, n in enumerate(eligible[:-1]) if 0 < n < max(eligible[i + 1:]))
    slate_size = eligible[edge] + 1
    pipeline = RecommendationPipeline(toy_world["cf"], toy_alignment, toy_world["semantic"])
    examples = build_projection_examples(
        pipeline, split, toy_world["catalog"], rng=np.random.default_rng(4), slate_size=slate_size
    )
    expected = oracle_slate_items(split, universe, slate_size, np.random.default_rng(4))
    assert {ex.user: [item for item, _, _ in ex.slate] for ex in examples} == expected
    assert len(expected[users[edge]]) == slate_size


@given(dataset=_projection_datasets())
@settings(max_examples=60, deadline=None)
def test_stacked_parts_match_the_per_example_oracle(dataset):
    head = make_surrogate_head(_PROJ_VOCAB, d_token=8, seed=4)
    data = ProjectionDataset.of(dataset)
    parts = _theta_free_parts(data, head)
    expected = oracle_theta_free_parts(dataset, head)
    for b, (text_sum, n_seg, target_idx, prefix) in enumerate(expected):
        assert np.array_equal(parts.text_sum[b], text_sum)
        assert parts.n_seg[b] == n_seg
        steps = slice(parts.first[b], parts.first[b] + parts.steps[b])
        assert parts.target[steps].tolist() == target_idx
        assert np.array_equal(parts.prefix[steps], prefix)
    for example, view in zip(dataset, data):
        assert (view.user, view.target_tokens, view.r_vec) == (
            example.user, example.target_tokens, example.r_vec
        )
        assert [(item, title) for item, title, _ in view.slate] == [
            (item, title) for item, title, _ in example.slate
        ]
        assert all(np.array_equal(z, ez) for (_, _, z), (_, _, ez) in zip(view.slate, example.slate))


@given(slate_size=st.integers(1, 25), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_projection_examples_match_the_per_user_oracle(toy_world, toy_alignment, slate_size, seed):
    """Slates as table rows equal the list-form slates, short ones included,
    and train to the same floats as their list form."""
    split, catalog = toy_world["split"], toy_world["catalog"]
    pipeline = RecommendationPipeline(toy_world["cf"], toy_alignment, toy_world["semantic"])
    user = split.users()[0]
    cots = {(user, split.validation[user]): fallback_embed("a retained trace")}
    examples = build_projection_examples(
        pipeline, split, catalog, rng=np.random.default_rng(seed), slate_size=slate_size,
        cot_embeddings=cots,
    )
    expected = oracle_projection_examples(
        pipeline, split, catalog, np.random.default_rng(seed), slate_size, cots
    )
    assert len(examples) == len(expected)
    for got, want in zip(examples, expected):
        assert (got.user, got.target_tokens, got.r_vec) == (want.user, want.target_tokens, want.r_vec)
        assert np.array_equal(got.x_user, want.x_user)
        assert [(item, title) for item, title, _ in got.slate] == [
            (item, title) for item, title, _ in want.slate
        ]
        assert all(np.array_equal(z, wz) for (_, _, z), (_, _, wz) in zip(got.slate, want.slate))
    assert examples.pool_shortfalls == sum(len(want.slate) < slate_size for want in expected)

    vocabulary = build_vocabulary(catalog)
    head = make_surrogate_head(vocabulary, d_token=8, seed=1)
    stacks = []
    for dataset in (examples, expected):
        stack = init_projection_stack(d_user=toy_world["cf"].config.embed_dim,
                                      d_item=toy_alignment.latent_dim, d_cot=768, d_token=8,
                                      hidden=6, rng=np.random.default_rng(2))
        train_projections(stack, dataset, epochs=1, batch_size=3, learning_rate=0.01, head=head,
                          rng=np.random.default_rng(3), optimizer="adam")
        stacks.append(stack)
    for name, value in stacks[0].params.items():
        assert np.array_equal(value, stacks[1].params[name]), name
    assert stacks[0].training_log == stacks[1].training_log
