from __future__ import annotations

import base64
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrec.align import unified_item_embedding
from fusionrec.cot import FixtureAdapter
from fusionrec.errors import DataError, TrainingError
from fusionrec.evaluate import RecommendationPipeline
from fusionrec.gradcheck import max_relative_gradient_error
from fusionrec.projection import (
    PROMPT_INSTRUCTION,
    PROMPT_QUERY,
    CotSignal,
    ProjectionExample,
    SurrogateHead,
    UserContext,
    assemble_prompt,
    build_projection_examples,
    build_vocabulary,
    gradient_check_projection,
    init_projection_stack,
    load_explanation_fixture,
    make_surrogate_head,
    project_components,
    rank_candidates,
    render_prompt_text,
    request_explanation,
    surrogate_loss_and_gradients,
    train_projections,
    _batch_loss_and_grads,
    _theta_free_parts,
)
from fusionrec.semantic import fallback_embed
from oracles import oracle_projection_training, oracle_slate_items


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


def test_project_components_is_a_pair_of_two_layer_mlps():
    stack = _tiny_stack()
    rng = np.random.default_rng(0)
    x_user = rng.normal(size=5)
    z_item = rng.normal(size=4)
    r_cot = rng.normal(size=6)
    o_x, o_z, o_r = project_components(stack, x_user, z_item, r_cot)

    def forward(prefix, x):
        p = stack.params
        act = np.maximum(p[f"{prefix}.w1"] @ x + p[f"{prefix}.b1"], 0.0)
        return p[f"{prefix}.w2"] @ act + p[f"{prefix}.b2"]

    assert np.allclose(o_x, forward("fx", x_user), atol=1e-12)
    assert np.allclose(o_z, forward("fz", z_item), atol=1e-12)
    assert np.allclose(o_r, forward("fr", r_cot), atol=1e-12)
    assert o_x.shape == o_z.shape == o_r.shape == (8,)

    _, _, from_signal = project_components(stack, x_user, z_item, CotSignal(r_cot, 0.9))
    assert np.array_equal(from_signal, o_r)
    assert project_components(stack, x_user, z_item)[2] is None


def test_prompt_layout_interleaves_titles_and_soft_segments():
    o_x = np.arange(8.0)
    o_z = np.arange(8.0) + 10.0
    o_r = np.arange(8.0) + 20.0
    bundle = assemble_prompt(o_x, [("red fox", o_z)], o_r=o_r, user="u1")
    kinds = [seg[0] for seg in bundle.segments]
    assert kinds == ["soft", "text", "text", "soft", "soft", "text"]
    assert bundle.segments[1] == ("text", PROMPT_INSTRUCTION)
    assert bundle.segments[2] == ("text", "red fox")
    assert bundle.segments[-1] == ("text", PROMPT_QUERY)
    names = [seg[1] for seg in bundle.segments if seg[0] == "soft"]
    assert names == ["user", "item0", "reasoning"]
    assert np.array_equal(bundle.segments[0][2], o_x)
    assert bundle.user == "u1"
    with pytest.raises(ValueError, match="at least one candidate"):
        assemble_prompt(o_x, [])


@given(st.integers(min_value=1, max_value=10), st.booleans())
@settings(max_examples=40, deadline=None)
def test_prompt_layout_size_scales_with_candidates(n_candidates, with_cot):
    o = np.zeros(4)
    candidates = [(f"title {i}", o) for i in range(n_candidates)]
    bundle = assemble_prompt(o, candidates, o_r=o if with_cot else None)
    assert len(bundle.segments) == 3 + 2 * n_candidates + (1 if with_cot else 0)
    names = [seg[1] for seg in bundle.segments if seg[0] == "soft"]
    expected = ["user"] + [f"item{i}" for i in range(n_candidates)]
    if with_cot:
        expected.append("reasoning")
    assert names == expected


def test_render_prompt_text_encodes_soft_vectors_reversibly():
    o_x = np.linspace(-1.0, 1.0, 8)
    o_z = np.linspace(0.0, 2.0, 8)
    bundle = assemble_prompt(o_x, [("red fox", o_z)])
    rendered = render_prompt_text(bundle)
    lines = rendered.split("\n")
    assert len(lines) == len(bundle.segments)
    assert lines[1] == PROMPT_INSTRUCTION
    assert lines[2] == "red fox"
    match = re.fullmatch(r"<SOFT:user:(.+)>", lines[0])
    assert match
    decoded = np.frombuffer(base64.b64decode(match.group(1)), dtype="<f8")
    assert np.array_equal(decoded, o_x)


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
        vocabulary=vocab,
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
    parts = _theta_free_parts(batch, head)
    _, grads = _batch_loss_and_grads(stack.params, batch, parts, head)

    def loss_fn():
        return _batch_loss_and_grads(stack.params, batch, parts, head)[0]

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
        ranked = rank_candidates(stack, head, UserContext(x_user=ex.x_user, r_vec=ex.r_vec), ex.slate)
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
    with pytest.raises(ValueError, match="surrogate head is required"):
        train_projections(stack, examples[:4], epochs=1)


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
    ctx = UserContext(x_user=rng.normal(size=5))
    ranked = rank_candidates(stack, head, ctx, slate)
    assert sorted(ranked) == ["a", "b", "c"]
    assert rank_candidates(stack, head, ctx, list(reversed(slate))) == ranked

    twins = [("b", "red fox", rng.normal(size=4)), ("a", "red fox", rng.normal(size=4))]
    tied = rank_candidates(stack, head, ctx, twins)
    assert tied == ["a", "b"]
    with pytest.raises(ValueError, match="at least one candidate"):
        rank_candidates(stack, head, ctx, [])


def test_request_explanation_via_fixture():
    bundle = assemble_prompt(np.zeros(8), [("red fox", np.zeros(8))], user="u9")
    fixture = FixtureAdapter({("u9", "q3"): "Because it matches the streak."})
    assert request_explanation("q3", fixture, bundle) == "Because it matches the streak."
    assert request_explanation("q3", fixture, bundle, user="u9") == "Because it matches the streak."
    with pytest.raises(DataError, match="no fixture entry for user 'u1'"):
        request_explanation("q3", fixture, bundle, user="u1")

    class _Spy:
        def generate(self, user, item, prompt, instance=None):
            self.seen = (user, item, prompt, instance)
            return "ok"

    spy = _Spy()
    assert request_explanation("q3", spy, bundle) == "ok"
    assert spy.seen == ("u9", "q3", render_prompt_text(bundle), None)


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
    signal = CotSignal(embedding=fallback_embed("trace"), score=0.9)
    with_cot = build_projection_examples(
        toy_pipeline, split, catalog, rng=np.random.default_rng(9), slate_size=8,
        cot_signals={(user, target): signal},
    )
    flagged = {ex.user: ex for ex in with_cot}[user]
    assert np.array_equal(flagged.r_vec, signal.embedding)


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
