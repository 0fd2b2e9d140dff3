from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionrec.align import (
    COLLABORATIVE,
    SEMANTIC,
    AlignmentNetwork,
    build_alignment_dataset,
    decode,
    encode,
    gradient_check,
    init_alignment,
    stack_alignment_dataset,
    total_loss_and_gradients,
    train_alignment,
    unified_item_embedding,
)
from fusionrec.cf import CfConfig, train_cf
from fusionrec.data import SplitDataset, TrainingSequence
from fusionrec.errors import DataError, TrainingError
from fusionrec.gradcheck import max_relative_gradient_error
from fusionrec.optim import make_optimizer
from fusionrec.semantic import fallback_embed
from oracles import (
    oracle_alignment_loss_and_gradients,
    oracle_alignment_records,
    oracle_alignment_terms,
    oracle_full_width_training,
)


def _net_from_matrices(alpha=0.5, beta=0.2, dim=3, decoder_scale=1.0):
    eye = np.eye(dim)
    params = {
        "enc_c.w": eye.copy(), "enc_c.b": np.zeros(dim),
        "enc_s.w": eye.copy(), "enc_s.b": np.zeros(dim),
        "dec_c.w": decoder_scale * eye, "dec_c.b": np.zeros(dim),
        "dec_s.w": decoder_scale * eye, "dec_s.b": np.zeros(dim),
    }
    return AlignmentNetwork(dim, dim, dim, alpha, beta, params)


def _dataset(e, q, pairs, triples=None):
    """Dataset over item tables `e`, `q`; pairs[u] are user u's table rows."""
    if triples is None:
        triples = [[] for _ in pairs]
    return stack_alignment_dataset(
        [f"u{u}" for u in range(len(pairs))],
        [f"i{j}" for j in range(len(e))],
        np.asarray(e, dtype=np.float64),
        np.asarray(q, dtype=np.float64),
        pairs,
        triples,
    )


def _whole(dataset):
    """One batch holding every user of the dataset, in order."""
    return dataset.batch(np.arange(len(dataset)))


def _terms(net, batch):
    """The oracle's three loss terms; checks first that the fused training
    loss is their sum."""
    terms = oracle_alignment_terms(net, batch)
    assert total_loss_and_gradients(net, batch)[0] == pytest.approx(sum(terms), rel=1e-12)
    return terms


def _from_records(records, collab_dim, sem_dim):
    """Dataset from per-user (pairs, triples) records, where each pair is an
    explicit (collab_vec, sem_vec) and gets its own item-table row."""
    e_rows, q_rows, pairs = [], [], []
    for group, _ in records:
        pairs.append(list(range(len(e_rows), len(e_rows) + len(group))))
        e_rows.extend(e for e, _ in group)
        q_rows.extend(q for _, q in group)
    return _dataset(
        np.reshape(e_rows, (-1, collab_dim)),
        np.reshape(q_rows, (-1, sem_dim)),
        pairs,
        [trip for _, trip in records],
    )


def _triples_only(triples, dim=3):
    return _whole(_dataset(np.zeros((0, dim)), np.zeros((0, dim)), [[]], [triples]))


def _random_batch(net, rng, n_groups=2, triples=2, dead_columns=()):
    """A whole-dataset batch of random records; the semantic columns named in
    `dead_columns` are zero in every row."""
    groups = []
    for g in range(n_groups):
        size = g + 1
        groups.append(
            [
                (rng.normal(scale=0.5, size=net.collab_dim), rng.normal(scale=0.5, size=net.sem_dim))
                for _ in range(size)
            ]
        )
    trip = [
        (
            rng.normal(scale=0.5, size=net.collab_dim),
            rng.normal(scale=0.5, size=net.collab_dim),
            rng.normal(scale=0.5, size=net.collab_dim),
        )
        for _ in range(triples)
    ]
    records = [(group, trip if g == 0 else []) for g, group in enumerate(groups)]
    dataset = _from_records(records, net.collab_dim, net.sem_dim)
    dataset.q[:, list(dead_columns)] = 0.0
    return _whole(dataset)


def _live_view(net, batch, live):
    """The network and batch restricted to the semantic columns `live`, as
    train_alignment steps them; `enc_s.w[:, live]` is Fortran-ordered."""
    params = dict(net.params)
    params["enc_s.w"] = net.params["enc_s.w"][:, live]
    params["dec_s.w"] = net.params["dec_s.w"][live]
    params["dec_s.b"] = net.params["dec_s.b"][live]
    return replace(net, sem_dim=len(live), params=params), replace(batch, q=batch.q[:, live])


def _repeated_items_dataset(net, rng, with_triples=True):
    """Five items shared by five users, repeating inside a sequence and
    across sequences. With triples, each user draws 0-2 of them and a sixth
    user has triples but no pairs."""
    e = rng.normal(scale=0.5, size=(5, net.collab_dim))
    q = rng.normal(scale=0.5, size=(5, net.sem_dim))
    pairs = [[0, 1, 0], [1, 2, 2, 2], [3], [0, 3, 4, 1, 0], [4, 4]]

    def draw(n):
        return [tuple(rng.normal(scale=0.5, size=net.collab_dim) for _ in range(3))
                for _ in range(n)]

    triples = [draw(int(rng.integers(0, 3)) if with_triples else 0) for _ in pairs]
    if with_triples:
        pairs.append([])
        triples.append(draw(2))
    return pairs, triples, _dataset(e, q, pairs, triples)


def test_alignment_loss_uses_nested_means():
    net = _net_from_matrices()
    e = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]])
    q = np.zeros((3, 3))
    # inner means (1+3)/2 and 5, averaged across the two sequences
    assert _terms(net, _whole(_dataset(e, q, [[0, 1], [2]])))[0] == 3.5
    # a flat mean over the three pairs would give 3.0 instead
    assert _terms(net, _whole(_dataset(e, q, [[0, 1, 2]])))[0] == 3.0
    assert _terms(net, _triples_only([(np.ones(3),) * 3]))[0] == 0.0


def test_repeated_items_carry_their_summed_weights():
    net = _net_from_matrices()
    e = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    dataset = _dataset(e, np.zeros((2, 3)), [[0, 1, 0], [0], [1, 1]])
    batch = _whole(dataset)
    # item 0: 2/9 + 1/3 from the first two users; item 1: 1/9 + 1/3
    assert np.array_equal(batch.e, e)
    assert batch.w.tolist() == pytest.approx([5 / 9, 4 / 9], rel=1e-15)
    # per sequence: (1+3+1)/3, 1 and 3, averaged
    assert _terms(net, batch)[0] == pytest.approx((5 / 3 + 1 + 3) / 3, rel=1e-15)
    # a user with triples but no pairs does not count towards G
    with_triple = _dataset(e, np.zeros((2, 3)), [[0], []], [[], [(np.ones(3),) * 3]])
    assert _whole(with_triple).w.tolist() == [1.0]
    assert len(_whole(with_triple).x) == 1
    # the batch follows the chosen users, not the dataset order
    assert dataset.batch([2]).w.tolist() == [1.0]
    assert np.array_equal(dataset.batch([2]).e, e[1:])


def test_reconstruction_loss_weights_the_two_autoencoders():
    net = _net_from_matrices(alpha=0.5, beta=0.2, decoder_scale=0.0)
    batch = _whole(_dataset([[1.0, 1.0, 0.0]], [[2.0, 1.0, 0.0]], [[0]]))
    # zero decoders reproduce nothing, so the residuals are the inputs
    assert _terms(net, batch)[1] == 2.0
    net.beta = 0.0  # silence the semantic term to see the item term alone
    assert _terms(net, batch)[1] == 1.0
    net.alpha, net.beta = 1.0, 1.0
    assert _terms(net, batch)[1] == 7.0
    assert _terms(net, _triples_only([(np.ones(3),) * 3]))[1] == 0.0


def test_alpha_beta_must_be_positive():
    with pytest.raises(ValueError, match="alpha and beta"):
        _net_from_matrices(alpha=0.0)
    with pytest.raises(ValueError, match="alpha and beta"):
        _net_from_matrices(beta=0.0)
    with pytest.raises(ValueError, match="alpha and beta"):
        _net_from_matrices(alpha=1.2)


def test_recommendation_loss_matches_closed_form():
    net = _net_from_matrices()
    x = np.array([math.log(9.0), 0.0, 0.0])
    batch = _triples_only([(x, np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))])
    # sigmoid(ln 9) = 0.9 on the positive and 0.9 again on the flipped negative
    assert _terms(net, batch)[2] == pytest.approx(-2.0 * math.log(0.9), rel=1e-12)
    pairs_only = _whole(_dataset(np.ones((1, 3)), np.ones((1, 3)), [[0]]))
    assert _terms(net, pairs_only)[2] == 0.0


def test_recommendation_loss_is_clamped_at_saturation():
    net = _net_from_matrices()
    x = np.array([100.0, 0.0, 0.0])
    e = np.array([1.0, 0.0, 0.0])
    loss = _terms(net, _triples_only([(x, e, e)]))[2]
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log(1e-7) - math.log(1.0 - 1e-7), rel=1e-9)


def test_total_loss_is_the_unweighted_sum():
    net = init_alignment(5, 7, 4, 0.5, 0.2, rng=np.random.default_rng(1))
    batch = _random_batch(net, np.random.default_rng(2))
    loss, _ = total_loss_and_gradients(net, batch)
    assert loss == pytest.approx(sum(oracle_alignment_terms(net, batch)), rel=1e-12)
    zero_net = _net_from_matrices(decoder_scale=0.0)
    zero_net.params["enc_c.w"][...] = 0.0
    trip = [(np.ones(3), np.ones(3), np.ones(3))] * 3
    assert total_loss_and_gradients(zero_net, _triples_only(trip))[0] == pytest.approx(
        6.0 * math.log(2.0), rel=1e-15
    )
    empty = _random_batch(net, np.random.default_rng(2), n_groups=0, triples=0)
    assert total_loss_and_gradients(net, empty)[0] == 0.0


def test_gradients_match_finite_differences():
    net = init_alignment(5, 7, 4, 0.5, 0.2, rng=np.random.default_rng(1))
    batch = _random_batch(net, np.random.default_rng(2))
    assert gradient_check(net, batch) <= 1e-4
    empty = _random_batch(net, np.random.default_rng(2), n_groups=0, triples=0)
    assert gradient_check(net, empty) == 0.0
    # all-zero semantic columns: at full width their encoder gradient is
    # exactly zero; the L-wide view that training steps passes the check
    dead, live = [0, 3, 6], [1, 2, 4, 5]
    sparse = _random_batch(net, np.random.default_rng(3), dead_columns=dead)
    assert not sparse.q[:, dead].any() and sparse.q[:, live].all()
    _, grads = total_loss_and_gradients(net, sparse)
    assert not grads["enc_s.w"][:, dead].any() and grads["enc_s.w"][:, 1].any()
    view, live_batch = _live_view(net, sparse, live)
    assert view.params["dec_s.w"].shape == (4, 4) and live_batch.q.shape[1] == 4
    assert gradient_check(view, live_batch) <= 1e-4


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_zero_dead_decoder_rows_are_a_fixed_point_at_full_width(optimizer):
    dead = [0, 3, 6]
    rng = np.random.default_rng(1)
    net = init_alignment(5, 7, 4, 0.5, 0.2, rng=rng)
    for name in ("enc_c.b", "enc_s.b", "dec_c.b", "dec_s.b"):
        net.params[name] = rng.normal(size=net.params[name].shape)
    net.params["dec_s.w"][dead] = 0.0
    net.params["dec_s.b"][dead] = 0.0
    batch = _random_batch(net, np.random.default_rng(3), dead_columns=dead)
    _, grads = total_loss_and_gradients(net, batch)
    assert np.array_equal(grads["dec_s.w"][dead], np.zeros((3, 4)))
    assert np.array_equal(grads["dec_s.b"][dead], np.zeros(3))
    assert grads["dec_s.w"][[1, 2, 4, 5]].all() and grads["dec_s.b"][[1, 2, 4, 5]].all()
    opt = make_optimizer(optimizer, 1e-2)
    for _ in range(5):
        _, grads = total_loss_and_gradients(net, batch)
        opt.step(net.params, grads)
    assert np.array_equal(net.params["dec_s.w"][dead], np.zeros((3, 4)))
    assert np.array_equal(net.params["dec_s.b"][dead], np.zeros(3))
    assert net.params["dec_s.w"][[1, 2, 4, 5]].all()


def test_gradients_match_finite_differences_with_repeated_items():
    net = init_alignment(5, 7, 4, 0.5, 0.2, rng=np.random.default_rng(1))
    _, _, dataset = _repeated_items_dataset(net, np.random.default_rng(4))
    batch = _whole(dataset)
    assert len(batch.w) == 5 < int(dataset.pair_ptr[-1]) == 15
    assert gradient_check(net, batch) <= 1e-4


@pytest.mark.parametrize("with_triples", [True, False])
def test_stacked_batches_match_the_list_form_reference(with_triples):
    rng = np.random.default_rng(8 + with_triples)
    for trial in range(20):
        net = init_alignment(5, 7, 4, 0.5, 0.2, rng=rng)
        pairs, triples, dataset = _repeated_items_dataset(net, rng, with_triples)
        chosen = rng.permutation(len(dataset))[: int(rng.integers(1, len(dataset) + 1))]
        loss, grads = total_loss_and_gradients(net, dataset.batch(chosen))
        groups = [[(dataset.e[j], dataset.q[j]) for j in pairs[u]] for u in chosen if pairs[u]]
        ref_loss, ref_grads = oracle_alignment_loss_and_gradients(
            net, groups, [t for u in chosen for t in triples[u]]
        )
        assert np.allclose(loss, ref_loss, rtol=1e-10, atol=1e-12)
        for name, ref in ref_grads.items():
            assert grads[name].shape == ref.shape
            assert np.allclose(grads[name], ref, rtol=1e-10, atol=1e-12), (trial, name)


def test_gradient_check_catches_a_corrupted_gradient():
    net = init_alignment(5, 7, 4, 0.5, 0.2, rng=np.random.default_rng(1))
    batch = _random_batch(net, np.random.default_rng(2))
    _, grads = total_loss_and_gradients(net, batch)
    flat = grads["enc_c.w"].reshape(-1)
    flat[np.argmax(np.abs(flat))] *= 1.5
    worst = max_relative_gradient_error(
        lambda: total_loss_and_gradients(net, batch)[0], net.params, grads
    )
    assert worst > 1e-2


def test_training_reduces_the_objective():
    rng = np.random.default_rng(5)
    net = init_alignment(6, 9, 4, 0.5, 0.2, rng=rng)
    dataset = _from_records(
        [
            (
                [(rng.normal(size=6), rng.normal(size=9)) for _ in range(3)],
                [(rng.normal(size=6), rng.normal(size=6), rng.normal(size=6))],
            )
            for i in range(8)
        ],
        6,
        9,
    )
    out = train_alignment(net, dataset, epochs=30, batch_size=4, learning_rate=1e-3,
                          rng=np.random.default_rng(0))
    assert out is net
    assert len(net.training_log) == 30
    assert net.training_log[-1] < net.training_log[0]


def test_training_is_deterministic_and_zero_rate_is_a_noop():
    rng = np.random.default_rng(5)
    dataset = _from_records(
        [
            (
                [(rng.normal(size=4), rng.normal(size=6))],
                [(rng.normal(size=4), rng.normal(size=4), rng.normal(size=4))],
            )
            for i in range(5)
        ],
        4,
        6,
    )
    nets = [
        train_alignment(
            init_alignment(4, 6, 3, 0.5, 0.2, rng=np.random.default_rng(1)),
            dataset, epochs=4, batch_size=2, learning_rate=1e-3,
            rng=np.random.default_rng(2),
        )
        for _ in range(2)
    ]
    for name in nets[0].params:
        assert np.array_equal(nets[0].params[name], nets[1].params[name])
    assert nets[0].training_log == nets[1].training_log

    frozen = init_alignment(4, 6, 3, 0.5, 0.2, rng=np.random.default_rng(1))
    before = {name: arr.copy() for name, arr in frozen.params.items()}
    train_alignment(frozen, dataset, epochs=2, batch_size=2, learning_rate=0.0,
                    rng=np.random.default_rng(2))
    for name in before:
        assert np.array_equal(frozen.params[name], before[name])

    # with dead semantic columns, a zero rate changes only their decoder rows, to 0
    dead = [1, 4]
    dataset.q[:, dead] = 0.0
    frozen = init_alignment(4, 6, 3, 0.5, 0.2, rng=np.random.default_rng(1))
    frozen.params["dec_s.b"] += 1.0
    before = {name: arr.copy() for name, arr in frozen.params.items()}
    train_alignment(frozen, dataset, epochs=2, batch_size=2, learning_rate=0.0,
                    rng=np.random.default_rng(2))
    expected = {name: arr.copy() for name, arr in before.items()}
    expected["dec_s.w"][dead] = 0.0
    expected["dec_s.b"][dead] = 0.0
    for name in before:
        assert np.array_equal(frozen.params[name], expected[name]), name
    assert before["dec_s.w"][dead].all() and before["dec_s.b"][dead].all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_raises():
    rng = np.random.default_rng(5)
    dataset = _from_records(
        [([(rng.normal(size=4), rng.normal(size=6))], []) for i in range(6)], 4, 6
    )
    net = init_alignment(4, 6, 3, 0.5, 0.2, rng=np.random.default_rng(1))
    with pytest.raises(TrainingError, match="non-finite alignment loss"):
        train_alignment(net, dataset, epochs=4, batch_size=2, learning_rate=1e18,
                        rng=np.random.default_rng(2))


def test_encode_decode_contracts():
    net = _net_from_matrices()
    vec = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(encode(net, COLLABORATIVE, vec), vec)
    assert np.array_equal(decode(net, SEMANTIC, vec), vec)
    with pytest.raises(ValueError, match="unknown modality"):
        encode(net, "textual", vec)
    with pytest.raises(ValueError, match="unknown modality"):
        decode(net, "textual", vec)
    with pytest.raises(ValueError, match="does not match"):
        encode(net, COLLABORATIVE, np.ones(5))
    with pytest.raises(ValueError, match="empty group"):
        _dataset(np.zeros((0, 3)), np.zeros((0, 3)), [[]])


def test_build_alignment_dataset_pairs_and_triples(toy_world):
    model = toy_world["cf"]
    split = toy_world["split"]
    semantic = toy_world["semantic"]
    dataset = build_alignment_dataset(model, split, semantic, rng=np.random.default_rng(3),
                                      negatives_per_user=2)
    assert len(dataset)
    assert set(dataset.users) <= set(split.users())
    assert len(set(dataset.items)) == len(dataset.items) == len(dataset.e) == len(dataset.q)
    rows = {q: model.params["item_emb"][idx] for q, idx in model.item_index.items()}
    for u, user in enumerate(dataset.users[:8]):
        in_vocab = [q for q in split.train[user] if model.has_item(q)]
        table_rows = dataset.pair_item[dataset.pair_ptr[u]:dataset.pair_ptr[u + 1]]
        assert len(table_rows) == len(in_vocab)
        for j, item in zip(table_rows, in_vocab):
            assert dataset.items[j] == item
            assert np.array_equal(dataset.e[j], rows[item])
            assert np.array_equal(dataset.q[j], semantic[item])
        trip = slice(dataset.triple_ptr[u], dataset.triple_ptr[u + 1])
        if model.has_item(split.validation[user]) and in_vocab:
            assert trip.stop - trip.start == 2
            owned = set(split.full_sequence(user))
            for pos, neg in zip(dataset.pos[trip], dataset.neg[trip]):
                assert np.array_equal(pos, rows[split.validation[user]])
                negative_ids = [q for q, row in rows.items() if np.array_equal(row, neg)]
                assert negative_ids and all(q not in owned for q in negative_ids)

    bare = build_alignment_dataset(model, split, semantic, rng=np.random.default_rng(3),
                                   negatives_per_user=0)
    assert len(bare.x) == 0 and not bare.triple_ptr.any()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dead=st.lists(st.booleans(), min_size=6, max_size=6),
    sparse_rows=st.booleans(),
    with_triples=st.booleans(),
    optimizer=st.sampled_from(["sgd", "adam"]),
    learning_rate=st.sampled_from([1e-3, 1e-2]),
    epochs=st.integers(1, 3),
    batch_size=st.integers(1, 4),
)
@example(seed=0, dead=[False] * 6, sparse_rows=False, with_triples=True, optimizer="adam",
         learning_rate=1e-2, epochs=3, batch_size=2)
@example(seed=1, dead=[True] * 6, sparse_rows=False, with_triples=True, optimizer="sgd",
         learning_rate=1e-2, epochs=2, batch_size=3)
def test_live_column_training_matches_the_full_width_oracle(
    seed, dead, sparse_rows, with_triples, optimizer, learning_rate, epochs, batch_size
):
    rng = np.random.default_rng(seed)
    dims = init_alignment(4, len(dead), 3, 0.5, 0.2, rng=rng)
    _, _, dataset = _repeated_items_dataset(dims, rng, with_triples)
    if sparse_rows:
        dataset.q *= rng.random(dataset.q.shape) < 0.5
    dataset.q[:, dead] = 0.0
    nets = [init_alignment(4, len(dead), 3, 0.5, 0.2, rng=np.random.default_rng(seed + 1))
            for _ in range(2)]
    initial = {name: arr.copy() for name, arr in nets[0].params.items()}
    ours, oracle = nets
    kwargs = dict(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate,
                  optimizer=optimizer)
    train_alignment(ours, dataset, rng=np.random.default_rng(seed + 2), **kwargs)
    oracle_full_width_training(oracle, dataset, rng=np.random.default_rng(seed + 2), **kwargs)

    for name, ref in oracle.params.items():
        assert ours.params[name].shape == ref.shape
        assert np.allclose(ours.params[name], ref, rtol=0.0, atol=1e-12), name
    assert np.allclose(ours.training_log, oracle.training_log, rtol=1e-12, atol=0.0)
    dead_columns = np.setdiff1d(np.arange(len(dead)), dataset.live_columns())
    assert np.array_equal(ours.params["enc_s.w"][:, dead_columns],
                          initial["enc_s.w"][:, dead_columns])
    assert not ours.params["dec_s.w"][dead_columns].any()
    assert not ours.params["dec_s.b"][dead_columns].any()
    if not len(dead_columns):
        for name, ref in oracle.params.items():
            assert np.array_equal(ours.params[name], ref), name
        assert ours.training_log == oracle.training_log


@pytest.mark.parametrize("negatives", [1, 3])
def test_negatives_match_the_list_comprehension_oracle(toy_world, negatives):
    model = toy_world["cf"]
    split = toy_world["split"]
    train, validation, test = dict(split.train), dict(split.validation), dict(split.test)
    # owns the whole CF vocabulary, so no negative is eligible
    train["omni"], validation["omni"], test["omni"] = model.items[:-1], model.items[-1], "zz"
    # validation target outside the vocabulary: pairs but no triple
    train["stray"], validation["stray"], test["stray"] = model.items[:3], "zz", "zz"
    # nothing in the vocabulary: dropped
    train["ghost"], validation["ghost"], test["ghost"] = ["zy", "zx"], "zz", "zz"
    world = SplitDataset(train=train, validation=validation, test=test)
    semantic = {item: vec for k, (item, vec) in enumerate(sorted(toy_world["semantic"].items()))
                if k % 3}

    rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
    dataset = build_alignment_dataset(model, world, semantic, rng=rng,
                                      negatives_per_user=negatives)
    users, items, e_rows, q_rows, pairs, triples = oracle_alignment_records(
        model, world, semantic, oracle_rng, negatives
    )
    expected = stack_alignment_dataset(
        users, items, np.reshape(e_rows, (-1, model.config.embed_dim)),
        np.reshape(q_rows, (-1, 768)), pairs, triples,
    )
    assert dataset.users == expected.users and dataset.items == expected.items
    for name in ("e", "q", "pair_ptr", "pair_item", "triple_ptr", "x", "pos", "neg"):
        assert np.array_equal(getattr(dataset, name), getattr(expected, name)), name
    assert rng.integers(2**62) == oracle_rng.integers(2**62)
    per_user = dict(zip(dataset.users, np.diff(dataset.triple_ptr)))
    assert per_user["omni"] == 0 and per_user["stray"] == 0 and "ghost" not in per_user
    assert sum(per_user.values()) > negatives


def test_triples_alone_train_without_semantic_vectors(toy_world):
    model = toy_world["cf"]
    dataset = build_alignment_dataset(model, toy_world["split"], {}, rng=np.random.default_rng(3))
    assert len(dataset) and len(dataset.items) == 0
    assert dataset.e.shape == (0, model.config.embed_dim) and dataset.q.shape == (0, 768)
    assert len(dataset.x) == len(dataset)
    net = init_alignment(model.config.embed_dim, 768, 8, 0.5, 0.2, rng=np.random.default_rng(1))
    enc_s = net.params["enc_s.w"].copy()
    train_alignment(net, dataset, epochs=2, batch_size=8, learning_rate=1e-3,
                    rng=np.random.default_rng(2))
    assert all(math.isfinite(loss) for loss in net.training_log)
    assert np.array_equal(net.params["enc_s.w"], enc_s)


def test_build_alignment_dataset_requires_some_signal(toy_world):
    split = toy_world["split"]
    stranger = train_cf(
        [TrainingSequence("x", ("p1",), ("p2",))],
        CfConfig(embed_dim=4, heads=1, epochs=0),
        np.random.default_rng(0),
    )
    with pytest.raises(DataError, match="no user contributed"):
        build_alignment_dataset(stranger, split, {}, rng=np.random.default_rng(0))


def test_unified_embedding_routes_by_vocabulary(toy_world, toy_alignment):
    model = toy_world["cf"]
    net = toy_alignment
    semantic = dict(toy_world["semantic"])
    semantic["novel"] = fallback_embed("entirely new thing")

    warm_item = model.items[0]
    semantic[warm_item] = fallback_embed("text of a warm item")
    warm = unified_item_embedding(net, warm_item, model, semantic)
    row = model.params["item_emb"][model.item_index[warm_item]]
    assert np.array_equal(warm, encode(net, COLLABORATIVE, row))
    assert not np.array_equal(warm, encode(net, SEMANTIC, semantic[warm_item]))

    cold = unified_item_embedding(net, "novel", model, semantic)
    assert np.array_equal(cold, encode(net, SEMANTIC, semantic["novel"]))
    assert warm.shape == cold.shape == (net.latent_dim,)

    detached = unified_item_embedding(net, warm_item, None, semantic)
    assert np.array_equal(detached, encode(net, SEMANTIC, semantic[warm_item]))

    with pytest.raises(DataError, match="neither"):
        unified_item_embedding(net, "missing", model, {})
